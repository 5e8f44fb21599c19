import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairkcenter import (
    EUCLIDEAN,
    CenterSet,
    Dataset,
    DistanceMetric,
    FairnessSpec,
    Point,
    check_fairness,
    clustering_cost,
    distance,
)

from conftest import pt, stream

coords3 = st.tuples(*[st.floats(-1e6, 1e6) for _ in range(3)])


def test_distance_identity():
    assert distance(pt(0, 0.0), pt(1, 0.0)) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_point_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="point 3 has a non-finite coordinate"):
        pt(3, (0.0, bad))


def test_distance_one_dimensional():
    assert distance(pt(0, 0.0), pt(1, 3.0)) == 3.0


def test_distance_three_four_five():
    assert distance(pt(0, (0.0, 0.0)), pt(1, (3.0, 4.0))) == 5.0


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        distance(pt(0, (0.0,)), pt(1, (0.0, 0.0)))


def test_distance_custom_callable():
    manhattan = DistanceMetric.from_callable(lambda a, b: sum(abs(x - y) for x, y in zip(a, b)))
    assert distance(pt(0, (0.0, 0.0)), pt(1, (3.0, 4.0)), manhattan) == 7.0


def test_nearest_of_an_empty_list_is_inf():
    assert EUCLIDEAN.nearest(pt(0, (1.0, 2.0)), []) == (math.inf, -1)


def test_nearest_keeps_the_earliest_of_exact_ties():
    stored = [(3.0,), (-1.0,), (1.0,), (-1.0,)]
    assert EUCLIDEAN.nearest(pt(0, 0.0), stored) == (1.0, 1)


def poisoned_metric():
    """|a - b| in 1-D, except that stored coordinate 5 is at NaN and 6 at inf."""
    special = {5.0: math.nan, 6.0: math.inf}
    return DistanceMetric.from_callable(lambda a, b: special.get(b[0], abs(a[0] - b[0])), "poisoned")


def test_nearest_never_picks_a_nan_or_inf_distance():
    metric = poisoned_metric()
    p = pt(0, 0.0)
    assert metric.nearest(p, [(5.0,), (6.0,), (2.0,), (5.0,), (3.0,)]) == (2.0, 2)
    assert metric.nearest(p, [(5.0,), (5.0,)]) == (math.inf, -1)
    assert metric.nearest(p, [(6.0,), (5.0,)]) == (math.inf, -1)


def test_nearest_names_the_point_on_a_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch: point 7 has 1 coords, stored points have 2"):
        EUCLIDEAN.nearest(pt(7, 0.0), [(0.0, 0.0), (1.0, 1.0)])


def test_cost_checks_every_center_dimension():
    # a zip-based metric would silently truncate the longer coordinate tuple
    manhattan = DistanceMetric.from_callable(lambda a, b: sum(abs(x - y) for x, y in zip(a, b)))
    pts = stream([((0.0, 0.0), 1)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        clustering_cost(pts, [pt(8, (1.0, 1.0)), pt(9, 1.0)], manhattan)


def test_cost_ignores_a_nan_distance():
    # the point at 0 is NaN from center 5 and 3 from center 3
    pts = stream([(0.0, 1), (3.0, 1)])
    assert clustering_cost(pts, [pt(8, 5.0), pt(9, 3.0)], poisoned_metric()) == 3.0


@given(coords3, coords3, coords3)
def test_triangle_inequality_euclidean(a, b, c):
    pa, pb, pc = pt(0, a), pt(1, b), pt(2, c)
    assert distance(pa, pc) <= distance(pa, pb) + distance(pb, pc) + 1e-6


def test_cost_single_center():
    pts = stream([(0.0, 1), (3.0, 1)])
    assert clustering_cost(pts, [pts[0]]) == 3.0


def test_cost_exhaustive_min_max():
    # expected value from scanning all five point-to-center minima by hand:
    # {0->1, 1->0, 10->0, 11->1, 20->0}
    pts = stream([(0.0, 1), (1.0, 1), (10.0, 1), (11.0, 1), (20.0, 1)])
    centers = [pts[1], pts[2], pts[4]]
    assert clustering_cost(pts, centers) == 1.0


def test_cost_zero_when_centers_cover_everything():
    pts = stream([(0.0, 1), (5.0, 2)])
    assert clustering_cost(pts, pts) == 0.0


def test_cost_rejects_empty():
    pts = stream([(0.0, 1)])
    with pytest.raises(ValueError):
        clustering_cost(pts, [])
    with pytest.raises(ValueError):
        clustering_cost([], pts)


@given(st.lists(st.tuples(st.floats(-100, 100), st.integers(1, 2)), min_size=1, max_size=8))
def test_cost_zero_iff_every_point_coincides(rows):
    pts = stream(rows)
    centers = CenterSet((pts[0],))
    cost = clustering_cost(pts, centers)
    coincide = all(p.coords == pts[0].coords for p in pts)
    assert (cost == 0.0) == coincide


def test_fairness_at_capacity_is_feasible():
    centers = CenterSet((pt(0, 0.0, 1), pt(1, 1.0, 2), pt(2, 2.0, 2)))
    assert check_fairness(centers, FairnessSpec((1, 2))) == []


def test_fairness_group_violation():
    centers = CenterSet((pt(0, 0.0, 1), pt(1, 1.0, 1)))
    report = check_fairness(centers, FairnessSpec((1, 2)))
    assert len(report) == 1
    assert report[0].kind == "group" and report[0].group == 1
    assert (report[0].count, report[0].limit) == (2, 1)


def test_fairness_under_capacity():
    centers = CenterSet((pt(0, 0.0, 1), pt(1, 1.0, 2)))
    assert check_fairness(centers, FairnessSpec((1, 2))) == []


@given(st.lists(st.integers(1, 3), min_size=1, max_size=6), st.integers(0, 5))
def test_fairness_monotone_under_center_removal(groups, drop_at):
    spec = FairnessSpec((1, 1, 1))
    centers = CenterSet(tuple(pt(i, float(i), g) for i, g in enumerate(groups)))
    before = {(v.kind, v.group) for v in check_fairness(centers, spec)}
    kept = tuple(p for i, p in enumerate(centers) if i != drop_at % len(groups))
    if not kept:
        return
    after = {(v.kind, v.group) for v in check_fairness(CenterSet(kept), spec)}
    assert after <= before


def test_fairness_spec_validation():
    with pytest.raises(ValueError):
        FairnessSpec(())
    with pytest.raises(ValueError):
        FairnessSpec((-1, 2))
    with pytest.raises(ValueError):
        FairnessSpec((0, 0))
    spec = FairnessSpec((1, 2))
    assert (spec.m, spec.k, spec.cap(1), spec.cap(2)) == (2, 3, 1, 2)


@pytest.mark.parametrize("cap", [2.5, 0.9, math.nan, math.inf, "2"])
def test_fairness_spec_refuses_a_cap_that_is_not_a_whole_number(cap):
    with pytest.raises(ValueError, match=rf"^cap {re.escape(repr(cap))} is not a whole number$"):
        FairnessSpec((cap, 1))


def test_fairness_spec_takes_whole_number_floats_and_numpy_integers():
    spec = FairnessSpec((2.0, np.int64(3)))
    assert spec.caps == (2, 3) and all(type(c) is int for c in spec.caps)
    assert FairnessSpec((np.float64(1.0), np.int32(0))).caps == (1, 0)


def test_center_set_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        CenterSet((pt(0, 0.0), pt(0, 1.0)))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset.from_points([])
    with pytest.raises(ValueError, match="dimension"):
        Dataset.from_points([pt(0, (0.0,)), pt(1, (0.0, 1.0))])
    ds = Dataset.from_points(stream([(0.0, 1), (1.0, 2)]))
    assert (ds.dim, ds.m, len(ds)) == (1, 2, 2)
    with pytest.raises(ValueError, match="group label"):
        Dataset.from_points(stream([(0.0, 1), (1.0, 2)]), m=1)


def test_point_validation():
    with pytest.raises(ValueError):
        Point(0, (), 1)
    with pytest.raises(ValueError):
        Point(0, (0.0,), 0)
    assert EUCLIDEAN.kind == "euclidean"
