import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairkcenter import (
    EUCLIDEAN,
    CenterSet,
    DistanceMetric,
    FairnessSpec,
    Point,
    check_fairness,
    clustering_cost,
)

from conftest import pt, stream

coords3 = st.tuples(*[st.floats(-1e6, 1e6) for _ in range(3)])


def test_distance_identity():
    assert EUCLIDEAN(pt(0, 0.0), pt(1, 0.0)) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_point_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="point 3 has a non-finite coordinate"):
        pt(3, (0.0, bad))


def test_distance_one_dimensional():
    assert EUCLIDEAN(pt(0, 0.0), pt(1, 3.0)) == 3.0


def test_distance_three_four_five():
    assert EUCLIDEAN(pt(0, (0.0, 0.0)), pt(1, (3.0, 4.0))) == 5.0


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        EUCLIDEAN(pt(0, (0.0,)), pt(1, (0.0, 0.0)))


def test_distance_custom_callable():
    manhattan = DistanceMetric.from_callable(lambda a, b: sum(abs(x - y) for x, y in zip(a, b)))
    assert manhattan(pt(0, (0.0, 0.0)), pt(1, (3.0, 4.0))) == 7.0


def test_nearest_of_an_empty_list_is_inf():
    assert EUCLIDEAN.nearest(pt(0, (1.0, 2.0)), []) == (math.inf, -1)


@pytest.mark.parametrize("within", [-1.0, 0.0, 2.5, math.inf])
def test_nearest_of_an_empty_list_is_inf_at_any_stop_radius(within):
    def never(a, b):
        raise AssertionError("an empty scan evaluated a distance")

    assert DistanceMetric.from_callable(never).nearest(pt(0, (1.0, 2.0)), [], within) == (math.inf, -1)


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


def forward_nearest(fn, pc, stored):
    """The kernel before its stop radius: a forward scan keeping the first
    strict minimum, so ties keep the earliest index and NaN or inf never wins."""
    best, best_idx = math.inf, -1
    for idx, q in enumerate(stored):
        d = fn(pc, q)
        if d < best:
            best, best_idx = d, idx
    return best, best_idx


def grid_metrics():
    """Euclidean, plus 1-D and 2-D custom metrics that return NaN or inf for
    some stored coordinates (the poisoned cells of a small integer grid)."""
    def poisoned(a, b):
        if b[0] == 5.0:
            return math.nan
        if b[0] == 6.0:
            return math.inf
        return sum(abs(x - y) for x, y in zip(a, b))

    return [EUCLIDEAN, DistanceMetric.from_callable(poisoned, "poisoned-l1")]


def test_nearest_matches_the_forward_reference_and_stops_at_the_newest_point_within():
    rng = np.random.default_rng(31)
    stopped = full = 0
    for case in range(1500):
        metric = grid_metrics()[case % 2]
        dim = int(rng.integers(1, 3))
        n = int(rng.integers(0, 12))
        # a 0..7 grid: duplicates and exact distance ties are common
        stored = [tuple(map(float, rng.integers(0, 8, size=dim))) for _ in range(n)]
        p = pt(0, tuple(map(float, rng.integers(0, 8, size=dim))))
        reference = forward_nearest(metric.fn, p.coords, stored)
        d, idx = metric.nearest(p, stored)
        assert (d.hex(), idx) == (reference[0].hex(), reference[1]), case
        within = [-1.0, 0.0, 1.0, 2.0, float(rng.integers(0, 8)), math.inf][case % 6]
        close = [i for i, q in enumerate(stored) if metric.fn(p.coords, q) <= within]
        d, idx = metric.nearest(p, stored, within)
        if close:
            stopped += 1
            assert idx == close[-1] and d == metric.fn(p.coords, stored[idx]), case
        else:
            full += 1
            assert (d.hex(), idx) == (reference[0].hex(), reference[1]), case
    assert stopped > 300 and full > 300


def test_a_scan_that_stops_at_index_i_makes_n_minus_i_evaluations():
    calls = []

    def counted(a, b):
        calls.append(b)
        return abs(a[0] - b[0])

    metric = DistanceMetric.from_callable(counted, "counted")
    stored = [(0.0,), (10.0,), (1.0,), (20.0,), (30.0,)]
    assert metric.nearest(pt(0, 0.5), stored, 0.5) == (0.5, 2)
    assert len(calls) == len(stored) - 2
    calls.clear()
    assert metric.nearest(pt(0, 0.5), stored, 0.25) == (0.5, 0)  # nothing that close: the exact result
    assert len(calls) == len(stored)


def test_first_within_stops_where_nearest_stops():
    def nan_pair(a, b):
        return math.nan if (a[0], b[0]) == (3.0, 4.0) else sum(abs(x - y) for x, y in zip(a, b))

    metrics = grid_metrics() + [
        DistanceMetric.from_callable(lambda a, b: math.inf, "inf"),
        DistanceMetric.from_callable(nan_pair, "nan-pair"),
    ]
    rng = np.random.default_rng(33)
    stopped = missed = at_a_distance = 0
    for case in range(2000):
        metric = metrics[case % len(metrics)]
        dim = int(rng.integers(1, 3))
        n = int(rng.integers(0, 12))
        # a 0..7 grid, with one more copy of a stored point in every other list
        stored = [tuple(map(float, rng.integers(0, 8, size=dim))) for _ in range(n)]
        if stored and case % 2:
            stored.insert(int(rng.integers(0, n + 1)), stored[int(rng.integers(0, n))])
        p = pt(0, tuple(map(float, rng.integers(0, 8, size=dim))))
        dists = [metric.fn(p.coords, q) for q in stored]
        radii = [-1.0, 0.0, 1.0, math.inf]
        if dists:
            hit = dists[int(rng.integers(0, len(dists)))]  # a stored distance exactly, or just below it
            radii += [hit, math.nextafter(hit, -math.inf)]
        radius = radii[int(rng.integers(0, len(radii)))]
        at_a_distance += radius in dists
        d, idx = metric.nearest(p, stored, radius)
        stop = idx if d <= radius else -1  # an empty list returns (inf, -1), which no radius stops at
        close = [i for i, x in enumerate(dists) if x <= radius]
        assert metric.first_within(p.coords, stored, radius) == stop == (close[-1] if close else -1), case
        stopped += stop >= 0
        missed += stop < 0
    assert stopped > 500 and missed > 500 and at_a_distance > 300


@pytest.mark.parametrize("radius", [-1.0, 0.0, 2.5, math.inf])
def test_first_within_of_an_empty_list_is_minus_one(radius):
    def never(a, b):
        raise AssertionError("an empty scan evaluated a distance")

    assert DistanceMetric.from_callable(never).first_within((1.0, 2.0), [], radius) == -1


def test_first_within_passes_over_nan_and_stops_at_inf_only_under_an_inf_radius():
    metric = poisoned_metric()  # stored 5 is at NaN, 6 at inf
    assert metric.first_within((0.0,), [(2.0,), (6.0,), (5.0,)], 3.0) == 0
    assert metric.first_within((0.0,), [(6.0,), (5.0,)], 1e308) == -1
    assert metric.first_within((0.0,), [(6.0,), (5.0,)], math.inf) == 0


def test_cost_replay_equals_the_forward_maximum():
    rng = np.random.default_rng(32)
    for case in range(300):
        metric = grid_metrics()[case % 2]
        points = [pt(i, tuple(map(float, rng.integers(0, 8, size=2)))) for i in range(int(rng.integers(1, 15)))]
        centers = points[: int(rng.integers(1, len(points) + 1))]
        coords = [c.coords for c in centers]
        expected = max(forward_nearest(metric.fn, p.coords, coords)[0] for p in points)
        assert clustering_cost(points, centers, metric).hex() == expected.hex(), case


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
    assert EUCLIDEAN(pa, pc) <= EUCLIDEAN(pa, pb) + EUCLIDEAN(pb, pc) + 1e-6


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
    with pytest.raises(ValueError, match=r"^group 0 outside 1\.\.2$"):
        spec.cap(0)


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


def test_point_validation():
    with pytest.raises(ValueError):
        Point(0, (), 1)
    with pytest.raises(ValueError):
        Point(0, (0.0,), 0)
    assert EUCLIDEAN.kind == "euclidean"
