import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairkcenter import (
    DistanceMetric,
    FairnessSpec,
    IndependentSet,
    OfferStatus,
    brute_force_opt,
)

from conftest import pt, random_two_group_instance


def test_first_offer_is_added():
    s = IndependentSet(2.0)
    assert s.offer(pt(0, 0.0)).status is OfferStatus.ADDED


def test_offer_within_threshold_is_covered():
    s = IndependentSet(2.0)
    s.offer(pt(0, 0.0))
    _, covering = s.nearest(pt(1, 1.0))
    assert s.min_dist(pt(1, 1.0)) == 1.0
    res = s.offer(pt(1, 1.0))
    assert res.status is OfferStatus.COVERED
    assert covering.id == 0


def test_offer_beyond_threshold_is_added():
    s = IndependentSet(2.0)
    s.offer(pt(0, 0.0))
    assert s.offer(pt(1, 10.0)).status is OfferStatus.ADDED
    assert len(s) == 2


def test_offer_at_exactly_threshold_stays_covered():
    s = IndependentSet(2.0)
    s.offer(pt(0, 0.0))
    assert s.offer(pt(1, 2.0)).status is OfferStatus.COVERED


def test_min_dist():
    s = IndependentSet(1.0)
    assert s.min_dist(pt(9, 5.0)) == math.inf
    s.offer(pt(0, 0.0))
    s.offer(pt(1, 10.0))
    assert s.min_dist(pt(2, 4.0)) == 4.0
    assert s.min_dist(pt(3, 7.0)) == 3.0


def test_overflow_with_cap_one():
    s = IndependentSet(2.0, cap=1)
    s.offer(pt(0, 0.0))
    assert s.offer(pt(1, 10.0)).status is OfferStatus.OVERFLOW
    assert s.overflowed
    assert [p.id for p in s.members] == [0]  # overflow stores nothing


def test_no_overflow_with_cap_two():
    s = IndependentSet(2.0, cap=2)
    s.offer(pt(0, 0.0))
    s.offer(pt(1, 10.0))
    assert not s.overflowed


def test_never_overflows_without_cap():
    s = IndependentSet(0.5)
    for i in range(50):
        s.offer(pt(i, float(i)))
    assert not s.overflowed


def test_overflow_is_sticky():
    s = IndependentSet(2.0, cap=1)
    s.offer(pt(0, 0.0))
    s.offer(pt(1, 10.0))
    with pytest.raises(RuntimeError, match="overflowed"):
        s.offer(pt(2, 20.0))


def test_a_negative_threshold_or_cap_is_refused():
    with pytest.raises(ValueError, match="threshold must be nonnegative"):
        IndependentSet(-1.0)
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        IndependentSet(1.0, cap=-1)


def test_group_filter_mismatch():
    s = IndependentSet(2.0, group_filter=1)
    with pytest.raises(ValueError, match="group"):
        s.offer(pt(0, 0.0, group=2))


def test_a_stopped_scan_counts_every_member_as_logical_and_only_those_made_as_performed():
    s = IndependentSet(3.0)
    for i, x in enumerate([0.0, 10.0, 20.0, 30.0]):
        s.offer(pt(i, x))
    # an offer that nothing covers scans every member
    assert s.stats.evals_performed == s.stats.distance_evals
    logical, performed = s.stats.distance_evals, s.stats.evals_performed
    # newest first: 30 and 20 are farther than 3, 10 at index 1 is within it
    assert s.min_dist(pt(9, 11.0), within=3.0) == 1.0
    assert s.stats.distance_evals - logical == 4
    assert s.stats.evals_performed - performed == 4 - 1
    assert s.min_dist(pt(9, 50.0), within=3.0) == 20.0  # nothing within: every member
    assert s.stats.evals_performed - performed == 3 + 4


def test_an_offer_stops_its_cover_scan_at_the_newest_member_within_the_threshold():
    made = []

    def counted(a, b):
        made.append(b)
        return abs(a[0] - b[0])

    metric = DistanceMetric.from_callable(counted, "counted")
    n = 6
    for i in range(n):
        s = IndependentSet(3.0, metric)
        for j in range(n):
            s.offer(pt(j, 10.0 * j), clear=True)  # members 0, 10, ..., 50, unscanned
        made.clear()
        # only member i is within the threshold: newest first, the scan makes
        # n - i evaluations and counts all n as logical ones
        assert s.offer(pt(n, 10.0 * i + 1.0)).status is OfferStatus.COVERED
        assert made == [(10.0 * j,) for j in range(n - 1, i - 1, -1)]
        assert (s.stats.distance_evals, s.stats.evals_performed) == (n, n - i)


def test_offer_costs_exactly_one_eval_per_member():
    s = IndependentSet(3.0)
    for i, x in enumerate([0.0, 10.0, 20.0, 11.0, 40.0]):
        before = s.stats.distance_evals
        members_before = len(s)
        s.offer(pt(i, x))
        assert s.stats.distance_evals - before == members_before


def test_a_clear_offer_stores_without_a_scan_and_keeps_its_refusals():
    s = IndependentSet(3.0, cap=2, group_filter=1)
    s.offer(pt(0, 0.0))
    stats = (s.stats.distance_evals, s.stats.evals_skipped)
    # clear: the caller's own scan found the point beyond the threshold, so
    # the set neither scans nor tests cover
    assert s.offer(pt(1, 10.0), clear=True).status is OfferStatus.ADDED
    with pytest.raises(ValueError, match="set accepts group 1"):
        s.offer(pt(2, 20.0, group=2), clear=True)
    assert s.offer(pt(3, 20.0), clear=True).status is OfferStatus.OVERFLOW
    assert s.overflowed and [p.id for p in s.members] == [0, 1]
    with pytest.raises(RuntimeError, match="overflowed"):
        s.offer(pt(4, 30.0), clear=True)
    assert (s.stats.distance_evals, s.stats.evals_skipped) == stats


def test_clear_is_keyword_only_so_an_old_scan_argument_is_refused():
    s = IndependentSet(3.0)
    s.offer(pt(0, 0.0))
    # a (distance, index) scan passed where a scan used to go would be truthy,
    # and would store a covered point unscanned
    with pytest.raises(TypeError):
        s.offer(pt(1, 1.0), (math.inf, -1))
    assert s.offer(pt(1, 1.0)).status is OfferStatus.COVERED and len(s) == 1


offer_rows = st.lists(
    st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=1, max_size=30
)


@given(offer_rows, st.floats(0.1, 20))
@settings(max_examples=250)
def test_separation_and_coverage_invariants(rows, threshold):
    s = IndependentSet(threshold)
    offered = []
    for i, coords in enumerate(rows):
        p = pt(i, coords)
        offered.append(p)
        s.offer(p)
    for a, b in itertools.combinations(s.members, 2):
        assert math.dist(a.coords, b.coords) > threshold
    # members are never removed, so the final set covers every offered point
    for p in offered:
        assert min(math.dist(p.coords, q.coords) for q in s.members) <= threshold


def test_no_overflow_at_twice_oracle_radius(rng):
    # with the threshold at twice the optimal radius and cap k, the stored
    # set can never outgrow the number of optimal clusters, in any offer order
    for trial in range(25):
        points, spec = random_two_group_instance(rng, max_n=10)
        r_opt = brute_force_opt(points, spec).r_opt
        for order in range(3):
            shuffled = list(points)
            rng.shuffle(shuffled)
            sets = {
                g: IndependentSet(2.0 * r_opt, cap=spec.k, group_filter=g) for g in (1, 2)
            }
            for p in shuffled:
                sets[p.group].offer(p)
            assert not sets[1].overflowed and not sets[2].overflowed


def test_custom_metric_matches_euclidean_decisions(rng):
    scalar = DistanceMetric.from_callable(lambda a, b: math.dist(a, b), name="scalar-euclidean")
    for trial in range(20):
        coords = rng.integers(0, 15, size=(12, 2)).astype(float)
        fast = IndependentSet(3.0)
        slow = IndependentSet(3.0, metric=scalar)
        for i, c in enumerate(coords):
            p = pt(i, tuple(c))
            assert fast.offer(p).status == slow.offer(p).status
        assert [p.id for p in fast.members] == [p.id for p in slow.members]
        assert fast.stats.distance_evals == slow.stats.distance_evals


# ----------------------------------------------------------------------
# the scan kernel: exact at every set size and coordinate scale
# ----------------------------------------------------------------------
def reference_offers(points, threshold):
    """Offer decisions of a plain ``math.dist`` loop with the first strict
    minimum: (status, covering point's id, min_dist) per offered point."""
    stored = []
    decisions = []
    for p in points:
        best, best_q = math.inf, None
        for q in stored:
            d = math.dist(p.coords, q.coords)
            if d < best:
                best, best_q = d, q
        if best_q is not None and best <= threshold:
            decisions.append((OfferStatus.COVERED, best_q.id, best))
        else:
            stored.append(p)
            decisions.append((OfferStatus.ADDED, None, best))
    return decisions


def test_tiny_scale_points_are_all_stored():
    # squared differences of 1e-340 underflow to zero; the distances do not
    s = IndependentSet(0.5e-170)
    for i in range(20):
        assert s.offer(pt(i, (i * 1e-170, 0.0))).status is OfferStatus.ADDED
    assert len(s) == 20


@pytest.mark.parametrize("dim", [2, 3])
def test_threshold_ties_decide_as_math_dist_at_every_set_size(dim):
    # each probe sits one rounded offset of length ~threshold from an anchor,
    # so its distance lands on the threshold or one ulp either side; the
    # decisions must match math.dist whether the set holds 1 or 64 anchors
    gen = np.random.default_rng(11 + dim)
    offset = gen.uniform(0.3, 0.7, size=dim)
    threshold = math.dist([0.0] * dim, offset)
    anchors = [10.0 * n + gen.uniform(0.0, 1.0, size=dim) for n in range(64)]
    offered = []
    for n, anchor in enumerate(anchors):
        offered.append(pt(len(offered), tuple(anchor)))
        for j in gen.integers(0, n + 1, size=6):
            signs = gen.choice([-1.0, 1.0], size=dim)
            offered.append(pt(len(offered), tuple(anchors[j] + signs * offset)))
    s = IndependentSet(threshold)
    got = []
    for p in offered:
        _, nearest = s.nearest(p)  # the covering point, read before the offer
        d = s.min_dist(p)
        res = s.offer(p)
        got.append((res.status, nearest.id if res.status is OfferStatus.COVERED else None, d))
    assert len(s) >= 64
    assert got == reference_offers(offered, threshold)


@pytest.mark.parametrize("size", [1, 20])
@pytest.mark.parametrize(
    "metric",
    [
        DistanceMetric.euclidean(),
        DistanceMetric.from_callable(lambda a, b: sum(abs(x - y) for x, y in zip(a, b)), name="l1"),
    ],
    ids=["euclidean", "zip-l1"],
)
def test_dimension_mismatch_names_the_point(size, metric):
    s = IndependentSet(1.0, metric=metric)
    for i in range(size):
        s.offer(pt(i, (10.0 * i, 0.0)))
    with pytest.raises(ValueError, match="dimension mismatch: point 99 has 3 coords, stored points have 2"):
        s.offer(pt(99, (0.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="dimension mismatch: point 98 has 1 coords"):
        s.nearest(pt(98, 0.0))
    assert len(s) == size
