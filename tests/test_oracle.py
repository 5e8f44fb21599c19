import itertools
import math

import numpy as np
import pytest

from fairkcenter import (
    EUCLIDEAN,
    DistanceMetric,
    FairnessSpec,
    Point,
    GenerationError,
    SizeGuardError,
    brute_force_opt,
    candidate_radii,
    check_fairness,
    clustering_cost,
    generate_planted,
    gonzalez,
)

from conftest import pt, random_two_group_instance, stream


# ----------------------------------------------------------------------
# exhaustive optimum
# ----------------------------------------------------------------------
def test_brute_force_small_instance():
    # group1 {0,10}, group2 {1,11,20}, caps (1,2): no subset beats cost 1,
    # and the first cost-1 witness in enumeration order (increasing size,
    # lexicographic ids) is ids (0,3,4) = coords {0,11,20}
    pts = stream([(0.0, 1), (10.0, 1), (1.0, 2), (11.0, 2), (20.0, 2)])
    result = brute_force_opt(pts, FairnessSpec((1, 2)))
    assert result.r_opt == 1.0
    assert result.centers.ids() == (0, 3, 4)
    assert clustering_cost(pts, result.centers) == 1.0
    assert check_fairness(result.centers, FairnessSpec((1, 2))) == []


def test_brute_force_single_point():
    result = brute_force_opt([pt(0, 4.0, 1)], FairnessSpec((1, 1)))
    assert result.r_opt == 0.0
    assert result.centers.ids() == (0,)


def test_brute_force_counts_feasible_subsets():
    pts = stream([(0.0, 1), (5.0, 2)])
    result = brute_force_opt(pts, FairnessSpec((1, 1)))
    # {0}, {1}, {0,1}
    assert result.evaluated == 3


def test_brute_force_size_guards():
    pts = stream([(float(i), 1) for i in range(17)])
    with pytest.raises(SizeGuardError, match="n="):
        brute_force_opt(pts, FairnessSpec((1, 1)))
    with pytest.raises(SizeGuardError, match="k="):
        brute_force_opt(stream([(0.0, 1)]), FairnessSpec((3, 3)))
    # guards can be lifted explicitly
    result = brute_force_opt(pts, FairnessSpec((1, 1)), max_n=17)
    assert result.r_opt == 8.0


def test_brute_force_no_feasible_subset():
    # every point is group 1 but only group 2 may host centers
    pts = stream([(0.0, 1), (5.0, 1)])
    with pytest.raises(ValueError, match="no cap-feasible"):
        brute_force_opt(pts, FairnessSpec((0, 1)))


def test_oracle_lower_bounds_any_feasible_solution(rng):
    for trial in range(20):
        points, spec = random_two_group_instance(rng, max_n=9)
        result = brute_force_opt(points, spec)
        # any cap-feasible single center costs at least the optimum
        for p in points:
            if spec.cap(p.group) >= 1:
                assert clustering_cost(points, [p]) >= result.r_opt - 1e-12


# ----------------------------------------------------------------------
# equivalence with the plain subset loop
# ----------------------------------------------------------------------
def reference_brute_force(points, spec, metric=EUCLIDEAN, max_n=16, max_k=5):
    """The exhaustive optimum as a plain loop over subsets, one numpy call
    per subset: the specification the block-wise oracle must match."""
    pts = list(points)
    n = len(pts)
    if n == 0:
        raise ValueError("empty dataset")
    if n > max_n:
        raise SizeGuardError(f"n={n} exceeds the exhaustive-search guard ({max_n})")
    if spec.k > max_k:
        raise SizeGuardError(f"k={spec.k} exceeds the exhaustive-search guard ({max_k})")
    dists = np.array([[metric(p, q) for q in pts] for p in pts])
    groups = [p.group for p in pts]
    best_cost = math.inf
    best_combo = None
    evaluated = 0
    for size in range(1, min(spec.k, n) + 1):
        for combo in itertools.combinations(range(n), size):
            counts = [0] * spec.m
            counts_ok = True
            for i in combo:
                g = groups[i]
                if g > spec.m:
                    raise ValueError(f"point {pts[i].id} has group {g} but only {spec.m} caps were given")
                counts[g - 1] += 1
                if counts[g - 1] > spec.caps[g - 1]:
                    counts_ok = False
                    break
            if not counts_ok:
                continue
            evaluated += 1
            cost = float(dists[:, combo].min(axis=1).max())
            if cost < best_cost:
                best_cost = cost
                best_combo = combo
    if best_combo is None:
        if evaluated:
            raise ValueError(
                "every cap-feasible center set has a non-finite cost "
                "(the distances overflow the float range or are NaN)"
            )
        raise ValueError("no cap-feasible center set exists for this dataset")
    return best_cost, tuple(pts[i].id for i in best_combo), evaluated


def outcome(fn, points, spec, **kwargs):
    try:
        result = fn(points, spec, **kwargs)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    if isinstance(result, tuple):
        return ("ok",) + result
    return ("ok", result.r_opt, result.centers.ids(), result.evaluated)


def assert_same_as_reference(points, spec, **kwargs):
    expected = outcome(reference_brute_force, points, spec, **kwargs)
    assert outcome(brute_force_opt, points, spec, **kwargs) == expected
    return expected


def random_instance(rng):
    """Tiny integer grid (many exact ties and duplicate points), one to three
    groups with caps that may be zero, and now and then a group label one
    above the number of caps."""
    m = int(rng.integers(1, 4))
    while True:
        caps = tuple(int(c) for c in rng.integers(0, 4, size=m))
        if 0 < sum(caps) <= 5:
            break
    n = int(rng.integers(1, 13))
    dim = int(rng.integers(1, 3))
    top = m + 1 if rng.random() < 0.05 else m
    points = [
        Point(i, tuple(float(c) for c in rng.integers(0, 6, size=dim)), int(rng.integers(1, top + 1)))
        for i in range(n)
    ]
    return points, FairnessSpec(caps)


def test_block_oracle_matches_the_subset_loop_on_random_instances():
    rng = np.random.default_rng(3105)
    kinds = set()
    for _ in range(600):
        points, spec = random_instance(rng)
        expected = assert_same_as_reference(points, spec)
        kinds.add(expected[0] if expected[0] == "ok" else expected[2].split(" ")[0])
    # the draw reaches the feasible path and both kinds of error
    assert kinds == {"ok", "point", "no"}


def test_block_oracle_matches_the_subset_loop_on_two_group_instances(rng):
    for _ in range(60):
        points, spec = random_two_group_instance(rng, max_n=14)
        assert_same_as_reference(points, spec)


def test_block_oracle_matches_on_duplicates_and_ties():
    # every point coincides with another of the other group: many subsets
    # reach cost 0 and the first cap-feasible one in lexicographic order wins
    pts = stream([(0.0, 1), (0.0, 2), (3.0, 1), (3.0, 2), (6.0, 1), (6.0, 2)])
    assert assert_same_as_reference(pts, FairnessSpec((1, 2)))[1:] == (0.0, (0, 3, 5), 27)


def test_block_oracle_matches_with_a_zero_cap():
    pts = stream([(0.0, 1), (4.0, 2), (9.0, 1), (12.0, 2), (13.0, 2)])
    assert assert_same_as_reference(pts, FairnessSpec((0, 2)))[0] == "ok"
    with pytest.raises(ValueError, match="no cap-feasible"):
        brute_force_opt(stream([(0.0, 1), (5.0, 1)]), FairnessSpec((0, 2)))


def test_block_oracle_matches_when_k_exceeds_n():
    pts = stream([(0.0, 1), (2.0, 2), (7.0, 1)])
    assert assert_same_as_reference(pts, FairnessSpec((3, 2)))[1:] == (0.0, (0, 1, 2), 7)


def test_block_oracle_matches_on_a_single_point():
    assert assert_same_as_reference([pt(7, (1.0, 2.0), 2)], FairnessSpec((1, 1)))[1:] == (0.0, (7,), 1)


def test_block_oracle_reports_the_first_group_above_the_caps():
    pts = [pt(0, 0.0, 1), pt(1, 1.0, 3), pt(2, 2.0, 4), pt(3, 3.0, 2)]
    expected = assert_same_as_reference(pts, FairnessSpec((1, 1)))
    assert expected == ("raised", ValueError, "point 1 has group 3 but only 2 caps were given")


def test_block_oracle_matches_the_guard_errors():
    many = stream([(float(i), 1) for i in range(17)])
    assert assert_same_as_reference(many, FairnessSpec((1, 1)))[1] is SizeGuardError
    assert assert_same_as_reference(many[:3], FairnessSpec((3, 3)))[1] is SizeGuardError
    assert assert_same_as_reference([], FairnessSpec((1, 1)))[2] == "empty dataset"


def test_block_oracle_matches_with_lifted_guards():
    rng = np.random.default_rng(17)
    pts = [Point(i, (float(rng.integers(0, 30)),), int(rng.integers(1, 3))) for i in range(17)]
    expected = assert_same_as_reference(pts, FairnessSpec((3, 3)), max_n=17, max_k=6)
    assert expected[0] == "ok" and expected[3] > 6 * 1024  # the last size spans several blocks


def test_block_oracle_matches_with_a_custom_metric():
    manhattan = DistanceMetric.from_callable(lambda a, b: sum(abs(x - y) for x, y in zip(a, b)), "l1")
    rng = np.random.default_rng(41)
    for _ in range(40):
        points, spec = random_two_group_instance(rng, max_n=10)
        assert_same_as_reference(points, spec, metric=manhattan)


def test_block_oracle_never_prefers_a_nan_or_infinite_cost():
    # the distance between points 0 and 1 is NaN and between points 2 and 3
    # infinite: every subset holding 0 or 1 scores NaN, {2} and {3} score
    # inf, and the winner is the first finite minimum, {2, 3} at cost 5
    def poisoned(a, b):
        pair = {a[0], b[0]}
        if pair == {0.0, 1.0}:
            return math.nan
        if pair == {5.0, 6.0}:
            return math.inf
        return abs(a[0] - b[0])

    metric = DistanceMetric.from_callable(poisoned, "poisoned")
    pts = stream([(0.0, 1), (1.0, 2), (5.0, 1), (6.0, 2), (9.0, 1)])
    expected = assert_same_as_reference(pts, FairnessSpec((1, 1)), metric=metric)
    assert expected[1:] == (5.0, (2, 3), 11)
    # when every subset scores NaN, no subset is ever better, and the error
    # names the non-finite costs: cap-feasible subsets do exist
    expected = assert_same_as_reference(pts[:2], FairnessSpec((1, 1)), metric=metric)
    assert expected[2] == (
        "every cap-feasible center set has a non-finite cost "
        "(the distances overflow the float range or are NaN)"
    )


def test_block_oracle_calls_the_metric_once_per_pair():
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return abs(a[0] - b[0])

    pts = stream([(float(i), 1 + i % 2) for i in range(6)])
    brute_force_opt(pts, FairnessSpec((1, 1)), DistanceMetric.from_callable(counted))
    assert len(calls) == 6 * 7 // 2


# ----------------------------------------------------------------------
# candidate radii
# ----------------------------------------------------------------------
def test_candidate_radii_distances_and_halves():
    assert candidate_radii(stream([(0.0, 1), (1.0, 1), (3.0, 1)])) == [0.5, 1.0, 1.5, 2.0, 3.0]


def test_candidate_radii_single_point():
    assert candidate_radii([pt(0, 7.0, 1)]) == [0.0]


def test_candidate_radii_coincident_pair():
    assert candidate_radii(stream([(2.0, 1), (2.0, 2)])) == [0.0]


# ----------------------------------------------------------------------
# farthest-first baseline
# ----------------------------------------------------------------------
def test_gonzalez_farthest_first_from_first_point():
    pts = stream([(0.0, 1), (10.0, 1), (20.0, 1)])
    centers = gonzalez(pts, 2)
    assert sorted(p.coords[0] for p in centers) == [0.0, 20.0]


def test_gonzalez_stops_at_distinct_points():
    pts = stream([(0.0, 1), (0.0, 2), (5.0, 1)])
    centers = gonzalez(pts, 5)
    assert sorted(p.coords[0] for p in centers) == [0.0, 5.0]
    assert clustering_cost(pts, centers) == 0.0


def test_gonzalez_single_point():
    centers = gonzalez([pt(0, 1.0, 1)], 3)
    assert centers.ids() == (0,)


def test_gonzalez_within_twice_unconstrained_optimum(rng):
    import itertools

    def unconstrained_opt(points, k):
        return min(
            clustering_cost(points, combo)
            for size in range(1, min(k, len(points)) + 1)
            for combo in itertools.combinations(points, size)
        )

    for trial in range(15):
        points, spec = random_two_group_instance(rng, max_n=9)
        k = spec.k
        r_free = unconstrained_opt(points, k)
        cost = clustering_cost(points, gonzalez(points, k))
        assert cost <= 2.0 * r_free + 1e-9


# ----------------------------------------------------------------------
# planted datasets
# ----------------------------------------------------------------------
def test_planted_matches_oracle():
    spec = FairnessSpec((1, 1))
    planted = generate_planted(spec, 10, 1.0, seed=0)
    result = brute_force_opt(planted.points, spec)
    assert result.r_opt == pytest.approx(1.0, abs=1e-9)


def test_planted_geometry():
    spec = FairnessSpec((2, 3))
    planted = generate_planted(spec, 40, 2.0, separation=5.0, seed=21)
    anchors = list(planted.planted_centers)
    assert [sum(1 for a in anchors if a.group == g) for g in (1, 2)] == [2, 3]
    for i, a in enumerate(anchors):
        for b in anchors[i + 1 :]:
            assert EUCLIDEAN(a, b) >= 5.0 * 2.0
    assert clustering_cost(planted.points, planted.planted_centers) == pytest.approx(2.0, abs=1e-9)
    assert check_fairness(planted.planted_centers, spec) == []


def test_planted_every_cluster_pins_its_radius():
    # each cluster carries two opposed boundary points, so no single center
    # inside the cluster can beat the planted radius
    spec = FairnessSpec((2, 2))
    planted = generate_planted(spec, 16, 1.0, seed=3, shuffle=False)
    anchors = list(planted.planted_centers)
    for j, anchor in enumerate(anchors):
        members = [p for p in planted.points if EUCLIDEAN(p, anchor) <= 1.0 + 1e-9]
        best_single = min(max(EUCLIDEAN(c, q) for q in members) for c in members)
        assert best_single >= 1.0 - 1e-9


def test_planted_n_equals_k_is_exactly_the_anchors():
    spec = FairnessSpec((1, 2))
    planted = generate_planted(spec, 3, 1.0, seed=5)
    assert len(planted.points) == 3
    assert sorted(planted.planted_centers.ids()) == sorted(p.id for p in planted.points)
    assert brute_force_opt(planted.points, spec).r_opt == 0.0


def test_planted_determinism():
    spec = FairnessSpec((2, 2))
    a = generate_planted(spec, 30, 1.5, seed=42)
    b = generate_planted(spec, 30, 1.5, seed=42)
    assert [(p.coords, p.group) for p in a.points] == [(p.coords, p.group) for p in b.points]
    c = generate_planted(spec, 30, 1.5, seed=43)
    assert [(p.coords, p.group) for p in a.points] != [(p.coords, p.group) for p in c.points]


def test_planted_validation():
    spec = FairnessSpec((2, 2))
    with pytest.raises(ValueError, match="below the number"):
        generate_planted(spec, 3, 1.0)
    with pytest.raises(ValueError, match="separation"):
        generate_planted(spec, 20, 1.0, separation=3.0)
    with pytest.raises(GenerationError):
        generate_planted(spec, 20, 1.0, max_attempts=2)
