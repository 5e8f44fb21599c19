import hashlib
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
    check_fairness,
    clustering_cost,
    generate_planted,
    gonzalez,
)
from fairkcenter.oracle import _cached_shape

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


def test_brute_force_refuses_points_of_mixed_dimension():
    pts = [pt(0, 0.0, 1), pt(1, (1.0, 2.0), 2), pt(2, 3.0, 1)]
    with pytest.raises(ValueError, match="^dimension mismatch: point 0 has 1 coords, point 1 has 2$"):
        brute_force_opt(pts, FairnessSpec((1, 1)))


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
def reference_brute_force(points, spec, metric=EUCLIDEAN):
    """The exhaustive optimum as a plain loop over subsets, one numpy call
    per subset: the specification the block-wise oracle must match."""
    pts = list(points)
    n = len(pts)
    if n == 0:
        raise ValueError("empty dataset")
    if n > 16:
        raise SizeGuardError(f"n={n} exceeds the exhaustive-search guard (16)")
    if spec.k > 5:
        raise SizeGuardError(f"k={spec.k} exceeds the exhaustive-search guard (5)")
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
    # the guards refuse an oversized shape before it is built, so the
    # shape cache stays as it was
    many = stream([(float(i), 1) for i in range(17)])
    before = _cached_shape.cache_info().currsize
    assert assert_same_as_reference(many, FairnessSpec((1, 1)))[1] is SizeGuardError
    assert assert_same_as_reference(many[:3], FairnessSpec((3, 3)))[1] is SizeGuardError
    assert _cached_shape.cache_info().currsize == before
    assert assert_same_as_reference([], FairnessSpec((1, 1)))[2] == "empty dataset"


def test_block_oracle_matches_at_the_guard_over_several_blocks():
    # n=16, k=5 in one group: no cap filter, and the 4368 rows of size 5
    # span several slices
    rng = np.random.default_rng(17)
    pts = [Point(i, (float(rng.integers(0, 30)),), 1) for i in range(16)]
    expected = assert_same_as_reference(pts, FairnessSpec((5,)))
    assert expected[0] == "ok" and expected[3] > 4 * 1024


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
# the cached shape record
# ----------------------------------------------------------------------
def test_subset_table_lists_combinations_by_size_padded_with_the_sentinel():
    table = _cached_shape(5, 3).rows
    expected = [
        combo + (5,) * (3 - size)
        for size in range(1, 4)
        for combo in itertools.combinations(range(5), size)
    ]
    assert table.dtype == np.uint8
    assert [tuple(int(i) for i in row) for row in table] == expected


def test_subset_table_is_read_only():
    # every array of the record every call of a shape shares
    shape = _cached_shape(6, 2)
    for cached in shape:
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 1
    assert shape.sizes.tolist() == [int((row < 6).sum()) for row in shape.rows]
    assert [shape.above.tolist(), shape.beside.tolist()] == [a.tolist() for a in np.triu_indices(6)]
    assert _cached_shape(6, 2) is shape


def test_calls_sharing_one_subset_table_each_match_the_subset_loop():
    # every call has n=8 and k=4, so all read one cached record; each brings
    # other labels, caps or a metric, and a filter that wrote into one of its
    # arrays would spoil the calls after it
    manhattan = DistanceMetric.from_callable(lambda a, b: sum(abs(x - y) for x, y in zip(a, b)), "l1")
    rng = np.random.default_rng(2718)
    coords = [tuple(float(c) for c in rng.integers(0, 9, size=2)) for _ in range(8)]
    before = [cached.copy() for cached in _cached_shape(8, 4)]
    cases = [
        ((2, 2), [1, 2] * 4, {}),
        ((0, 4), [1, 1, 2, 2, 1, 2, 2, 1], {}),
        ((1, 1, 2), [1, 2, 3, 3, 2, 1, 3, 2], {}),
        ((4,), [1] * 8, {}),
        ((3, 1), [2, 1, 1, 2, 2, 1, 1, 2], {"metric": manhattan}),
        ((1, 3), [2, 2, 2, 2, 2, 2, 2, 1], {}),
    ]
    for caps, labels, kwargs in cases:
        points = [Point(i, c, g) for i, (c, g) in enumerate(zip(coords, labels))]
        assert assert_same_as_reference(points, FairnessSpec(caps), **kwargs)[0] == "ok"
    assert all(map(np.array_equal, _cached_shape(8, 4), before))


# ----------------------------------------------------------------------
# the member-bitmask cap filter
# ----------------------------------------------------------------------
def test_member_masks_set_one_bit_per_member_and_are_read_only():
    table, masks = _cached_shape(6, 3)[:2]
    assert masks.dtype == np.uint16 and masks.shape == (len(table),)
    assert [int(mask) for mask in masks] == [sum(1 << int(i) for i in row if i < 6) for row in table]
    with pytest.raises(ValueError, match="read-only"):
        masks[0] = 1
    assert _cached_shape(6, 3).masks is masks


def test_three_groups_with_zero_and_tight_caps_match_the_subset_loop():
    # n=16 at the guard: the masks use all 16 bits, and every cap below k,
    # zero included, drops rows
    rng = np.random.default_rng(1616)
    coords = [tuple(float(c) for c in rng.integers(0, 12, size=2)) for _ in range(16)]
    for caps in ((0, 2, 3), (2, 0, 1), (1, 1, 1), (3, 1, 0), (0, 0, 4)):
        labels = [int(g) for g in rng.integers(1, 4, size=16)]
        points = [Point(i, c, g) for i, (c, g) in enumerate(zip(coords, labels))]
        assert assert_same_as_reference(points, FairnessSpec(caps))[0] == "ok"
    # the last group's count is the row size less every other group's,
    # tight or not: every group tight in (1, 2, 2) and (2, 3); in (0, 5) and
    # (4, 0) one group is not tight; in (5, 0, 0) group 1 is not tight and
    # the derived group 3 is, and in (0, 5, 0) the middle group is not
    # tight but its count is needed to derive group 3's
    for caps in ((1, 2, 2), (2, 3), (0, 5), (4, 0), (5, 0, 0), (0, 5, 0)):
        labels = [int(g) for g in rng.integers(1, len(caps) + 1, size=16)]
        points = [Point(i, c, g) for i, (c, g) in enumerate(zip(coords, labels))]
        assert assert_same_as_reference(points, FairnessSpec(caps))[0] == "ok"


def test_a_group_in_the_masks_high_byte_matches_the_subset_loop():
    # 16 points: the filter reads both bytes of every mask
    rng = np.random.default_rng(7070)
    points = [Point(i, (float(rng.integers(0, 200)),), int(rng.integers(1, 3))) for i in range(16)]
    assert assert_same_as_reference(points, FairnessSpec((1, 1)))[0] == "ok"
    # group 1, the group the filter counts, holds only points 8..15, the
    # masks' high byte, and the optimum spends its cap there
    points = [Point(i, (float(i),), 1 if i >= 8 else 2) for i in range(16)]
    expected = assert_same_as_reference(points, FairnessSpec((1, 1)))
    assert expected[0] == "ok" and max(expected[2]) >= 8


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


def test_gonzalez_refuses_no_centers_and_no_points():
    with pytest.raises(ValueError, match="k must be at least 1"):
        gonzalez([pt(0, 1.0, 1)], 0)
    with pytest.raises(ValueError, match="empty dataset"):
        gonzalez([], 2)


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


def test_planted_odd_leftover_gives_an_unpaired_cluster_one_boundary_point():
    # k = 4 anchors and 3 more points: one cluster gets its opposed pair, the
    # next the odd leftover as one boundary point, and no point is scattered
    spec = FairnessSpec((2, 2))
    planted = generate_planted(spec, 7, 1.0, seed=0, shuffle=False)
    anchors = list(planted.planted_centers)
    rest = planted.points[4:]
    assert [EUCLIDEAN(p, anchors[j]) for p, j in zip(rest, (0, 0, 1))] == pytest.approx([1.0] * 3)
    assert [p.group for p in rest] == [anchors[0].group, anchors[0].group, anchors[1].group]
    # below n = 3k the planted radius is only an upper bound on the optimum
    # (up to the rounding of anchor + u)
    assert brute_force_opt(planted.points, spec).r_opt <= planted.planted_r + 1e-9
    shuffled = generate_planted(spec, 7, 1.0)
    assert brute_force_opt(shuffled.points, spec).r_opt <= shuffled.planted_r + 1e-9


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


# sha256 over every point (id, coordinates as float hex, group) and the
# planted centers' ids, captured before the generator's per-point offsets
# moved from numpy arrays to Python floats: each seed must keep yielding
# the same points bit for bit
PINNED_PLANTED_DIGESTS = [
    # the benchmark's planted datasets 0 and 1 of seed 1 (its dataset_seed)
    (((25, 25), 4000, 1.0, {"seed": int(np.random.SeedSequence((1, 0)).generate_state(1)[0])}),
     "2ce731b96ad4188c83c0f34da5e7e853f759a04d67af3c7f67838f439951026a"),
    (((25, 25), 4000, 1.0, {"seed": int(np.random.SeedSequence((1, 1)).generate_state(1)[0])}),
     "ec50ff4aa0753f11fbcc970c2cceeeccf37de63801ad87d6ecf04d4f58bc274d"),
    (((2, 3), 60, 1.0, {"dim": 1, "seed": 7}), "691914e0d5f1f0cc5c7cb26a7c79c7b4d2122780e9918fc4db899ed1378f8af2"),
    (((2, 3), 60, 2.5, {"dim": 3, "separation": 6.0, "seed": 8}),
     "d57c5803cc6e7c6fb2a7d7f335c5711e44870ec8fa592043efafbd3304964160"),
    (((3, 1), 50, 0.75, {"dim": 8, "seed": 9}), "89ebc0acc27624823cd61db69b9f8b9b96f805c8b91dfa89562125053dbd16a7"),
    # n = k: the anchors alone
    (((1, 2), 3, 1.0, {"seed": 5}), "354bfa87ec349753acd01394434ee8dafd9f6131de07020f79557cfa74eb6ad7"),
    # an odd leftover while pairs < k
    (((2, 2), 7, 1.0, {"seed": 0}), "0d4403032f0c666971090a1ab2ea60cb22c93c5aa5b76be23d7e02dcbf427e78"),
    (((2, 2), 40, 1.5, {"seed": 11, "shuffle": False}), "021ccfb9d3f675b67f316ddadd0a2c0068bac7009cae1780f37f6d773b1b6a13"),
    # a zero cap
    (((0, 3), 30, 1.0, {"seed": 12}), "429a12850cc9dc5314b99b30e003de15c4d01245650f0b5ce41016e31d8792ed"),
]


@pytest.mark.parametrize("args, digest", PINNED_PLANTED_DIGESTS, ids=lambda v: None if isinstance(v, tuple) else v[:8])
def test_planted_points_match_their_pinned_digest(args, digest):
    caps, n, planted_r, kwargs = args
    planted = generate_planted(FairnessSpec(caps), n, planted_r, **kwargs)
    h = hashlib.sha256()
    for p in planted.points:
        h.update(f"{p.id} {' '.join(c.hex() for c in p.coords)} {p.group}\n".encode())
    h.update(" ".join(map(str, planted.planted_centers.ids())).encode())
    assert h.hexdigest() == digest
