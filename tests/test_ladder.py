import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest

from fairkcenter import (
    EUCLIDEAN,
    DistanceMetric,
    FairnessSpec,
    Ladder,
    Point,
    SemiInstance,
    StreamInstance,
    StreamOrderError,
    brute_force_opt,
    check_fairness,
    clustering_cost,
    generate_planted,
    run_known,
)
from fairkcenter.independent import IndependentSet
from fairkcenter.ladder import make_instance

from conftest import pt, stream


def run_ladder(points, spec, mode="general", epsilon=0.1):
    ladder = Ladder(spec, epsilon=epsilon, mode=mode)
    for p in points:
        ladder.observe(p)
    return ladder, ladder.finish()


# ----------------------------------------------------------------------
# bootstrap
# ----------------------------------------------------------------------
def test_bootstrap_buffers_before_spawning():
    spec = FairnessSpec((1, 1))  # 2(k+1) = 6 distinct locations
    ladder = Ladder(spec)
    rows = [(0.0, 1), (7.0, 2), (3.0, 1), (3.0, 2), (3.0, 1), (12.0, 2), (20.0, 1), (0.0, 1)]
    for p in stream(rows):
        ladder.observe(p)
    # five locations: the repeat of 3 in group 2 stays, the group-1 repeats
    # of 3 and 0 are dropped
    assert ladder.bootstrapping and not ladder.instances
    assert [p.id for p in ladder.buffer] == [0, 1, 2, 3, 5, 6]
    assert ladder.points_seen == 8
    ladder.observe(pt(8, 30.0, 2))
    assert not ladder.bootstrapping and ladder.instances and not ladder.buffer


def test_lowest_guess_is_half_the_farthest_first_distance():
    # farthest-first over the 6 distinct locations picks 0, then 21; 10 is
    # 10 from both, the farthest from the picks, so the k+1 = 3 picks are
    # pairwise at least 10 apart
    rows = [(0.0, 1), (7.0, 2), (3.0, 1), (3.0, 2), (10.0, 1), (20.0, 2), (21.0, 1)]
    ladder, _ = run_ladder(stream(rows), FairnessSpec((1, 1)))
    assert ladder.guesses[0] == 5.0
    # a stream that ends with fewer than k+1 = 5 distinct locations starts
    # at half the smallest positive gap, 3
    ladder, _ = run_ladder(stream(rows[:4]), FairnessSpec((2, 2)))
    assert ladder.guesses[0] == 1.5


def test_lowest_guess_at_exactly_k_sites_is_half_the_smallest_gap():
    # three distinct locations and k = 3: farthest-first would need k+1
    # picks, so the grid starts at half the smallest gap, 3
    ladder, _ = run_ladder(stream([(0.0, 1), (3.0, 2), (10.0, 1)]), FairnessSpec((2, 1)))
    assert ladder.guesses[0] == 1.5


def test_grid_steps_are_geometric():
    spec = FairnessSpec((1, 1))
    ladder = Ladder(spec, epsilon=0.25)
    for p in stream([(0.0, 1), (100.0, 2), (1.0, 1), (51.0, 2)]):
        ladder.observe(p)
    for lo, hi in zip(ladder.guesses, ladder.guesses[1:]):
        assert hi == lo * 1.25


def test_single_point_stream():
    spec = FairnessSpec((1, 1))
    ladder = Ladder(spec)
    ladder.observe(pt(0, 5.0, 2))
    result = ladder.finish()
    assert result.best_guess == 0.0
    assert [p.coords[0] for p in result.centers] == [5.0]


def test_all_coincident_stream_collapses_to_one_center():
    spec = FairnessSpec((1, 1))
    ladder = Ladder(spec)
    for i in range(6):
        ladder.observe(pt(i, (2.0, 2.0), 1 + i % 2))
    result = ladder.finish()
    assert result.best_guess == 0.0
    assert len(result.centers) == 1


def test_ladder_rejects_other_than_two_groups_up_front():
    for caps in ((1, 1, 1), (2,)):
        with pytest.raises(ValueError, match="exactly two groups"):
            Ladder(FairnessSpec(caps))


@pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan, math.inf])
def test_ladder_rejects_a_non_positive_or_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        Ladder(FairnessSpec((1, 1)), epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [1e-17, 2.0**-53])
def test_ladder_refuses_an_epsilon_that_vanishes_beside_one(epsilon):
    # a grid stepped by 1 + epsilon == 1 would climb one float ulp at a time
    with pytest.raises(ValueError, match=r"is too small: 1 \+ epsilon rounds to 1$"):
        Ladder(FairnessSpec((1, 1)), epsilon=epsilon)
    Ladder(FairnessSpec((1, 1)), epsilon=2.0**-52)  # the smallest epsilon that still steps


def test_empty_stream_is_an_error():
    ladder = Ladder(FairnessSpec((1, 1)))
    with pytest.raises(ValueError, match="empty"):
        ladder.finish()


def test_short_stream_still_solves():
    # stream ends during bootstrap with spread present: the grid spawns at
    # finish time and solves from the buffer
    spec = FairnessSpec((2, 2))
    points = stream([(0.0, 1), (10.0, 2), (20.0, 1)])
    ladder, result = run_ladder(points, spec)
    assert check_fairness(result.centers, spec) == []
    assert clustering_cost(points, result.centers) <= 5.0 * result.best_guess


# ----------------------------------------------------------------------
# guess selection
# ----------------------------------------------------------------------
def test_returns_smallest_feasible_guess():
    # emulate a fixed three-rung grid around a planted optimum: the quarter
    # guess fails, the optimum works, and the ladder-style ascending scan
    # settles on the optimum rather than the oversized guess
    spec = FairnessSpec((2, 2))
    planted = generate_planted(spec, 24, 1.0, seed=11)
    points = list(planted.points)
    outcomes = {}
    for guess in (0.25, 1.0, 4.0):
        outcomes[guess] = run_known(guess, points, spec)
    assert not outcomes[0.25].feasible
    assert outcomes[1.0].feasible and outcomes[4.0].feasible
    best = min(g for g, out in outcomes.items() if out.feasible)
    assert best == 1.0


def test_planted_run_lands_near_the_optimum():
    spec = FairnessSpec((3, 3))
    planted = generate_planted(spec, 240, 1.0, seed=2)
    ladder, result = run_ladder(planted.points, spec, epsilon=0.1)
    assert check_fairness(result.centers, spec) == []
    cost = clustering_cost(planted.points, result.centers)
    assert cost <= 5.0 * (1.1) * planted.planted_r + 1e-9
    # a grid guess lands inside [r_opt, 1.1 * r_opt]: the chosen guess is
    # feasible no later than that rung
    assert result.best_guess <= 1.1 * planted.planted_r + 1e-9


def test_semi_mode_planted_run():
    spec = FairnessSpec((3, 3))
    planted = generate_planted(spec, 240, 1.0, seed=4)
    ordered = sorted(planted.points, key=lambda p: p.group)
    ladder, result = run_ladder(ordered, spec, mode="semi")
    assert check_fairness(result.centers, spec) == []
    cost = clustering_cost(planted.points, result.centers)
    assert cost <= 3.0 * (1.1) * planted.planted_r + 1e-9


# ----------------------------------------------------------------------
# growth and resource contracts
# ----------------------------------------------------------------------
def test_far_point_extends_the_grid_upward():
    spec = FairnessSpec((1, 1))
    points = stream([(0.0, 1), (1.0, 2), (2.0, 1), (3.0, 2), (4.0, 1), (5.0, 2)])
    ladder = Ladder(spec)
    for p in points:
        ladder.observe(p)
    high_before = ladder.guesses[-1]
    ladder.observe(pt(6, 500.0, 1))
    assert ladder.guesses[-1] > high_before
    result = ladder.finish()
    assert check_fairness(result.centers, spec) == []
    all_points = points + [pt(6, 500.0, 1)]
    assert clustering_cost(all_points, result.centers) <= 5.0 * result.best_guess


def test_top_guess_overflow_spawns_successors():
    # every new group-1 point sits near a group-2 point, so the far-point
    # trigger stays quiet while the top guess's group-1 set walks into its
    # cap; the overflow must spawn successor rungs (several here, since the
    # first successors re-overflow on the replay) and the run must still end
    # feasibly with the stream covered
    spec = FairnessSpec((1, 1))
    points = stream(
        [(0.0, 1), (0.3, 2), (0.6, 1), (0.9, 2), (1.2, 1), (1.5, 2), (2.4, 1), (2.7, 2)]
    )
    ladder = Ladder(spec)
    for p in points:
        ladder.observe(p)
    assert ladder.pruned, "expected undersized rungs to overflow"
    top = max(ladder.instances)
    assert not ladder.instances[top].overflowed
    result = ladder.finish()
    assert check_fairness(result.centers, spec) == []
    assert clustering_cost(points, result.centers) <= 5.0 * result.best_guess
    for lo, hi in zip(ladder.guesses, ladder.guesses[1:]):
        assert hi == pytest.approx(lo * 1.1)  # successors stay on the grid


def test_a_general_top_extends_on_a_point_it_stores_near_the_other_group():
    # at epsilon 1 the grid is 2, 4, 8, and the top (threshold 16) stores 0
    # and 10. Point 20 is more than 16 from the stored group-1 point but
    # within 16 of the stored group-2 point: the top stores it, so the grid
    # extends, though the top's nearest stored point, 10, is within 16 of it
    spec = FairnessSpec((1, 1))
    points = stream([(0.0, 1), (10.0, 2), (2.0, 1), (4.0, 1), (6.0, 2), (8.0, 1), (20.0, 1)])
    ladder = Ladder(spec, epsilon=1.0)
    for p in points[:-1]:
        ladder.observe(p)
    top = ladder.instances[8.0]
    assert ladder.guesses == [2.0, 4.0, 8.0] and [p.id for p in top.stored_order] == [0, 1]
    ladder.observe(points[-1])
    assert [p.id for p in top.stored_order] == [0, 1, 6]
    assert ladder.guesses == [2.0, 4.0, 8.0, 16.0]
    result = ladder.finish()
    assert check_fairness(result.centers, spec) == []
    assert clustering_cost(points, result.centers) <= 5.0 * result.best_guess


def test_a_semi_top_serves_a_band_point_without_extending():
    # at epsilon 1 the top is at guess 8 (threshold 16, group-2 gate 24 while
    # group 1 fits) and keeps reps1 = {0}; 14 is within 24 of it, so reps2
    # stays empty. The last point lies 21 from 0, in the band (16, 24]: the
    # top does not admit it, so the grid does not extend, and the top, the
    # ladder's answer, serves it from 0 within three guesses
    spec = FairnessSpec((1, 1))
    points = stream([(0.0, 1), (2.0, 1), (3.0, 1), (4.0, 1), (12.0, 1), (14.0, 2), (21.0, 2)])
    ladder = Ladder(spec, epsilon=1.0, mode="semi")
    for p in points[:-1]:
        ladder.observe(p)
    guesses = list(ladder.guesses)
    top = ladder.instances[guesses[-1]]
    assert top.radius_guess == 8.0 and [p.id for p in top.reps1.members] == [0] and not top.reps2.members
    ladder.observe(points[-1])
    assert ladder.guesses == guesses and not top.reps2.members
    result = ladder.finish()
    assert result.best_guess == 8.0
    assert check_fairness(result.centers, spec) == []
    assert clustering_cost(points, result.centers) == 21.0 <= 3.0 * result.best_guess


def test_memory_and_update_contracts_on_planted_run():
    spec = FairnessSpec((4, 4))
    planted = generate_planted(spec, 400, 1.0, seed=9)
    ladder, result = run_ladder(planted.points, spec)
    per_instance_cap = 2 * spec.k + 2
    for inst in ladder.instances.values():
        assert inst.stored_count <= per_instance_cap
    assert ladder.stats.update_excess <= 0
    assert ladder.spawned_count <= ladder.grid_bound
    assert ladder.total_stored_peak <= ladder.spawned_count * per_instance_cap


@pytest.mark.parametrize(
    "mode, counters",
    [
        # (total evals, total stored peak, per-rung peak, update excess, spawned, pruned)
        ("general", (36511, 201, 9, 0, 31, 3)),
        ("semi", (15899, 77, 12, 0, 28, 20)),
    ],
)
def test_run_counters_are_pinned(mode, counters):
    # both runs prune rungs and the semi sweep extends its grid, so the
    # retire and extend paths both feed these totals
    spec = FairnessSpec((4, 4))
    points = list(generate_planted(spec, 400, 1.0, seed=9).points)
    if mode == "semi":
        points.sort(key=lambda p: (p.group, p.coords[0]))
    ladder, _ = run_ladder(points, spec, mode=mode)
    assert (
        ladder.total_distance_evals,
        ladder.total_stored_peak,
        ladder.per_instance_stored_peak,
        ladder.worst_update_excess,
        ladder.spawned_count,
        len(ladder.pruned),
    ) == counters


def test_pruned_guesses_are_reported():
    spec = FairnessSpec((2, 2))
    planted = generate_planted(spec, 160, 1.0, seed=13)
    ladder, _ = run_ladder(planted.points, spec)
    assert len(ladder.pruned) >= 1  # undersized guesses overflowed and died


# ----------------------------------------------------------------------
# the separation certificate
# ----------------------------------------------------------------------
# Caps (1, 1), so k = 2, each own set holds up to 2 points, and the first
# six distinct locations are the bootstrap buffer, which every rung
# replays. In each buffer farthest-first picks the first point and the one
# farthest from it, and a third point lies exactly 8 from them, so at
# epsilon 1 the grid is 4, 8, 16, ... and holds guess 4 (threshold 8) below
# the top.
# "replay" (in the plane, since on a line three points pairwise more than 8
# apart would put the third pick more than 8 away): (0, 0), (16, 4.25) and
# (16, -4) are pairwise more than 8 apart; (16, 4) is exactly 8 from
# (16, -4). (20, 0) and (1, 0) are covered, and (8, 0) is exactly 8 from
# (0, 0).
# "dispatch": the buffer leaves guess 4 with a certificate of 0 and 40, and
# the seventh point reaches it through the dispatch. 20 is more than 8 from
# both; 32 is exactly 8 from 40.
CERTIFICATE_STREAMS = {
    "replay": tuple(
        [((0.0, 0.0), 1), ((16.0, y), 2), ((16.0, -4.0), 1), ((20.0, 0.0), 1), ((8.0, 0.0), 2), ((1.0, 0.0), 1)]
        for y in (4.25, 4.0)
    ),
    "dispatch": tuple(
        [(0.0, 1), (0.25, 1), (0.5, 2), (40.0, 2), (8.0, 1), (39.0, 2), (x, 1)] for x in (20.0, 32.0)
    ),
}


@pytest.mark.parametrize("path", sorted(CERTIFICATE_STREAMS))
@pytest.mark.parametrize("tie", [False, True], ids=["beyond", "tie"])
def test_k_plus_1_separated_points_retire_a_rung_within_its_caps(path, tie):
    spec = FairnessSpec((1, 1))
    points = stream(CERTIFICATE_STREAMS[path][tie])
    # the paper's rule alone keeps the rung: neither own set passes its cap
    alone = StreamInstance(4.0, spec)
    for p in points:
        alone.process(p)
    assert not alone.overflowed
    ladder = Ladder(spec, epsilon=1.0)
    for p in points:
        ladder.observe(p)
    assert 4.0 in ladder.guesses and 4.0 != ladder.guesses[-1]
    # a member at exactly the threshold from another is not separated
    assert (4.0 in ladder.pruned) is not tie
    assert (4.0 in ladder.instances) is tie
    assert ladder.worst_update_excess <= 0


def test_certificate_prunes_stay_below_the_optimum_on_the_oracle_sweep(monkeypatch):
    # n 3-10 on a 7x7 grid, caps in {1,2}^2, random stream orders
    certify = StreamInstance._certify
    refutations = []

    def counting_certify(self, point):
        certify(self, point)
        refutations.append(self.overflowed)

    monkeypatch.setattr(StreamInstance, "_certify", counting_certify)
    rng = np.random.default_rng(11)
    epsilon = 0.1
    for draw in range(2000):
        n = int(rng.integers(3, 11))
        points = [Point(i, tuple(float(c) for c in rng.integers(0, 7, size=2)), int(rng.integers(1, 3)))
                  for i in range(n)]
        spec = FairnessSpec((int(rng.integers(1, 3)), int(rng.integers(1, 3))))
        order = [points[i] for i in rng.permutation(n)]
        r_opt = brute_force_opt(points, spec).r_opt
        ladder, result = run_ladder(order, spec, epsilon=epsilon)
        # overflows and certificates alike prove the optimum above the guess
        assert all(guess < r_opt for guess in ladder.pruned), draw
        assert check_fairness(result.centers, spec) == [], draw
        if r_opt > 0:  # a zero optimum needs a rung at guess 0 (ROADMAP item 8)
            assert clustering_cost(points, result.centers) <= 5.0 * (1.0 + epsilon) * r_opt, draw
    assert sum(refutations) > 100  # the sweep reaches the certificate's prunes


def test_a_top_rung_is_pruned_by_separated_points_it_stored_as_the_top(monkeypatch):
    # caps (1, 1), so k = 2. Point 100 extends the grid, and the new top
    # (threshold about 18.8) replays 12, 1 and 100, certifying 12 and 100.
    # Point 70 is more than 18.8 from both: the top stores it, and its
    # certificate reaches k+1 = 3 points, all stored while it was the top,
    # though neither own set passed its cap. Its successors replay what it
    # stored, point 70 included, and point 70 only once
    spec = FairnessSpec((1, 1))
    points = stream([(12.0, 1), (1.0, 2), (10.0, 2), (5.0, 1), (18.0, 2), (4.0, 2), (100.0, 1), (70.0, 2)])
    ladder = Ladder(spec, epsilon=0.1)
    for p in points[:-1]:
        ladder.observe(p)
    top = next(reversed(ladder.instances.values()))
    assert top.certificate == {1: [(12.0,), (100.0,)], 2: []}
    replays = []
    spawn = Ladder._spawn
    monkeypatch.setattr(Ladder, "_spawn", lambda self, guess, seed: replays.append(seed) or spawn(self, guess, seed))
    ladder.observe(points[-1])
    assert top.overflowed and top.radius_guess in ladder.pruned
    assert len(top.reps1) <= spec.k and len(top.reps2) <= spec.k
    assert top.certificate[2] == [(70.0,)] and top.stored_order[-1] is points[-1]
    assert replays and all([p.id for p in replay] == [0, 1, 6, 7] for replay in replays)
    result = ladder.finish()
    assert check_fairness(result.centers, spec) == []
    assert clustering_cost(points, result.centers) <= 5.0 * result.best_guess


def test_semi_ladder_serves_group_2_alone_under_a_zero_group_1_cap():
    # the oracle gives r_opt 20 with the group-2 point as the one center,
    # which serves group 1 as a stand-in only at a guess of 20 or more
    spec = FairnessSpec((0, 1))
    points = stream([(0.0, 1), (10.0, 1), (20.0, 2)])
    _, result = run_ladder(points, spec, mode="semi")
    assert check_fairness(result.centers, spec) == []
    assert clustering_cost(points, result.centers) <= 3.0 * result.best_guess
    assert result.best_guess <= 1.1 * 20


def test_semi_ladder_with_a_zero_group_1_cap_on_the_oracle_sweep():
    # the caps-{0,1,2}^2 sweep, drawn like criterion 9's fixture, keeping the
    # draws with a zero group-1 cap and a cap-feasible center set
    rng = np.random.default_rng(11)
    epsilon = 0.1
    raised, runs = [], 0
    for draw in range(3000):
        n = int(rng.integers(3, 11))
        points = [Point(i, tuple(float(c) for c in rng.integers(0, 7, size=2)), int(rng.integers(1, 3)))
                  for i in range(n)]
        caps = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        order = sorted((points[i] for i in rng.permutation(n)), key=lambda p: p.group)
        if caps[0] != 0 or caps == (0, 0):
            continue
        spec = FairnessSpec(caps)
        try:
            r_opt = brute_force_opt(points, spec).r_opt
        except ValueError:
            continue
        runs += 1
        try:
            _, result = run_ladder(order, spec, mode="semi", epsilon=epsilon)
        except RuntimeError:
            raised.append(draw)
            continue
        assert check_fairness(result.centers, spec) == [], draw
        if r_opt > 0:  # a zero optimum needs a rung at guess 0 (ROADMAP item 8)
            assert result.best_guess <= (1.0 + epsilon) * r_opt, draw
            assert clustering_cost(order, result.centers) <= 3.0 * (1.0 + epsilon) * r_opt, draw
    assert runs == 668
    # these fill the bootstrap with group-1 points, and an over-cap rung
    # drops their later group-2 point (ROADMAP item 3c)
    assert raised == [1862, 2068, 2225, 2583]


def test_the_semi_ladder_attains_three_under_a_zero_group_1_cap():
    # caps (0, 2): the optimum 1 takes both group-2 points as centers. The
    # ladder answers {9} alone, 3 from the point at 6
    spec = FairnessSpec((0, 2))
    points = stream([(8.0, 1), (6.0, 2), (9.0, 2)])
    r_opt = brute_force_opt(points, spec).r_opt
    assert r_opt == 1.0
    ladder, result = run_ladder(points, spec, mode="semi")
    assert check_fairness(result.centers, spec) == []
    assert clustering_cost(points, result.centers) / r_opt == 3.0
    assert ladder.spawned_count == 20


def test_unservable_caps_raise():
    # group 2 never appears, yet only group 2 may host centers
    spec = FairnessSpec((0, 1))
    points = stream([(0.0, 1), (10.0, 1), (20.0, 1), (30.0, 1)])
    ladder = Ladder(spec)
    with pytest.raises(RuntimeError, match="unservable"):
        for p in points:
            ladder.observe(p)
        ladder.finish()


@pytest.mark.parametrize("mode", ["general", "semi"])
def test_a_group_with_cap_zero_alone_is_unservable(mode):
    # the grid is [5, 5.5]. A semi rung overflows on the second point, so
    # every initial rung is retired and the fallback extension raises; a
    # general rung keeps both points, and no rung finalizes feasibly
    ladder = Ladder(FairnessSpec((1, 0)), mode=mode)
    for p in stream([(0.0, 2), (10.0, 2)]):
        ladder.observe(p)
    with pytest.raises(RuntimeError, match="unservable"):
        ladder.finish()
    assert ladder.guesses == [5.0, 5.5]
    assert ladder.pruned == ([5.0, 5.5] if mode == "semi" else [])


@pytest.mark.parametrize("mode", ["general", "semi"])
@pytest.mark.parametrize("far, guesses", [(10.0, [2.5, 5.0, 10.0]), (10.05, [2.5, 5.0, 10.0, 20.0])])
def test_the_span_rule_stops_the_grid_at_twice_the_guess(mode, far, guesses):
    # caps (3, 0) leave group 2 unservable. The grid starts at 2.5, half the
    # smallest gap, and stops at the first guess g with 2g >= D: at 5 for
    # D = 10, at 10 for D = 10.05. Past it, the next extension that still
    # fails spans its replay and raises
    ladder = Ladder(FairnessSpec((3, 0)), epsilon=1.0, mode=mode)
    for p in stream([(0.0, 2), (5.0, 2), (far, 2)]):
        ladder.observe(p)
    with pytest.raises(RuntimeError, match="unservable"):
        ladder.finish()
    assert ladder.guesses == guesses


def test_the_span_rule_under_a_zero_group_1_cap_reaches_the_diameter():
    # a semi rung serves group 1 here only through a group-2 stand-in within
    # one guess, so the grid climbs to g >= D = 10, where the group-2 point
    # at 10 stands in for the one reps1 member, 0
    spec = FairnessSpec((0, 3))
    points = stream([(0.0, 1), (5.0, 1), (10.0, 1), (10.0, 2)])
    ladder, result = run_ladder(points, spec, mode="semi", epsilon=1.0)
    assert ladder.guesses == [2.5, 5.0, 10.0]
    assert result.best_guess == 10.0
    assert clustering_cost(points, result.centers) == 10.0


def test_a_coincident_stream_of_a_cap_zero_group_has_no_center():
    ladder = Ladder(FairnessSpec((0, 1)))
    for i in range(4):
        ladder.observe(pt(i, 3.0, 1))
    with pytest.raises(RuntimeError, match="no observed group has a positive cap"):
        ladder.finish()
    assert ladder.spawned_count <= ladder.grid_bound


def test_observe_after_finish_raises():
    ladder = Ladder(FairnessSpec((1, 1)))
    ladder.observe(pt(0, 0.0, 1))
    ladder.finish()
    with pytest.raises(RuntimeError):
        ladder.observe(pt(1, 1.0, 1))
    with pytest.raises(RuntimeError, match="finish is one-shot"):
        ladder.finish()


@pytest.mark.filterwarnings("default::UserWarning")
def test_feasibility_is_empirically_monotone_in_the_guess(rng):
    # larger guesses should stay feasible once a smaller one is; the cover
    # loop's heuristic choices leave this unproven, so a counterexample is
    # reported as a warning rather than a failure
    import warnings

    from conftest import random_two_group_instance

    for trial in range(25):
        points, spec = random_two_group_instance(rng, max_n=10)
        # the six smallest positive pairwise distances and their halves
        pairs = [EUCLIDEAN(a, b) for a, b in itertools.combinations(points, 2)]
        radii = sorted({r for d in pairs for r in (d, d / 2.0) if r > 0})[:6]
        feasible_flags = [run_known(r, points, spec).feasible for r in radii]
        if True in feasible_flags:
            first = feasible_flags.index(True)
            if not all(feasible_flags[first:]):
                warnings.warn(
                    f"feasibility not monotone in the guess on trial {trial}: {feasible_flags}",
                    stacklevel=1,
                )


# ----------------------------------------------------------------------
# coordinate scale
# ----------------------------------------------------------------------
def _scaled(points, factor):
    return [Point(p.id, tuple(c * factor for c in p.coords), p.group) for p in points]


@pytest.fixture(scope="module")
def scale_instance():
    spec = FairnessSpec((12, 8))
    points = list(generate_planted(spec, 400, 1.0, seed=7).points)
    streams = {"general": points, "semi": sorted(points, key=lambda p: p.group)}
    bases = {mode: run_ladder(stream, spec, mode=mode)[1] for mode, stream in streams.items()}
    return spec, streams, bases


@pytest.mark.parametrize("mode", ["general", "semi"])
@pytest.mark.parametrize("factor", [1e160, 1e-165, 2.0**500, 2.0**-520])
def test_center_ids_do_not_depend_on_coordinate_scale(scale_instance, mode, factor):
    spec, streams, bases = scale_instance
    _, scaled = run_ladder(_scaled(streams[mode], factor), spec, mode=mode)
    assert scaled.centers.ids() == bases[mode].centers.ids()
    if math.frexp(factor)[0] == 0.5:
        # a power of two scales every distance, and so every guess, exactly
        assert scaled.best_guess == bases[mode].best_guess * factor


# ----------------------------------------------------------------------
# one instance factory
# ----------------------------------------------------------------------
def test_make_instance_maps_each_mode_to_its_solver():
    assert type(make_instance("general", 1.0, FairnessSpec((1, 1)))) is StreamInstance
    assert type(make_instance("semi", 1.0, FairnessSpec((1, 1)))) is SemiInstance


@pytest.mark.parametrize("mode", ["general", "semi"])
def test_run_known_refuses_a_negative_radius(mode):
    with pytest.raises(ValueError, match=r"^radius guess must be finite and nonnegative, got -1.0$"):
        run_known(-1.0, stream([(0.0, 1)]), FairnessSpec((1, 1)), mode=mode)


@pytest.mark.parametrize("entry", ["make_instance", "run_known", "Ladder"])
def test_unknown_mode_is_rejected_alike_everywhere(entry):
    spec = FairnessSpec((1, 1))
    build = {
        "make_instance": lambda: make_instance("sorted", 1.0, spec),
        "run_known": lambda: run_known(1.0, stream([(0.0, 1)]), spec, mode="sorted"),
        "Ladder": lambda: Ladder(spec, mode="sorted"),
    }[entry]
    with pytest.raises(ValueError, match=r"^unknown mode 'sorted'$"):
        build()


# ----------------------------------------------------------------------
# subnormal gaps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["general", "semi"])
def test_a_subnormal_buffer_gap_still_grows_the_grid(mode):
    # 5e-324 is the smallest subnormal float: 5e-324 * 1.1 rounds back to
    # 5e-324, and a grid stepped by that factor alone never grows. The step
    # is checked first, so a regression fails here instead of hanging below.
    spec = FairnessSpec((1, 1))
    assert Ladder(spec, mode=mode)._next_guess(5e-324) > 5e-324
    points = stream([(0.0, 1), (10.0, 1), (5e-324, 2), (20.0, 2)])  # optimum 10
    ladder, result = run_ladder(points, spec, mode)
    assert check_fairness(result.centers, spec) == []
    assert clustering_cost(points, result.centers) <= 5.0 * 1.1 * 10.0
    assert ladder.spawned_count <= ladder.grid_bound


# ----------------------------------------------------------------------
# event dispatch against the every-rung reference
# ----------------------------------------------------------------------
class ReferenceLadder(Ladder):
    """The dispatch loop before event dispatch: every live rung, the top
    included, runs the full ``process`` on every point. The grid extends when
    the top stored the point in its own group's set or overflowed."""

    def _dispatch(self, point):
        top = next(reversed(self.instances.values()))
        size = len(top.reps[point.group])
        for inst in list(self.instances.values()):
            inst.process(point)
            if inst.overflowed:
                self._retire(inst)
        stored = len(top.reps[point.group]) > size
        if stored or top.overflowed:
            self._extend_grid(top.stored_order + ([] if stored else [point]))


def _ladder_state(ladder, result):
    return (
        result.best_guess.hex(),
        result.centers.ids(),
        ladder.total_distance_evals,
        ladder.total_stored_peak,
        ladder.per_instance_stored_peak,
        ladder.worst_update_excess,
        ladder.spawned_count,
        list(ladder.pruned),
        list(ladder.instances),
        [[p.id for p in inst.stored_order] for inst in ladder.instances.values()],
    )


def _random_stream(rng, mode):
    """Integer coordinates on a small grid, so duplicates and exact threshold
    ties occur (at epsilon 1 every guess is the lowest one times a power of
    two), with a few far points that push the stream past the top guess.
    The semi stream is sorted by group."""
    n = int(rng.integers(8, 60))
    dim = int(rng.integers(1, 3))
    points = []
    for i in range(n):
        coords = rng.integers(0, 9, size=dim).astype(float)
        if i > 6 and rng.random() < 0.08:
            coords = coords + 30.0 * i
        points.append(Point(i, tuple(coords), int(rng.integers(1, 3))))
    if mode == "semi":
        points.sort(key=lambda p: p.group)
    caps = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)][int(rng.integers(0, 5))]
    epsilon = [0.1, 1.0][int(rng.integers(0, 2))]
    return points, FairnessSpec(caps), epsilon


# The seeded semi streams never stop a reps2 gate scan at exactly its
# radius. In this one the first six points are the bootstrap buffer:
# farthest-first picks 0 and 20, and 5 lies 5 from them, so at epsilon 1 the
# grid is 2.5, 5, 10. The rung at guess 2.5 (threshold 5) keeps reps1 = {0},
# within the group-1 cap, and admits point 20 to reps2. Point 25 then
# reaches it through the dispatch, 25 > 7.5 from reps1 and exactly 5 from
# reps2.
SEMI_REPS2_TIE = (
    stream([(0.0, 1), (1.0, 1), (2.0, 1), (3.0, 1), (20.0, 2), (5.0, 2), (25.0, 2)]),
    FairnessSpec((1, 1)),
    1.0,
)


def _dispatch_streams(mode):
    rng = np.random.default_rng(2026)
    for _ in range(150):
        yield _random_stream(rng, mode)
    if mode == "semi":
        yield SEMI_REPS2_TIE


def _check_event_dispatch_against_the_reference(monkeypatch, mode):
    offer = IndependentSet.offer
    first_within = DistanceMetric.first_within
    ties = []
    gate_stops = []

    def counting_offer(self, p, *, clear=False):
        if not clear:  # the scanned path: a tie is a member exactly one threshold away
            d, idx = self.metric.nearest(p, self.coords)
            if idx >= 0 and d == self.threshold:
                ties.append(d)
        return offer(self, p, clear=clear)

    def recording_first_within(self, coords, stored, radius):
        idx = first_within(self, coords, stored, radius)
        if idx >= 0:  # a gate, or the certificate, stops at a point within its radius
            d = self.fn(coords, stored[idx])
            if d == radius:
                ties.append(d)
            gate_stops.append((id(stored), radius, d))
        return idx

    extended = pruned_mid_stream = 0
    reached = collections.Counter()  # the semi group-2 gate outcomes, below the top rung
    for case, (points, spec, epsilon) in enumerate(_dispatch_streams(mode)):
        ladder = Ladder(spec, epsilon=epsilon, mode=mode)
        reference = ReferenceLadder(spec, epsilon=epsilon, mode=mode)
        with monkeypatch.context() as patch:
            patch.setattr(IndependentSet, "offer", counting_offer)
            patch.setattr(DistanceMetric, "first_within", recording_first_within)
            for p in points:
                before = (ladder.bootstrapping, ladder.spawned_count, len(ladder.pruned))
                lower = list(ladder.instances.values())[:-1]
                sets = {id(inst.reps1.coords): (inst, "reps1") for inst in lower}
                sets.update({id(inst.reps2.coords): (inst, "reps2") for inst in lower})
                standins = [len(getattr(inst, "replacements", ())) for inst in lower]
                reps2_sizes = [len(inst.reps2) if 2 in inst.gates else None for inst in lower]
                gate_stops.clear()
                ladder.observe(p)
                if not before[0]:
                    extended += ladder.spawned_count > before[1]
                    pruned_mid_stream += len(ladder.pruned) > before[2]
                if mode != "semi" or p.group != 2:
                    continue
                reached["extension during group 2"] += ladder.spawned_count > before[1]
                for key, within, d in gate_stops:
                    if key not in sets:
                        continue  # a spawn's replay through the gates of a rung it adds
                    inst, name = sets[key]
                    assert within == (1.5 if name == "reps1" else 1.0) * inst.threshold
                    reached[f"skipped by the {name} gate"] += 1
                    reached[f"tie at the {name} gate"] += d == within
                for inst, count, size in zip(lower, standins, reps2_sizes):
                    reached["stand-in recorded"] += len(inst.replacements) > count
                    reached["admitted past the gates"] += size is not None and len(inst.reps2) > size
        for p in points:
            reference.observe(p)
        assert _ladder_state(ladder, ladder.finish()) == _ladder_state(reference, reference.finish()), case
    # the streams reach every path the event dispatch must agree on
    assert ties and extended and pruned_mid_stream
    if mode == "semi":
        outcomes = (
            "skipped by the reps1 gate", "skipped by the reps2 gate", "tie at the reps1 gate",
            "tie at the reps2 gate", "stand-in recorded", "admitted past the gates", "extension during group 2",
        )
        assert all(reached[outcome] for outcome in outcomes), reached


def test_event_dispatch_matches_the_every_rung_reference(monkeypatch):
    _check_event_dispatch_against_the_reference(monkeypatch, "general")


def test_semi_event_dispatch_matches_the_every_rung_reference(monkeypatch):
    _check_event_dispatch_against_the_reference(monkeypatch, "semi")


@pytest.mark.parametrize("mode", ["general", "semi"])
def test_evals_performed_stay_within_the_logical_count(mode):
    # the streams of _check_event_dispatch_against_the_reference
    rng = np.random.default_rng(2026)
    for case in range(150):
        points, spec, epsilon = _random_stream(rng, mode)
        ladder, _ = run_ladder(points, spec, mode, epsilon)
        assert ladder.stats.evals_performed <= ladder.total_distance_evals, case


@pytest.mark.parametrize("mode", ["general", "semi"])
def test_evals_performed_count_each_evaluation_made_while_streaming(mode):
    calls = []

    def counted(a, b):
        calls.append(None)
        return math.dist(a, b)

    metric = DistanceMetric.from_callable(counted, "counted")
    rng = np.random.default_rng(2027)
    for case in range(60):
        points, spec, epsilon = _random_stream(rng, mode)
        calls.clear()
        ladder = Ladder(spec, metric, epsilon=epsilon, mode=mode)
        for p in points:
            ladder.observe(p)
        assert ladder.stats.evals_performed == len(calls), case


@pytest.mark.parametrize("mode", ["general", "semi"])
def test_covered_scans_stop_early_on_a_planted_run(mode):
    spec = FairnessSpec((3, 3))
    points = list(generate_planted(spec, 600, 1.0, seed=4).points)
    if mode == "semi":
        points.sort(key=lambda p: p.group)
    ladder, _ = run_ladder(points, spec, mode)
    assert ladder.stats.evals_performed < 0.9 * ladder.total_distance_evals


def _check_refusal_against_the_reference(mode, setup, bad, message):
    spec = FairnessSpec((1, 1))
    errors = []
    for cls in (Ladder, ReferenceLadder):
        ladder = cls(spec, mode=mode)
        for p in stream(setup):
            ladder.observe(p)
        # rungs below the top hold group-1 points, so a group-1 point meets
        # a scan before the top rung's process, on every rung that skips
        assert len(ladder.instances) > 1
        assert all(len(inst.reps1) for inst in ladder.instances.values())
        with pytest.raises(ValueError, match=message) as info:
            ladder.observe(bad)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


@pytest.mark.parametrize(
    "bad, message",
    [(pt(99, 1.0, 3), "expects groups 1 and 2"), (pt(99, (1.0, 2.0), 1), "dimension mismatch")],
)
def test_event_dispatch_refuses_a_bad_point_like_the_reference(bad, message):
    setup = [(0.0, 1), (1.0, 2), (2.0, 1), (3.0, 2), (4.0, 1), (5.0, 2), (6.0, 1)]
    _check_refusal_against_the_reference("general", setup, bad, message)


SEMI_GROUP1_SETUP = [(0.0, 1), (1.0, 1), (2.0, 1), (4.0, 1), (5.0, 1), (7.0, 1)]


@pytest.mark.parametrize(
    "setup, bad, message",
    [
        (SEMI_GROUP1_SETUP + [(3.0, 2)], pt(99, 1.0, 3), "expects groups 1 and 2"),
        (SEMI_GROUP1_SETUP, pt(99, (1.0, 2.0), 1), "dimension mismatch"),
        (SEMI_GROUP1_SETUP + [(3.0, 2)], pt(99, 1.0, 1), "group-1 point after group-2 streaming began"),
    ],
)
def test_semi_event_dispatch_refuses_a_bad_point_like_the_reference(setup, bad, message):
    _check_refusal_against_the_reference("semi", setup, bad, message)


def zip_euclidean(a, b):
    """Euclidean over ``zip(a, b)``: a longer tuple is cut short, never refused."""
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


GROUP1_BOOTSTRAP = [(x, 1) for x in (0.0, 10.0, 20.0, 35.0, 45.0, 60.0)]
DIMENSION_SETUPS = {
    # group 1 alone bootstraps the ladder, so every rung's group-2 set is
    # empty and no scan of it meets a stored point to compare dimensions with
    "general": [GROUP1_BOOTSTRAP, GROUP1_BOOTSTRAP + [(70.0, 2), (5.0, 2), (28.0, 1), (52.0, 2)]],
    # in group 2, rungs over the group-1 cap (a stand-in recorded) below one with both gates
    "semi": [GROUP1_BOOTSTRAP, [(x, 1) for x in range(6)] + [(2.5, 2), (30.0, 2), (31.0, 2), (4.5, 2)]],
}


def _rung_state(ladder):
    """Everything a point can change on the ladder and its live rungs."""
    return (
        ladder.points_seen,
        dataclasses.astuple(ladder.stats),
        list(ladder.guesses),
        list(ladder.pruned),
        [
            (
                list(inst.reps1.coords),
                list(inst.reps2.coords),
                [p.id for p in inst.stored_order],
                {g: list(c) for g, c in (getattr(inst, "certificate", None) or {}).items()},
                [p.id for p in getattr(inst, "replacements", ())],
            )
            for inst in ladder.instances.values()
        ],
    )


@pytest.mark.parametrize("mode", ["general", "semi"])
def test_a_point_of_another_dimension_is_refused_before_any_rung_changes(mode):
    # the gates and the certificate scan without a dimension check, so the
    # refusal in observe must come first: before the grid holds group 2, after
    # it does (general) or during group 2 (semi), and under a zip-based metric
    # that would otherwise cut the longer tuple short without a word
    spec = FairnessSpec((1, 1))
    for rows in DIMENSION_SETUPS[mode]:
        for metric in (DistanceMetric.euclidean(), DistanceMetric.from_callable(zip_euclidean, "zip")):
            ladder, untouched = Ladder(spec, metric, mode=mode), Ladder(spec, metric, mode=mode)
            for i, (x, group) in enumerate(rows):
                ladder.observe(pt(i, (x, 0.0), group))
                untouched.observe(pt(i, (x, 0.0), group))
            assert len(ladder.instances) > 1
            if rows is not GROUP1_BOOTSTRAP:
                assert all(inst.reps2 for inst in ladder.instances.values())
            before = _rung_state(ladder)
            n = len(rows)
            message = rf"^dimension mismatch: point {n} has 3 coords, the stream's first point has 2$"
            for group in (1, 2) if mode == "general" else (2,):
                with pytest.raises(ValueError, match=message):
                    ladder.observe(pt(n, (1.0, 2.0, 3.0), group))
                assert _rung_state(ladder) == before, (rows, metric.kind, group)
            assert _ladder_state(ladder, ladder.finish()) == _ladder_state(untouched, untouched.finish())


@pytest.mark.parametrize("mode", ["general", "semi"])
def test_a_point_of_another_group_is_refused_before_the_buffer_changes(mode):
    # buffered, it would be refused only by the replay, from every later observe
    spec = FairnessSpec((1, 1))
    points = stream([(0.0, 1), (1.0, 2), (2.0, 3), (5.0, 1), (6.0, 2)])
    if mode == "semi":
        points = [points[i] for i in (0, 3, 2, 1, 4)]
    ladder = Ladder(spec, mode=mode)
    for p in points[:2]:
        ladder.observe(p)
    before = (ladder.points_seen, list(ladder.buffer), list(ladder.guesses))
    stats = dataclasses.replace(ladder.stats)
    with pytest.raises(ValueError, match=r"^point 2 has group 3; the ladder expects groups 1 and 2$"):
        ladder.observe(points[2])
    assert (ladder.points_seen, ladder.buffer, ladder.guesses) == before and ladder.stats == stats
    for p in points[3:]:
        ladder.observe(p)
    result = ladder.finish()
    assert check_fairness(result.centers, spec) == []
    assert 2 not in result.centers.ids()


def _check_a_late_group1_point_is_refused(rows, at, late):
    """Stream ``rows`` into two semi ladders and offer ``late`` to one of
    them before row ``at``: it is refused there, and the two ladders end
    alike, with the same points seen."""
    spec = FairnessSpec((1, 1))
    ladder, untouched = Ladder(spec, mode="semi"), Ladder(spec, mode="semi")
    points = stream(rows)
    for p in points[:at]:
        ladder.observe(p)
        untouched.observe(p)
    with pytest.raises(StreamOrderError, match=rf"^point {late.id}: group-1 point after group-2 streaming began"):
        ladder.observe(late)
    for p in points[at:]:
        ladder.observe(p)
        untouched.observe(p)
    assert ladder.points_seen == untouched.points_seen == len(rows)
    assert _ladder_state(ladder, ladder.finish()) == _ladder_state(untouched, untouched.finish())


@pytest.mark.parametrize("ends", ["in the replay", "in finish"])
def test_a_late_group1_repeat_in_the_bootstrap_buffer_is_refused(ends):
    # point 99 repeats the buffered point 0 of its group, which the buffer
    # drops otherwise, but it comes after group 2 began. It used to be
    # buffered and refused only by a replay: the one the sixth distinct
    # location spawns or, in a shorter stream, the one in finish
    rows = [(0.0, 1), (3.0, 1), (5.0, 2), (7.0, 2), (9.0, 2), (11.0, 2)]
    _check_a_late_group1_point_is_refused(rows if ends == "in the replay" else rows[:-1], 3, pt(99, 0.0, 1))


@pytest.mark.parametrize("at", [3, 7])
def test_a_late_group1_point_is_refused_before_the_ladder_changes(at):
    # buffered (at 3), a new location used to raise only at the replay two
    # points later, and every observe after that spawned one more rung under
    # a repeated guess; past the buffer (at 7) it still counted as seen
    rows = [(0.0, 1), (3.0, 1), (5.0, 2), (7.0, 2), (9.0, 2), (11.0, 2), (13.0, 2), (15.0, 2)]
    _check_a_late_group1_point_is_refused(rows, at, pt(99, 1.0, 1))


def test_semi_event_dispatch_refuses_a_late_group1_point_like_the_reference():
    # a rung that has not seen group 2 cannot refuse a late group-1 point by
    # itself, so every rung must take the full process on it. Such a "fresh
    # top" used to arise mid-group-2, when the top extended the grid on a
    # group-2 point it had not stored and the successor replayed a stored set
    # without one. Now the top extends only on a point it stored, or on an
    # overflow, whose successor replays the point, and a rung spawned from the
    # buffer replays the group-2 points buffered: once the stream reaches
    # group 2, every live rung has seen it, those spawned since included
    rng = np.random.default_rng(7)
    refused = spawned_in_group2 = 0
    for case in range(400):
        points, spec, epsilon = _random_stream(rng, "semi")
        late = Point(len(points), points[int(rng.integers(0, len(points)))].coords, 1)
        outcomes = []
        for cls in (Ladder, ReferenceLadder):
            ladder = cls(spec, epsilon=epsilon, mode="semi")
            spawned = None
            for p in points:
                if p.group == 2 and spawned is None and not ladder.bootstrapping:
                    spawned = ladder.spawned_count
                ladder.observe(p)
            if points[-1].group == 2:  # the stream is sorted by group
                assert all(inst.group2_started for inst in ladder.instances.values()), case
            if spawned is not None and cls is Ladder:
                spawned_in_group2 += ladder.spawned_count - spawned
            try:
                ladder.observe(late)
                outcomes.append(None)
            except StreamOrderError as exc:
                outcomes.append(str(exc))
                refused += cls is Ladder
        assert outcomes[0] == outcomes[1], case
    assert refused and spawned_in_group2
