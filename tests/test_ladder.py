import collections
import math

import numpy as np
import pytest

from fairkcenter import (
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
from fairkcenter.core import NO_STOP
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
    spec = FairnessSpec((1, 1))  # k+2 = 4
    ladder = Ladder(spec)
    for p in stream([(0.0, 1), (7.0, 2), (3.0, 1)]):
        ladder.observe(p)
    assert ladder.bootstrapping and not ladder.instances
    ladder.observe(pt(3, 10.0, 2))
    assert not ladder.bootstrapping and ladder.instances


def test_lowest_guess_is_smallest_positive_buffer_gap():
    spec = FairnessSpec((1, 1))
    ladder = Ladder(spec)
    for p in stream([(0.0, 1), (7.0, 2), (3.0, 1), (3.0, 2)]):
        ladder.observe(p)
    # pairwise gaps: 7, 3, 3, 4, 4, 0 -> smallest positive is 3
    assert ladder.guesses[0] == 3.0


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
    points = stream([(0.0, 1), (1.0, 2), (2.0, 1), (3.0, 2)])
    ladder = Ladder(spec)
    for p in points:
        ladder.observe(p)
    high_before = ladder.guesses[-1]
    ladder.observe(pt(4, 500.0, 1))
    assert ladder.guesses[-1] > high_before
    result = ladder.finish()
    assert check_fairness(result.centers, spec) == []
    all_points = points + [pt(4, 500.0, 1)]
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
        ("general", (43087, 297, 16, 0, 38, 8)),
        ("semi", (20046, 119, 12, 0, 45, 38)),
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


@pytest.mark.xfail(
    strict=True, raises=RuntimeError,
    reason="ROADMAP item 3c: a semi rung drops a group-2 point within one threshold of group 1",
)
def test_semi_ladder_serves_group_2_alone_under_a_zero_group_1_cap():
    # the oracle gives r_opt 20 with the group-2 point as the one center
    spec = FairnessSpec((0, 1))
    points = stream([(0.0, 1), (10.0, 1), (20.0, 2)])
    _, result = run_ladder(points, spec, mode="semi")
    assert check_fairness(result.centers, spec) == []
    assert clustering_cost(points, result.centers) <= 3.0 * result.best_guess


def test_unservable_caps_raise():
    # group 2 never appears, yet only group 2 may host centers
    spec = FairnessSpec((0, 1))
    points = stream([(0.0, 1), (10.0, 1), (20.0, 1), (30.0, 1)])
    ladder = Ladder(spec)
    with pytest.raises(RuntimeError, match="unservable"):
        for p in points:
            ladder.observe(p)
        ladder.finish()


def test_observe_after_finish_raises():
    ladder = Ladder(FairnessSpec((1, 1)))
    ladder.observe(pt(0, 0.0, 1))
    ladder.finish()
    with pytest.raises(RuntimeError):
        ladder.observe(pt(1, 1.0, 1))


@pytest.mark.filterwarnings("default::UserWarning")
def test_feasibility_is_empirically_monotone_in_the_guess(rng):
    # larger guesses should stay feasible once a smaller one is; the cover
    # loop's heuristic choices leave this unproven, so a counterexample is
    # reported as a warning rather than a failure
    import warnings

    from fairkcenter import candidate_radii
    from conftest import random_two_group_instance

    for trial in range(25):
        points, spec = random_two_group_instance(rng, max_n=10)
        radii = [r for r in candidate_radii(points) if r > 0][:6]
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
    """The dispatch loop before event dispatch: every live rung runs the full
    ``process`` on every point."""

    def _dispatch(self, point):
        live = list(self.instances.items())
        top = live[-1][1]
        for guess, inst in live:
            # the top rung comes last, so its nearest distance is the one kept
            nearest_all = inst.process(point, probe_other=inst is top)
            if inst.overflowed:
                self._retire(guess, self.instances.pop(guess))
        if top.overflowed:
            self._extend_grid(list(top.stored_order), pending=point)
        elif nearest_all > top.threshold:
            self._extend_grid(list(top.stored_order), pending=None)


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
# radius. In this one, at epsilon 1, the grid is 1, 2, 4, ..., 32. The rung
# at guess 2 (threshold 4) keeps reps1 = {0, 40}, within the group-1 cap,
# and admits point 20 to reps2. Point 24 is then 16 > 6 from reps1 and
# exactly 4 from reps2.
SEMI_REPS2_TIE = (
    stream([(0.0, 1), (1.0, 1), (2.0, 1), (3.0, 1), (40.0, 1), (41.0, 1), (20.0, 2), (24.0, 2)]),
    FairnessSpec((2, 2)),
    1.0,
)


def _dispatch_streams(mode):
    rng = np.random.default_rng(2026)
    for _ in range(150):
        yield _random_stream(rng, mode)
    if mode == "semi":
        yield SEMI_REPS2_TIE


def _check_event_dispatch_against_the_reference(monkeypatch, mode):
    covers = IndependentSet.covers
    nearest = DistanceMetric.nearest
    ties = []
    gate_stops = []

    def counting_covers(self, d, idx):
        if idx >= 0 and d == self.threshold:
            ties.append(d)
        return covers(self, d, idx)

    def recording_nearest(self, p, stored, within=NO_STOP):
        d, idx = nearest(self, p, stored, within)
        if d <= within and p.group == 2:
            gate_stops.append((id(stored), within, d))
        return d, idx

    extended = pruned_mid_stream = 0
    reached = collections.Counter()  # the semi group-2 gate outcomes, below the top rung
    for case, (points, spec, epsilon) in enumerate(_dispatch_streams(mode)):
        ladder = Ladder(spec, epsilon=epsilon, mode=mode)
        reference = ReferenceLadder(spec, epsilon=epsilon, mode=mode)
        with monkeypatch.context() as patch:
            patch.setattr(IndependentSet, "covers", counting_covers)
            patch.setattr(DistanceMetric, "nearest", recording_nearest)
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
        assert ladder.total_evals_performed <= ladder.total_distance_evals, case


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
        assert ladder.total_evals_performed == len(calls), case


@pytest.mark.parametrize("mode", ["general", "semi"])
def test_covered_scans_stop_early_on_a_planted_run(mode):
    spec = FairnessSpec((3, 3))
    points = list(generate_planted(spec, 600, 1.0, seed=4).points)
    if mode == "semi":
        points.sort(key=lambda p: p.group)
    ladder, _ = run_ladder(points, spec, mode)
    assert ladder.total_evals_performed < 0.9 * ladder.total_distance_evals


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
    setup = [(0.0, 1), (1.0, 2), (2.0, 1), (3.0, 2), (4.0, 1)]
    _check_refusal_against_the_reference("general", setup, bad, message)


SEMI_GROUP1_SETUP = [(0.0, 1), (1.0, 1), (2.0, 1), (4.0, 1)]


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


@pytest.mark.parametrize("mode", ["general", "semi"])
def test_a_point_of_another_dimension_is_refused_before_any_rung_changes(mode):
    # group 1 alone bootstraps the ladder, so every rung's group-2 set is
    # empty and no scan of it meets a stored point to compare dimensions with
    spec = FairnessSpec((1, 1))
    setup = [pt(i, (x, 0.0), 1) for i, x in enumerate([0.0, 10.0, 20.0, 35.0])]
    ladder, untouched = Ladder(spec, mode=mode), Ladder(spec, mode=mode)
    for p in setup:
        ladder.observe(p)
        untouched.observe(p)
    assert len(ladder.instances) > 1
    message = r"^dimension mismatch: point 4 has 3 coords, the stream's first point has 2$"
    with pytest.raises(ValueError, match=message):
        ladder.observe(pt(4, (1.0, 2.0, 3.0), 2))
    assert _ladder_state(ladder, ladder.finish()) == _ladder_state(untouched, untouched.finish())


def test_semi_event_dispatch_refuses_a_late_group1_point_like_the_reference():
    # a top rung spawned mid-group-2 from a stored set without group-2 points
    # has not seen group 2, so it alone cannot refuse a late group-1 point;
    # every rung that has seen group 2 must take the full process on it
    rng = np.random.default_rng(7)
    refused_past_a_fresh_top = 0
    for case in range(400):
        points, spec, epsilon = _random_stream(rng, "semi")
        late = Point(len(points), points[int(rng.integers(0, len(points)))].coords, 1)
        outcomes = []
        for cls in (Ladder, ReferenceLadder):
            ladder = cls(spec, epsilon=epsilon, mode="semi")
            for p in points:
                ladder.observe(p)
            fresh_top = not list(ladder.instances.values())[-1].group2_started
            try:
                ladder.observe(late)
                outcomes.append(None)
            except StreamOrderError as exc:
                outcomes.append(str(exc))
                refused_past_a_fresh_top += fresh_top and cls is Ladder
        assert outcomes[0] == outcomes[1], case
    assert refused_past_a_fresh_top
