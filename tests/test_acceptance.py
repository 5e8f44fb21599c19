"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with -s to see them alongside the pytest verdicts)."""

import importlib.util
import itertools
import random
import time
from pathlib import Path

import numpy as np
import pytest

from fairkcenter import (
    EUCLIDEAN,
    FairnessSpec,
    IndependentSet,
    Ladder,
    SemiInstance,
    StreamInstance,
    brute_force_opt,
    check_fairness,
    clustering_cost,
    generate_planted,
    run_known,
)

from conftest import pt, random_two_group_instance, stream

RNG_SEED = 7_2024
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def conclude(criterion: int, name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"[criterion {criterion}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert not failures, f"criterion {criterion} ({name}): {failures[:5]}"


# ----------------------------------------------------------------------
# criteria 1 and 2: worst-case cost factors at the oracle radius
# ----------------------------------------------------------------------
def _ratio_sweep(mode: str, factor: float) -> list:
    rng = np.random.default_rng(RNG_SEED)
    failures = []
    for trial in range(200):
        points, spec = random_two_group_instance(rng, max_n=14)
        r_opt = brute_force_opt(points, spec).r_opt
        ordered = sorted(points, key=lambda p: p.group) if mode == "semi" else points
        out = run_known(r_opt, ordered, spec, mode=mode)
        if not out.feasible:
            failures.append((trial, "infeasible at the oracle radius"))
            continue
        if check_fairness(out.centers, spec):
            failures.append((trial, "caps violated"))
        cost = clustering_cost(points, out.centers)
        if cost > factor * r_opt + 1e-9:
            failures.append((trial, f"cost {cost} > {factor} * {r_opt}"))
    return failures


def test_criterion_1_general_ratio_bound():
    started = time.perf_counter()
    failures = _ratio_sweep("general", 5.0)
    conclude(1, "factor-5 cost bound at the oracle radius, 200 random instances",
             failures, f"{time.perf_counter() - started:.1f}s")


def test_criterion_2_semi_ratio_bound():
    started = time.perf_counter()
    failures = _ratio_sweep("semi", 3.0)
    conclude(2, "factor-3 cost bound on group-sorted streams, 200 random instances",
             failures, f"{time.perf_counter() - started:.1f}s")


# ----------------------------------------------------------------------
# criterion 3: the hand-derived scenarios reproduce exactly
# ----------------------------------------------------------------------
def test_criterion_3_worked_scenarios():
    failures = []

    # one group over its cap: reps {0,100} vs {1}; 0 is filtered out
    pts = stream([(0.0, 1), (100.0, 1), (1.0, 2), (2.0, 2), (3.0, 2)])
    out = run_known(1.0, pts, FairnessSpec((1, 2)))
    if not out.feasible or sorted(p.coords[0] for p in out.centers) != [1.0, 100.0]:
        failures.append("one-over scenario centers")
    elif clustering_cost(pts, out.centers) != 2.0:
        failures.append("one-over scenario cost")

    # both groups over their caps: cover loop picks 0, early exit adds 100.5
    pts = stream([(0.0, 1), (100.0, 1), (0.5, 2), (100.5, 2)])
    out = run_known(0.5, pts, FairnessSpec((1, 1)))
    if not out.feasible or [p.coords[0] for p in out.centers] != [0.0, 100.5]:
        failures.append("both-over scenario centers")
    elif clustering_cost(pts, out.centers) != 0.5:
        failures.append("both-over scenario cost")

    # group-sorted swap: rep 0 exchanged for its stand-in 0.4
    pts = stream([(0.0, 1), (100.0, 1), (0.4, 2), (50.0, 2)])
    out = run_known(0.4, pts, FairnessSpec((1, 2)), mode="semi")
    if not out.feasible or sorted(p.coords[0] for p in out.centers) != [0.4, 50.0, 100.0]:
        failures.append("swap scenario centers")
    elif clustering_cost(pts, out.centers) != 0.4:
        failures.append("swap scenario cost")

    conclude(3, "hand-derived scenarios reproduce bit-for-bit", failures)


# ----------------------------------------------------------------------
# criteria 4-6: planted ladder sweeps and their resource contracts
# ----------------------------------------------------------------------
LADDER_K = 50
LADDER_SIZES = (2000, 4000, 6000)
LADDER_RUNS_PER_SIZE = 10
LADDER_EPSILON = 0.1


@pytest.fixture(scope="session")
def planted_ladder_runs():
    # the sweep of scripts/ratio_sweep.py, at ten constraint mixes from (5,45) to (41,9)
    spec = importlib.util.spec_from_file_location("ratio_sweep", SCRIPTS / "ratio_sweep.py")
    ratio_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ratio_sweep)
    return list(ratio_sweep.sweep(
        LADDER_SIZES, LADDER_RUNS_PER_SIZE, LADDER_K, LADDER_EPSILON, dim=2,
        cap1_of=lambda run_idx: 5 + 4 * run_idx, seed_of=lambda n, run_idx: 1000 * n + run_idx,
    ))


def test_criterion_4_ladder_empirical_ratios(planted_ladder_runs):
    failures = []
    worst = {"general": 0.0, "semi": 0.0}
    bound = {"general": 5.0 * (1.0 + LADDER_EPSILON), "semi": 3.0 * (1.0 + LADDER_EPSILON)}
    for rec in planted_ladder_runs:
        worst[rec["mode"]] = max(worst[rec["mode"]], rec["ratio"])
        if not rec["caps_respected"]:
            failures.append((rec["mode"], rec["n"], rec["run"], "caps violated"))
        if rec["ratio"] > bound[rec["mode"]] + 1e-9:
            failures.append((rec["mode"], rec["n"], rec["run"], f"ratio {rec['ratio']:.3f}"))
    total = sum(rec["runtime_s"] for rec in planted_ladder_runs)
    conclude(
        4,
        "ladder empirical ratios on planted datasets",
        failures,
        f"max general {worst['general']:.3f} <= {bound['general']:.2f}, "
        f"max semi {worst['semi']:.3f} <= {bound['semi']:.2f}, {total:.0f}s solve time",
    )


def test_criterion_5_memory_contract(planted_ladder_runs):
    failures = []
    for rec in planted_ladder_runs:
        per_instance_cap = (2 * LADDER_K + 2) if rec["mode"] == "general" else (3 * LADDER_K + 2)
        if rec["per_instance_peak"] > per_instance_cap:
            failures.append((rec["mode"], rec["n"], rec["run"], "per-instance storage"))
        if rec["spawned"] > rec["grid_bound"]:
            failures.append((rec["mode"], rec["n"], rec["run"], "instance count"))
        if rec["total_stored_peak"] > rec["spawned"] * per_instance_cap:
            failures.append((rec["mode"], rec["n"], rec["run"], "total storage"))
    conclude(5, "stored-point and instance-count bounds on every ladder run", failures)


def test_criterion_6_update_time_contract(planted_ladder_runs):
    failures = [
        (rec["mode"], rec["n"], rec["run"], rec["worst_update_excess"])
        for rec in planted_ladder_runs
        if rec["worst_update_excess"] > 0
    ]
    conclude(6, "per-point evaluations within the stored-set sizes", failures)


# ----------------------------------------------------------------------
# criterion 7: invariant suite over >= 1000 randomized small streams
# ----------------------------------------------------------------------
def test_criterion_7_invariant_suite():
    rng = np.random.default_rng(RNG_SEED + 7)
    failures = []
    streams = 0

    # separation and online coverage of the representative structure
    for trial in range(600):
        streams += 1
        n = int(rng.integers(1, 31))
        threshold = float(rng.uniform(0.5, 12.0))
        points = [pt(i, tuple(float(c) for c in rng.integers(0, 25, size=2))) for i in range(n)]
        s = IndependentSet(threshold)
        for p in points:
            before = len(s)
            evals0 = s.stats.distance_evals
            s.offer(p)
            if s.stats.distance_evals - evals0 != before:
                failures.append((trial, "offer cost"))
        for a, b in itertools.combinations(s.members, 2):
            if EUCLIDEAN(a, b) <= threshold:
                failures.append((trial, "separation"))
        for p in points:
            if min(EUCLIDEAN(p, q) for q in s.members) > threshold:
                failures.append((trial, "coverage"))

    # stand-in distance bound on group-sorted streams
    for trial in range(200):
        streams += 1
        points, spec = random_two_group_instance(rng)
        guess = float(rng.uniform(0.5, 10.0))
        inst = SemiInstance(guess, spec)
        for p in sorted(points, key=lambda q: q.group):
            inst.process(p)
            if inst.overflowed:
                break
        for rep_id, stand_in in inst.replacement_of.items():
            rep = next(p for p in inst.reps1.members if p.id == rep_id)
            if EUCLIDEAN(rep, stand_in) > guess:
                failures.append((trial, "stand-in distance"))

    # cover-loop progress and budget invariants at the oracle radius
    oracle_streams = 0
    trial = 0
    while oracle_streams < 192:
        trial += 1
        points, spec = random_two_group_instance(rng, max_n=12)
        r_opt = brute_force_opt(points, spec).r_opt
        inst = StreamInstance(r_opt, spec)
        for p in points:
            inst.process(p)
        out = inst.finalize()
        oracle_streams += 1
        streams += 1
        if not out.feasible:
            failures.append((trial, "infeasible at oracle radius"))
            continue
        _check_trace(inst, spec, failures, trial)

    # deterministic paired-cluster family guaranteed to exercise the cover loop
    for clusters in range(3, 11):
        streams += 1
        spec = FairnessSpec((clusters - 1, clusters - 1))
        rows = []
        for j in range(clusters):
            rows.append((10.0 * j, 1))
            rows.append((10.0 * j + 1.0, 2))
        points = stream(rows)
        inst = StreamInstance(1.0, spec)
        for p in points:
            inst.process(p)
        out = inst.finalize()
        if inst.path != "both-over" or not out.feasible:
            failures.append((clusters, "paired family should drive the cover loop"))
            continue
        if not inst.last_graph.loop_trace:
            failures.append((clusters, "cover loop never ran"))
        _check_trace(inst, spec, failures, clusters)

    assert streams >= 1000
    conclude(7, f"invariant suite over {streams} randomized streams", failures)


def _check_trace(inst, spec, failures, tag):
    graph = inst.last_graph
    if graph is None:  # union or one-over path: no cover loop to audit
        return
    if len(graph.loop_trace) > len(graph.points):
        failures.append((tag, "cover loop iterations exceed the vertex count"))
    for chosen, c1, c2, live1, live2 in graph.loop_trace:
        if live1 > spec.k - chosen or live2 > spec.k - chosen:
            failures.append((tag, "live set exceeds remaining budget"))
        if c1 > spec.caps[0] or c2 > spec.caps[1]:
            failures.append((tag, "chosen counts exceed caps mid-loop"))


# ----------------------------------------------------------------------
# criterion 8: planted datasets agree with the exhaustive oracle
# ----------------------------------------------------------------------
def test_criterion_8_planted_oracle_consistency():
    rng = np.random.default_rng(RNG_SEED + 8)
    failures = []
    for trial in range(50):
        k = int(rng.integers(2, 5))
        cap1 = int(rng.integers(1, k))
        spec = FairnessSpec((cap1, k - cap1))
        n = int(rng.integers(3 * k, 13))
        planted_r = float(rng.uniform(0.5, 3.0))
        planted = generate_planted(spec, n, planted_r, seed=trial)
        r_opt = brute_force_opt(planted.points, spec).r_opt
        if abs(r_opt - planted_r) > 1e-9:
            failures.append((trial, r_opt, planted_r))
    conclude(8, "exhaustive optimum equals the planted radius on 50 seeded instances", failures)


# ----------------------------------------------------------------------
# criterion 9: the ladder's bounds against the exhaustive optimum
# ----------------------------------------------------------------------
ORACLE_SWEEP_DRAWS = 3000


@pytest.fixture(scope="module")
def oracle_sweep_draws():
    """Seeded draws of 3-10 points on a 7x7 integer grid, so duplicates and
    ties occur, with random groups, caps in {1,2}^2, a random stream order
    and the exhaustive optimum. Draws with a zero optimum are left out: the
    grid starts above zero (ROADMAP item 8)."""
    rng = np.random.default_rng(11)
    draws = []
    for draw in range(ORACLE_SWEEP_DRAWS):
        n = int(rng.integers(3, 11))
        points = [pt(i, tuple(float(c) for c in rng.integers(0, 7, size=2)), int(rng.integers(1, 3)))
                  for i in range(n)]
        spec = FairnessSpec((int(rng.integers(1, 3)), int(rng.integers(1, 3))))
        order = [points[i] for i in rng.permutation(n)]
        r_opt = brute_force_opt(points, spec).r_opt
        if r_opt > 0:
            draws.append((draw, order, spec, r_opt))
    return draws


@pytest.mark.parametrize("mode, factor", [("general", 5.0), ("semi", 3.0)])
def test_criterion_9_ladder_bounds_against_the_oracle(oracle_sweep_draws, mode, factor):
    failures = []
    worst = 1.0
    for draw, order, spec, r_opt in oracle_sweep_draws:
        points = sorted(order, key=lambda p: p.group) if mode == "semi" else order
        ladder = Ladder(spec, epsilon=LADDER_EPSILON, mode=mode)
        for p in points:
            ladder.observe(p)
        result = ladder.finish()
        cost = clustering_cost(points, result.centers)
        worst = max(worst, result.best_guess / r_opt)
        if check_fairness(result.centers, spec):
            failures.append((draw, "caps violated"))
        if result.best_guess > (1.0 + LADDER_EPSILON) * r_opt:
            failures.append((draw, f"best guess {result.best_guess} > (1+eps) * {r_opt}"))
        if cost > factor * (1.0 + LADDER_EPSILON) * r_opt:
            failures.append((draw, f"cost {cost} > {factor}(1+eps) * {r_opt}"))
    conclude(
        9,
        f"{mode} ladder within (1+eps) of the optimum in its guess and {factor:g}(1+eps) in its cost",
        failures,
        f"{len(oracle_sweep_draws)} draws, worst guess ratio {worst:.3f}",
    )


# ----------------------------------------------------------------------
# criterion 10: a seeded hill-climb toward the worst ratio
# ----------------------------------------------------------------------
# Each restart draws 4-9 points in [0, 10]^2 with random groups and caps in
# {1, 2}^2 (zero caps wait on ROADMAP item 3c). A step moves one point by a
# Gaussian of scale 0.05, 0.3 or 1.5, flips one point's group, or swaps two
# points in the stream, and is kept when the objective does not fall. The
# objectives are cost / r_opt at the fixed guess r_opt, cost / r_opt through
# the ladder at eps 0.1, and the ladder's cost / its own best guess. Every
# evaluated instance is checked against all three bounds. A step to a zero
# optimum is refused: the ladder's grid starts above zero (ROADMAP item 8).
RATIO_SEARCH_SEEDS = (1, 2, 3)
RATIO_SEARCH_RESTARTS = 3
RATIO_SEARCH_STEPS = 110


def _search_ratios(mode, rows, caps, failures):
    """The three ratios of one instance, None at a zero optimum; a broken
    check is appended to ``failures``."""
    spec = FairnessSpec(caps)
    points = [pt(i, coords, group) for i, (coords, group) in enumerate(rows)]
    r_opt = brute_force_opt(points, spec).r_opt
    if r_opt == 0.0:
        return None
    ordered = sorted(points, key=lambda p: p.group) if mode == "semi" else points
    factor = 5.0 if mode == "general" else 3.0
    fixed = run_known(r_opt, ordered, spec, mode=mode)
    if not fixed.feasible:
        failures.append((caps, rows, "infeasible at the oracle radius"))
        return None
    ladder = Ladder(spec, epsilon=LADDER_EPSILON, mode=mode)
    for p in ordered:
        ladder.observe(p)
    result = ladder.finish()
    ladder_cost = clustering_cost(points, result.centers)
    ratios = {
        "fixed": clustering_cost(points, fixed.centers) / r_opt,
        "ladder": ladder_cost / r_opt,
        "own": ladder_cost / result.best_guess,
    }
    bounds = {"fixed": factor, "ladder": factor * (1.0 + LADDER_EPSILON), "own": factor}
    if check_fairness(fixed.centers, spec) or check_fairness(result.centers, spec):
        failures.append((caps, rows, "caps violated"))
    failures.extend((caps, rows, f"{name} ratio {ratios[name]} > {bounds[name]}")
                    for name in ratios if ratios[name] > bounds[name] + 1e-9)
    return ratios


def _search_step(rng, rows):
    rows = list(rows)
    i = rng.randrange(len(rows))
    move = rng.randrange(3)
    if move == 0:
        scale = rng.choice((0.05, 0.3, 1.5))
        coords, group = rows[i]
        rows[i] = (tuple(c + rng.gauss(0.0, scale) for c in coords), group)
    elif move == 1:
        coords, group = rows[i]
        rows[i] = (coords, 3 - group)
    else:
        j = rng.randrange(len(rows))
        rows[i], rows[j] = rows[j], rows[i]
    return rows


@pytest.mark.parametrize("objective", ["fixed", "ladder", "own"])
@pytest.mark.parametrize("mode", ["general", "semi"])
def test_criterion_10_seeded_ratio_search(mode, objective):
    failures = []
    worst = 0.0
    evaluated = 0
    for seed in RATIO_SEARCH_SEEDS:
        rng = random.Random(seed)
        for _ in range(RATIO_SEARCH_RESTARTS):
            ratios = None
            while ratios is None:
                caps = (rng.randint(1, 2), rng.randint(1, 2))
                rows = [((rng.uniform(0, 10), rng.uniform(0, 10)), rng.randint(1, 2))
                        for _ in range(rng.randint(4, 9))]
                ratios = _search_ratios(mode, rows, caps, failures)
                evaluated += 1
            for _ in range(RATIO_SEARCH_STEPS):
                candidate = _search_step(rng, rows)
                found = _search_ratios(mode, candidate, caps, failures)
                evaluated += 1
                if found is not None and found[objective] >= ratios[objective]:
                    rows, ratios = candidate, found
            worst = max(worst, ratios[objective])
    conclude(10, f"seeded {mode} ratio search, objective {objective}", failures,
             f"{evaluated} instances, worst {objective} ratio {worst:.4f}")


# ----------------------------------------------------------------------
# ratio-search pins: the worst instances of a seeded hill-climb
# ----------------------------------------------------------------------
# The worst cost / r_opt a seeded hill-climb found per mode and objective,
# as literal streams (general mode in this order, semi mode sorted by
# group). The search (ROADMAP item 11: 8 restarts of 375-500 steps per
# seed, each restart 4-9 points in [0, 10]^2 with caps in {1, 2}^2, a step
# moving one point by a Gaussian of scale 0.05, 0.3 or 1.5, flipping one
# group or swapping two points, kept when the ratio does not fall) ran on
# seed 3 at the fixed guess and seeds 3 and 10-15 through the ladder at
# eps 0.1. Each pin is held to the paper's bound only, never to the ratio
# it was found at, and prints its ratio so a change that moves it shows.
RATIO_PINS = {
    ("general", "fixed"): (  # seed 3, cost / r_opt 4.7791
        (1, 1),
        [
            ((10.688692300142462, 4.533088376804828), 1),
            ((9.0897434654513, 5.518442809164618), 1),
            ((2.6988581635337385, 4.8958877554524385), 2),
            ((9.868674272515308, 3.624517043139275), 2),
            ((0.5914007214220567, 4.3039743204430305), 2),
            ((8.958098893905863, 6.096986689073606), 1),
            ((9.424773506614592, 6.203273949939483), 2),
            ((-2.0810288463699673, 4.278529188178577), 2),
        ],
    ),
    ("semi", "fixed"): (  # seed 3, cost / r_opt 2.99996
        (1, 2),
        [
            ((9.118679469412358, 4.6371098276811935), 1),
            ((3.9190351331802704, 8.821298994364287), 2),
            ((4.614528919598341, 0.30219918987005073), 2),
            ((6.4287797403736455, -1.2654858359853767), 2),
            ((1.8602172460066941, 7.275689185833319), 2),
        ],
    ),
    ("general", "ladder"): (  # seed 11, cost / r_opt 5.2011
        (2, 1),
        [
            ((4.64282183280471, 4.818840427259839), 2),
            ((2.8381572728103936, 2.6990942196068124), 2),
            ((0.9852620504261457, 0.6231672782339902), 2),
            ((10.473040956133802, 8.87795367197671), 2),
            ((10.819398875172839, 11.250667831741497), 1),
        ],
    ),
    ("semi", "ladder"): (  # seed 13, cost / r_opt 3.2932
        (1, 2),
        [
            ((2.6042929150314627, 3.2267485831506453), 2),
            ((0.21110695860197617, 10.001899477449435), 2),
            ((-2.5347343408206813, 4.083230687280508), 1),
            ((12.842486956253863, 7.5403986640466), 2),
            ((7.381286654775564, 3.5187748423451963), 1),
            ((-2.726699362192943, 7.828923104012108), 1),
        ],
    ),
}


@pytest.mark.parametrize("mode, objective", list(RATIO_PINS), ids="-".join)
def test_ratio_search_pins_stay_within_the_paper_bounds(mode, objective):
    caps, rows = RATIO_PINS[mode, objective]
    spec = FairnessSpec(caps)
    points = [pt(i, coords, group) for i, (coords, group) in enumerate(rows)]
    ordered = sorted(points, key=lambda p: p.group) if mode == "semi" else points
    r_opt = brute_force_opt(points, spec).r_opt
    factor = 5.0 if mode == "general" else 3.0
    if objective == "fixed":
        out = run_known(r_opt, ordered, spec, mode=mode)
        assert out.feasible, "infeasible at the oracle radius"
        centers = out.centers
    else:
        factor *= 1.0 + LADDER_EPSILON
        ladder = Ladder(spec, epsilon=LADDER_EPSILON, mode=mode)
        for p in ordered:
            ladder.observe(p)
        centers = ladder.finish().centers
    ratio = clustering_cost(points, centers) / r_opt
    print(f"[ratio pin] {mode} {objective}: cost / r_opt {ratio:.5f} <= {factor:g}")
    assert check_fairness(centers, spec) == []
    assert ratio <= factor + 1e-9
