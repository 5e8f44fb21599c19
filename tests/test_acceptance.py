"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with -s to see them alongside the pytest verdicts)."""

import itertools
import time

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
    records = []
    for n in LADDER_SIZES:
        for run_idx in range(LADDER_RUNS_PER_SIZE):
            cap1 = 5 + 4 * run_idx  # ten constraint mixes from (5,45) to (41,9)
            spec = FairnessSpec((cap1, LADDER_K - cap1))
            planted = generate_planted(spec, n, 1.0, seed=1000 * n + run_idx)
            for mode in ("general", "semi"):
                points = list(planted.points)
                if mode == "semi":
                    points.sort(key=lambda p: p.group)
                ladder = Ladder(spec, epsilon=LADDER_EPSILON, mode=mode)
                started = time.perf_counter()
                for p in points:
                    ladder.observe(p)
                result = ladder.finish()
                elapsed = time.perf_counter() - started
                cost = clustering_cost(planted.points, result.centers)
                records.append(
                    {
                        "mode": mode,
                        "n": n,
                        "run": run_idx,
                        "spec": spec,
                        "ratio": cost / planted.planted_r,
                        "fair": not check_fairness(result.centers, spec),
                        "grid_bound": ladder.grid_bound,
                        "spawned": ladder.spawned_count,
                        "per_instance_peak": ladder.per_instance_stored_peak,
                        "total_stored_peak": ladder.total_stored_peak,
                        "worst_update_excess": ladder.worst_update_excess,
                        "seconds": elapsed,
                    }
                )
    return records


def test_criterion_4_ladder_empirical_ratios(planted_ladder_runs):
    failures = []
    worst = {"general": 0.0, "semi": 0.0}
    bound = {"general": 5.0 * (1.0 + LADDER_EPSILON), "semi": 3.0 * (1.0 + LADDER_EPSILON)}
    for rec in planted_ladder_runs:
        worst[rec["mode"]] = max(worst[rec["mode"]], rec["ratio"])
        if not rec["fair"]:
            failures.append((rec["mode"], rec["n"], rec["run"], "caps violated"))
        if rec["ratio"] > bound[rec["mode"]] + 1e-9:
            failures.append((rec["mode"], rec["n"], rec["run"], f"ratio {rec['ratio']:.3f}"))
    total = sum(rec["seconds"] for rec in planted_ladder_runs)
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
