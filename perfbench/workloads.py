"""The benchmark's workloads: input generation, one solve, and its checks.

A planted workload streams CSV files written from ``generate_planted`` through
``cli.PointReader`` into a ``Ladder``, one ``observe`` call per point, then
calls ``finish`` and measures the result with ``clustering_cost``: the passes
``fairkcenter solve`` / ``semi`` make. Each run draws a pool of datasets from
its seed, because a single dataset's stored-point peak depends heavily on the
smallest gap among the first k+2 points.

The oracle-check workload verifies small random two-group instances of the
test suite's kind against the exhaustive optimum. Instance shapes follow a
fixed schedule (every n, dimension and cap pair the test suite can draw) and
only coordinates and groups come from the seed, so the work in one batch
barely depends on the seed.

Every operation is checked; a violated check or an exception counts as a
failed operation instead of ending the run.
"""

from __future__ import annotations

import csv
import importlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from speed import Chunks

MODULES = ("core", "independent", "solver", "semi", "ladder", "oracle", "cli")

# Tolerance of the cost checks, as in the acceptance tests.
COST_SLACK = 1e-9


@dataclass(frozen=True)
class PlantedWorkload:
    name: str
    mode: str  # "general" (shuffled stream) or "semi" (sorted by group, then by x0)
    n: int
    caps: tuple[int, int]
    dim: int
    epsilon: float
    pool: int  # distinct datasets drawn from the seed
    traced: int = 2  # the first datasets, each solved once under tracing in a traced run

    @property
    def k(self) -> int:
        return sum(self.caps)

    @property
    def cost_factor(self) -> float:
        return (5.0 if self.mode == "general" else 3.0) * (1.0 + self.epsilon)

    @property
    def stored_cap(self) -> int:
        return 2 * self.k + 2 if self.mode == "general" else 3 * self.k + 2


@dataclass(frozen=True)
class OracleWorkload:
    name: str
    max_n: int
    max_k: int
    copies: int  # instances per shape in one batch
    traced: int = 1  # batches run under tracing in a traced run

    def shapes(self) -> list[tuple[int, int, int, int]]:
        """(n, dim, cap1, cap2) over the test suite's support: n from 2,
        dimension 1 or 2, both caps at least 1 and their sum at most max_k."""
        return [
            (n, dim, cap1, cap2)
            for n in range(2, self.max_n + 1)
            for dim in (1, 2)
            for cap1 in range(1, self.max_k - 1)
            for cap2 in range(1, self.max_k - cap1 + 1)
        ]


WORKLOADS = {
    "planted-general": PlantedWorkload("planted-general", "general", 4000, (25, 25), 2, 0.1, pool=12),
    "planted-semi": PlantedWorkload("planted-semi", "semi", 4000, (25, 25), 2, 0.1, pool=12),
    "oracle-check": OracleWorkload("oracle-check", max_n=14, max_k=5, copies=2),
}

PLANTED_R = 1.0


def dataset_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def import_package(src: Path) -> SimpleNamespace:
    """Fresh import of the package from ``src``, so that every set-up pays
    the package's import time. numpy stays loaded."""
    for name in [m for m in sys.modules if m == "fairkcenter" or m.startswith("fairkcenter.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("fairkcenter")
    if Path(package.__file__).resolve().parent != (src / "fairkcenter").resolve():
        raise ImportError(f"fairkcenter was imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"fairkcenter.{m}") for m in MODULES})


# ----------------------------------------------------------------------
# planted workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlantedInput:
    path: Path
    planted_r: float


@dataclass
class SolveRecord:
    seconds: float
    points: int
    best_guess: float
    center_ids: tuple[int, ...]
    cost: float
    problems: list[str]
    total_stored_peak: int
    distance_evals: int
    spawned: int
    live: int
    pruned: int


def setup_planted(fk: SimpleNamespace, w: PlantedWorkload, seed: int, workdir: Path) -> tuple[list[PlantedInput], float]:
    """Write the run's datasets; returns them and the time spent in
    ``generate_planted``."""
    spec = fk.core.FairnessSpec(w.caps)
    names = [f"x{i}" for i in range(w.dim)] + ["group"]
    inputs = []
    generate_s = 0.0
    for j in range(w.pool):
        started = time.perf_counter()
        planted = fk.oracle.generate_planted(spec, w.n, PLANTED_R, dim=w.dim, seed=dataset_seed(seed, j))
        generate_s += time.perf_counter() - started
        points = list(planted.points)
        if w.mode == "semi":
            # a left-to-right sweep within each group: the stream keeps
            # outgrowing the top guess, so the ladder extends its grid
            points.sort(key=lambda p: (p.group, p.coords[0]))
        path = workdir / f"{w.name}-{j}.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(names)
            for p in points:
                writer.writerow([repr(c) for c in p.coords] + [p.group])
        inputs.append(PlantedInput(path, planted.planted_r))
    return inputs, generate_s


def solve_planted(fk: SimpleNamespace, w: PlantedWorkload, inp: PlantedInput, latencies, chunks: Chunks) -> SolveRecord:
    """One closed-loop solve; appends the latency of every ``observe`` call
    in nanoseconds to ``latencies`` and cuts the solve into ``chunks``, the
    last of which ends after the cost. The returned record carries the
    checks that failed, which cost nothing to evaluate and are left out of
    the solve's time."""
    spec = fk.core.FairnessSpec(w.caps)
    ladder = fk.ladder.Ladder(spec, epsilon=w.epsilon, mode=w.mode)
    points = []
    clock = time.perf_counter_ns
    with open(inp.path, encoding="utf-8", newline="") as handle:
        reader = fk.cli.PointReader(handle, "group", max_groups=2, require_group_sorted=(w.mode == "semi"))
        observe = ladder.observe
        for p in reader:
            t0 = clock()
            observe(p)
            t1 = clock()
            latencies.append(t1 - t0)
            points.append(p)
            chunks.tick(len(points), t1)
    result = ladder.finish()
    cost = fk.core.clustering_cost(points, result.centers)
    chunks.close(len(points), clock())

    problems = []
    if len(points) != w.n:
        problems.append(f"read {len(points)} points, expected {w.n}")
    if fk.core.check_fairness(result.centers, spec):
        problems.append(f"caps violated: {result.centers.per_group_counts(2)} > {w.caps}")
    if cost > w.cost_factor * inp.planted_r + COST_SLACK:
        problems.append(f"cost {cost} exceeds {w.cost_factor:.2f} x planted radius {inp.planted_r}")
    if ladder.per_instance_stored_peak > w.stored_cap:
        problems.append(f"per-instance stored peak {ladder.per_instance_stored_peak} > {w.stored_cap}")
    if ladder.worst_update_excess > 0:
        problems.append(f"update excess {ladder.worst_update_excess} > 0")
    if ladder.spawned_count > ladder.grid_bound:
        problems.append(f"spawned {ladder.spawned_count} rungs > grid bound {ladder.grid_bound}")
    return SolveRecord(
        chunks.seconds,
        len(points),
        result.best_guess,
        result.centers.ids(),
        cost,
        problems,
        ladder.total_stored_peak,
        ladder.total_distance_evals,
        ladder.spawned_count,
        ladder.live_count,
        len(ladder.pruned),
    )


# ----------------------------------------------------------------------
# oracle-check
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SmallInstance:
    points: list
    ordered: list  # the same points sorted by group, for the semi solver
    spec: object


@dataclass
class Verdict:
    """Outcome of verifying one small instance."""

    key: tuple  # r_opt and the center ids of the oracle and both solvers
    ratios: list[float]
    problems: list[str]


def setup_oracle(fk: SimpleNamespace, w: OracleWorkload, seed: int) -> list[SmallInstance]:
    """Integer-grid coordinates in [0, 20], so exact ties and duplicate
    points occur, as in the test suite's random instances."""
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(w.copies):
        for n, dim, cap1, cap2 in w.shapes():
            points = [
                fk.core.Point(i, tuple(float(c) for c in rng.integers(0, 21, size=dim)), int(rng.integers(1, 3)))
                for i in range(n)
            ]
            ordered = sorted(points, key=lambda p: p.group)
            pool.append(SmallInstance(points, ordered, fk.core.FairnessSpec((cap1, cap2))))
    return pool


def verify_instance(fk: SimpleNamespace, inst: SmallInstance) -> Verdict:
    """Exhaustive optimum, then both one-pass solvers at that radius, with the
    realized cost of each."""
    oracle = fk.oracle.brute_force_opt(inst.points, inst.spec)
    r_opt = oracle.r_opt
    general = fk.ladder.run_known(r_opt, inst.points, inst.spec, mode="general")
    semi = fk.ladder.run_known(r_opt, inst.ordered, inst.spec, mode="semi")
    key = [r_opt, oracle.centers.ids()]
    ratios = []
    problems = []
    for mode, outcome, factor in (("general", general, 5.0), ("semi", semi, 3.0)):
        if not outcome.feasible:
            problems.append(f"{mode}: infeasible at the oracle radius {r_opt}")
            key.append(None)
            continue
        key.append(outcome.centers.ids())
        cost = fk.core.clustering_cost(inst.points, outcome.centers)
        if fk.core.check_fairness(outcome.centers, inst.spec):
            problems.append(f"{mode}: caps violated")
        if cost > factor * r_opt + COST_SLACK:
            problems.append(f"{mode}: cost {cost} > {factor} x {r_opt}")
        if r_opt > 0:
            ratios.append(cost / r_opt)
    return Verdict(tuple(key), ratios, problems)


def stored_peak(fk: SimpleNamespace, inst: SmallInstance, r_opt: float) -> int:
    """The larger stored-point count of the two one-pass solvers at the
    oracle radius. Driven outside the timed batches, because ``run_known``
    does not expose its instance."""
    peak = 0
    for cls, points in ((fk.solver.StreamInstance, inst.points), (fk.semi.SemiInstance, inst.ordered)):
        solver = cls(r_opt, inst.spec)
        for p in points:
            solver.process(p)
            if solver.overflowed:
                break
        peak = max(peak, solver.stored_count)
    return peak
