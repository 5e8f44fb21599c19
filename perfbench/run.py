#!/usr/bin/env python3
"""fairkcenter benchmark: one workload per call, closed loop, one thread.

    python3 perfbench/run.py --workload planted-general --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory. With ``--trace 0`` it prints the end-to-end metrics
(BENCHMARK.json ``end_to_end``); with ``--trace 1`` it traces some solves
from outside the package and prints the per-layer metrics
(``per_layer``), including the tracing overhead against untraced solves of
the same inputs. Both modes solve back to back until ``--seconds`` have
passed and every input of the run has been solved, then print an
environment record, one line per metric with its unit and sample count,
and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

An operation is one solve (planted workloads) or one small-instance
verification (oracle-check); ``failed`` counts operations whose output
failed a check or raised, and ``failed_frac`` is printed with them. Details,
the environment record and the failure messages also go to
``.perfbench_out/`` in the checkout, and a traced run writes its spans there.

End-to-end metrics; on oracle-check a "solve" is one batch verifying the
whole instance pool, an "update" is one instance and the pool is the one
dataset:

* setup_s: median time of one set-up (fresh import of the package, input
  generation, CSV writing), set up at least three times per run.
* solve_s: time of one solve. The run's datasets are solved in turn, each
  at least once and again while time remains; a dataset's solve time is
  the median over its solves, and solve_s is its mean over the datasets,
  which evens out how much work a seed's data makes. points_per_s and
  instances_per_s are points streamed and instances verified per solve_s.
* update_us_p50, update_us_p99: median and 99th percentile of the latency
  of one ``Ladder.observe`` call, timed one call at a time, pooled over
  every untraced solve of the run.
* cost_ratio: median across the run's datasets of the realized cost over
  the planted radius; on oracle-check the mean of cost over r_opt, both
  modes. Every solve is also checked against the paper's bound.
* stored_points_peak: median of ``Ladder.total_stored_peak`` across the
  run's datasets; on oracle-check the mean per instance of the larger
  stored-point count of the two solvers at r_opt.
* peak_rss_mb: the process's peak resident memory.

Every workload prints every metric. On the planted workloads
instances_per_s is the datasets solved per second of solve_s.

The times of these metrics are scaled to the host's full speed, read from a
reference kernel timed between chunks of the work (see ``speed.py``), because
other tenants of the host slow this process by up to about 1.9x for whole
runs at a time. The raw times are printed next to them, and the
``host_speed`` of the run (the median over chunks of the reference's
full-speed time over its time) goes into the result record. The traced run
compares raw times, traced against untraced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from speed import REF_NS, Chunks, reference_median
from tracing import ID, LAYERS, NAMES, Tracer
from workloads import (
    WORKLOADS,
    OracleWorkload,
    PlantedWorkload,
    import_package,
    setup_oracle,
    setup_planted,
    solve_planted,
    stored_peak,
    verify_instance,
)

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SEED = 1
# setup_s is the median of at least SETUPS set-ups, repeated until they add
# up to SETUP_MIN_S, so that a cheap set-up is sampled often enough
SETUPS = 3
SETUP_MIN_S = 1.0
HARD_LIMIT_S = 120.0  # stop solving past this, whatever --seconds says
MAX_MESSAGES = 20


class NoResult(RuntimeError):
    """Not one operation of the run completed, so there is nothing to time."""


class Run:
    """Counts and samples gathered by one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.setup_s: list[float] = []  # raw
        self.setup_scaled_s: list[float] = []
        self.generate_s: list[float] = []
        self.solve_s: list[float] = []  # raw, untraced solves (batches on oracle-check)
        self.traced_s: list[float] = []  # raw
        # dataset -> (raw, scaled) seconds of each of its untraced solves
        self.repeats: dict[int, list[tuple[float, float]]] = {}
        self.updates: list[np.ndarray] = []  # scaled update latencies in ns, per untraced solve
        self.factors: list[np.ndarray] = []  # speed factors of every chunk
        self.metrics: dict[str, tuple[float, str, int | None]] = {}

    def record(self, ok: bool, what: str, problems) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(f"{what}: {'; '.join(problems)}")

    def add_setup(self, seconds: float, ref_ns: float) -> None:
        self.setup_s.append(seconds)
        self.setup_scaled_s.append(seconds * REF_NS / ref_ns)

    def add_solve(self, dataset: int, latencies: array, chunks: Chunks) -> None:
        """Book an untraced solve of ``dataset`` with its update latencies."""
        self.solve_s.append(chunks.seconds)
        self.repeats.setdefault(dataset, []).append((chunks.seconds, chunks.scaled_seconds()))
        self.updates.append(chunks.scale(latencies))
        self.factors.append(chunks.factors())

    def solve_time(self, scaled: bool) -> float:
        """Mean over the datasets of the median time of their solves."""
        return statistics.fmean(statistics.median(t[scaled] for t in solves) for solves in self.repeats.values())

    def put(self, name: str, value: float, unit: str, samples: int | None = None) -> None:
        self.metrics[name] = (float(value), unit, samples)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _setting_up(run: Run) -> bool:
    return len(run.setup_s) < SETUPS or sum(run.setup_s) < SETUP_MIN_S


def _elapsed_past(started: float, seconds: float, done: bool) -> bool:
    elapsed = time.perf_counter() - started
    return (done and elapsed >= seconds) or elapsed >= HARD_LIMIT_S


# ----------------------------------------------------------------------
# planted workloads
# ----------------------------------------------------------------------
def run_planted(w: PlantedWorkload, seed: int, seconds: float, trace: bool, src: Path, workdir: Path, tracer: Tracer | None, run: Run):
    while _setting_up(run):
        before = reference_median()
        started = time.perf_counter()
        fk = import_package(src)
        inputs, generate_s = setup_planted(fk, w, seed, workdir)
        run.add_setup(time.perf_counter() - started, (before + reference_median()) / 2)
        run.generate_s.append(generate_s)

    first = {}  # dataset index -> its first untraced solve
    traced = []

    def solve(j: int, latencies, chunks):
        what = f"{w.name} dataset {j}"
        try:
            rec = solve_planted(fk, w, inputs[j], latencies, chunks)
        except Exception as exc:  # a broken solve is a failed operation, not the end of the run
            run.record(False, what, [f"{type(exc).__name__}: {exc}"])
            return None
        problems = list(rec.problems)
        earlier = first.setdefault(j, rec)
        if (rec.best_guess, rec.center_ids) != (earlier.best_guess, earlier.center_ids):
            problems.append(f"repeat gave r_hat {rec.best_guess}, first solve gave {earlier.best_guess}")
        run.record(not problems, what, problems)
        return rec

    # the datasets in turn, so that a slow phase of the host falls on all of
    # them alike; a traced run solves only the traced ones, so that its
    # untraced solves read the same inputs as the traced ones
    cycle = w.traced if trace else w.pool
    started = time.perf_counter()
    i = 0
    while True:
        j = i % cycle
        latencies, chunks = array("q"), Chunks()
        if solve(j, latencies, chunks) is not None:
            run.add_solve(j, latencies, chunks)
        if trace and i < w.traced:
            with tracer.installed(fk), tracer.solve_span(i):
                rec = solve(j, array("q"), Chunks(probe=False))
            if rec is not None:
                run.traced_s.append(rec.seconds)
                traced.append(rec)
        i += 1
        if _elapsed_past(started, seconds, done=i >= cycle):
            break

    if trace:
        layer_metrics(run, tracer, len(traced), traced)
        return
    rounds = [(first[j], inputs[j]) for j in sorted(first)]
    end_to_end_metrics(run, points_per_solve=w.n)
    # the median, not the worst: a few datasets in a hundred end near 4.5 instead of 2.0;
    # the median, not the mean, of the peaks: a few datasets spawn twice the usual rungs
    run.put("cost_ratio", statistics.median(rec.cost / inp.planted_r for rec, inp in rounds), "ratio", len(rounds))
    run.put("stored_points_peak", statistics.median(rec.total_stored_peak for rec, _ in rounds), "count", len(rounds))


# ----------------------------------------------------------------------
# oracle-check
# ----------------------------------------------------------------------
def run_oracle(w: OracleWorkload, seed: int, seconds: float, trace: bool, src: Path, tracer: Tracer | None, run: Run):
    while _setting_up(run):
        before = reference_median()
        started = time.perf_counter()
        fk = import_package(src)
        pool = setup_oracle(fk, w, seed)
        run.add_setup(time.perf_counter() - started, (before + reference_median()) / 2)
    run.generate_s.append(0.0)  # the small instances do not come from generate_planted
    first = []

    def batch(number: int, latencies, chunks: Chunks) -> None:
        clock = time.perf_counter_ns
        verdicts = []
        for idx, inst in enumerate(pool):
            t0 = clock()
            try:
                verdict = verify_instance(fk, inst)
            except Exception as exc:  # counted as a failed verification
                verdict = None
                problems = [f"{type(exc).__name__}: {exc}"]
            t1 = clock()
            latencies.append(t1 - t0)
            if verdict is not None:
                problems = verdict.problems
                if first and (first[idx] is None or verdict.key != first[idx].key):
                    problems = problems + ["repeat gave a different optimum or different centers"]
            verdicts.append(verdict)
            run.record(not problems, f"batch {number} instance {idx}", problems)
            chunks.tick(idx + 1, t1)
        chunks.close(len(pool), clock())
        if not first:
            first.extend(verdicts)

    started = time.perf_counter()
    i = 0
    while True:
        latencies, chunks = array("q"), Chunks()
        batch(i, latencies, chunks)
        run.add_solve(0, latencies, chunks)
        if trace and i < w.traced:
            chunks = Chunks(probe=False)
            with tracer.installed(fk), tracer.solve_span(i):
                batch(i, array("q"), chunks)
            run.traced_s.append(chunks.seconds)
        i += 1
        if _elapsed_past(started, seconds, done=i >= 2):
            break

    if trace:
        # the ladder does not run on this workload
        layer_metrics(run, tracer, len(run.traced_s), [])
        return
    points = 2 * sum(len(inst.points) for inst in pool)
    end_to_end_metrics(run, points_per_solve=points, instances_per_solve=len(pool))
    ratios = [r for verdict in first if verdict is not None for r in verdict.ratios]
    peaks = [stored_peak(fk, inst, verdict.key[0]) for inst, verdict in zip(pool, first) if verdict is not None]
    if not ratios or not peaks:
        raise NoResult(run.messages)
    run.put("cost_ratio", statistics.fmean(ratios), "ratio", len(ratios))
    # the mean over instances: the largest one sits at a handful of points
    run.put("stored_points_peak", statistics.fmean(peaks), "count", len(peaks))


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(run: Run, points_per_solve: int, instances_per_solve: int = 1) -> None:
    if not run.repeats:
        raise NoResult(run.messages)
    solve = run.solve_time(scaled=True)
    samples = len(run.solve_s)
    updates = np.concatenate(run.updates) / 1e3
    run.put("setup_s", statistics.median(run.setup_scaled_s), "s", len(run.setup_s))
    run.put("solve_s", solve, "s", samples)
    run.put("points_per_s", points_per_solve / solve, "1/s", samples)
    run.put("update_us_p50", np.median(updates), "us", updates.size)
    run.put("update_us_p99", np.percentile(updates, 99), "us", updates.size)
    run.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    run.put("instances_per_s", instances_per_solve / solve, "1/s", samples)


def layer_metrics(run: Run, tracer: Tracer, solves: int, ladder_runs: list) -> None:
    """Per-layer metrics from the spans and counts of ``solves`` traced
    solves, and from the ladders' own counters in ``ladder_runs`` (empty when
    the ladder does not run). Totals are divided by ``solves`` where they are
    per-solve figures."""
    if not run.solve_s or not solves:
        raise NoResult(run.messages)
    calls, inclusive, self_ns = tracer.totals()
    counts = tracer.counts

    def n(name):
        return calls[ID[name]] / solves

    def incl(name):
        return inclusive[ID[name]] / 1e9 / solves

    def own(name):
        return self_ns[ID[name]] / 1e9 / solves

    offers = calls[ID["independent.offer"]]
    run.put("independent.offer_calls", n("independent.offer"), "count", solves)
    run.put("independent.offer_s", incl("independent.offer"), "s", solves)
    run.put("independent.us_per_offer", _ratio(inclusive[ID["independent.offer"]] / 1e3, offers), "us", int(offers))
    run.put("independent.added_frac", _ratio(counts["independent.added"], offers), "frac", int(offers))
    run.put("independent.nearest_calls", n("independent.nearest"), "count", solves)
    run.put("independent.nearest_s", incl("independent.nearest"), "s", solves)
    run.put("independent.min_dist_s", incl("independent.min_dist"), "s", solves)

    for layer in ("solver", "semi"):
        run.put(f"{layer}.process_calls", n(f"{layer}.process"), "count", solves)
        run.put(f"{layer}.process_self_s", own(f"{layer}.process"), "s", solves)
        run.put(f"{layer}.finalize_s", incl(f"{layer}.finalize"), "s", solves)
    finalized = calls[ID["solver.finalize"]]
    run.put("solver.finalize_feasible_frac", _ratio(counts["solver.feasible"], finalized), "frac", int(finalized))
    run.put("solver.cross_graph_s", incl("solver.cross_graph"), "s", solves)
    run.put("solver.cover_s", incl("solver.cover"), "s", solves)
    run.put("solver.one_over_s", incl("solver.one_over"), "s", solves)
    for path in ("union", "one-over", "both-over", "overflow"):
        run.put(f"solver.path.{path}", counts[f"solver.path.{path}"] / solves, "count", solves)
    for path in ("union", "swap"):
        run.put(f"semi.path.{path}", counts[f"semi.path.{path}"] / solves, "count", solves)
    run.put("semi.standins", counts["semi.standins"] / solves, "count", solves)

    cost_ns = inclusive[ID["core.cost"]]
    run.put("core.cost_s", incl("core.cost"), "s", solves)
    run.put("core.cost_pairs_per_s", _ratio(counts["core.cost_pairs"], cost_ns / 1e9), "1/s", solves)
    read_ns = inclusive[ID["cli.read"]]
    run.put("cli.read_s", incl("cli.read"), "s", solves)
    run.put("cli.read_rows_per_s", _ratio(counts["cli.read.items"], read_ns / 1e9), "1/s", solves)
    brute_ns = inclusive[ID["oracle.brute_force"]]
    run.put("oracle.brute_force_s", incl("oracle.brute_force"), "s", solves)
    run.put("oracle.subsets", counts["oracle.subsets"] / solves, "count", solves)
    run.put("oracle.subsets_per_s", _ratio(counts["oracle.subsets"], brute_ns / 1e9), "1/s", solves)
    run.put("oracle.run_known_s", incl("oracle.run_known"), "s", solves)
    run.put("oracle.generate_s", statistics.median(run.generate_s), "s", len(run.generate_s))

    for layer in LAYERS:
        layer_self = sum(self_ns[i] for i, name in enumerate(NAMES) if name.startswith(layer + "."))
        run.put(f"{layer}.self_s", layer_self / 1e9 / solves, "s", solves)
    run.put("trace.unattributed_s", own("solve"), "s", solves)
    run.put("trace.overhead_frac", statistics.median(run.traced_s) / statistics.median(run.solve_s) - 1.0, "frac", len(run.traced_s))

    observe = calls[ID["ladder.observe"]]
    evals = sum(rec.distance_evals for rec in ladder_runs)
    points = sum(rec.points for rec in ladder_runs)
    spawned = sum(rec.spawned for rec in ladder_runs)
    run.put("ladder.observe_self_s", own("ladder.observe"), "s", solves)
    run.put("ladder.bootstrap_s", counts["ladder.bootstrap_ns"] / 1e9 / solves, "s", solves)
    run.put("ladder.rungs_live_mean", _ratio(counts["ladder.live_sum"], observe), "count", int(observe))
    run.put("ladder.distance_evals", evals / solves, "count", solves)
    run.put("ladder.evals_per_point", _ratio(evals, points), "count", solves)
    run.put("ladder.ns_per_eval", _ratio(inclusive[ID["ladder.observe"]], evals), "ns", solves)
    run.put("ladder.extend_calls", counts["ladder.extend_calls"] / solves, "count", solves)
    run.put("ladder.extend_s", counts["ladder.extend_ns"] / 1e9 / solves, "s", solves)
    run.put("ladder.rungs_spawned", spawned / solves, "count", solves)
    run.put("ladder.rungs_pruned", sum(rec.pruned for rec in ladder_runs) / solves, "count", solves)
    run.put("ladder.rung_survival", _ratio(sum(rec.live for rec in ladder_runs), spawned), "frac", solves)
    run.put("ladder.finish_s", incl("ladder.finish"), "s", solves)


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------
def environment(root: Path) -> dict:
    def git_sha():
        if not (root / ".git").exists():
            return None  # an exported tree; src_sha256 identifies the code
        try:
            out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_benchmark(w, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload; returns the result line's object, plus the
    environment record and the sample counts under their own keys."""
    env = environment(ROOT)
    src = ROOT / "src"
    workdir = out_dir / "inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    run = Run()
    if isinstance(w, OracleWorkload):
        run_oracle(w, seed, seconds, trace, src, tracer, run)
    else:
        run_planted(w, seed, seconds, trace, src, workdir, tracer, run)
    if tracer is not None:
        tracer.write(out_dir / f"spans-{w.name}.npz")
    raw = {
        "setup_s": statistics.median(run.setup_s),
        "solve_s": run.solve_time(scaled=False),
        "host_speed": float(np.median(np.concatenate(run.factors))),
    }
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in run.metrics.items()},
        "samples": {k: s for k, (_, _, s) in run.metrics.items() if s is not None},
        "failed_frac": run.failed / run.attempted,
        "messages": run.messages,
        "raw": raw,
        "environment": env,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fairkcenter benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fairkcenter" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    try:
        result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out_dir)
    except NoResult as exc:
        print(f"error: no operation completed: {exc}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **result}
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("# environment " + json.dumps(result["environment"]))
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {result['attempted']} attempted, "
          f"{result['failed']} failed, failed_frac {result['failed_frac']:.6g}")
    for message in result["messages"]:
        print(f"# failed: {message}")
    print("# unscaled " + ", ".join(f"{k} {v:.6g}" for k, v in result["raw"].items()))
    for name, metric in result["metrics"].items():
        samples = result["samples"].get(name)
        suffix = f"  (samples {samples})" if samples is not None else ""
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}{suffix}")
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
