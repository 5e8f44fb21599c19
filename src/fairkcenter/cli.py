"""CSV ingestion, run configuration, JSON reporting, and the command-line
entry point tying the solvers, the oracle, and the generator together.

Subcommands: solve (radius ladder, any stream order), semi (radius ladder,
group-sorted stream), known (single fixed radius guess), oracle (exhaustive
optimum), gen (planted dataset to CSV), bench (solvers + baselines on one
dataset, emitted as JSON rows).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Iterator, TextIO

from .core import EUCLIDEAN, CenterSet, DistanceMetric, FairnessSpec, Point, check_fairness, clustering_cost
from .ladder import Ladder
from .oracle import SizeGuardError, brute_force_opt, generate_planted, gonzalez
from .semi import SemiInstance
from .solver import StreamInstance

SCHEMA_REPORT = "fairkcenter-report/1"
SCHEMA_BENCH = "fairkcenter-bench/1"
SCHEMA_ERROR = "fairkcenter-error/1"


class CsvFormatError(ValueError):
    """Malformed input row, annotated with its 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class RunConfig:
    mode: str
    input: str | None = None  # path or '-' for standard input
    metric: str = "euclidean"
    group_col: str = "group"
    caps: tuple[int, ...] = ()
    k: int | None = None
    radius: float | None = None
    epsilon: float = 0.1
    seed: int = 0
    out: str | None = None
    no_replay: bool = False
    semi_known: bool = False  # known mode: use the group-sorted solver
    # generator-only knobs
    n: int | None = None
    dim: int = 2
    separation: float = 4.0

    def spec(self) -> FairnessSpec:
        spec = FairnessSpec(self.caps)
        if self.k is not None and self.k != spec.k:
            raise ValueError(f"--k {self.k} does not match the cap sum {spec.k}")
        return spec

    def metric_obj(self) -> DistanceMetric:
        if self.metric != "euclidean":
            raise ValueError(f"unknown metric {self.metric!r}")
        return EUCLIDEAN


class PointReader:
    """One-pass CSV reader yielding points in file order.

    Expects a header row; every column except the group column must be
    numeric. Group values may be arbitrary strings and map to 1..m by first
    appearance; the mapping is recorded in ``group_labels``. With
    ``require_group_sorted`` a point of an already-closed group raises.
    """

    def __init__(
        self,
        handle: TextIO,
        group_col: str = "group",
        max_groups: int | None = None,
        require_group_sorted: bool = False,
    ) -> None:
        self._reader = csv.reader(handle)
        self.group_col = group_col
        self.max_groups = max_groups
        self.require_group_sorted = require_group_sorted
        self.group_labels: list[str] = []
        self.line_no = 1
        try:
            header = next(self._reader)
        except StopIteration:
            raise CsvFormatError(1, "empty input: a header row is required") from None
        names = [h.strip() for h in header]
        if group_col in names:
            self._group_idx = names.index(group_col)
        else:
            try:
                self._group_idx = int(group_col)
            except ValueError:
                raise CsvFormatError(1, f"no column named {group_col!r} in header {names}") from None
            if not 0 <= self._group_idx < len(names):
                raise CsvFormatError(1, f"group column index {self._group_idx} out of range")
        self.feature_names = [nm for i, nm in enumerate(names) if i != self._group_idx]
        if not self.feature_names:
            raise CsvFormatError(1, "no feature columns besides the group column")
        self._width = len(names)

    def __iter__(self) -> Iterator[Point]:
        next_id = 0
        for row in self._reader:
            self.line_no += 1
            if not row:
                continue
            if len(row) != self._width:
                raise CsvFormatError(self.line_no, f"expected {self._width} fields, found {len(row)}")
            label = row[self._group_idx].strip()
            if label in self.group_labels:
                group = self.group_labels.index(label) + 1
                if self.require_group_sorted and group != len(self.group_labels):
                    raise CsvFormatError(
                        self.line_no,
                        f"group-sorted input required: group {label!r} reappeared after group "
                        f"{self.group_labels[-1]!r} started",
                    )
            else:
                if self.max_groups is not None and len(self.group_labels) >= self.max_groups:
                    raise CsvFormatError(
                        self.line_no,
                        f"group value {label!r} would be group {len(self.group_labels) + 1} "
                        f"but only {self.max_groups} caps were configured",
                    )
                self.group_labels.append(label)
                group = len(self.group_labels)
            coords = []
            for i, cell in enumerate(row):
                if i == self._group_idx:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvFormatError(
                        self.line_no, f"non-numeric value {cell.strip()!r} in column {i}"
                    ) from None
                if not math.isfinite(value):
                    raise CsvFormatError(self.line_no, f"non-finite value {cell.strip()!r} in column {i}")
                coords.append(value)
            yield Point(next_id, tuple(coords), group)
            next_id += 1


def _open_input(config: RunConfig) -> TextIO:
    if config.input is None:
        raise ValueError("this mode requires --input")
    if config.input == "-":
        return sys.stdin
    return open(config.input, "r", encoding="utf-8", newline="")


def _replayable(config: RunConfig) -> bool:
    return config.input not in (None, "-") and not config.no_replay


def _centers_payload(centers: CenterSet) -> list[dict]:
    return [{"id": p.id, "coords": list(p.coords), "group": p.group} for p in centers]


def _replay_cost(config: RunConfig, centers: CenterSet, metric: DistanceMetric) -> float:
    with _open_input(config) as handle:
        reader = PointReader(handle, config.group_col, max_groups=len(config.caps))
        return clustering_cost(reader, centers, metric)


def _run_ladder(config: RunConfig, mode: str) -> dict:
    spec = config.spec()
    metric = config.metric_obj()
    ladder = Ladder(spec, metric, epsilon=config.epsilon, mode=mode)
    started = time.perf_counter()
    with _open_input(config) as handle:
        reader = PointReader(
            handle, config.group_col, max_groups=spec.m, require_group_sorted=(mode == "semi")
        )
        for point in reader:
            ladder.observe(point)
        labels = list(reader.group_labels)
    result = ladder.finish()
    elapsed = time.perf_counter() - started
    counts = result.centers.per_group_counts(spec.m)
    report = {
        "schema": SCHEMA_REPORT,
        "mode": mode,
        "r_hat": result.best_guess,
        "epsilon": config.epsilon,
        "k": spec.k,
        "caps": list(spec.caps),
        "group_labels": labels,
        "centers": _centers_payload(result.centers),
        "per_group_counts": list(counts),
        "points_processed": ladder.points_seen,
        "stored_points_peak": ladder.total_stored_peak,
        "distance_evaluations": ladder.total_distance_evals,
        "instances": {
            "spawned": ladder.spawned_count,
            "live": ladder.live_count,
            "pruned": len(ladder.pruned),
        },
        "seed": config.seed,
    }
    if _replayable(config):
        report["cost"] = _replay_cost(config, result.centers, metric)
    report["wall_time_s"] = elapsed
    return report


def _run_known(config: RunConfig) -> dict:
    if config.radius is None:
        raise ValueError("known mode requires --radius")
    spec = config.spec()
    metric = config.metric_obj()
    mode = "semi" if config.semi_known else "general"
    if mode == "semi":
        inst: StreamInstance | SemiInstance = SemiInstance(config.radius, spec, metric)
    else:
        inst = StreamInstance(config.radius, spec, metric)
    started = time.perf_counter()
    with _open_input(config) as handle:
        reader = PointReader(
            handle, config.group_col, max_groups=spec.m, require_group_sorted=(mode == "semi")
        )
        for point in reader:
            inst.process(point)
            if inst.overflowed:
                break
        labels = list(reader.group_labels)
    if inst.points_processed == 0:
        raise ValueError("empty input: no data rows")
    outcome = inst.finalize()
    elapsed = time.perf_counter() - started
    if not outcome.feasible:
        raise InfeasibleRun(outcome.reason.value)
    counts = outcome.centers.per_group_counts(spec.m)
    report = {
        "schema": SCHEMA_REPORT,
        "mode": f"known-{mode}",
        "r_hat": config.radius,
        "k": spec.k,
        "caps": list(spec.caps),
        "group_labels": labels,
        "centers": _centers_payload(outcome.centers),
        "per_group_counts": list(counts),
        "points_processed": inst.points_processed,
        "stored_points_peak": inst.stored_count,
        "distance_evaluations": inst.distance_evals,
        "seed": config.seed,
    }
    if _replayable(config):
        report["cost"] = _replay_cost(config, outcome.centers, metric)
    report["wall_time_s"] = elapsed
    return report


def _run_oracle(config: RunConfig) -> dict:
    spec = config.spec()
    metric = config.metric_obj()
    started = time.perf_counter()
    with _open_input(config) as handle:
        reader = PointReader(handle, config.group_col, max_groups=spec.m)
        points = list(reader)
        labels = list(reader.group_labels)
    result = brute_force_opt(points, spec, metric)
    elapsed = time.perf_counter() - started
    return {
        "schema": SCHEMA_REPORT,
        "mode": "oracle",
        "r_opt": result.r_opt,
        "k": spec.k,
        "caps": list(spec.caps),
        "group_labels": labels,
        "centers": _centers_payload(result.centers),
        "per_group_counts": list(result.centers.per_group_counts(spec.m)),
        "subsets_evaluated": result.evaluated,
        "seed": config.seed,
        "wall_time_s": elapsed,
    }


def _run_gen(config: RunConfig) -> dict:
    if config.n is None:
        raise ValueError("gen mode requires --n")
    if config.radius is None:
        raise ValueError("gen mode requires --radius (the planted optimal radius)")
    if config.out is None:
        raise ValueError("gen mode requires --out (the CSV path to write)")
    spec = config.spec()
    planted = generate_planted(
        spec,
        config.n,
        config.radius,
        separation=config.separation,
        dim=config.dim,
        seed=config.seed,
    )
    names = ["x", "y", "z"][: config.dim] if config.dim <= 3 else [f"f{i}" for i in range(config.dim)]
    with open(config.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names + ["group"])
        for p in planted.points:
            writer.writerow([repr(c) for c in p.coords] + [p.group])
    return {
        "schema": SCHEMA_REPORT,
        "mode": "gen",
        "planted_r": planted.planted_r,
        "n": config.n,
        "dim": config.dim,
        "k": spec.k,
        "caps": list(spec.caps),
        "separation": config.separation,
        "planted_center_ids": list(planted.planted_centers.ids()),
        "seed": config.seed,
        "csv": config.out,
    }


def _run_bench(config: RunConfig) -> list[dict]:
    """Solvers plus baselines on one dataset: one JSON row per algorithm with
    cost, runtime, and the cost ratio against the exhaustive optimum when the
    instance is small enough to enumerate."""
    spec = config.spec()
    metric = config.metric_obj()
    with _open_input(config) as handle:
        reader = PointReader(handle, config.group_col, max_groups=spec.m)
        points = list(reader)
        labels = list(reader.group_labels)
    if not points:
        raise ValueError("empty input file")
    group_sorted = all(points[i].group <= points[i + 1].group for i in range(len(points) - 1))
    r_opt: float | None = None
    rows: list[dict] = []

    try:
        started = time.perf_counter()
        oracle_result = brute_force_opt(points, spec, metric)
        r_opt = oracle_result.r_opt
        rows.append(
            {
                "schema": SCHEMA_BENCH,
                "dataset": config.input,
                "algorithm": "oracle",
                "cost": r_opt,
                "ratio": 1.0 if r_opt > 0 else None,
                "runtime_s": time.perf_counter() - started,
            }
        )
    except SizeGuardError:
        pass

    def add_row(name: str, centers: CenterSet, runtime: float, fair: bool) -> None:
        cost = clustering_cost(points, centers, metric)
        ratio = (cost / r_opt) if (r_opt is not None and r_opt > 0) else None
        rows.append(
            {
                "schema": SCHEMA_BENCH,
                "dataset": config.input,
                "algorithm": name,
                "cost": cost,
                "ratio": ratio,
                "runtime_s": runtime,
                "caps_respected": fair,
            }
        )

    started = time.perf_counter()
    ladder = Ladder(spec, metric, epsilon=config.epsilon, mode="general")
    for p in points:
        ladder.observe(p)
    result = ladder.finish()
    add_row("ladder-general", result.centers, time.perf_counter() - started,
            not check_fairness(result.centers, spec))

    if group_sorted:
        started = time.perf_counter()
        ladder = Ladder(spec, metric, epsilon=config.epsilon, mode="semi")
        for p in points:
            ladder.observe(p)
        result = ladder.finish()
        add_row("ladder-semi", result.centers, time.perf_counter() - started,
                not check_fairness(result.centers, spec))

    started = time.perf_counter()
    baseline = gonzalez(points, spec.k, metric)
    add_row("gonzalez", baseline, time.perf_counter() - started,
            not check_fairness(baseline, spec))
    for row in rows:
        row["group_labels"] = labels
    return rows


class InfeasibleRun(RuntimeError):
    """The solver produced an infeasibility certificate instead of centers."""


def run(config: RunConfig) -> dict | list[dict]:
    """Dispatch one configured run and return its JSON-ready payload."""
    if config.mode == "solve":
        return _run_ladder(config, "general")
    if config.mode == "semi":
        return _run_ladder(config, "semi")
    if config.mode == "known":
        return _run_known(config)
    if config.mode == "oracle":
        return _run_oracle(config)
    if config.mode == "gen":
        return _run_gen(config)
    if config.mode == "bench":
        return _run_bench(config)
    raise ValueError(f"unknown mode {config.mode!r}")


def _emit(payload: dict | list, out: str | None) -> None:
    # strict JSON: a NaN or infinity in a report is an error, never output
    text = json.dumps(payload, indent=2, allow_nan=False)
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _add_common(parser: argparse.ArgumentParser, needs_input: bool = True) -> None:
    if needs_input:
        parser.add_argument("--input", "-i", required=True, help="input CSV path, or '-' for standard input")
    parser.add_argument("--metric", default="euclidean", choices=["euclidean"], help="distance metric")
    parser.add_argument("--group-col", default="group", help="group column name or 0-based index")
    parser.add_argument("--caps", required=True, help="comma-separated per-group center caps, e.g. 2,3")
    parser.add_argument("--k", type=int, default=None, help="total center budget; must equal the cap sum")
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
    parser.add_argument("--out", "-o", default=None, help="write the JSON report here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairkcenter",
        description="Streaming k-center clustering under per-group center caps.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("solve", help="one-pass radius-ladder run, any stream order")
    _add_common(p)
    p.add_argument("--epsilon", type=float, default=0.1, help="grid ratio between adjacent radius guesses")
    p.add_argument("--no-replay", action="store_true", help="skip the second pass that measures the cost")

    p = sub.add_parser("semi", help="one-pass radius-ladder run over a group-sorted stream")
    _add_common(p)
    p.add_argument("--epsilon", type=float, default=0.1, help="grid ratio between adjacent radius guesses")
    p.add_argument("--no-replay", action="store_true", help="skip the second pass that measures the cost")

    p = sub.add_parser("known", help="single run at a fixed radius guess")
    _add_common(p)
    p.add_argument("--radius", type=float, required=True, help="the fixed radius guess")
    p.add_argument("--semi", action="store_true", help="use the group-sorted solver")
    p.add_argument("--no-replay", action="store_true", help="skip the second pass that measures the cost")

    p = sub.add_parser("oracle", help="exhaustive optimum for small instances")
    _add_common(p)

    p = sub.add_parser(
        "gen",
        help="write a planted dataset with a known optimal radius "
        "(--out names the CSV; the JSON report prints to stdout)",
    )
    _add_common(p, needs_input=False)
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--radius", type=float, required=True, help="planted optimal radius")
    p.add_argument("--dim", type=int, default=2, help="coordinate dimension")
    p.add_argument("--separation", type=float, default=4.0, help="anchor separation in planted radii (>= 4)")

    p = sub.add_parser("bench", help="solvers plus baselines on one dataset, as JSON rows")
    _add_common(p)
    p.add_argument("--epsilon", type=float, default=0.1, help="grid ratio between adjacent radius guesses")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    caps = tuple(int(c) for c in str(args.caps).split(",") if c.strip() != "")
    config = RunConfig(
        mode=args.mode,
        input=getattr(args, "input", None),
        metric=args.metric,
        group_col=args.group_col,
        caps=caps,
        k=args.k,
        radius=getattr(args, "radius", None),
        epsilon=getattr(args, "epsilon", 0.1),
        seed=args.seed,
        out=args.out,
        no_replay=getattr(args, "no_replay", False),
        semi_known=bool(getattr(args, "semi", False)),
        n=getattr(args, "n", None),
        dim=getattr(args, "dim", 2),
        separation=getattr(args, "separation", 4.0),
    )
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # gen writes the dataset CSV to --out, so its JSON report goes to stdout
    report_target = None if args.mode == "gen" else args.out
    try:
        _emit(run(_config_from_args(args)), report_target)
    except Exception as exc:  # every failure ends as a structured report, never a traceback
        error = {
            "schema": SCHEMA_ERROR,
            "error": {"kind": type(exc).__name__, "message": str(exc)},
        }
        try:
            _emit(error, report_target)
        except OSError:  # the report path itself is unwritable
            _emit(error, None)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
