"""CSV ingestion, JSON reporting, and the command-line entry point tying
the solvers, the oracle, and the generator together.

Subcommands: solve (radius ladder, any stream order), semi (radius ladder,
group-sorted stream), known (single fixed radius guess), oracle (exhaustive
optimum), gen (planted dataset to CSV), bench (solvers + baselines on one
dataset, emitted as JSON rows).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from typing import Iterable, Iterator, TextIO

from .core import CenterSet, FairnessSpec, Point, check_fairness, clustering_cost
from .ladder import Ladder, make_instance
from .oracle import SizeGuardError, brute_force_opt, generate_planted, gonzalez

SCHEMA_REPORT = "fairkcenter-report/1"
SCHEMA_BENCH = "fairkcenter-bench/1"
SCHEMA_ERROR = "fairkcenter-error/1"


class CsvFormatError(ValueError):
    """Malformed input row, annotated with its 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InfeasibleRun(RuntimeError):
    """The solver produced an infeasibility certificate instead of centers."""


class PointReader:
    """One-pass CSV reader yielding points in file order.

    Expects a header row; every column except the group column must be
    numeric. Group values may be arbitrary non-empty strings and map to 1..m
    by first appearance; the mapping is recorded in ``group_labels``. With
    ``require_group_sorted`` a point of an already-closed group raises.
    """

    def __init__(
        self,
        handle: TextIO,
        group_col: str = "group",
        max_groups: int | None = None,
        require_group_sorted: bool = False,
    ) -> None:
        # drop the byte-order mark of a "CSV UTF-8" export, also before a quoted first cell
        lines = iter(handle)
        first = [line.removeprefix("\ufeff") for line in itertools.islice(lines, 1)]
        self._reader = csv.reader(itertools.chain(first, lines))
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
                if not label:  # checked at first appearance only: a blank label never gets stored
                    raise CsvFormatError(self.line_no, f"empty group value in column {self._group_idx}")
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


def _spec(args: argparse.Namespace) -> FairnessSpec:
    """The caps, checked against ``--k``. An empty field is refused by its
    position, never skipped."""
    fields = str(args.caps).split(",")
    for pos, field in enumerate(fields, start=1):
        if not field.strip():
            raise ValueError(f"--caps {args.caps!r}: field {pos} of {len(fields)} is empty")
    spec = FairnessSpec(tuple(map(int, fields)))
    if args.k is not None and args.k != spec.k:
        raise ValueError(f"--k {args.k} does not match the cap sum {spec.k}")
    return spec


def _open_input(args: argparse.Namespace) -> TextIO:
    if args.input == "-":
        return sys.stdin
    return open(args.input, "r", encoding="utf-8", newline="")


def _read_all(args: argparse.Namespace, spec: FairnessSpec) -> tuple[list[Point], list[str]]:
    with _open_input(args) as handle:
        reader = PointReader(handle, args.group_col, max_groups=spec.m)
        return list(reader), list(reader.group_labels)


def _report(
    args: argparse.Namespace, spec: FairnessSpec, labels: list[str],
    head: dict, centers: CenterSet, counters: dict,
) -> dict:
    """The fields every solving subcommand reports, in this order: schema,
    ``head`` (mode and radius), caps, group labels, centers, ``counters`` and
    seed. Callers append the cost and the wall time."""
    return {
        "schema": SCHEMA_REPORT,
        **head,
        "k": spec.k,
        "caps": list(spec.caps),
        "group_labels": labels,
        "centers": [{"id": p.id, "coords": list(p.coords), "group": p.group} for p in centers],
        "per_group_counts": list(centers.per_group_counts(spec.m)),
        **counters,
        "seed": args.seed,
    }


def _finite_cost(points: Iterable[Point], centers: CenterSet) -> float:
    """The clustering cost; reports hold finite numbers, so an overflow is an error."""
    cost = clustering_cost(points, centers)
    if not math.isfinite(cost):
        raise OverflowError(f"the clustering cost overflowed the float range ({cost})")
    return cost


Streamed = tuple[dict, CenterSet, dict]  # a stream handler's report head, centers and counters


def _known(args: argparse.Namespace, spec: FairnessSpec, reader: PointReader) -> Streamed:
    """known: one solver instance at the fixed ``--radius``, fed until it overflows."""
    inst = make_instance(args.solver, args.radius, spec)
    processed = 0
    for processed, point in enumerate(reader, 1):
        inst.process(point)
        if inst.overflowed:
            break
    if processed == 0:
        raise ValueError("empty input: no data rows")
    outcome = inst.finalize()
    if not outcome.feasible:
        raise InfeasibleRun(outcome.reason.value)
    counters = {
        "points_processed": processed,
        "stored_points_peak": inst.stored_count,
        "distance_evaluations": inst.stats.distance_evals,
    }
    return {"mode": f"known-{args.solver}", "r_hat": args.radius}, outcome.centers, counters


def _ladder(args: argparse.Namespace, spec: FairnessSpec, reader: PointReader) -> Streamed:
    """solve and semi: a radius ladder over the whole input."""
    ladder = Ladder(spec, epsilon=args.epsilon, mode=args.solver)
    for point in reader:
        ladder.observe(point)
    result = ladder.finish()
    counters = {
        "points_processed": ladder.points_seen,
        "stored_points_peak": ladder.total_stored_peak,
        "distance_evaluations": ladder.total_distance_evals,
        "instances": dict(spawned=ladder.spawned_count, live=ladder.live_count, pruned=len(ladder.pruned)),
    }
    head = {"mode": args.solver, "r_hat": result.best_guess, "epsilon": args.epsilon}
    return head, result.centers, counters


def _run_stream(args: argparse.Namespace) -> dict:
    """solve, semi and known: one pass over the input by ``args.stream``, the report and the cost replay."""
    spec = _spec(args)
    started = time.perf_counter()
    with _open_input(args) as handle:
        reader = PointReader(
            handle, args.group_col, max_groups=spec.m, require_group_sorted=(args.solver == "semi")
        )
        head, centers, counters = args.stream(args, spec, reader)
    elapsed = time.perf_counter() - started
    report = _report(args, spec, reader.group_labels, head, centers, counters)
    # the cost takes a second pass, which standard input cannot give
    if args.input != "-" and not args.no_replay:
        with _open_input(args) as handle:
            reader = PointReader(handle, args.group_col, max_groups=spec.m)
            report["cost"] = _finite_cost(reader, centers)
    report["wall_time_s"] = elapsed
    return report


def _run_oracle(args: argparse.Namespace) -> dict:
    spec = _spec(args)
    started = time.perf_counter()
    points, labels = _read_all(args, spec)
    result = brute_force_opt(points, spec)
    elapsed = time.perf_counter() - started
    head = {"mode": "oracle", "r_opt": result.r_opt}
    report = _report(args, spec, labels, head, result.centers, {"subsets_evaluated": result.evaluated})
    report["wall_time_s"] = elapsed
    return report


def _run_gen(args: argparse.Namespace) -> dict:
    if args.out is None:
        raise ValueError("gen mode requires --out (the CSV path to write)")
    spec = _spec(args)
    planted = generate_planted(
        spec,
        args.n,
        args.radius,
        separation=args.separation,
        dim=args.dim,
        seed=args.seed,
    )
    names = ["x", "y", "z"][: args.dim] if args.dim <= 3 else [f"f{i}" for i in range(args.dim)]
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names + ["group"])
        for p in planted.points:
            writer.writerow([repr(c) for c in p.coords] + [p.group])
    return {
        "schema": SCHEMA_REPORT,
        "mode": "gen",
        "planted_r": planted.planted_r,
        "n": args.n,
        "dim": args.dim,
        "k": spec.k,
        "caps": list(spec.caps),
        "separation": args.separation,
        "planted_center_ids": list(planted.planted_centers.ids()),
        "seed": args.seed,
        "csv": args.out,
    }


def _run_bench(args: argparse.Namespace) -> list[dict]:
    """Solvers plus baselines on one dataset: one JSON row per algorithm with
    cost, runtime, and the cost ratio against the exhaustive optimum when the
    instance is small enough to enumerate."""
    spec = _spec(args)
    points, labels = _read_all(args, spec)
    if not points:
        raise ValueError("empty input file")
    group_sorted = all(points[i].group <= points[i + 1].group for i in range(len(points) - 1))
    r_opt: float | None = None
    rows: list[dict] = []

    try:
        started = time.perf_counter()
        oracle_result = brute_force_opt(points, spec)
        r_opt = oracle_result.r_opt
        rows.append(
            {
                "schema": SCHEMA_BENCH,
                "dataset": args.input,
                "algorithm": "oracle",
                "cost": r_opt,
                "ratio": 1.0 if r_opt > 0 else None,
                "runtime_s": time.perf_counter() - started,
            }
        )
    except SizeGuardError:
        pass

    def add_row(name: str, centers: CenterSet, runtime: float) -> None:
        cost = _finite_cost(points, centers)
        ratio = (cost / r_opt) if (r_opt is not None and r_opt > 0) else None
        rows.append(
            {
                "schema": SCHEMA_BENCH,
                "dataset": args.input,
                "algorithm": name,
                "cost": cost,
                "ratio": ratio,
                "runtime_s": runtime,
                "caps_respected": not check_fairness(centers, spec),
            }
        )

    # the group-sorted solver only runs on input it accepts
    for mode in ("general", "semi") if group_sorted else ("general",):
        started = time.perf_counter()
        ladder = Ladder(spec, epsilon=args.epsilon, mode=mode)
        for p in points:
            ladder.observe(p)
        result = ladder.finish()
        add_row(f"ladder-{mode}", result.centers, time.perf_counter() - started)

    started = time.perf_counter()
    baseline = gonzalez(points, spec.k)
    add_row("gonzalez", baseline, time.perf_counter() - started)
    for row in rows:
        row["group_labels"] = labels
    return rows


def run(args: argparse.Namespace) -> dict | list[dict]:
    """Run one parsed command line and return its JSON-ready payload."""
    return args.handler(args)


def _emit(payload: dict | list, out: str | None) -> None:
    # strict JSON: a NaN or infinity in a report is an error, never output
    text = json.dumps(payload, indent=2, allow_nan=False)
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _add_common(parser: argparse.ArgumentParser, handler, needs_input: bool = True, **defaults) -> None:
    """The flags every subcommand takes; ``handler`` and ``defaults`` are set
    on the parsed namespace for ``run``."""
    parser.set_defaults(handler=handler, **defaults)
    if needs_input:
        parser.add_argument("--input", "-i", required=True, help="input CSV path, or '-' for standard input")
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
    _add_common(p, _run_stream, stream=_ladder, solver="general")
    p.add_argument("--epsilon", type=float, default=0.1, help="grid ratio between adjacent radius guesses")
    p.add_argument("--no-replay", action="store_true", help="skip the second pass that measures the cost")

    p = sub.add_parser("semi", help="one-pass radius-ladder run over a group-sorted stream")
    _add_common(p, _run_stream, stream=_ladder, solver="semi")
    p.add_argument("--epsilon", type=float, default=0.1, help="grid ratio between adjacent radius guesses")
    p.add_argument("--no-replay", action="store_true", help="skip the second pass that measures the cost")

    p = sub.add_parser("known", help="single run at a fixed radius guess")
    _add_common(p, _run_stream, stream=_known)
    p.add_argument("--radius", type=float, required=True, help="the fixed radius guess")
    p.add_argument(
        "--semi", dest="solver", action="store_const", const="semi", default="general",
        help="use the group-sorted solver",
    )
    p.add_argument("--no-replay", action="store_true", help="skip the second pass that measures the cost")

    p = sub.add_parser("oracle", help="exhaustive optimum for small instances")
    _add_common(p, _run_oracle)

    p = sub.add_parser(
        "gen",
        help="write a planted dataset with a known optimal radius "
        "(--out names the CSV; the JSON report prints to stdout)",
    )
    _add_common(p, _run_gen, needs_input=False)
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--radius", type=float, required=True, help="planted optimal radius")
    p.add_argument("--dim", type=int, default=2, help="coordinate dimension")
    p.add_argument("--separation", type=float, default=4.0, help="anchor separation in planted radii (>= 4)")

    p = sub.add_parser("bench", help="solvers plus baselines on one dataset, as JSON rows")
    _add_common(p, _run_bench)
    p.add_argument("--epsilon", type=float, default=0.1, help="grid ratio between adjacent radius guesses")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # gen writes the dataset CSV to --out, so its JSON report goes to stdout
    report_target = None if args.mode == "gen" else args.out
    try:
        _emit(run(args), report_target)
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
