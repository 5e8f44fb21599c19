#!/usr/bin/env python3
"""Run the benchmark on two source trees in alternating pairs and collect
every result record into one ``BENCH_<parent-short-sha>.json``.

    python3 scripts/bench_pairs.py --parent /path/to/parent --change . \\
        --workload planted-semi --pairs 10 --seed 1

Each pair runs ``perfbench/run.py`` once in each tree, each tree with its own
copy of the harness; odd pairs run the parent first and even pairs the
change, so a drift of the host's speed does not favour one side. After each
run the record ``run.py`` wrote to ``.perfbench_out/result-*.json`` is
copied into the collection, which is rewritten after every pair, so an
interrupted session keeps the pairs it finished. A collection that already
exists for the same parent is extended, so several workloads and seeds go
into one file. ``medians`` holds, per (workload, seed, trace), each side's
median and quartiles of every end-to-end metric, each side's median
``attempted`` (the operations its runs made: ``peak_rss_mb`` grows with the
solves that fit in the window) and median ``host_speed`` (the record's
``raw.host_speed``: a pair whose sides read far apart ran in different
phases of the host's load), the number of pairs in
which the change read better (by ``better`` in the change tree's
``BENCHMARK.json``; ties count for neither side), each end-to-end metric's
relative change of medians, and ``past_bound``: the metrics whose change
is worse than their ``bound`` there. Each pair's line prints both sides'
``solve_s``, ``peak_rss_mb``, ``attempted`` and ``host_speed``; the names
in ``past_bound`` are printed after the last pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_side(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` in ``root``; its result record."""
    record_path = root / ".perfbench_out" / f"result-{workload}-trace{trace}.json"
    record_path.unlink(missing_ok=True)  # a record left by an earlier run is never read as this one's
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0 or not record_path.is_file():
        raise SystemExit(f"run.py failed in {root} (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(record_path.read_text())


def short_id(record: dict) -> str:
    """The tree's short git sha from its record, or its src digest when the
    tree is not a git checkout."""
    env = record["environment"]
    return env["git_sha"][:7] if env.get("git_sha") else "src-" + env["src_sha256"][:7]


def quartiles(values: list[float]) -> list[float]:
    """First and third quartile (the one value twice when there is one)."""
    if len(values) < 2:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def relative_change(parent: float, change: float) -> float | None:
    """(change - parent) / |parent|; None when the parent reads 0 and the change does not."""
    if parent == change:
        return 0.0
    return (change - parent) / abs(parent) if parent else None


def medians(pairs: list[dict], end_to_end: dict[str, dict]) -> list[dict]:
    """Per (workload, seed, trace): each side's median and quartiles of every
    metric and its median ``attempted`` and ``host_speed``, how many pairs
    the change won on each end-to-end metric, the relative change of its
    medians and the metrics past their bound."""
    groups: dict[tuple, list[dict]] = {}
    for pair in pairs:
        groups.setdefault((pair["workload"], pair["seed"], pair["trace"]), []).append(pair)
    summary = []
    for (workload, seed, trace), group in groups.items():
        names = list(group[0]["parent"]["metrics"])
        entry = {"workload": workload, "seed": seed, "trace": trace, "pairs": len(group)}
        for side in SIDES:
            values = {n: [p[side]["metrics"][n]["value"] for p in group] for n in names}
            entry[side] = {n: statistics.median(v) for n, v in values.items()}
            entry[f"{side}_quartiles"] = {n: quartiles(v) for n, v in values.items()}
        entry["attempted"] = {side: statistics.median(p[side]["attempted"] for p in group) for side in SIDES}
        entry["host_speed"] = {side: statistics.median(p[side]["raw"]["host_speed"] for p in group) for side in SIDES}
        wins, rel, past = {}, {}, []
        for n in names:
            if n in end_to_end:
                sign = -1.0 if end_to_end[n]["better"] == "lower" else 1.0
                wins[n] = sum(
                    sign * (p["change"]["metrics"][n]["value"] - p["parent"]["metrics"][n]["value"]) > 0 for p in group
                )
                rel[n] = relative_change(entry["parent"][n], entry["change"][n])
                worse = sign * (entry["change"][n] - entry["parent"][n]) < 0
                if worse and (rel[n] is None or abs(rel[n]) > end_to_end[n]["bound"]):
                    past.append(n)  # worse in the median by more than the bound, or from a parent at 0
        entry["change_better_pairs"] = wins
        entry["relative_change"] = rel
        entry["past_bound"] = past
        summary.append(entry)
    return summary


def pair_line(records: dict) -> str:
    """Both sides' ``solve_s``, ``peak_rss_mb``, ``attempted`` and
    ``host_speed``. A traced run measures no end-to-end metric, so its line
    has only the last two."""
    read = [
        (n, f, [records[side]["metrics"][n]["value"] for side in SIDES])
        for n, f in (("solve_s", ".4f"), ("peak_rss_mb", ".2f"))
        if all(n in records[side]["metrics"] for side in SIDES)
    ]
    read.append(("attempted", "d", [records[side]["attempted"] for side in SIDES]))
    read.append(("host_speed", ".2f", [records[side]["raw"]["host_speed"] for side in SIDES]))
    return ", ".join(f"{n} parent {p:{f}} change {c:{f}}" for n, f, (p, c) in read)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="where BENCH_<sha>.json goes")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    out = collection = None
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        records = {side: run_side(roots[side], args.workload, args.seed, args.seconds, args.trace) for side in order}
        if out is None:
            out = args.out_dir / f"BENCH_{short_id(records['parent'])}.json"
            collection = json.loads(out.read_text()) if out.is_file() else {"parent": short_id(records["parent"])}
            if collection["parent"] != short_id(records["parent"]):
                raise SystemExit(f"{out} collects the parent {collection['parent']}, not {short_id(records['parent'])}")
            collection["change"] = short_id(records["change"])
            collection["command"] = "python3 perfbench/run.py --workload W --seed S --seconds T --trace R, in each tree"
            collection.setdefault("pairs", [])
        key = (args.workload, args.seed, args.trace)
        done = sum((p["workload"], p["seed"], p["trace"]) == key for p in collection["pairs"])
        collection["pairs"].append(
            {"workload": args.workload, "seed": args.seed, "trace": args.trace, "pair": done + 1,
             "first": order[0], **records}
        )
        collection["medians"] = medians(collection["pairs"], end_to_end)
        out.write_text(json.dumps(collection, indent=1) + "\n")
        print(f"pair {done + 1}: {pair_line(records)}", flush=True)
    [entry] = [e for e in collection["medians"] if (e["workload"], e["seed"], e["trace"]) == key]
    print(f"past bound over {entry['pairs']} pairs: {', '.join(entry['past_bound']) or 'none'}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
