#!/usr/bin/env python3
"""Print one JSON line per benchmark ladder solve and per oracle-check
instance, to check that a change leaves every result and counter as it was.

The ladder inputs are the planted datasets of the benchmark's
planted-general and planted-semi workloads (``perfbench/workloads.py``,
imported read-only), written to a temporary directory and streamed through
``cli.PointReader`` as the benchmark streams them: the semi stream is
sorted by group, then by x0, and the reader renumbers the ids. Then comes
one line per instance of the oracle-check pool (``workloads.setup_oracle``)
of each seed: the exhaustive optimum, and each one-pass solver fed at that
radius as ``ladder.run_known`` feeds it. Floats are printed as hex bits, so
equal output means bit-identical results. To compare two source trees::

    python3 scripts/ladder_fingerprint.py --root /path/to/other/tree > before.jsonl
    python3 scripts/ladder_fingerprint.py > after.jsonl
    cmp before.jsonl after.jsonl

``--root`` names the tree whose ``src`` and ``perfbench`` are used; it
defaults to the checkout holding this script. ``--results`` prints only the
result fields (workload, seed, dataset, ``best_guess``, cost and
``center_ids``; for an oracle-check instance, ``r_opt`` and the center ids
or infeasibility reason of the oracle and each solver), so a change that
should keep every answer while moving counters is checked by one ``cmp``.
``--inputs`` prints, in place of all that, one line per planted dataset:
the sha256 of the CSV file the benchmark streams, whose ``repr``
coordinates and group labels are the generated points exactly, so a change
to ``generate_planted`` that should keep every point is checked by one
``cmp`` too. ``--n`` and ``--pool`` size the planted datasets only.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave the imported trees as they are


RESULT_FIELDS = ("workload", "seed", "dataset", "best_guess", "cost", "center_ids")
ORACLE_RESULT_FIELDS = ("workload", "seed", "instance", "r_opt", "oracle_ids", "outcomes")


def fingerprint(fk, w, seed, index, path):
    """The ladder result and counters of one solve, as a JSON-ready dict."""
    spec = fk.core.FairnessSpec(w.caps)
    ladder = fk.ladder.Ladder(spec, epsilon=w.epsilon, mode=w.mode)
    points = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = fk.cli.PointReader(handle, "group", max_groups=2, require_group_sorted=(w.mode == "semi"))
        for p in reader:
            ladder.observe(p)
            points.append(p)
    result = ladder.finish()
    return {
        "workload": w.name,
        "seed": seed,
        "dataset": index,
        "best_guess": result.best_guess.hex(),
        "cost": fk.core.clustering_cost(points, result.centers).hex(),
        "center_ids": list(result.centers.ids()),
        "total_stored_peak": ladder.total_stored_peak,
        "total_distance_evals": ladder.total_distance_evals,
        "total_evals_performed": ladder.total_evals_performed,
        "worst_update_excess": ladder.worst_update_excess,
        "spawned_count": ladder.spawned_count,
        "per_instance_stored_peak": ladder.per_instance_stored_peak,
        "pruned": len(ladder.pruned),
        "live_count": ladder.live_count,
        "grid_bound": ladder.grid_bound,
    }


def oracle_fingerprint(fk, seed, index, inst):
    """The exhaustive optimum of one oracle-check instance and, per solver,
    its outcome and counters at that radius, as a JSON-ready dict."""
    oracle = fk.oracle.brute_force_opt(inst.points, inst.spec)
    outcomes, counters = {}, {}
    for mode, points in (("general", inst.points), ("semi", inst.ordered)):
        solver = fk.ladder.make_instance(mode, oracle.r_opt, inst.spec)
        for p in points:
            solver.process(p)
            if solver.overflowed:
                break
        outcome = solver.finalize()
        outcomes[mode] = list(outcome.centers.ids()) if outcome.feasible else outcome.reason.value
        counters[mode] = {
            "path": solver.path,
            "stored_count": solver.stored_count,
            "distance_evals": solver.stats.distance_evals,
            "evals_skipped": solver.stats.evals_skipped,
            "update_excess": solver.stats.update_excess,
        }
    return {
        "workload": "oracle-check",
        "seed": seed,
        "instance": index,
        "r_opt": oracle.r_opt.hex(),
        "oracle_ids": list(oracle.centers.ids()),
        "outcomes": outcomes,
        "counters": counters,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parents[1],
        help="source tree whose src and perfbench are used (default: this checkout)",
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2], help="benchmark seeds (default: 1 2)")
    parser.add_argument("--n", type=int, help="points per dataset (default: the workload's)")
    parser.add_argument("--pool", type=int, help="datasets per seed (default: the workload's)")
    only = parser.add_mutually_exclusive_group()
    only.add_argument("--results", action="store_true", help="print only the result fields, not the counters")
    only.add_argument("--inputs", action="store_true", help="print only each planted dataset's digest, and solve nothing")
    args = parser.parse_args()

    sys.path.insert(0, str(args.root / "perfbench"))
    import workloads

    fk = workloads.import_package(args.root / "src")
    for name in ("planted-general", "planted-semi"):
        w = workloads.WORKLOADS[name]
        sizes = {"n": args.n, "pool": args.pool}
        w = dataclasses.replace(w, **{k: v for k, v in sizes.items() if v is not None})
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                inputs, _ = workloads.setup_planted(fk, w, seed, Path(workdir))
                for index, inp in enumerate(inputs):
                    if args.inputs:
                        digest = hashlib.sha256(inp.path.read_bytes()).hexdigest()
                        line = {"workload": w.name, "seed": seed, "dataset": index, "sha256": digest}
                    else:
                        line = fingerprint(fk, w, seed, index, inp.path)
                    if args.results:
                        line = {field: line[field] for field in RESULT_FIELDS}
                    print(json.dumps(line), flush=True)
    if args.inputs:
        return
    for seed in args.seeds:
        for index, inst in enumerate(workloads.setup_oracle(fk, workloads.WORKLOADS["oracle-check"], seed)):
            line = oracle_fingerprint(fk, seed, index, inst)
            if args.results:
                line = {field: line[field] for field in ORACLE_RESULT_FIELDS}
            print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
