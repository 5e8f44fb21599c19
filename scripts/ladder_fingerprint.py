#!/usr/bin/env python3
"""Print one JSON line per benchmark ladder solve, to check that a change
leaves every ladder result and counter as it was.

The inputs are the planted datasets of the benchmark's planted-general and
planted-semi workloads (``perfbench/workloads.py``, imported read-only),
written to a temporary directory and streamed through ``cli.PointReader``
as the benchmark streams them: the semi stream is sorted by group, then by
x0, and the reader renumbers the ids. Floats are printed as hex bits, so
equal output means bit-identical results. To compare two source trees::

    python3 scripts/ladder_fingerprint.py --root /path/to/other/tree > before.jsonl
    python3 scripts/ladder_fingerprint.py > after.jsonl
    cmp before.jsonl after.jsonl

``--root`` names the tree whose ``src`` and ``perfbench`` are used; it
defaults to the checkout holding this script. ``--results`` prints only the
result fields (workload, seed, dataset, ``best_guess``, cost and
``center_ids``), so a change that should keep every answer while moving
counters is checked by one ``cmp``.
"""

import argparse
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave the imported trees as they are


RESULT_FIELDS = ("workload", "seed", "dataset", "best_guess", "cost", "center_ids")


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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parents[1],
        help="source tree whose src and perfbench are used (default: this checkout)",
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2], help="benchmark seeds (default: 1 2)")
    parser.add_argument("--n", type=int, help="points per dataset (default: the workload's)")
    parser.add_argument("--pool", type=int, help="datasets per seed (default: the workload's)")
    parser.add_argument("--results", action="store_true", help="print only the result fields, not the counters")
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
                    line = fingerprint(fk, w, seed, index, inp.path)
                    if args.results:
                        line = {field: line[field] for field in RESULT_FIELDS}
                    print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
