#!/usr/bin/env python3
"""Empirical cost-over-optimum sweep on planted datasets.

Runs the radius ladder in both stream modes over planted datasets whose
optimal radius is known by construction, and reports the realized cost
divided by that optimum per run, plus per-mode maxima. Constraint mixes
rotate across runs so every sweep covers a spread of per-group caps.

Usage::

    python scripts/ratio_sweep.py
    python scripts/ratio_sweep.py --sizes 2000,4000 --runs 5 --k 20 --out sweep.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fairkcenter import FairnessSpec, Ladder, check_fairness, clustering_cost, generate_planted


def sweep(sizes, runs_per_size, k, epsilon, dim, cap1_of, seed_of):
    """Yield one row per planted run and mode: the group-1 cap of run
    ``run_idx`` is ``cap1_of(run_idx)`` (group 2 gets the rest of ``k``), and
    the dataset of size ``n`` is drawn with seed ``seed_of(n, run_idx)``."""
    for n in sizes:
        for run_idx in range(runs_per_size):
            cap1 = cap1_of(run_idx)
            spec = FairnessSpec((cap1, k - cap1))
            planted = generate_planted(spec, n, 1.0, dim=dim, seed=seed_of(n, run_idx))
            for mode in ("general", "semi"):
                points = list(planted.points)
                if mode == "semi":
                    points.sort(key=lambda p: p.group)
                ladder = Ladder(spec, epsilon=epsilon, mode=mode)
                started = time.perf_counter()
                for p in points:
                    ladder.observe(p)
                result = ladder.finish()
                elapsed = time.perf_counter() - started
                cost = clustering_cost(planted.points, result.centers)
                yield {
                    "mode": mode,
                    "n": n,
                    "run": run_idx,
                    "caps": list(spec.caps),
                    "cost": cost,
                    "ratio": cost / planted.planted_r,
                    "chosen_guess": result.best_guess,
                    # a certified lower bound on the optimum; None when the
                    # stream sat at one location and spawned no grid
                    "lowest_guess": ladder.guesses[0] if ladder.guesses else None,
                    "live_guesses": ladder.live_count,
                    "pruned_guesses": len(ladder.pruned),
                    "caps_respected": not check_fairness(result.centers, spec),
                    "grid_bound": ladder.grid_bound,
                    "spawned": ladder.spawned_count,
                    "per_instance_peak": ladder.per_instance_stored_peak,
                    "total_stored_peak": ladder.total_stored_peak,
                    "distance_evals": ladder.total_distance_evals,
                    "evals_performed": ladder.stats.evals_performed,
                    "worst_update_excess": ladder.worst_update_excess,
                    "runtime_s": elapsed,
                }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="2000,4000,6000", help="comma-separated dataset sizes")
    parser.add_argument("--runs", type=int, default=10, help="runs per size")
    parser.add_argument("--k", type=int, default=50, help="total center budget")
    parser.add_argument("--epsilon", type=float, default=0.1, help="radius-grid step ratio")
    parser.add_argument("--dim", type=int, default=2, help="coordinate dimension")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--out", default=None, help="write the rows as JSON here")
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    k, runs = args.k, args.runs
    rows = []
    for row in sweep(
        sizes, runs, k, args.epsilon, args.dim,
        cap1_of=lambda run_idx: max(1, min(k - 1, (k * (run_idx + 1)) // (runs + 1))),
        seed_of=lambda n, run_idx: args.seed + 1000 * n + run_idx,
    ):
        rows.append(row)
        print(
            f"n={row['n']:5d} run={row['run']} caps={tuple(row['caps'])} {row['mode']:7s} "
            f"ratio={row['ratio']:.3f} guess={row['chosen_guess']:.3f} {row['runtime_s']:.2f}s"
        )
    for mode in ("general", "semi"):
        ratios = [r["ratio"] for r in rows if r["mode"] == mode]
        print(f"{mode}: max ratio {max(ratios):.3f}, mean {sum(ratios) / len(ratios):.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
