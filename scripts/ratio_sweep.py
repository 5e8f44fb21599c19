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


def sweep(sizes, runs_per_size, k, epsilon, dim, base_seed):
    rows = []
    for n in sizes:
        for run_idx in range(runs_per_size):
            cap1 = max(1, min(k - 1, (k * (run_idx + 1)) // (runs_per_size + 1)))
            spec = FairnessSpec((cap1, k - cap1))
            planted = generate_planted(spec, n, 1.0, dim=dim, seed=base_seed + 1000 * n + run_idx)
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
                rows.append(
                    {
                        "mode": mode,
                        "n": n,
                        "run": run_idx,
                        "caps": list(spec.caps),
                        "ratio": cost / planted.planted_r,
                        "chosen_guess": result.best_guess,
                        "pruned_guesses": len(ladder.pruned),
                        "caps_respected": not check_fairness(result.centers, spec),
                        "runtime_s": elapsed,
                    }
                )
                print(
                    f"n={n:5d} run={run_idx} caps={spec.caps} {mode:7s} "
                    f"ratio={rows[-1]['ratio']:.3f} guess={result.best_guess:.3f} "
                    f"{elapsed:.2f}s"
                )
    return rows


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
    rows = sweep(sizes, args.runs, args.k, args.epsilon, args.dim, args.seed)
    for mode in ("general", "semi"):
        ratios = [r["ratio"] for r in rows if r["mode"] == mode]
        print(f"{mode}: max ratio {max(ratios):.3f}, mean {sum(ratios) / len(ratios):.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
