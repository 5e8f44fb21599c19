#!/usr/bin/env python3
"""Audit the streaming resource contracts on one planted run.

Prints, for each mode, the stored-point peaks against the per-instance cap,
the spawned-instance count against the geometric-grid bound, the logical
distance-evaluation count beside the evaluations actually made (scans that
reach a covering point stop there), and the worst per-point excess of the
logical count (nonpositive means every update stayed within one evaluation
per currently stored point).

Usage::

    python scripts/resource_audit.py --n 4000 --k 50
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fairkcenter import FairnessSpec, Ladder, clustering_cost, generate_planted


def audit(n, k, epsilon, seed):
    spec = FairnessSpec((k // 2, k - k // 2))
    planted = generate_planted(spec, n, 1.0, seed=seed)
    for mode in ("general", "semi"):
        points = list(planted.points)
        if mode == "semi":
            points.sort(key=lambda p: p.group)
        ladder = Ladder(spec, epsilon=epsilon, mode=mode)
        for p in points:
            ladder.observe(p)
        result = ladder.finish()
        cost = clustering_cost(planted.points, result.centers)
        per_instance_cap = (2 * k + 2) if mode == "general" else (3 * k + 2)
        print(f"== {mode} ==")
        print(f"  ratio                 {cost / planted.planted_r:.3f}")
        print(f"  per-instance peak     {ladder.per_instance_stored_peak:5d}  (cap {per_instance_cap})")
        print(f"  total stored peak     {ladder.total_stored_peak:5d}")
        print(f"  instances spawned     {ladder.spawned_count:5d}  (grid bound {ladder.grid_bound})")
        print(f"  instances live/pruned {ladder.live_count:5d} / {len(ladder.pruned)}")
        print(f"  distance evaluations  {ladder.total_distance_evals}")
        performed = ladder.total_evals_performed
        print(f"  evaluations performed {performed}  ({performed / ladder.total_distance_evals:.2f} of them)")
        print(f"  worst update excess   {ladder.worst_update_excess}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=4000)
    parser.add_argument("--k", type=int, default=50)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    audit(args.n, args.k, args.epsilon, args.seed)


if __name__ == "__main__":
    main()
