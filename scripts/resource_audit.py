#!/usr/bin/env python3
"""Audit the streaming resource contracts on one planted run.

Prints, for each mode, the cost over the planted radius (the ratio to the
optimum only when n >= 3k; below that the planted radius only bounds the
optimum from above, and a note says so), the ladder's lowest guess (a
certified lower bound on the optimal radius) with the cost over it (a
certified bound on the cost ratio), the stored-point peaks against the per-instance cap,
the spawned-instance count against the geometric-grid bound, the logical
distance-evaluation count beside the evaluations actually made (scans that
reach a covering point stop there), and the worst per-point excess of the
logical count (nonpositive means every update stayed within one evaluation
per currently stored point).

Usage::

    python scripts/resource_audit.py --n 4000 --k 50
"""

import argparse

from ratio_sweep import sweep  # this script's own directory leads sys.path


def audit(n, k, epsilon, seed):
    """One row per mode from ``ratio_sweep.sweep``: caps (k // 2, the rest)
    on one planted dataset of n points, drawn with ``seed``."""
    rows = sweep([n], 1, k, epsilon, 2, cap1_of=lambda _: k // 2, seed_of=lambda n, _: seed)
    for row in rows:
        mode, cost, lowest = row["mode"], row["cost"], row["lowest_guess"]
        per_instance_cap = (2 * k + 2) if mode == "general" else (3 * k + 2)
        print(f"== {mode} ==")
        print(f"  cost / planted radius {row['ratio']:.3f}")
        if n < 3 * k:  # some clusters lack their opposed pair at the planted radius
            print("    (n < 3k: the planted radius only bounds the optimum from above)")
        if lowest is not None:
            print(f"  lowest guess          {lowest:.6g}")
            print(f"  cost / lowest guess   {cost / lowest:.3f}")
        else:  # a stream at one location collapses to one center and spawns no grid
            print("  lowest guess          none (one location)")
            print("  cost / lowest guess   none (one location)")
        print(f"  per-instance peak     {row['per_instance_peak']:5d}  (cap {per_instance_cap})")
        print(f"  total stored peak     {row['total_stored_peak']:5d}")
        print(f"  instances spawned     {row['spawned']:5d}  (grid bound {row['grid_bound']})")
        print(f"  instances live/pruned {row['live_guesses']:5d} / {row['pruned_guesses']}")
        print(f"  distance evaluations  {row['distance_evals']}")
        performed, logical = row["evals_performed"], row["distance_evals"]
        share = f"{performed / logical:.2f}" if logical else "none"
        print(f"  evaluations performed {performed}  ({share} of them)")
        print(f"  worst update excess   {row['worst_update_excess']}")


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
