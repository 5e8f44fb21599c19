"""Ground truth and baselines: exhaustive optimum for small instances, a
farthest-first traversal baseline, candidate radius enumeration, and a
planted-dataset generator whose optimal radius is known by construction."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import EUCLIDEAN, CenterSet, Dataset, DistanceMetric, FairnessSpec, Point


class SizeGuardError(ValueError):
    """Instance too large for exhaustive enumeration."""


class GenerationError(RuntimeError):
    """Planted-center placement ran out of attempts."""


@dataclass(frozen=True)
class OracleResult:
    r_opt: float
    centers: CenterSet
    evaluated: int


# Subsets scored per numpy pass. At the n=16, k=5 guard one block peaks
# near 0.25 MB of transients (traced with tracemalloc): the index rows plus
# two (rows, n) float64 radius arrays.
_BLOCK_ROWS = 1024


def brute_force_opt(
    points: Iterable[Point] | Dataset,
    spec: FairnessSpec,
    metric: DistanceMetric = EUCLIDEAN,
    max_n: int = 16,
    max_k: int = 5,
) -> OracleResult:
    """Exhaustive optimal solution under the caps.

    Enumerates every cap-feasible subset of at most k points, by increasing
    size then lexicographic ids, and keeps the first subset attaining the
    minimum cost. Each size is enumerated in blocks of at most
    ``_BLOCK_ROWS`` subsets: a block becomes one index array, rows breaking
    a cap are dropped using per-group member counts, and the kept rows are
    scored together by a running minimum over the size's distance rows,
    then one max per row. A block never materializes more than a few
    (rows, n) arrays, so memory stays bounded whatever the subset count.
    The tie-break is that of a plain loop: within a size the first minimum
    in lexicographic order wins, and a later block or a larger size must be
    strictly cheaper to replace it. A NaN or infinite cost never wins; if
    subsets were scored but every one scores such a cost, the error says so
    rather than calling the instance infeasible. The distance matrix calls
    ``metric`` once per pair i <= j and mirrors it, relying on the metric's
    symmetry. Guarded to small instances; raise the
    guards explicitly to go bigger.
    """
    pts = list(points)
    n = len(pts)
    if n == 0:
        raise ValueError("empty dataset")
    if n > max_n:
        raise SizeGuardError(f"n={n} exceeds the exhaustive-search guard ({max_n})")
    if spec.k > max_k:
        raise SizeGuardError(f"k={spec.k} exceeds the exhaustive-search guard ({max_k})")
    dists = np.empty((n, n))
    for i, p in enumerate(pts):
        for j in range(i, n):
            dists[i, j] = dists[j, i] = metric(p, pts[j])
    for p in pts:
        if p.group > spec.m:
            raise ValueError(f"point {p.id} has group {p.group} but only {spec.m} caps were given")
    groups = np.array([p.group - 1 for p in pts])
    best_cost = math.inf
    best_combo: tuple[int, ...] | None = None
    evaluated = 0
    for size in range(1, min(spec.k, n) + 1):
        tight = [(g, cap) for g, cap in enumerate(spec.caps) if cap < size]
        combos = itertools.combinations(range(n), size)
        while True:
            block = itertools.chain.from_iterable(itertools.islice(combos, _BLOCK_ROWS))
            rows = np.fromiter(block, dtype=np.intp).reshape(-1, size)
            if not len(rows):
                break
            if tight:
                members = groups[rows]
                feasible = np.ones(len(rows), dtype=bool)
                for g, cap in tight:
                    feasible &= np.count_nonzero(members == g, axis=1) <= cap
                rows = rows[feasible]
                if not len(rows):
                    continue
            evaluated += len(rows)
            # dists is symmetric, so row c holds every point's distance to c
            radius = dists[rows[:, 0]]
            for col in range(1, size):
                np.minimum(radius, dists[rows[:, col]], out=radius)
            costs = radius.max(axis=1)
            costs[np.isnan(costs)] = math.inf
            at = int(costs.argmin())
            if costs[at] < best_cost:
                best_cost = float(costs[at])
                best_combo = tuple(int(i) for i in rows[at])
    if best_combo is None:
        if evaluated:
            raise ValueError(
                "every cap-feasible center set has a non-finite cost "
                "(the distances overflow the float range or are NaN)"
            )
        raise ValueError("no cap-feasible center set exists for this dataset")
    witness = CenterSet(tuple(pts[i] for i in best_combo))
    return OracleResult(best_cost, witness, evaluated)


def candidate_radii(points: Iterable[Point], metric: DistanceMetric = EUCLIDEAN) -> list[float]:
    """Distinct pairwise distances and their halves, sorted ascending.
    A single point has no pairs and yields the zero sentinel."""
    pts = list(points)
    values: set[float] = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = metric(pts[i], pts[j])
            values.add(d)
            values.add(d / 2.0)
    if not values:
        return [0.0]
    return sorted(values)


def gonzalez(points: Sequence[Point], k: int, metric: DistanceMetric = EUCLIDEAN) -> CenterSet:
    """Farthest-first traversal from the first point, ignoring group caps.
    Stops early once every remaining point coincides with a center."""
    if k < 1:
        raise ValueError("k must be at least 1")
    pts = list(points)
    if not pts:
        raise ValueError("empty dataset")
    centers = [pts[0]]
    nearest = [metric(p, centers[0]) for p in pts]
    while len(centers) < k:
        far_idx = 0
        for i in range(1, len(pts)):
            if nearest[i] > nearest[far_idx]:  # strict: ties keep the earliest point
                far_idx = i
        if nearest[far_idx] == 0.0:
            break
        centers.append(pts[far_idx])
        for i in range(len(pts)):
            d = metric(pts[i], centers[-1])
            if d < nearest[i]:
                nearest[i] = d
    return CenterSet(tuple(centers))


@dataclass(frozen=True)
class PlantedDataset:
    points: Dataset
    planted_r: float
    planted_centers: CenterSet
    seed: int


def generate_planted(
    spec: FairnessSpec,
    n: int,
    planted_r: float,
    separation: float = 4.0,
    dim: int = 2,
    seed: int = 0,
    shuffle: bool = True,
    max_attempts: int | None = None,
) -> PlantedDataset:
    """Clustered dataset whose cap-feasible optimum equals ``planted_r``.

    k anchors are rejection-sampled pairwise at least separation*planted_r
    apart (separation stays >= 4 so no center can serve two clusters), with
    exactly cap_l anchors per group. Each anchor joins the dataset. Each
    cluster then receives two diametrically opposed points at exactly the
    planted radius: any single in-cluster center is at least planted_r from
    one of them, which pins the cluster's one-center radius -- a lone
    boundary point would not (a midpoint could undercut it). Remaining
    points scatter uniformly inside the cluster balls, inheriting their
    anchor's group. The optimum equals planted_r exactly when n >= 3k; below
    that some clusters lack their opposed pair and planted_r is only an
    upper bound. Points are shuffled into stream order unless asked not to.
    """
    k = spec.k
    if n < k:
        raise ValueError(f"n={n} below the number of planted centers k={k}")
    if planted_r <= 0:
        raise ValueError("planted radius must be positive")
    if separation < 4.0:
        raise ValueError("separation below 4 cannot pin the optimum")
    rng = np.random.default_rng(seed)
    gap = separation * planted_r
    side = gap * max(2.0, 2.0 * math.ceil(k ** (1.0 / dim)))
    budget = max_attempts if max_attempts is not None else 1000 * k
    anchors: list[np.ndarray] = []
    attempts = 0
    while len(anchors) < k:
        attempts += 1
        if attempts > budget:
            raise GenerationError(
                f"could not place {k} anchors at pairwise separation {gap} within {budget} attempts"
            )
        cand = rng.uniform(0.0, side, size=dim)
        if all(float(np.linalg.norm(cand - a)) >= gap for a in anchors):
            anchors.append(cand)

    anchor_groups = [g for g, cap in enumerate(spec.caps, start=1) for _ in range(cap)]
    rng.shuffle(anchor_groups)

    def unit_direction() -> np.ndarray:
        while True:
            v = rng.standard_normal(dim)
            norm = float(np.linalg.norm(v))
            if norm > 1e-12:
                return v / norm

    records: list[tuple[tuple[float, ...], int, bool]] = [
        (tuple(float(c) for c in anchors[j]), anchor_groups[j], True) for j in range(k)
    ]
    extra = n - k
    pairs = min(extra // 2, k)
    for j in range(pairs):
        u = unit_direction() * planted_r
        records.append((tuple(float(c) for c in anchors[j] + u), anchor_groups[j], False))
        records.append((tuple(float(c) for c in anchors[j] - u), anchor_groups[j], False))
    if extra - 2 * pairs > 0 and pairs < k:
        # odd leftover while some cluster still lacks its pair: give it one
        # boundary point at least
        u = unit_direction() * planted_r
        records.append((tuple(float(c) for c in anchors[pairs] + u), anchor_groups[pairs], False))
    while len(records) < n:
        j = int(rng.integers(0, k))
        radius = planted_r * float(rng.uniform()) ** (1.0 / dim)
        u = unit_direction() * radius
        records.append((tuple(float(c) for c in anchors[j] + u), anchor_groups[j], False))

    order = rng.permutation(n) if shuffle else np.arange(n)
    pts = [Point(i, records[order[i]][0], records[order[i]][1]) for i in range(n)]
    planted = [pts[i] for i in range(n) if records[order[i]][2]]
    dataset = Dataset.from_points(pts, m=spec.m)
    return PlantedDataset(dataset, float(planted_r), CenterSet(tuple(planted)), seed)
