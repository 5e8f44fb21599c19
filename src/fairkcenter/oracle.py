"""Ground truth and baselines: exhaustive optimum for small instances, a
farthest-first traversal baseline, candidate radius enumeration, and a
planted-dataset generator whose optimal radius is known by construction."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import EUCLIDEAN, CenterSet, DistanceMetric, FairnessSpec, Point, farthest_first


class SizeGuardError(ValueError):
    """Instance too large for exhaustive enumeration."""


class GenerationError(RuntimeError):
    """Planted-center placement ran out of attempts."""


@dataclass(frozen=True)
class OracleResult:
    r_opt: float
    centers: CenterSet
    evaluated: int


# Subsets scored per numpy pass. At the n=16, k=5 guard one slice peaks
# near 0.28 MB of float transients (traced with tracemalloc): two
# (rows, n) float64 radius arrays. The subset table and the cap filter are
# not sliced and grow with the subset count (see brute_force_opt).
_BLOCK_ROWS = 1024


# brute_force_opt's default size guards, which also bound the subset-table
# cache: only shapes within them are cached
_GUARD_N = 16
_GUARD_K = 5


def _build_subset_table(n: int, k: int) -> np.ndarray:
    """Every subset of ``range(n)`` with 1..k members, by increasing size
    then lexicographically, one ``intp`` row each, padded to k columns with
    the sentinel index n. One ``np.fromiter`` per size, and read-only,
    because every call of that shape may share it. A row costs 8k bytes:
    0.28 MB at n=16, k=5."""
    counts = [math.comb(n, size) for size in range(1, k + 1)]
    table = np.full((sum(counts), k), n, dtype=np.intp)
    start = 0
    for size, count in enumerate(counts, start=1):
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), size))
        table[start : start + count, :size] = np.fromiter(flat, dtype=np.intp, count=count * size).reshape(count, size)
        start += count
    table.flags.writeable = False
    return table


# the tables of shapes within the default guards, built on first use and
# kept: 70 shapes (n <= 16, k <= min(n, 5)), 1.26 MB at most
_subset_table = functools.lru_cache(maxsize=None)(_build_subset_table)


def brute_force_opt(
    points: Iterable[Point],
    spec: FairnessSpec,
    metric: DistanceMetric = EUCLIDEAN,
    max_n: int = _GUARD_N,
    max_k: int = _GUARD_K,
) -> OracleResult:
    """Exhaustive optimal solution under the caps.

    Enumerates every cap-feasible subset of at most k points, by increasing
    size then lexicographic ids, and keeps the first subset attaining the
    minimum cost. The subsets come from one read-only table per
    (n, min(k, n)), whose rows are padded to a common width with the
    sentinel index n. Within the default guards the table is cached
    (``_subset_table``), and it is all a call leaves behind for the next;
    a call past them builds its own table and keeps none. Each call
    appends one +inf row to its distance matrix for the sentinel, so a
    padded column never lowers a point's radius, and gives the sentinel
    group label 0, so it never counts against a cap. The rows breaking a cap are dropped once for the whole
    table, by per-group member counts, into a new array: the cached table
    is never written. The kept rows are scored in slices of
    ``_BLOCK_ROWS`` by a running minimum over their distance rows, then one
    max per row. The float transients stay per slice, but the table, the
    member labels and the kept rows grow with the subset count: a cold
    two-group call at the n=16, k=5 guard peaks near 1 MB (tracemalloc),
    0.28 MB of it the table it keeps. The tie-break is that of a plain
    loop: the first minimum in (size, lexicographic) order wins, and a
    later slice must be strictly cheaper to replace it. A NaN or infinite
    cost never wins; if subsets were scored but every one scores such a
    cost, the error says so rather than calling the instance infeasible.
    The distance matrix calls ``metric`` once per pair i <= j and mirrors
    it, relying on the metric's symmetry. Guarded to small instances; raise
    the guards explicitly to go bigger.
    """
    pts = list(points)
    n = len(pts)
    if n == 0:
        raise ValueError("empty dataset")
    if n > max_n:
        raise SizeGuardError(f"n={n} exceeds the exhaustive-search guard ({max_n})")
    if spec.k > max_k:
        raise SizeGuardError(f"k={spec.k} exceeds the exhaustive-search guard ({max_k})")
    # row n is the sentinel's: infinitely far from every point
    dists = np.empty((n + 1, n))
    dists[n] = math.inf
    for i, p in enumerate(pts):
        for j in range(i, n):
            dists[i, j] = dists[j, i] = metric(p, pts[j])
    for p in pts:
        if p.group > spec.m:
            raise ValueError(f"point {p.id} has group {p.group} but only {spec.m} caps were given")
    k = min(spec.k, n)
    rows = _subset_table(n, k) if n <= _GUARD_N and k <= _GUARD_K else _build_subset_table(n, k)
    tight = [(g, cap) for g, cap in enumerate(spec.caps, start=1) if cap < k]
    if tight:
        members = np.array([p.group for p in pts] + [0])[rows]
        feasible = np.ones(len(rows), dtype=bool)
        for g, cap in tight:
            feasible &= (members == g).sum(axis=1) <= cap
        rows = rows[feasible]
    best_cost = math.inf
    best_at = -1
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        # dists is symmetric, so row c holds every point's distance to c
        radius = dists[block[:, 0]]
        for col in range(1, k):
            np.minimum(radius, dists[block[:, col]], out=radius)
        costs = radius.max(axis=1)
        costs[np.isnan(costs)] = math.inf
        at = int(costs.argmin())
        if costs[at] < best_cost:
            best_cost = float(costs[at])
            best_at = start + at
    if best_at < 0:
        if len(rows):
            raise ValueError(
                "every cap-feasible center set has a non-finite cost "
                "(the distances overflow the float range or are NaN)"
            )
        raise ValueError("no cap-feasible center set exists for this dataset")
    witness = CenterSet(tuple(pts[i] for i in rows[best_at] if i < n))
    return OracleResult(best_cost, witness, len(rows))


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
    chosen, _ = farthest_first(lambda i: [metric(p, pts[i]) for p in pts], k)
    return CenterSet(tuple(pts[i] for i in chosen))


@dataclass(frozen=True)
class PlantedDataset:
    points: tuple[Point, ...]
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
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if not 0.0 < planted_r < math.inf:
        raise ValueError(f"planted radius must be positive and finite, got {planted_r}")
    if not 4.0 <= separation < math.inf:
        raise ValueError(f"separation must be finite and at least 4 (below 4 cannot pin the optimum), got {separation}")
    rng = np.random.default_rng(seed)
    gap = separation * planted_r
    side = gap * max(2.0, 2.0 * math.ceil(k ** (1.0 / dim)))
    if not math.isfinite(dim * side * side):
        # the anchor check's norm sums dim squared gaps of up to side each; an
        # inf norm would pass every separation test
        raise ValueError(
            f"radius {planted_r} and separation {separation} overflow the sampling square's side or squared diagonal"
        )
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
    return PlantedDataset(tuple(pts), float(planted_r), CenterSet(tuple(planted)), seed)
