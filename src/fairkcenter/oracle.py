"""Ground truth and baselines: exhaustive optimum for small instances, a
farthest-first traversal baseline, and a planted-dataset generator whose
optimal radius is known by construction."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

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
# (rows, n) float64 radius arrays, the running minimum and one gathered
# column. The shape record and the cap filter are not sliced and grow
# with the subset count (see brute_force_opt).
_BLOCK_ROWS = 1024


# the exhaustive search's size guards, which also bound the shape cache
_GUARD_N = 16
_GUARD_K = 5


class _Shape(NamedTuple):
    """The read-only arrays every brute_force_opt call with n points and
    k = min(spec.k, n) may share. ``rows`` lists every subset of
    ``range(n)`` with 1..k members, by increasing size then
    lexicographically, one ``uint8`` row each, padded to k columns with the
    sentinel index n (k bytes a row). ``masks`` holds each row as a
    ``uint16`` bitmask of its members: bit i is set when point i is in the
    row, and the sentinel sets no bit. ``sizes`` is each row's member
    count, one byte like the popcounts it is compared with.
    ``(above, beside)`` is ``np.triu_indices(n)``: the pairs i <= j in row
    order."""

    rows: np.ndarray
    masks: np.ndarray
    sizes: np.ndarray
    above: np.ndarray
    beside: np.ndarray


# built on first use and kept; the guards refuse every larger shape first,
# so the cache holds 70 shapes at most (n <= 16, k <= min(n, 5)), 0.33 MB:
# 158 KB of tables, 71 KB of masks, 35 KB of sizes and 65 KB of triangle
# indices (52 KB more than one triangle per n would keep)
@functools.cache
def _cached_shape(n: int, k: int) -> _Shape:
    """The (n, k) shape record, one ``np.fromiter`` per subset size."""
    counts = [math.comb(n, size) for size in range(1, k + 1)]
    rows = np.full((sum(counts), k), n, dtype=np.uint8)
    start = 0
    for size, count in enumerate(counts, start=1):
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), size))
        rows[start : start + count, :size] = np.fromiter(flat, dtype=np.uint8, count=count * size).reshape(count, size)
        start += count
    # one bit per point, and none for the sentinel
    bits = np.append(np.left_shift(np.uint16(1), np.arange(n, dtype=np.uint16)), np.uint16(0))
    masks = np.bitwise_or.reduce(bits[rows], axis=1)
    sizes = np.repeat(np.arange(1, k + 1, dtype=np.uint8), counts)
    shape = _Shape(rows, masks, sizes, *np.triu_indices(n))
    for array in shape:
        array.flags.writeable = False
    return shape


@functools.cache
def _bit_counts() -> np.ndarray:
    """Set bits of every 16-bit value, from a 256-entry byte table, built
    on the first cap filter rather than at import (64 KB)."""
    byte = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
    return (byte[:, None] + byte[None, :]).ravel()


def brute_force_opt(
    points: Iterable[Point],
    spec: FairnessSpec,
    metric: DistanceMetric = EUCLIDEAN,
) -> OracleResult:
    """Exhaustive optimal solution under the caps.

    Enumerates every cap-feasible subset of at most k points, by increasing
    size then lexicographic ids, and keeps the first subset attaining the
    minimum cost. The subsets, their member bitmasks and counts and the
    triangle indices come from one read-only ``_Shape`` record per
    (n, min(k, n)), whose table rows are padded to a common width with
    the sentinel index n. The record is cached (``_cached_shape``), and it
    is all a call leaves behind for the next. Each call appends one +inf
    row to its distance matrix for the sentinel, so a padded column never
    lowers a point's radius. When some cap is below k, the rows breaking a
    cap are dropped once for the whole table: a row's count in each group
    but the last is the popcount of its mask and the group's member mask,
    read from ``_bit_counts``; the last group's count is the row's size
    less the others' (every point is in exactly one group), so two groups
    take one popcount pass; only the groups whose cap is below k are
    compared. The kept rows are copied into a new array: the cached table
    is never written. They are scored in slices of ``_BLOCK_ROWS`` by a
    running minimum over their distance rows, gathered with ``take``, then
    one max per row. The float transients stay per slice, but the record,
    the counts and the kept rows grow with the subset count: a cold
    two-group call at the n=16, k=5 guard peaks near 0.38 MB
    (tracemalloc), 0.06 MB of it the record it keeps, and a warm one near
    0.32 MB. The tie-break is that of a plain loop: the first minimum in
    (size, lexicographic) order wins, and a later slice must be strictly
    cheaper to replace it. A NaN or infinite cost never wins; if subsets
    were scored but every one scores such a cost, the error says so rather
    than calling the instance infeasible. The distance matrix calls
    ``metric.fn`` once per pair i <= j, one row at a time, into one flat
    list of the upper triangle, written and mirrored by two assignments
    through the record's triangle, relying on the metric's symmetry; points
    of another dimension than the first are refused first, with the
    metric's own error. Guarded to small instances: n <= 16 and k <= 5.
    """
    pts = list(points)
    n = len(pts)
    if n == 0:
        raise ValueError("empty dataset")
    if n > _GUARD_N:
        raise SizeGuardError(f"n={n} exceeds the exhaustive-search guard ({_GUARD_N})")
    if spec.k > _GUARD_K:
        raise SizeGuardError(f"k={spec.k} exceeds the exhaustive-search guard ({_GUARD_K})")
    coords = [p.coords for p in pts]
    dim = len(coords[0])
    for p in pts:
        if len(p.coords) != dim:
            metric(pts[0], p)  # raises the dimension mismatch
    fn = metric.fn
    upper = []
    for i, a in enumerate(coords):
        upper += [fn(a, b) for b in coords[i:]]
    m = spec.m
    for p in pts:
        if p.group > m:
            raise ValueError(f"point {p.id} has group {p.group} but only {m} caps were given")
    k = min(spec.k, n)
    rows, masks, sizes, above, beside = _cached_shape(n, k)
    # row n is the sentinel's: infinitely far from every point
    dists = np.empty((n + 1, n))
    dists[n] = math.inf
    upper = np.array(upper, dtype=float)
    dists[above, beside] = upper
    dists[beside, above] = upper
    if min(spec.caps) < k:
        bit_counts = _bit_counts()
        counts = []
        rest = sizes
        for g in range(1, m):
            group_bits = sum(1 << i for i, p in enumerate(pts) if p.group == g)
            count = bit_counts.take(masks & np.uint16(group_bits))
            counts.append(count)
            rest = rest - count
        # every point is in exactly one group, so group m's count is the
        # row's size less the other groups' counts
        counts.append(rest)
        feasible = functools.reduce(np.logical_and, [count <= cap for count, cap in zip(counts, spec.caps) if cap < k])
        rows = rows.compress(feasible, axis=0)
    best_cost = math.inf
    best_at = -1
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        # dists is symmetric, so row c holds every point's distance to c
        radius = dists.take(block[:, 0], axis=0)
        for col in range(1, k):
            np.minimum(radius, dists.take(block[:, col], axis=0), out=radius)
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
    witness = CenterSet(tuple(pts[i] for i in rows[best_at].tolist() if i < n))
    return OracleResult(best_cost, witness, len(rows))


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


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a real vector, by its own arithmetic, without its checks."""
    return math.sqrt(v.dot(v))


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
        if all(_norm(cand - a) >= gap for a in anchors):
            anchors.append(cand)

    anchor_groups = [g for g, cap in enumerate(spec.caps, start=1) for _ in range(cap)]
    rng.shuffle(anchor_groups)

    def offset(radius: float) -> list[float]:
        """A uniform direction scaled to ``radius``, as Python floats: the
        IEEE operations numpy would apply element by element, in its order."""
        while True:
            v = rng.standard_normal(dim)
            norm = _norm(v)
            if norm > 1e-12:
                return [c / norm * radius for c in v.tolist()]

    centers = [tuple(a.tolist()) for a in anchors]
    records: list[tuple[tuple[float, ...], int, bool]] = [(centers[j], anchor_groups[j], True) for j in range(k)]
    extra = n - k
    pairs = min(extra // 2, k)
    for j in range(pairs):
        u = offset(planted_r)
        records.append((tuple(a + c for a, c in zip(centers[j], u)), anchor_groups[j], False))
        records.append((tuple(a - c for a, c in zip(centers[j], u)), anchor_groups[j], False))
    if extra - 2 * pairs > 0 and pairs < k:
        # odd leftover while some cluster still lacks its pair: give it one
        # boundary point at least
        u = offset(planted_r)
        records.append((tuple(a + c for a, c in zip(centers[pairs], u)), anchor_groups[pairs], False))
    while len(records) < n:
        j = int(rng.integers(0, k))
        u = offset(planted_r * float(rng.uniform()) ** (1.0 / dim))
        records.append((tuple(a + c for a, c in zip(centers[j], u)), anchor_groups[j], False))

    order = rng.permutation(n).tolist() if shuffle else range(n)
    pts = [Point(i, *records[at][:2]) for i, at in enumerate(order)]
    planted = [p for p, at in zip(pts, order) if records[at][2]]
    return PlantedDataset(tuple(pts), float(planted_r), CenterSet(tuple(planted)), seed)
