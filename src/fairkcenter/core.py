"""Shared data model: points with group labels, per-group center caps,
distance evaluation, solution-quality measurement and run counters."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

Coords = tuple[float, ...]
NO_STOP = -math.inf  # the default stop radius of ``DistanceMetric.nearest``: scan everything


@dataclass(frozen=True)
class Point:
    """A data point: integer id, coordinate vector, 1-based group label."""

    id: int
    coords: Coords
    group: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(map(float, self.coords)))
        if not self.coords:
            raise ValueError("point needs at least one coordinate")
        if not all(map(math.isfinite, self.coords)):
            raise ValueError(f"point {self.id} has a non-finite coordinate: {self.coords}")
        if self.group < 1:
            raise ValueError(f"group labels are 1-based, got {self.group}")


@dataclass(frozen=True)
class DistanceMetric:
    """Distance function over coordinate tuples.

    The default is euclidean. Any symmetric, nonnegative callable satisfying
    the triangle inequality may be injected for general metric spaces; the
    triangle inequality is assumed, never checked per call.
    """

    kind: str
    fn: Callable[[Coords, Coords], float]

    @classmethod
    def euclidean(cls) -> "DistanceMetric":
        return cls("euclidean", math.dist)

    @classmethod
    def from_callable(cls, fn: Callable[[Coords, Coords], float], name: str = "custom") -> "DistanceMetric":
        return cls(name, fn)

    def __call__(self, p: Point, q: Point) -> float:
        if len(p.coords) != len(q.coords):
            raise ValueError(
                f"dimension mismatch: point {p.id} has {len(p.coords)} coords, "
                f"point {q.id} has {len(q.coords)}"
            )
        return self.fn(p.coords, q.coords)

    def nearest(self, p: Point, stored: Sequence[Coords], within: float = NO_STOP) -> tuple[float, int]:
        """Nearest of ``stored`` to ``p``: (distance, index), (inf, -1) when empty.

        The one nearest-point kernel: ``fn`` on the coordinate tuples, at most
        one evaluation per stored point, so euclidean distances are
        ``math.dist``'s (correctly scaled, no underflow) at any size. One
        loop scans newest first and returns the first point with
        ``d <= within``; a scan that stops at index i has made n - i
        evaluations. Under the default radius nothing stops it. A scan that
        does not stop returns the exact minimum over every stored point: ties
        keep the earliest index, and a NaN or inf distance never becomes the
        nearest. The dimension is checked once, against the first stored
        point; an empty ``stored`` returns at once, whatever ``within``.
        """
        if not stored:
            return math.inf, -1
        pc = p.coords
        if len(pc) != len(stored[0]):
            raise ValueError(
                f"dimension mismatch: point {p.id} has {len(pc)} coords, stored points have {len(stored[0])}"
            )
        best = math.inf
        best_idx = -1
        fn = self.fn
        for idx in range(len(stored) - 1, -1, -1):
            d = fn(pc, stored[idx])
            # while the scan runs, best > within, so a point within the
            # radius always passes this test first; <= keeps the earliest tie
            if d <= best:
                if d <= within:
                    return d, idx
                best, best_idx = d, idx
        if best == math.inf:
            return best, -1  # only inf distances: no nearest point, as above
        return best, best_idx

    def first_within(self, coords: Coords, stored: Sequence[Coords], radius: float) -> int:
        """Index of the newest of ``stored`` with ``fn(coords, q) <= radius``,
        or -1: where ``nearest`` with that stop radius stops (a NaN stops
        neither), for the ladder's gates and certificate. It checks no
        dimension: ``Ladder.observe`` refuses a point of another dimension
        before any rung sees it, and those scans read only observed points."""
        fn = self.fn
        for idx in range(len(stored) - 1, -1, -1):
            if fn(coords, stored[idx]) <= radius:
                return idx
        return -1


EUCLIDEAN = DistanceMetric.euclidean()


def _whole_cap(cap) -> int:
    """``cap`` as an int; a cap that is not a whole number is refused, never
    truncated."""
    try:
        whole = int(cap)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != cap:
        raise ValueError(f"cap {cap!r} is not a whole number")
    return whole


@dataclass(frozen=True)
class FairnessSpec:
    """Per-group caps on how many centers may be chosen; the total budget
    ``k`` is the sum of the caps."""

    caps: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "caps", tuple(map(_whole_cap, self.caps)))
        if not self.caps:
            raise ValueError("at least one group is required")
        if any(c < 0 for c in self.caps):
            raise ValueError("caps must be nonnegative")
        if all(c == 0 for c in self.caps):
            raise ValueError("at least one cap must be positive")

    @property
    def m(self) -> int:
        return len(self.caps)

    @property
    def k(self) -> int:
        return sum(self.caps)

    def cap(self, group: int) -> int:
        if not 1 <= group <= self.m:
            raise ValueError(f"group {group} outside 1..{self.m}")
        return self.caps[group - 1]


@dataclass(frozen=True)
class CenterSet:
    """An ordered collection of chosen centers with distinct ids."""

    centers: tuple[Point, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "centers", tuple(self.centers))
        ids = [p.id for p in self.centers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate center ids")

    def __len__(self) -> int:
        return len(self.centers)

    def __iter__(self):
        return iter(self.centers)

    def ids(self) -> tuple[int, ...]:
        return tuple(p.id for p in self.centers)

    def per_group_counts(self, m: int) -> tuple[int, ...]:
        counts = [0] * m
        for p in self.centers:
            if p.group > m:
                raise ValueError(f"center {p.id} labelled group {p.group} but only {m} groups declared")
            counts[p.group - 1] += 1
        return tuple(counts)


@dataclass(frozen=True)
class Violation:
    """One broken constraint: a group over its cap, or the total over k."""

    kind: str  # "group" or "total"
    group: int | None
    count: int
    limit: int


def check_fairness(centers: CenterSet, spec: FairnessSpec) -> list[Violation]:
    """Every group whose center count exceeds its cap, plus a total-budget
    entry when |centers| > k. Empty list means feasible."""
    report: list[Violation] = []
    counts = centers.per_group_counts(spec.m)
    for group, (count, cap) in enumerate(zip(counts, spec.caps), start=1):
        if count > cap:
            report.append(Violation("group", group, count, cap))
    if len(centers) > spec.k:
        report.append(Violation("total", None, len(centers), spec.k))
    return report


def clustering_cost(
    points: Iterable[Point],
    centers: CenterSet | Sequence[Point],
    metric: DistanceMetric = EUCLIDEAN,
) -> float:
    """max over points of the distance to the nearest center."""
    coords = [c.coords for c in centers]
    if not coords:
        raise ValueError("empty center set")
    if len(set(map(len, coords))) > 1:
        raise ValueError("dimension mismatch among the centers")
    worst = -1.0
    nearest = metric.nearest
    for p in points:
        # a point with some center within the running maximum cannot raise
        # it, so its scan may stop at that center
        worst = max(worst, nearest(p, coords, worst)[0])
    if worst < 0:
        raise ValueError("empty point set")
    return worst


def farthest_first(row: Callable[[int], Sequence[float]], picks: int) -> tuple[list[int], list[float]]:
    """Farthest-first traversal (Gonzalez 1985) from index 0: up to ``picks``
    indices, each the first one farthest from the picks before it, and every
    index's distance to its nearest pick. ``row(i)`` gives index i's
    distances to all indices and is read once per pick. Stops early once
    every index coincides with a pick."""
    chosen = [0]
    near = list(row(0))
    while len(chosen) < picks:
        far = near.index(max(near))
        if near[far] == 0.0:
            break
        chosen.append(far)
        near = [min(a, b) for a, b in zip(near, row(far))]
    return chosen, near


@dataclass(slots=True)
class RunStats:
    """The counters the memory and update-time contracts check, and the
    evaluations actually made, shared by a ladder, its rungs and their stored
    sets; a standalone rung or set keeps its own."""

    # stored-set scans (streaming and the one-over filter), the bootstrap buffer and
    # replay diameters; the both-over graph and cover are not counted. Logical:
    # one per stored point scanned, the paper's bound, even when a scan stops early
    distance_evals: int = 0
    evals_skipped: int = 0  # of those, the ones scans that stop at a covering point never made
    stored: int = 0  # points the live rungs hold together
    stored_peak: int = 0  # most points the live rungs and the bootstrap buffer held after a point
    instance_peak: int = 0  # most points any one rung held, live or pruned
    update_excess: int = 0  # worst per-point evaluations above the stored-set budget

    @property
    def evals_performed(self) -> int:
        """The distance evaluations actually made. Kept as logical less
        skipped, so a full scan, which skips none, updates one counter."""
        return self.distance_evals - self.evals_skipped

