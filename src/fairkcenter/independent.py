"""Online maintenance of a separation-constrained representative set.

Points are offered one at a time. An offered point is stored only when it is
strictly farther than the threshold from every stored point, so stored points
stay pairwise separated beyond the threshold while every offered point ends
up within the threshold of something stored. With a size cap the structure
doubles as a certificate: a cap overflow proves the threshold was chosen
below twice the optimal clustering radius, because no more than k points can
be pairwise separated by more than that.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .core import EUCLIDEAN, NO_STOP, Coords, DistanceMetric, Point, RunStats


class OfferStatus(Enum):
    ADDED = "added"
    COVERED = "covered"
    OVERFLOW = "overflow"


class OfferResult(NamedTuple):
    status: OfferStatus


class IndependentSet:
    """Stored points pairwise farther than ``threshold`` apart; offers are
    either stored, covered by the nearest stored point, or refused when a cap
    would be exceeded (which permanently marks the set overflowed)."""

    def __init__(
        self,
        threshold: float,
        metric: DistanceMetric = EUCLIDEAN,
        cap: int | None = None,
        group_filter: int | None = None,
        stats: RunStats | None = None,
    ) -> None:
        if threshold < 0:
            raise ValueError("threshold must be nonnegative")
        if cap is not None and cap < 0:
            raise ValueError("cap must be nonnegative")
        self.threshold = float(threshold)
        self.metric = metric
        self.cap = cap
        self.group_filter = group_filter
        self.members: list[Point] = []
        self.overflowed = False
        self.stats = stats if stats is not None else RunStats()
        self.coords: list[Coords] = []  # members' coords, same order; read-only outside ``offer``

    def __len__(self) -> int:
        return len(self.members)

    def min_dist(self, p: Point, within: float = NO_STOP) -> float:
        """Distance from ``p`` to the nearest stored point; inf when empty.
        Given ``within``, the scan stops at the newest stored point that
        close, which still decides ``min_dist(p, within) > within``; the
        evaluations it skips are counted in ``stats``."""
        coords = self.coords
        self.stats.distance_evals += len(coords)
        d, idx = self.metric.nearest(p, coords, within)
        if d <= within and idx > 0:
            self.stats.evals_skipped += idx
        return d

    def nearest(self, p: Point) -> tuple[float, Point | None]:
        """Nearest stored point and the distance to it; (inf, None) when
        empty. Same evaluation cost as ``min_dist``."""
        self.stats.distance_evals += len(self.coords)
        d, idx = self.metric.nearest(p, self.coords)
        return d, (self.members[idx] if idx >= 0 else None)

    def offer(self, p: Point, *, clear: bool = False) -> OfferResult:
        """Cover, store or refuse ``p``. ``clear`` says the caller's own
        counted scan, taken since the set's last change, found ``p`` farther
        than the threshold from every member, so the set neither scans nor
        tests cover; otherwise it scans and counts, and any member within the
        threshold, or at it, covers ``p`` (an empty set covers nothing)."""
        if self.overflowed:
            raise RuntimeError("offer to an overflowed set")
        if self.group_filter is not None and p.group != self.group_filter:
            raise ValueError(f"point {p.id} has group {p.group}, set accepts group {self.group_filter}")
        if not clear:
            self.stats.distance_evals += len(self.coords)
            d, idx = self.metric.nearest(p, self.coords)
            if idx >= 0 and d <= self.threshold:
                return OfferResult(OfferStatus.COVERED)
        if self.cap is not None and len(self.members) >= self.cap:
            self.overflowed = True
            return OfferResult(OfferStatus.OVERFLOW)
        self.coords.append(p.coords)
        self.members.append(p)
        return OfferResult(OfferStatus.ADDED)
