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

from dataclasses import dataclass
from enum import Enum

from .core import EUCLIDEAN, Coords, DistanceMetric, Point, RunStats


class OfferStatus(Enum):
    ADDED = "added"
    COVERED = "covered"
    OVERFLOW = "overflow"


@dataclass(frozen=True)
class OfferResult:
    status: OfferStatus
    covered_by: Point | None
    min_dist: float


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
        self._coords: list[Coords] = []  # members' coords, same order

    def __len__(self) -> int:
        return len(self.members)

    def _scan(self, p: Point) -> tuple[float, int]:
        """Nearest stored point: (distance, index), (inf, -1) when empty, by
        ``metric.nearest`` over the stored coordinates; its one evaluation
        per stored point is counted in ``stats``."""
        self.stats.distance_evals += len(self._coords)
        return self.metric.nearest(p, self._coords)

    def min_dist(self, p: Point) -> float:
        """Distance from ``p`` to the nearest stored point; inf when empty."""
        return self._scan(p)[0]

    def nearest(self, p: Point) -> tuple[float, Point | None]:
        """Nearest stored point and the distance to it; (inf, None) when
        empty. Same evaluation cost as ``min_dist``."""
        d, idx = self._scan(p)
        return d, (self.members[idx] if idx >= 0 else None)

    def offer(self, p: Point) -> OfferResult:
        if self.overflowed:
            raise RuntimeError("offer to an overflowed set")
        if self.group_filter is not None and p.group != self.group_filter:
            raise ValueError(f"point {p.id} has group {p.group}, set accepts group {self.group_filter}")
        d, idx = self._scan(p)
        if idx >= 0 and d <= self.threshold:
            # a point at exactly the threshold stays covered; only a real
            # nearest point can cover, even under an infinite threshold
            return OfferResult(OfferStatus.COVERED, self.members[idx], d)
        if self.cap is not None and len(self.members) >= self.cap:
            self.overflowed = True
            return OfferResult(OfferStatus.OVERFLOW, None, d)
        self._append(p)
        return OfferResult(OfferStatus.ADDED, None, d)

    def _append(self, p: Point) -> None:
        self._coords.append(p.coords)
        self.members.append(p)
