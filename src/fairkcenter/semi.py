"""Solver for group-ordered streams: every group-1 point arrives before any
group-2 point.

Group 1 streams into a plain separation set. While group 2 streams, two
things happen side by side: a second representative set grows under
thresholds that depend on whether group 1 ended up over its cap, and each
stored group-1 representative may pick up one nearby group-2 stand-in. If
group 1 holds too many representatives after the stream, the surplus is
swapped for their stand-ins, which repairs the group-1 cap at the price of
half a threshold of extra covering radius. The tighter bookkeeping buys a
factor-3 cost bound (instead of 5) whenever the radius guess is at least
the optimum.
"""

from __future__ import annotations

from .core import EUCLIDEAN, CenterSet, DistanceMetric, FairnessSpec, Point, RunStats, check_fairness
from .independent import OfferStatus
from .solver import InfeasibleReason, SolveOutcome, SolverInstance


class StreamOrderError(ValueError):
    """A group-1 point arrived after group-2 streaming had begun."""


class SemiInstance(SolverInstance):
    """Streaming state for one radius guess over a group-ordered stream."""

    def __init__(
        self, radius_guess: float, spec: FairnessSpec, metric: DistanceMetric = EUCLIDEAN,
        stats: RunStats | None = None,
    ) -> None:
        super().__init__(radius_guess, spec, metric, stats, cap2=spec.caps[1])
        self.replacements: list[Point] = []
        self.replacement_of: dict[int, Point] = {}  # reps1 member id -> group-2 stand-in
        self.group2_started = False
        # group 1 keeps the general solver's plain set until group 2 starts;
        # the first group-2 point sets the group-2 gates
        self.gates = {1: ((self.reps1.coords, self.threshold),)}

    def process(
        self, point: Point, probe_other: bool = False, scans: tuple[tuple[float, int], ...] = (),
    ) -> float | None:
        """Feed one point; ``probe_other`` is as in ``_offer_own``. ``scans``
        are the caller's exact scans of the point's ``gates``, whose
        evaluations count toward this update."""
        if self.finalized:
            raise RuntimeError("instance already finalized")
        if self.overflowed:
            raise RuntimeError("instance already overflowed")
        if point.group not in (1, 2):
            raise ValueError(f"point {point.id} has group {point.group}; this solver expects groups 1 and 2")
        budget = len(self.reps1) + len(self.reps2)  # each path scans each set at most once
        stats = self.stats
        evals_before = stats.distance_evals
        if scans:
            evals_before -= sum(len(coords) for coords, _ in self.gates[point.group])
        if point.group == 1:
            if self.group2_started:
                raise StreamOrderError(
                    f"point {point.id}: group-1 point after group-2 streaming began; "
                    "this solver requires all group-1 points first"
                )
            nearest_all = self._offer_own(point, probe_other, scans[0] if scans else None)
        else:
            nearest_all = self._process_group2(point, probe_other, scans)
        excess = stats.distance_evals - evals_before - budget
        if excess > stats.update_excess:
            stats.update_excess = excess
        return nearest_all

    def _process_group2(
        self, point: Point, probe_other: bool, scans: tuple[tuple[float, int], ...],
    ) -> float | None:
        lam = self.threshold
        group1_fits = len(self.reps1) <= self.spec.caps[0]
        if not self.group2_started:
            # reps1 is frozen from here on, and with it group1_fits. While group
            # 1 fits, no stand-in arises, and a point within 1.5 thresholds of
            # reps1 (not admitted) or within one of reps2 (covered) changes
            # nothing. Over the cap any point may record a stand-in, so none is
            # gated. Group 1 loses its gate: a later group-1 point must reach
            # process, to be refused.
            self.group2_started = True
            self.gates = {2: ((self.reps1.coords, 1.5 * lam), (self.reps2.coords, lam))} if group1_fits else {}
        if scans:
            (dist1, idx1), scan2 = scans
            nearest_rep = self.reps1.members[idx1] if idx1 >= 0 else None
        else:
            dist1, nearest_rep = self.reps1.nearest(point)
            scan2 = None
        dist2: float | None = None
        # admit only points clear of stored group-2 points and clear of group
        # 1 by one and a half thresholds while group 1 fits its cap, by one
        # threshold otherwise
        if dist1 > (1.5 * lam if group1_fits else lam):
            res = self.reps2.offer(point, scan2)
            dist2 = res.min_dist
            if res.status is OfferStatus.OVERFLOW:
                self.overflowed = True
                return None
            if res.status is OfferStatus.ADDED:
                self._store(point)
        # with group 1 over its cap, the point may independently become the
        # stand-in for one stored group-1 representative. Only the nearest one
        # can qualify: representatives sit farther than a threshold apart, so
        # no two can both be within half a threshold of the point.
        if not group1_fits and dist1 <= lam / 2.0 and nearest_rep is not None:
            if nearest_rep.id not in self.replacement_of:
                self.replacement_of[nearest_rep.id] = point
                self.replacements.append(point)
                self._store(point)
        if not probe_other:
            return None
        if dist2 is None:
            dist2 = self.reps2.min_dist(point)
        return min(dist1, dist2)

    def finalize(self) -> SolveOutcome:
        """Assemble the centers; swaps surplus group-1 representatives for
        their stand-ins when group 1 exceeded its cap. One-shot."""
        if self.finalized:
            raise RuntimeError("finalize is one-shot")
        self.finalized = True
        if self.overflowed:
            self.path = "overflow"
            return SolveOutcome.infeasible(InfeasibleReason.STREAM_OVERFLOW)
        k1 = self.spec.caps[0]
        if len(self.reps1) <= k1:
            self.path = "union"
            centers = CenterSet(tuple(self.reps1.members) + tuple(self.reps2.members))
        else:
            self.path = "swap"
            surplus = len(self.reps1) - k1
            if len(self.replacement_of) < surplus:
                return SolveOutcome.infeasible(InfeasibleReason.FAIRNESS_VIOLATED)
            # swap out the representatives whose stand-ins were recorded first
            swap_ids = set(list(self.replacement_of)[:surplus])
            kept = [p for p in self.reps1.members if p.id not in swap_ids]
            stand_ins = [self.replacement_of[pid] for pid in self.replacement_of if pid in swap_ids]
            centers = CenterSet(tuple(self.reps2.members) + tuple(kept) + tuple(stand_ins))
        if check_fairness(centers, self.spec):
            return SolveOutcome.infeasible(InfeasibleReason.FAIRNESS_VIOLATED)
        return SolveOutcome.ok(centers)
