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
        self.replacement_of: dict[int, Point] = {}  # reps1 member id -> group-2 stand-in
        self.group2_started = False
        # group 1 keeps the general solver's plain set until group 2 starts;
        # the first group-2 point sets the group-2 gates
        self.gates = {1: ((self.reps1.coords, self.threshold),)}

    @property
    def replacements(self) -> list[Point]:
        """The recorded group-2 stand-ins, in the order recorded."""
        return list(self.replacement_of.values())

    process = SolverInstance.process
    finalize = SolverInstance.finalize

    def _update(self, point: Point, clear: bool) -> None:
        """Refuse a group-1 point after group 2 began; route the rest by group."""
        if point.group == 1:
            if self.group2_started:
                raise StreamOrderError(
                    f"point {point.id}: group-1 point after group-2 streaming began; "
                    "this solver requires all group-1 points first"
                )
            self._offer_own(point, clear)
        else:
            self._process_group2(point, clear)

    def _process_group2(self, point: Point, clear: bool) -> None:
        lam = self.threshold
        group1_fits = len(self.reps1.members) <= self.spec.caps[0]
        if not self.group2_started:
            # reps1 is frozen from here on, and with it group1_fits. While group
            # 1 fits, no stand-in arises, and a point within one threshold of
            # reps2 (covered) or within 1.5 of reps1 (not admitted) changes
            # nothing. reps2 is read first once it has a member: on a sweep
            # its newest member covers most points, which then need no reps1
            # scan. Until then its gate would scan an empty list, on every
            # rung that never admits a group-2 point, so it is left out. Over
            # the cap any point may record a stand-in, so none is gated.
            # Group 1 loses its gate: a later group-1 point must reach
            # process, to be refused.
            self.group2_started = True
            self.gates = {2: ((self.reps1.coords, 1.5 * lam),)} if group1_fits else {}
        if group1_fits:
            # past every gate the point is clear of reps2 by one threshold and
            # of reps1 by 1.5; unless told clear it is scanned here, as the
            # gates would scan it (an empty reps2 counts and stops nothing)
            if not clear and (
                self.reps2.min_dist(point, lam) <= lam or self.reps1.min_dist(point, 1.5 * lam) <= 1.5 * lam
            ):
                return
            first = not self.reps2
            self._offer_own(point, True)
            if first and self.reps2:
                self.gates = {2: ((self.reps2.coords, lam), (self.reps1.coords, 1.5 * lam))}
            return
        # with group 1 over its cap, admit only points clear of both sets by
        # one threshold; a point not offered may instead become the stand-in
        # for one stored group-1 representative. Only the nearest one can
        # qualify: representatives sit farther than a threshold apart, so no
        # two can both be within half a threshold of the point.
        dist1, nearest_rep = self.reps1.nearest(point)
        if dist1 > lam:
            self._offer_own(point, False)
        elif dist1 <= lam / 2.0 and nearest_rep is not None:
            if nearest_rep.id not in self.replacement_of:
                self.replacement_of[nearest_rep.id] = point
                self._store(point)

    def _select(self) -> SolveOutcome:
        """Swap group 1's surplus for stand-ins: it is over its cap (``reps2`` over its own overflowed)."""
        self.path = "swap"
        surplus = len(self.reps1) - self.spec.caps[0]
        if len(self.replacement_of) < surplus:
            return SolveOutcome.infeasible(InfeasibleReason.FAIRNESS_VIOLATED)
        # swap out the representatives whose stand-ins were recorded first
        swap_ids = set(list(self.replacement_of)[:surplus])
        kept = [p for p in self.reps1.members if p.id not in swap_ids]
        stand_ins = list(self.replacement_of.values())[:surplus]
        centers = CenterSet(tuple(self.reps2.members) + tuple(kept) + tuple(stand_ins))
        if check_fairness(centers, self.spec):
            return SolveOutcome.infeasible(InfeasibleReason.FAIRNESS_VIOLATED)
        return SolveOutcome.ok(centers)
