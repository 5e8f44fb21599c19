"""One-pass solver for two groups at a fixed radius guess.

During the stream each group keeps its own representative set at a
separation threshold of twice the guess. Afterwards, selection depends on
which groups ended up over their caps:

* neither over: the union of both sets already works;
* one over: drop the overfull group's representatives that sit within three
  guesses of the other set (their neighborhoods are served from there);
* both over: pick a constrained vertex cover on the bipartite graph that
  links cross-group representatives within three guesses of each other.

Every infeasible return is a certificate that the radius guess was below
the optimum, never an error: the radius ladder relies on that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .core import EUCLIDEAN, CenterSet, DistanceMetric, FairnessSpec, Point, RunStats, check_fairness
from .independent import IndependentSet, OfferStatus


class InfeasibleReason(Enum):
    STREAM_OVERFLOW = "stream-overflow"
    SELECTION_EXHAUSTED = "selection-exhausted"
    FAIRNESS_VIOLATED = "fairness-violated"


@dataclass(frozen=True)
class SolveOutcome:
    """Either a center set (guaranteed to satisfy the caps) or the reason the
    guess failed."""

    centers: CenterSet | None
    reason: InfeasibleReason | None

    @property
    def feasible(self) -> bool:
        return self.centers is not None

    @classmethod
    def ok(cls, centers: CenterSet) -> "SolveOutcome":
        return cls(centers, None)

    @classmethod
    def infeasible(cls, reason: InfeasibleReason) -> "SolveOutcome":
        return cls(None, reason)


class SolverInstance:
    """Lifecycle bookkeeping both one-pass solvers share: the radius guess
    and its separation threshold, one representative set per group, and the
    points stored so far, counted into ``stats``. ``cap2`` bounds the group-2
    set (k by default, as for group 1). Each subclass defines its own
    ``process`` and ``finalize``: the benchmark's tracer wraps them class by
    class, so inherited ones break ``python -m pytest perfbench``.

    ``gates`` maps a group to the scans that decide whether a point of that
    group can change the rung: (stored coordinates, stop radius) pairs the
    rung owns, scanned in order. A point within the stop radius of a stored
    point in any of them leaves the rung unchanged. A point that none of them
    stops, or whose group has no gate, needs ``process``, which takes the
    exact scans of the gates, when made, as ``scans``. By default each group's
    gate is its own set at the threshold, the one set ``_offer_own`` reads."""

    def __init__(
        self, radius_guess: float, spec: FairnessSpec, metric: DistanceMetric = EUCLIDEAN,
        stats: RunStats | None = None, cap2: int | None = None,
    ) -> None:
        if spec.m != 2:
            raise ValueError("this solver handles exactly two groups")
        if not 0.0 <= radius_guess < math.inf:
            raise ValueError(f"radius guess must be finite and nonnegative, got {radius_guess}")
        if 3.0 * radius_guess == math.inf:
            # three guesses is the largest radius any path compares against:
            # the link radius, the one-over filter and semi's 1.5x threshold
            raise OverflowError(f"three times the radius guess {radius_guess!r} overflowed the float range")
        self.radius_guess = float(radius_guess)
        self.threshold = 2.0 * self.radius_guess
        self.spec = spec
        self.metric = metric
        self.stats = stats if stats is not None else RunStats()
        # group-1 representatives can legitimately number up to k (not k1):
        # only more than k of them certify the guess was too small
        self.reps1 = IndependentSet(self.threshold, metric, cap=spec.k, group_filter=1, stats=self.stats)
        self.reps2 = IndependentSet(
            self.threshold, metric, cap=spec.k if cap2 is None else cap2, group_filter=2, stats=self.stats
        )
        self.reps = {1: self.reps1, 2: self.reps2}
        self.gates = {group: ((reps.coords, self.threshold),) for group, reps in self.reps.items()}
        self.overflowed = False
        self.finalized = False
        self.stored_order: list[Point] = []
        self.path: str | None = None  # which selection branch finalize took

    @property
    def stored_count(self) -> int:
        return len(self.stored_order)

    def _store(self, point: Point) -> None:
        self.stored_order.append(point)
        self.stats.stored += 1
        self.stats.instance_peak = max(self.stats.instance_peak, len(self.stored_order))

    def _offer_own(self, point: Point, probe_other: bool, scan: tuple[float, int] | None) -> float | None:
        """Offer the point to its group's set (on ``scan`` when given). With
        ``probe_other`` the other group's set is scanned too, so the work stays
        at one evaluation per stored point, and the nearest stored distance over
        both groups is returned; without it, or after an overflow, None is."""
        res = self.reps[point.group].offer(point, scan)
        if res.status is OfferStatus.OVERFLOW:
            self.overflowed = True
            return None
        if res.status is OfferStatus.ADDED:
            self._store(point)
        if probe_other:
            return min(res.min_dist, self.reps[3 - point.group].min_dist(point))
        return None


class StreamInstance(SolverInstance):
    """Streaming state for one radius guess over a two-group stream."""

    last_graph: CrossGroupGraph | None = None  # set by a both-over finalize

    def process(
        self, point: Point, probe_other: bool = False, scans: tuple[tuple[float, int], ...] = (),
    ) -> float | None:
        """Route the point to its group's set by ``_offer_own``. ``scans`` holds
        the caller's scan of that set, its one gate, whose evaluations count
        toward this update."""
        if self.finalized:
            raise RuntimeError("instance already finalized")
        if self.overflowed:
            raise RuntimeError("instance already overflowed")
        if point.group not in (1, 2):
            raise ValueError(f"point {point.id} has group {point.group}; this solver expects groups 1 and 2")
        budget = len(self.reps1) + len(self.reps2)
        stats = self.stats
        evals_before = stats.distance_evals - (len(self.reps[point.group]) if scans else 0)
        nearest_all = self._offer_own(point, probe_other, scans[0] if scans else None)
        excess = stats.distance_evals - evals_before - budget
        if excess > stats.update_excess:
            stats.update_excess = excess
        return nearest_all

    def finalize(self) -> SolveOutcome:
        """Select centers from the stored representatives. One-shot."""
        if self.finalized:
            raise RuntimeError("finalize is one-shot")
        self.finalized = True
        if self.overflowed:
            self.path = "overflow"
            return SolveOutcome.infeasible(InfeasibleReason.STREAM_OVERFLOW)
        g1, g2 = self.reps[1], self.reps[2]
        k1, k2 = self.spec.caps
        over1, over2 = len(g1) > k1, len(g2) > k2
        if not over1 and not over2:
            self.path = "union"
            return SolveOutcome.ok(CenterSet(tuple(g1.members) + tuple(g2.members)))
        if over1 != over2:
            self.path = "one-over"
            over, under = (g1, g2) if over1 else (g2, g1)
            return select_with_one_group_over(over, under, self.radius_guess, self.spec, self.metric)
        self.path = "both-over"
        graph = build_cross_graph(g1, g2, self.radius_guess, self.metric)
        self.last_graph = graph
        return select_with_both_groups_over(graph, self.spec, self.radius_guess, self.metric)


def select_with_one_group_over(
    over: IndependentSet,
    under: IndependentSet,
    radius_guess: float,
    spec: FairnessSpec,
    metric: DistanceMetric = EUCLIDEAN,
) -> SolveOutcome:
    """Selection when exactly one group's representatives exceed its cap.

    Representatives of the overfull group within three guesses of the other
    set are dropped; the survivors plus the whole underfull set are the
    centers. More survivors than the cap allows certifies the guess was below
    the optimum.
    """
    keep_beyond = 3.0 * radius_guess
    survivors = [p for p in over.members if under.min_dist(p, keep_beyond) > keep_beyond]
    if over.group_filter is None:
        raise ValueError("overfull set must be group-filtered")
    if len(survivors) > spec.cap(over.group_filter):
        return SolveOutcome.infeasible(InfeasibleReason.FAIRNESS_VIOLATED)
    centers = CenterSet(tuple(under.members) + tuple(survivors))
    if check_fairness(centers, spec):
        return SolveOutcome.infeasible(InfeasibleReason.FAIRNESS_VIOLATED)
    return SolveOutcome.ok(centers)


@dataclass
class CrossGroupGraph:
    """Bipartite graph over both groups' representatives with an edge between
    cross-group pairs within the link radius (three radius guesses). The cover
    records one ``loop_trace`` entry per loop iteration: (|chosen|, chosen
    group-1 count, chosen group-2 count, live group-1, live group-2)."""

    link_radius: float
    points: dict[int, Point]
    adj: dict[int, set[int]]
    loop_trace: list[tuple[int, int, int, int, int]] = field(default_factory=list)


def build_cross_graph(
    g1: IndependentSet,
    g2: IndependentSet,
    radius_guess: float,
    metric: DistanceMetric = EUCLIDEAN,
) -> CrossGroupGraph:
    """Link cross-group representatives within three radius guesses."""
    link_radius = 3.0 * radius_guess
    points = {p.id: p for p in g1.members + g2.members}
    if len(points) != len(g1) + len(g2):
        raise ValueError("duplicate point ids across the two sides")
    adj: dict[int, set[int]] = {pid: set() for pid in points}
    for p in g1.members:
        for q in g2.members:
            if metric(p, q) <= link_radius:
                adj[p.id].add(q.id)
                adj[q.id].add(p.id)
    return CrossGroupGraph(link_radius, points, adj)


def select_with_both_groups_over(
    graph: CrossGroupGraph,
    spec: FairnessSpec,
    radius_guess: float,
    metric: DistanceMetric = EUCLIDEAN,
) -> SolveOutcome:
    """Constrained vertex cover when both groups exceed their caps.

    Isolated vertices are taken first. Then, while budget and live vertices
    remain: with no degree-1 vertex present, take one endpoint of the
    lexicographically smallest live edge (preferring the endpoint whose group
    has more remaining cap); otherwise take the vertex with the most degree-1
    neighbors and retire those neighbors with it. Whenever one group's chosen
    plus remaining representatives fit its cap, everything remaining is
    resolved directly and selection ends early. Each iteration retires at
    least one live vertex, so the loop runs at most once per vertex.
    """
    points, adj = graph.points, graph.adj
    live = {pid for pid in points if adj[pid]}
    chosen: list[Point] = []
    counts = [0, 0]  # chosen per group

    def take(p: Point) -> None:
        chosen.append(p)
        counts[0 if p.group == 1 else 1] += 1

    def live_in(group: int) -> list[int]:
        return sorted(pid for pid in live if points[pid].group == group)

    # isolated vertices serve their own neighborhoods; nothing across the
    # groups can stand in for them
    near_radius = 2.0 * radius_guess
    for pid in sorted(points):
        p = points[pid]
        if not adj[pid] and metric.nearest(p, [c.coords for c in chosen], near_radius)[0] > near_radius:
            take(p)

    def try_early_exit() -> list[Point] | None:
        """When some group's chosen + live representatives fit its cap, take
        them all, plus the other side's live points not already served within
        the link radius."""
        for group in (1, 2):
            mine = live_in(group)
            if counts[group - 1] + len(mine) <= spec.caps[group - 1]:
                base = chosen + [points[pid] for pid in mine]
                served = [c.coords for c in base]
                others = (points[pid] for pid in live_in(3 - group))
                link = graph.link_radius
                return base + [q for q in others if metric.nearest(q, served, link)[0] > link]
        return None

    final = try_early_exit()  # harmless pre-loop check; fires only when already feasible
    initial_live = len(live)
    iterations = 0
    while final is None and len(chosen) <= spec.k and live:
        iterations += 1
        if iterations > initial_live:
            raise AssertionError("cover loop failed to shrink the live vertex set")
        graph.loop_trace.append((len(chosen), counts[0], counts[1], len(live_in(1)), len(live_in(2))))
        ones = {pid for pid in live if len(adj[pid] & live) == 1}
        if not ones:
            # all live degrees are >= 2: retire the smallest cross edge
            left_id = min(pid for pid in live if points[pid].group == 1 and adj[pid] & live)
            right_id = min(adj[left_id] & live)
            slack1 = spec.caps[0] - counts[0]
            slack2 = spec.caps[1] - counts[1]
            take(points[left_id if slack1 >= slack2 else right_id])
            removed = {left_id, right_id}
        else:
            # the first vertex in id order with the most degree-1 neighbors
            best_id = max(sorted(live), key=lambda pid: len(adj[pid] & ones))
            take(points[best_id])
            removed = {best_id} | (adj[best_id] & ones)
        live -= removed
        # removals may lower neighbors' degrees but can never isolate them
        for rid in removed:
            for w in adj[rid] & live:
                if not adj[w] & live:
                    raise AssertionError("vertex removal created an isolated live vertex")
        final = try_early_exit()

    if final is None:
        if live:
            # budget exhausted with vertices still uncovered: guess too small
            return SolveOutcome.infeasible(InfeasibleReason.SELECTION_EXHAUSTED)
        final = chosen
    centers = CenterSet(tuple(final))
    if check_fairness(centers, spec):
        return SolveOutcome.infeasible(InfeasibleReason.SELECTION_EXHAUSTED)
    return SolveOutcome.ok(centers)
