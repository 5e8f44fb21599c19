"""Parallel radius guessing over a single pass of the stream.

The optimal radius is unknown up front, so a geometric grid of guesses runs
side by side, each guess owning one solver instance fed every point. The
ladder first buffers the stream until it holds 2(k+1) distinct locations.
A point that repeats a buffered location of its own group is dropped there:
whatever covers the first copy on a rung covers it too, so no rung changes
on it. (In semi mode a group-1 point after a group-2 point never reaches
the buffer: ``observe`` refuses it first.) Farthest-first (Gonzalez 1985)
then picks k+1 of the distinct locations; the (k+1)-th pick lies some d
from the earlier picks, so all k+1 picks are pairwise at least d apart, two
of them share an optimal cluster, and d/2 is at most the optimal radius.
The grid starts at that certified lower bound and climbs by (1+epsilon)
steps until a guess spans the buffer. Every grid guess is seeded by
replaying the buffer.

One span rule, ``Ladder._spans``, says where every grid loop may stop: with
D the diameter of the points a loop reads, a guess g spans them at 2g >= D,
or at g >= D in semi mode with a zero group-1 cap. An extension, and
``finish`` pushing the grid up, call the caps unservable at a spanning
guess that still fails. So each loop ends within ceil(log(D/g) /
log1p(epsilon)) + 1 steps of its first guess g, plus the few one-ulp
``_next_guess`` steps among subnormals; a rung whose radii overflow still
raises ``OverflowError``.

The lowest guess obeys these rules:

* 2(k+1) distinct locations arrive, or ``finish`` finds at least k+1: the
  grid starts at d/2, which holds whatever the optimum.
* ``finish`` finds 2 to k distinct locations: the grid starts at half the
  smallest positive gap, a lower bound whenever the optimum is positive (a
  point served from a center elsewhere is at least that gap away from it).
* ``finish`` finds one location: no gap exists, and the stream collapses to
  a single deduplicated center at radius zero.
* d/2 rounds to zero (d is the smallest subnormal): the grid starts at
  ``math.ulp(0.0)``, which every positive optimum reaches.
* d overflows to inf (the true distance exceeds the float range): the bound
  is half the largest float, never inf. A rung there cannot take three
  times its guess, so the run raises ``OverflowError``.

With the lowest guess at or below the optimum, the smallest grid guess at
or above the optimum is within (1+epsilon) of it, and the paper's lemma
makes that rung feasible (semi mode with a zero group-1 cap excepted when a
rung drops a group-2 point within one threshold of group 1: ROADMAP item
3c). Every answer meets the caps; one from a rung that saw the whole stream
costs at most 5x (semi: 3x) its own guess, so 5(1+epsilon) (3(1+epsilon))
times the optimum. On a rung at g' seeded by replay (below), a point that a
top at g did not store is within 2g (semi: 3g) of one it stored, so it
costs at most 5g' (3g') plus 2g (3g) summed over the tops it came through:
under (5 + 2/epsilon)g' ((3 + 3/epsilon)g'). That such an answer stays
within 5x (3x) its own guess is observed, not proved (criteria 4, 9 and 10;
a longer seeded search's worst was 4.9994x).

A guess is pruned as soon as its rung holds a certificate that it
undershoots: more than k stored points pairwise more than twice the guess
apart, which no k centers of that radius can serve. The paper's rule finds
one when a group's own set passes its cap. A general rung, the top
included, also collects the points it stores that are more than its
threshold from every collected point of the other group, and is pruned at
k+1 of them; semi rungs keep the paper's rule. So ``best_guess`` (the
report's ``r_hat``) is the smallest guess that no certificate refuted and
whose rung finalizes feasibly.
Every live rung takes each point through its gates. When the top rung
stores the point in its own group's set, or overflows, the grid extends
upward one step at a time, seeding each new instance by replaying what the
top stored (then the point, if not stored), with the slack bounded above.
The trigger reads only the top's own set, never the other group's, and
differs in two safe ways from a point beyond the top's threshold from all
it stored:

* A general top also extends on a point it stores within its threshold of
  the other group, a superset of those points. The extra rungs sit above
  all others and are seeded like any extension, the point included.
* A semi top whose group 1 fits its cap does not admit a group-2 point
  within 1.5 thresholds of ``reps1``, so it does not extend on one beyond
  one threshold of both sets. Its union answer keeps every ``reps1``
  member, so it serves that point within three guesses, its own bound;
  and an extension seeded by what the top stored would lack the point.

Memory stays at O(k) stored points per instance and one grid instance per
(1+epsilon) step between the lowest and highest guess; the buffer holds at
most two points (one per group) at each of its 2(k+1) locations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

from .core import EUCLIDEAN, CenterSet, DistanceMetric, FairnessSpec, Point, RunStats, farthest_first
from .semi import SemiInstance, StreamOrderError
from .solver import SolveOutcome, SolverInstance, StreamInstance

# the bootstrap buffers this many distinct locations per center before the
# grid spawns: more pushes the farthest-first bound up, and a higher lowest
# guess spawns fewer rungs below the optimum, but a buffer of 3, 4 or 6 per
# center lowered the planted stored peak by only 1-4 points more than 2
_SITES_PER_CENTER = 2

_UNSERVABLE = "no feasible center set at any radius: the caps leave some observed group unservable"


def make_instance(
    mode: str, guess: float, spec: FairnessSpec, metric: DistanceMetric = EUCLIDEAN,
    stats: RunStats | None = None,
) -> SolverInstance:
    """One solver instance at one radius guess, counting into ``stats`` (its
    own when None). The only place that maps a mode name to a solver class:
    "general" for any stream order, "semi" for group-sorted streams."""
    if mode == "general":
        return StreamInstance(guess, spec, metric, stats)
    if mode == "semi":
        return SemiInstance(guess, spec, metric, stats)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class LadderResult:
    """Outcome of a ladder run: the smallest feasible guess and its centers."""

    best_guess: float
    centers: CenterSet


class Ladder:
    """Drives one solver instance per grid guess through the stream."""

    def __init__(
        self,
        spec: FairnessSpec,
        metric: DistanceMetric = EUCLIDEAN,
        epsilon: float = 0.1,
        mode: str = "general",
    ) -> None:
        make_instance(mode, 0.0, spec, metric)  # refuses a bad mode or group count now, not at the first rung
        if not 0.0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        if 1.0 + epsilon == 1.0:
            # a (1+epsilon) step would round back to the guess, and the grid
            # would climb one float ulp at a time
            raise ValueError(f"epsilon {epsilon} is too small: 1 + epsilon rounds to 1")
        self.spec = spec
        self.metric = metric
        self.epsilon = float(epsilon)
        self.mode = mode
        self.buffer: list[Point] = []  # what every initial rung replays, in stream order
        self._sites: list[Point] = []  # the buffer's first point at each distinct location
        self._site_groups: list[set[int]] = []  # the groups buffered at each site
        self._site_dist: list[list[float]] = []  # pairwise distances between the sites
        self.bootstrapping = True
        # live rungs by guess, in insertion order, which is ascending: every
        # spawn sits above all earlier guesses, so the last one is the top
        self.instances: dict[float, SolverInstance] = {}
        self.guesses: list[float] = []  # every grid point ever spawned, ascending
        self.pruned: list[float] = []
        self.points_seen = 0
        self.dim: int | None = None  # the stream's dimension, set by its first point
        self._group2_started = False  # set by the first group-2 point in semi mode
        self.stats = RunStats()  # shared by every rung, live or pruned
        self.finished = False

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def observe(self, point: Point) -> None:
        """Feed one stream point to the ladder."""
        if self.finished:
            raise RuntimeError("ladder already finished")
        if self.dim is None:
            self.dim = len(point.coords)
        elif len(point.coords) != self.dim:
            # refused here, before any rung changes: a gate scan of an empty
            # set never meets a stored point to compare the dimension with
            raise ValueError(
                f"dimension mismatch: point {point.id} has {len(point.coords)} coords, "
                f"the stream's first point has {self.dim}"
            )
        if point.group not in (1, 2):
            # refused here too: buffered, it would raise only at the replay,
            # from a later point's observe, and on every one after it
            raise ValueError(f"point {point.id} has group {point.group}; the ladder expects groups 1 and 2")
        if self.mode == "semi":
            if point.group == 2:
                self._group2_started = True
            elif self._group2_started:  # refused before the buffer or any rung changes
                raise StreamOrderError(f"point {point.id}: group-1 point after group-2 streaming began")
        self.points_seen += 1
        if self.bootstrapping:
            self._buffer_point(point)
            if len(self._sites) >= _SITES_PER_CENTER * (self.spec.k + 1):
                self._spawn_initial_grid()
        else:
            self._dispatch(point)
        stats = self.stats
        stats.stored_peak = max(stats.stored_peak, len(self.buffer) + stats.stored)

    def _buffer_point(self, point: Point) -> None:
        """Buffer the point, measuring it against each site once; a point at
        distance zero from a site that already holds its group is dropped."""
        sites = self._sites
        self.stats.distance_evals += len(sites)
        row = [self.metric(point, site) for site in sites]
        if 0.0 in row:
            groups = self._site_groups[row.index(0.0)]
            if point.group in groups:
                return
            groups.add(point.group)
        else:
            for d, other in zip(row, self._site_dist):
                other.append(d)
            row.append(0.0)
            self._site_dist.append(row)
            sites.append(point)
            self._site_groups.append({point.group})
        self.buffer.append(point)

    def _lowest_guess(self) -> float:
        """A certified lower bound on the optimal radius from the sites (at
        least two), by the rules in the module docstring. Farthest-first
        reads the buffer's distances, so it evaluates none of its own."""
        dist = self._site_dist
        if len(dist) > self.spec.k:
            # after k picks the farthest site, max(near) from them, is the
            # (k+1)-th pick; the sites are distinct, so none stops early
            bound = max(farthest_first(dist.__getitem__, self.spec.k)[1])
        else:
            bound = min(d for row in dist for d in row if d > 0.0)
        return max(min(bound, sys.float_info.max) / 2.0, math.ulp(0.0))

    def _spawn_initial_grid(self) -> None:
        """Grid from the lowest guess up to the first guess that spans the
        whole buffer, or up to the last guess whose radii stay finite; every
        instance replays the full buffer, so none of them carries any
        seeding slack."""
        diameter = max(max(row) for row in self._site_dist)
        grid = [self._lowest_guess()]
        while not self._spans(grid[-1], diameter):
            step = self._next_guess(grid[-1])
            if 3.0 * step == math.inf:
                break  # a rung there raises OverflowError, so only extension may reach it
            grid.append(step)
        for guess in grid:
            self._spawn(guess, self.buffer)
        self.bootstrapping = False
        seed = self.buffer
        self.buffer, self._sites, self._site_groups, self._site_dist = [], [], [], []
        if not self.instances:
            # every initial guess overflowed on the buffer itself
            self._extend_grid(seed)

    def _feed(self, point: Point, rungs: list[SolverInstance]) -> None:
        """Feed the point to each rung of ``rungs``, retiring a rung that
        overflows.

        A rung scans the point's ``gates`` in order with ``first_within``,
        which asks only "is a stored point within the radius?". The first scan
        that stops proves the point changes nothing on that rung, and the
        scans after it are never made: a semi rung within its group-1 cap
        reads ``reps2`` before ``reps1``, so a group-2 point its newest
        ``reps2`` member covers costs one evaluation. When none stops, the
        point is clear of every gate's set, and ``process`` is told so
        (``clear``), so it scans none of them again; a group with no gate (a
        semi rung over its group-1 cap, or a late group-1 point) takes the
        full ``process``. The scans' counts are added to ``stats`` once,
        after every rung: the excess ``process`` records does not depend on
        when they are added. A general rung also overflows in ``process``
        once its separation certificate holds k+1 points."""
        group, pc = point.group, point.coords
        first_within = self.metric.first_within
        logical = skipped = 0
        for inst in rungs:
            gates = inst.gates.get(group, ())
            for coords, within in gates:
                logical += len(coords)
                idx = first_within(pc, coords, within)
                if idx >= 0:
                    skipped += idx  # the scan stopped at idx
                    break
            else:
                inst.process(point, clear=bool(gates))
                if inst.overflowed:
                    self._retire(inst)
        self.stats.distance_evals += logical
        self.stats.evals_skipped += skipped

    def _dispatch(self, point: Point) -> None:
        """Feed the point to every live rung through ``_feed``. When the top
        rung stored it in its own group's set or overflowed, extend the grid
        from what the top stored, then the point unless the top stored it."""
        top = next(reversed(self.instances.values()))
        own = top.reps[point.group]
        size = len(own)
        self._feed(point, list(self.instances.values()))
        if len(own) > size:
            self._extend_grid(top.stored_order)  # the point is its last entry
        elif top.overflowed:
            self._extend_grid(top.stored_order + [point])

    def _next_guess(self, guess: float) -> float:
        """One grid step up. Among subnormal numbers a (1+epsilon) factor can
        round back to the guess itself, which would stall the grid forever;
        there the step is one float ulp instead."""
        return max(guess * (1.0 + self.epsilon), math.nextafter(guess, math.inf))

    def _spans(self, guess: float, diameter: float) -> bool:
        """Whether a rung at ``guess`` over points at most ``diameter`` apart
        answers as any higher rung would. At 2g >= D each group keeps at most
        one stored point: a general rung's one-over path serves a group from
        the other within 3g, and a semi rung with a positive group-1 cap
        keeps one ``reps1`` point, so its union answer serves everything. An
        overflow there means a populated group has cap zero and no other
        group can stand in for it. With a zero group-1 cap a semi rung serves
        group 1 only through group-2 stand-ins within one guess (half its
        threshold), so it spans at g >= D."""
        if self.mode == "semi" and self.spec.caps[0] == 0:
            return guess >= diameter
        return 2.0 * guess >= diameter

    def _spawn(self, guess: float, replay: list[Point]) -> SolverInstance | None:
        """Add a rung at ``guess`` seeded by feeding it each point of
        ``replay`` through its gates; a rung the replay overflows is retired
        at once and None is returned."""
        inst = make_instance(self.mode, guess, self.spec, self.metric, self.stats)
        if self.mode == "general":
            # semi rungs keep the paper's overflow rule (ROADMAP item 3c)
            inst.certificate = {1: [], 2: []}
        self.guesses.append(guess)
        self.instances[guess] = inst  # above every live guess, so it is the top
        rung = [inst]
        for p in replay:
            self._feed(p, rung)
            if inst.overflowed:
                return None
        return inst

    def _extend_grid(self, replay: list[Point]) -> SolverInstance:
        """Append grid steps until one accepts the replay without overflowing."""
        base = self.guesses[-1]
        diameter: float | None = None
        while True:
            base = self._next_guess(base)
            inst = self._spawn(base, replay)
            if inst is not None:
                return inst
            if diameter is None:
                diameter = self._diameter(replay)
            if self._spans(base, diameter):
                raise RuntimeError(_UNSERVABLE)

    def _diameter(self, points: list[Point]) -> float:
        """Largest pairwise distance among ``points``, counted as ladder work."""
        self.stats.distance_evals += len(points) * (len(points) - 1) // 2
        diameter = 0.0
        for i, p in enumerate(points):
            for q in points[i + 1 :]:
                diameter = max(diameter, self.metric(p, q))
        return diameter

    def _retire(self, inst: SolverInstance) -> None:
        """Prune a live rung: its stored points leave the live total, its counts stay."""
        del self.instances[inst.radius_guess]
        self.pruned.append(inst.radius_guess)
        self.stats.stored -= inst.stored_count

    # ------------------------------------------------------------------
    # post-streaming
    # ------------------------------------------------------------------
    def finish(self) -> LadderResult:
        """Finalize live instances ascending by guess and return the smallest
        feasible one. One-shot."""
        if self.finished:
            raise RuntimeError("finish is one-shot")
        self.finished = True
        if self.points_seen == 0:
            raise ValueError("empty stream")
        if self.bootstrapping:
            if len(self._sites) < 2:
                return self._degenerate_result()
            self._spawn_initial_grid()
        for guess, inst in self.instances.items():
            outcome = inst.finalize()
            if outcome.feasible:
                return LadderResult(guess, outcome.centers)
        # no grid guess worked; push the grid upward from the top rung's stored
        # set until a guess succeeds or the caps are provably unsatisfiable
        seed = list(next(reversed(self.instances.values())).stored_order)
        diameter = self._diameter(seed)
        while True:
            inst = self._extend_grid(seed)
            outcome = inst.finalize()
            if outcome.feasible:
                return LadderResult(self.guesses[-1], outcome.centers)
            if self._spans(self.guesses[-1], diameter):
                raise RuntimeError(_UNSERVABLE)

    def _degenerate_result(self) -> LadderResult:
        # every buffered point coincides: one point covers the stream at
        # radius zero, provided its group has a positive cap
        for p in self.buffer:
            if self.spec.cap(p.group) >= 1:
                return LadderResult(0.0, CenterSet((p,)))
        raise RuntimeError("no observed group has a positive cap")

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    @property
    def total_stored_peak(self) -> int:
        return self.stats.stored_peak

    @property
    def total_distance_evals(self) -> int:
        return self.stats.distance_evals

    @property
    def per_instance_stored_peak(self) -> int:
        """Largest stored-point count any instance (live or pruned) reached."""
        return self.stats.instance_peak

    @property
    def worst_update_excess(self) -> int:
        """Worst per-point evaluation count relative to the per-instance
        budget, across every instance live or pruned; at most zero when the
        update-time contract holds."""
        return self.stats.update_excess

    @property
    def spawned_count(self) -> int:
        return len(self.guesses)

    @property
    def live_count(self) -> int:
        return len(self.instances)

    @property
    def grid_bound(self) -> int:
        """Upper bound on how many grid guesses the run may spawn:
        one per (1+epsilon) step between the lowest and highest guess."""
        if len(self.guesses) < 2:
            return max(len(self.guesses), 1)
        # a difference of logs: the quotient of the guesses overflows once the
        # lowest guess is subnormal
        log_ratio = math.log(self.guesses[-1]) - math.log(self.guesses[0])
        return math.ceil(log_ratio / math.log(1.0 + self.epsilon) - 1e-9) + 1


def run_known(
    radius: float,
    points: Iterable[Point],
    spec: FairnessSpec,
    mode: str = "general",
    metric: DistanceMetric = EUCLIDEAN,
) -> SolveOutcome:
    """Single-instance run at one fixed radius guess (no ladder).

    A zero radius degrades to exact-duplicate collapsing: the separation
    threshold becomes zero, so only coordinate-distinct points are stored.
    """
    inst = make_instance(mode, radius, spec, metric)
    for p in points:
        inst.process(p)
        if inst.overflowed:
            break
    return inst.finalize()
