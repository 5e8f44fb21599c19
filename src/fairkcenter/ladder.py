"""Parallel radius guessing over a single pass of the stream.

The optimal radius is unknown up front, so a geometric grid of guesses runs
side by side, each guess owning one solver instance fed every point. The
grid starts at the smallest positive pairwise gap among the first k+2
buffered points. That lowest guess is not always at or below the optimal
radius. When the buffer holds k+1 distinct points, two of them share an
optimal cluster, but that only puts the gap at or below twice the optimum;
when duplicates leave k distinct points, the gap bounds nothing. So every
answer meets the caps and costs at most 5x (general) or 3x (semi) its own
guess, but the 5(1+epsilon) / 3(1+epsilon) bounds against the optimum hold
only when the lowest guess does not overshoot it (ROADMAP item 3a).

Guesses that provably undershoot prune themselves when their stored sets
overflow. When the stream outgrows the largest guess (a point lands beyond
its covering threshold from everything that guess stored), the grid extends
upward one step at a time, seeding each new instance by replaying the
stored points of the largest existing one; the slack that replay seeding
introduces is covered by the grid's step factor.

NOTES
-----
* Memory stays at O(k) stored points per instance and one grid instance per
  (1+epsilon) step between the lowest and highest guess.
* A fully degenerate stream (every point coincident) never yields a positive
  gap; it short-circuits to a single deduplicated center at radius zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .core import EUCLIDEAN, CenterSet, DistanceMetric, FairnessSpec, Point, RunStats
from .semi import SemiInstance
from .solver import SolveOutcome, SolverInstance, StreamInstance

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
        if spec.m != 2:
            raise ValueError("the ladder handles exactly two groups")
        if not 0.0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        if 1.0 + epsilon == 1.0:
            # a (1+epsilon) step would round back to the guess, and the grid
            # would climb one float ulp at a time
            raise ValueError(f"epsilon {epsilon} is too small: 1 + epsilon rounds to 1")
        make_instance(mode, 0.0, spec, metric)  # rejects an unknown mode now, not at the first rung
        self.spec = spec
        self.metric = metric
        self.epsilon = float(epsilon)
        self.mode = mode
        self.buffer: list[Point] = []
        self._buffer_min_gap = math.inf  # smallest positive pairwise distance
        self._buffer_diameter = 0.0
        self.bootstrapping = True
        # live rungs by guess, in insertion order, which is ascending: every
        # spawn sits above all earlier guesses, so the last one is the top
        self.instances: dict[float, SolverInstance] = {}
        self.guesses: list[float] = []  # every grid point ever spawned, ascending
        self.pruned: list[float] = []
        self.points_seen = 0
        self.dim: int | None = None  # the stream's dimension, set by its first point
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
        self.points_seen += 1
        if self.bootstrapping:
            self._buffer_point(point)
            if len(self.buffer) >= self.spec.k + 2 and self._buffer_min_gap < math.inf:
                self._spawn_initial_grid()
        else:
            self._dispatch(point)
        stats = self.stats
        stats.stored_peak = max(stats.stored_peak, len(self.buffer) + stats.stored)

    def _buffer_point(self, point: Point) -> None:
        self.stats.distance_evals += len(self.buffer)
        for other in self.buffer:
            d = self.metric(point, other)
            if 0.0 < d < self._buffer_min_gap:
                self._buffer_min_gap = d
            if d > self._buffer_diameter:
                self._buffer_diameter = d
        self.buffer.append(point)

    def _spawn_initial_grid(self) -> None:
        """Grid from the smallest positive buffer gap up to a guess whose
        covering threshold spans the whole buffer, or up to the last guess
        whose radii stay finite; every instance replays the full buffer, so
        none of them carries any seeding slack."""
        low = self._buffer_min_gap
        grid = [low]
        while 2.0 * grid[-1] < self._buffer_diameter:
            step = self._next_guess(grid[-1])
            if 3.0 * step == math.inf:
                break  # a rung there raises OverflowError, so only extension may reach it
            grid.append(step)
        for guess in grid:
            self._spawn(guess, self.buffer)
        self.bootstrapping = False
        seed = self.buffer
        self.buffer = []
        if not self.instances:
            # every initial guess overflowed on the buffer itself
            self._extend_grid(seed, pending=None)

    def _dispatch(self, point: Point) -> None:
        """Feed the point to every live rung, the top one last.

        A rung below the top scans the point's ``gates`` in order with the
        kernel, each stopping at the first stored point within its radius. The
        first scan that stops proves the point changes nothing on that rung.
        When none stops, each scan was the exact one ``process`` would make,
        so ``process`` runs on them; a group with no gate (a semi rung over
        its group-1 cap, a late group-1 point, or a group outside 1 and 2,
        which the first rung's ``process`` refuses) takes the full
        ``process``. The scans' counts are added to ``stats`` once per point,
        and before any ``process`` call, which reads them for its update
        excess."""
        live = list(self.instances.items())
        top_guess, top = live.pop()
        group = point.group
        nearest = self.metric.nearest
        stats = self.stats
        logical = skipped = 0
        for guess, inst in live:
            scans = ()
            for coords, within in inst.gates.get(group, ()):
                logical += len(coords)
                d, idx = nearest(point, coords, within)
                if d <= within:
                    skipped += idx  # the scan stopped at idx
                    break
                scans += ((d, idx),)
            else:
                stats.distance_evals += logical
                stats.evals_skipped += skipped
                logical = skipped = 0
                inst.process(point, scans=scans)
                if inst.overflowed:
                    self._retire(guess, self.instances.pop(guess))
        stats.distance_evals += logical
        stats.evals_skipped += skipped
        # the top rung also probes the other group: the grid-extension test
        # needs the nearest stored distance over both
        nearest_all = top.process(point, probe_other=True)
        if top.overflowed:
            self._retire(top_guess, self.instances.pop(top_guess))
            # the top guess just proved too small: its successor replays what
            # it stored and then sees the point that broke it
            self._extend_grid(list(top.stored_order), pending=point)
        elif nearest_all > top.threshold:
            # the stream outgrew the top guess; the point itself was stored,
            # so the replay seed already contains it
            self._extend_grid(list(top.stored_order), pending=None)

    def _next_guess(self, guess: float) -> float:
        """One grid step up. Among subnormal numbers a (1+epsilon) factor can
        round back to the guess itself, which would stall the grid forever;
        there the step is one float ulp instead."""
        return max(guess * (1.0 + self.epsilon), math.nextafter(guess, math.inf))

    def _spawn(self, guess: float, replay: list[Point]) -> SolverInstance | None:
        """Add a rung at ``guess`` seeded by replaying ``replay``; a rung the
        replay overflows is retired at once and None is returned."""
        inst = make_instance(self.mode, guess, self.spec, self.metric, self.stats)
        self.guesses.append(guess)
        for p in replay:
            inst.process(p)
            if inst.overflowed:
                self._retire(guess, inst)
                return None
        self.instances[guess] = inst
        return inst

    def _extend_grid(self, seed: list[Point], pending: Point | None) -> SolverInstance:
        """Append grid steps until one accepts the seed replay (and the
        pending point, when given) without overflowing."""
        base = self.guesses[-1]
        replay = seed + ([pending] if pending is not None else [])
        diameter: float | None = None
        while True:
            base = self._next_guess(base)
            inst = self._spawn(base, replay)
            if inst is not None:
                return inst
            if diameter is None:
                diameter = self._diameter(replay)
            if 2.0 * base >= diameter:
                # at this threshold each group keeps at most one stored point,
                # so an overflow means a populated group has cap zero and no
                # other group can stand in for it
                raise RuntimeError(_UNSERVABLE)

    def _diameter(self, points: list[Point]) -> float:
        """Largest pairwise distance among ``points``, counted as ladder work."""
        self.stats.distance_evals += len(points) * (len(points) - 1) // 2
        diameter = 0.0
        for i, p in enumerate(points):
            for q in points[i + 1 :]:
                diameter = max(diameter, self.metric(p, q))
        return diameter

    def _retire(self, guess: float, inst: SolverInstance) -> None:
        """Prune a rung: its stored points leave the live total, its counts stay."""
        self.pruned.append(guess)
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
            if self._buffer_min_gap < math.inf:
                self._spawn_initial_grid()
            else:
                return self._degenerate_result()
        for guess, inst in self.instances.items():
            outcome = inst.finalize()
            if outcome.feasible:
                return LadderResult(guess, outcome.centers)
        # no grid guess worked; push the grid upward from the top rung's stored
        # set until a guess succeeds or the caps are provably unsatisfiable
        seed = list(next(reversed(self.instances.values())).stored_order)
        diameter = self._diameter(seed)
        while True:
            inst = self._extend_grid(seed, pending=None)
            outcome = inst.finalize()
            if outcome.feasible:
                return LadderResult(self.guesses[-1], outcome.centers)
            if self.guesses[-1] >= diameter:
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
    def total_evals_performed(self) -> int:
        """Distance evaluations actually made: ``total_distance_evals`` less
        what scans that stop at a covering point skip."""
        return self.stats.evals_performed

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
