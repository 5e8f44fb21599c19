"""Outside-in tracing: spans around calls into the package's public functions
and methods, installed by patching them from here for the length of one
traced solve. The package itself is not modified.

Each span records a name, start and end (``perf_counter_ns``), its parent
span and the solve it belongs to. Spans are kept in flat arrays while the
run lasts and written to one file at its end. A layer's self time is the
duration of its spans minus the part their child spans cover; the
benchmark's own root span per solve keeps whatever no layer accounts for.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = "solve"
NAMES = (
    ROOT,
    "cli.read",
    "ladder.observe",
    "ladder.finish",
    "solver.process",
    "solver.finalize",
    "solver.one_over",
    "solver.cross_graph",
    "solver.cover",
    "semi.process",
    "semi.finalize",
    "independent.offer",
    "independent.nearest",
    "independent.min_dist",
    "core.cost",
    "oracle.brute_force",
    "oracle.run_known",
)
LAYERS = ("cli", "ladder", "solver", "semi", "independent", "core", "oracle")
ID = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    def __init__(self) -> None:
        self.name = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.solve = array("q")
        self.stack = [-1]
        self.solve_id = -1
        self.counts: Counter = Counter()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _enter(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.solve.append(self.solve_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _leave(self, i: int) -> int:
        t = time.perf_counter_ns()
        self.end[i] = t
        self.stack.pop()
        return t - self.start[i]

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` under a span. ``before(args)`` runs ahead of the call and
        its value reaches ``after(args, result, token, duration_ns)``."""
        nid = ID[name]
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            i = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = leave(i)
            if after is not None:
                after(args, result, token, duration)
            return result

        return traced

    def wrap_iter(self, fn, name: str):
        """A generator method under one span per item produced."""
        nid = ID[name]
        enter, leave, counts = self._enter, self._leave, self.counts

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                i = enter(nid)
                try:
                    item = next(items)
                except StopIteration:
                    leave(i)
                    return
                leave(i)
                counts[name + ".items"] += 1
                yield item

        return traced

    @contextmanager
    def solve_span(self, solve_id: int):
        self.solve_id = solve_id
        i = self._enter(ID[ROOT])
        try:
            yield
        finally:
            self._leave(i)
            self.solve_id = -1

    # ------------------------------------------------------------------
    # installing the spans
    # ------------------------------------------------------------------
    @contextmanager
    def installed(self, fk: SimpleNamespace):
        """Patch every traced entry point of the package for the duration
        of the block, and put the originals back afterwards."""
        counts = self.counts
        added = fk.independent.OfferStatus.ADDED

        def count_added(args, result, token, duration):
            if result.status is added:
                counts["independent.added"] += 1

        def count_path(layer):
            def after(args, result, token, duration):
                counts[f"{layer}.path.{args[0].path}"] += 1
                if result.feasible:
                    counts[f"{layer}.feasible"] += 1

            return after

        def standins_before(args):
            return len(args[0].replacements)

        def count_standins(args, result, token, duration):
            counts["semi.standins"] += len(args[0].replacements) - token

        def observe_before(args):
            ladder = args[0]
            return ladder.bootstrapping, ladder.spawned_count

        def observe_after(args, result, token, duration):
            ladder = args[0]
            bootstrapping, spawned = token
            counts["ladder.live_sum"] += ladder.live_count
            if bootstrapping:
                counts["ladder.bootstrap_ns"] += duration
            elif ladder.spawned_count > spawned:
                counts["ladder.extend_calls"] += 1
                counts["ladder.extend_ns"] += duration

        def count_subsets(args, result, token, duration):
            counts["oracle.subsets"] += result.evaluated

        def count_pairs(args, result, token, duration):
            counts["core.cost_pairs"] += len(args[0]) * len(args[1])

        targets = [
            (fk.cli.PointReader, "__iter__", lambda fn: self.wrap_iter(fn, "cli.read")),
            (fk.ladder.Ladder, "observe", lambda fn: self.wrap(fn, "ladder.observe", observe_before, observe_after)),
            (fk.ladder.Ladder, "finish", lambda fn: self.wrap(fn, "ladder.finish")),
            (fk.solver.StreamInstance, "process", lambda fn: self.wrap(fn, "solver.process")),
            (fk.solver.StreamInstance, "finalize", lambda fn: self.wrap(fn, "solver.finalize", after=count_path("solver"))),
            (fk.solver, "select_with_one_group_over", lambda fn: self.wrap(fn, "solver.one_over")),
            (fk.solver, "build_cross_graph", lambda fn: self.wrap(fn, "solver.cross_graph")),
            (fk.solver, "select_with_both_groups_over", lambda fn: self.wrap(fn, "solver.cover")),
            (fk.semi.SemiInstance, "process", lambda fn: self.wrap(fn, "semi.process", standins_before, count_standins)),
            (fk.semi.SemiInstance, "finalize", lambda fn: self.wrap(fn, "semi.finalize", after=count_path("semi"))),
            (fk.independent.IndependentSet, "offer", lambda fn: self.wrap(fn, "independent.offer", after=count_added)),
            (fk.independent.IndependentSet, "nearest", lambda fn: self.wrap(fn, "independent.nearest")),
            (fk.independent.IndependentSet, "min_dist", lambda fn: self.wrap(fn, "independent.min_dist")),
            (fk.core, "clustering_cost", lambda fn: self.wrap(fn, "core.cost", after=count_pairs)),
            (fk.oracle, "brute_force_opt", lambda fn: self.wrap(fn, "oracle.brute_force", after=count_subsets)),
            (fk.ladder, "run_known", lambda fn: self.wrap(fn, "oracle.run_known")),
        ]
        originals = []
        try:
            for owner, attr, make in targets:
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint8),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "solve": np.frombuffer(self.solve, dtype=np.int64),
        }

    def totals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per span name: call count, inclusive nanoseconds, self nanoseconds."""
        a = self.arrays()
        duration = (a["end"] - a["start"]).astype(np.float64)
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=duration[nested], minlength=len(duration))
        own = duration - covered
        size = len(NAMES)
        calls = np.bincount(a["name"], minlength=size)
        inclusive = np.bincount(a["name"], weights=duration, minlength=size)
        self_ns = np.bincount(a["name"], weights=own, minlength=size)
        return calls, inclusive, self_ns

    def write(self, path: Path) -> None:
        """Every span, as parallel arrays indexed by span id; ``name`` indexes
        ``names`` and a ``parent`` of -1 marks a root span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(handle, names=np.array(NAMES), **self.arrays())
