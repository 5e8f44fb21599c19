"""The host's speed, read from a fixed reference kernel timed between chunks
of the measured work.

Other tenants of the host slow this process by up to about 1.9x, in phases
that last from a fraction of a second to minutes; a whole run can fall into
one. So the timed work is cut into chunks of about ``CHUNK_NS``, the
reference kernel runs before the first chunk and after each one, outside
the timed work, and every chunk's time is scaled by ``REF_NS`` over the
mean of the reference's times just before and just after it. A scaled time
reads as the time the work would have taken at the speed at which the
reference takes ``REF_NS``: about the host's full speed. The kernel costs
about 4% of the run.

The kernel does the two kinds of work the package's hot paths do, small
numpy distance scans and pure-Python loops over index tuples, on inputs
fixed here. It does not touch the package, so a change to the package moves
the scaled times as much as the raw ones.
"""

from __future__ import annotations

import itertools
import math
import time
from array import array

import numpy as np

# The reference kernel's time at the full speed of a 2-vCPU x86-64 cloud
# host (median of its fast phases). Only the ratio between runs on one host
# matters; this fixes the scale at which scaled times read as seconds.
REF_NS = 900_000
CHUNK_NS = 25_000_000

_rng = np.random.default_rng(20251006)
_POINTS = [tuple(_rng.random(2)) for _ in range(76)]
_STORED = [_rng.random((n, 2)) for n in (8, 16, 32, 64)]
_DIST = [[math.dist(p, q) for q in _POINTS[:9]] for p in _POINTS[:9]]


def reference() -> int:
    """Run the reference kernel once; returns its time in nanoseconds."""
    started = time.perf_counter_ns()
    total = 0.0
    for i in range(75):
        stored = _STORED[i & 3]
        diff = stored - np.asarray(_POINTS[i], dtype=np.float64)
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        total += float(d[int(np.argmin(d))]) + math.dist(_POINTS[i], _POINTS[i + 1])
    for combo in itertools.combinations(range(9), 3):
        total += max(min(_DIST[i][c] for c in combo) for i in range(9))
    return time.perf_counter_ns() - started


def reference_median(times: int = 21) -> float:
    """Median time of ``times`` runs of the reference kernel, in ns."""
    return float(np.median([reference() for _ in range(times)]))


class Chunks:
    """Cuts a stream of timed operations into chunks of about ``CHUNK_NS``.

    Call ``tick`` after every operation and ``close`` after the last. With
    ``probe`` false the reference kernel is not run and no time is scaled,
    as in a traced solve, whose time is compared raw with untraced ones."""

    def __init__(self, probe: bool = True) -> None:
        self.probe = probe
        self.ends = array("q")  # operations done when each chunk closed
        self.wall = array("q")  # each chunk's time, reference excluded
        # the reference kernel's time before the first chunk and after each
        self.ref = array("q", [reference() if probe else REF_NS])
        self.mark = time.perf_counter_ns()

    def tick(self, done: int, now: int) -> None:
        if self.probe and now - self.mark >= CHUNK_NS:
            self.close(done, now)

    def close(self, done: int, now: int) -> None:
        self.ends.append(done)
        self.wall.append(now - self.mark)
        self.ref.append(reference() if self.probe else REF_NS)
        self.mark = time.perf_counter_ns()

    @property
    def seconds(self) -> float:
        """Raw time of the work."""
        return sum(self.wall) / 1e9

    def factors(self) -> np.ndarray:
        """Per chunk: the factor that scales its times to full speed."""
        ref = np.frombuffer(self.ref, dtype=np.int64)
        return 2 * REF_NS / (ref[:-1] + ref[1:])

    def scaled_seconds(self) -> float:
        return float(np.frombuffer(self.wall, dtype=np.int64) @ self.factors()) / 1e9

    def scale(self, latencies: array) -> np.ndarray:
        """Per-operation times in ns, each scaled by its chunk's factor."""
        counts = np.diff(np.frombuffer(self.ends, dtype=np.int64), prepend=0)
        return np.frombuffer(latencies, dtype=np.int64) * np.repeat(self.factors(), counts)
