"""Streaming k-center clustering under per-group center caps.

One-pass solvers at a fixed radius guess (general two-group streams and
group-sorted streams), a geometric radius-guess ladder that removes the
known-radius assumption, and verification tooling: an exhaustive oracle, a
farthest-first baseline, and a planted-dataset generator with a known
optimum.
"""

from .core import (
    EUCLIDEAN,
    CenterSet,
    DistanceMetric,
    FairnessSpec,
    Point,
    check_fairness,
    clustering_cost,
)
from .independent import IndependentSet, OfferStatus
from .ladder import Ladder, run_known
from .oracle import (
    GenerationError,
    SizeGuardError,
    brute_force_opt,
    generate_planted,
    gonzalez,
)
from .semi import SemiInstance, StreamOrderError
from .solver import InfeasibleReason, SolveOutcome, StreamInstance

__all__ = [
    "EUCLIDEAN",
    "CenterSet",
    "DistanceMetric",
    "FairnessSpec",
    "GenerationError",
    "IndependentSet",
    "InfeasibleReason",
    "Ladder",
    "OfferStatus",
    "Point",
    "SemiInstance",
    "SizeGuardError",
    "SolveOutcome",
    "StreamInstance",
    "StreamOrderError",
    "brute_force_opt",
    "check_fairness",
    "clustering_cost",
    "generate_planted",
    "gonzalez",
    "run_known",
]
