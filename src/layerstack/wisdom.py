"""Crowd-error decomposition.

For individual estimates x_i of a true value P, with C the crowd mean:

    (C - P)^2 = mean((x_i - P)^2) - mean((x_i - C)^2)

an algebraic identity, so the crowd's squared error never exceeds the average
individual squared error, and the gap is exactly the prediction diversity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: relative/absolute tolerance for the decomposition identity
IDENTITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CrowdPrediction:
    """Individual predictions plus the realized true value."""

    individuals: np.ndarray
    truth: float

    def __post_init__(self) -> None:
        values = np.asarray(self.individuals, dtype=float).copy()
        if values.ndim != 1 or values.size < 1:
            raise ValueError("individuals must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(values)) or not math.isfinite(self.truth):
            raise ValueError("predictions and truth must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "individuals", values)
        object.__setattr__(self, "truth", float(self.truth))


@dataclass(frozen=True)
class CrowdDecomposition:
    """The three error terms of the crowd identity, plus the crowd mean."""

    crowd_mean: float
    crowd_sq_error: float
    avg_individual_sq_error: float
    diversity: float

    def __post_init__(self) -> None:
        if self.diversity < 0.0:
            raise ValueError(f"diversity {self.diversity!r} is negative")
        if not math.isclose(
            self.crowd_sq_error + self.diversity,
            self.avg_individual_sq_error,
            rel_tol=IDENTITY_TOL,
            abs_tol=IDENTITY_TOL,
        ):
            raise ValueError(
                "crowd_sq_error + diversity != avg_individual_sq_error: "
                f"{self.crowd_sq_error!r} + {self.diversity!r} vs "
                f"{self.avg_individual_sq_error!r}"
            )


def crowd_decomposition(pred: CrowdPrediction) -> CrowdDecomposition:
    """Decompose the crowd's squared error into average individual squared
    error minus prediction diversity, with the crowd defined as the mean."""
    xs = pred.individuals
    truth = pred.truth
    mean = float(xs.mean())
    return CrowdDecomposition(
        crowd_mean=mean,
        crowd_sq_error=(mean - truth) ** 2,
        avg_individual_sq_error=float(np.mean((xs - truth) ** 2)),
        diversity=float(np.mean((xs - mean) ** 2)),
    )


def aggregate_round_quality(
    per_cluster_scores: Sequence[float], global_score: float
) -> CrowdDecomposition:
    """Treat per-cluster best correlations as a crowd predicting the global
    best correlation: a diagnostic of how much the clusters disagree."""
    if len(per_cluster_scores) < 1:
        raise ValueError("need at least one cluster score")
    return crowd_decomposition(CrowdPrediction(per_cluster_scores, global_score))
