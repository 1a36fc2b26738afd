"""Degree-2 and spectral test statistics for detecting a planted ranking.

The wedge statistic sums T_{i,j} T_{i,k} over all length-2 paths; it is a
shifted sample variance of the win scores, with known moments under both
models.  The spectral statistic is the largest eigenvalue of i*T, equal to
the largest singular value of T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, Tournament

__all__ = [
    "DetectionVerdict",
    "spectral_statistic",
    "spectral_test",
    "wedge_null_moments",
    "wedge_planted_mean",
    "wedge_statistic",
    "wedge_test",
]


@dataclass(frozen=True)
class DetectionVerdict:
    """Outcome of a threshold test: planted iff the statistic meets it."""

    statistic_value: float
    threshold: float

    @property
    def verdict(self) -> str:
        return "planted" if self.statistic_value >= self.threshold else "null"

    @property
    def is_planted(self) -> bool:
        return self.statistic_value >= self.threshold


def wedge_statistic(t: Tournament) -> int:
    """Sum of T_{i,j} T_{i,k} over wedges, via the win-score identity.

    Computed in O(n^2) as (1/2) sum_i s_i^2 - n(n-1)/2; this equals the
    direct triple sum over all paths of length two.
    """
    s = t.scores()
    n = t.n
    return (int(np.sum(s * s)) - n * (n - 1)) // 2


def wedge_null_moments(n: int) -> tuple[float, float]:
    """(mean, second moment) of the wedge statistic under the null model."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 0.0, n * (n - 1) * (n - 2) / 2.0


def wedge_planted_mean(params: ModelParams) -> float:
    """Planted mean of the wedge statistic: C(n,3) * (2*gamma)^2."""
    return math.comb(params.n, 3) * (2.0 * params.gamma) ** 2


def wedge_test(t: Tournament, params: ModelParams) -> DetectionVerdict:
    """Threshold the wedge statistic halfway between null and planted means.

    The midpoint maximizes the margin against both variances in the
    Chebyshev argument; gamma must be positive for the means to separate.
    """
    if params.gamma <= 0.0:
        raise ValueError("wedge_test requires gamma > 0")
    if t.n != params.n:
        raise ValueError(f"tournament has n={t.n} but params.n={params.n}")
    threshold = 0.5 * wedge_planted_mean(params)
    return DetectionVerdict(float(wedge_statistic(t)), threshold)


def spectral_statistic(t: Tournament) -> float:
    """Largest eigenvalue of i*T, computed as the top singular value of T."""
    mat = t.to_matrix().astype(np.float64)
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def spectral_test(t: Tournament, epsilon: float) -> DetectionVerdict:
    """Declare planted iff spectral_statistic / sqrt(n) >= 2 + epsilon."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    scaled = spectral_statistic(t) / math.sqrt(t.n)
    return DetectionVerdict(scaled, 2.0 + epsilon)
