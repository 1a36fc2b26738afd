"""Degree-2 and spectral test statistics for detecting a planted ranking.

The wedge statistic sums T_{i,j} T_{i,k} over all length-2 paths; it is a
shifted sample variance of the win scores, with known moments under both
models.  The spectral statistic is the largest eigenvalue of i*T, equal to
the largest singular value of T.  It is found by Lanczos iteration on T alone
(one matrix-vector product per step, never a full SVD), so its cost grows
with the number of steps the top eigenvalue needs to converge, not with n^3.
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
    "wedge_from_scores",
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
    def is_planted(self) -> bool:
        return self.statistic_value >= self.threshold


def wedge_statistic(t: Tournament) -> int:
    """Sum of T_{i,j} T_{i,k} over wedges: ``wedge_from_scores(t.scores())``."""
    return wedge_from_scores(t.scores())


def wedge_from_scores(s: np.ndarray) -> int:
    """Wedge statistic of the tournament whose win scores are ``s``.

    Computed in O(n) as (1/2) sum_i s_i^2 - n(n-1)/2; this equals the direct
    triple sum of T_{i,j} T_{i,k} over all paths of length two.
    """
    s = np.asarray(s, dtype=np.int64)
    n = s.size
    return (int(s @ s) - n * (n - 1)) // 2


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


# Lanczos stops once the top Ritz pair's residual, which bounds the error of
# its Ritz value, is below this fraction of that value.
_RESIDUAL_TOL = 1e-14
# Lanczos steps between two convergence checks.
_CHECK_EVERY = 8


def _top_ritz_pair(betas: list[float]) -> tuple[float, float]:
    """Top eigenvalue of the zero-diagonal tridiagonal with off-diagonal betas,
    and the last entry of its unit eigenvector.

    Listing the even rows before the odd ones turns the tridiagonal into
    [[0, B], [B^T, 0]], with B lower bidiagonal (diagonal betas[0::2],
    subdiagonal betas[1::2]).  So the eigenvalue is B's top singular value s,
    with eigenvector (u, v) / sqrt(2) where B v = s u.
    """
    m = len(betas) + 1
    if m == 1:
        return 0.0, 1.0
    b = np.zeros(((m + 1) // 2, m // 2))
    np.fill_diagonal(b, betas[0::2])
    np.fill_diagonal(b[1:], betas[1::2])
    u, s, vt = np.linalg.svd(b)
    last = u[-1, 0] if m % 2 else vt[0, -1]
    return float(s[0]), float(last) / math.sqrt(2.0)


def spectral_statistic(t: Tournament) -> float:
    """Largest eigenvalue of i*T (the top singular value of T), by Lanczos.

    The spectrum of the Hermitian i*T is +-sigma_j, so its top eigenvalue is
    simple.  Lanczos on i*T from a real start vector keeps every Lanczos
    vector real up to a factor i^k, with a zero diagonal in the tridiagonal,
    so the loop runs on the real T: beta_k v_{k+1} = T v_k + beta_{k-1} v_{k-1}.
    Each new vector is reorthogonalized against all earlier ones.  The loop
    stops when the top Ritz residual beta_k |y_k| is below 1e-14 of the Ritz
    value, on breakdown, or after n steps, where the value is exact.  The
    start vector is fixed per n, so the value depends on the tournament only.
    """
    n = t.n
    mat = t.to_matrix().astype(np.float64)
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    basis = np.empty((min(n, 2 * _CHECK_EVERY), n))
    betas: list[float] = []
    beta = beta_max = theta = 0.0
    for k in range(n):
        if k == len(basis):
            basis = np.concatenate((basis, np.empty((min(k, n - k), n))))
        basis[k] = v
        w = mat @ v
        if k:
            w += beta * basis[k - 1]
        w -= (basis[: k + 1] @ w) @ basis[: k + 1]
        beta = float(np.linalg.norm(w))
        beta_max = max(beta_max, beta)
        # The top Ritz value is at least beta_max, so a beta this small
        # (a breakdown) already meets the residual test.
        if (k + 1) % _CHECK_EVERY == 0 or k + 1 == n or beta <= _RESIDUAL_TOL * beta_max:
            theta, last = _top_ritz_pair(betas)
            if beta * abs(last) <= _RESIDUAL_TOL * theta:
                break
        betas.append(beta)
        v = w / beta
    return theta


def spectral_test(t: Tournament, epsilon: float) -> DetectionVerdict:
    """Declare planted iff spectral_statistic / sqrt(n) >= 2 + epsilon."""
    if not epsilon > 0.0:  # also rejects NaN
        raise ValueError("epsilon must be positive")
    scaled = spectral_statistic(t) / math.sqrt(t.n)
    return DetectionVerdict(scaled, 2.0 + epsilon)
