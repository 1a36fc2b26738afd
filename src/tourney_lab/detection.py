"""Degree-2 and spectral test statistics for detecting a planted ranking.

The wedge statistic sums T_{i,j} T_{i,k} over all length-2 paths; it is a
shifted sample variance of the win scores, with known moments under both
models.  The spectral statistic is the largest eigenvalue of i*T, equal to
the largest singular value of T.  It is found by Lanczos iteration on T alone
(one matrix-vector product per step, never a full SVD), so its cost grows
with the number of steps the top eigenvalue needs to converge, not with n^3.
No n x n matrix is built: T v = U v - U^T v for U the strict upper triangle
of T, held in the row blocks of ``Tournament.upper_blocks`` (about n^2 / 2
numbers), and each block is read twice while it is cached.
One Lanczos loop runs twice: a float32 pass, which reads T's +-1 entries
exactly in half the bytes, only picks the start vector of a float64 pass, and
the float64 pass decides the value.  It stops once the value has converged,
which is about when the residual's square, not the residual, is negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, Tournament, as_reals, check_same_size, check_size

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
    triple sum of T_{i,j} T_{i,k} over all paths of length two.  ``s`` holds whole numbers.
    """
    s = as_reals(s, "scores")
    # Check before the int cast, which would truncate 1.5 to 1.
    if s.ndim != 1 or (s.dtype.kind == "f" and not np.all(np.isfinite(s) & (s == np.trunc(s)))):
        raise ValueError("scores must be a 1-d array of whole numbers")
    s = s.astype(np.int64, copy=False)
    n = s.size
    return (int(s @ s) - n * (n - 1)) // 2


def wedge_null_moments(n: int) -> tuple[float, float]:
    """(mean, second moment) of the wedge statistic under the null model."""
    n = check_size(n)
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
    check_same_size(t, params)
    threshold = 0.5 * wedge_planted_mean(params)
    return DetectionVerdict(float(wedge_statistic(t)), threshold)


# The Lanczos passes of spectral_statistic, in order: (dtype, residual_tol,
# value_residual_tol, value_tol, breakdown_tol).  A pass stops once the top Ritz
# pair's residual r, which bounds the error of its Ritz value theta, is at most
# residual_tol * theta, or once r <= value_residual_tol * theta and r^2 <=
# value_tol * theta * (theta - theta2): the Ritz value's error is about r^2 / gap,
# so the value has converged while the vector has not.  It also stops on a beta
# at most breakdown_tol of the largest.  The float32 pass only supplies the
# float64 pass's start vector, so it skips the value rule.
_PASSES = (
    (np.float32, 3e-6, 0.0, 0.0, 1e-6),
    (np.float64, 1e-14, 1e-6, 1e-15, 1e-14),
)
# Lanczos steps between two convergence checks.
_CHECK_EVERY = 4


def _top_ritz_pair(betas: list[float]) -> tuple[float, float, np.ndarray]:
    """Top two eigenvalues of the zero-diagonal tridiagonal with off-diagonal
    betas, and the unit eigenvector of the top one.

    Listing the even rows before the odd ones turns the tridiagonal into
    [[0, B], [B^T, 0]], with B lower bidiagonal (diagonal betas[0::2],
    subdiagonal betas[1::2]).  So its eigenvalues are +-B's singular values
    (and 0 for an odd size), and the top eigenvector is (u, v) / sqrt(2) where
    B v = s u.  The second eigenvalue is taken as 0 below two singular values.
    """
    m = len(betas) + 1
    if m == 1:
        return 0.0, 0.0, np.ones(1)
    b = np.zeros(((m + 1) // 2, m // 2))
    np.fill_diagonal(b, betas[0::2])
    np.fill_diagonal(b[1:], betas[1::2])
    u, s, vt = np.linalg.svd(b)
    y = np.empty(m)
    y[0::2] = u[:, 0]
    y[1::2] = vt[0]
    return float(s[0]), float(s[1]) if s.size > 1 else 0.0, y / math.sqrt(2.0)


class _UpperBlockProduct:
    """The operator T of _lanczos, over the blocks of ``t.upper_blocks(dtype)``.

    For block u of rows a..b-1 and columns a..n-1, T v gathers u v[a:] into
    y[a:b] and takes v[a:b] u from y[a:], so u is read twice in a row.
    """

    def __init__(self, t: Tournament, dtype):
        self.dtype = np.dtype(dtype)
        self._blocks = t.upper_blocks(dtype)
        self._n = t.n

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        y = np.zeros(self._n, dtype=self.dtype)
        for a, b, u in self._blocks:
            y[a:b] += u @ v[a:]
            y[a:] -= v[a:b] @ u
        return y


def _lanczos(
    mat,
    v: np.ndarray,
    residual_tol: float,
    value_residual_tol: float,
    value_tol: float,
    breakdown_tol: float,
) -> tuple[float, np.ndarray]:
    """Top eigenvalue of i*mat by Lanczos from the real unit vector v, in mat's dtype.

    ``mat`` is any real skew-symmetric operator with ``@`` and ``dtype``: a
    dense array or a _UpperBlockProduct.

    Returns the top Ritz value and the real part of its Ritz vector, scaled to
    unit norm.  The loop checks the stopping rules of _PASSES every
    _CHECK_EVERY steps, and stops on breakdown or after n steps.
    """
    n = len(v)
    basis = np.empty((min(n, 2 * _CHECK_EVERY), n), dtype=mat.dtype)
    betas: list[float] = []
    beta = beta_max = 0.0
    for k in range(n):
        if k == len(basis):
            basis = np.concatenate((basis, np.empty((min(k, n - k), n), dtype=mat.dtype)))
        basis[k] = v
        w = mat @ basis[k]
        if k:
            w += beta * basis[k - 1]
        w -= (basis[: k + 1] @ w) @ basis[: k + 1]
        beta = float(np.linalg.norm(w))
        beta_max = max(beta_max, beta)
        breakdown = beta <= breakdown_tol * beta_max
        if (k + 1) % _CHECK_EVERY == 0 or k + 1 == n or breakdown:
            theta, theta2, y = _top_ritz_pair(betas)
            r = beta * abs(y[-1])
            if breakdown or r <= residual_tol * theta:
                break
            if r <= value_residual_tol * theta and r * r <= value_tol * theta * (theta - theta2):
                break
        betas.append(beta)
        v = w / beta
    # Lanczos vector k of i*mat is i^k basis[k], so the even ones make the real part.
    signs = np.where(np.arange(0, k + 1, 2) % 4, -1.0, 1.0)
    x = (signs * y[0::2]) @ basis[: k + 1 : 2]
    return theta, x / np.linalg.norm(x)


def _fixed_start(n: int) -> np.ndarray:
    """The first pass's start vector: fixed per n, so the value depends on the tournament only."""
    v = np.random.default_rng(0).standard_normal(n)
    return v / np.linalg.norm(v)


def spectral_statistic(t: Tournament) -> float:
    """Largest eigenvalue of i*T (the top singular value of T), by Lanczos.

    The spectrum of the Hermitian i*T is +-sigma_j, so its top eigenvalue is
    simple.  Lanczos on i*T from a real start vector keeps every Lanczos
    vector real up to a factor i^k, with a zero diagonal in the tridiagonal,
    so the loop runs on the real T: beta_k v_{k+1} = T v_k + beta_{k-1} v_{k-1}.
    Each new vector is reorthogonalized against all earlier ones.

    Two passes run this one loop, each on T's upper row blocks in its own
    dtype, which live for that pass only.  A float32 pass on T (whose +-1 entries
    float32 holds exactly, in half the bytes) starts from a vector fixed per n
    and stops at a Ritz residual of 3e-6 of the value; it yields only the real
    part of its top Ritz vector.  A float64 pass from that vector decides the
    value.  It stops at a Ritz residual of 1e-14 of the value, or once the
    residual r is below 1e-6 of the value and r^2 / (theta1 - theta2), the
    value's error, below 1e-15 of it.  Both passes also stop on breakdown or
    after n steps, where the value is exact.
    """
    v = _fixed_start(t.n)
    for dtype, *tols in _PASSES:
        # The Ritz vector is copied into v, which predates every pass's blocks.
        # A vector allocated during a pass can land above its freed blocks in
        # the heap; then the next pass's blocks grow the heap past them, by
        # 2.7 MiB of peak RSS at n = 1200, depending on the heap's layout.
        theta, v[:] = _lanczos(_UpperBlockProduct(t, dtype), v, *tols)
    return theta


def check_epsilon(epsilon) -> None:
    """Refuse a spectral margin ``epsilon`` that is not a finite positive number."""
    if as_reals(epsilon, "epsilon").ndim or not 0.0 < epsilon < math.inf:  # also rejects NaN
        raise ValueError(f"epsilon must be a finite positive number, got {epsilon!r}")


def spectral_test(t: Tournament, epsilon: float) -> DetectionVerdict:
    """Declare planted iff spectral_statistic / sqrt(n) >= 2 + epsilon."""
    check_epsilon(epsilon)
    scaled = spectral_statistic(t) / math.sqrt(t.n)
    return DetectionVerdict(scaled, 2.0 + epsilon)
