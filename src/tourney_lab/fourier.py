"""Shape monomials, exact planted expectations, and exact small-n divergences.

Functions of a tournament expand in the basis of monomials T^S indexed by
shapes (edge subsets of K_n).  Under the planted model the expectation of
T^S factors as (2*gamma)^|S| times a sign average over the relative orders
of the touched vertices; summing squared expectations over all shapes gives
the chi-squared divergence between planted and null.  Everything here is
exact.  Sign averages enumerate the orders of a shape's vertices; the
divergences read the planted pmf over all 2^m tournaments, which is the
histogram of the n! ranking codes smoothed by the per-edge noise, and are
guarded to small n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    ModelParams,
    as_int,
    check_gamma,
    edge_count,
    ranking_codes,
    tournament_code,
    upper_mask,
)

__all__ = [
    "Shape",
    "chi2_exact",
    "chi2_fourier",
    "kl_rademacher_bound",
    "planted_expectation",
    "planted_sign_average",
    "recovery_lower_bound",
    "tv_exact",
]

MAX_SHAPE_VERTICES = 10
MAX_DIVERGENCE_N = 6


@dataclass(frozen=True)
class Shape:
    """A set of undirected edges between integer vertex labels, indexing the monomial T^S."""

    edges: frozenset

    def __init__(self, edges=()):
        normalized = set()
        for a, b in edges:
            a, b = as_int(a, "vertex"), as_int(b, "vertex")
            if a == b:
                raise ValueError(f"self-loop {a} not allowed in a shape")
            normalized.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertices(self) -> tuple:
        """Touched vertices, sorted."""
        return tuple(sorted({v for e in self.edges for v in e}))


def planted_sign_average(s: Shape) -> Fraction:
    """Exact average of (-1)^(# inverted edges) over orders of the vertices."""
    verts = s.vertices()
    k = len(verts)
    if k > MAX_SHAPE_VERTICES:
        raise ValueError(
            f"shape touches {k} vertices; enumeration is guarded to {MAX_SHAPE_VERTICES}"
        )
    # Relabel the vertices 0..k-1; a ranking inverts edge (a, b), a < b, when its code bit is 0.
    index = {v: i for i, v in enumerate(verts)}
    edges = np.zeros((k, k), dtype=bool)
    for a, b in s.edges:
        edges[index[a], index[b]] = True
    inverted = np.bitwise_count(~ranking_codes(k) & tournament_code(edges[upper_mask(k)]))
    return Fraction(inverted.size - 2 * int(np.count_nonzero(inverted & 1)), inverted.size)


def planted_expectation(s: Shape, gamma: float) -> float:
    """E[T^S] under the planted model: (2*gamma)^|S| times the sign average.

    Only the relative order of the touched vertices matters, so the average
    runs over |V(S)|! orderings rather than all of S_n.
    """
    check_gamma(gamma)
    return (2.0 * gamma) ** s.num_edges * float(planted_sign_average(s))


def _check_divergence_size(n: int) -> None:
    if n > MAX_DIVERGENCE_N:
        raise ValueError(
            f"exact divergences enumerate 2^(n(n-1)/2) tournaments; n={n} exceeds "
            f"the guard n <= {MAX_DIVERGENCE_N}"
        )


def _per_bit(values: np.ndarray, matrix) -> np.ndarray:
    """Apply the 2x2 ``matrix`` in place along every bit of the index into ``values``.

    The pair (a, b), of entries whose indices differ only in that bit (clear in a),
    becomes matrix @ (a, b).  ``values.size`` is a power of two.
    """
    (w, x), (y, z) = matrix
    h = 1
    while h < values.size:
        pair = values.reshape(-1, 2, h)
        pair[:, 0], pair[:, 1] = w * pair[:, 0] + x * pair[:, 1], y * pair[:, 0] + z * pair[:, 1]
        h *= 2
    return values


def _ranking_histogram(n: int) -> np.ndarray:
    """Share of the n! rankings whose tournament_code is each of the 2^m codes."""
    return np.bincount(ranking_codes(n), minlength=2 ** edge_count(n)) / math.factorial(n)


@functools.lru_cache(maxsize=1)
def _planted_pmf(params: ModelParams) -> np.ndarray:
    """Probability of each of the 2^m tournaments under the planted model.

    Tournament T is the integer whose bit e is set when edge e has sign +1.
    Given the hidden ranking each edge keeps its orientation with probability
    p = 1/2 + gamma and flips with q = 1/2 - gamma, independently, so the pmf
    is the ranking-code histogram smoothed bit by bit by [[p, q], [q, p]]:
    m passes over 2^m entries, with no loop over the n! rankings.  Every
    weight is non-negative, so nothing cancels, and at gamma = 1/2 the zeros
    stay exactly 0.  The last result is cached read-only, so chi2_exact
    and tv_exact at the same params build it once.
    """
    _check_divergence_size(params.n)
    p, q = 0.5 + params.gamma, 0.5 - params.gamma
    pmf = _per_bit(_ranking_histogram(params.n), ((p, q), (q, p)))
    pmf.setflags(write=False)
    return pmf


def chi2_exact(params: ModelParams) -> float:
    """Chi-squared divergence of planted from null, from the exact planted pmf.

    Reads 2^m * sum (pmf - 2^-m)^2, which equals 2^m * sum pmf^2 - 1 since the
    pmf sums to one, without that form's cancellation at small gamma.
    """
    pmf = _planted_pmf(params)
    q = 1.0 / pmf.size
    return float(pmf.size * np.sum((pmf - q) ** 2))


def tv_exact(params: ModelParams) -> float:
    """Total variation distance of planted from null, from the exact planted pmf."""
    pmf = _planted_pmf(params)
    q = 1.0 / pmf.size
    return float(0.5 * np.abs(pmf - q).sum())


def chi2_fourier(params: ModelParams) -> float:
    """Chi-squared divergence as the sum of squared planted expectations.

    E[T^S] = (2*gamma)^|S| times the sign average of shape S over the hidden
    rankings.  One Walsh-Hadamard transform of the rankings' code histogram
    gives that average for every shape S (an m-bit edge mask) at once, up to
    a sign that squaring drops.  Must agree with :func:`chi2_exact` to high
    precision.
    """
    n, gamma = params.n, params.gamma
    _check_divergence_size(n)
    averages = _per_bit(_ranking_histogram(n), ((1.0, 1.0), (1.0, -1.0)))
    weights = (2.0 * gamma) ** (2 * np.bitwise_count(np.arange(averages.size)))
    return float(np.sum(weights[1:] * averages[1:] ** 2))


def kl_rademacher_bound(gamma: float) -> tuple[float, float]:
    """KL divergence between Rad(1/2+gamma) and Rad(1/2-gamma), with bound.

    Returns (exact value, upper bound 4*gamma^2 / (1/4 - gamma^2)); the
    exact value never exceeds the bound on [0, 1/2).
    """
    check_gamma(gamma)
    if gamma >= 0.5:
        raise ValueError("gamma must lie in [0, 1/2); gamma = 1/2 diverges")
    if gamma == 0.0:
        return 0.0, 0.0
    p, q = 0.5 + gamma, 0.5 - gamma
    exact = p * math.log(p / q) + q * math.log(q / p)
    bound = 4.0 * gamma**2 / (0.25 - gamma**2)
    return exact, bound


def recovery_lower_bound(params: ModelParams) -> float:
    """Lower bound on expected Kendall tau error of any estimator.

    (1/2) C(n,2) max{ 1 - 4*sqrt(n)*gamma / sqrt(1/4 - gamma^2),
                      (1/2) exp(-8*n*gamma^2 / (1/4 - gamma^2)) }.
    """
    n, gamma = params.n, params.gamma
    if gamma >= 0.5:
        raise ValueError("bound requires gamma < 1/2")
    denom = 0.25 - gamma**2
    linear_term = 1.0 - 4.0 * math.sqrt(n) * gamma / math.sqrt(denom)
    exp_term = 0.5 * math.exp(-8.0 * n * gamma**2 / denom)
    return 0.5 * math.comb(n, 2) * max(linear_term, exp_term)
