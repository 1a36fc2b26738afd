"""Shape monomials, exact planted expectations, and exact small-n divergences.

Functions of a tournament expand in the basis of monomials T^S indexed by
shapes (edge subsets of K_n).  Under the planted model the expectation of
T^S factors as (2*gamma)^|S| times a sign average over the relative orders
of the touched vertices; summing squared expectations over all shapes gives
the chi-squared divergence between planted and null.  Everything here is
exact.  Sign averages follow a top-set recurrence and chi2_fourier a Mahonian
product.  The one enumeration, for chi2_exact and tv_exact, reads the planted
pmf over all 2^m tournaments, the histogram of the n! ranking codes smoothed
by the per-edge noise, and is guarded to small n.
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
    """Exact average of (-1)^(# inverted edges) over orders of the vertices.

    Relabel the touched vertices 0..k-1 and build each order from the top.  With
    later[v] the shape neighbours u > v of v, putting v directly below S - v inverts
    the edges to S & later[v], so signed[S] = sum over v in S of
    (-1)^popcount(S & later[v]) * signed[S - v] over 2^k sets, and the average is
    signed[V] / k!.
    """
    verts = s.vertices()
    k = len(verts)
    if k > MAX_SHAPE_VERTICES:
        raise ValueError(
            f"shape touches {k} vertices; the subset recurrence is guarded to {MAX_SHAPE_VERTICES}"
        )
    index = {v: i for i, v in enumerate(verts)}
    later = [0] * k
    for a, b in s.edges:
        later[index[a]] |= 1 << index[b]
    signed = [1] * (1 << k)
    for top in range(1, 1 << k):
        total = 0
        for v in range(k):
            if top >> v & 1:
                term = signed[top ^ 1 << v]
                total += -term if (top & later[v]).bit_count() & 1 else term
        signed[top] = total
    return Fraction(signed[-1], math.factorial(k))


def planted_expectation(s: Shape, gamma: float) -> float:
    """E[T^S] under the planted model: (2*gamma)^|S| times the sign average.

    Only the relative order of the touched vertices matters, so the average
    runs over the 2^|V(S)| top sets of those vertices rather than all of S_n.
    """
    check_gamma(gamma)
    return (2.0 * gamma) ** s.num_edges * float(planted_sign_average(s))


def _check_divergence_size(n: int) -> None:
    if n > MAX_DIVERGENCE_N:
        raise ValueError(
            f"exact divergences enumerate 2^(n(n-1)/2) tournaments; n={n} exceeds "
            f"the guard n <= {MAX_DIVERGENCE_N}"
        )


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
    n, p, q = params.n, 0.5 + params.gamma, 0.5 - params.gamma
    _check_divergence_size(n)
    pmf = np.bincount(ranking_codes(n), minlength=2 ** edge_count(n)) / math.factorial(n)
    h = 1
    while h < pmf.size:
        pair = pmf.reshape(-1, 2, h)
        pair[:, 0], pair[:, 1] = p * pair[:, 0] + q * pair[:, 1], q * pair[:, 0] + p * pair[:, 1]
        h *= 2
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
    """Chi-squared divergence as the sum of squared planted expectations, in closed form.

    With w = 4 gamma^2, the sum over shapes S of E[T^S]^2 is E[(1 + w)^agree
    (1 - w)^disagree] - 1 over two independent hidden rankings.  Their Kendall
    distance has the Mahonian law, so it is the product over j <= n of
    sum over l >= 0 of C(j, 2l + 1) / j * w^(2l), minus 1.  Factors j < 3 are 1
    and every term is positive, so nothing cancels at small gamma.  Must agree
    with :func:`chi2_exact` to high precision.
    """
    n = params.n
    _check_divergence_size(n)
    w = 4.0 * params.gamma**2
    log_factors = (
        math.log1p(sum(math.comb(j, i) / j * w ** (i - 1) for i in range(3, j + 1, 2)))
        for j in range(3, n + 1)
    )
    return math.expm1(math.fsum(log_factors))


def kl_rademacher_bound(gamma: float) -> tuple[float, float]:
    """KL divergence between Rad(1/2+gamma) and Rad(1/2-gamma), with bound.

    Returns (exact value, upper bound 4*gamma^2 / (1/4 - gamma^2)); the
    exact value never exceeds the bound on [0, 1/2).
    """
    check_gamma(gamma)
    if gamma >= 0.5:
        raise ValueError("gamma must lie in [0, 1/2); gamma = 1/2 diverges")
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
