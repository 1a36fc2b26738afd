"""Shape monomials, exact planted expectations, and exact small-n divergences.

Functions of a tournament expand in the basis of monomials T^S indexed by
shapes (edge subsets of K_n).  Under the planted model the expectation of
T^S factors as (2*gamma)^|S| times a sign average over the relative orders
of the touched vertices; summing squared expectations over all shapes gives
the chi-squared divergence between planted and null.  Everything here is
exact-by-enumeration and guarded to small sizes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import ModelParams, Tournament, edge_count, permutation_table, upper_mask

__all__ = [
    "Shape",
    "chi2_exact",
    "chi2_fourier",
    "kl_rademacher_bound",
    "monomial_value",
    "planted_expectation",
    "planted_sign_average",
    "recovery_lower_bound",
    "tv_exact",
]

MAX_SHAPE_VERTICES = 10
MAX_DIVERGENCE_N = 6


@dataclass(frozen=True)
class Shape:
    """A set of undirected labelled edges, indexing the monomial T^S."""

    edges: frozenset

    def __init__(self, edges=()):
        normalized = set()
        for a, b in edges:
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

    def component_count(self) -> int:
        """Connected components among the touched vertices (union-find)."""
        parent = {v: v for v in self.vertices()}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in self.edges:
            parent[find(a)] = find(b)
        return sum(v == root for v, root in parent.items())

    def symmetric_difference(self, other: "Shape") -> "Shape":
        return Shape(self.edges ^ other.edges)


def monomial_value(t: Tournament, s: Shape) -> int:
    """T^S = product of T_{i,j} over the shape's edges; empty shape gives +1."""
    verts = s.vertices()
    if verts and verts[-1] >= t.n:
        raise ValueError(f"shape touches vertex {verts[-1]} but tournament has n={t.n}")
    value = 1
    for a, b in s.edges:
        value *= t.sign(a, b)
    return value


def _signed_inversion_sum(edge_pairs: list[tuple[int, int]], k: int) -> int:
    """Sum over all k! orderings of (-1)^(# edges inverted by the ordering)."""
    if k == 0:
        return 1
    table = permutation_table(k)
    inversions = np.zeros(table.shape[0], dtype=np.int64)
    for a, b in edge_pairs:
        inversions += table[:, a] > table[:, b]
    return int(((inversions & 1) == 0).sum() - ((inversions & 1) == 1).sum())


def planted_sign_average(s: Shape) -> Fraction:
    """Exact average of (-1)^(# inverted edges) over orders of the vertices."""
    verts = s.vertices()
    k = len(verts)
    if k > MAX_SHAPE_VERTICES:
        raise ValueError(
            f"shape touches {k} vertices; enumeration is guarded to {MAX_SHAPE_VERTICES}"
        )
    index = {v: i for i, v in enumerate(verts)}
    pairs = [(index[a], index[b]) for a, b in s.edges]
    return Fraction(_signed_inversion_sum(pairs, k), math.factorial(k))


def planted_expectation(s: Shape, gamma: float) -> float:
    """E[T^S] under the planted model: (2*gamma)^|S| times the sign average.

    Only the relative order of the touched vertices matters, so the average
    runs over |V(S)|! orderings rather than all of S_n.
    """
    return (2.0 * gamma) ** s.num_edges * float(planted_sign_average(s))


def _check_divergence_size(n: int) -> None:
    if n > MAX_DIVERGENCE_N:
        raise ValueError(
            f"exact divergences enumerate 2^(n(n-1)/2) tournaments; n={n} exceeds "
            f"the guard n <= {MAX_DIVERGENCE_N}"
        )


def _transitive_codes(n: int) -> np.ndarray:
    """m-bit code of each hidden ranking's tournament, rankings in permutation_table order.

    Bit e of a code is set when edge e (row-major order of upper_mask) has sign +1.
    """
    orders = permutation_table(n)  # each row lists the vertices best-first
    ranks = np.argsort(orders, axis=1)
    above = (ranks[:, :, None] < ranks[:, None, :])[:, upper_mask(n)]
    return above.astype(np.int64) @ (1 << np.arange(edge_count(n), dtype=np.int64))


@functools.lru_cache(maxsize=1)
def _planted_pmf(params: ModelParams) -> np.ndarray:
    """Probability of each of the 2^m tournaments under the planted model.

    Tournament T is the integer whose bit e is set when edge e has sign +1.
    Averages the product edge law over all n! hidden rankings.  The last
    result is cached read-only, so chi2_exact and tv_exact at the same
    params enumerate once.
    """
    n, gamma = params.n, params.gamma
    _check_divergence_size(n)
    m = edge_count(n)
    # P(T | pi) depends only on the number of edges agreeing with pi.
    agree_prob = np.array(
        [(0.5 + gamma) ** a * (0.5 - gamma) ** (m - a) for a in range(m + 1)]
    )
    tournaments = np.arange(2**m, dtype=np.int64)
    pmf = np.zeros(2**m)
    for code in _transitive_codes(n):
        pmf += agree_prob[m - np.bitwise_count(tournaments ^ code)]
    pmf /= math.factorial(n)
    pmf.setflags(write=False)
    return pmf


def chi2_exact(params: ModelParams) -> float:
    """Chi-squared divergence of planted from null, by full enumeration."""
    pmf = _planted_pmf(params)
    q = 1.0 / pmf.size
    return float(np.sum(pmf * pmf) / q - 1.0)


def tv_exact(params: ModelParams) -> float:
    """Total variation distance of planted from null, by full enumeration."""
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
    m = edge_count(n)
    averages = np.bincount(_transitive_codes(n), minlength=2**m) / math.factorial(n)
    h = 1
    while h < averages.size:
        pair = averages.reshape(-1, 2, h)
        pair[:, 0], pair[:, 1] = pair[:, 0] + pair[:, 1], pair[:, 0] - pair[:, 1]
        h *= 2
    weights = (2.0 * gamma) ** (2 * np.bitwise_count(np.arange(2**m)))
    return float(np.sum(weights[1:] * averages[1:] ** 2))


def kl_rademacher_bound(gamma: float) -> tuple[float, float]:
    """KL divergence between Rad(1/2+gamma) and Rad(1/2-gamma), with bound.

    Returns (exact value, upper bound 4*gamma^2 / (1/4 - gamma^2)); the
    exact value never exceeds the bound on [0, 1/2).
    """
    if not 0.0 <= gamma < 0.5:
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
