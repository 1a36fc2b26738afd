"""Shape monomials, exact planted expectations, and exact small-n divergences.

Functions of a tournament expand in the basis of monomials T^S indexed by
shapes (edge subsets of K_n).  Under the planted model the expectation of
T^S factors as (2*gamma)^|S| times a sign average over the relative orders
of the touched vertices; summing squared expectations over all shapes gives
the chi-squared divergence between planted and null.  Everything here is
exact-by-enumeration and guarded to small sizes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import ModelParams, Ranking, Tournament, edge_count, permutation_table

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

    edges: frozenset = field(default_factory=frozenset)

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
        """Connected components among the touched vertices."""
        return len(_component_edge_counts(self.edges))

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
    avg = planted_sign_average(s)
    if avg == 0:
        return 0.0
    return (2.0 * gamma) ** s.num_edges * float(avg)


def _check_divergence_size(n: int) -> None:
    if n > MAX_DIVERGENCE_N:
        raise ValueError(
            f"exact divergences enumerate 2^(n(n-1)/2) tournaments; n={n} exceeds "
            f"the guard n <= {MAX_DIVERGENCE_N}"
        )


def _all_tournament_signs(m: int) -> np.ndarray:
    """All 2^m sign vectors, one tournament per row (int8)."""
    codes = np.arange(2**m, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(m)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)


def _planted_pmf(params: ModelParams) -> np.ndarray:
    """Probability of each of the 2^m tournaments under the planted model.

    Tournament r has upper signs _all_tournament_signs(m)[r].  Averages the
    product edge law over all n! hidden rankings.
    """
    n, gamma = params.n, params.gamma
    _check_divergence_size(n)
    m = edge_count(n)
    signs = _all_tournament_signs(m)
    # P(T | pi) depends only on the number of edges agreeing with pi.
    agree_prob = np.array(
        [(0.5 + gamma) ** a * (0.5 - gamma) ** (m - a) for a in range(m + 1)]
    )
    pmf = np.zeros(2**m)
    for perm in itertools.permutations(range(n)):
        psign = Ranking.from_order(perm).upper_pairwise_signs()
        dots = signs @ psign.astype(np.int64)
        pmf += agree_prob[(dots + m) // 2]
    pmf /= math.factorial(n)
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

    Iterates every shape (edge-subset bitmask of K_n in lexicographic order)
    and skips shapes with a component of odd edge count, whose expectation
    vanishes.  Must agree with :func:`chi2_exact` to high precision.
    """
    n, gamma = params.n, params.gamma
    _check_divergence_size(n)
    m = edge_count(n)
    pairs = list(itertools.combinations(range(n), 2))
    sign_avg_cache: dict[tuple, Fraction] = {}

    total = 0.0
    for mask in range(1, 2**m):
        edges = [pairs[b] for b in range(m) if mask >> b & 1]
        if any(count % 2 for count in _component_edge_counts(edges)):
            continue
        verts = sorted({v for e in edges for v in e})
        index = {v: i for i, v in enumerate(verts)}
        key = tuple(sorted((index[a], index[b]) for a, b in edges))
        avg = sign_avg_cache.get(key)
        if avg is None:
            avg = Fraction(_signed_inversion_sum(list(key), len(verts)), math.factorial(len(verts)))
            sign_avg_cache[key] = avg
        if avg:
            total += ((2.0 * gamma) ** len(edges) * float(avg)) ** 2
    return total


def _component_edge_counts(edges) -> list[int]:
    """Edge count of each connected component of the graph the edges span (union-find).

    Every touched vertex lies on an edge, so there is one count per component.
    """
    parent = {v: v for e in edges for v in e}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    counts: dict = {}
    for a, _ in edges:
        root = find(a)
        counts[root] = counts.get(root, 0) + 1
    return list(counts.values())


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
