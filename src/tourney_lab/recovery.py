"""Ranking By Wins, its exact expected errors, the exact MLE alignment and its oracle.

Ranking By Wins orders vertices by win score and, despite its simplicity,
recovers the hidden ranking at the information-theoretic rate and nearly
maximizes the alignment objective once the signal is strong enough.  Its
expected Kendall and pessimistic errors are exact at every n and gamma, from
the law of one pair's score difference.  The largest alignment is computed
exactly by a subset DP up to n = 16, with the exhaustive MLE over all n!
rankings kept as its oracle up to n = 9.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ModelParams,
    Ranking,
    Tournament,
    as_int,
    as_reals,
    check_same_size,
    discordant_pairs,
    ranking_codes,
    tournament_code,
)

__all__ = [
    "MleResult",
    "brute_force_mle",
    "concavity_check",
    "max_alignment",
    "opt_bounds",
    "pessimistic_error_statistic",
    "ranking_by_wins",
    "rbw_expected_errors",
]

MAX_MLE_N = 9
# max_alignment tabulates 2^n vertex sets: a 2.2 MiB peak at n = 16, doubling per extra vertex.
MAX_DP_N = 16

# Tie rule: equal scores rank the smaller-indexed vertex below (worse than)
# the larger-indexed one.  Fixed for determinism.
TIE_RULE = "equal scores: larger vertex index receives the better rank"


@dataclass(frozen=True)
class MleResult:
    """Exhaustive alignment maximum: best ranking, value, and multiplicity."""

    best_ranking: Ranking
    best_alignment: int
    optima_count: int


def ranking_by_wins(t: Tournament) -> Ranking:
    """Rank vertices by descending win score s_i = sum_k T_{i,k}.

    Ties go to the larger vertex index (see TIE_RULE); the output is
    deterministic.
    """
    s = t.scores()
    n = t.n
    # lexsort: primary key -s (descending score), secondary -index.
    order = np.lexsort((-np.arange(n), -s))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    return Ranking._adopt(ranks)


def pessimistic_error_statistic(t: Tournament, hidden: Ranking) -> int:
    """Count hidden-ordered pairs with s_i <= s_j: worst-case-ties error.

    Upper-bounds the Kendall tau error of Ranking By Wins under every
    tie-breaking rule.
    """
    check_same_size(hidden, t)
    # C(n,2) minus the pairs with s_i > s_j, counted on the wins 0..n-1: s_i = 2 wins_i - (n - 1).
    wins = (t.scores() + t.n - 1) // 2
    return t.num_edges - discordant_pairs(hidden.ranks, wins)


def _binomial_pmf(m: int, p: float, q: float, log_fact: np.ndarray) -> np.ndarray:
    """Bin(m, p) pmf on 0..m, with q = 1 - p, from a log-factorial table; exact when p or q is 0."""
    k = np.arange(m + 1)
    if p == 0.0 or q == 0.0:
        return (k == (m if q == 0.0 else 0)).astype(np.float64)
    log_pmf = log_fact[m] - log_fact[k] - log_fact[m - k] + k * math.log(p) + (m - k) * math.log(q)
    return np.exp(log_pmf)


# A sweep runs its trials in (n, gamma, trial) order, so each point computes the law once.
@functools.lru_cache(maxsize=1)
def rbw_expected_errors(params: ModelParams) -> tuple[float, float]:
    """Exact E[kendall_error] and E[pessimistic_error] of Ranking By Wins on a planted draw.

    Take i ranked d places above j, p = 1/2 + gamma and q = 1/2 - gamma.  Given
    the ranking, (s_i - s_j)/2 = Z_d = 2U + A_d + B_d - (n - 1), with
    independent U ~ Bern(p) (the edge i-j), A_d ~ Bin(n + d - 3, p) and
    B_d ~ Bin(n - 1 - d, q) (the other vertices, grouped as above both,
    between and below both).  RBW misorders the pair with probability
    P(Z_d < 0) + P(Z_d = 0)/2, since the tie rule reads vertex indices, which a
    uniform hidden ranking makes independent of the scores; the pessimistic
    statistic counts P(Z_d <= 0).  There are n - d pairs at distance d.  Per d,
    the CDF of A_d + B_d at the four points needed is one CDF of A_d against
    the pmf of B_d, so a point costs O(n^2), with no convolution.
    """
    n, gamma = params.n, params.gamma
    p, q = 0.5 + gamma, 0.5 - gamma
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, 2 * n)))))
    # With S = A_d + B_d, Z_d < 0 and Z_d = 0 read S <= n-4 and S = n-3 when U = 1,
    # S <= n-2 and S = n-1 when U = 0: the CDF of S at these four points.
    points = np.arange(n - 4, n)[:, None]
    kendall = np.zeros(n)
    pessimistic = np.zeros(n)
    for d in range(1, n):
        cdf_a = np.cumsum(_binomial_pmf(n + d - 3, p, q, log_fact))
        pmf_b = _binomial_pmf(n - 1 - d, q, p, log_fact)
        below = points - np.arange(pmf_b.size)  # A_d <= k - b
        inside = np.clip(below, 0, cdf_a.size - 1)
        cdf = np.sum(pmf_b * np.where(below < 0, 0.0, cdf_a[inside]), axis=1)
        kendall[d] = 0.5 * (p * (cdf[0] + cdf[1]) + q * (cdf[2] + cdf[3]))
        pessimistic[d] = p * cdf[1] + q * cdf[3]
    weights = n - np.arange(n)
    return float(np.sum(weights * kendall)), float(np.sum(weights * pessimistic))


def brute_force_mle(t: Tournament) -> MleResult:
    """Maximize alignment over all rankings by exhaustive enumeration.

    The reported optimum is the first maximizer in the row order of
    ``ranking_codes``.  Guarded to n <= 9.
    """
    n = t.n
    if n > MAX_MLE_N:
        raise ValueError(f"brute_force_mle enumerates n! rankings; n={n} exceeds {MAX_MLE_N}")
    # A ranking's alignment is m - 2 * (edges it disagrees with); argmin takes the first row.
    codes = ranking_codes(n)
    disagree = np.bitwise_count(codes ^ tournament_code(t.upper_signs()))
    best_idx = int(np.argmin(disagree))
    # The best code's transitive tournament has distinct scores, so RBW returns its ranking.
    signs = 2 * ((codes[best_idx] >> np.arange(t.num_edges)) & 1) - 1
    return MleResult(
        best_ranking=ranking_by_wins(Tournament(n, signs)),
        best_alignment=t.num_edges - 2 * int(disagree[best_idx]),
        optima_count=int(np.count_nonzero(disagree == disagree[best_idx])),
    )


def max_alignment(t: Tournament) -> int:
    """The largest alignment any ranking has with ``t``, by a subset DP over top sets.

    best[S] is the most edges that an order of the vertex set S can agree with.
    Putting v directly below the rest of S adds the u in S that beat v, so
    best[S] = max over v in S of best[S - v] + popcount(S & beaten_by[v]),
    filled one popcount layer at a time; the alignment is 2 best[V] - m.
    Guarded to n <= MAX_DP_N.

    The value is at least 1 for n >= 2 (0 for one vertex, which has no edge), so
    mle-compare's ratio never divides by 0.  Rank greedily, each time putting on
    top a vertex of largest out-degree among the k left: it beats at least
    (k - 1)/2 of them, so its edges add wins - losses >= 0, and the last pair adds 1.
    """
    n = t.n
    if n > MAX_DP_N:
        raise ValueError(f"max_alignment tabulates 2^n vertex sets; n={n} exceeds {MAX_DP_N}")
    beats = t.to_matrix() > 0  # beats[u, v]: u beats v
    bit = np.left_shift(1, np.arange(n, dtype=np.int32))
    beaten_by = bit @ beats.astype(np.int32)
    sets = np.arange(1 << n, dtype=np.int32)
    size = np.bitwise_count(sets)
    best = np.zeros(1 << n, dtype=np.int16)
    for k in range(1, n + 1):
        layer = sets[size == k][:, None]
        gain = best[layer ^ bit] + np.bitwise_count(layer & beaten_by)
        best[layer[:, 0]] = np.where(layer & bit, gain, -1).max(axis=1)  # v must lie in S
    return 2 * int(best[-1]) - t.num_edges  # best[-1] is best[V]


def concavity_check(a: float, b: float, grid: int) -> bool:
    """Check concavity of (1-y) Phi(-a*y - b) on [0, 1] by central differences."""
    if as_reals([a, b], "a and b").shape != (2,) or not (a >= 0 and b >= 0):  # also rejects NaN
        raise ValueError("a and b must be non-negative numbers")
    grid = as_int(grid, "grid")
    if grid < 3:
        raise ValueError("grid must have at least 3 points")
    y = np.linspace(0.0, 1.0, grid)
    # Phi(-a*y - b) = erfc((a*y + b) / sqrt 2) / 2.  g is convex for a > 0: see the README's
    # note on acceptance criterion 9.
    g = (1.0 - y) * 0.5 * np.array([math.erfc((a * v + b) / math.sqrt(2.0)) for v in y])
    second_diff = g[2:] - 2.0 * g[1:-1] + g[:-2]
    return bool(np.all(second_diff <= 1e-9))


def opt_bounds(params: ModelParams) -> tuple[float, float]:
    """High-probability envelope for the optimum alignment objective.

    (2*gamma*C(n,2) - 2*n*log(n), 2*gamma*C(n,2) + 2*n^(3/2)); an empirical
    envelope with fixed constants, not a proof artifact.
    """
    n, gamma = params.n, params.gamma
    if gamma <= 0.0:
        raise ValueError("opt_bounds requires gamma > 0")
    center = 2.0 * gamma * math.comb(n, 2)
    return center - 2.0 * n * math.log(n), center + 2.0 * n**1.5
