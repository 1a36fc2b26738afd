"""Ranking By Wins, the brute-force MLE oracle, and analytic error bounds.

Ranking By Wins orders vertices by win score and, despite its simplicity,
recovers the hidden ranking at the information-theoretic rate and nearly
maximizes the alignment objective once the signal is strong enough.  The
exhaustive MLE here is a desk-scale oracle for comparing against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, Ranking, Tournament, permutation_table, upper_mask

__all__ = [
    "MleResult",
    "brute_force_mle",
    "concavity_check",
    "expected_error_bound",
    "mills_tail_bound",
    "opt_bounds",
    "pessimistic_error_statistic",
    "ranking_by_wins",
    "rbw_alignment_lower_bound_statistic",
]

MAX_MLE_N = 9

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
    return Ranking(ranks)


def pessimistic_error_statistic(t: Tournament, hidden: Ranking) -> int:
    """Count hidden-ordered pairs with s_i <= s_j: worst-case-ties error.

    Upper-bounds the Kendall tau error of Ranking By Wins under every
    tie-breaking rule.
    """
    if hidden.n != t.n:
        raise ValueError(f"ranking has {hidden.n} items but tournament has {t.n}")
    s = t.scores()
    r = hidden.ranks
    bad = (r[:, None] < r[None, :]) & (s[:, None] <= s[None, :])
    return int(bad.sum())


def brute_force_mle(t: Tournament) -> MleResult:
    """Maximize alignment over all rankings by exhaustive enumeration.

    Rank arrays are scanned in lexicographic order, so the reported optimum
    is the lexicographically smallest maximizer.  Guarded to n <= 9.
    """
    n = t.n
    if n > MAX_MLE_N:
        raise ValueError(f"brute_force_mle enumerates n! rankings; n={n} exceeds {MAX_MLE_N}")
    ranks_table = permutation_table(n) + 1  # rows are rank arrays in lex order
    totals = np.zeros(ranks_table.shape[0], dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            tij = t.sign(i, j)
            totals += np.where(ranks_table[:, i] < ranks_table[:, j], tij, -tij)
    best_idx = int(np.argmax(totals))
    best = int(totals[best_idx])
    return MleResult(
        best_ranking=Ranking(ranks_table[best_idx].astype(np.int64)),
        best_alignment=best,
        optima_count=int((totals == best).sum()),
    )


def expected_error_bound(params: ModelParams) -> float:
    """Expected Kendall error bound for Ranking By Wins.

    C(n,2) * Phi(-2*gamma*sqrt(n) / sqrt(2*(1-4*gamma^2))), valid for
    gamma <= 1/4.
    """
    n, gamma = params.n, params.gamma
    if gamma > 0.25:
        raise ValueError("bound assumes gamma <= 1/4")
    arg = -2.0 * gamma * math.sqrt(n) / math.sqrt(2.0 * (1.0 - 4.0 * gamma**2))
    return math.comb(n, 2) * 0.5 * math.erfc(-arg / math.sqrt(2.0))


def mills_tail_bound(params: ModelParams) -> float:
    """Gaussian-tail form of the error bound: C(n,2) exp(-gamma^2 n)/(gamma sqrt(n)).

    The constant is fixed to 1, which dominates expected_error_bound once
    gamma * sqrt(n) >= 1.
    """
    n, gamma = params.n, params.gamma
    if gamma <= 0.0:
        raise ValueError("mills_tail_bound requires gamma > 0")
    return math.comb(n, 2) * math.exp(-(gamma**2) * n) / (gamma * math.sqrt(n))


def concavity_check(a: float, b: float, grid: int) -> bool:
    """Check concavity of (1-y) Phi(-a*y - b) on [0, 1] by central differences."""
    if a < 0 or b < 0:
        raise ValueError("a and b must be non-negative")
    if grid < 3:
        raise ValueError("grid must have at least 3 points")
    y = np.linspace(0.0, 1.0, grid)
    # Phi(-a*y - b) = erfc((a*y + b) / sqrt 2) / 2, the Phi of expected_error_bound.
    g = (1.0 - y) * 0.5 * np.array([math.erfc((a * v + b) / math.sqrt(2.0)) for v in y])
    second_diff = g[2:] - 2.0 * g[1:-1] + g[:-2]
    return bool(np.all(second_diff <= 1e-9))


def rbw_alignment_lower_bound_statistic(t: Tournament) -> int:
    """Alignment lower bound for Ranking By Wins with worst-case ties.

    Evaluated against the natural index order (hidden ranking taken to be
    the identity); every tied pair is charged -1.
    """
    s = t.scores()
    upper = upper_mask(t.n)
    gt = (s[:, None] > s[None, :])[upper]
    lt = (s[:, None] < s[None, :])[upper]
    b = t.upper_signs() > 0
    return 2 * int(b[gt].sum()) + int(lt.sum()) - 2 * int(b[lt].sum()) - int((~lt).sum())


def opt_bounds(
    params: ModelParams, c_low: float = 2.0, c_up: float = 2.0
) -> tuple[float, float]:
    """High-probability envelope for the optimum alignment objective.

    (2*gamma*C(n,2) - c_low*n*log(n), 2*gamma*C(n,2) + c_up*n^(3/2)); an
    empirical envelope with adjustable constants, not a proof artifact.
    """
    n, gamma = params.n, params.gamma
    if gamma <= 0.0:
        raise ValueError("opt_bounds requires gamma > 0")
    center = 2.0 * gamma * math.comb(n, 2)
    return center - c_low * n * math.log(n), center + c_up * n**1.5
