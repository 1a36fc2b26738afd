"""Tournaments, rankings, and samplers for the planted ranking model.

A tournament on ``n`` vertices is an orientation of the complete graph,
stored as one sign per unordered pair: ``sign(i, j) = +1`` means the edge
points from ``i`` to ``j`` (``i`` beats ``j``).  The planted model biases
each edge towards the orientation implied by a hidden ranking; the null
model orients every edge by a fair coin flip.

A planted draw makes one pass over the pairs: one comparison of the hidden
ranks, fused with the coin flips into int8 signs.  Win scores are read off
the upper triangle alone, without building the skew-symmetric matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "Ranking",
    "RngStream",
    "Tournament",
    "alignment",
    "induced_tournament",
    "kendall_tau",
    "sample_null",
    "sample_planted",
    "sample_planted_uniform",
    "spearman_footrule",
]

_UINT64_MASK = (1 << 64) - 1


def edge_count(n: int) -> int:
    """Number of unordered vertex pairs on ``n`` vertices."""
    return n * (n - 1) // 2


def upper_mask(n: int) -> np.ndarray:
    """n x n mask of the pairs i < j; its row-major order is the edge order."""
    return ~np.tri(n, dtype=bool)


def _scatter_upper(n: int, signs: np.ndarray) -> np.ndarray:
    """n x n int8 matrix holding ``signs`` above the diagonal and zeros elsewhere."""
    mat = np.zeros((n, n), dtype=np.int8)
    mat[upper_mask(n)] = signs
    return mat


def _ranked_above(ranks: np.ndarray) -> np.ndarray:
    """Bool ranks[i] < ranks[j] for every pair i < j, in the row-major order of upper_mask."""
    # Ranks are 1..n: the narrowest unsigned type holding n makes the n x n comparison cheaper.
    r = ranks.astype(np.min_scalar_type(ranks.size))
    return (r[:, None] < r[None, :])[upper_mask(r.size)]


def _as_signs(flags: np.ndarray) -> np.ndarray:
    """Overwrite a bool array in place with +1 for True, -1 for False; return its int8 view."""
    signs = flags.view(np.int8)
    signs <<= 1
    signs -= 1
    return signs


@functools.cache
def permutation_table(k: int) -> np.ndarray:
    """Every permutation of 0..k-1 as a row (int8), rows in lexicographic order.

    Level k is built from level k - 1: one block per leading value v, holding
    the shorter rows with every entry >= v shifted up by one.  The shift keeps
    order, so each block, and the whole table, stays lexicographic.
    """
    table = np.zeros((1, 0), dtype=np.int8)
    for size in range(1, k + 1):
        shorter, rows = table, table.shape[0]
        table = np.empty((rows * size, size), dtype=np.int8)
        for v in range(size):
            block = table[v * rows : (v + 1) * rows]
            block[:, 0] = v
            np.add(shorter, shorter >= v, out=block[:, 1:])
    table.setflags(write=False)
    return table


def tournament_code(signs: np.ndarray) -> int:
    """Integer whose bit e is set when edge e (row-major order of upper_mask) is positive."""
    return sum(1 << e for e in np.flatnonzero(np.asarray(signs) > 0).tolist())


@functools.cache
def ranking_codes(k: int) -> np.ndarray:
    """Read-only int64 tournament_code of every ranking of k items, built one edge at a time.

    Row r codes the rank array permutation_table(k)[r] + 1: rank arrays in lexicographic order.
    """
    table = permutation_table(k)
    codes = np.zeros(table.shape[0], dtype=np.int64)
    for bit, (i, j) in enumerate(zip(*np.nonzero(upper_mask(k)))):
        np.bitwise_or(codes, 1 << bit, out=codes, where=table[:, i] < table[:, j])
    codes.setflags(write=False)
    return codes


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream_index) fixes every draw.

    Distinct trials of an experiment use distinct ``stream_index`` values so
    that results do not depend on execution order or thread count.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if self.stream_index < 0:
            raise ValueError("stream_index must be non-negative")

    def generator(self) -> np.random.Generator:
        """Fresh numpy generator deterministically keyed by this stream."""
        key = (self.seed & _UINT64_MASK, self.stream_index)
        return np.random.default_rng(np.random.SeedSequence(key))


def _as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


@dataclass(frozen=True)
class ModelParams:
    """Planted model parameters: size ``n`` and edge bias ``gamma``.

    ``gamma = 0`` is the null model (uniform tournament); ``gamma = 1/2``
    orients every edge consistently with the hidden ranking.
    """

    n: int
    gamma: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 <= self.gamma <= 0.5:
            raise ValueError("gamma must lie in [0, 1/2]")


class Tournament:
    """Immutable orientation of K_n.

    Signs are stored as one read-only int8 +-1 array, one per unordered pair,
    in lexicographic order of (i, j) with i < j (0-based vertices): the
    row-major order of ``upper_mask(n)``.
    """

    __slots__ = ("_n", "_signs")

    def __init__(self, n: int, signs: np.ndarray):
        """Store a copy of ``signs``, which must be +-1; from_upper_signs checks them."""
        if n < 1:
            raise ValueError("n must be at least 1")
        m = edge_count(n)
        signs = np.array(signs, dtype=np.int8)
        if signs.shape != (m,):
            raise ValueError(f"expected {m} signs, got shape {signs.shape}")
        signs.setflags(write=False)
        self._n = n
        self._signs = signs

    @classmethod
    def from_upper_signs(cls, n: int, signs: np.ndarray) -> "Tournament":
        """Build from the length n(n-1)/2 array of +-1 upper-triangle signs."""
        signs = np.asarray(signs)
        if not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +1 or -1")
        return cls(n, signs)

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return edge_count(self._n)

    def upper_signs(self) -> np.ndarray:
        """Signs T_{i,j} for i < j in lexicographic order: the stored read-only int8 array."""
        return self._signs

    def sign(self, i: int, j: int) -> int:
        """T_{i,j}: skew-symmetric accessor with zero diagonal."""
        n = self._n
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"vertex out of range for n={n}")
        if i == j:
            return 0
        flip = 1
        if i > j:
            i, j = j, i
            flip = -1
        return flip * int(self._signs[i * (2 * n - i - 1) // 2 + (j - i - 1)])

    def to_matrix(self) -> np.ndarray:
        """Full n x n skew-symmetric sign matrix (int8)."""
        mat = _scatter_upper(self._n, self._signs)
        return mat - mat.T

    def scores(self) -> np.ndarray:
        """Win scores s_i = sum_k T_{i,k} (int64), without the skew matrix.

        s_i is row i minus column i of the upper triangle.  |s_i| <= n - 1, so
        the sums run in int32; they are returned as int64 because callers
        square them.
        """
        upper = _scatter_upper(self._n, self._signs)
        wins = upper.sum(axis=1, dtype=np.int32) - upper.sum(axis=0, dtype=np.int32)
        return wins.astype(np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tournament):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._signs, other._signs)

    def __hash__(self) -> int:
        return hash((self._n, self._signs.tobytes()))

    def __repr__(self) -> str:
        return f"Tournament(n={self._n})"


def _as_permutation(values, first: int, name: str) -> np.ndarray:
    """``values`` as int64, checked to be a permutation of first..first + n - 1."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    # Check before the int cast, which would truncate 1.5 to 1.
    if not np.array_equal(np.sort(arr), np.arange(first, first + arr.size)):
        raise ValueError(f"{name} must be a permutation of {first}..{first + arr.size - 1}")
    return arr.astype(np.int64)


class Ranking:
    """Permutation of n items; ranks[i] is the rank of item i, 1 = best."""

    __slots__ = ("_ranks",)

    def __init__(self, ranks):
        arr = _as_permutation(ranks, 1, "ranks")
        arr.setflags(write=False)
        self._ranks = arr

    @classmethod
    def identity(cls, n: int) -> "Ranking":
        return cls(np.arange(1, n + 1))

    @classmethod
    def reversal(cls, n: int) -> "Ranking":
        return cls(np.arange(n, 0, -1))

    @classmethod
    def from_order(cls, order) -> "Ranking":
        """Build from a list of vertices given best-first."""
        order = _as_permutation(order, 0, "order")
        ranks = np.empty(order.size, dtype=np.int64)
        ranks[order] = np.arange(1, order.size + 1)
        return cls(ranks)

    @property
    def n(self) -> int:
        return self._ranks.size

    @property
    def ranks(self) -> np.ndarray:
        return self._ranks

    def order(self) -> np.ndarray:
        """Vertices listed best-first."""
        return np.argsort(self._ranks, kind="stable")

    def pairwise_sign(self, i: int, j: int) -> int:
        """+1 if i is ranked above j, -1 otherwise."""
        if i == j:
            raise ValueError("pairwise_sign requires distinct items")
        return 1 if self._ranks[i] < self._ranks[j] else -1

    def upper_pairwise_signs(self) -> np.ndarray:
        """pairwise_sign(i, j) for i < j in lexicographic order (a fresh int8 array)."""
        return _as_signs(_ranked_above(self._ranks))

    def reversed(self) -> "Ranking":
        return Ranking(self.n + 1 - self._ranks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return np.array_equal(self._ranks, other._ranks)

    def __hash__(self) -> int:
        return hash(self._ranks.tobytes())

    def __repr__(self) -> str:
        return f"Ranking({self._ranks.tolist()})"


def sample_null(n: int, rng: RngStream | np.random.Generator) -> Tournament:
    """Uniformly random tournament: each edge orientation a fair coin flip."""
    if n < 1:
        raise ValueError("n must be at least 1")
    gen = _as_generator(rng)
    m = edge_count(n)
    return Tournament(n, 2 * gen.integers(0, 2, size=m, dtype=np.int8) - 1)


def sample_planted(
    params: ModelParams, pi: Ranking, rng: RngStream | np.random.Generator
) -> Tournament:
    """Tournament whose edges agree with ``pi`` with probability 1/2 + gamma.

    One pass: edge (i, j) is +1 exactly when "i is ranked above j" equals
    "the edge agrees with pi", computed in place on the int8 view of the
    coin flips.
    """
    if pi.n != params.n:
        raise ValueError(f"ranking has {pi.n} items but params.n = {params.n}")
    gen = _as_generator(rng)
    m = edge_count(params.n)
    agree = gen.random(m) < (0.5 + params.gamma)
    np.equal(_ranked_above(pi.ranks), agree, out=agree)
    return Tournament(params.n, _as_signs(agree))


def sample_planted_uniform(
    params: ModelParams, rng: RngStream | np.random.Generator
) -> tuple[Ranking, Tournament]:
    """Draw a uniform hidden ranking, then a tournament correlated with it.

    The ranking is drawn first and the edges second, so the edge stream for
    a fixed ranking matches :func:`sample_planted` on the same generator.
    """
    gen = _as_generator(rng)
    pi = Ranking(gen.permutation(params.n) + 1)
    return pi, sample_planted(params, pi, gen)


def induced_tournament(pi: Ranking) -> Tournament:
    """The transitive tournament that orients every edge as ``pi`` does."""
    return Tournament(pi.n, pi.upper_pairwise_signs())


def _check_same_size(p1: Ranking, p2: Ranking) -> None:
    if p1.n != p2.n:
        raise ValueError(f"rankings have different sizes: {p1.n} vs {p2.n}")


def kendall_tau(p1: Ranking, p2: Ranking) -> int:
    """Number of pairs ordered oppositely by the two rankings."""
    _check_same_size(p1, p2)
    r1 = p1.ranks
    r2 = p2.ranks
    discordant = (r1[:, None] < r1[None, :]) & (r2[:, None] > r2[None, :])
    return int(discordant.sum())


def spearman_footrule(p1: Ranking, p2: Ranking) -> int:
    """Total displacement sum_i |p1(i) - p2(i)|."""
    _check_same_size(p1, p2)
    return int(np.abs(p1.ranks - p2.ranks).sum())


def alignment(pi: Ranking, t: Tournament) -> int:
    """Consistent minus inconsistent edges of ``t`` relative to ``pi``.

    Equals sum over i < j of T_{i,j} * pairwise_sign(i, j); the maximizer
    over rankings is the maximum likelihood estimate of the hidden ranking.
    """
    if pi.n != t.n:
        raise ValueError(f"ranking has {pi.n} items but tournament has {t.n}")
    return int(np.sum(t.upper_signs() * pi.upper_pairwise_signs(), dtype=np.int64))
