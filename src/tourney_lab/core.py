"""Tournaments, rankings, and samplers for the planted ranking model.

A tournament on ``n`` vertices is an orientation of the complete graph,
stored as one sign per unordered pair: ``sign(i, j) = +1`` means the edge
points from ``i`` to ``j`` (``i`` beats ``j``).  The planted model biases
each edge towards the orientation implied by a hidden ranking; the null
model is the planted one at ``gamma = 0``: every edge a fair coin flip.

Both models read their coin flips from the generator in one private walker,
``_coin_flags``, that yields the flags of each block of whole rows, at most
2^17 edges a block, in edge order.  A biased coin reads one double per edge;
a fair one (gamma = 0) reads 48 edges from the low bits of each double, and a
block that ends inside a double carries its unread bits into the next block,
so a draw never depends on the blocks.  Every sampler reads a draw in these
blocks: the ``Tournament`` samplers join them, and the score samplers
``sample_null_scores`` and ``sample_planted_scores`` reduce them, so their
scores equal ``sample_null(...).scores()`` and those of
``sample_planted_uniform``, bit for bit, while memory stays a few MiB at any
n.  One reducer, ``_win_scores``, turns the blocks into win scores, for the
samplers and for ``Tournament.scores`` alike, without the skew-symmetric
matrix.  ``Tournament.upper_blocks`` lays the signs into the same row blocks,
as the strict upper triangle of T in a given dtype, for a product with T that
never builds the n x n matrix.

Numbers from outside pass one rule per kind, bools refused, each returning
the value it accepted: ``as_int`` (and ``check_size``) a Python int,
``as_reals`` a real array, ``check_gamma`` a model's gamma as a Python float.
Library arguments and sweep configs alike keep only what these return.
``Tournament(n, signs)`` and ``Ranking(ranks)`` check their input; ``_adopt``
wraps an array just built.
"""

from __future__ import annotations

import functools
import numbers
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
    "sample_null_scores",
    "sample_planted",
    "sample_planted_scores",
    "sample_planted_uniform",
    "spearman_footrule",
]

_UINT64_MASK = (1 << 64) - 1


def edge_count(n: int) -> int:
    """Number of unordered vertex pairs on ``n`` vertices."""
    return n * (n - 1) // 2


def _row_start(n, i):
    """Index of the first edge of row i, (i, i + 1), in the edge order; elementwise on arrays."""
    return i * (2 * n - i - 1) // 2


def upper_mask(n: int, rows: int | None = None) -> np.ndarray:
    """Mask of the pairs i < j in the first ``rows`` rows (all n by default) of an n x n array.

    Its row-major order is the edge order.  The pairs of rows a..b-1 and columns
    a..n-1 are upper_mask(n - a, b - a).  The narrow comparison equals ~np.tri and
    builds it faster.
    """
    vertex = np.arange(n, dtype=np.min_scalar_type(n))
    return vertex[:rows, None] < vertex[None, :]


def _narrow(values: np.ndarray) -> np.ndarray:
    """Values in 0..n (n = values.size) cast to the narrowest unsigned type holding n.

    A narrow type makes the n x n comparisons of ranks or wins cheaper.
    """
    return values.astype(np.min_scalar_type(values.size))


def _as_signs(flags: np.ndarray) -> np.ndarray:
    """Overwrite a bool array in place with +1 for True, -1 for False; return its int8 view."""
    signs = flags.view(np.int8)
    signs <<= 1
    signs -= 1
    return signs


def tournament_code(signs: np.ndarray) -> int:
    """Integer whose bit e is set when edge e (row-major order of upper_mask) is positive."""
    return sum(1 << e for e in np.flatnonzero(np.asarray(signs) > 0).tolist())


# A sweep asks for one k many times in a row: the planted pmf at k <= 6, brute_force_mle at k <= 9.
@functools.lru_cache(maxsize=1)
def ranking_codes(k: int) -> np.ndarray:
    """Read-only int64 tournament_code of every ranking of k items, built level by level.

    Row r codes the rank array row + 1, for row the r-th permutation of 0..k-1 in
    lexicographic order; brute_force_mle reports the first maximizing row, so its
    tie-break is this order.  The permutations of a level hold one block per leading value v:
    the rows of the level below with every entry >= v shifted up by one, which keeps the
    order.  Edges (0, j) come first in the edge order, so block v of the codes is (codes of
    the level below) << (size - 1), or'ed with the row bits of a leading v: bit j - 1 is set
    when the shorter row holds a value >= v at j - 1.  Those bits start all set and lose,
    from one block to the next, the bit at the position of value v in the shorter row.
    Levels up to k - 1 build their rows; level k only needs its codes.
    """
    rows = np.zeros((1, 1), dtype=np.int8)  # the permutations of the level below
    codes = np.zeros(1, dtype=np.int64)
    for size in range(2, k + 1):
        count = codes.size
        high = codes << (size - 1)
        rowbits = np.full(count, (1 << (size - 1)) - 1, dtype=np.int64)
        codes = np.empty(count * size, dtype=np.int64)
        longer = np.empty((count * size, size), dtype=np.int8) if size < k else None
        for v in range(size):
            block = slice(v * count, (v + 1) * count)
            np.bitwise_or(high, rowbits, out=codes[block])
            if longer is not None:
                longer[block, 0] = v
                np.add(rows, rows >= v, out=longer[block, 1:])
            if v < size - 1:
                rowbits ^= np.left_shift(1, np.argmax(rows == v, axis=1))
        rows = longer
    codes.setflags(write=False)
    return codes


def as_int(value, name: str) -> int:
    """``value`` as a Python int, checked to be an integer and not a bool.

    The int cast keeps numpy integer arithmetic out of what follows: n(n - 1)/2
    cannot overflow for an np.uint16 n, nor a mask raise for an np.int64 seed.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_reals(values, name: str) -> np.ndarray:
    """``values`` as an ndarray of real numbers: dtype kind i, u or f, and no bool.

    An ndarray is returned as it is.  Other input is checked as Python objects
    first, since the cast would turn [2, True] into [2, 1].  A ragged sequence,
    such as [1, [2]], is refused under ``name``.
    """
    if not isinstance(values, np.ndarray):
        if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat):
            raise ValueError(f"{name} must be real, got a bool")
        try:
            values = np.asarray(values)
        except ValueError:
            raise ValueError(f"{name} must be real, got a ragged sequence") from None
    if values.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real, got dtype {values.dtype}")
    return values


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream_index) fixes every draw.

    Distinct trials of an experiment use distinct ``stream_index`` values so
    that results do not depend on execution order or thread count.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        object.__setattr__(self, "stream_index", as_int(self.stream_index, "stream_index"))
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


def check_size(n) -> int:
    """``n`` as a Python int, checked to be an integer (not a bool) of at least 1."""
    n = as_int(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    return n


def _vertex_pair(n: int, i, j) -> tuple[int, int]:
    """``i`` and ``j`` as Python ints, each checked by ``as_int`` and to be a vertex 0..n-1."""
    i, j = as_int(i, "i"), as_int(j, "j")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"vertex out of range for n={n}")
    return i, j


def check_gamma(gamma) -> float:
    """``gamma`` as a Python float, checked to be a real number (not a bool) in [0, 1/2]."""
    # Check the kind before comparing: refuse bools, strings, None and arrays.
    value = np.asarray(gamma)
    if value.ndim or value.dtype.kind not in "iuf" or not 0.0 <= gamma <= 0.5:
        raise ValueError(f"gamma must be a number in [0, 1/2], got {gamma!r}")
    return float(gamma)


@dataclass(frozen=True)
class ModelParams:
    """Planted model parameters: size ``n`` and edge bias ``gamma``.

    ``gamma = 0`` is the null model (uniform tournament); ``gamma = 1/2``
    orients every edge consistently with the hidden ranking.  ``n`` is stored
    as a Python int and ``gamma`` as a Python float.
    """

    n: int
    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_size(self.n))
        object.__setattr__(self, "gamma", check_gamma(self.gamma))


class Tournament:
    """Immutable orientation of K_n.

    Signs are stored as one read-only int8 +-1 array, one per unordered pair,
    in lexicographic order of (i, j) with i < j (0-based vertices): the
    row-major order of ``upper_mask(n)``.
    """

    __slots__ = ("_n", "_signs", "_scores")

    def __init__(self, n: int, signs: np.ndarray):
        """Store an int8 copy of ``signs``: n(n-1)/2 numbers, each +1 or -1."""
        n = check_size(n)
        m = edge_count(n)
        signs = as_reals(signs, "signs")
        if signs.shape != (m,):
            raise ValueError(f"expected {m} signs, got shape {signs.shape}")
        # Check before the int8 cast, which would truncate 1.5 to 1.
        if not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +1 or -1")
        signs = signs.astype(np.int8)
        signs.setflags(write=False)
        self._n = n
        self._signs = signs
        self._scores = None

    @classmethod
    def _adopt(cls, n: int, signs: np.ndarray) -> "Tournament":
        """Wrap ``signs`` without a copy and make it read-only.

        For samplers only: ``signs`` is the fresh int8 +-1 array of n(n-1)/2
        edges that one has just built for a checked ``n``.
        """
        signs.setflags(write=False)
        t = cls.__new__(cls)
        t._n = n
        t._signs = signs
        t._scores = None
        return t

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
        i, j = _vertex_pair(n, i, j)
        if i == j:
            return 0
        flip = 1
        if i > j:
            i, j = j, i
            flip = -1
        return flip * int(self._signs[_row_start(n, i) + j - i - 1])

    def to_matrix(self) -> np.ndarray:
        """Full n x n skew-symmetric sign matrix (int8)."""
        mat = np.zeros((self._n, self._n), dtype=np.int8)
        mat[upper_mask(self._n)] = self._signs
        return mat - mat.T

    def upper_blocks(self, dtype) -> list:
        """(a, b, block) per row block of the draw plan, rows a..b-1 and columns a..n-1.

        ``block`` holds T_{i,j} for i < j in ``dtype`` and 0 on and below the
        diagonal: the blocks tile the strict upper triangle U of T, so
        T v = U v - U^T v is a product in about n^2 / 2 numbers.
        """
        n = self._n
        plan = _row_blocks(n)
        # The blocks are views of one buffer: one allocation per call, which the
        # allocator can hand to the next call of that size.  An allocation per
        # block had the pages returned to the system and faulted in again on
        # every pass.  The buffer has float64's size whatever the dtype, so the
        # float32 and float64 passes of the spectral statistic ask for one size:
        # a float32 buffer placed in a freed float64 one split it, the next
        # float64 buffer grew the heap past both, and peak RSS at n = 1200 rose
        # by 2.3-5.7 MiB on most seeds, depending on the heap's layout.
        size = sum((b - a) * (n - a) for a, b, *_ in plan)
        itemsize = np.dtype(dtype).itemsize
        buffer = np.zeros(size * max(itemsize, 8), dtype=np.uint8).view(dtype)[:size]
        blocks, start = [], 0
        for a, b, lo, hi in plan:
            upper = upper_mask(n - a, b - a)
            block = buffer[start : start + upper.size].reshape(upper.shape)
            block[upper] = self._signs[lo:hi]
            blocks.append((a, b, block))
            start += upper.size
        return blocks

    def scores(self) -> np.ndarray:
        """Win scores s_i = sum_k T_{i,k}: a read-only int64 array, computed on the first call."""
        if self._scores is None:
            blocks = (self._signs[lo:hi] > 0 for *_, lo, hi in _row_blocks(self._n))
            self._scores = _win_scores(self._n, blocks)
            self._scores.setflags(write=False)
        return self._scores

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tournament):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._signs, other._signs)

    def __hash__(self) -> int:
        return hash((self._n, self._signs.tobytes()))

    def __repr__(self) -> str:
        return f"Tournament(n={self._n})"


class Ranking:
    """Permutation of n items; ranks[i] is the rank of item i, 1 = best."""

    __slots__ = ("_ranks",)

    def __init__(self, ranks):
        arr = as_reals(ranks, "ranks")
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("ranks must be a non-empty 1-d sequence")
        # Check before the int cast, which would truncate 1.5 to 1.
        if not np.array_equal(np.sort(arr), np.arange(1, arr.size + 1)):
            raise ValueError(f"ranks must be a permutation of 1..{arr.size}")
        arr = arr.astype(np.int64)
        arr.setflags(write=False)
        self._ranks = arr

    @classmethod
    def _adopt(cls, ranks: np.ndarray) -> "Ranking":
        """Wrap ``ranks`` without the permutation check and make it read-only.

        For builders only: ``ranks`` is a fresh int64 array that one has just
        built as a permutation of 1..n.
        """
        ranks.setflags(write=False)
        r = cls.__new__(cls)
        r._ranks = ranks
        return r

    @classmethod
    def identity(cls, n: int) -> "Ranking":
        return cls._adopt(np.arange(1, check_size(n) + 1, dtype=np.int64))

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
        i, j = _vertex_pair(self.n, i, j)
        if i == j:
            raise ValueError("pairwise_sign requires distinct items")
        return 1 if self._ranks[i] < self._ranks[j] else -1

    def upper_pairwise_signs(self) -> np.ndarray:
        """pairwise_sign(i, j) for i < j in lexicographic order (a fresh int8 array)."""
        r = _narrow(self._ranks)
        return _as_signs((r[:, None] < r[None, :])[upper_mask(r.size)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return np.array_equal(self._ranks, other._ranks)

    def __hash__(self) -> int:
        return hash(self._ranks.tobytes())

    def __repr__(self) -> str:
        return f"Ranking({self._ranks.tolist()})"


# Every reader of a draw takes it in blocks of whole rows, with at most this
# many edges unless a single row has more: a float64 block of upper_blocks
# stays near 1 MiB, which the spectral product reads twice while it is cached.
_BLOCK_EDGES = 1 << 17


# A sweep asks for one n many times in a row, and each draw reads the plan twice.
@functools.lru_cache(maxsize=1)
def _row_blocks(n: int) -> tuple:
    """Plan of (a, b, lo, hi) per block: rows a..b-1 and columns a..n-1, holding edges lo..hi-1.

    Each block takes as many whole rows as fit in _BLOCK_EDGES, and at least one.
    """
    start = _row_start(n, np.arange(n + 1, dtype=np.int64))  # start[n - 1] = start[n] = m
    blocks, a = [], 0
    while a < n - 1:
        b = int(np.searchsorted(start, start[a] + _BLOCK_EDGES, side="right")) - 1
        b = min(max(b, a + 1), n - 1)
        blocks.append((a, b, int(start[a]), int(start[b])))
        a = b
    return tuple(blocks)


# A double u from generator.random is k / 2^53 for a uniform 53-bit integer k;
# a fair coin reads this many of its low bits.
_FAIR_BITS = 48


def _coin_flags(n: int, gamma: float, gen: np.random.Generator):
    """Bool coin flags, each true with probability 1/2 + gamma: one array per row block.

    A flag says the edge agrees with the hidden ranking or, in the null model
    (gamma = 0, no ranking), that i beats j.  The flags come in edge order, and
    generator.random fills consecutive slices of one buffer with the same
    doubles as one call, so a draw does not depend on the block plan:
    - gamma > 0: flag e is "double e < 1/2 + gamma".
    - gamma = 0: flag e is bit e mod 48 of k = u * 2^53 for double u number
      e // 48, the 48 low bits read as 6 little-endian bytes.  When a block
      ends inside a double, the next block starts with that double's unread bits.
    """
    plan = _row_blocks(n)
    widest = max((hi - lo for *_, lo, hi in plan), default=0)
    if gamma > 0:
        uniforms = np.empty(widest)
        for *_, lo, hi in plan:
            yield gen.random(out=uniforms[: hi - lo]) < (0.5 + gamma)
    else:
        # Slot 0 carries the last double of the block before; slots 1.. take the new ones.
        doubles = np.empty(-(-widest // _FAIR_BITS) + 1)
        words = np.empty(doubles.size, dtype="<u8")
        low_bytes = words.view(np.uint8).reshape(-1, 8)[:, : _FAIR_BITS // 8]
        for *_, lo, hi in plan:
            done, stop = -(-lo // _FAIR_BITS), -(-hi // _FAIR_BITS)  # doubles read before, after
            new = slice(1, 1 + stop - done)
            gen.random(out=doubles[new])
            np.multiply(doubles[new], 2.0**53, out=words[new], casting="unsafe")
            bits = np.unpackbits(low_bytes[: new.stop], axis=1, bitorder="little")
            bits = bits.view(bool).reshape(-1)
            first = lo - _FAIR_BITS * (done - 1)  # bit of lo; slot 0 when lo is inside a double
            words[0] = words[new.stop - 1]
            yield bits[first : first + hi - lo]


def _win_scores(n: int, flags, ranks: np.ndarray | None = None) -> np.ndarray:
    """Win scores (int64) from the flags of each row block, in the order _row_blocks plans them.

    A flag says that i beats j or, given ``ranks``, that the edge agrees with
    them: i beats j exactly when "i is ranked above j" equals the flag.  Vertex i
    plays n - 1 - i pairs along row i, winning row_i, and i pairs along column i,
    winning i - col_i, so s_i = 2 (row_i - col_i + i) - (n - 1).
    """
    count = np.min_scalar_type(n)  # a block row or column holds fewer than n flags
    row_minus_col = np.zeros(n, dtype=np.int64)
    for (a, b, _, _), block_flags in zip(_row_blocks(n), flags):
        upper = upper_mask(n - a, b - a)
        beats = np.zeros(upper.shape, dtype=bool)
        beats[upper] = block_flags
        if ranks is not None:
            np.equal(ranks[a:b, None] < ranks[None, a:], beats, out=beats)
            beats &= upper
        beats = beats.view(np.uint8)
        row_minus_col[a:b] += beats.sum(axis=1, dtype=count)
        row_minus_col[a:] -= beats.sum(axis=0, dtype=count)
    return 2 * (row_minus_col + np.arange(n)) - (n - 1)


def _tournament_from_blocks(n: int, blocks) -> Tournament:
    """The tournament whose edge flags (i beats j) come in the row blocks of _row_blocks(n).

    Each block is written into one fresh array that the tournament adopts, so a
    draw holds its edges once, plus one block.
    """
    flags = np.empty(edge_count(n), dtype=bool)
    for (*_, lo, hi), block in zip(_row_blocks(n), blocks):
        flags[lo:hi] = block
    return Tournament._adopt(n, _as_signs(flags))


def sample_null(n: int, rng: RngStream | np.random.Generator) -> Tournament:
    """Uniformly random tournament: the planted model at gamma = 0, with no ranking."""
    n = check_size(n)
    return _tournament_from_blocks(n, _coin_flags(n, 0.0, _as_generator(rng)))


def sample_planted(
    params: ModelParams, pi: Ranking, rng: RngStream | np.random.Generator
) -> Tournament:
    """Tournament whose edges agree with ``pi`` with probability 1/2 + gamma.

    One pass per row block: edge (i, j) is +1 exactly when "i is ranked
    above j" equals "the edge agrees with pi", computed in place on the coin
    flips, so no n x n comparison is built.
    """
    check_same_size(pi, params)
    n = params.n
    r = _narrow(pi.ranks)
    flags = _coin_flags(n, params.gamma, _as_generator(rng))
    beats = (
        np.equal((r[a:b, None] < r[None, a:])[upper_mask(n - a, b - a)], agree, out=agree)
        for (a, b, _, _), agree in zip(_row_blocks(n), flags)
    )
    return _tournament_from_blocks(n, beats)


def _uniform_ranking(n: int, gen: np.random.Generator) -> Ranking:
    """The hidden ranking every planted draw starts with: one permutation from ``gen``."""
    return Ranking._adopt(gen.permutation(n) + 1)


def sample_planted_uniform(
    params: ModelParams, rng: RngStream | np.random.Generator
) -> tuple[Ranking, Tournament]:
    """Draw a uniform hidden ranking, then a tournament correlated with it.

    The ranking is drawn first and the edges second, so the edge stream for
    a fixed ranking matches :func:`sample_planted` on the same generator.
    """
    gen = _as_generator(rng)
    pi = _uniform_ranking(params.n, gen)
    return pi, sample_planted(params, pi, gen)


def sample_null_scores(n: int, rng: RngStream | np.random.Generator) -> np.ndarray:
    """Win scores of ``sample_null(n, rng)``, from the same stream, without the tournament."""
    n = check_size(n)
    return _win_scores(n, _coin_flags(n, 0.0, _as_generator(rng)))


def sample_planted_scores(
    params: ModelParams, rng: RngStream | np.random.Generator
) -> tuple[Ranking, np.ndarray]:
    """Hidden ranking and win scores of ``sample_planted_uniform(params, rng)``.

    Same stream, same values, but no tournament is built: memory stays a few
    MiB at any n.
    """
    gen = _as_generator(rng)
    pi = _uniform_ranking(params.n, gen)
    flags = _coin_flags(params.n, params.gamma, gen)
    return pi, _win_scores(params.n, flags, _narrow(pi.ranks))


def induced_tournament(pi: Ranking) -> Tournament:
    """The transitive tournament that orients every edge as ``pi`` does."""
    return Tournament._adopt(pi.n, pi.upper_pairwise_signs())


def check_same_size(a, b) -> None:
    """Refuse two objects whose sizes ``n`` differ."""
    if a.n != b.n:
        raise ValueError(f"sizes differ: {type(a).__name__} n={a.n}, {type(b).__name__} n={b.n}")


def discordant_pairs(x: np.ndarray, y: np.ndarray) -> int:
    """Number of pairs with x_i < x_j and y_i > y_j, for two arrays of n values in 0..n."""
    x, y = _narrow(x), _narrow(y)
    discordant = x[:, None] < x[None, :]
    discordant &= y[:, None] > y[None, :]
    return int(np.count_nonzero(discordant))


def kendall_tau(p1: Ranking, p2: Ranking) -> int:
    """Number of pairs ordered oppositely by the two rankings."""
    check_same_size(p1, p2)
    return discordant_pairs(p1.ranks, p2.ranks)


def spearman_footrule(p1: Ranking, p2: Ranking) -> int:
    """Total displacement sum_i |p1(i) - p2(i)|."""
    check_same_size(p1, p2)
    return int(np.abs(p1.ranks - p2.ranks).sum())


def alignment(pi: Ranking, t: Tournament) -> int:
    """Consistent minus inconsistent edges of ``t`` relative to ``pi``.

    Equals sum over i < j of T_{i,j} * pairwise_sign(i, j); the maximizer
    over rankings is the maximum likelihood estimate of the hidden ranking.
    """
    check_same_size(pi, t)
    return int(np.sum(t.upper_signs() * pi.upper_pairwise_signs(), dtype=np.int64))
