import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tourney_lab import core
from tourney_lab.core import (
    ModelParams,
    Ranking,
    RngStream,
    Tournament,
    alignment,
    edge_count,
    induced_tournament,
    kendall_tau,
    ranking_codes,
    sample_null,
    sample_null_scores,
    sample_planted,
    sample_planted_scores,
    sample_planted_uniform,
    spearman_footrule,
    tournament_code,
    upper_mask,
)
from tourney_lab.detection import (
    wedge_from_scores,
    wedge_null_moments,
    wedge_planted_mean,
    wedge_test,
)
from tourney_lab.experiments import SweepConfig
from tourney_lab.fourier import recovery_lower_bound
from tourney_lab.recovery import concavity_check, pessimistic_error_statistic
from tourney_lab.spectral import build_A, closed_form_eigenpair, closed_form_eigenvalue


def cyclic3() -> Tournament:
    # 1 beats 2, 2 beats 3, 3 beats 1 (0-based edges (0,1), (0,2), (1,2))
    return Tournament(3, np.array([1, -1, 1]))


def random_ranking(n, gen) -> Ranking:
    return Ranking(gen.permutation(n) + 1)


# Every sampler, and Tournament.scores, walks blocks of whole rows with at most
# 2^17 edges: 512 is the last size with a single block.
BLOCK_SIZES = [2, 3, 512, 513, 724, 725, 726, 2000]
# A fair coin reads 48 edges a double: n = 33 has 11 * 48 edges, its neighbours 16 and 33 over.
FAIR_SIZES = [32, 33, 34]


# Reference draws: each reads a whole draw from the generator in one call and
# builds it with numpy alone, sharing no code with the samplers.
def one_call_fair_flags(m, twin) -> np.ndarray:
    """Flag e is bit e mod 48 of k = u * 2^53, for u the (e // 48)-th double."""
    k = (twin.random(math.ceil(m / 48)) * 2.0**53).astype(np.uint64)
    bits = (k[:, None] >> np.arange(48, dtype=np.uint64)) & 1
    return bits.reshape(-1)[:m] == 1


def one_call_null_signs(n, twin) -> np.ndarray:
    return np.where(one_call_fair_flags(edge_count(n), twin), 1, -1)


def one_call_planted_signs(ranks, gamma, twin) -> np.ndarray:
    """Edge e agrees with the ranking (sigma) iff its coin says so.

    The coin is "the e-th uniform is below 1/2 + gamma" for gamma > 0, and the fair flag
    of one_call_fair_flags at gamma = 0.
    """
    i, j = np.triu_indices(ranks.size, 1)
    sigma = np.where(ranks[i] < ranks[j], 1, -1).astype(np.int8)
    if gamma == 0:
        agree = one_call_fair_flags(i.size, twin)
    else:
        agree = twin.random(i.size) < 0.5 + gamma
    return np.where(agree, sigma, -sigma)


def pair_sum_scores(n, signs) -> np.ndarray:
    """Win scores of upper-triangle signs: +sign to the row vertex, -sign to the column vertex."""
    i, j = np.triu_indices(n, 1)
    return (np.bincount(i, signs, n) - np.bincount(j, signs, n)).astype(np.int64)


class TestTournament:
    def test_sign_accessor_skew_symmetry(self):
        t = cyclic3()
        for i in range(3):
            assert t.sign(i, i) == 0
            for j in range(3):
                if i != j:
                    assert t.sign(i, j) == -t.sign(j, i)

    def test_sign_values(self):
        t = cyclic3()
        assert t.sign(0, 1) == 1
        assert t.sign(0, 2) == -1
        assert t.sign(1, 2) == 1

    def test_stored_sign_count(self):
        for n in (1, 2, 5, 12):
            t = sample_null(n, RngStream(0))
            signs = t.upper_signs()
            assert signs.shape == (edge_count(n),)
            assert np.all(np.abs(signs) == 1) or n == 1

    def test_matrix_matches_accessor(self):
        t = sample_null(6, RngStream(3))
        mat = t.to_matrix()
        for i in range(6):
            for j in range(6):
                assert mat[i, j] == t.sign(i, j)
        assert np.array_equal(mat, -mat.T)

    def test_bad_signs_rejected(self):
        # The constructor checks its signs before the int8 cast.
        bad = [[1.5, 1, 1], [0, 1, 1], [1, -7, 1], [True, True, False], ["1", "1", "1"]]
        bad += [[1, True, -1]]  # an int64 cast would read the bool as 1
        for signs in bad + [np.array([1, 0, 1])]:
            with pytest.raises(ValueError, match="signs must be"):
                Tournament(3, signs)
        with pytest.raises(ValueError, match="expected 3 signs"):
            Tournament(3, np.array([1, 1]))
        t = Tournament(3, [1.0, -1.0, 1.0])
        assert t == cyclic3() and t.upper_signs().dtype == np.int8

    # Each sign list holds n(n - 1)/2 signs, so only the type of n is wrong.
    @pytest.mark.parametrize("n, signs", [(2.5, [1]), (3.0, [1] * 3), (True, []), ("3", [1] * 3)])
    def test_non_integer_n_rejected(self, n, signs):
        with pytest.raises(ValueError):
            Tournament(n, signs)

    def test_integral_n_stored_as_int(self):
        t = Tournament(np.int64(3), [1, -1, 1])
        assert type(t.n) is int and t == cyclic3()
        assert (t == "x") is False and repr(t) == "Tournament(n=3)"
        assert t.scores().tolist() == cyclic3().scores().tolist() == [0, 0, 0]

    def test_scores_peak_small_at_five_thousand(self):
        # Scattering the 12.5 million signs into an n x n array peaked at 60 MiB.
        t = sample_null(5000, RngStream(2))
        tracemalloc.start()
        try:
            scores = t.scores()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert np.array_equal(scores, pair_sum_scores(5000, t.upper_signs()))

    def test_public_construction_copies_its_argument(self):
        signs = np.array([1, -1, 1], dtype=np.int8)
        t = Tournament(3, signs)
        signs[:] = -1
        assert t == cyclic3() and signs.flags.writeable

    @pytest.mark.parametrize(
        "draw",
        [
            lambda: sample_null(5000, RngStream(7)),
            lambda: sample_planted_uniform(ModelParams(5000, 0.01), RngStream(7))[1],
        ],
        ids=["null", "planted"],
    )
    def test_draw_holds_its_edges_once(self, draw):
        # Joining the blocks with np.concatenate and copying the result into the
        # tournament peaked at twice the 11.9 MiB of signs it keeps.
        tracemalloc.start()
        try:
            t = draw()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * edge_count(5000)
        assert not t.upper_signs().flags.writeable


# Every entry point that takes a bare size checks it with the same words.
SIZE_ENTRY_POINTS = {
    "ModelParams": lambda n: ModelParams(n, 0.0),
    "Tournament": lambda n: Tournament(n, []),
    "sample_null": lambda n: sample_null(n, RngStream(0)),
    "sample_null_scores": lambda n: sample_null_scores(n, RngStream(0)),
    "Ranking.identity": Ranking.identity,
    "wedge_null_moments": wedge_null_moments,
    "build_A": build_A,
    "closed_form_eigenvalue": lambda n: closed_form_eigenvalue(n, 1),
    "closed_form_eigenpair": lambda n: closed_form_eigenpair(n, 1),
}


@pytest.mark.parametrize(
    "n, message",
    [
        (True, "n must be an integer, got True"),
        (2.5, "n must be an integer, got 2.5"),
        (0, "n must be at least 1"),
        (-1, "n must be at least 1"),
    ],
)
@pytest.mark.parametrize("entry", list(SIZE_ENTRY_POINTS))
def test_every_entry_point_rejects_a_bad_size_alike(entry, n, message):
    with pytest.raises(ValueError) as raised:
        SIZE_ENTRY_POINTS[entry](n)
    assert str(raised.value) == message


# Every function that takes two sized objects refuses a mismatch through core.check_same_size.
SIZE_MISMATCHES = {
    "sample_planted": lambda: sample_planted(
        ModelParams(3, 0.1), Ranking.identity(4), RngStream(0)
    ),
    "kendall_tau": lambda: kendall_tau(Ranking.identity(3), Ranking.identity(4)),
    "spearman_footrule": lambda: spearman_footrule(Ranking.identity(3), Ranking.identity(4)),
    "alignment": lambda: alignment(Ranking.identity(4), cyclic3()),
    "pessimistic_error_statistic": lambda: pessimistic_error_statistic(
        cyclic3(), Ranking.identity(4)
    ),
    "wedge_test": lambda: wedge_test(cyclic3(), ModelParams(4, 0.1)),
}


@pytest.mark.parametrize("entry", list(SIZE_MISMATCHES))
def test_every_pair_of_sizes_is_checked_alike(entry):
    with pytest.raises(ValueError, match="sizes differ"):
        SIZE_MISMATCHES[entry]()


# A ragged sequence is refused by as_reals under the argument's name, not in numpy's words.
RAGGED_INPUTS = {
    "Ranking": (lambda: Ranking([1, [2]]), "ranks"),
    "Tournament": (lambda: Tournament(3, [1, [1], -1]), "signs"),
    "concavity_check": (lambda: concavity_check([1], 0, 5), "a and b"),
    "wedge_from_scores": (lambda: wedge_from_scores([0, [1]]), "scores"),
    "SweepConfig": (
        lambda: SweepConfig("detect-wedge", [8], {"c": [1], "alpha": 0.5}, 1, 1),
        "c and alpha",
    ),
}


@pytest.mark.parametrize("entry", list(RAGGED_INPUTS))
def test_ragged_input_is_refused_by_name(entry):
    build, name = RAGGED_INPUTS[entry]
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == f"{name} must be real, got a ragged sequence"


# Both pair accessors on n = 3 read i and j through core.as_int and one range check.
PAIR_ACCESSORS = {"sign": cyclic3().sign, "pairwise_sign": Ranking([2, 1, 3]).pairwise_sign}


@pytest.mark.parametrize(
    "i, j, message",
    [
        (True, 2, "i must be an integer, got True"),
        (1, True, "j must be an integer, got True"),
        (1.0, 2, "i must be an integer, got 1.0"),
        (-1, 2, "vertex out of range for n=3"),
        (0, 3, "vertex out of range for n=3"),
    ],
)
@pytest.mark.parametrize("accessor", list(PAIR_ACCESSORS))
def test_pair_accessors_check_their_indices(accessor, i, j, message):
    error = IndexError if message.startswith("vertex") else ValueError
    with pytest.raises(error) as raised:
        PAIR_ACCESSORS[accessor](i, j)
    assert str(raised.value) == message


class TestRanking:
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_uniform_ranking_equals_checked_construction(self, n):
        gen, twin = RngStream(79, n).generator(), RngStream(79, n).generator()
        pi = core._uniform_ranking(n, gen)
        assert pi == Ranking(twin.permutation(n) + 1)
        assert pi.ranks.dtype == np.int64 and not pi.ranks.flags.writeable
        assert gen.random() == twin.random()

    def test_validation(self):
        with pytest.raises(ValueError):
            Ranking([1, 1, 3])
        with pytest.raises(ValueError):
            Ranking([0, 1, 2])
        with pytest.raises(ValueError):
            Ranking([2, 3, 4])
        with pytest.raises(ValueError):
            Ranking([[1, 2]])
        with pytest.raises(ValueError):
            Ranking([])
        # Non-integer ranks are rejected, not truncated to a permutation.
        with pytest.raises(ValueError):
            Ranking([1.5, 2.5])
        with pytest.raises(ValueError):
            Ranking(np.array([1.9, 2.2]))
        pi = Ranking([2.0, 1.0])
        assert pi == Ranking([2, 1]) and pi.ranks.dtype == np.int64

    @pytest.mark.parametrize(
        "build, values",
        [
            (Ranking, [True]),
            (Ranking, ["1", "2"]),
            (Ranking, [1, None]),
            (Ranking, [1 + 0j]),
            (Ranking, [2, True]),
            (Ranking, [True, 2]),
        ],
    )
    def test_non_numbers_rejected(self, build, values):
        # Bools, strings, None and complex numbers are refused before any comparison,
        # and a bool among ints before the int64 cast, which would read it as 1.
        with pytest.raises(ValueError):
            build(values)

    def test_pairwise_sign(self):
        pi = Ranking([2, 1, 3])
        assert pi.pairwise_sign(0, 1) == -1
        assert pi.pairwise_sign(1, 0) == 1
        assert pi.pairwise_sign(0, 2) == 1
        with pytest.raises(ValueError):
            pi.pairwise_sign(1, 1)

    def test_order_and_from_order(self):
        pi = Ranking([2, 1, 3])
        assert pi.order().tolist() == [1, 0, 2]
        assert Ranking(np.argsort(pi.order()) + 1) == pi

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_builders_equal_checked_construction(self, n):
        # identity skips the permutation check; its ranks must still be the checked ones.
        pi, checked = Ranking.identity(n), Ranking(list(range(1, n + 1)))
        assert pi == checked and hash(pi) == hash(checked)
        assert (pi == "x") is False and repr(pi) == f"Ranking({list(range(1, n + 1))})"
        assert pi.ranks.dtype == checked.ranks.dtype == np.int64
        assert not pi.ranks.flags.writeable and not checked.ranks.flags.writeable

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_identity_and_reversal_reject_non_integer_n(self, n):
        with pytest.raises(ValueError):
            Ranking.identity(n)

    def test_identity_and_reversal_accept_integral_n(self):
        assert Ranking.identity(np.int64(3)) == Ranking([1, 2, 3])


class TestSampleNull:
    def test_n1_has_no_edges(self):
        t = sample_null(1, RngStream(1))
        assert t.n == 1
        assert t.upper_signs().size == 0

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            sample_null(0, RngStream(1))

    def test_n2_support(self):
        for s in range(20):
            t = sample_null(2, RngStream(s))
            assert t.sign(0, 1) in (1, -1)

    def test_empirical_mean_n2(self):
        gen = RngStream(2024).generator()
        total = sum(sample_null(2, gen).sign(0, 1) for _ in range(100_000))
        assert abs(total / 100_000) < 0.02

    @pytest.mark.parametrize("n", [1] + BLOCK_SIZES + FAIR_SIZES)
    def test_draw_is_one_random_call(self, n):
        gen, twin = RngStream(47, n).generator(), RngStream(47, n).generator()
        t = sample_null(n, gen)
        assert np.array_equal(t.upper_signs(), one_call_null_signs(n, twin))
        assert gen.random() == twin.random()

    @pytest.mark.parametrize("n", [1] + BLOCK_SIZES)
    def test_null_is_planted_at_gamma_zero(self, n):
        # For the identity ranking every pair i < j has i ranked above j, so an
        # edge agrees with it exactly when i beats j.
        params, identity = ModelParams(n, 0.0), Ranking.identity(n)
        gen, twin = RngStream(61, n).generator(), RngStream(61, n).generator()
        planted = sample_planted(params, identity, twin)
        assert sample_null(n, gen) == planted
        assert gen.random() == twin.random()
        gen, twin = RngStream(67, n).generator(), RngStream(67, n).generator()
        planted = sample_planted(params, identity, twin)
        assert np.array_equal(sample_null_scores(n, gen), planted.scores())
        assert gen.random() == twin.random()

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValueError):
            sample_null(n, RngStream(1))
        with pytest.raises(ValueError):
            sample_null_scores(n, RngStream(1))

    def test_rng_of_another_type_rejected(self):
        for sampler in (sample_null, sample_null_scores):
            with pytest.raises(TypeError, match="expected RngStream or numpy Generator"):
                sampler(4, 7)

    def test_determinism(self):
        a = sample_null(20, RngStream(99, 5))
        b = sample_null(20, RngStream(99, 5))
        assert a == b
        assert a != sample_null(20, RngStream(99, 6))


class TestSamplePlanted:
    def test_gamma_half_is_deterministic(self):
        gen = RngStream(5).generator()
        for n in (2, 5, 9):
            pi = random_ranking(n, gen)
            t = sample_planted(ModelParams(n, 0.5), pi, gen)
            assert t == induced_tournament(pi)

    def test_gamma_zero_matches_null_mean(self):
        gen = RngStream(17).generator()
        pi = Ranking.identity(3)
        total, count = 0, 0
        for _ in range(100_000):
            t = sample_planted(ModelParams(3, 0.0), pi, gen)
            total += int(t.upper_signs().sum())
            count += 3
        assert abs(total / count) < 0.02

    def test_edge_bias(self):
        # mean of T_{i,j} * pairwise_sign(i, j) should be 2*gamma = 0.6
        n, gamma, trials = 100, 0.3, 10_000
        gen = RngStream(31).generator()
        pi = random_ranking(n, gen)
        psign = pi.upper_pairwise_signs().astype(np.int64)
        total = 0
        for _ in range(trials):
            t = sample_planted(ModelParams(n, gamma), pi, gen)
            total += int((t.upper_signs() * psign).sum())
        n_obs = trials * edge_count(n)
        mean = total / n_obs
        se = np.sqrt((1 - 0.6**2) / n_obs)
        assert abs(mean - 0.6) <= 3 * se

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 30] + FAIR_SIZES + BLOCK_SIZES[2:])
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.5])
    def test_draw_matches_scalar_construction(self, n, gamma):
        for seed in range(3):
            pi = random_ranking(n, np.random.default_rng(100 + seed))
            gen, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            t = sample_planted(ModelParams(n, gamma), pi, gen)
            expected = one_call_planted_signs(pi.ranks, gamma, twin)
            assert np.array_equal(t.upper_signs(), expected)
            assert gen.random() == twin.random()

    def test_upper_pairwise_signs_are_fresh_and_writable(self):
        pi = Ranking([3, 1, 2])
        first, second = pi.upper_pairwise_signs(), pi.upper_pairwise_signs()
        assert first.dtype == np.int8 and first.flags.writeable
        first[:] = 0
        assert second.tolist() == pi.upper_pairwise_signs().tolist() == [-1, -1, 1]

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(3, 0.6)
        with pytest.raises(ValueError):
            ModelParams(0, 0.1)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, False, np.float64(2.0), "3", None])
    def test_params_reject_non_integer_n(self, n):
        with pytest.raises(ValueError):
            ModelParams(n, 0.1)

    @pytest.mark.parametrize("gamma", [False, True, "0.1", None, [0.1], float("nan")])
    def test_params_reject_non_number_gamma(self, gamma):
        with pytest.raises(ValueError) as raised:
            ModelParams(5, gamma)
        assert str(raised.value) == f"gamma must be a number in [0, 1/2], got {gamma!r}"

    @pytest.mark.parametrize("gamma", [0, 0.5, np.float32(0.25), np.int64(0)])
    def test_params_accept_number_gamma(self, gamma):
        assert ModelParams(5, gamma).gamma == gamma

    @pytest.mark.parametrize("n", [np.int64(5), np.uint16(5)])
    def test_params_accept_integral_n(self, n):
        assert type(ModelParams(n, 0.1).n) is int
        pi, scores = sample_planted_scores(ModelParams(n, 0.1), RngStream(3))
        expected_pi, expected = sample_planted_scores(ModelParams(5, 0.1), RngStream(3))
        assert pi == expected_pi and np.array_equal(scores, expected)

    @pytest.mark.parametrize("gamma", [np.float32(0.1), np.float16(0.2), np.int64(0), 0])
    def test_params_store_gamma_as_python_float(self, gamma):
        # A float32 gamma once took wedge_planted_mean(n = 50) to np.float32(784.00006).
        params, plain = ModelParams(50, gamma), ModelParams(50, float(gamma))
        assert type(params.gamma) is float
        for derived in (wedge_planted_mean, recovery_lower_bound):
            assert type(derived(params)) is float
            assert derived(params) == derived(plain)


class TestSamplePlantedUniform:
    def test_n1(self):
        pi, t = sample_planted_uniform(ModelParams(1, 0.3), RngStream(0))
        assert pi.ranks.tolist() == [1]
        assert t.upper_signs().size == 0

    def test_ranking_uniformity(self):
        gen = RngStream(123).generator()
        counts = {}
        trials = 60_000
        for _ in range(trials):
            pi, _ = sample_planted_uniform(ModelParams(3, 0.2), gen)
            key = tuple(pi.ranks.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / trials - 1 / 6) < 0.01

    def test_gamma_half_consistency(self):
        for s in range(10):
            pi, t = sample_planted_uniform(ModelParams(6, 0.5), RngStream(77, s))
            assert t == induced_tournament(pi)

    def test_determinism(self):
        p1, t1 = sample_planted_uniform(ModelParams(8, 0.2), RngStream(4, 9))
        p2, t2 = sample_planted_uniform(ModelParams(8, 0.2), RngStream(4, 9))
        assert p1 == p2 and t1 == t2

    def test_draw_peak_small_at_five_thousand(self):
        # 12.5 million uniforms and an n x n rank comparison peaked at 107 MiB;
        # the signs the tournament keeps are 12 MiB.
        tracemalloc.start()
        try:
            pi, t = sample_planted_uniform(ModelParams(5000, 0.01), RngStream(6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        assert pi.n == t.n == 5000 and t.num_edges == edge_count(5000)


class TestScoreSamplers:
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_null_scores_match_tournament_draw(self, n):
        for stream in range(2):
            gen, twin = RngStream(41, stream).generator(), RngStream(41, stream).generator()
            scores = sample_null_scores(n, gen)
            expected = sample_null(n, twin).scores()
            assert scores.dtype == expected.dtype
            assert np.array_equal(scores, expected)
            # Both took the same stretch of the stream.
            assert gen.integers(2**32) == twin.integers(2**32)
        expected = sample_null(n, RngStream(7, 3)).scores()
        assert np.array_equal(sample_null_scores(n, RngStream(7, 3)), expected)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("gamma", [0.0, 0.07, 0.5])
    def test_planted_scores_match_tournament_draw(self, n, gamma):
        params = ModelParams(n, gamma)
        gen, twin = RngStream(43, n).generator(), RngStream(43, n).generator()
        pi, scores = sample_planted_scores(params, gen)
        hidden, t = sample_planted_uniform(params, twin)
        assert pi == hidden
        assert scores.dtype == t.scores().dtype
        assert np.array_equal(scores, t.scores())
        assert gen.random() == twin.random()
        pi, scores = sample_planted_scores(params, RngStream(8, 1))
        hidden, t = sample_planted_uniform(params, RngStream(8, 1))
        assert pi == hidden and np.array_equal(scores, t.scores())

    @pytest.mark.parametrize("n", BLOCK_SIZES + FAIR_SIZES)
    def test_null_scores_match_one_call_reference(self, n):
        gen, twin = RngStream(53, n).generator(), RngStream(53, n).generator()
        scores = sample_null_scores(n, gen)
        assert np.array_equal(scores, pair_sum_scores(n, one_call_null_signs(n, twin)))
        assert gen.integers(2**32) == twin.integers(2**32)

    @pytest.mark.parametrize("n", BLOCK_SIZES + FAIR_SIZES)
    @pytest.mark.parametrize("gamma", [0.0, 0.07, 0.5])
    def test_planted_scores_match_one_call_reference(self, n, gamma):
        gen, twin = RngStream(59, n).generator(), RngStream(59, n).generator()
        pi, scores = sample_planted_scores(ModelParams(n, gamma), gen)
        ranks = twin.permutation(n) + 1
        assert np.array_equal(pi.ranks, ranks)
        signs = one_call_planted_signs(ranks, gamma, twin)
        assert np.array_equal(scores, pair_sum_scores(n, signs))
        assert gen.random() == twin.random()

    def test_single_vertex(self):
        assert sample_null_scores(1, RngStream(0)).tolist() == [0]
        pi, scores = sample_planted_scores(ModelParams(1, 0.3), RngStream(0))
        assert pi.ranks.tolist() == [1] and scores.tolist() == [0]
        with pytest.raises(ValueError):
            sample_null_scores(0, RngStream(0))

    def test_null_draw_at_ten_thousand_stays_small(self):
        # The edge flags alone would take 50 MB.
        tracemalloc.start()
        try:
            scores = sample_null_scores(10_000, RngStream(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert scores.sum() == 0 and np.all((scores - 9_999) % 2 == 0)

    def test_planted_draw_at_ten_thousand_stays_small(self):
        # The tournament would hold 50 million edges: 400 MB of uniforms alone.
        tracemalloc.start()
        try:
            pi, scores = sample_planted_scores(ModelParams(10_000, 0.01), RngStream(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert scores.sum() == 0 and np.all((scores - 9_999) % 2 == 0)
        assert pi.n == 10_000


def every_draw(n) -> list:
    """Each sampler's null and planted draws, their scores, and each stream's next double."""
    gen = RngStream(71, n).generator()
    t = sample_null(n, gen)
    draws = [t.upper_signs(), t.scores(), gen.random()]
    gen = RngStream(72, n).generator()
    draws += [sample_null_scores(n, gen), gen.random()]
    for gamma in (0.0, 0.1):
        params = ModelParams(n, gamma)
        gen = RngStream(73, n).generator()
        pi, t = sample_planted_uniform(params, gen)
        draws += [pi.ranks, t.upper_signs(), t.scores(), gen.random()]
        gen = RngStream(74, n).generator()
        draws += [*sample_planted_scores(params, gen), gen.random()]
    return draws


# Plans that cut a draw at many offsets within a double: one row a block (1
# edge), blocks just under, at and just over one double's 48 edges, and many
# blocks at a size that the default plan cuts in two.
@pytest.mark.parametrize(
    "n, block_edges", [(40, 1), (40, 47), (40, 48), (40, 49), (33, 48), (726, 4801)]
)
def test_draws_do_not_depend_on_the_block_plan(block_plan, n, block_edges):
    expected = every_draw(n)
    default_blocks = len(core._row_blocks(n))
    block_plan(block_edges)
    assert len(core._row_blocks(n)) > default_blocks
    draws = every_draw(n)
    assert len(draws) == len(expected)
    for draw, reference in zip(draws, expected):
        assert np.array_equal(draw, reference)


# Sizes and plans for the readers of a tournament's row blocks: one block, one
# row a block (block_edges = 1), and a few rows a block.
UPPER_BLOCK_SIZES = [1, 2, 3, 5, 64, 725, 1200]
UPPER_BLOCK_PLANS = [None, 1, 5000]


@pytest.mark.parametrize("block_edges", UPPER_BLOCK_PLANS)
@pytest.mark.parametrize("n", UPPER_BLOCK_SIZES)
def test_upper_blocks_tile_the_upper_triangle_of_to_matrix(block_plan, n, block_edges):
    t = sample_planted_uniform(ModelParams(n, 0.1), RngStream(20, n))[1]
    upper = np.triu(t.to_matrix(), 1)
    block_plan(block_edges)
    laid = np.zeros((n, n), dtype=np.int8)
    end = 0
    for a, b, block in t.upper_blocks(np.int8):
        assert a == end < b and block.shape == (b - a, n - a) and block.dtype == np.int8
        assert not np.tril(block).any()  # 0 on and below the diagonal
        laid[a:b, a:] = block
        end = b
    assert end == max(n - 1, 0)
    assert np.array_equal(laid, upper)
    for (_, _, wide), (_, _, narrow) in zip(t.upper_blocks(np.float32), t.upper_blocks(np.int8)):
        assert wide.dtype == np.float32 and np.array_equal(wide, narrow)


def test_upper_blocks_ask_for_one_buffer_size_whatever_the_dtype():
    # The spectral passes alternate float32 and float64 blocks; two sizes fragment the heap.
    t = sample_null(300, RngStream(21))
    sizes = {t.upper_blocks(dtype)[0][2].base.nbytes for dtype in (np.int8, np.float32, np.float64)}
    assert sizes == {8 * sum(block.size for *_, block in t.upper_blocks(np.float64))}


class TestInducedTournament:
    def test_identity(self):
        t = induced_tournament(Ranking.identity(3))
        assert t.upper_signs().tolist() == [1, 1, 1]

    def test_reversal(self):
        t = induced_tournament(Ranking(np.arange(3, 0, -1)))
        assert t.upper_signs().tolist() == [-1, -1, -1]

    def test_explicit(self):
        # item 1 (0-based 1) ranked first
        t = induced_tournament(Ranking([2, 1, 3]))
        assert t.sign(0, 1) == -1
        assert t.sign(0, 2) == 1
        assert t.sign(1, 2) == 1


class TestEdgeLayout:
    """Each vectorized reader of the edge signs agrees with the scalar accessors."""

    @staticmethod
    def draws(n):
        """(ranking, tournament) pairs: null and planted draws on fresh streams."""
        for stream in range(3):
            gen = RngStream(5, stream).generator()
            yield random_ranking(n, gen), sample_null(n, gen)
            yield sample_planted_uniform(ModelParams(n, 0.2), gen)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 30])
    def test_fast_paths_match_scalar_accessors(self, n):
        for pi, t in self.draws(n):
            signs = [[t.sign(i, j) for j in range(n)] for i in range(n)]
            assert t.to_matrix().tolist() == signs
            assert t.scores().tolist() == [sum(row) for row in signs]
            pairs = [pi.pairwise_sign(i, j) for i in range(n) for j in range(i + 1, n)]
            assert pi.upper_pairwise_signs().tolist() == pairs

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_scores_are_kept_read_only(self, n):
        t = sample_null(n, RngStream(0))
        first = t.scores()
        assert first.dtype == np.int64 and np.array_equal(t.scores(), first)
        with pytest.raises(ValueError):
            first[:] = 0
        assert np.array_equal(t.scores(), pair_sum_scores(n, t.upper_signs()))

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_upper_signs_are_read_only(self, n):
        signs = sample_null(n, RngStream(0)).upper_signs()
        with pytest.raises(ValueError):
            signs[:] = 1


def bit_code(signs) -> int:
    """Tournament code by definition: bit e is set when edge e has sign +1."""
    return sum(1 << e for e, sign in enumerate(signs) if sign > 0)


def lexicographic_permutations(k: int) -> np.ndarray:
    """Every permutation of 0..k-1 as an int8 row, in lexicographic order, by itertools."""
    return np.array(list(itertools.permutations(range(k))), dtype=np.int8)


def codes_one_edge_at_a_time(k: int) -> np.ndarray:
    """Oracle ranking_codes: bit e of row r is set when edge e = (i, j) has row[i] < row[j]."""
    table = lexicographic_permutations(k)
    codes = np.zeros(table.shape[0], dtype=np.int64)
    for bit, (i, j) in enumerate(zip(*np.nonzero(upper_mask(k)))):
        np.bitwise_or(codes, 1 << bit, out=codes, where=table[:, i] < table[:, j])
    return codes


class TestRankingCodes:
    @pytest.mark.parametrize("k", range(10))
    def test_level_by_level_equals_one_edge_at_a_time(self, k):
        assert np.array_equal(ranking_codes(k), codes_one_edge_at_a_time(k))

    def test_every_edge_set_in_half_the_rankings_at_ten_items(self):
        # The k = 10 level is the one the sign-average oracle of test_fourier reads.
        codes = ranking_codes(10)
        assert codes.shape == (math.factorial(10),)
        set_bits = int(np.bitwise_count(codes).sum(dtype=np.int64))
        assert set_bits == math.comb(10, 2) * math.factorial(10) // 2

    @pytest.mark.parametrize("k", range(1, 7))
    def test_row_codes_the_rank_array_of_permutation_table(self, k):
        codes = ranking_codes(k)
        assert codes.dtype == np.int64 and not codes.flags.writeable
        assert codes.shape == (math.factorial(k),)
        for row, code in zip(lexicographic_permutations(k), codes.tolist()):
            signs = induced_tournament(Ranking(row + 1)).upper_signs()
            assert code == bit_code(signs.tolist()) == tournament_code(signs)

    def test_built_one_edge_at_a_time(self):
        # An n! x n x n pairwise-order array peaks at about 50x the codes' bytes at k = 9.
        ranking_codes.cache_clear()
        tracemalloc.start()
        try:
            codes = ranking_codes(9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * codes.nbytes

    def test_caches_keep_one_size(self):
        # An unbounded cache would keep the k = 9 codes (2.8 MiB) once k = 3 is built.
        ranking_codes.cache_clear()
        tracemalloc.start()
        try:
            ranking_codes(9)
            ranking_codes(3)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 2**20
        assert ranking_codes.cache_info().currsize == 1


class TestPermutationMetrics:
    def test_kendall_identity(self):
        gen = RngStream(8).generator()
        for n in (1, 4, 9):
            pi = random_ranking(n, gen)
            assert kendall_tau(pi, pi) == 0

    def test_kendall_reversal(self):
        for n in (2, 3, 7):
            reversal = Ranking(np.arange(n, 0, -1))
            assert kendall_tau(Ranking.identity(n), reversal) == n * (n - 1) // 2

    def test_kendall_single_swap(self):
        assert kendall_tau(Ranking([1, 2, 3]), Ranking([1, 3, 2])) == 1

    def test_kendall_symmetric(self):
        gen = RngStream(11).generator()
        for _ in range(20):
            p1, p2 = random_ranking(6, gen), random_ranking(6, gen)
            assert kendall_tau(p1, p2) == kendall_tau(p2, p1)

    @pytest.mark.parametrize("n", [1, 2, 3, 129, 130, 255, 256, 257])
    def test_kendall_matches_pair_loop(self, n):
        # 129 and 257 are the first sizes whose ranks need a wider unsigned type;
        # at 255 the ranks fill uint8.
        gen = RngStream(12, n).generator()
        pairs = [(random_ranking(n, gen), random_ranking(n, gen)) for _ in range(3)]
        reversal = Ranking(np.arange(n, 0, -1))
        pairs += [(Ranking.identity(n), reversal), (reversal, reversal)]
        for p1, p2 in pairs:
            r1, r2 = p1.ranks.tolist(), p2.ranks.tolist()
            expected = sum(
                (r1[i] < r1[j]) != (r2[i] < r2[j]) for i in range(n) for j in range(i + 1, n)
            )
            assert kendall_tau(p1, p2) == expected

    def test_footrule_values(self):
        assert spearman_footrule(Ranking.identity(3), Ranking.identity(3)) == 0
        assert spearman_footrule(Ranking.identity(3), Ranking(np.arange(3, 0, -1))) == 4

    def test_metric_sandwich(self):
        gen = RngStream(13).generator()
        for n in (5, 20, 100):
            for _ in range(1000 if n < 100 else 200):
                p1, p2 = random_ranking(n, gen), random_ranking(n, gen)
                k = kendall_tau(p1, p2)
                f = spearman_footrule(p1, p2)
                assert k <= f <= 2 * k


class TestAlignment:
    def test_perfect_alignment(self):
        gen = RngStream(21).generator()
        for n in (2, 5, 11):
            pi = random_ranking(n, gen)
            assert alignment(pi, induced_tournament(pi)) == n * (n - 1) // 2

    def test_reversal_antisymmetry(self):
        gen = RngStream(22).generator()
        for _ in range(100):
            pi = random_ranking(7, gen)
            t = sample_null(7, gen)
            assert alignment(Ranking(8 - pi.ranks), t) == -alignment(pi, t)

    def test_cyclic_identity(self):
        # enumerate the three edges: +1 (0,1), -1 (0,2), +1 (1,2)
        assert alignment(Ranking.identity(3), cyclic3()) == 1

    def test_likelihood_monotonicity(self):
        # planted likelihood must be strictly increasing in alignment
        import itertools

        gamma = 0.3
        for seed in range(3):
            t = sample_null(3, RngStream(40, seed))
            results = []
            for perm in itertools.permutations((1, 2, 3)):
                pi = Ranking(list(perm))
                like = 1.0
                for i in range(3):
                    for j in range(i + 1, 3):
                        agrees = t.sign(i, j) == pi.pairwise_sign(i, j)
                        like *= 0.5 + gamma if agrees else 0.5 - gamma
                results.append((alignment(pi, t), like))
            results.sort()
            for (a1, l1), (a2, l2) in zip(results, results[1:]):
                if a1 == a2:
                    assert l1 == pytest.approx(l2, rel=1e-12)
                else:
                    assert l1 < l2


class TestRngStream:
    def test_stream_independence_of_order(self):
        draws_fwd = [sample_null(5, RngStream(7, i)) for i in range(10)]
        draws_rev = [sample_null(5, RngStream(7, i)) for i in reversed(range(10))]
        assert draws_fwd == list(reversed(draws_rev))

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1, -1)

    @pytest.mark.parametrize(
        "seed, stream_index", [(np.int64(2), np.uint8(3)), (np.int64(-1), np.int32(0))]
    )
    def test_numpy_integers_stored_as_int(self, seed, stream_index):
        stream = RngStream(seed, stream_index)
        assert type(stream.seed) is int and type(stream.stream_index) is int
        assert stream == RngStream(int(seed), int(stream_index))
        twin = RngStream(int(seed) % 2**64, int(stream_index))
        assert stream.generator().random() == twin.generator().random()

    @pytest.mark.parametrize(
        "seed, stream_index",
        [(1.5, 0), (2.0, 0), (True, 0), ("3", 0), (None, 0), (1, 1.5), (1, False), (1, "0")],
    )
    def test_non_integer_seed_or_stream_rejected(self, seed, stream_index):
        with pytest.raises(ValueError, match="must be an integer"):
            RngStream(seed, stream_index)
