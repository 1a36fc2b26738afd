import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tourney_lab.core import (
    ModelParams,
    Ranking,
    RngStream,
    Tournament,
    alignment,
    edge_count,
    induced_tournament,
    kendall_tau,
    permutation_table,
    ranking_codes,
    sample_null,
    sample_planted,
    sample_planted_uniform,
    spearman_footrule,
    tournament_code,
)
from tourney_lab.recovery import rbw_alignment_lower_bound_statistic


def cyclic3() -> Tournament:
    # 1 beats 2, 2 beats 3, 3 beats 1 (0-based edges (0,1), (0,2), (1,2))
    return Tournament.from_upper_signs(3, np.array([1, -1, 1]))


def random_ranking(n, gen) -> Ranking:
    return Ranking(gen.permutation(n) + 1)


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
        with pytest.raises(ValueError):
            Tournament.from_upper_signs(3, np.array([1, 0, 1]))
        with pytest.raises(ValueError):
            Tournament.from_upper_signs(3, np.array([1, 1]))


class TestRanking:
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
        # from_order checks for a permutation of 0..n-1 before its int cast too.
        with pytest.raises(ValueError):
            Ranking.from_order([1.7, 0.2])
        with pytest.raises(ValueError):
            Ranking.from_order([0.5, 1.5])
        assert Ranking.from_order([1.0, 0.0]) == Ranking([2, 1])

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
        assert Ranking.from_order([1, 0, 2]) == pi

    def test_reversed(self):
        pi = Ranking([2, 1, 3])
        assert pi.reversed() == Ranking([2, 3, 1])


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

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 30])
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.5])
    def test_draw_matches_scalar_construction(self, n, gamma):
        # Edge e agrees with pi iff the e-th uniform is below 1/2 + gamma.
        m = edge_count(n)
        for seed in range(3):
            pi = random_ranking(n, np.random.default_rng(100 + seed))
            t = sample_planted(ModelParams(n, gamma), pi, np.random.default_rng(seed))
            twin = np.random.default_rng(seed)
            sigma = np.array(
                [pi.pairwise_sign(i, j) for i in range(n) for j in range(i + 1, n)], dtype=np.int8
            )
            expected = np.where(twin.random(m) < 0.5 + gamma, sigma, -sigma)
            assert t.upper_signs().tolist() == expected.tolist()

    def test_upper_pairwise_signs_are_fresh_and_writable(self):
        pi = Ranking([3, 1, 2])
        first, second = pi.upper_pairwise_signs(), pi.upper_pairwise_signs()
        assert first.dtype == np.int8 and first.flags.writeable
        first[:] = 0
        assert second.tolist() == pi.upper_pairwise_signs().tolist() == [-1, -1, 1]

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            sample_planted(ModelParams(4, 0.1), Ranking.identity(3), RngStream(0))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(3, 0.6)
        with pytest.raises(ValueError):
            ModelParams(0, 0.1)


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


class TestInducedTournament:
    def test_identity(self):
        t = induced_tournament(Ranking.identity(3))
        assert t.upper_signs().tolist() == [1, 1, 1]

    def test_reversal(self):
        t = induced_tournament(Ranking.reversal(3))
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

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 30])
    def test_rbw_alignment_bound_matches_double_loop(self, n):
        for _, t in self.draws(n):
            s = [sum(t.sign(i, k) for k in range(n)) for i in range(n)]
            expected = 0
            for i in range(n):
                for j in range(i + 1, n):
                    if s[i] == s[j]:
                        expected -= 1  # every tie is charged -1
                    else:
                        expected += t.sign(i, j) * (1 if s[i] > s[j] else -1)
            assert rbw_alignment_lower_bound_statistic(t) == expected

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_upper_signs_are_read_only(self, n):
        signs = sample_null(n, RngStream(0)).upper_signs()
        with pytest.raises(ValueError):
            signs[:] = 1


class TestPermutationTable:
    @pytest.mark.parametrize("k", range(8))
    def test_rows_are_every_permutation_in_lexicographic_order(self, k):
        table = permutation_table(k)
        expected = np.array(list(itertools.permutations(range(k))), dtype=np.int8)
        assert table.dtype == np.int8 and not table.flags.writeable
        assert table.shape == expected.shape == (math.factorial(k), k)
        assert np.array_equal(table, expected)

    def test_built_without_materializing_tuples(self):
        # A list of k! Python tuples peaks at about 19x the table's bytes at k = 8.
        permutation_table.cache_clear()
        tracemalloc.start()
        try:
            table = permutation_table(8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * table.nbytes


def bit_code(signs) -> int:
    """Tournament code by definition: bit e is set when edge e has sign +1."""
    return sum(1 << e for e, sign in enumerate(signs) if sign > 0)


class TestRankingCodes:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_row_codes_the_rank_array_of_permutation_table(self, k):
        codes = ranking_codes(k)
        assert codes.dtype == np.int64 and not codes.flags.writeable
        assert codes.shape == (math.factorial(k),)
        for row, code in zip(permutation_table(k), codes.tolist()):
            signs = induced_tournament(Ranking(row + 1)).upper_signs()
            assert code == bit_code(signs.tolist()) == tournament_code(signs)

    def test_built_one_edge_at_a_time(self):
        # An n! x n x n pairwise-order array peaks at about 50x the codes' bytes at k = 9.
        permutation_table(9)
        ranking_codes.cache_clear()
        tracemalloc.start()
        try:
            codes = ranking_codes(9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * codes.nbytes


class TestPermutationMetrics:
    def test_kendall_identity(self):
        gen = RngStream(8).generator()
        for n in (1, 4, 9):
            pi = random_ranking(n, gen)
            assert kendall_tau(pi, pi) == 0

    def test_kendall_reversal(self):
        for n in (2, 3, 7):
            assert kendall_tau(Ranking.identity(n), Ranking.reversal(n)) == n * (n - 1) // 2

    def test_kendall_single_swap(self):
        assert kendall_tau(Ranking([1, 2, 3]), Ranking([1, 3, 2])) == 1

    def test_kendall_symmetric(self):
        gen = RngStream(11).generator()
        for _ in range(20):
            p1, p2 = random_ranking(6, gen), random_ranking(6, gen)
            assert kendall_tau(p1, p2) == kendall_tau(p2, p1)

    def test_footrule_values(self):
        assert spearman_footrule(Ranking.identity(3), Ranking.identity(3)) == 0
        assert spearman_footrule(Ranking.identity(3), Ranking.reversal(3)) == 4

    def test_metric_sandwich(self):
        gen = RngStream(13).generator()
        for n in (5, 20, 100):
            for _ in range(1000 if n < 100 else 200):
                p1, p2 = random_ranking(n, gen), random_ranking(n, gen)
                k = kendall_tau(p1, p2)
                f = spearman_footrule(p1, p2)
                assert k <= f <= 2 * k

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau(Ranking.identity(3), Ranking.identity(4))
        with pytest.raises(ValueError):
            spearman_footrule(Ranking.identity(3), Ranking.identity(4))


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
            assert alignment(pi.reversed(), t) == -alignment(pi, t)

    def test_cyclic_identity(self):
        # enumerate the three edges: +1 (0,1), -1 (0,2), +1 (1,2)
        assert alignment(Ranking.identity(3), cyclic3()) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            alignment(Ranking.identity(3), sample_null(4, RngStream(0)))

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
