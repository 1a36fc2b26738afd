import itertools
import math

import numpy as np
import pytest

from tourney_lab.core import (
    ModelParams,
    Ranking,
    RngStream,
    Tournament,
    induced_tournament,
    sample_null,
    sample_planted_uniform,
    upper_mask,
)
from tourney_lab.detection import (
    DetectionVerdict,
    spectral_statistic,
    spectral_test,
    wedge_null_moments,
    wedge_planted_mean,
    wedge_statistic,
    wedge_test,
)


def cyclic3() -> Tournament:
    return Tournament.from_upper_signs(3, np.array([1, -1, 1]))


def wedge_direct(t: Tournament) -> int:
    """Oracle: literal sum of T_{i,j} T_{i,k} over all wedges."""
    mat = t.to_matrix().astype(np.int64)
    n = t.n
    iu = np.triu_indices(n, k=1)
    total = 0
    for i in range(n):
        v = mat[i]
        total += int(np.outer(v, v)[iu].sum())  # pairs through i; v[i] = 0
    return total


def rotational(n: int) -> Tournament:
    """Regular tournament on odd n: i beats i+1, ..., i+(n-1)/2 (mod n)."""
    gap = (np.arange(n) - np.arange(n)[:, None]) % n
    return Tournament.from_upper_signs(n, np.where(gap <= n // 2, 1, -1)[upper_mask(n)])


def relabel(t: Tournament, perm: np.ndarray) -> Tournament:
    mat = t.to_matrix()
    new = np.empty_like(mat)
    new[np.ix_(perm, perm)] = mat
    iu = np.triu_indices(t.n, k=1)
    return Tournament.from_upper_signs(t.n, new[iu])


class TestWedgeStatistic:
    def test_cyclic(self):
        assert wedge_statistic(cyclic3()) == -3
        assert wedge_direct(cyclic3()) == -3

    def test_transitive(self):
        t = induced_tournament(Ranking.identity(3))
        assert wedge_statistic(t) == 1
        assert wedge_direct(t) == 1

    def test_transitive_sum_of_squares_past_int32(self):
        # s_i = n - 1 - 2i; at n = 3000, sum s_i^2 is about 9.0e9 > 2^31.
        n = 3000
        t = induced_tournament(Ranking.identity(n))
        scores = t.scores()
        assert scores.tolist() == [n - 1 - 2 * i for i in range(n)]
        squares = sum((n - 1 - 2 * i) ** 2 for i in range(n))
        assert squares > 2**31
        # A dot product keeps the scores' dtype, so int32 scores would wrap here.
        assert int(scores @ scores) == squares
        assert scores.dtype == np.int64
        assert wedge_statistic(t) == (squares - n * (n - 1)) // 2

    def test_matches_direct_sum(self):
        gen = RngStream(5).generator()
        sizes = np.linspace(3, 40, 200).astype(int)
        for n in sizes:
            t = sample_null(int(n), gen)
            assert wedge_statistic(t) == wedge_direct(t)

    def test_relabeling_invariance(self):
        gen = RngStream(6).generator()
        for _ in range(50):
            n = int(gen.integers(3, 25))
            t = sample_null(n, gen)
            perm = gen.permutation(n)
            assert wedge_statistic(relabel(t, perm)) == wedge_statistic(t)


class TestWedgeMoments:
    def test_formula_values(self):
        assert wedge_null_moments(3) == (0.0, 3.0)
        assert wedge_null_moments(50) == (0.0, 58800.0)

    def test_null_moments_by_enumeration(self):
        values = []
        for signs in itertools.product((-1, 1), repeat=3):
            values.append(wedge_statistic(Tournament.from_upper_signs(3, np.array(signs))))
        values = np.array(values, dtype=float)
        assert values.mean() == 0.0
        assert (values**2).mean() == 3.0

    def test_planted_mean_formula(self):
        assert wedge_planted_mean(ModelParams(10, 0.0)) == 0.0
        assert wedge_planted_mean(ModelParams(50, 0.1)) == pytest.approx(784.0, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 10, 100, 2000])
    @pytest.mark.parametrize("gamma", [0.01, 0.1, 0.25, 0.5])
    def test_degree_two_identity(self, n, gamma):
        # planted mean^2 / null second moment is the whole degree-2 part of
        # chi^2, so the wedge is the optimal degree-2 test
        snr = wedge_planted_mean(ModelParams(n, gamma)) ** 2 / wedge_null_moments(n)[1]
        assert snr == pytest.approx(16 * gamma**4 * math.comb(n, 3) / 3, rel=1e-12)

    def test_planted_mean_by_enumeration(self):
        # exact E_P[f] at n=3, gamma=0.25 over 8 tournaments x 6 rankings
        gamma = 0.25
        total = 0.0
        for signs in itertools.product((-1, 1), repeat=3):
            t = Tournament.from_upper_signs(3, np.array(signs))
            prob = 0.0
            for perm in itertools.permutations((1, 2, 3)):
                pi = Ranking(list(perm))
                p = 1.0
                for i in range(3):
                    for j in range(i + 1, 3):
                        agrees = t.sign(i, j) == pi.pairwise_sign(i, j)
                        p *= 0.5 + gamma if agrees else 0.5 - gamma
                prob += p / 6
            total += prob * wedge_statistic(t)
        assert total == pytest.approx(0.25, abs=1e-12)
        assert wedge_planted_mean(ModelParams(3, gamma)) == pytest.approx(0.25, rel=1e-12)

    def test_null_second_moment_monte_carlo(self):
        n, trials = 30, 100_000
        gen = RngStream(7).generator()
        values = np.empty(trials)
        for k in range(trials):
            values[k] = wedge_statistic(sample_null(n, gen))
        target = wedge_null_moments(n)[1]
        assert abs((values**2).mean() - target) <= 0.05 * target

    def test_planted_mean_monte_carlo(self):
        n, gamma, trials = 50, 0.1, 10_000
        gen = RngStream(8).generator()
        params = ModelParams(n, gamma)
        values = np.empty(trials)
        for k in range(trials):
            _, t = sample_planted_uniform(params, gen)
            values[k] = wedge_statistic(t)
        se = values.std() / math.sqrt(trials)
        assert abs(values.mean() - 784.0) <= 3 * se

    def test_planted_variance_order(self):
        n = 100
        gamma = n**-0.75
        gen = RngStream(9).generator()
        params = ModelParams(n, gamma)
        trials = 3000
        values = np.empty(trials)
        for k in range(trials):
            _, t = sample_planted_uniform(params, gen)
            values[k] = wedge_statistic(t)
        envelope = n**3 + n**4 * gamma**2 + n**5 * gamma**4
        assert values.var() <= 10 * envelope


class TestWedgeTest:
    def test_verdicts(self):
        params = ModelParams(3, 0.25)
        t_null = cyclic3()  # f = -3, below midpoint 0.125
        assert wedge_test(t_null, params).verdict == "null"
        t_planted = induced_tournament(Ranking.identity(3))  # f = 1
        assert wedge_test(t_planted, params).verdict == "planted"

    def test_verdict_invariant(self):
        assert DetectionVerdict(1.0, 1.0).verdict == "planted"
        assert DetectionVerdict(0.999, 1.0).verdict == "null"

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError):
            wedge_test(cyclic3(), ModelParams(3, 0.0))

    def test_error_rate_pilot(self):
        # n=500, gamma = 5 n^(-3/4): average error (type I + type II)/2 <= 0.25
        n = 500
        gamma = 5 * n**-0.75
        params = ModelParams(n, gamma)
        trials = 200
        type1 = 0
        type2 = 0
        for k in range(trials):
            t_null = sample_null(n, RngStream(100, k))
            type1 += wedge_test(t_null, params).is_planted
            _, t_planted = sample_planted_uniform(params, RngStream(101, k))
            type2 += not wedge_test(t_planted, params).is_planted
        assert (type1 / trials + type2 / trials) / 2 <= 0.25


class TestSpectralStatistic:
    def test_trivial_sizes(self):
        t1 = sample_null(1, RngStream(0))
        assert spectral_statistic(t1) == 0.0
        t2 = sample_null(2, RngStream(0))
        assert spectral_statistic(t2) == pytest.approx(1.0, abs=1e-12)

    def test_cyclic_sqrt3(self):
        assert spectral_statistic(cyclic3()) == pytest.approx(math.sqrt(3), rel=1e-12)

    def test_agrees_with_hermitian_eigensolve(self):
        gen = RngStream(10).generator()
        for n in (5, 20, 80):
            t = sample_null(n, gen)
            herm = 1j * t.to_matrix().astype(np.complex128)
            lam_max = float(np.linalg.eigvalsh(herm)[-1])
            assert abs(spectral_statistic(t) - lam_max) <= 1e-8 * math.sqrt(n)

    def test_equals_largest_singular_value(self):
        # the full SVD is the oracle for the Lanczos iteration
        for n in (1, 2, 3, 4, 5, 16, 17, 64, 200, 400):
            draws = [sample_null(n, RngStream(11, n)), induced_tournament(Ranking.identity(n))]
            for k, gamma in enumerate((0.5 / math.sqrt(n), 1.5 / math.sqrt(n), 0.5)):
                params = ModelParams(n, min(gamma, 0.5))
                draws.append(sample_planted_uniform(params, RngStream(12 + k, n))[1])
            if n % 2:
                draws.append(rotational(n))
                assert not draws[-1].scores().any()  # T 1 = 0: ones is no start vector
            for t in draws:
                sv = float(np.linalg.svd(t.to_matrix().astype(float), compute_uv=False)[0])
                assert abs(spectral_statistic(t) - sv) <= 1e-12 * sv, (n, t.upper_signs())

    def test_value_depends_on_tournament_only(self):
        draws = [
            sample_null(200, RngStream(14)),
            sample_planted_uniform(ModelParams(300, 0.1), RngStream(15))[1],
        ]
        first = [spectral_statistic(t) for t in draws]
        np.random.standard_normal(1000)  # moves the global RNG state
        spectral_statistic(sample_null(257, RngStream(16)))
        copies = [Tournament.from_upper_signs(t.n, t.upper_signs()) for t in draws]
        again = [spectral_statistic(t) for t in copies[::-1]]
        assert first == again[::-1]  # bit for bit

    @pytest.mark.parametrize("n", [400, 1600])
    def test_null_edge_scaling(self, n):
        values = []
        for k in range(20):
            t = sample_null(n, RngStream(200 + n, k))
            values.append(spectral_statistic(t) / math.sqrt(n))
        assert 1.9 <= float(np.median(values)) <= 2.1

    def test_outlier_follows_bbp_curve(self):
        # At gamma = c / sqrt(n) the mean matrix has top eigenvalue theta sqrt(n),
        # theta = 4c / pi; the scaled statistic sits at the bulk edge 2 for
        # theta < 1 and tracks theta + 1/theta above it.
        def curve(theta):
            return theta + 1 / theta if theta > 1 else 2.0

        margin = (curve(6 / math.pi) - 2.0) / 4  # a quarter of the c = 1.5 outlier gap
        for n in (400, 800):
            for c in (0.5, 1.5, 2.5):
                params = ModelParams(n, c / math.sqrt(n))
                values = [
                    spectral_statistic(sample_planted_uniform(params, RngStream(302, k))[1])
                    for k in range(11)
                ]
                median = float(np.median(values)) / math.sqrt(n)
                assert abs(median - curve(4 * c / math.pi)) <= margin, (n, c, median)


class TestSpectralTest:
    def test_at_twice_sqrt_n_is_null(self):
        # the threshold is strictly above 2, so a statistic of exactly 2
        # sqrt(n) yields a null verdict for any positive epsilon
        assert DetectionVerdict(2.0, 2.05).verdict == "null"

    def test_small_instance_verdict(self):
        t = sample_null(2, RngStream(1))
        result = spectral_test(t, 0.1)
        assert result.verdict == "null"
        assert result.threshold == pytest.approx(2.1)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            spectral_test(cyclic3(), 0.0)

    def test_transition_small_scale(self):
        # quick version of the spectral transition at n=400
        n, eps = 400, 0.1
        planted_hits = 0
        null_hits = 0
        trials = 10
        for k in range(trials):
            params = ModelParams(n, 2.5 / math.sqrt(n))
            _, t = sample_planted_uniform(params, RngStream(300, k))
            planted_hits += spectral_test(t, eps).is_planted
            params_weak = ModelParams(n, 0.3 / math.sqrt(n))
            _, t_weak = sample_planted_uniform(params_weak, RngStream(301, k))
            null_hits += not spectral_test(t_weak, eps).is_planted
        assert planted_hits >= 9
        assert null_hits >= 9
