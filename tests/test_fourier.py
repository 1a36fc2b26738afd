import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from tourney_lab.core import (
    ModelParams,
    Ranking,
    RngStream,
    Tournament,
    sample_planted_uniform,
)
from tourney_lab.fourier import (
    Shape,
    _planted_pmf,
    chi2_exact,
    chi2_fourier,
    kl_rademacher_bound,
    monomial_value,
    planted_expectation,
    planted_sign_average,
    recovery_lower_bound,
    tv_exact,
)

WEDGE = Shape([(0, 1), (0, 2)])


def all_tournaments(n):
    """Every tournament on n vertices, as sign tuples in lexicographic order."""
    m = n * (n - 1) // 2
    for signs in itertools.product((-1, 1), repeat=m):
        yield Tournament.from_upper_signs(n, np.array(signs))


def planted_prob(t: Tournament, gamma: float) -> float:
    """Oracle P(T): average the product edge law over all hidden rankings."""
    n = t.n
    total = 0.0
    for perm in itertools.permutations(range(1, n + 1)):
        pi = Ranking(list(perm))
        prob = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                agrees = t.sign(i, j) == pi.pairwise_sign(i, j)
                prob *= 0.5 + gamma if agrees else 0.5 - gamma
        total += prob
    return total / math.factorial(n)


def chi2_mahonian(n: int, gamma: float) -> float:
    """Closed-form chi2: E over two rankings of (1+4g^2)^agree (1-4g^2)^disagree, minus 1.

    The Kendall distance of two uniform rankings has the Mahonian law, with
    generating function prod_{j<=n} (1 + r + ... + r^(j-1)) / j.
    """
    r = (1 - 4 * gamma**2) / (1 + 4 * gamma**2)
    mahonian = math.prod(sum(r**k for k in range(j)) / j for j in range(1, n + 1))
    return (1 + 4 * gamma**2) ** math.comb(n, 2) * mahonian - 1


def random_shape(gen, n, max_edges=5) -> Shape:
    pairs = list(itertools.combinations(range(n), 2))
    k = int(gen.integers(0, max_edges + 1))
    chosen = gen.choice(len(pairs), size=min(k, len(pairs)), replace=False)
    return Shape([pairs[int(c)] for c in chosen])


class TestShape:
    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            Shape([(1, 1)])

    def test_duplicate_edges_collapse(self):
        assert Shape([(0, 1), (1, 0)]).num_edges == 1

    def test_vertices_and_components(self):
        s = Shape([(0, 1), (2, 3), (3, 4)])
        assert s.vertices() == (0, 1, 2, 3, 4)
        assert s.component_count() == 2


class TestMonomial:
    def test_empty_shape(self):
        t = next(all_tournaments(3))
        assert monomial_value(t, Shape()) == 1

    def test_single_edge(self):
        gen = RngStream(1).generator()
        from tourney_lab.core import sample_null

        for _ in range(10):
            t = sample_null(4, gen)
            assert monomial_value(t, Shape([(0, 1)])) == t.sign(0, 1)

    def test_multiplicativity(self):
        gen = RngStream(2).generator()
        from tourney_lab.core import sample_null

        for _ in range(50):
            t = sample_null(6, gen)
            s1, s2 = random_shape(gen, 6), random_shape(gen, 6)
            assert monomial_value(t, s1) * monomial_value(t, s2) == monomial_value(
                t, s1.symmetric_difference(s2)
            )

    def test_vertex_out_of_range(self):
        t = next(all_tournaments(3))
        with pytest.raises(ValueError):
            monomial_value(t, Shape([(0, 5)]))


class TestPlantedExpectation:
    def test_wedge_value(self):
        assert planted_sign_average(WEDGE) == Fraction(1, 3)
        for gamma in (0.05, 0.25, 0.5):
            assert planted_expectation(WEDGE, gamma) == pytest.approx(
                (2 * gamma) ** 2 / 3, rel=1e-15
            )

    def test_odd_shapes_vanish(self):
        odd_shapes = [
            Shape([(0, 1)]),
            Shape([(0, 1), (1, 2), (0, 2)]),
            Shape([(0, 1), (2, 3), (4, 5)]),
        ]
        for s in odd_shapes:
            assert planted_expectation(s, 0.3) == 0.0
            assert planted_sign_average(s) == 0

    def test_disjoint_union_factorizes(self):
        s1 = Shape([(0, 1), (0, 2)])
        s2 = Shape([(3, 4), (3, 5)])
        union = Shape(list(s1.edges | s2.edges))
        for gamma in (0.1, 0.4):
            assert planted_expectation(union, gamma) == pytest.approx(
                planted_expectation(s1, gamma) * planted_expectation(s2, gamma), rel=1e-12
            )

    def test_edge_decay_bound(self):
        gen = RngStream(3).generator()
        for _ in range(30):
            s = random_shape(gen, 7)
            for gamma in (0.1, 0.3, 0.5):
                assert abs(planted_expectation(s, gamma)) <= (2 * gamma) ** s.num_edges + 1e-15

    def test_vertex_guard(self):
        too_big = Shape([(i, i + 1) for i in range(10)])  # 11 vertices
        with pytest.raises(ValueError):
            planted_expectation(too_big, 0.1)

    def test_monte_carlo_wedge(self):
        # sample mean of T_{0,1} T_{0,2} at n=3, gamma=0.25 vs exact 1/12;
        # the hidden ranking must be redrawn uniformly every trial
        gen = RngStream(44).generator()
        params = ModelParams(3, 0.25)
        trials = 100_000
        values = np.empty(trials)
        for k in range(trials):
            _, t = sample_planted_uniform(params, gen)
            values[k] = t.sign(0, 1) * t.sign(0, 2)
        se = values.std() / math.sqrt(trials)
        assert abs(values.mean() - 1 / 12) <= 3 * se


class TestOrthonormality:
    def test_orthonormal_basis_n4(self):
        n, m = 4, 6
        pairs = list(itertools.combinations(range(n), 2))
        signs = np.array(
            [[t.sign(a, b) for a, b in pairs] for t in all_tournaments(n)], dtype=np.int64
        )
        monomials = np.empty((2**m, 2**m), dtype=np.int64)  # shape x tournament
        for mask in range(2**m):
            cols = [b for b in range(m) if mask >> b & 1]
            monomials[mask] = signs[:, cols].prod(axis=1) if cols else 1
        gram = monomials @ monomials.T
        expected = np.full(gram.shape, 0, dtype=np.int64)
        np.fill_diagonal(expected, 2**m)
        assert np.array_equal(gram, expected)

    def test_null_mean_zero_n4(self):
        n = 4
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1, 2 ** len(pairs)):
            shape = Shape([pairs[b] for b in range(len(pairs)) if mask >> b & 1])
            total = sum(monomial_value(t, shape) for t in all_tournaments(n))
            assert total == 0


class TestDivergences:
    def test_chi2_zero_at_null(self):
        for n in (2, 3, 4):
            assert chi2_exact(ModelParams(n, 0.0)) == pytest.approx(0.0, abs=1e-12)
            assert chi2_fourier(ModelParams(n, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_chi2_n2_vanishes(self):
        # a single edge is marginally uniform under the planted model
        for gamma in (0.1, 0.3, 0.5):
            assert chi2_exact(ModelParams(2, gamma)) == pytest.approx(0.0, abs=1e-12)

    def test_chi2_identity(self):
        for n in (3, 4, 5):
            for gamma in (0.05, 0.1, 0.2, 0.4):
                params = ModelParams(n, gamma)
                assert abs(chi2_exact(params) - chi2_fourier(params)) < 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_chi2_fourier_is_sum_over_shapes(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        shapes = [
            Shape([pairs[b] for b in range(len(pairs)) if mask >> b & 1])
            for mask in range(1, 2 ** len(pairs))
        ]
        for gamma in (0.1, 0.3, 0.5):
            expected = sum(planted_expectation(s, gamma) ** 2 for s in shapes)
            assert chi2_fourier(ModelParams(n, gamma)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chi2_mahonian_closed_form(self, n):
        for gamma in (0.0, 0.05, 0.1, 0.2, 0.4):
            params = ModelParams(n, gamma)
            expected = chi2_mahonian(n, gamma)
            assert abs(chi2_exact(params) - expected) < 1e-10
            assert abs(chi2_fourier(params) - expected) < 1e-10

    def test_chi2_n3_closed_form(self):
        # only the three wedges contribute: 3 * ((1/3)(2 gamma)^2)^2
        gamma = 0.25
        expected = 3 * ((2 * gamma) ** 2 / 3) ** 2
        assert chi2_fourier(ModelParams(3, gamma)) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1 / 48)

    @pytest.mark.parametrize("n", [3, 4])
    def test_against_independent_pmf_oracle(self, n):
        params = ModelParams(n, 0.3)
        probs = np.array([planted_prob(t, params.gamma) for t in all_tournaments(n)])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        chi2_oracle = float((probs**2).sum() * probs.size - 1)
        tv_oracle = float(0.5 * np.abs(probs - 1 / probs.size).sum())
        assert chi2_exact(params) == pytest.approx(chi2_oracle, abs=1e-12)
        assert tv_exact(params) == pytest.approx(tv_oracle, abs=1e-12)
        # chi2 and tv ignore how tournaments are numbered; the pmf itself does not.
        # Tournament T is the integer whose bit e is set when edge e has sign +1.
        codes = [
            sum(1 << e for e, sign in enumerate(t.upper_signs()) if sign > 0)
            for t in all_tournaments(n)
        ]
        assert np.allclose(_planted_pmf(params)[codes], probs, rtol=1e-12, atol=0)

    def test_pmf_built_once_per_params(self):
        params = ModelParams(5, 0.2)
        _planted_pmf.cache_clear()
        chi2_exact(params)
        tv_exact(params)
        info = _planted_pmf.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        with pytest.raises(ValueError):
            _planted_pmf(params)[0] = 0.0

    def test_tv_zero_at_null(self):
        assert tv_exact(ModelParams(3, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_tv_log_chi2_bound(self):
        for n in (3, 4):
            for gamma in (0.1, 0.25, 0.4):
                params = ModelParams(n, gamma)
                assert tv_exact(params) <= math.sqrt(math.log(chi2_exact(params) + 1)) + 1e-12

    def test_tv_at_max_gamma(self):
        value = tv_exact(ModelParams(3, 0.5))
        assert 0.0 < value <= 1.0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            chi2_exact(ModelParams(7, 0.1))
        with pytest.raises(ValueError):
            chi2_fourier(ModelParams(7, 0.1))
        with pytest.raises(ValueError):
            tv_exact(ModelParams(7, 0.1))


class TestNeymanPearsonFloor:
    def test_type1_plus_type2_floor(self):
        n, gamma = 3, 0.35
        params = ModelParams(n, gamma)
        tournaments = list(all_tournaments(n))
        probs = np.array([planted_prob(t, gamma) for t in tournaments])
        floor = 1.0 - tv_exact(params)

        from tourney_lab.detection import wedge_statistic

        classifiers = []
        for cut in (-3, -1, 1, 3):
            classifiers.append(lambda t, c=cut: wedge_statistic(t) >= c)
        for edge in ((0, 1), (0, 2), (1, 2)):
            classifiers.append(lambda t, e=edge: t.sign(*e) == 1)
            classifiers.append(lambda t, e=edge: t.sign(*e) == -1)
        for cut in (-3, -1, 1, 3):
            classifiers.append(
                lambda t, c=cut: sum(t.sign(i, j) for i in range(3) for j in range(i + 1, 3)) >= c
            )
        classifiers.append(lambda t: True)
        classifiers.append(lambda t: False)
        for k in range(8):
            classifiers.append(lambda t, k=k: hash(t) % 8 == k)
        assert len(classifiers) >= 20

        for classify in classifiers[:20]:
            votes = np.array([classify(t) for t in tournaments])
            type1 = votes.mean()  # null is uniform over the 8 tournaments
            type2 = probs[~votes].sum()
            assert type1 + type2 >= floor - 1e-12


class TestKlRademacher:
    def test_zero(self):
        assert kl_rademacher_bound(0.0) == (0.0, 0.0)

    def test_quarter(self):
        exact, bound = kl_rademacher_bound(0.25)
        assert exact == pytest.approx(0.5 * math.log(3), rel=1e-12)
        assert bound == pytest.approx(4 / 3, rel=1e-12)

    def test_exact_below_bound_on_grid(self):
        for gamma in np.linspace(0.0, 0.49, 50):
            exact, bound = kl_rademacher_bound(float(gamma))
            assert exact <= bound + 1e-15

    def test_half_rejected(self):
        with pytest.raises(ValueError):
            kl_rademacher_bound(0.5)


class TestRecoveryLowerBound:
    def test_gamma_zero(self):
        for n in (2, 10, 100):
            assert recovery_lower_bound(ModelParams(n, 0.0)) == 0.5 * math.comb(n, 2)

    def test_small_gamma_large_n(self):
        assert recovery_lower_bound(ModelParams(100, 0.001)) >= 0.45 * math.comb(100, 2)

    def test_never_exceeds_half_pairs(self):
        for n in (5, 50):
            for gamma in np.linspace(0.0, 0.45, 10):
                bound = recovery_lower_bound(ModelParams(n, float(gamma)))
                assert bound <= 0.5 * math.comb(n, 2) + 1e-12
