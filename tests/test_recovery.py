import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from tourney_lab.core import (
    ModelParams,
    Ranking,
    RngStream,
    Tournament,
    alignment,
    induced_tournament,
    kendall_tau,
    ranking_codes,
    sample_null,
    sample_planted,
    sample_planted_uniform,
    upper_mask,
)
from tourney_lab.experiments import SweepConfig, run_sweep
from tourney_lab.recovery import (
    brute_force_mle,
    concavity_check,
    max_alignment,
    opt_bounds,
    pessimistic_error_statistic,
    ranking_by_wins,
    rbw_expected_errors,
)


def cyclic3() -> Tournament:
    return Tournament(3, np.array([1, -1, 1]))


class TestScores:
    def test_sum_zero(self):
        gen = RngStream(60).generator()
        for n in (1, 2, 7, 40):
            t = sample_null(n, gen)
            assert int(t.scores().sum()) == 0

    def test_parity(self):
        gen = RngStream(61).generator()
        for n in (4, 9, 16):
            s = sample_null(n, gen).scores()
            assert np.all((s - (n - 1)) % 2 == 0)


class TestRankingByWins:
    def test_recovers_transitive_exactly(self):
        gen = RngStream(62).generator()
        for n in (2, 5, 10, 25):
            pi = Ranking(gen.permutation(n) + 1)
            assert ranking_by_wins(induced_tournament(pi)) == pi

    @pytest.mark.parametrize("n", [1, 2, 9, 200])
    def test_equals_checked_construction(self, n):
        for stream in range(3):
            ranks = ranking_by_wins(sample_null(n, RngStream(64, stream))).ranks
            assert ranks.dtype == np.int64 and not ranks.flags.writeable
            assert Ranking(ranks).ranks.tolist() == ranks.tolist()

    def test_cyclic_tie_rule(self):
        # all scores tie; larger vertex index receives the better rank
        assert ranking_by_wins(cyclic3()).ranks.tolist() == [3, 2, 1]

    def test_equivariance_with_distinct_scores(self):
        gen = RngStream(63).generator()
        checked = 0
        while checked < 20:
            n = int(gen.integers(4, 12))
            t = sample_null(n, gen)
            if len(set(t.scores().tolist())) < n:
                continue
            perm = gen.permutation(n)
            mat = t.to_matrix()
            relabeled = np.empty_like(mat)
            relabeled[np.ix_(perm, perm)] = mat
            iu = np.triu_indices(n, k=1)
            t2 = Tournament(n, relabeled[iu])
            r1 = ranking_by_wins(t).ranks
            r2 = ranking_by_wins(t2).ranks
            assert np.array_equal(r2[perm], r1)
            checked += 1

    def test_error_matches_pairwise_formula_scale(self):
        # mean Kendall error at n=400, gamma=0.15 tracks the Riemann sum of
        # the pairwise misordering probabilities
        n, gamma, trials = 400, 0.15, 40
        params = ModelParams(n, gamma)
        errors = []
        for k in range(trials):
            hidden, t = sample_planted_uniform(params, RngStream(640, k))
            errors.append(kendall_tau(hidden, ranking_by_wins(t)))
        predicted = sum(
            (n - d) * ndtr(-4 * d * gamma / math.sqrt(2 * (1 - 4 * gamma**2) * n))
            for d in range(1, n)
        )
        mean = float(np.mean(errors))
        assert 0.8 * predicted <= mean <= 1.2 * predicted

    def test_stronger_signal_recovers_better(self):
        n, trials = 200, 30
        means = []
        for gamma in (0.02, 0.1, 0.25):
            errs = [
                kendall_tau(hidden, ranking_by_wins(t))
                for hidden, t in (
                    sample_planted_uniform(ModelParams(n, gamma), RngStream(641, k))
                    for k in range(trials)
                )
            ]
            means.append(np.mean(errs))
        assert means[0] > means[1] > means[2]


class TestPessimisticError:
    def test_transitive_zero(self):
        pi = Ranking.identity(6)
        assert pessimistic_error_statistic(induced_tournament(pi), pi) == 0

    def test_cyclic_all_ties(self):
        assert pessimistic_error_statistic(cyclic3(), Ranking.identity(3)) == 3

    def test_dominates_actual_error(self):
        gen = RngStream(65).generator()
        for _ in range(500):
            n = int(gen.choice([5, 20, 100]))
            gamma = float(gen.uniform(0.0, 0.5))
            hidden, t = sample_planted_uniform(ModelParams(n, gamma), gen)
            actual = kendall_tau(hidden, ranking_by_wins(t))
            assert pessimistic_error_statistic(t, hidden) >= actual

    @pytest.mark.parametrize("n", [1, 2, 3, 129, 130, 255, 256, 257])
    def test_matches_pair_loop(self, n):
        # The transitive tournament's scores reach +-(n - 1): +128 at n = 129,
        # which an int8 comparison would wrap.  At 255 the ranks fill uint8.
        # The rotational tournament ties scores.
        gen = RngStream(67, n).generator()
        pi = Ranking(gen.permutation(n) + 1)
        gap = (np.arange(n) - np.arange(n)[:, None]) % n
        rotational = Tournament(n, np.where(gap <= n // 2, 1, -1)[upper_mask(n)])
        tournaments = [induced_tournament(pi), sample_null(n, gen), rotational]
        for t in tournaments:
            signs = t.upper_signs().tolist()
            scores = [0] * n
            for (i, j), sign in zip(itertools.combinations(range(n), 2), signs):
                scores[i] += sign
                scores[j] -= sign
            for hidden in (pi, Ranking(n + 1 - pi.ranks), Ranking(gen.permutation(n) + 1)):
                r = hidden.ranks.tolist()
                expected = sum(
                    r[i] < r[j] and scores[i] <= scores[j] for i in range(n) for j in range(n)
                )
                assert pessimistic_error_statistic(t, hidden) == expected
        reversal = Ranking(n + 1 - pi.ranks)
        assert pessimistic_error_statistic(induced_tournament(pi), reversal) == math.comb(n, 2)

    def test_concentration_scale(self):
        # sd over many trials stays far below 10 n^(3/2)
        n = 200
        gamma = 2 / math.sqrt(n)
        gen = RngStream(66).generator()
        params = ModelParams(n, gamma)
        trials = 10_000
        values = np.empty(trials)
        for k in range(trials):
            hidden, t = sample_planted_uniform(params, gen)
            values[k] = pessimistic_error_statistic(t, hidden)
        assert values.std() <= 10 * n**1.5


def mle_oracle(t: Tournament) -> tuple:
    """Maximum alignment, its maximizer count, and the smallest maximizing rank tuple."""
    n = t.n
    sign = [[t.sign(i, j) for j in range(n)] for i in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    best, count, first = None, 0, None
    for ranks in itertools.permutations(range(1, n + 1)):
        value = sum(sign[i][j] if ranks[i] < ranks[j] else -sign[i][j] for i, j in pairs)
        if best is None or value > best:
            best, count, first = value, 1, ranks
        elif value == best:
            count += 1
    return best, count, first


class TestBruteForceMle:
    @staticmethod
    def assert_matches_oracle(t: Tournament) -> int:
        result = brute_force_mle(t)
        best, count, first = mle_oracle(t)
        assert (result.best_alignment, result.optima_count) == (best, count)
        assert tuple(result.best_ranking.ranks.tolist()) == first
        return count

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_small_tournament_matches_oracle(self, n):
        for signs in itertools.product((-1, 1), repeat=n * (n - 1) // 2):
            self.assert_matches_oracle(Tournament(n, np.array(signs)))

    def test_null_draws_match_oracle(self):
        gen = RngStream(70).generator()
        counts = [self.assert_matches_oracle(sample_null(6, gen)) for _ in range(20)]
        assert max(counts) > 1  # the tie-break is exercised

    def test_transitive(self):
        pi = Ranking([2, 3, 1])
        result = brute_force_mle(induced_tournament(pi))
        assert result.best_alignment == 3
        assert result.best_ranking == pi
        assert result.optima_count == 1

    def test_cyclic(self):
        result = brute_force_mle(cyclic3())
        assert result.best_alignment == 1
        assert result.optima_count == 3

    def test_result_invariant(self):
        gen = RngStream(67).generator()
        for _ in range(20):
            t = sample_null(6, gen)
            result = brute_force_mle(t)
            assert alignment(result.best_ranking, t) == result.best_alignment

    def test_flip_symmetry(self):
        gen = RngStream(68).generator()
        for _ in range(20):
            t = sample_null(5, gen)
            flipped = Tournament(5, -t.upper_signs())
            assert brute_force_mle(t).best_alignment == brute_force_mle(flipped).best_alignment

    def test_dominates_ranking_by_wins(self):
        gen = RngStream(69).generator()
        for _ in range(50):
            n = int(gen.integers(3, 9))
            gamma = float(gen.uniform(0, 0.5))
            _, t = sample_planted_uniform(ModelParams(n, gamma), gen)
            assert brute_force_mle(t).best_alignment >= alignment(ranking_by_wins(t), t)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_mle(sample_null(10, RngStream(0)))

    def test_every_transitive_tournament_returns_its_ranking(self):
        for ranks in itertools.permutations(range(1, 6)):
            pi = Ranking(ranks)
            result = brute_force_mle(induced_tournament(pi))
            assert result.best_ranking == pi
            assert (result.best_alignment, result.optima_count) == (10, 1)

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_planted_draws_attain_the_reported_alignment(self, n):
        # Past the itertools oracle's reach; gamma = 0.02 leaves ties among the optima.
        counts = []
        for k, gamma in enumerate([0.02, 0.02, 0.1, 0.3]):
            _, t = sample_planted_uniform(ModelParams(n, gamma), RngStream(72, 10 * n + k))
            result = brute_force_mle(t)
            assert alignment(result.best_ranking, t) == result.best_alignment
            counts.append(result.optima_count)
        assert max(counts) > 1

    def test_cold_call_builds_no_full_permutation_table(self):
        # The n! x n table of all rankings would add 3.1 MiB at n = 9 to the codes' 2.8 MiB.
        t = sample_null(9, RngStream(71))
        ranking_codes.cache_clear()
        tracemalloc.start()
        try:
            brute_force_mle(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * ranking_codes(9).nbytes


def draw(n: int, gamma: float, stream: RngStream) -> Tournament:
    """A null draw at gamma = 0, else the tournament of a planted draw."""
    if gamma == 0.0:
        return sample_null(n, stream)
    return sample_planted_uniform(ModelParams(n, gamma), stream)[1]


class TestMaxAlignment:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_small_tournament_matches_brute_force(self, n):
        for signs in itertools.product((-1, 1), repeat=n * (n - 1) // 2):
            t = Tournament(n, np.array(signs))
            assert max_alignment(t) == brute_force_mle(t).best_alignment, signs

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_seeded_draws_match_brute_force(self, n):
        tied = 0
        for k, gamma in enumerate([0.0, 0.0, 0.05, 0.05, 0.2, 0.2, 0.5, 0.5]):
            t = draw(n, gamma, RngStream(74, 10 * n + k))
            assert max_alignment(t) == brute_force_mle(t).best_alignment, (gamma, k)
            tied += np.unique(t.scores()).size < n
        assert tied  # draws with equal scores are among them

    def test_matches_the_permutation_oracle(self):
        # mle_oracle loops over itertools.permutations, not over core.ranking_codes.
        for n in range(1, 7):
            for k, gamma in enumerate([0.0, 0.1, 0.3]):
                t = draw(n, gamma, RngStream(75, 10 * n + k))
                assert max_alignment(t) == mle_oracle(t)[0], (n, gamma)

    @pytest.mark.parametrize("n", [12, 16])
    def test_invariants_past_the_oracle(self, n):
        m = math.comb(n, 2)
        pi = Ranking(RngStream(76, n).generator().permutation(n) + 1)
        assert max_alignment(induced_tournament(pi)) == m
        for k, gamma in enumerate([0.0, 0.05, 0.2]):
            t = draw(n, gamma, RngStream(77, 10 * n + k))
            value = max_alignment(t)
            assert max_alignment(Tournament(n, -t.upper_signs())) == value
            assert alignment(ranking_by_wins(t), t) <= value <= m
            assert (value - m) % 2 == 0

    @pytest.mark.parametrize("n, smallest", [(1, 0), (2, 1), (3, 1), (4, 4), (5, 4)])
    def test_smallest_optimum_over_every_small_tournament(self, n, smallest):
        optima = [
            max_alignment(Tournament(n, np.array(signs)))
            for signs in itertools.product((-1, 1), repeat=n * (n - 1) // 2)
        ]
        assert min(optima) == smallest

    def test_null_draws_reach_at_least_one(self):
        for n in range(6, 17):
            for k in range(4):
                assert max_alignment(sample_null(n, RngStream(79, 10 * n + k))) >= 1, (n, k)

    def test_mle_compare_ratio_divides_by_the_optimum(self, tmp_path):
        # At n = 3 a cyclic draw has optimum 1, the smallest any tournament on 2+ vertices has.
        path = str(tmp_path / "mle.csv")
        config = SweepConfig("mle-compare", [3], [0.0, 0.2], 20, 80, output_path=path)
        trials = {}
        for row in run_sweep(config).rows:
            trials.setdefault((row.gamma, row.trial), {})[row.statistic] = row.value
        assert len(trials) == 40
        assert any(values["mle_alignment"] == 1 for values in trials.values())
        for values in trials.values():
            ratio = values["rbw_alignment"] / values["mle_alignment"]
            assert values["alignment_ratio"] == ratio

    def test_size_guard(self):
        with pytest.raises(ValueError, match="n=17 exceeds 16"):
            max_alignment(sample_null(17, RngStream(0)))

    def test_peak_at_the_largest_size(self):
        # The 2^16 table and one popcount layer's (sets x n) arrays: about 2.2 MiB.
        t = sample_null(16, RngStream(78))
        first = max_alignment(t)
        tracemalloc.start()
        try:
            again = max_alignment(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again == first
        assert peak < 8 * 2**20


def rbw_error_oracle(n: int, gamma: float) -> tuple[float, float]:
    """(E[kendall], E[pessimistic]) of RBW over every ranking and every tournament on n vertices."""
    pairs = np.array(list(itertools.combinations(range(n), 2))).reshape(-1, 2)
    i, j = pairs.T
    ranks = np.array(list(itertools.permutations(range(1, n + 1))))
    above = ranks[:, i] < ranks[:, j]  # above[r, e]: ranking r puts i above j on edge e
    p, q = 0.5 + gamma, 0.5 - gamma
    kendall = pessimistic = 0.0
    for signs in itertools.product((-1, 1), repeat=len(pairs)):
        t = Tournament(n, np.array(signs, dtype=np.int8))
        s, rbw = t.scores(), ranking_by_wins(t).ranks
        agree = np.count_nonzero(above == (np.array(signs) > 0), axis=1)
        weight = np.array([p**a * q ** (len(pairs) - a) for a in agree.tolist()])
        misordered = np.count_nonzero(above != (rbw[i] < rbw[j]), axis=1)
        tied_or_worse = np.count_nonzero(np.where(above, s[i] <= s[j], s[j] <= s[i]), axis=1)
        kendall += float(np.sum(weight * misordered))
        pessimistic += float(np.sum(weight * tied_or_worse))
    return kendall / len(ranks), pessimistic / len(ranks)


class TestRbwExpectedErrors:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_enumeration(self, n):
        for gamma in (0.0, 0.05, 0.15, 0.3, 0.5):
            law = rbw_expected_errors(ModelParams(n, gamma))
            assert law == pytest.approx(rbw_error_oracle(n, gamma), rel=0, abs=1e-12)

    def test_endpoints(self):
        for n in (1, 2, 3, 10, 101):
            half = math.comb(n, 2) / 2
            assert rbw_expected_errors(ModelParams(n, 0.0))[0] == pytest.approx(half, rel=1e-12)
            assert rbw_expected_errors(ModelParams(n, 0.5)) == (0.0, 0.0)

    def test_both_fall_as_gamma_rises_and_pessimistic_dominates(self):
        for n in (3, 9, 64):
            values = [rbw_expected_errors(ModelParams(n, g)) for g in np.linspace(0, 0.5, 21)]
            kendall, pessimistic = np.array(values).T
            assert np.all(np.diff(kendall) < 0) and np.all(np.diff(pessimistic) < 0)
            assert np.all(pessimistic >= kendall)

    @pytest.mark.parametrize(
        "n, gamma, kendall",
        [
            (9, 0.05, 15.76),
            (9, 0.15, 11.53),
            (9, 0.3, 6.23),
            (32, 0.05, 195.19),
            (64, 0.2, 274.44),
            (400, 0.15, 6576.37),  # criterion 6's point: 0.0824 C(n,2) against a 0.02 C(n,2) budget
        ],
    )
    def test_pinned_values(self, n, gamma, kendall):
        assert rbw_expected_errors(ModelParams(n, gamma))[0] == pytest.approx(kendall, abs=0.005)

    def test_square_root_scaling(self):
        # gamma = c/sqrt(n), c = 2: Kendall/C(n,2) nears its n -> oo limit from below,
        # int_0^1 2(1-x) Phi(-2 sqrt(2) c x) dx = 0.1254.
        n = 2000
        kendall, _ = rbw_expected_errors(ModelParams(n, 2 / math.sqrt(n)))
        assert kendall / math.comb(n, 2) == pytest.approx(0.1248, abs=5e-5)

    def test_recover_sweep_means_match(self, tmp_path):
        n, gamma, trials = 32, 0.1, 2000
        path = str(tmp_path / "recover.csv")
        rows = run_sweep(SweepConfig("recover", [n], [gamma], trials, 651, output_path=path)).rows
        law = rbw_expected_errors(ModelParams(n, gamma))
        for statistic, expected in zip(("kendall_error", "pessimistic_error"), law):
            values = np.array([r.value for r in rows if r.statistic == statistic])
            assert values.size == trials
            assert abs(values.mean() - expected) <= 4 * values.std() / math.sqrt(trials)

    def test_cached_per_point(self):
        rbw_expected_errors.cache_clear()
        params = ModelParams(32, 0.1)
        first = rbw_expected_errors(params)
        assert rbw_expected_errors(ModelParams(32, 0.1)) is first
        info = rbw_expected_errors.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (1, 1, 1)


class TestConcavityCheck:
    def test_linear_cases_pass(self):
        # a = 0 makes the function linear: (1-y) * Phi(-b)
        assert concavity_check(0.0, 0.0, 100) is True
        assert concavity_check(0.0, 2.0, 1000) is True

    def test_detects_convexity_for_positive_a(self):
        # (1-y) Phi(-a y - b) has second derivative
        # a phi(a y + b) (2 + a (1-y)(a y + b)) > 0, so it is convex and
        # the check reports non-concavity
        assert concavity_check(1.0, 0.0, 1000) is False
        assert concavity_check(5.0, 0.0, 1000) is False
        assert concavity_check(1.0, 2.0, 1000) is False

    def test_validation(self):
        # Bools, strings and None are refused, and a grid that is not an integer.
        bad = [(1.0, 0.0, 2), (-1.0, 0.0, 10), (True, 0, 5), (0, False, 5), ("1", 0, 5)]
        bad += [(None, 0, 5), (1.0, 0.0, 3.5), (1.0, 0.0, True), ([1.0], [0.0], 5)]
        for a, b, grid in bad:
            with pytest.raises(ValueError):
                concavity_check(a, b, grid)

    @pytest.mark.parametrize("a, b", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_nan_rejected(self, a, b):
        with pytest.raises(ValueError):
            concavity_check(a, b, 5)


class TestOptBounds:
    def test_order(self):
        for n in range(4, 64, 4):
            for gamma in (0.05, 0.25, 0.5):
                lo, hi = opt_bounds(ModelParams(n, gamma))
                assert lo < hi

    def test_width_ratio(self):
        gamma = 0.25
        margins = {}
        for n in (4, 16):
            lo, hi = opt_bounds(ModelParams(n, gamma))
            margins[n] = hi - 2 * gamma * math.comb(n, 2)
        ratio = margins[16] / margins[4]
        assert 7 <= ratio <= 9

    def test_gamma_guard(self):
        with pytest.raises(ValueError):
            opt_bounds(ModelParams(8, 0.0))

    def test_envelope_contains_mle_optimum(self):
        params = ModelParams(8, 0.25)
        lo, hi = opt_bounds(params)
        inside = 0
        trials = 200
        for k in range(trials):
            _, t = sample_planted_uniform(params, RngStream(71, k))
            inside += lo <= brute_force_mle(t).best_alignment <= hi
        assert inside >= 0.9 * trials


class TestDistributionalChecks:
    def test_hidden_alignment_concentration(self):
        n, gamma, trials = 200, 0.1, 10_000
        params = ModelParams(n, gamma)
        gen = RngStream(72).generator()
        values = np.empty(trials)
        for k in range(trials):
            hidden, t = sample_planted_uniform(params, gen)
            values[k] = alignment(hidden, t)
        target = 2 * gamma * math.comb(n, 2)
        se = values.std() / math.sqrt(trials)
        assert abs(values.mean() - target) <= 3 * se

    def test_berry_esseen_pair_probability(self):
        n, gamma, trials = 100, 0.1, 3000
        params = ModelParams(n, gamma)
        pi = Ranking.identity(n)
        gen = RngStream(73).generator()
        hits = 0
        for _ in range(trials):
            t = sample_planted(params, pi, gen)
            s = t.scores()
            hits += s[0] <= s[n - 1]
        predicted = float(
            ndtr(-4 * (n - 1) * gamma / math.sqrt(2 * (1 - 4 * gamma**2) * n))
        )
        assert abs(hits / trials - predicted) <= 0.05
