"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Criteria 6 (strong-recovery error budget) and 9 (concavity family) encode
targets that the underlying mathematics does not meet; see the test
docstrings.  They are implemented as stated and left red deliberately.
"""

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
    alignment,
    kendall_tau,
    sample_null,
    sample_planted_uniform,
)
from tourney_lab.detection import (
    spectral_statistic,
    wedge_null_moments,
    wedge_planted_mean,
    wedge_statistic,
    wedge_test,
)
from tourney_lab.fourier import (
    Shape,
    chi2_exact,
    chi2_fourier,
    kl_rademacher_bound,
    planted_expectation,
    planted_sign_average,
    recovery_lower_bound,
)
from tourney_lab.recovery import (
    brute_force_mle,
    concavity_check,
    opt_bounds,
    pessimistic_error_statistic,
    ranking_by_wins,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_fourier_identities():
    worst = 0.0
    for n in (3, 4, 5):
        for gamma in (0.05, 0.1, 0.2, 0.4):
            params = ModelParams(n, gamma)
            worst = max(worst, abs(chi2_exact(params) - chi2_fourier(params)))
    identities_ok = worst < 1e-10

    wedge = Shape([(0, 1), (0, 2)])
    wedge_ok = planted_sign_average(wedge) == Fraction(1, 3)
    for gamma in (0.05, 0.1, 0.2, 0.4):
        wedge_ok &= planted_expectation(wedge, gamma) == (2 * gamma) ** 2 * float(Fraction(1, 3))

    odd_ok = all(
        planted_expectation(s, 0.3) == 0.0
        for s in (
            Shape([(0, 1)]),
            Shape([(0, 1), (1, 2), (0, 2)]),
            Shape([(0, 1), (2, 3), (4, 5)]),
        )
    )

    n, m = 4, 6
    pairs = list(itertools.combinations(range(n), 2))
    codes = np.arange(2**m)
    signs = (2 * ((codes[:, None] >> np.arange(m)[None, :]) & 1) - 1).astype(np.int64)
    monomials = np.empty((2**m, 2**m), dtype=np.int64)
    for mask in range(2**m):
        cols = [b for b in range(m) if mask >> b & 1]
        monomials[mask] = signs[:, cols].prod(axis=1) if cols else 1
    gram = monomials @ monomials.T
    ortho_ok = np.array_equal(gram, (2**m) * np.eye(2**m, dtype=np.int64))

    ok = identities_ok and wedge_ok and odd_ok and ortho_ok
    report(
        1,
        ok,
        f"chi2 exact vs fourier max|diff|={worst:.2e} (<1e-10), wedge=(1/3)(2g)^2 exact,"
        f" odd shapes zero, orthonormality at n=4 exact",
    )


def test_criterion_2_wedge_moments():
    values = []
    probs = []
    gamma = 0.25
    for upper in itertools.product((-1, 1), repeat=3):
        t = Tournament(3, np.array(upper))
        values.append(wedge_statistic(t))
        prob = 0.0
        for perm in itertools.permutations((1, 2, 3)):
            pi = Ranking(list(perm))
            p = 1.0
            for i in range(3):
                for j in range(i + 1, 3):
                    p *= 0.5 + gamma if t.sign(i, j) == pi.pairwise_sign(i, j) else 0.5 - gamma
            prob += p / 6
        probs.append(prob)
    values = np.array(values, dtype=float)
    probs = np.array(probs)
    null_mean = values.mean()
    null_second = (values**2).mean()
    planted_mean = float((probs * values).sum())
    exact_ok = (
        null_mean == 0.0
        and null_second == wedge_null_moments(3)[1] == 3.0
        and abs(planted_mean - 0.25) < 1e-12
        and wedge_planted_mean(ModelParams(3, gamma)) == pytest.approx(0.25, rel=1e-12)
    )

    n, g, trials = 50, 0.1, 10_000
    gen = RngStream(2001).generator()
    samples = np.empty(trials)
    params = ModelParams(n, g)
    for k in range(trials):
        _, t = sample_planted_uniform(params, gen)
        samples[k] = wedge_statistic(t)
    se = samples.std() / math.sqrt(trials)
    mc_ok = abs(samples.mean() - 784.0) <= 3 * se

    report(
        2,
        exact_ok and mc_ok,
        f"n=3 enumeration: E_Q f={null_mean}, E_Q f^2={null_second}, E_P f={planted_mean:.6f};"
        f" MC n=50: mean={samples.mean():.1f} vs 784 (3SE={3 * se:.1f})",
    )


def test_criterion_3_detection_transition():
    n, trials = 2000, 200
    results = {}
    for label, gamma, seed in (
        ("strong", 8 * n**-0.75, 3001),
        ("weak", 0.25 * n**-0.75, 3002),
    ):
        params = ModelParams(n, gamma)
        type1 = sum(
            wedge_test(sample_null(n, RngStream(seed, k)), params).is_planted
            for k in range(trials)
        ) / trials
        type2 = sum(
            not wedge_test(
                sample_planted_uniform(params, RngStream(seed + 10, k))[1], params
            ).is_planted
            for k in range(trials)
        ) / trials
        results[label] = (type1, type2)

    t1s, t2s = results["strong"]
    success = 1.0 - (t1s + t2s) / 2
    t1w, t2w = results["weak"]
    ok = success >= 0.95 and (t1w + t2w) >= 0.8
    report(
        3,
        ok,
        f"n=2000: strong gamma success={success:.3f} (>=0.95);"
        f" weak gamma type I+II={t1w + t2w:.3f} (>=0.8)",
    )


def test_criterion_4_a_matrix_spectrum():
    from tourney_lab.spectral import build_A, closed_form_eigenpair

    worst_res, worst_orth = 0.0, 0.0
    ok = True
    for n in (8, 64, 256):
        a = build_A(n)
        vecs = np.empty((n, n), dtype=np.complex128)
        for i in range(1, n + 1):
            lam, vec = closed_form_eigenpair(n, i)
            vecs[:, i - 1] = vec
            res = float(np.linalg.norm(a @ vec - lam * vec))
            worst_res = max(worst_res, res / n)
            ok &= res <= 1e-9 * n
        gram = np.abs(vecs.conj().T @ vecs)
        np.fill_diagonal(gram, 0.0)
        worst_orth = max(worst_orth, float(gram.max()) / n)
        ok &= float(gram.max()) <= 1e-8 * n
    report(
        4,
        ok,
        f"residual/n max={worst_res:.2e} (<=1e-9), orthogonality/n max={worst_orth:.2e} (<=1e-8)",
    )


def test_criterion_5_spectral_transition():
    n, trials, eps = 1600, 20, 0.1
    scaled = {}
    for label, gamma, seed in (
        ("null", 0.0, 5001),
        ("c=0.5", 0.5 / math.sqrt(n), 5002),
        ("c=1.5", 1.5 / math.sqrt(n), 5003),
    ):
        vals = []
        for k in range(trials):
            rng = RngStream(seed, k)
            if gamma == 0.0:
                t = sample_null(n, rng)
            else:
                _, t = sample_planted_uniform(ModelParams(n, gamma), rng)
            vals.append(spectral_statistic(t) / math.sqrt(n))
        scaled[label] = np.array(vals)

    med_null = float(np.median(scaled["null"]))
    med_low = float(np.median(scaled["c=0.5"]))
    med_high = float(np.median(scaled["c=1.5"]))
    # DERIVED outlier location oracle: theta + 1/theta at theta = 4c/pi
    theta = 4 * 1.5 / math.pi
    oracle = theta + 1 / theta
    rate_low_null = float((scaled["c=0.5"] < 2 + eps).mean())
    rate_high_planted = float((scaled["c=1.5"] >= 2 + eps).mean())
    ok = (
        1.9 <= med_null <= 2.1
        and 1.9 <= med_low <= 2.1
        and med_high >= 2.25
        and rate_low_null >= 0.9
        and rate_high_planted >= 0.9
    )
    report(
        5,
        ok,
        f"medians: null={med_null:.3f}, c=0.5 {med_low:.3f} (both in [1.9,2.1]),"
        f" c=1.5 {med_high:.3f} (>=2.25, oracle {oracle:.2f});"
        f" verdict rates {rate_low_null:.2f}/{rate_high_planted:.2f} (>=0.9)",
    )


def test_criterion_6_recovery_error():
    """Strong half encodes an unattainable budget and is expected red.

    At n=400, gamma = 3 n^(-1/2) = 0.15, the per-pair misordering
    probabilities sum to ~6.6e3 = 0.083 C(n,2) (Riemann sum of
    Phi(-4 d gamma / sqrt(2 (1-4 gamma^2) n)), confirmed by Monte Carlo),
    so no Ranking By Wins run meets the 0.02 C(n,2) budget.  The budget
    descends from a concavity claim whose sign is wrong; see criterion 9.
    """
    n = 400
    pairs = math.comb(n, 2)
    trials = 50
    means = {}
    for label, gamma, seed in (("strong", 3 / math.sqrt(n), 6001), ("weak", 0.1 / math.sqrt(n), 6002)):
        params = ModelParams(n, gamma)
        errs = [
            kendall_tau(hidden, ranking_by_wins(t))
            for hidden, t in (
                sample_planted_uniform(params, RngStream(seed, k)) for k in range(trials)
            )
        ]
        means[label] = float(np.mean(errs))

    weak_bound = recovery_lower_bound(ModelParams(n, 0.1 / math.sqrt(n)))
    strong_ok = means["strong"] <= 0.02 * pairs
    weak_ok = means["weak"] >= 0.40 * pairs and means["weak"] >= weak_bound
    report(
        6,
        strong_ok and weak_ok,
        f"strong: mean err={means['strong']:.0f} vs budget {0.02 * pairs:.0f}"
        f" (true scale ~0.083 C(n,2); budget unattainable, see ledger);"
        f" weak: mean err={means['weak']:.0f} >= {0.40 * pairs:.0f} and >= bound {weak_bound:.0f}",
    )


def test_criterion_7_pessimistic_domination():
    gen = RngStream(7001).generator()
    violations = 0
    per_n = {5: 167, 20: 167, 100: 166}
    for n, count in per_n.items():
        for _ in range(count):
            gamma = float(gen.uniform(0.0, 0.5))
            hidden, t = sample_planted_uniform(ModelParams(n, gamma), gen)
            actual = kendall_tau(hidden, ranking_by_wins(t))
            if pessimistic_error_statistic(t, hidden) < actual:
                violations += 1
    report(7, violations == 0, f"500 instances across n in {{5,20,100}}: {violations} violations")


def test_criterion_8_mle_approximation():
    n, gamma, trials = 8, 0.25, 200
    params = ModelParams(n, gamma)
    lo, hi = opt_bounds(params)
    ratios = []
    inside = 0
    for k in range(trials):
        _, t = sample_planted_uniform(params, RngStream(1, k))
        rbw_value = alignment(ranking_by_wins(t), t)
        mle = brute_force_mle(t)
        ratios.append(rbw_value / mle.best_alignment if mle.best_alignment else 1.0)
        inside += lo <= mle.best_alignment <= hi
    mean_ratio = float(np.mean(ratios))
    rate = inside / trials
    ok = mean_ratio >= 0.75 and rate >= 0.9
    report(
        8,
        ok,
        f"mean RBW/MLE ratio={mean_ratio:.4f} (>=0.75), envelope rate={rate:.2f} (>=0.9)",
    )


def test_criterion_9_analytic_bounds():
    """The concavity family check is expected red: the function is convex.

    (1-y) Phi(-a y - b) has second derivative
    a phi(a y + b) (2 + a (1-y)(a y + b)) > 0 for a > 0, so its second
    differences are positive and the stated family check cannot pass except
    at a = 0.
    """
    kl_ok = all(
        kl_rademacher_bound(float(g))[0] <= kl_rademacher_bound(float(g))[1] + 1e-15
        for g in np.linspace(0.0, 0.49, 50)
    )
    concave_results = {
        (a, b): concavity_check(a, b, 1000) for a in (0, 1, 5) for b in (0, 1, 2)
    }
    concave_ok = all(concave_results.values())
    lower_ok = all(
        recovery_lower_bound(ModelParams(n, 0.0)) == 0.5 * math.comb(n, 2) for n in (2, 10, 400)
    )
    failing = sorted(k for k, v in concave_results.items() if not v)
    report(
        9,
        kl_ok and concave_ok and lower_ok,
        f"kl exact<=bound on 50-point grid: {kl_ok};"
        f" concavity family all true: {concave_ok} (false at {failing}; function is convex"
        f" for a>0, see ledger); recovery_lower_bound(0)=C(n,2)/2: {lower_ok}",
    )


def test_criterion_10_reproducibility(tmp_path):
    from tourney_lab.experiments import SweepConfig, run_sweep

    outputs = []
    for name, threads in (("t1.csv", 1), ("t4.csv", 4), ("t1b.csv", 1)):
        config = SweepConfig.from_dict(
            {
                "experiment": "recover",
                "n_values": [50],
                "gamma_spec": [0.1],
                "trials": 6,
                "seed": 424242,
                "output_path": str(tmp_path / name),
            }
        )
        run_sweep(config, threads=threads)
        outputs.append((tmp_path / name).read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(10, ok, f"threads 1 vs 4 vs rerun: byte-identical={ok} ({len(outputs[0])} bytes)")
