import math

import numpy as np
import pytest

from tourney_lab.core import ModelParams, Ranking, RngStream, sample_planted
from tourney_lab.spectral import (
    build_A,
    closed_form_eigenpair,
    closed_form_eigenvalue,
)


def eigen_matrix(n):
    lams = np.empty(n)
    vecs = np.empty((n, n), dtype=np.complex128)
    for i in range(1, n + 1):
        lams[i - 1], vecs[:, i - 1] = closed_form_eigenpair(n, i)
    return lams, vecs


class TestBuildA:
    def test_n1(self):
        assert build_A(1).tolist() == [[0]]

    def test_n2(self):
        a = build_A(2)
        assert a[0, 1] == 1j and a[1, 0] == -1j
        assert a[0, 0] == 0 and a[1, 1] == 0

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_equals_triu_oracle(self, n):
        upper = np.triu(np.ones((n, n)), k=1)
        a = build_A(n)
        assert a.dtype == np.complex128
        assert np.array_equal(a, 1j * upper - 1j * upper.T)

    def test_hermitian(self):
        a = build_A(7)
        assert np.array_equal(a, a.conj().T)

    def test_expectation_identity(self):
        # E[i T] = 2 gamma A entrywise, identity hidden ranking
        n, gamma, trials = 20, 0.2, 10_000
        gen = RngStream(50).generator()
        pi = Ranking.identity(n)
        params = ModelParams(n, gamma)
        acc = np.zeros((n, n), dtype=np.float64)
        for _ in range(trials):
            acc += sample_planted(params, pi, gen).to_matrix()
        mean_iT = 1j * acc / trials
        target = 2 * gamma * build_A(n)
        iu = np.triu_indices(n, k=1)
        se = math.sqrt((1 - (2 * gamma) ** 2) / trials)
        dev = np.abs(mean_iT - target)[iu]
        assert dev.max() <= 3 * se


class TestClosedFormEigenpairs:
    def test_n2_values(self):
        assert closed_form_eigenvalue(2, 1) == pytest.approx(1.0, rel=1e-14)
        assert closed_form_eigenvalue(2, 2) == pytest.approx(-1.0, rel=1e-14)

    def test_index_validation(self):
        with pytest.raises(IndexError):
            closed_form_eigenpair(4, 0)
        with pytest.raises(IndexError):
            closed_form_eigenpair(4, 5)

    @pytest.mark.parametrize("i", [True, 1.0, 2.5, "1"])
    def test_non_integer_index_rejected(self, i):
        for entry in (closed_form_eigenvalue, closed_form_eigenpair):
            with pytest.raises(ValueError) as raised:
                entry(4, i)
            assert str(raised.value) == f"i must be an integer, got {i!r}"

    def test_integral_index_accepted(self):
        assert closed_form_eigenvalue(4, np.int64(4)) == closed_form_eigenvalue(4, 4)
        assert closed_form_eigenvalue(np.int16(4), 1) == closed_form_eigenvalue(4, 1)

    def test_residuals_n64(self):
        n = 64
        a = build_A(n)
        for i in range(1, n + 1):
            lam, vec = closed_form_eigenpair(n, i)
            assert np.linalg.norm(a @ vec - lam * vec) <= 1e-9 * n

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_orthogonality(self, n):
        _, vecs = eigen_matrix(n)
        gram = vecs.conj().T @ vecs
        np.fill_diagonal(gram, 0.0)
        assert np.abs(gram).max() <= 1e-8 * n

    def test_antisymmetry_exact(self):
        for n in (4, 9, 33):
            for i in range(1, n + 1):
                assert closed_form_eigenvalue(n, i) == -closed_form_eigenvalue(n, n - i + 1)

    def test_middle_eigenvalue_zero_for_odd_n(self):
        assert closed_form_eigenvalue(9, 5) == 0.0

    def test_strictly_decreasing(self):
        for n in (5, 32):
            lams = [closed_form_eigenvalue(n, i) for i in range(1, n + 1)]
            assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_reconstruction_n32(self):
        n = 32
        lams, vecs = eigen_matrix(n)
        rebuilt = (vecs * lams[None, :]) @ vecs.conj().T
        assert np.abs(rebuilt - build_A(n)).max() <= 1e-7

    def test_matches_numeric_eigensolve(self):
        n = 48
        lams, _ = eigen_matrix(n)
        numeric = np.linalg.eigvalsh(build_A(n))[::-1]
        assert np.abs(np.sort(lams)[::-1] - numeric).max() <= 1e-9 * n


class TestAsymptote:
    def test_large_n_accuracy(self):
        n = 10_000
        assert abs(closed_form_eigenvalue(n, 1) / n - 2 / math.pi) <= 1e-4

    def test_tail_norm_bound(self):
        for n in (16, 64, 256, 1024):
            for k in range(0, min(11, (n - 1) // 2)):
                lam = closed_form_eigenvalue(n, k + 1)
                assert lam <= 4 * n / ((2 * k + 1) * math.pi)
