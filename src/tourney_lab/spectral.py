"""Closed-form spectrum of the expected planted matrix.

Let A be the Hermitian matrix with i above the diagonal and -i below; then
the planted model satisfies E[i*T] = 2*gamma*A (identity hidden ranking).
A has eigenvalues cot((2k-1)pi/(2n)) with explicit Fourier-type
eigenvectors, so its top eigenvalues grow linearly in n.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Ranking, as_int, check_size, induced_tournament

__all__ = [
    "build_A",
    "closed_form_eigenpair",
    "closed_form_eigenvalue",
]


def build_A(n: int) -> np.ndarray:
    """i times the identity ranking's transitive tournament: +i above the diagonal, -i below."""
    return 1j * induced_tournament(Ranking.identity(n)).to_matrix()


def closed_form_eigenvalue(n: int, i: int) -> float:
    """Eigenvalue lambda_i(A) = cot((2i-1)pi/(2n)) for 1 <= i <= n.

    Indices past the middle are evaluated through the mirror identity
    lambda_{n-i+1} = -lambda_i, which keeps the antisymmetry exact in
    floating point.  ``n`` is checked by ``check_size`` and ``i`` by ``as_int``.
    """
    n = check_size(n)
    i = as_int(i, "i")
    if not 1 <= i <= n:
        raise IndexError(f"eigenvalue index {i} out of range 1..{n}")
    mirror = n - i + 1
    if i == mirror:
        return 0.0
    if i > mirror:
        return -closed_form_eigenvalue(n, mirror)
    return 1.0 / math.tan((2 * i - 1) * math.pi / (2 * n))


def closed_form_eigenpair(n: int, i: int) -> tuple[float, np.ndarray]:
    """(lambda_i, unit eigenvector) of A from the closed form.

    The raw eigenvector has entries exp(-i*pi*(2i-1)*j/n) for j = 1..n and
    norm sqrt(n); it is returned normalized to unit norm.
    """
    lam = closed_form_eigenvalue(n, i)
    j = np.arange(1, n + 1)
    vec = np.exp(-1j * math.pi * (2 * i - 1) * j / n)
    return lam, vec / np.linalg.norm(vec)
