"""Cyclotomic polynomials, minimal polynomials and the Hermite normal form
against sympy, an implementation that shares no code with this package."""

import random
from fractions import Fraction

import pytest

from invlat import linalg
from invlat.cyclotomic import cyclotomic_polynomial, sqrt_rational, zeta

sympy = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")

X = sympy.symbols("x")


def _ascending(expr):
    """Monic coefficients of a polynomial in X, ascending, as Fractions."""
    coeffs = sympy.Poly(expr, X).monic().all_coeffs()[::-1]
    return tuple(Fraction(int(c.p), int(c.q)) for c in coeffs)


def _root(n, k=1):
    return sympy.exp(2 * sympy.pi * sympy.I * k / n)


@pytest.mark.parametrize("n", list(range(1, 121)) + [1009, 1024])
def test_cyclotomic_polynomial_matches_sympy(n):
    expected = sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs()[::-1]
    assert cyclotomic_polynomial(n) == tuple(int(c) for c in expected)


@pytest.mark.parametrize(
    "value,expr",
    [
        (zeta(5) + zeta(5, 4), _root(5) + _root(5, 4)),
        (sqrt_rational(-3), sympy.sqrt(-3)),
        (zeta(12) + zeta(8), _root(12) + _root(8)),
        (zeta(24) ** 3, _root(24, 3)),
        (zeta(7) * Fraction(2, 3) - 1, _root(7) * sympy.Rational(2, 3) - 1),
    ],
)
def test_minimal_polynomial_matches_sympy(value, expr):
    assert value.minimal_polynomial() == _ascending(sympy.minimal_polynomial(expr, X))


def _hnf_case(seed):
    """A seeded integer matrix of at most 8 rows and 8 columns; every third
    one is a product through fewer columns than either side, so it is rank
    deficient."""
    rng = random.Random(seed)
    m, n = rng.randint(1, 8), rng.randint(1, 8)
    if seed % 3 == 0 and min(m, n) > 1:
        k = rng.randint(1, min(m, n) - 1)
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]


def _integer_solution(mat, vec):
    """Whether mat x = vec has an integer solution x, for mat of full column
    rank, solved by sympy."""
    sol, params = mat.gauss_jordan_solve(sympy.Matrix(vec))
    assert not params
    return all(x.is_integer for x in sol)


@pytest.mark.parametrize("seed", range(48))
def test_hnf_row_lattice_matches_sympy(seed):
    mat = _hnf_case(seed)
    h = linalg.hnf(mat)
    rank = sympy.Matrix(mat).rank()
    assert len(h) == rank
    if not rank:
        return
    # sympy's normal form is by columns: its columns span the row lattice
    basis = normalforms.hermite_normal_form(sympy.Matrix(mat).T)
    assert basis.shape[1] == rank
    ours = sympy.Matrix(h).T
    for row in h:
        assert _integer_solution(basis, row)
    for j in range(rank):
        assert _integer_solution(ours, list(basis[:, j]))
    if rank == len(mat[0]):
        # full column rank: square, upper triangular, positive diagonal
        assert len(h) == len(h[0])
        for i, row in enumerate(h):
            assert row[i] > 0
            assert not any(row[:i])
