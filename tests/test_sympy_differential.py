"""Cyclotomic polynomials and minimal polynomials against sympy, an
implementation that shares no code with this package."""

from fractions import Fraction

import pytest

from invlat.cyclotomic import cyclotomic_polynomial, sqrt_rational, zeta

sympy = pytest.importorskip("sympy")

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
