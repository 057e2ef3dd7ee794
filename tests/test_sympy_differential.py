"""Cyclotomic polynomials, minimal polynomials (by the tests' Fraction
oracle), square classes, the splitting primes of the discreteness certificate, the Hermite normal form and the rational reduced
row echelon form against sympy, an implementation that shares no code with
this package."""

import random
from fractions import Fraction

import pytest

from invlat import linalg
from invlat.cyclotomic import (
    MAX_CONDUCTOR,
    _is_prime,
    cyclotomic_polynomial,
    splitting_prime,
    sqrt_rational,
    squarefree_part,
    zeta,
)

from oracles import minimal_polynomial, rref_divide_each_entry

sympy = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")

X = sympy.symbols("x")


def _ascending(expr):
    """Monic coefficients of a polynomial in X, ascending, as Fractions."""
    coeffs = sympy.Poly(expr, X).monic().all_coeffs()[::-1]
    return tuple(Fraction(int(c.p), int(c.q)) for c in coeffs)


def _root(n, k=1):
    return sympy.exp(2 * sympy.pi * sympy.I * k / n)


@pytest.mark.parametrize("n", list(range(1, 301)) + [720, 840, 1009, 1020, 1024])
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
    assert minimal_polynomial(value) == _ascending(sympy.minimal_polynomial(expr, X))


def _squarefree_by_factorint(n):
    out = -1 if n < 0 else 1
    for p, e in sympy.factorint(abs(n)).items():
        if e % 2:
            out *= p
    return out


def test_squarefree_part_matches_factorint():
    rng = random.Random(9500)
    big = 1_000_000_007 * 1_000_000_009
    sample = list(range(-400, 0)) + list(range(1, 401))
    sample += [rng.randint(-10**12, 10**12) or 1 for _ in range(300)]
    # perfect squares, and f^2 * d with a large f
    sample += [f * f for f in (1, 2, 6, 30, 10_000_019, big)]
    sample += [-f * f for f in (1, 2, 6, 30, 10_000_019, big)]
    sample += [d * f * f for d in (-4, -3, -1, 2, 3, 7, -1009, 30) for f in (10_000_019, big)]
    for n in sample:
        assert squarefree_part(n) == _squarefree_by_factorint(n), n
    assert squarefree_part(0) == 0


def test_squarefree_part_is_quick_on_a_large_square_factor():
    # trial division stops once the cofactor is a square, so f^2 (up to 124
    # bits) over a squarefree part with primes up to 1024 costs divisions by
    # those primes only, not by every integer up to f
    rng = random.Random(9600)
    primes = [p for p in range(2, 1025) if sympy.isprime(p)]
    for _ in range(200):
        s = rng.choice((-1, 1))
        for p in rng.sample(primes, rng.randint(0, 3)):
            s *= p
        f = rng.randint(1, 2**62)
        assert squarefree_part(s * f * f) == s


SPLITTING_SAMPLE = sorted(
    set(random.Random(9300).sample(range(1, MAX_CONDUCTOR + 1), 40)) | {1009, 1024, 840}
)


@pytest.mark.parametrize("n", SPLITTING_SAMPLE)
def test_splitting_prime_gives_a_root_of_the_cyclotomic_polynomial(n):
    ell, g = splitting_prime(n)
    assert 2**31 < ell < 3_215_031_751
    assert sympy.isprime(ell) and ell % n == 1
    phi = sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs()
    value = 0
    for c in phi:  # Horner, highest coefficient first
        value = (value * g + int(c)) % ell
    assert value == 0
    # the least such prime above 2^31
    assert not any(sympy.isprime(p) for p in range(ell - n, 2**31, -n))


def test_miller_rabin_bases_against_sympy():
    rng = random.Random(9400)
    sample = [rng.randrange(2**31, 3_215_031_751) for _ in range(300)]
    # a strong pseudoprime to the bases 2, 3 and 5, and small numbers
    sample += [25_326_001, 3_215_031_749] + list(range(40))
    for n in sample:
        assert _is_prime(n) == sympy.isprime(n), n
    # the bound is a strong pseudoprime to all four bases
    with pytest.raises(ValueError):
        _is_prime(3_215_031_751)


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


def _rref_entry(rng):
    """An int or a Fraction, zero one time in four; denominators up to 10**12."""
    if rng.random() < 0.25:
        return rng.choice((0, Fraction(0)))
    if rng.random() < 0.4:
        return rng.randint(-9, 9) or 1
    den = rng.randint(1, 10 ** rng.choice((1, 2, 6, 12)))
    return Fraction(rng.randint(-10 ** 6, 10 ** 6), den)


def _rref_case(seed):
    """A seeded matrix of ints and Fractions of at most 12 x 16: 1 x n and
    n x 1 for the first seeds, every third one of lower rank than its shape
    allows (rows combined from fewer rows), and zero rows and columns put in
    now and then."""
    rng = random.Random(9000 + seed)
    m, n = rng.randint(1, 12), rng.randint(1, 16)
    if seed < 4:
        m, n = (1, n) if seed % 2 else (m, 1)
    mat = [[_rref_entry(rng) for _ in range(n)] for _ in range(m)]
    if seed % 3 == 0 and m > 1:
        base = mat[: rng.randint(1, min(m, n) - 1 or 1)]
        mat = [[sum((c * row[j] for c, row in zip(coeffs, base)), Fraction(0))
                for j in range(n)]
               for coeffs in ([rng.randint(-3, 3) for _ in base] for _ in range(m))]
    if seed % 4 == 1:
        mat.insert(rng.randrange(m + 1), [0] * n)
    if seed % 5 == 2:
        col = rng.randrange(n)
        mat = [[Fraction(0) if j == col else x for j, x in enumerate(row)] for row in mat]
    return mat


RREF_SEEDS = range(60)


def test_rref_cases_cover_rank_deficiency():
    deficient = 0
    for seed in RREF_SEEDS:
        mat = _rref_case(seed)
        deficient += sympy.Matrix(mat).rank() < min(len(mat), len(mat[0]))
    assert deficient >= len(RREF_SEEDS) // 3


@pytest.mark.parametrize("seed", RREF_SEEDS)
def test_rational_rref_matches_sympy_and_the_divide_each_entry_oracle(seed):
    mat = _rref_case(seed)
    rows, pivots = linalg.rref(mat)
    reduced, sympy_pivots = sympy.Matrix(mat).rref()
    assert pivots == list(sympy_pivots)
    expected = [[Fraction(int(x.p), int(x.q)) for x in reduced.row(i)]
                for i in range(len(pivots))]
    assert rows == expected
    assert (rows, pivots) == rref_divide_each_entry([[Fraction(x) for x in row] for row in mat])
    assert all(type(x) is Fraction for row in rows for x in row)


def test_rref_of_empty_input():
    assert linalg.rref([]) == ([], [])
    assert linalg.rref([[]]) == ([], [])
    assert linalg.rref([[0, Fraction(0)], [0, 0]]) == ([], [])
