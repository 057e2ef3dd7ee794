import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from invlat import cyclotomic
from invlat.cyclotomic import (
    MAX_CONDUCTOR,
    CycNum,
    _crt_subfield,
    _descend,
    _galois_images,
    _prime_factors,
    _reduce_mod_phi,
    _relative_generator,
    as_cycnum,
    cyc_from_json,
    cyc_to_json,
    cyclotomic_polynomial,
    parse_scalar,
    sqrt_rational,
    zeta,
)
from invlat.errors import InternalConsistencyError, InvalidInputError
from invlat.linalg import rref

from oracles import (
    FractionCycNum,
    _int_poly_quotient,
    cyc_str_by_fractions,
    cyclotomic_polynomial_by_division,
    divisors,
    euler_phi,
    exact_sign,
    fraction_canonical,
    fraction_cyc_to_json,
    fraction_reduce_mod_phi,
    fraction_subfield_solver,
    minimal_polynomial,
    numeric,
    real_part,
    skew_part,
)

CONDUCTORS = [1, 3, 4, 5, 7, 8, 9, 12]

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def random_cyc(draw, conductor):
    coeffs = [draw(small_fractions) for _ in range(euler_phi(conductor))]
    return CycNum(conductor, coeffs)


cyc_elements = st.integers(0, len(CONDUCTORS) - 1).flatmap(
    lambda i: st.builds(
        CycNum,
        st.just(CONDUCTORS[i]),
        st.lists(
            small_fractions,
            min_size=euler_phi(CONDUCTORS[i]),
            max_size=euler_phi(CONDUCTORS[i]),
        ),
    )
)


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_matches_the_division_route():
    # the binomial product against x^n - 1 divided by every Phi_d, d < n
    for n in range(1, 121):
        assert cyclotomic_polynomial(n) == cyclotomic_polynomial_by_division(n), n


def test_conductor_is_canonical():
    # 2 mod 4 conductors collapse: zeta(6) = -zeta(3)^2 lives at conductor 3
    z6 = zeta(6)
    assert z6.conductor == 3
    assert z6 == -(zeta(3) ** 2)
    # rationals always canonicalize to conductor 1
    assert (zeta(5) - zeta(5)).conductor == 1
    assert (zeta(8) ** 8).conductor == 1


def test_int_poly_quotient_divides_exactly():
    # (x^2 - 1) / (x - 1) = x + 1
    assert _int_poly_quotient([-1, 0, 1], [-1, 1]) == [1, 1]


def test_int_poly_quotient_rejects_a_remainder():
    # x^2 + 1 = (x + 1)(x - 1) + 2: a real check, not an assert that -O drops
    with pytest.raises(InternalConsistencyError, match="non-exact"):
        _int_poly_quotient([1, 0, 1], [1, 1])


def test_zeta_orders():
    for n in CONDUCTORS:
        z = zeta(n)
        assert z ** n == CycNum.rational(1)
        if n > 2:
            assert z ** (n - 1) != CycNum.rational(1)


@given(cyc_elements, cyc_elements)
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(cyc_elements, cyc_elements)
def test_multiplication_commutes(x, y):
    assert x * y == y * x


@given(cyc_elements, cyc_elements, cyc_elements)
@settings(max_examples=60)
def test_distributive(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(cyc_elements)
def test_additive_inverse(x):
    assert (x - x).is_zero()
    assert x + (-x) == CycNum.rational(0)


@given(cyc_elements)
def test_multiplicative_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == CycNum.rational(1)


@given(cyc_elements, cyc_elements)
@settings(max_examples=60)
def test_conjugation_is_ring_map(x, y):
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x


@given(cyc_elements)
def test_real_and_skew_parts(x):
    re = real_part(x)
    assert re.is_real()
    assert re + skew_part(x) == x
    assert (x * x.conjugate()).is_real()


@given(cyc_elements)
@settings(max_examples=60)
def test_numeric_embedding_respects_products(x):
    with mpmath.workprec(80):
        approx = numeric(x, 80)
        square = numeric(x * x, 80)
        assert abs(approx * approx - square) < mpmath.mpf(2) ** -40


@given(cyc_elements)
@settings(max_examples=60)
def test_minimal_polynomial_annihilates(x):
    poly = minimal_polynomial(x)
    acc = CycNum.rational(0)
    power = CycNum.rational(1)
    for coeff in poly:
        acc = acc + power * CycNum.rational(coeff)
        power = power * x
    assert acc.is_zero()
    assert poly[-1] == 1


def test_minimal_polynomial_examples():
    assert minimal_polynomial(zeta(4)) == (Fraction(1), Fraction(0), Fraction(1))
    assert minimal_polynomial(zeta(3)) == (Fraction(1), Fraction(1), Fraction(1))
    half = CycNum.rational(Fraction(1, 2))
    assert minimal_polynomial(half) == (Fraction(-1, 2), Fraction(1))


@pytest.mark.parametrize(
    "value",
    [Fraction(2), Fraction(3), Fraction(5), Fraction(-1), Fraction(-3),
     Fraction(4, 9), Fraction(-7, 2), Fraction(6)],
)
def test_sqrt_rational_squares_back(value):
    root = sqrt_rational(value)
    assert root * root == CycNum.rational(value)


def test_sqrt_of_negative_is_not_real():
    assert not sqrt_rational(Fraction(-3)).is_real()
    assert sqrt_rational(Fraction(-1)) in (zeta(4), -zeta(4))


def test_exact_sign():
    assert exact_sign(CycNum.rational(0)) == 0
    assert exact_sign(CycNum.rational(Fraction(-3, 7))) == -1
    two_cos = zeta(5) + zeta(5).conjugate()  # 2cos(72 degrees) > 0
    assert exact_sign(two_cos) == 1
    assert exact_sign(sqrt_rational(2) - CycNum.rational(1)) == 1
    assert exact_sign(sqrt_rational(2) - CycNum.rational(2)) == -1
    with pytest.raises(ValueError):
        exact_sign(zeta(3))


@pytest.mark.parametrize(
    "text,expected",
    [
        ("z3", zeta(3)),
        ("-z4", -zeta(4)),
        ("1/2", CycNum.rational(Fraction(1, 2))),
        ("1 + z3", CycNum.rational(1) + zeta(3)),
        ("2/3*z8^3 - 1", zeta(8) ** 3 * CycNum.rational(Fraction(2, 3)) - 1),
    ],
)
def test_parse_scalar(text, expected):
    assert parse_scalar(text) == expected


def test_parse_scalar_rejects_junk():
    # Fraction would read the exponent and decimal forms, and would expand
    # 10^(10^7) in full
    for bad in ["", "z", "q5", "1 +", "z3**2", "zeta(3)", "1e10000000", "2e3*z3",
                "0.5", "1/0", "1_0"]:
        with pytest.raises(InvalidInputError):
            parse_scalar(bad)


def test_inputs_beyond_the_conductor_bound_are_rejected():
    assert MAX_CONDUCTOR >= 1009  # the largest conductor the suite parses
    for text in ["z4000", "2*zeta4000^3 + 1", "z0"]:
        with pytest.raises(InvalidInputError, match="conductor"):
            parse_scalar(text)
    for conductor in [10**8, 4000, 0]:
        with pytest.raises(InvalidInputError, match="conductor"):
            cyc_from_json({"conductor": conductor, "coeffs": [["0", "1"], ["1", "1"]]})
    assert parse_scalar("z1009").conductor == 1009


@given(cyc_elements)
@settings(max_examples=60)
def test_json_round_trip(x):
    assert cyc_from_json(cyc_to_json(x)) == x


def test_str_round_trip_examples():
    for x in [zeta(3), -zeta(4), CycNum.rational(Fraction(5, 3)),
              zeta(8) + zeta(8) ** 3, CycNum.rational(1) - zeta(7)]:
        assert parse_scalar(str(x)) == x


def test_text_and_json_match_fraction_oracles_at_conductors_1_to_60():
    """str and cyc_to_json read integer numerators with one gcd each; the
    oracles build a Fraction per coordinate.  Coordinates are 0, +-1 or a
    small integer over a denominator 1-6."""
    rng = random.Random(6001)
    for n in range(1, 61):
        values = [CycNum.rational(0), CycNum.rational(1), CycNum.rational(-1), zeta(n), -zeta(n)]
        for _ in range(6):
            values.append(CycNum(n, [
                Fraction(rng.choice([0, 0, 1, -1, rng.randint(-9, 9)]), rng.randint(1, 6))
                for _ in range(euler_phi(n))
            ]))
            values.append(CycNum(n, [rng.choice([0, 1, -1]) for _ in range(euler_phi(n))]))
        for x in values:
            assert str(x) == cyc_str_by_fractions(x), (n, x.coeffs)
            assert cyc_to_json(x) == fraction_cyc_to_json(x), (n, x.coeffs)


# -- fast paths against the general route -----------------------------------

FAST_PATH_CONDUCTORS = [1, 3, 4, 5, 8, 12, 24, 60]


def _element(draw, n):
    return CycNum(n, [draw(small_fractions) for _ in range(euler_phi(n))])


@st.composite
def same_field_pairs(draw):
    """x in Q(z_n) and y in Q(z_n); y is free, from a subfield, or cancels x
    down to a subfield, so that sums also descend."""
    n = draw(st.sampled_from(FAST_PATH_CONDUCTORS))
    x = _element(draw, n)
    w = _element(draw, draw(st.sampled_from(divisors(n))))
    y = draw(st.sampled_from([_element(draw, n), w, w - x]))
    return x, y


def _data(x):
    assert type(x.coeffs) is tuple
    assert all(type(c) is Fraction for c in x.coeffs)
    return x.conductor, x.coeffs


def _oracle(x):
    """x as a Fraction-per-coefficient oracle value."""
    return FractionCycNum(x.conductor, list(x.coeffs))


@given(same_field_pairs())
@settings(max_examples=150)
def test_sum_matches_general_route(pair):
    x, y = pair
    m = lcm(x.conductor, y.conductor)
    dense = [a + b for a, b in zip(_oracle(x)._lift_dense(m), _oracle(y)._lift_dense(m))]
    general = fraction_canonical(m, dense)
    assert _data(x + y) == general
    assert _data(y + x) == general


@given(same_field_pairs())
@settings(max_examples=100)
def test_product_matches_general_route(pair):
    x, y = pair
    m = lcm(x.conductor, y.conductor)
    a, b = _oracle(x)._lift_dense(m), _oracle(y)._lift_dense(m)
    dense = [Fraction(0)] * (2 * m - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            dense[i + j] += u * v
    assert _data(x * y) == fraction_canonical(m, dense)


@given(same_field_pairs(), small_fractions)
@settings(max_examples=100)
def test_negation_and_scaling_match_general_route(pair, r):
    x = pair[0]
    n = x.conductor
    dense = _oracle(x)._lift_dense(n)
    assert _data(-x) == fraction_canonical(n, [-c for c in dense])
    scaled = fraction_canonical(n, [r * c for c in dense])
    assert _data(r * x) == scaled
    assert _data(x * r) == scaled
    assert _data(CycNum.rational(r) * x) == scaled


@given(small_fractions, st.integers(-50, 50))
def test_rationals_hash_and_store_fractions(q, k):
    for value, x in [(q, CycNum.rational(q)), (q, as_cycnum(q)), (k, as_cycnum(k)),
                     (q, CycNum(1, [q])), (q + k, CycNum.rational(q) + k)]:
        assert hash(x) == hash(value)
        assert _data(x) == (1, (Fraction(value),))


def test_rational_test_agrees_with_the_subfield_solver():
    # the d = 1 solver says "rational" exactly when coordinates 1.. vanish
    for n in FAST_PATH_CONDUCTORS[1:]:
        phi = euler_phi(n)
        p_rows, q_rows = fraction_subfield_solver(n, 1)
        assert p_rows == (tuple(Fraction(int(k == 0)) for k in range(phi)),)
        red, pivots = rref([list(q) for q in q_rows])
        assert pivots == list(range(1, phi))
        assert all(row[0] == 0 for row in red)


def _record_crt_calls(monkeypatch):
    asked = []

    def recording(n, p, nums):
        asked.append((n, p))
        return _crt_subfield(n, p, nums)

    monkeypatch.setattr(cyclotomic, "_crt_subfield", recording)
    return asked


def test_canonical_never_asks_for_the_rational_solver(monkeypatch):
    asked = _record_crt_calls(monkeypatch)
    # 1 + z5 + ... + z5^4 = 0, zeta(12)^4 = zeta(3), zeta(24)^3 = zeta(8)
    assert CycNum(5, [1, 1, 1, 1, 1]).is_zero()
    assert zeta(12) ** 4 == zeta(3)
    assert (zeta(24) ** 3).conductor == 8
    assert (zeta(60) ** 12 + zeta(60) ** 20).conductor == 15
    assert asked and all(n // p != 1 for n, p in asked)


def test_prime_conductor_parse_never_runs_the_crt_test(monkeypatch):
    asked = _record_crt_calls(monkeypatch)
    assert parse_scalar("z1009").conductor == 1009
    assert asked == []


def test_prime_power_descent_never_runs_the_crt_test(monkeypatch):
    # p^2 | n: membership in Q(z_(n/p)) is a coefficient pattern
    asked = _record_crt_calls(monkeypatch)
    assert parse_scalar("z1024").conductor == 1024
    for k in range(1, 1024, 37):
        assert (zeta(1024) ** k).conductor == 1024 // (k & -k)
    assert (zeta(1024) ** 2).conductor == 512
    assert (zeta(1024) ** 256).conductor == 4
    assert asked == []


def test_descent_asks_solvers_only_where_p_divides_the_conductor_once(monkeypatch):
    asked = _record_crt_calls(monkeypatch)
    # the 2-mod-4 fields Q(z6), Q(z10), Q(z30) are reached by the fold
    assert zeta(12) ** 4 == zeta(3)
    assert (zeta(20) ** 4).conductor == 5
    assert (zeta(60) ** 4 + zeta(60) ** 10).conductor == 15
    assert (zeta(72) ** 6).conductor == 12
    assert asked
    for n, p in asked:
        assert n % p == 0 and (n // p) % p
        assert n % 4 != 2 and (n // p) % 4 != 2


CRT_CASES = [(1020, 17), (1020, 3), (1020, 5), (660, 11), (105, 7), (84, 7),
             (60, 5), (21, 3), (21, 7), (15, 3), (15, 5)]


@pytest.mark.parametrize("n,p", CRT_CASES)
def test_crt_subfield_matches_the_fraction_solver(n, p):
    # the solver rewrites x at conductor d = n / p as P @ x, valid exactly
    # when Q @ x = 0; the CRT test must give None or those coordinates
    d = n // p
    p_rows, q_rows = fraction_subfield_solver(n, d)
    rng = random.Random(n * p)
    for _ in range(5):
        inner = [rng.randint(-5, 5) for _ in range(euler_phi(d))]
        dense = [Fraction(0)] * n
        dense[:len(inner) * p:p] = inner
        lifted = [int(c) for c in fraction_reduce_mod_phi(dense, n)]
        outer = [rng.randint(-5, 5) for _ in range(euler_phi(n))]
        # z_n^k has order divisible by p when p does not divide k, so it is
        # outside Q(z_d) and moves a value of Q(z_d) out of it
        nudged = list(lifted)
        nudged[rng.choice([k for k in range(1, len(nudged)) if k % p])] += 1
        for nums, inside in [(lifted, True), (outer, None), (nudged, False)]:
            expected = None
            if not any(sum(q * x for q, x in zip(row, nums) if q) for row in q_rows):
                expected = [sum(c * x for c, x in zip(row, nums) if c) for row in p_rows]
            got = _crt_subfield(n, p, list(nums))
            assert got == expected
            if inside is not None:
                assert (got is not None) is inside
            if inside:
                assert got == inner


# -- the F_l rejection before the CRT test -----------------------------------

def _once_divided(n):
    """The primes p dividing n once with n / p > 1."""
    return [p for p in _prime_factors(n) if (n // p) % p and n // p > 1]


def _lifted(n, p, inner):
    """Integer coordinates at conductor n of the value with coordinates inner
    at conductor n / p."""
    dense = [0] * n
    dense[:len(inner) * p:p] = inner
    return _reduce_mod_phi(dense, n)


def test_relative_generator_generates_gal_over_the_subfield():
    for n in range(3, 421):
        if n % 4 == 2:
            continue
        for p in _once_divided(n):
            a = _relative_generator(n, p)
            assert 0 < a < n and a % (n // p) == 1, (n, p)
            order = next(k for k in range(1, p) if pow(a, k, p) == 1)
            assert order == p - 1, (n, p)


def test_values_of_the_subfield_are_never_rejected_in_f_l():
    rng = random.Random(420)
    for n in range(3, 421):
        if n % 4 == 2:
            continue
        for p in _once_divided(n):
            ell, powers, moved = _galois_images(n, p)
            nums = _lifted(n, p, [rng.randint(-9, 9) for _ in range(euler_phi(n // p))])
            assert sum(map(mul, nums, powers)) % ell == sum(map(mul, nums, moved)) % ell


@pytest.mark.parametrize("n,p", CRT_CASES)
def test_descend_matches_the_fraction_descent(n, p):
    # a value of Q(z_(n/p)), the same nudged out of it, a full value, and a
    # value of a smaller subfield
    rng = random.Random(n + p)
    d = n // p
    lifted = _lifted(n, p, [rng.randint(-5, 5) for _ in range(euler_phi(d))])
    nudged = list(lifted)
    nudged[rng.choice([k for k in range(1, len(nudged)) if k % p])] += 1
    outer = [rng.randint(-5, 5) for _ in range(euler_phi(n))]
    q = _prime_factors(d)[-1]
    deeper = _lifted(n, p * q, [rng.randint(-5, 5) for _ in range(euler_phi(d // q))])
    for nums in (lifted, nudged, outer, deeper):
        m, coords = _descend(n, list(nums))
        assert (m, tuple(map(Fraction, coords))) == fraction_canonical(n, nums)


def test_a_full_value_at_60_reaches_no_crt_test(monkeypatch):
    asked = []

    def recording(n, p, nums):
        coords = _crt_subfield(n, p, nums)
        asked.append((n, p, coords is not None))
        return coords

    monkeypatch.setattr(cyclotomic, "_crt_subfield", recording)
    rng = random.Random(60)
    for _ in range(20):
        x = CycNum(60, [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(euler_phi(60))])
        assert x.conductor == 60
    assert asked == []
    # a value of Q(z20) written at conductor 60 passes the F_l test for p = 3
    # and is accepted by the CRT test there
    inner = [rng.randint(-5, 5) for _ in range(euler_phi(20))]
    inner[1] = 1
    assert CycNum(60, _lifted(60, 3, inner)) == CycNum(20, inner)
    assert (60, 3, True) in asked
    assert all(accepted for _, _, accepted in asked)


# -- the rational fast paths -------------------------------------------------

def _structure(x):
    """(conductor, integer numerators, denominator) of a CycNum, or of a
    FractionCycNum over the lcm of its coordinate denominators."""
    if isinstance(x, FractionCycNum):
        den = lcm(*(c.denominator for c in x.coeffs))
        return x.conductor, tuple(int(c * den) for c in x.coeffs), den
    return x.conductor, x._nums, x._den


def _oracle_hash(big_x):
    n, nums, den = _structure(big_x)
    return hash(Fraction(nums[0], den)) if n == 1 else hash((n, nums, den))


@st.composite
def fast_path_operands(draw, conductor):
    """(library operand, oracle operand): a raw int or Fraction, a rational
    CycNum, zero or +-1, or an irrational at the given conductor or at
    another one."""
    kind = draw(st.sampled_from(["int", "fraction", "rational", "unit", "same", "mixed"]))
    if kind == "int":
        q = draw(st.integers(-9, 9))
        return q, q
    if kind == "fraction":
        q = draw(small_fractions)
        return q, q
    if kind in ("rational", "unit"):
        q = draw(small_fractions if kind == "rational" else st.sampled_from([0, 1, -1]))
        return CycNum.rational(q), FractionCycNum.rational(q)
    n = conductor if kind == "same" else draw(st.sampled_from([3, 4, 5, 8, 12]))
    coeffs = [draw(small_fractions) for _ in range(euler_phi(n))]
    coeffs[1] = coeffs[1] or Fraction(1)
    return CycNum(n, coeffs), FractionCycNum(n, coeffs)


@st.composite
def fast_path_pairs(draw):
    n = draw(st.sampled_from([3, 4, 12]))
    (x, big_x), (y, big_y) = draw(fast_path_operands(n)), draw(fast_path_operands(n))
    if not isinstance(x, CycNum) and not isinstance(y, CycNum):
        x, big_x = CycNum.rational(x), FractionCycNum.rational(big_x)
    return x, big_x, y, big_y


@given(fast_path_pairs())
@settings(max_examples=300)
def test_fast_paths_match_the_fraction_oracle(pairs):
    x, big_x, y, big_y = pairs
    for op in (add, sub, mul):
        got, want = op(x, y), op(big_x, big_y)
        assert type(got) is CycNum
        assert _structure(got) == _structure(want), op.__name__
        assert hash(got) == _oracle_hash(want), op.__name__
        assert (got == op(y, x)) is (want == op(big_y, big_x)), op.__name__
    assert (x == y) is (big_x == big_y)
    assert (x != y) is not (big_x == big_y)


def _mixed_coefficients(rng, n, kinds):
    """A seeded dense coefficient list at conductor n, each entry an int, a
    bool, a Fraction or a str of a Fraction, drawn from kinds; about a third of
    the entries are zero."""
    out = []
    for _ in range(rng.randint(1, n)):
        q = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4))) if rng.random() < 0.7 else 0
        kind = rng.choice(kinds)
        out.append({"int": q.numerator, "bool": bool(q), "Fraction": q, "str": str(q)}[kind])
    return out


@pytest.mark.parametrize("n", range(1, 61))
def test_construction_from_mixed_coefficients_matches_the_fraction_oracle(n):
    # the constructor reads each coefficient once as (numerator,
    # denominator); all-int and all-bool lists take the lcm-1 path
    rng = random.Random(6100 + n)
    values = []
    for kinds in (["int"], ["int", "bool"], ["int", "Fraction"], ["Fraction", "str"],
                  ["int", "bool", "Fraction", "str"], ["int", "bool", "Fraction", "str"]):
        coeffs = _mixed_coefficients(rng, n, kinds)
        x, big_x = CycNum(n, coeffs), FractionCycNum(n, coeffs)
        assert _structure(x) == _structure(big_x), coeffs
        assert hash(x) == _oracle_hash(big_x), coeffs
        assert x == CycNum(n, [Fraction(c) for c in coeffs])
        values.append((x, big_x))
    for (x, big_x), (y, big_y) in itertools.product(values, repeat=2):
        assert (x == y) is (big_x == big_y)


def _count_new(monkeypatch):
    made, new = [], CycNum._new

    def counting(n, nums, den):
        made.append(n)
        return new(n, nums, den)

    monkeypatch.setattr(CycNum, "_new", staticmethod(counting))
    return made


def _count_make(monkeypatch):
    asked, make = [], cyclotomic._make

    def counting(n, nums, den):
        asked.append(n)
        return make(n, nums, den)

    monkeypatch.setattr(cyclotomic, "_make", counting)
    return asked


@pytest.mark.parametrize("a,b", [(zeta(12) + 2, zeta(12, 5) - 1), (zeta(3), zeta(4)),
                                 (zeta(5) / 3, CycNum.rational(Fraction(1, 2))),
                                 (CycNum.rational(Fraction(2, 3)), zeta(8) / 6),
                                 (CycNum.rational(4), CycNum.rational(9))])
def test_a_difference_makes_one_cycnum(monkeypatch, a, b):
    expected = a + (-b)
    made = _count_new(monkeypatch)
    assert a - b == expected
    assert len(made) == 1


@pytest.mark.parametrize("op", [add, sub, mul])
def test_integer_arithmetic_makes_one_cycnum_and_no_gcd(monkeypatch, op):
    x, y = CycNum.rational(-6), CycNum.rational(7)
    made, asked = _count_new(monkeypatch), _count_make(monkeypatch)
    assert op(x, y) == op(-6, 7)
    assert len(made) == 1 and asked == []
    made.clear()
    assert x * 7 == 7 * x == -42
    assert len(made) == 2 and asked == []


def test_identities_return_the_operand(monkeypatch):
    x = zeta(12) + Fraction(1, 3)
    zero, one = CycNum.rational(0), CycNum.rational(1)
    made = _count_new(monkeypatch)
    assert x + zero is x and zero + x is x and x - zero is x
    assert x * one is x and one * x is x and x * 1 is x and 1 * x is x
    assert made == []
    assert x + 0 is x and 0 + x is x


# -- the integer kernel against the Fraction-per-coefficient oracle ----------

ORACLE_CONDUCTORS = [1, 3, 4, 5, 8, 12, 24, 60]


def _both(n, coeffs):
    return CycNum(n, coeffs), FractionCycNum(n, coeffs)


def _agree(x, oracle):
    assert _data(x) == (oracle.conductor, oracle.coeffs)
    assert str(x) == str(oracle)
    assert cyc_to_json(x) == fraction_cyc_to_json(oracle)


@st.composite
def oracle_pairs(draw):
    """(x, X, y, Y): library values and their oracles, built from the same
    Fractions.  y is from any conductor of the list, from a subfield of x's,
    or cancels x down to a subfield, so that results also descend."""
    def drawn(n):
        return _both(n, [draw(small_fractions) for _ in range(euler_phi(n))])

    n = draw(st.sampled_from(ORACLE_CONDUCTORS))
    x, big_x = drawn(n)
    kind = draw(st.sampled_from(["other", "subfield", "cancel"]))
    if kind == "other":
        y, big_y = drawn(draw(st.sampled_from(ORACLE_CONDUCTORS)))
    else:
        y, big_y = drawn(draw(st.sampled_from(divisors(n))))
        if kind == "cancel":
            y, big_y = y - x, big_y - big_x
    return x, big_x, y, big_y


@given(oracle_pairs())
@settings(max_examples=150)
def test_kernel_matches_fraction_oracle_on_ring_operations(pairs):
    x, big_x, y, big_y = pairs
    _agree(x, big_x)
    _agree(y, big_y)
    _agree(x + y, big_x + big_y)
    _agree(x - y, big_x - big_y)
    _agree(y - x, big_y - big_x)
    _agree(x * y, big_x * big_y)
    _agree(-x, -big_x)
    if not y.is_zero():
        _agree(y.inverse(), big_y.inverse())
        _agree(x / y, big_x / big_y)
    n = x.conductor
    for a in range(1, n + 1):
        if gcd(a, n) == 1:
            _agree(x.galois(a), big_x.galois(a))


@given(st.sampled_from(ORACLE_CONDUCTORS + [6, 10, 30]), st.data())
@settings(max_examples=150)
def test_kernel_matches_fraction_oracle_on_construction(n, data):
    # dense lists of length n or longer, drawn from a subfield half the time
    d = data.draw(st.sampled_from([d for d in divisors(n) if d % 4 != 2]))
    length = data.draw(st.sampled_from([n, 2 * n + 1]))
    dense = [Fraction(0)] * length
    for k in range(0, length, n // d):
        dense[k] = data.draw(small_fractions)
    for k in data.draw(st.lists(st.integers(0, length - 1), max_size=4)):
        dense[k] += data.draw(small_fractions)
    _agree(*_both(n, dense))


@given(oracle_pairs(), st.sampled_from([1, 2, 3, 5]))
@settings(max_examples=80)
def test_kernel_matches_fraction_oracle_at_the_boundary(pairs, k):
    x, big_x, y, big_y = pairs
    m = lcm(x.conductor, y.conductor) * k
    assert x.coords_at(m) == big_x.coords_at(m)
    assert all(type(c) is Fraction for c in x.coords_at(m))
    assert cyc_from_json(cyc_to_json(x)) == x
    assert parse_scalar(str(x)) == x


def test_importing_the_cli_leaves_mpmath_unloaded():
    # the package has no floating point: only the test oracles load mpmath
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, invlat, invlat.cli\n"
        "assert invlat.cli.main(['analyze', 'WeylB2', '--json']) == 0\n"
        "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
