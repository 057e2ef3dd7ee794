import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from invlat import linalg
from invlat.cyclotomic import CycNum, euler_phi, zeta

from oracles import (
    FractionSpan,
    det_by_cofactors,
    matvec,
    rref_divide_each_entry,
    solve_right,
)

ints = st.integers(-9, 9)


def int_matrix(rows, cols):
    return st.lists(
        st.lists(ints, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    )


square = st.integers(1, 4).flatmap(lambda k: int_matrix(k, k))
rect = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: int_matrix(s[0], s[1])
)


def frac_rows(mat):
    return [[Fraction(x) for x in row] for row in mat]


@given(square)
def test_det_by_rank(mat):
    m = frac_rows(mat)
    nonzero = linalg.det(m) != 0
    assert nonzero == (linalg.rank(m) == len(m))


@given(square)
@settings(max_examples=60)
def test_inverse(mat):
    m = frac_rows(mat)
    if linalg.det(m) == 0:
        return
    inv = linalg.inverse(m)
    prod = linalg.matmul(m, inv)
    n = len(m)
    assert prod == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


@given(rect)
def test_rref_idempotent(mat):
    m = frac_rows(mat)
    rows, pivots = linalg.rref(m)
    if rows:
        assert linalg.rref(rows) == (rows, pivots)


@given(rect)
@settings(max_examples=80)
def test_kernel_right_annihilates(mat):
    m = frac_rows(mat)
    kernel = linalg.kernel_right(m)
    cols = len(m[0])
    assert len(kernel) == cols - linalg.rank(m)
    for vec in kernel:
        image = matvec(m, list(vec))
        assert all(x == 0 for x in image)


@given(square, st.lists(ints, min_size=1, max_size=4))
@settings(max_examples=60)
def test_solve_right_consistency(mat, target):
    m = frac_rows(mat)
    n = len(m)
    b = [Fraction(target[i % len(target)]) for i in range(n)]
    sol = solve_right(m, b)
    if sol is not None:
        assert matvec(m, sol) == b


def test_solve_right_reports_inconsistency():
    m = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert solve_right(m, [Fraction(0), Fraction(1)]) is None


def test_exact_field_generic():
    # the same routines run over cyclotomic entries
    z = zeta(3)
    m = [[z, CycNum.rational(1)], [CycNum.rational(1), z]]
    d = linalg.det(m)
    assert d == z * z - CycNum.rational(1)
    inv = linalg.inverse(m)
    prod = linalg.matmul(m, inv)
    one, nil = CycNum.rational(1), CycNum.rational(0)
    assert prod == [[one, nil], [nil, one]]


@given(rect)
@settings(max_examples=200)
def test_hnf_idempotent(mat):
    h = linalg.hnf(mat)
    assert linalg.hnf(h) == h


@given(rect)
@settings(max_examples=100)
def test_hnf_transform_reproduces(mat):
    h, t = linalg.hnf_with_transform(mat)
    assert linalg.matmul(t, mat) == h
    # transform is unimodular: determinant is a unit
    assert abs(linalg.det(frac_rows(t))) == 1


@given(rect)
@settings(max_examples=100)
def test_hnf_preserves_row_span(mat):
    h = linalg.hnf(mat)
    assert linalg.rref(frac_rows(h)) == linalg.rref(frac_rows(mat))


@given(rect)
@settings(max_examples=80)
def test_int_kernel_is_left_kernel(mat):
    kernel = linalg.int_kernel(mat)
    rows, cols = len(mat), len(mat[0])
    assert len(kernel) == rows - linalg.rank(frac_rows(mat))
    for vec in kernel:
        combo = [
            sum(vec[i] * mat[i][j] for i in range(rows)) for j in range(cols)
        ]
        assert all(x == 0 for x in combo)


@given(rect, st.lists(st.integers(-4, 4), min_size=4, max_size=4), st.integers(0, 3))
@settings(max_examples=80)
def test_hnf_coords_solve_and_reject(mat, combo, col):
    h = linalg.hnf(mat)
    combo = combo[:len(h)]
    vec = [sum(c * row[j] for c, row in zip(combo, h)) for j in range(len(mat[0]))]
    assert linalg.hnf_coords(h, vec) == combo
    if col < len(vec):
        off = vec[:col] + [vec[col] + 1] + vec[col + 1:]
        coords = linalg.hnf_coords(h, off)
        assert (coords is not None) == (linalg.hnf(h + [off]) == h)
        if coords is not None:
            assert [sum(c * row[j] for c, row in zip(coords, h)) for j in range(len(off))] == off


def test_xgcd():
    for a, b in [(12, 18), (0, 5), (7, 0), (-4, 6), (270, 192)]:
        g, x, y = linalg.xgcd(a, b)
        assert g == abs(__import__("math").gcd(a, b))
        assert a * x + b * y == g


# elimination against the divide-every-entry and cofactor oracles


def seeded_entry(rng, conductor):
    """A CycNum at the conductor (a Fraction at conductor 0), zero one time in
    three."""
    if rng.random() < 1 / 3:
        return Fraction(0) if conductor == 0 else CycNum.rational(0)
    if conductor == 0:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(euler_phi(conductor))]
    return CycNum(conductor, coeffs)


def seeded_matrices(rng, conductor, count):
    """Random matrices with zero entries, plus copies made rank-deficient by
    replacing a row with a combination of two others."""
    out = []
    for _ in range(count):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        mat = [[seeded_entry(rng, conductor) for _ in range(cols)] for _ in range(rows)]
        out.append(mat)
        if rows >= 3:
            a, b = seeded_entry(rng, conductor), seeded_entry(rng, conductor)
            dependent = [a * x + b * y for x, y in zip(mat[0], mat[1])]
            out.append(mat[:2] + [dependent] + mat[3:])
    return out


CONDUCTORS = [0, 3, 4, 5, 12]  # 0 stands for Fraction entries


@pytest.mark.parametrize("conductor", CONDUCTORS)
def test_rref_matches_divide_each_entry_oracle(conductor):
    rng = random.Random(7000 + conductor)
    mats = seeded_matrices(rng, conductor, 25)
    assert any(len(linalg.rref(m)[0]) < min(len(m), len(m[0])) for m in mats)
    for mat in mats:
        assert linalg.rref(mat) == rref_divide_each_entry(mat)


@pytest.mark.parametrize("conductor", CONDUCTORS)
def test_det_matches_cofactor_oracle(conductor):
    rng = random.Random(7100 + conductor)
    singular = 0
    for _ in range(25):
        n = rng.randint(1, 4)
        mat = [[seeded_entry(rng, conductor) for _ in range(n)] for _ in range(n)]
        if n >= 3:
            mat[2] = [x + y for x, y in zip(mat[0], mat[1])]
        expected = det_by_cofactors(mat)
        singular += expected == 0
        assert linalg.det(mat) == expected
    assert singular


def test_rref_inverts_each_pivot_once(monkeypatch):
    calls = []
    real = CycNum.inverse

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(CycNum, "inverse", counting)
    rng = random.Random(7200)
    for conductor in (3, 5, 12):
        for mat in seeded_matrices(rng, conductor, 10):
            calls.clear()
            _, pivots = linalg.rref(mat)
            assert len(calls) <= len(pivots)
            if len(mat) == len(mat[0]):
                calls.clear()
                linalg.det(mat)
                assert len(calls) <= len(mat)


# Span against the solve-the-column-system oracle


def transposed(rows):
    return [[row[i] for row in rows] for i in range(len(rows[0]))]


def with_dependents(rows, rng_ints):
    """rows plus a zero row and a combination of the first and last rows."""
    a, b = rng_ints
    zero = [x * 0 for x in rows[0]]
    combo = [a * x + b * y for x, y in zip(rows[0], rows[-1])]
    return rows[:1] + [zero] + rows[1:] + [combo]


@given(rect, st.lists(ints, min_size=1, max_size=4), st.tuples(ints, ints))
@settings(max_examples=150)
def test_span_coords_match_solve_right(mat, target, combo):
    rows = with_dependents(frac_rows(mat), combo)
    width = len(rows[0])
    inside = [sum(r[i] for r in rows[-2:]) for i in range(width)]
    arbitrary = [Fraction(target[i % len(target)]) for i in range(width)]
    span = linalg.Span(rows)
    for vec in (inside, arbitrary, [Fraction(0)] * width):
        assert span.coords(vec) == solve_right(transposed(rows), vec)
    assert span.coords(inside) is not None


@pytest.mark.parametrize("conductor", [3, 4, 12])
def test_span_coords_match_solve_right_cyclotomic(conductor):
    rng = random.Random(7300 + conductor)
    outside = 0
    for mat in seeded_matrices(rng, conductor, 25):
        pair = (seeded_entry(rng, conductor), seeded_entry(rng, conductor))
        rows = with_dependents(mat, pair)
        a, b = seeded_entry(rng, conductor), seeded_entry(rng, conductor)
        inside = [a * x + b * y for x, y in zip(rows[0], rows[-1])]
        arbitrary = [seeded_entry(rng, conductor) for _ in rows[0]]
        span = linalg.Span(rows)
        for vec in (inside, arbitrary):
            expected = solve_right(transposed(rows), vec)
            outside += expected is None
            assert span.coords(vec) == expected
    assert outside


@given(rect)
def test_span_add_reports_rank_growth(mat):
    rows = frac_rows(mat) + frac_rows(mat[:1]) + [[Fraction(0)] * len(mat[0])]
    span = linalg.Span()
    for k, row in enumerate(rows):
        grew = linalg.rank(rows[: k + 1]) > linalg.rank(rows[:k])
        assert span.add(row) == grew
        assert len(span) == linalg.rank(rows[: k + 1])


def test_empty_span():
    span = linalg.Span()
    assert span.coords([Fraction(0)] * 3) == []
    assert span.coords([Fraction(0), Fraction(1), Fraction(0)]) is None
    z = zeta(5)
    assert linalg.Span().coords([z * 0, z * 0]) == []
    assert linalg.Span().coords([z, z * 0]) is None


def test_span_inverts_once_per_kept_row(monkeypatch):
    calls = []
    real = CycNum.inverse

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(CycNum, "inverse", counting)
    rng = random.Random(7400)
    for conductor in (3, 5, 12):
        for mat in seeded_matrices(rng, conductor, 10):
            calls.clear()
            span = linalg.Span(mat)
            assert len(calls) <= len(span)
            calls.clear()
            span.coords(mat[0])
            assert not calls


# the integer route of Span against the Fraction-elimination oracle


def rational_entry(rng):
    """An int or a Fraction, zero one time in three."""
    if rng.random() < 1 / 3:
        return rng.choice([0, Fraction(0)])
    if rng.random() < 1 / 2:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


def rational_rows(rng, width, count):
    """Seeded mixed int/Fraction rows, with zero rows and rational
    combinations of earlier rows put in."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            rows.append([rng.choice([0, Fraction(0)]) for _ in range(width)])
        elif kind < 0.4 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            p, q = Fraction(rng.randint(-5, 5), rng.randint(1, 6)), rng.randint(-3, 3)
            rows.append([p * x + q * y for x, y in zip(a, b)])
        else:
            rows.append([rational_entry(rng) for _ in range(width)])
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_integer_span_matches_fraction_span(seed):
    rng = random.Random(8100 + seed)
    width = 1 if seed % 8 == 0 else rng.randint(1, 7)
    added = rational_rows(rng, width, rng.randint(0, width + 3))
    span, oracle = linalg.Span(), FractionSpan()
    for row in added:
        assert span.add(row) == oracle.add(row)
        assert len(span) == len(oracle)
        assert span.rows == oracle.rows
    assert all(type(x) is Fraction for row in span.rows for x in row)
    asked = rational_rows(rng, width, 6)
    if added:
        a, b = rng.choice(added), rng.choice(added)
        asked.append([Fraction(3, 7) * x - 2 * y for x, y in zip(a, b)])
    for row in asked + added:
        coords = span.coords(row)
        assert coords == oracle.coords(row)
        if coords is not None:
            assert len(coords) == len(added)
            assert all(type(x) is Fraction for x in coords)


def test_empty_and_width_one_integer_spans():
    assert linalg.Span().rows == []
    assert linalg.Span().coords([]) == []
    assert linalg.Span().add([]) is False
    span = linalg.Span([[0], [Fraction(-6, 5)], [4]])
    assert len(span) == 1 and span.rows == [[Fraction(1)]]
    assert span.coords([Fraction(3)]) == [Fraction(0), Fraction(-5, 2), Fraction(0)]


# rank by forward elimination against the rref


def with_zero_and_dependent_rows(rng, conductor, mat):
    """mat with a zero row and a combination of two rows put in at random places."""
    rows = [list(r) for r in mat]
    zero = [x * 0 for x in rows[0]]
    rows.insert(rng.randrange(len(rows) + 1), zero)
    a, b = seeded_entry(rng, conductor), seeded_entry(rng, conductor)
    combo = [a * x + b * y for x, y in zip(rows[0], rows[-1])]
    rows.insert(rng.randrange(len(rows) + 1), combo)
    return rows


@pytest.mark.parametrize("conductor", [0, 3, 4, 12])
def test_rank_matches_rref(conductor):
    rng = random.Random(7500 + conductor)
    mats = seeded_matrices(rng, conductor, 20)
    mats += [with_zero_and_dependent_rows(rng, conductor, m) for m in mats[:15]]
    deficient = 0
    for mat in mats:
        expected = len(linalg.rref(mat)[0])
        deficient += expected < min(len(mat), len(mat[0]))
        assert linalg.rank(mat) == expected
    assert deficient
    assert linalg.rank([]) == 0


def test_rank_takes_no_reciprocal(monkeypatch):
    def refuse(self):
        raise AssertionError("rank took a reciprocal")

    rng = random.Random(7600)
    mats = [m for conductor in (3, 4, 12) for m in seeded_matrices(rng, conductor, 10)]
    expected = [len(linalg.rref(m)[0]) for m in mats]
    monkeypatch.setattr(CycNum, "inverse", refuse)
    assert [linalg.rank(m) for m in mats] == expected


# int input: exact Fraction results, equal to those of the same Fraction input


def test_int_matrices_give_exact_fractions():
    det = linalg.det([[3, 1], [1, 1]])
    assert det == 2 and type(det) is Fraction
    assert linalg.inverse([[3, 1], [1, 1]]) == [
        [Fraction(1, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]]
    assert linalg.kernel_right([[3, 1, 0], [1, 1, 1]]) == [
        [Fraction(1, 2), Fraction(-3, 2), Fraction(1)]]
    span = linalg.Span([[3, 1], [6, 2]])
    assert span.rows == [[Fraction(1), Fraction(1, 3)]]
    assert span.coords([6, 2]) == [2, 0]
    assert span.coords([0, 1]) is None
    assert linalg.det([[Fraction(1, 2), 3], [1, 5]]) == Fraction(-1, 2)
    for out in (linalg.inverse([[3, 1], [1, 1]]), linalg.kernel_right([[3, 1, 0], [1, 1, 1]]),
                span.rows, [span.coords([6, 2])]):
        assert all(type(x) is Fraction for row in out for x in row)


def test_rref_of_int_rank_one_matrix_with_pivot_15():
    base = [15, 3, 0, 7, 1, 2, 4]
    mat = [[c * x for x in base] for c in (1, 2, 3, 0, 5)]
    rows, pivots = linalg.rref(mat)
    assert pivots == [0]
    assert rows == [[Fraction(x, 15) for x in base]]
    assert all(type(x) is Fraction for x in rows[0])


@pytest.mark.parametrize("seed", range(12))
def test_int_input_matches_fraction_input(seed):
    rng = random.Random(7700 + seed)
    n = rng.randint(1, 5)
    mat = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)]
    if n >= 3 and seed % 3 == 0:
        mat[2] = [x - 2 * y for x, y in zip(mat[0], mat[1])]
    mixed = [[Fraction(x) if (i + j) % 2 else x for j, x in enumerate(row)]
             for i, row in enumerate(mat)]
    fractions = frac_rows(mat)
    for given_mat in (mat, mixed):
        for routine in (linalg.det, linalg.inverse, linalg.kernel_right, linalg.rref):
            assert routine(given_mat) == routine(fractions)
        assert linalg.Span(given_mat).rows == linalg.Span(fractions).rows
        for row in fractions:
            coords = linalg.Span(given_mat).coords(row)
            assert coords == linalg.Span(fractions).coords(row)
            assert all(type(x) is Fraction for x in coords)
        rows, _ = linalg.rref(given_mat)
        assert all(type(x) is Fraction for row in rows for x in row)
        assert type(linalg.det(given_mat)) is Fraction


# hnf is the H of hnf_with_transform, without the transform


def hnf_split_case(seed):
    """The kernels benchmark shape (k + 4) x k for k = 4, 8, 12, then seeded
    matrices of at most 8 x 8 with zero entries, every third one a product
    through fewer columns than either side, so rank deficient."""
    rng = random.Random(8000 + seed)
    if seed < 12:
        k = (4, 8, 12)[seed % 3]
        return [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k + 4)]
    m, n = rng.randint(1, 8), rng.randint(1, 8)
    if seed % 3 == 0 and min(m, n) > 1:
        k = rng.randint(1, min(m, n) - 1)
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    return [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(n)]
            for _ in range(m)]


HNF_SPLIT_SEEDS = range(42)


@pytest.mark.parametrize("seed", HNF_SPLIT_SEEDS)
def test_hnf_is_the_nonzero_rows_of_hnf_with_transform(seed):
    mat = hnf_split_case(seed)
    h, t = linalg.hnf_with_transform(mat)
    assert linalg.hnf(mat) == [row for row in h if any(row)]
    assert linalg.matmul(t, mat) == h


def _saturated(rows):
    """Whether the integer rows span every integer vector of their rational
    span: the gcd of their maximal minors is 1."""
    g = 0
    for cols in itertools.combinations(range(len(rows[0])), len(rows)):
        minor = linalg.det(frac_rows([[row[c] for c in cols] for row in rows]))
        g = math.gcd(g, int(minor))
        if g == 1:
            return True
    return False


# sha256 of the int_kernel rows of every hnf_split_case, as computed when
# hnf_with_transform eliminated the matrix and its transform as two arrays
INT_KERNEL_DIGEST = "8e5ff202407bfa7ff861d8971f261c60d6e4a68f5be97950b1ba6fb857c54ab8"


def test_int_kernel_rows_are_unchanged():
    kernels = [linalg.int_kernel(hnf_split_case(seed)) for seed in HNF_SPLIT_SEEDS]
    assert hashlib.sha256(repr(kernels).encode()).hexdigest() == INT_KERNEL_DIGEST
    for seed, kernel in zip(HNF_SPLIT_SEEDS, kernels):
        mat = hnf_split_case(seed)
        assert len(kernel) == len(mat) - linalg.rank(frac_rows(mat))
        if kernel:
            # canonical HNF rows of the whole integer left kernel
            assert linalg.hnf(kernel) == kernel
            assert linalg.matmul(kernel, mat) == [[0] * len(mat[0])] * len(kernel)
            assert _saturated(kernel)
