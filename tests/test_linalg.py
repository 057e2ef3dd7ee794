import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from invlat import linalg
from invlat.cyclotomic import CycNum, zeta
from invlat.lattices import flatten

from oracles import (
    FractionSpan,
    det_by_cofactors,
    euler_phi,
    hermite_by_pairs,
    inverse_by_rref,
    kernel_right,
    matvec,
    rref_divide_each_entry,
    rref_full_width,
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
    # the kernel oracle, against the library's rank
    m = frac_rows(mat)
    kernel = kernel_right(m)
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
    # det and rank run over cyclotomic entries; the inverse oracle agrees
    z = zeta(3)
    m = [[z, CycNum.rational(1)], [CycNum.rational(1), z]]
    d = linalg.det(m)
    assert d == z * z - CycNum.rational(1)
    assert linalg.rank(m) == 2
    inv = inverse_by_rref(m)
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


def field_span_rows(mat, conductor):
    """The rational rows of the span of mat's rows over Q(z_N): each row
    times z_N^k for k < phi(N), flattened at the conductor (an int for each
    integral coordinate), as the Schur descent writes a cyclotomic span.
    Their rank is phi(N) times the rank of mat over the field.  Fraction
    rows (conductor 0) are returned as they are."""
    if conductor == 0:
        return mat
    z = zeta(conductor)
    return [flatten([z ** k * x for x in row], conductor)
            for row in mat for k in range(euler_phi(conductor))]


@pytest.mark.parametrize("conductor", CONDUCTORS)
def test_rref_matches_divide_each_entry_oracle(conductor):
    # rational rows only: conductors 3-12 reduce the flattened rows of spans
    # over Q(z_N), with rank phi(N) times the rank over the field
    rng = random.Random(7000 + conductor)
    mats = seeded_matrices(rng, conductor, 25)
    width = 1 if conductor == 0 else euler_phi(conductor)
    assert any(linalg.rank(m) < min(len(m), len(m[0])) for m in mats)
    for mat in mats:
        rows = field_span_rows(mat, conductor)
        reduced = linalg.rref(rows)
        assert reduced == rref_divide_each_entry(frac_rows(rows))
        assert len(reduced[0]) == width * linalg.rank(mat)


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
    # a cyclotomic span held as the rational rows of `field_span_rows`; a
    # combination with cyclotomic coefficients lies in their rational span
    rng = random.Random(7300 + conductor)
    outside = 0
    for mat in seeded_matrices(rng, conductor, 25):
        pair = (seeded_entry(rng, conductor), seeded_entry(rng, conductor))
        cyc_rows = with_dependents(mat, pair)
        rows = field_span_rows(cyc_rows, conductor)
        a, b = seeded_entry(rng, conductor), seeded_entry(rng, conductor)
        inside = [a * x + b * y for x, y in zip(cyc_rows[0], cyc_rows[-1])]
        arbitrary = [seeded_entry(rng, conductor) for _ in cyc_rows[0]]
        span = linalg.Span(rows)
        for vec in (inside, arbitrary):
            vec = flatten(vec, conductor)
            expected = solve_right(transposed(rows), vec)
            outside += expected is None
            assert span.coords(vec) == expected
        assert span.coords(flatten(inside, conductor)) is not None
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
        expected = len(rref_divide_each_entry(mat)[0])
        deficient += expected < min(len(mat), len(mat[0]))
        assert linalg.rank(mat) == expected
    assert deficient
    assert linalg.rank([]) == 0


def count_inverse_calls(monkeypatch):
    """Route CycNum.inverse through a counter; return the list it appends to."""
    calls = []
    real = CycNum.inverse

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(CycNum, "inverse", counting)
    return calls


def test_det_inverts_at_most_once_per_pivot_after_the_first(monkeypatch):
    """The Bareiss division takes one reciprocal of the previous pivot per
    pivot after the first, so at most rank - 1 in all."""
    rng = random.Random(7200)
    cases = []
    for conductor in (3, 5, 12):
        for _ in range(10):
            n = rng.randint(1, 4)
            mat = [[seeded_entry(rng, conductor) for _ in range(n)] for _ in range(n)]
            cases.append((mat, len(rref_divide_each_entry(mat)[0]), det_by_cofactors(mat)))
    calls = count_inverse_calls(monkeypatch)
    most = 0
    for mat, rank, det in cases:
        calls.clear()
        assert linalg.det(mat) == det
        assert len(calls) <= max(rank - 1, 0)
        most = max(most, len(calls))
    assert most > 1


def test_rank_inverts_at_most_once_per_pivot_after_the_first(monkeypatch):
    """As for det: at most rank - 1 reciprocals, one per pivot after the first."""
    rng = random.Random(7600)
    mats = [m for conductor in (3, 4, 12) for m in seeded_matrices(rng, conductor, 10)]
    expected = [len(rref_divide_each_entry(m)[0]) for m in mats]
    calls = count_inverse_calls(monkeypatch)
    most = 0
    for mat, rank in zip(mats, expected):
        calls.clear()
        assert linalg.rank(mat) == rank
        assert len(calls) <= max(rank - 1, 0)
        most = max(most, len(calls))
    assert most > 1


@pytest.mark.parametrize("n", [24, 32])
def test_rank_and_det_of_dense_integer_matrices_at_the_dimension_limit(n):
    """Bareiss keeps every entry a minor, so a dense 32 x 32 integer matrix
    takes a fraction of a second; |det| is the product of the Hermite
    diagonal."""
    rng = random.Random(7650 + n)
    mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    hermite = hermite_by_pairs([list(row) for row in mat], n)
    assert linalg.rank(mat) == n
    assert abs(linalg.det(mat)) == math.prod(row[i] for i, row in enumerate(hermite))
    repeated = mat[:-1] + [mat[0]]
    assert linalg.rank(repeated) == n - 1
    assert linalg.det(repeated) == 0


# int input: exact Fraction results, equal to those of the same Fraction input


def test_int_matrices_give_exact_fractions():
    det = linalg.det([[3, 1], [1, 1]])
    assert det == 2 and type(det) is Fraction
    assert linalg.inverse([[3, 1], [1, 1]]) == [
        [Fraction(1, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]]
    span = linalg.Span([[3, 1], [6, 2]])
    assert span.rows == [[Fraction(1), Fraction(1, 3)]]
    assert span.coords([6, 2]) == [2, 0]
    assert span.coords([0, 1]) is None
    assert linalg.det([[Fraction(1, 2), 3], [1, 5]]) == Fraction(-1, 2)
    for out in (linalg.inverse([[3, 1], [1, 1]]), span.rows, [span.coords([6, 2])]):
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
        for routine in (linalg.det, linalg.inverse, linalg.rref):
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
    assert abs(linalg.det(t)) == 1
    width = len(mat[0])
    by_pairs = hermite_by_pairs([list(row) + [0] * len(mat) for row in mat], width)
    assert h == [row[:width] for row in by_pairs]


# rref and the Hermite elimination against their full-width, first-pivot
# oracles, on shapes where the live-column and smallest-pivot rules could
# slip: zero rows and columns, width 1, negative leading entries, rank
# deficient products, and columns that get no pivot before ones that do


@st.composite
def shaped_matrix(draw, entry):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["plain", "zeros", "product", "free", "negative"]))
    if shape == "product":
        k = draw(st.integers(1, 3))
        left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
        right = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
    mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if shape == "zeros":
        dead_rows = draw(st.sets(st.integers(0, m - 1)))
        dead_cols = draw(st.sets(st.integers(0, n - 1)))
        mat = [[0 if i in dead_rows or j in dead_cols else x for j, x in enumerate(row)]
               for i, row in enumerate(mat)]
    elif shape == "free":
        # each chosen column is a combination of the columns before it, so
        # it gets no pivot while later columns may
        for j in draw(st.sets(st.integers(1, n - 1))) if n > 1 else ():
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=j, max_size=j))
            for row in mat:
                row[j] = sum(a * row[k] for k, a in enumerate(coeffs))
    elif shape == "negative":
        mat = [[-abs(x) if j == 0 else x for j, x in enumerate(row)] for row in mat]
    return mat


rational_entries = st.one_of(st.integers(-9, 9), st.fractions(-5, 5, max_denominator=4))


@given(shaped_matrix(rational_entries))
# column 1 gets no pivot, and row 0 is still nonzero there when the pivots
# in columns 2 and 3 rescale it
@example([[2, 4, 1, 3], [1, 2, 5, Fraction(1, 2)], [3, 6, 0, 7]])
@settings(max_examples=200)
def test_rref_matches_full_width_oracle(mat):
    assert linalg.rref(mat) == rref_full_width(mat)


# rref is a forward elimination that updates only the rows below each pivot,
# then a back-substitution that solves only the free columns.  These shapes
# put free columns before, between and after the pivots, and rows that the
# forward pass leaves zero.

PLANTED_SHAPES = ["leading zero columns", "free columns", "zero and duplicate rows",
                  "more rows than columns"]


@st.composite
def planted_echelon(draw):
    """(rows, planted pivots): integer combinations of echelon rows with unit
    columns at the planted pivots and rational entries in the free columns
    past each pivot.  The rref's pivots are among the planted ones, and are
    all of them when the combinations have full rank."""
    shape = draw(st.sampled_from(PLANTED_SHAPES))
    r = draw(st.integers(1, 4))
    column = draw(st.integers(1 if shape == "leading zero columns" else 0, 2))
    pivots = []
    # each gap is the run of free columns after a pivot, the last the tail
    for gap in draw(st.lists(st.integers(shape == "free columns", 2), min_size=r, max_size=r)):
        pivots.append(column)
        column += 1 + gap
    n = column
    basis = []
    for p in pivots:
        row = [0] * n
        row[p] = 1
        for f in range(p + 1, n):
            if f not in pivots:
                row[f] = draw(rational_entries)
        basis.append(row)
    m = draw(st.integers(n + 1, n + 3) if shape == "more rows than columns"
             else st.integers(1, r + 2))
    combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r),
                           min_size=m, max_size=m))
    rows = [[sum(c * b[j] for c, b in zip(combo, basis)) for j in range(n)] for combo in combos]
    if shape == "zero and duplicate rows":
        rows += [[0] * n, list(draw(st.sampled_from(rows)))]
        rows = draw(st.permutations(rows))
    return rows, pivots


@given(planted_echelon())
@settings(max_examples=300)
def test_rref_matches_both_oracles_on_planted_shapes(case):
    rows, planted = case
    reduced, pivots = linalg.rref(rows)
    assert (reduced, pivots) == rref_full_width(rows)
    assert (reduced, pivots) == rref_divide_each_entry(frac_rows(rows))
    assert set(pivots) <= set(planted)
    assert len(pivots) == linalg.rank(frac_rows(rows))


@given(st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(rational_entries, min_size=k, max_size=k), min_size=k, max_size=k)))
@settings(max_examples=150)
def test_rref_matches_both_oracles_on_matrix_beside_identity(mat):
    # [M | I] has at least n free columns, past every pivot of M
    k = len(mat)
    rows = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(mat)]
    assert linalg.rref(rows) == rref_full_width(rows)
    assert linalg.rref(rows) == rref_divide_each_entry(frac_rows(rows))


@st.composite
def square_up_to_8(draw):
    """A k x k matrix of ints and Fractions, k <= 8; singular half the time,
    one row a combination of the others."""
    k = draw(st.integers(1, 8))
    mat = draw(st.lists(st.lists(rational_entries, min_size=k, max_size=k),
                        min_size=k, max_size=k))
    if draw(st.booleans()):
        i = draw(st.integers(0, k - 1))
        combo = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        mat[i] = [sum(c * row[j] for c, row, h in zip(combo, mat, range(k)) if h != i)
                  for j in range(k)]
    return mat


@given(square_up_to_8())
@settings(max_examples=120, deadline=None)
def test_inverse_matches_rref_oracle(mat):
    inv = linalg.inverse(mat)
    assert inv == inverse_by_rref(mat)
    assert (inv is None) == (linalg.det(frac_rows(mat)) == 0)


@given(planted_echelon())
@settings(max_examples=150, deadline=None)
def test_schur_kernel_matches_sympy_nullspace(case):
    # one basis vector per free column, 1 there and 0 at the other free
    # columns, as sympy's nullspace gives it
    sympy = pytest.importorskip("sympy")
    from invlat.schur import _kernel

    rows, _ = case
    width = len(rows[0])
    expected = [[Fraction(int(x.p), int(x.q)) for x in v]
                for v in sympy.Matrix(rows).nullspace()]
    assert _kernel(rows, width) == expected


@given(shaped_matrix(ints))
@settings(max_examples=300)
def test_hermite_matches_first_pivot_oracle(mat):
    width = len(mat[0])
    by_pairs = hermite_by_pairs([list(row) for row in mat], width)
    assert linalg.hnf(mat) == [row for row in by_pairs if any(row)]
    h, t = linalg.hnf_with_transform(mat)
    assert h == by_pairs
    assert linalg.matmul(t, mat) == h
    assert abs(linalg.det(t)) == 1


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


# hnf of rows with full column rank runs mod a multiple R of the lattice
# determinant; the first-pivot oracle takes no modulus, so it shares nothing
# with that route


@st.composite
def tall_matrix(draw):
    """m x n rows with n <= m <= n + 5, one column scaled by 2..30 so that
    the lattice determinant, and with it R, can be large."""
    n = draw(st.integers(1, 10))
    mat = draw(int_matrix(draw(st.integers(n, n + 5)), n))
    col, scale = draw(st.integers(0, n - 1)), draw(st.integers(2, 30))
    return [[x * scale if j == col else x for j, x in enumerate(row)] for row in mat]


# R = 2 and column 0 is even; R = 3 and column 1 is 0 mod 3: those columns
# have no nonzero entry mod R and pivot on R itself
PIVOT_COLUMN_ZERO_MOD_R = [
    ([[2, 1], [4, 3], [6, 5]], 2),
    ([[1, 0, 0], [0, 3, 0], [0, 0, 1], [0, 6, 3]], 3),
]


@given(tall_matrix())
@settings(max_examples=300)
def test_modular_hnf_matches_first_pivot_oracle(mat):
    by_pairs = hermite_by_pairs([list(row) for row in mat], len(mat[0]))
    assert linalg.hnf(mat) == [row for row in by_pairs if any(row)]


@pytest.mark.parametrize("mat,modulus", PIVOT_COLUMN_ZERO_MOD_R)
def test_a_pivot_column_that_is_zero_mod_r_pivots_on_r(mat, modulus):
    assert linalg._hnf_modulus(mat) == modulus
    by_pairs = hermite_by_pairs([list(row) for row in mat], len(mat[0]))
    assert linalg.hnf(mat) == [row for row in by_pairs if any(row)]


@pytest.mark.parametrize("seed", range(12))
def test_modular_hnf_on_kernel_workload_shapes(seed):
    # the kernels benchmark's 16 x 12 shape: these seeds give R = 1, R a
    # proper multiple of a determinant 1 and of a determinant 2
    rng = random.Random(500 + seed)
    mat = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(16)]
    h = linalg.hnf(mat)
    assert h == [row for row in hermite_by_pairs([list(row) for row in mat], 12) if any(row)]
    assert linalg._hnf_modulus(mat) % math.prod(row[i] for i, row in enumerate(h)) == 0


@given(st.one_of(tall_matrix(), shaped_matrix(ints)))
@settings(max_examples=300)
def test_hnf_modulus_is_a_multiple_of_the_determinant(mat):
    n = len(mat[0])
    modulus = linalg._hnf_modulus(mat)
    if linalg.rank(frac_rows(mat)) < n:
        assert modulus == 0
    else:
        by_pairs = hermite_by_pairs([list(row) for row in mat], n)
        assert modulus > 0
        assert modulus % math.prod(row[i] for i, row in enumerate(by_pairs[:n])) == 0
