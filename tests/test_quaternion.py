import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from invlat.catalog import quaternion_preset
from invlat import linalg
from invlat.cyclotomic import CycNum, as_cycnum, sqrt_rational, zeta
from invlat.errors import InvalidInputError
from invlat.forge import ImaginaryQuadraticOrder, extend_rank_2n, split_as_order_module
from invlat.lattices import lattice_from_generators
from invlat import quaternion
from invlat.quaternion import (
    QuatAlgebra,
    QuatTorus,
    build_quat_torus,
    imaginary_quadratic_subfield,
    lipschitz_lattice,
    ratl_verdict,
    right_mult_matrix,
    torus_endomorphisms,
)
from invlat.schur import character_profile

from oracles import (
    classify_on_fractions,
    endomorphisms_by_commutant,
    inverse,
    is_order,
    left_mult_matrix,
    quat_conjugate,
    reduced_norm,
)

small = st.integers(-5, 5)
coords4 = st.tuples(small, small, small, small)


def hamilton():
    return QuatAlgebra(Fraction(-1), Fraction(-1))


def test_algebra_rejects_zero_parameters():
    with pytest.raises(InvalidInputError):
        QuatAlgebra(Fraction(0), Fraction(-1))


def test_definiteness():
    assert hamilton().definite
    assert QuatAlgebra(Fraction(-1), Fraction(-3)).definite
    assert not QuatAlgebra(Fraction(1), Fraction(-1)).definite
    assert not QuatAlgebra(Fraction(2), Fraction(3)).definite


def test_integral_parameters_enter_the_products_as_ints():
    assert hamilton().params == (-1, -1)
    assert all(type(x) is int for x in hamilton().params)
    half = QuatAlgebra(Fraction(-1, 2), Fraction(-3))
    assert half.params == (Fraction(-1, 2), -3)
    assert [type(x) for x in half.params] == [Fraction, int]


def test_hamilton_multiplication_table():
    alg = hamilton()
    one, i, j, k = (
        alg.element(tuple(int(p == q) for q in range(4))) for p in range(4)
    )

    def minus(x):
        return tuple(-c for c in x.coords)

    assert (i * i).coords == minus(one)
    assert (j * j).coords == minus(one)
    assert (k * k).coords == minus(one)
    assert (i * j).coords == k.coords
    assert (j * i).coords == minus(k)
    assert (j * k).coords == i.coords
    assert (k * j).coords == minus(i)
    assert (k * i).coords == j.coords
    assert (i * k).coords == minus(j)


@given(coords4, coords4)
@settings(max_examples=100)
def test_reduced_norm_multiplicative(x_coords, y_coords):
    alg = QuatAlgebra(Fraction(-1), Fraction(-3))
    x = alg.element(x_coords)
    y = alg.element(y_coords)
    assert reduced_norm(x * y) == reduced_norm(x) * reduced_norm(y)


@given(coords4)
@settings(max_examples=60)
def test_conjugate_gives_norm(coords):
    alg = hamilton()
    x = alg.element(coords)
    prod = x * quat_conjugate(x)
    assert prod.coords[1:] == (
        CycNum.rational(0), CycNum.rational(0), CycNum.rational(0),
    )
    assert prod.coords[0] == reduced_norm(x)


@given(st.sampled_from([(-1, -1), (-2, -5), (1, -1), (3, 7)]), coords4, coords4)
@settings(max_examples=40)
def test_left_right_multiplication_matrices(params, x_coords, y_coords):
    alg = QuatAlgebra(Fraction(params[0]), Fraction(params[1]))
    x = alg.element(x_coords)
    y = alg.element(y_coords)
    lx = left_mult_matrix(x)
    ry = right_mult_matrix(y)
    xy = x * y
    via_left = tuple(
        sum((lx[i][j] * y.coords[j] for j in range(4)), CycNum.rational(0))
        for i in range(4)
    )
    via_right = tuple(
        sum((ry[i][j] * x.coords[j] for j in range(4)), CycNum.rational(0))
        for i in range(4)
    )
    assert via_left == xy.coords
    assert via_right == xy.coords


@pytest.mark.parametrize("params", [(-1, -3), (2, 3)])
def test_one_product_behind_both_multiplication_matrices(params):
    # L_x y and R_y x are both x y, read off the one product of coordinates
    rng = random.Random(sum(params) + 7)
    alg = QuatAlgebra(Fraction(params[0]), Fraction(params[1]))
    for _ in range(20):
        x = alg.element([rng.randint(-6, 6) for _ in range(4)])
        y = alg.element([rng.randint(-6, 6) for _ in range(4)])
        xy = (x * y).coords
        lx = left_mult_matrix(x)
        ry = right_mult_matrix(y)
        for mat, vec in ((lx, y.coords), (ry, x.coords)):
            assert tuple(
                sum((mat[i][j] * vec[j] for j in range(4)), CycNum.rational(0))
                for i in range(4)
            ) == xy


def test_subfield_hamilton():
    witness = imaginary_quadratic_subfield(hamilton())
    assert witness.t == Fraction(-1)
    assert witness.field_discriminant == -4
    square = witness.witness * witness.witness
    assert square.coords[0] == CycNum.rational(witness.t)
    assert all(c.is_zero() for c in square.coords[1:])


def test_subfield_minus_one_minus_three():
    witness = imaginary_quadratic_subfield(QuatAlgebra(Fraction(-1), Fraction(-3)))
    assert witness.t in (Fraction(-1), Fraction(-3))
    square = witness.witness * witness.witness
    assert square.coords[0] == CycNum.rational(witness.t)
    assert all(c.is_zero() for c in square.coords[1:])


def test_subfield_exists_in_split_algebra():
    # (1, -1) is a matrix algebra; it still contains Q(i), found on the j axis
    witness = imaginary_quadratic_subfield(QuatAlgebra(Fraction(1), Fraction(-1)))
    assert witness.t == Fraction(-1)
    assert witness.field_discriminant == -4


def test_subfield_of_two_positive_parameters_is_on_the_k_axis():
    # i^2 = 2 and j^2 = 5 are positive, so k, with k^2 = -10, is the witness
    witness = imaginary_quadratic_subfield(QuatAlgebra(Fraction(2), Fraction(5)))
    assert witness.t == Fraction(-10)
    assert witness.witness.coords == tuple(CycNum.rational(x) for x in (0, 0, 0, 1))
    assert witness.field_discriminant == -40
    square = witness.witness * witness.witness
    assert square.coords == (CycNum.rational(-10),) + (CycNum.rational(0),) * 3


def test_lipschitz_is_order():
    assert is_order(hamilton(), lipschitz_lattice())


def test_build_torus_rejects_non_square_root():
    alg = hamilton()
    not_root = alg.element((0, 1, 1, 0))  # squares to -2
    with pytest.raises(InvalidInputError):
        build_quat_torus(alg, lipschitz_lattice(), not_root)


def test_build_torus_rejects_irrational_lattice():
    alg = hamilton()
    root2 = sqrt_rational(2)
    zero = CycNum.rational(0)
    lat = lattice_from_generators(
        [tuple(root2 if p == q else zero for q in range(4)) for p in range(4)]
    )
    with pytest.raises(InvalidInputError):
        build_quat_torus(alg, lat, alg.element((0, 1, 0, 0)))


def test_build_torus_direction_detection():
    alg = hamilton()
    rational_c = alg.element((0, 1, 0, 0))
    torus = build_quat_torus(alg, lipschitz_lattice(), rational_c)
    assert torus.rational_direction
    assert torus.field_discriminant == -4

    irrational_c = alg.element(
        (0, sqrt_rational(Fraction(1, 3)), sqrt_rational(Fraction(2, 3)), 0)
    )
    torus2 = build_quat_torus(alg, lipschitz_lattice(), irrational_c)
    assert not torus2.rational_direction
    assert torus2.direction is None


def test_generic_torus_has_quaternionic_endomorphisms():
    alg, lat, c = quaternion_preset("example-non-generic")
    torus = build_quat_torus(alg, lat, c)
    endos = torus_endomorphisms(torus)
    assert endos.rank == 4
    assert endos.structure_tag == "order-in-definite-quaternion"
    assert endos.abelian is False
    assert endos.matches_input_lattice


def test_ci_torus_has_matrix_algebra_endomorphisms():
    alg, lat, c = quaternion_preset("example-non-ci")
    torus = build_quat_torus(alg, lat, c)
    endos = torus_endomorphisms(torus)
    assert endos.rank == 8
    assert endos.structure_tag == "order-in-M2-of-imaginary-quadratic"
    assert endos.abelian is True
    assert endos.center_discriminant == -4


def test_ratl_verdict_requires_index_two(s3):
    profile = character_profile(s3)
    with pytest.raises(InvalidInputError):
        ratl_verdict(profile, 2)


def test_ratl_verdict_branches(q8):
    profile = character_profile(q8)
    open_verdict = ratl_verdict(profile, 2)
    assert open_verdict.branch == "symplectic"
    assert open_verdict.abelian is None

    one, nil = CycNum.rational(1), CycNum.rational(0)
    base = lattice_from_generators([(one, nil), (nil, one)])
    split = split_as_order_module(
        extend_rank_2n(base, zeta(4)), ImaginaryQuadraticOrder.from_discriminant(-4)
    )
    split_verdict = ratl_verdict(profile, 2, evidence=split)
    assert split_verdict.abelian is True

    alg, lat, c = quaternion_preset("example-non-generic")
    endos = torus_endomorphisms(build_quat_torus(alg, lat, c))
    endo_verdict = ratl_verdict(profile, 2, evidence=endos)
    assert endo_verdict.abelian is False


HURWITZ = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (Fraction(1, 2),) * 4)
Z_1_2I_J_K = ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
IRRATIONAL_C = (0, sqrt_rational(Fraction(1, 3)), sqrt_rational(Fraction(2, 3)), 0)
THIRDS_C = (0, Fraction(2, 3), Fraction(2, 3), Fraction(-1, 3))

# name -> (algebra parameters, lattice basis rows, complex structure c)
ORACLE_TORI = {
    **{
        f"{lat_name} c={c_name}": ((-1, -1), rows, c)
        for lat_name, rows in (("hurwitz", HURWITZ), ("Z<1,2i,j,k>", Z_1_2I_J_K))
        for c_name, c in (
            ("irrational", IRRATIONAL_C), ("i", (0, 1, 0, 0)), ("(2/3,2/3,-1/3)", THIRDS_C)
        )
    },
    "(1,-1) c=j": ((1, -1), None, (0, 0, 1, 0)),
    "(-1,-3) c=i": ((-1, -3), None, (0, 1, 0, 0)),
    # a parameter that is no integer, so the products run on its Fraction
    "(-1/2,-3) c=sqrt(2)i": ((Fraction(-1, 2), -3), None, (0, sqrt_rational(2), 0, 0)),
}


SCALED_ALGEBRAS = ((-1, -1), (-1, -3), (1, -1), (-2, -5))


def scaled_basis_torus(seed):
    """A torus on a random integer or half-integer lattice basis W with
    |det W| > 1, in one of four algebras.  c is u / sqrt(-u^2) for a random
    rational pure u with u^2 < 0, or IRRATIONAL_C in half the Hamilton cases."""
    rng = random.Random(seed)
    a, b = SCALED_ALGEBRAS[seed % 4]
    alg = QuatAlgebra(Fraction(a), Fraction(b))
    den = 2 if seed % 3 == 2 else 1
    while True:
        rows = [[Fraction(rng.randint(-2, 2), den) for _ in range(4)] for _ in range(4)]
        if abs(linalg.det(rows)) > 1:
            break
    lat = lattice_from_generators([tuple(as_cycnum(x) for x in row) for row in rows])
    if (a, b) == (-1, -1) and rng.random() < 0.5:
        return build_quat_torus(alg, lat, alg.element(IRRATIONAL_C))
    while True:
        u = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
        square = a * u[0] ** 2 + b * u[1] ** 2 - a * b * u[2] ** 2
        if square < 0:
            break
    root = sqrt_rational(-square)
    return build_quat_torus(alg, lat, alg.element([0] + [as_cycnum(x) / root for x in u]))


# name -> (torus, the rational direction its record is given in place of
# c's): a rank-8 ring whose zero-divisor certificate is tried on another
# axis.  It holds when t_u / t is a rational square and fails otherwise.
FORGED_DIRECTIONS = {
    "example-non-ci u=(0,1,0)": ("example-non-ci", (0, 1, 0)),
    "example-non-ci u=(1,1,0)": ("example-non-ci", (1, 1, 0)),
    "(-1,-3) c=i u=(0,0,1)": ("(-1,-3) c=i", (0, 0, 1)),
    # a direction that is no primitive integer vector holds as its multiples do
    "example-non-ci u=(1/4,1/3,0)": ("example-non-ci", (Fraction(1, 4), Fraction(1, 3), 0)),
    "example-non-ci u=(1/2,1/2,0)": ("example-non-ci", (Fraction(1, 2), Fraction(1, 2), 0)),
}


def oracle_torus(name):
    if name in ("example-non-generic", "example-non-ci"):
        return build_quat_torus(*quaternion_preset(name))
    if name in FORGED_DIRECTIONS:
        base, direction = FORGED_DIRECTIONS[name]
        t = oracle_torus(base)
        return QuatTorus(t.algebra, t.lattice, t.c, t.j_matrix, True,
                         tuple(map(Fraction, direction)), t.field_discriminant)
    if name.startswith("scaled seed="):
        return scaled_basis_torus(int(name.removeprefix("scaled seed=")))
    (a, b), rows, c = ORACLE_TORI[name]
    alg = QuatAlgebra(Fraction(a), Fraction(b))
    lat = lipschitz_lattice() if rows is None else lattice_from_generators(
        [tuple(as_cycnum(Fraction(x)) for x in row) for row in rows]
    )
    return build_quat_torus(alg, lat, alg.element(c))


@pytest.mark.parametrize(
    "name",
    ["example-non-generic", "example-non-ci", *ORACLE_TORI,
     *(f"scaled seed={seed}" for seed in range(30))],
)
def test_endomorphisms_match_commutant_oracle(name):
    torus = oracle_torus(name)
    endos = torus_endomorphisms(torus)
    got = (
        endos.rank, endos.structure_tag, endos.abelian,
        endos.matches_input_lattice, endos.center_discriminant, endos.detail,
    )
    assert got == endomorphisms_by_commutant(torus)


CLASSIFIED = ["example-non-generic", "example-non-ci", *ORACLE_TORI, *FORGED_DIRECTIONS,
              *(f"scaled seed={seed}" for seed in range(30))]


def fields(endos):
    return (endos.rank, endos.structure_tag, endos.abelian,
            endos.matches_input_lattice, endos.center_discriminant, endos.detail)


@pytest.mark.parametrize("name", CLASSIFIED)
def test_integer_classification_matches_fraction_oracle(name):
    torus = oracle_torus(name)
    w_int, inv_int, _ = quaternion._basis_matrices(torus.lattice)
    ring = quaternion._ring_basis(torus, w_int, inv_int)
    assert fields(torus_endomorphisms(torus)) == classify_on_fractions(torus, *ring)


def test_classified_tori_reach_every_outcome_of_both_tests():
    # the rank-4 order test and the rank-8 certificate each pass and fail
    seen = {fields(torus_endomorphisms(oracle_torus(name)))[2:4] for name in CLASSIFIED}
    # (abelian, matches): rank 4 matching or not, rank 8 certified or not
    assert seen == {(False, True), (False, False), (True, None), (None, None)}


def test_basis_matrices_invert_the_lattice_basis():
    for name in CLASSIFIED:
        lattice = oracle_torus(name).lattice
        w_int, inv_int, d = quaternion._basis_matrices(lattice)
        w_mat = [[x.as_fraction() for x in row] for row in zip(*lattice.vectors())]
        assert linalg.integral(w_mat) == (w_int, lattice.den)
        assert linalg.integral(inverse(w_mat)) == (inv_int, d)


def test_coarser_lattice_is_not_the_order():
    # Z<1, 2i, j, k> is no ring (j * k = i lies outside it), so the order whose
    # left multiplications make up the endomorphisms is another lattice
    endos = torus_endomorphisms(oracle_torus("Z<1,2i,j,k> c=irrational"))
    assert endos.rank == 4
    assert endos.matches_input_lattice is False


def test_endomorphisms_make_few_matrix_products(monkeypatch):
    torus = oracle_torus("example-non-ci")
    calls = []
    real = linalg.matmul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(linalg, "matmul", counting)
    assert torus_endomorphisms(torus).rank == 8
    assert len(calls) <= 30


@pytest.mark.parametrize("name", ["example-non-generic", "example-non-ci"])
def test_endomorphisms_need_no_cyclotomic_products(monkeypatch, name):
    # J is split into rational layers once; everything after runs on int
    torus = oracle_torus(name)
    calls = []
    real = CycNum.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(CycNum, "__mul__", counting)
    monkeypatch.setattr(CycNum, "__rmul__", counting)
    torus_endomorphisms(torus)
    assert len(calls) == 0


@pytest.mark.parametrize("seed", [6, 26, 29])
def test_kernel_transform_rows_stay_small(monkeypatch, seed):
    # `_hermite` on [M | I] for every int_kernel input M of the torus: the
    # rows beside the zero rows of M's block, the kernel rows int_kernel
    # reduces, have at most 64 bits (24, 21 and 21 on these seeds)
    inputs = []
    real = linalg.int_kernel

    def recording(mat):
        inputs.append([list(row) for row in mat])
        return real(mat)

    monkeypatch.setattr(linalg, "int_kernel", recording)
    torus_endomorphisms(scaled_basis_torus(seed))
    assert inputs
    for mat in inputs:
        m, n = len(mat), len(mat[0])
        rows = linalg._hermite([row + [int(i == j) for j in range(m)]
                                for i, row in enumerate(mat)], n)
        kernel = [row[n:] for row in rows if not any(row[:n])]
        assert kernel
        assert max(abs(x).bit_length() for row in kernel for x in row) <= 64


def test_scaled_bases_cover_both_directions():
    # an irrational direction gives the rank-4 ring, a rational one rank 8
    kinds = {scaled_basis_torus(seed).rational_direction for seed in range(30)}
    assert kinds == {False, True}


@pytest.mark.parametrize("name", ["example-non-generic", "example-non-ci"])
def test_endomorphisms_build_few_fractions(monkeypatch, name):
    # W, W^-1, the layers and both classifications are integer matrices over
    # one denominator; only the center's quadratic relation and the
    # certificate's scalars are Fractions
    torus = oracle_torus(name)
    calls = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    torus_endomorphisms(torus)
    assert len(calls) <= 16
