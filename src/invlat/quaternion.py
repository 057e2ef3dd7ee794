"""Rational quaternion algebras and the complex tori they act on.

Exact arithmetic in (a,b) quaternion algebras, definiteness, an
imaginary-quadratic subfield on a basis axis, complex structures given by right
multiplication, and the endomorphism ring of the resulting torus with its
structure classification (order in a definite quaternion algebra versus
order in two-by-two matrices over an imaginary quadratic field).  The ring
is computed in the lattice basis, as the integer matrices that commute with
the conjugated complex structure.  That structure is the one irrational
object: it is split once into rational layers, read off its integer
numerators, each conjugated into an integer matrix K_t.  Every other matrix
is an integer matrix over one denominator: the lattice basis W and W^-1
come from the lattice's triangular integer HNF rows, and integral algebra
parameters enter every product as ints.  One integer kernel of the
equations M K_t = K_t M gives the ring's Z-basis as HNF rows; the ring is
classified from the integer multiplication table of that basis, whose
coordinates come from back-substitution against the HNF rows, and the
order test and the splitting certificate run on integer matrices, with
Fractions only for the center's quadratic relation and the certificate's
scalar.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import gcd, isqrt, lcm
from operator import mul

from . import linalg
from .cyclotomic import CycNum, as_cycnum, common_conductor
from .errors import InternalConsistencyError, InvalidInputError
from .forge import OrderSplit
from .lattices import ZLattice, fundamental_discriminant, lattice_from_generators
from .records import Record


class QuatAlgebra(Record):
    """The rational algebra with i^2 = a, j^2 = b, ij = -ji = k."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == 0 or self.b == 0:
            raise InvalidInputError("algebra parameters must be nonzero")

    @property
    def definite(self) -> bool:
        return self.a < 0 and self.b < 0

    @cached_property
    def params(self):
        """(a, b) for the products: each an int when it is integral, as it
        is in every preset, else the Fraction."""
        return tuple(x.numerator if x.denominator == 1 else x for x in (self.a, self.b))

    def element(self, coords) -> "QuatElement":
        return QuatElement(self, tuple(as_cycnum(x) for x in coords))


class QuatElement(Record):
    """Quaternion with exact real-cyclotomic coordinates."""

    algebra: QuatAlgebra
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != 4:
            raise InvalidInputError("quaternion needs 4 coordinates")
        if not all(x.is_real() for x in self.coords):
            raise InvalidInputError("quaternion coordinates must be real scalars")

    def _require_same(self, other: "QuatElement"):
        if self.algebra != other.algebra:
            raise InvalidInputError("elements of different algebras")

    def __mul__(self, other):
        self._require_same(other)
        return QuatElement(
            self.algebra, _product(*self.algebra.params, self.coords, other.coords)
        )

    def pure_part(self):
        return self.coords[1:]


@cache
def lipschitz_lattice() -> ZLattice:
    """The integer-coordinate lattice in the 4-dimensional coefficient space,
    built once per process."""
    rows = [tuple(CycNum.rational(1 if p == q else 0) for q in range(4)) for p in range(4)]
    return lattice_from_generators(rows)


class SubfieldWitness(Record):
    t: Fraction  # square of the witness, negative
    witness: QuatElement  # pure quaternion with witness^2 = t
    field_discriminant: int


def imaginary_quadratic_subfield(algebra: QuatAlgebra):
    """A basis axis x of the algebra with x^2 = t < 0, which generates the
    imaginary quadratic subfield Q(sqrt t).

    The axes i, j and k square to a, b and -ab.  As a and b are nonzero, one
    of the three is negative, so the first such axis is a certified witness.
    """
    a, b = algebra.a, algebra.b
    axes = (((1, 0, 0), a), ((0, 1, 0), b), ((0, 0, 1), -a * b))
    axis, t = next((axis, t) for axis, t in axes if t < 0)
    witness = algebra.element((0, *axis))
    square = witness * witness
    if square.coords != (as_cycnum(t), as_cycnum(0), as_cycnum(0), as_cycnum(0)):
        raise InternalConsistencyError("pure-quaternion square formula failed")
    disc = fundamental_discriminant(t.numerator * t.denominator)
    return SubfieldWitness(t, witness, disc)


class QuatTorus(Record):
    algebra: QuatAlgebra
    lattice: ZLattice
    c: QuatElement
    j_matrix: tuple  # right multiplication by c on coordinates
    rational_direction: bool
    direction: tuple | None  # rational pure quaternion direction of c, primitive
    field_discriminant: int | None  # discriminant of Q(direction) when rational


def _product(a, b, x, y):
    """Coordinates of x y in the (a,b) algebra, for coordinates of any
    scalar type."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    ab = a * b
    return (
        x0 * y0 + a * (x1 * y1) + b * (x2 * y2) - ab * (x3 * y3),
        x0 * y1 + x1 * y0 - b * (x2 * y3) + b * (x3 * y2),
        x0 * y2 + x2 * y0 + a * (x1 * y3) - a * (x3 * y1),
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


_UNITS = tuple(tuple(int(p == q) for q in range(4)) for p in range(4))


def _left_mult(a, b, x):
    """Matrix of y -> x y on coefficient columns in the (a,b) algebra, for
    coordinates x of any scalar type: column j is x e_j."""
    return tuple(zip(*(_product(a, b, x, e) for e in _UNITS)))


def right_mult_matrix(x: QuatElement):
    """Matrix of y -> y x on coefficient columns: column j is e_j x."""
    a, b = x.algebra.params
    return tuple(zip(*(_product(a, b, e, x.coords) for e in _UNITS)))


def build_quat_torus(algebra: QuatAlgebra, lattice: ZLattice, c: QuatElement) -> QuatTorus:
    """Complex structure by right multiplication with c, where c^2 = -1."""
    if c.algebra != algebra:
        raise InvalidInputError("complex-structure element from a different algebra")
    square = c * c
    minus_one = algebra.element((-1, 0, 0, 0))
    if square.coords != minus_one.coords:
        raise InvalidInputError("complex-structure element must square to -1")
    if lattice.dim != 4 or lattice.rank != 4:
        raise InvalidInputError("need a rank-4 lattice in the coefficient space")
    if lattice.conductor != 1:
        raise InvalidInputError("the lattice basis must have rational coordinates")
    j = right_mult_matrix(c)
    # J^2 summed over the products of two nonzero entries only: J is sparse
    # when c lies in a coordinate plane, as in every preset
    zero = CycNum.rational(0)
    j2 = [
        [sum((x * y for x, y in zip(row, col) if x and y), zero) for col in zip(*j)]
        for row in j
    ]
    n_ident = [[CycNum.rational(-1 if p == q else 0) for q in range(4)] for p in range(4)]
    if j2 != n_ident:
        raise InternalConsistencyError("right-multiplication square is not -id")
    pure = c.pure_part()
    pivot = next((p for p, x in enumerate(pure) if not x.is_zero()), None)
    if pivot is None:
        raise InternalConsistencyError("scalar element squared to -1")
    rational_dir = True
    ratios = []
    for x in pure:
        q = x / pure[pivot]
        if q.is_rational():
            ratios.append(q.as_fraction())
        else:
            rational_dir = False
            break
    direction = None
    disc = None
    if rational_dir:
        den = lcm(*(r.denominator for r in ratios))
        ints = [r.numerator * (den // r.denominator) for r in ratios]
        g = gcd(*ints)
        direction = tuple(Fraction(v, g) for v in ints)
        a, b = algebra.a, algebra.b
        r1, r2, r3 = direction
        t = a * r1 * r1 + b * r2 * r2 - a * b * r3 * r3
        if t >= 0:
            raise InternalConsistencyError("direction of a complex structure has t >= 0")
        disc = fundamental_discriminant(t.numerator * t.denominator)
    return QuatTorus(algebra, lattice, c, j, rational_dir, direction, disc)


class EndomorphismRing(Record):
    rank: int
    structure_tag: str  # order-in-definite-quaternion | order-in-M2-of-imaginary-quadratic | other
    abelian: bool | None
    matches_input_lattice: bool | None  # rank 4: the order is the input lattice
    center_discriminant: int | None
    detail: str


def _stack(blocks):
    """4x4 blocks one over the other."""
    return [row for block in blocks for row in block]


def _side_by_side(blocks):
    """4x4 blocks one beside the other."""
    return [[x for block in blocks for x in block[p]] for p in range(4)]


def _split_side(mat):
    """The 4x4 blocks of a 4-row matrix, left to right."""
    return [[row[4 * t:4 * t + 4] for row in mat] for t in range(len(mat[0]) // 4)]


def _basis_matrices(lattice):
    """(w_int, inv_int, d): the lattice basis W, as columns, is
    w_int / lattice.den, and W^-1 is inv_int / d in lowest terms.

    At conductor 1 the lattice's rows are den times its basis in Hermite
    normal form: 4 x 4, upper triangular with a positive diagonal.  So
    w_int is their transpose H^T, and one back-substitution on H gives
    W^-1 = den (H^-1)^T on the integers."""
    h = lattice.rows
    if not all(h[i][i] for i in range(4)):
        raise InternalConsistencyError("lattice basis is singular")
    x, d = linalg.upper_inverse(h, lattice.den)
    return [list(col) for col in zip(*h)], [list(col) for col in zip(*x)], d


def _integer_layers(j_matrix, w_int, inv_int):
    """K_t = inv_int (s J_t) w_int for the layers J_t of J that span all of
    them.

    J_t holds the coordinates t of J's entries in the power basis of their
    common cyclotomic field, and s, the lcm of the entries' denominators,
    clears them: s J_t is read off the entries' integer numerators.  Those
    powers are independent over Q, so a rational matrix commutes with J
    exactly when it commutes with every J_t, and so with every J_t of a
    basis of their span: the first layers that are independent of the ones
    before them."""
    conductor = common_conductor(x for row in j_matrix for x in row)
    parts = [[x.numerators_at(conductor) for x in row] for row in j_matrix]
    s = lcm(*(den for row in parts for _, den in row))
    nums = [[[c * (s // den) for c in coords] for coords, den in row] for row in parts]
    span = linalg.Span()
    layers = [
        layer
        for layer in ([[x[t] for x in row] for row in nums] for t in range(len(nums[0][0])))
        if span.add([x for row in layer for x in row])
    ]
    left = linalg.matmul(inv_int, _side_by_side(layers))
    ks = linalg.matmul(_stack(_split_side(left)), w_int)
    return [ks[4 * t:4 * t + 4] for t in range(len(layers))]


def _commuting_integer_matrices(ks):
    """Z-basis (HNF rows) of the integer 4x4 matrices M, flattened row by row,
    with M K = K M for every K in ks: entry (i, j) of M K - K M is
    sum_p M[i][p] K[p][j] - K[i][p] M[p][j], one integer equation, and one
    integer kernel solves them all.  Zero and repeated equations are
    dropped, as they do not change the kernel."""
    columns = {}
    for i in range(4):
        for jj in range(4):
            for k in ks:
                col = [0] * 16
                for p in range(4):
                    col[i * 4 + p] += k[p][jj]
                    col[p * 4 + jj] -= k[i][p]
                if any(col):
                    columns[tuple(col)] = None
    return linalg.int_kernel([list(row) for row in zip(*columns)])


def _ring_basis(torus: QuatTorus, w_int, inv_int):
    """(ends, table, identity): the Z-basis E_1..E_r of End(V/Λ) as 4 x 4
    integer matrices in the lattice basis, table[i][j] the integer
    coordinates of E_i E_j and identity those of the identity."""
    ks = _integer_layers(torus.j_matrix, w_int, inv_int)
    flats = _commuting_integer_matrices(ks)
    r = len(flats)
    ends = [[flat[4 * p:4 * p + 4] for p in range(4)] for flat in flats]
    stacked, beside = _stack(ends), _side_by_side(ends)
    # block (i, t) of e_k is E_i K_t, and block (t, i) of k_e is K_t E_i
    e_k = linalg.matmul(stacked, _side_by_side(ks))
    k_e = linalg.matmul(_stack(ks), beside)
    if any(
        e_k[4 * i + p][4 * t + s] != k_e[4 * t + p][4 * i + s]
        for i in range(r) for t in range(len(ks)) for p in range(4) for s in range(4)
    ):
        raise InternalConsistencyError("endomorphism basis does not commute with J")

    def integral_coords(flat, failure):
        coords = linalg.hnf_coords(flats, flat)
        if coords is None:
            raise InternalConsistencyError(failure)
        return coords

    identity = integral_coords(
        [int(p == s) for p in range(4) for s in range(4)],
        "identity is missing from the endomorphism ring",
    )
    products = linalg.matmul(stacked, beside)  # block (i, j) is E_i E_j
    table = [
        [
            integral_coords(
                [products[4 * i + p][4 * j + s] for p in range(4) for s in range(4)],
                "endomorphism ring is not closed",
            )
            for j in range(r)
        ]
        for i in range(r)
    ]
    return ends, table, identity


def torus_endomorphisms(torus: QuatTorus) -> EndomorphismRing:
    """Exact endomorphism ring of V/Λ, computed in the lattice basis.

    With W holding the lattice basis as columns, End(V/Λ) is exactly the
    ring of integer matrices that commute with J' = W^-1 J W.  W and W^-1
    are integer matrices over one denominator each, read off the lattice's
    triangular HNF rows.  J is the one irrational input: it is split once
    into rational layers J_t, and M commutes with J' exactly when it
    commutes with every integer layer K_t, W^-1 J_t W scaled to integers.
    One integer kernel of those equations gives the ring's Z-basis E_1..E_r
    as HNF rows, and one block product gives the multiplication table
    T[i][j], the integer coordinates of E_i E_j by back-substitution against
    those rows, off which the identity, closure and center questions are
    read.  The classification runs on the same integer matrices.
    """
    w_int, inv_int, d = _basis_matrices(torus.lattice)
    ends, table, identity = _ring_basis(torus, w_int, inv_int)
    r = len(ends)
    if r == 4:
        return _classify_rank4(torus, ends, w_int, inv_int, d)
    if r == 8:
        return _classify_rank8(torus, ends, table, identity, w_int, inv_int, d)
    return EndomorphismRing(
        r, "other", None, None, None,
        f"commutant rank {r} outside the expected dichotomy",
    )


def _classify_rank4(torus: QuatTorus, ends, w_int, inv_int, d) -> EndomorphismRing:
    """ends: the ring's Z-basis in the lattice basis; W^-1 = inv_int / d.

    In the coefficient basis E_i acts as W E_i W^-1, a rational multiple of
    w_int E_i inv_int.  When each is the left multiplication by its first
    column y_i, E -> y is a ring map, so the identity coordinates and the
    closed table already show that the y_i span an order.  That order is
    the input lattice exactly when the lattice coordinates of the y_i,
    W^-1 y_i = E_i W^-1 1, form a unimodular integer matrix: the integer
    rows E_i inv_int 1 are d times them, so each entry is divisible by d and
    their determinant is +-d^4."""
    a, b = torus.algebra.params
    images = linalg.matmul(
        _stack(_split_side(linalg.matmul(w_int, _side_by_side(ends)))), inv_int
    )
    for i in range(4):
        mat = images[4 * i:4 * i + 4]
        if [list(row) for row in _left_mult(a, b, [row[0] for row in mat])] != mat:
            return EndomorphismRing(
                4, "other", None, None, None,
                "rank-4 ring is not made of left multiplications",
            )
    one = [row[0] for row in inv_int]
    coords = [[sum(map(mul, row, one)) for row in e] for e in ends]
    matches = (
        all(x % d == 0 for col in coords for x in col)
        and linalg.abs_det(coords) == d ** 4
    )
    if torus.algebra.definite:
        return EndomorphismRing(
            4, "order-in-definite-quaternion", False, matches, None,
            "endomorphisms are left multiplications by an order in a definite "
            "quaternion algebra; no abelian surface has such an endomorphism ring",
        )
    return EndomorphismRing(
        4, "other", None, matches, None,
        "left multiplications by an order in an indefinite quaternion algebra",
    )


def _classify_rank8(
    torus: QuatTorus, ends, table, identity, w_int, inv_int, d
) -> EndomorphismRing:
    """ends: the Z-basis in the lattice basis; table[i][j]: integer
    coordinates of E_i E_j; identity: integer coordinates of the identity;
    W = w_int / den and W^-1 = inv_int / d."""
    r = len(ends)
    # a is central when sum_i a_i [E_i, E_j] = 0 for every j, and [E_i, E_j]
    # has coordinates T[i][j] - T[j][i]: one equation per (j, k), of which
    # the zero and repeated ones are dropped
    equations = {
        col: None
        for col in (
            tuple(table[i][j][k] - table[j][i][k] for i in range(r))
            for j in range(r) for k in range(r)
        )
        if any(col)
    }
    center = linalg.int_kernel([list(row) for row in zip(*equations)])
    if len(center) != 2:
        return EndomorphismRing(
            r, "other", None, None, None, f"center has rank {len(center)}, not 2"
        )
    scalars = linalg.Span([identity])
    z = next((vec for vec in center if scalars.coords(vec) is None), None)
    if z is None:
        raise InternalConsistencyError("center of a rank-8 ring is scalar")

    def combine(coeffs):
        """The matrix sum_i coeffs[i] E_i."""
        return [
            [sum(c * e[p][s] for c, e in zip(coeffs, ends)) for s in range(4)]
            for p in range(4)
        ]

    # z^2 has the coordinates of the square of the matrix sum_i z_i E_i
    z_mat = combine(z)
    z2 = linalg.hnf_coords(
        [[x for row in e for x in row] for e in ends],
        [x for row in linalg.matmul(z_mat, z_mat) for x in row],
    )
    sol = None if z2 is None else linalg.Span([z, identity]).coords(z2)
    if sol is None:
        raise InternalConsistencyError("center element has no quadratic relation")
    p_coef, q_coef = sol
    t_center = q_coef + p_coef * p_coef / 4
    if t_center >= 0:
        return EndomorphismRing(
            r, "other", None, None, None, "center is a real quadratic field"
        )
    disc = fundamental_discriminant(t_center.numerator * t_center.denominator)
    detail = (
        "endomorphism algebra is 8-dimensional with imaginary-quadratic center; "
        "zero-divisor certificate splits it as 2x2 matrices over that field"
    )
    zero_divisor_ok = False
    if torus.direction is not None:
        a, b = torus.algebra.params
        # scaling u by a rational scales t_u by its square and eta by its
        # sign, so the certificate reads u cleared to integers
        (r1, r2, r3), = linalg.integral([torus.direction])[0]
        t_u = a * r1 * r1 + b * r2 * r2 - a * b * r3 * r3
        ratio = t_u / t_center
        num, den = ratio.numerator, ratio.denominator
        if num > 0 and isqrt(num) ** 2 == num and isqrt(den) ** 2 == den:
            # eta = L_u (z - p/2) / (s t), with s^2 = t_u / t, squares to 1;
            # conjugation by W keeps that and keeps eta != +-1.  With
            # W = w_int / den(W), W^-1 = inv_int / d and p = pn / pd, eta is
            # P / D for the integer matrix P = inv_int L_u w_int Z0, where
            # Z0 = 2 pd z - pn 1 on the basis, and D = 2 pd d den(W) s t.
            # P^2 = D^2 makes D^2 an eigenvalue of an integer matrix, so a D
            # that is not an integer fails the certificate
            pn, pd = p_coef.numerator, p_coef.denominator
            scale = Fraction(isqrt(num), isqrt(den)) * t_center * (2 * pd * d * torus.lattice.den)
            if scale.denominator == 1:
                z0 = combine([2 * pd * x - pn * y for x, y in zip(z, identity)])
                big_p = linalg.matmul(
                    linalg.matmul(inv_int, _left_mult(a, b, (0, r1, r2, r3))),
                    linalg.matmul(w_int, z0),
                )
                big_d = scale.numerator
                scalar = [[big_d if p == s else 0 for s in range(4)] for p in range(4)]
                zero_divisor_ok = (
                    linalg.matmul(big_p, big_p) == [[big_d * x for x in row] for row in scalar]
                    and big_p != scalar
                    and big_p != [[-x for x in row] for row in scalar]
                )
    if not zero_divisor_ok:
        detail = (
            "endomorphism algebra is 8-dimensional with imaginary-quadratic center; "
            "matrix-algebra certificate not established"
        )
        return EndomorphismRing(r, "other", None, None, disc, detail)
    return EndomorphismRing(
        r, "order-in-M2-of-imaginary-quadratic", True, None, disc, detail
    )


class RatLVerdict(Record):
    branch: str  # "orthogonal" | "symplectic"
    abelian: bool | None
    detail: str


def ratl_verdict(profile, n: int, evidence=None) -> RatLVerdict:
    """Abelian-or-not verdict for the rank-2n tori of index-2 rational groups.

    evidence is an EndomorphismRing, an OrderSplit of the doubled lattice, or
    None when the torus gave no evidence.
    """
    if profile.schur.index != 2 or profile.field.kind != "rational":
        raise InvalidInputError(
            "verdict applies only to Schur index 2 with rational character"
        )
    if n % 2:
        raise InternalConsistencyError("index-2 rational case must have even dimension")
    if profile.bilinear.kind == "orthogonal":
        return RatLVerdict(
            "orthogonal", True, "orthogonal case: the torus is an abelian variety"
        )
    if profile.bilinear.kind != "symplectic":
        raise InternalConsistencyError(
            "rational character with complex bilinear type"
        )
    if isinstance(evidence, EndomorphismRing):
        if evidence.abelian is not None:
            word = "not " if not evidence.abelian else ""
            return RatLVerdict(
                "symplectic", evidence.abelian,
                f"endomorphism-ring evidence: the torus is {word}an abelian variety",
            )
    if isinstance(evidence, OrderSplit):
        return RatLVerdict(
            "symplectic", True,
            "the lattice splits into CM line lattices: abelian variety",
        )
    return RatLVerdict(
        "symplectic", None,
        "no torus evidence: the family members either are not abelian varieties "
        "or are products of mutually isogenous elliptic curves",
    )
