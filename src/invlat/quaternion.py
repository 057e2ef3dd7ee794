"""Rational quaternion algebras and the complex tori they act on.

Exact arithmetic in (a,b) quaternion algebras, definiteness, bounded search
for imaginary-quadratic subfields, complex structures given by right
multiplication, and the endomorphism ring of the resulting torus with its
structure classification (order in a definite quaternion algebra versus
order in two-by-two matrices over an imaginary quadratic field).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from . import linalg
from .cyclotomic import CycNum, as_cycnum, common_conductor
from .errors import InternalConsistencyError, InvalidInputError
from .forge import OrderSplit
from .lattices import ZLattice, fundamental_discriminant, lattice_from_generators


@dataclass(frozen=True)
class QuatAlgebra:
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

    def element(self, coords) -> "QuatElement":
        return QuatElement(self, tuple(as_cycnum(x) for x in coords))

    def one(self) -> "QuatElement":
        return self.element((1, 0, 0, 0))

    def basis(self):
        return tuple(
            self.element(tuple(1 if p == q else 0 for q in range(4)))
            for p in range(4)
        )


@dataclass(frozen=True)
class QuatElement:
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

    def __add__(self, other):
        self._require_same(other)
        return QuatElement(
            self.algebra, tuple(x + y for x, y in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._require_same(other)
        return QuatElement(
            self.algebra, tuple(x - y for x, y in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return QuatElement(self.algebra, tuple(-x for x in self.coords))

    def __mul__(self, other):
        self._require_same(other)
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coords
        y0, y1, y2, y3 = other.coords
        ab = a * b
        return QuatElement(
            self.algebra,
            (
                x0 * y0 + a * (x1 * y1) + b * (x2 * y2) - ab * (x3 * y3),
                x0 * y1 + x1 * y0 - b * (x2 * y3) + b * (x3 * y2),
                x0 * y2 + x2 * y0 + a * (x1 * y3) - a * (x3 * y1),
                x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
            ),
        )

    def conjugate(self) -> "QuatElement":
        x0, x1, x2, x3 = self.coords
        return QuatElement(self.algebra, (x0, -x1, -x2, -x3))

    def reduced_norm(self) -> CycNum:
        x0, x1, x2, x3 = self.coords
        a, b = self.algebra.a, self.algebra.b
        return x0 * x0 - a * (x1 * x1) - b * (x2 * x2) + (a * b) * (x3 * x3)

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.coords)

    def pure_part(self):
        return self.coords[1:]


def lipschitz_lattice() -> ZLattice:
    """The integer-coordinate lattice in the 4-dimensional coefficient space."""
    rows = [tuple(CycNum.rational(1 if p == q else 0) for q in range(4)) for p in range(4)]
    return lattice_from_generators(rows)


def is_order(algebra: QuatAlgebra, lattice: ZLattice) -> bool:
    """Rank-4 lattice containing 1 and closed under multiplication."""
    if lattice.dim != 4 or lattice.rank != 4:
        return False
    one = tuple(CycNum.rational(1 if p == 0 else 0) for p in range(4))
    if not lattice.contains(one):
        return False
    basis = [algebra.element(v) for v in lattice.vectors()]
    for x in basis:
        for y in basis:
            if not lattice.contains((x * y).coords):
                return False
    return True


@dataclass(frozen=True)
class SubfieldWitness:
    t: Fraction  # square of the witness, negative
    witness: QuatElement  # pure quaternion with witness^2 = t
    field_discriminant: int


def _bounded_fractions(bound: int):
    values = {Fraction(0)}
    for num in range(1, bound + 1):
        for den in range(1, bound + 1):
            values.add(Fraction(num, den))
            values.add(Fraction(-num, den))
    def height(f):
        return max(abs(f.numerator), f.denominator)
    return sorted(values, key=lambda f: (height(f), f))


def imaginary_quadratic_subfield(algebra: QuatAlgebra, bound: int = 1):
    """Bounded-height pure quaternion x with x^2 = t < 0; basis axes first.

    Returns None if no witness exists within the bound; that is a report of
    the search, not a proof of absence.
    """
    a, b = algebra.a, algebra.b
    candidates = [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]
    pool = _bounded_fractions(bound)
    for r1 in pool:
        for r2 in pool:
            for r3 in pool:
                if r1 == 0 and r2 == 0 and r3 == 0:
                    continue
                candidates.append((r1, r2, r3))
    seen = set()
    for triple in candidates:
        if triple in seen:
            continue
        seen.add(triple)
        r1, r2, r3 = triple
        t = a * r1 * r1 + b * r2 * r2 - a * b * r3 * r3
        if t >= 0:
            continue
        witness = algebra.element((0, r1, r2, r3))
        square = witness * witness
        if square.coords != (as_cycnum(t), as_cycnum(0), as_cycnum(0), as_cycnum(0)):
            raise InternalConsistencyError("pure-quaternion square formula failed")
        disc = fundamental_discriminant(t.numerator * t.denominator)
        return SubfieldWitness(t, witness, disc)
    return None


@dataclass(frozen=True)
class QuatTorus:
    algebra: QuatAlgebra
    lattice: ZLattice
    c: QuatElement
    j_matrix: tuple  # right multiplication by c on coordinates
    rational_direction: bool
    direction: tuple | None  # rational pure quaternion direction of c, primitive
    field_discriminant: int | None  # discriminant of Q(direction) when rational


def left_mult_matrix(x: QuatElement):
    cols = [(x * e).coords for e in x.algebra.basis()]
    return tuple(tuple(cols[q][p] for q in range(4)) for p in range(4))


def right_mult_matrix(x: QuatElement):
    cols = [(e * x).coords for e in x.algebra.basis()]
    return tuple(tuple(cols[q][p] for q in range(4)) for p in range(4))


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
    j = right_mult_matrix(c)
    j2 = linalg.matmul([list(r) for r in j], [list(r) for r in j])
    n_ident = [[CycNum.rational(-1 if p == q else 0) for q in range(4)] for p in range(4)]
    if [[x for x in row] for row in j2] != n_ident:
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
        from math import gcd
        g = 0
        for v in ints:
            g = gcd(g, v)
        direction = tuple(Fraction(v, g) for v in ints)
        a, b = algebra.a, algebra.b
        r1, r2, r3 = direction
        t = a * r1 * r1 + b * r2 * r2 - a * b * r3 * r3
        if t >= 0:
            raise InternalConsistencyError("direction of a complex structure has t >= 0")
        disc = fundamental_discriminant(t.numerator * t.denominator)
    return QuatTorus(algebra, lattice, c, j, rational_dir, direction, disc)


@dataclass(frozen=True)
class EndomorphismRing:
    rank: int
    basis: tuple  # 4x4 rational matrices (CycNum entries), a Z-basis
    structure_tag: str  # order-in-definite-quaternion | order-in-M2-of-imaginary-quadratic | other
    abelian: bool | None
    order_lattice: ZLattice | None  # for left-multiplication rings: the quaternion order
    matches_input_lattice: bool | None
    center_discriminant: int | None
    detail: str


def _commutant_basis(j_matrix):
    """Rational basis of 4x4 rational matrices commuting with the given matrix."""
    entries = [x for row in j_matrix for x in row]
    conductor = common_conductor(entries)
    width = len(CycNum.rational(0).coords_at(conductor))
    rows = []
    for i in range(4):
        for jj in range(4):
            coeffs = [CycNum.rational(0)] * 16
            for p in range(4):
                coeffs[i * 4 + p] = coeffs[i * 4 + p] + j_matrix[p][jj]
                coeffs[p * 4 + jj] = coeffs[p * 4 + jj] - j_matrix[i][p]
            for t in range(width):
                rows.append([Fraction(c.coords_at(conductor)[t]) for c in coeffs])
    kernel = linalg.kernel_right(rows)
    out = []
    for vec in kernel:
        out.append(tuple(tuple(as_cycnum(vec[p * 4 + q]) for q in range(4)) for p in range(4)))
    return out


def _flatten_rational(mat):
    out = []
    for row in mat:
        for x in row:
            if not x.is_rational():
                raise InternalConsistencyError("expected a rational matrix")
            out.append(x.as_fraction())
    return out


def torus_endomorphisms(torus: QuatTorus) -> EndomorphismRing:
    """Exact endomorphism ring: rational commutant of J that preserves the lattice."""
    comm = _commutant_basis(torus.j_matrix)
    r = len(comm)
    basis_cols = [list(v) for v in torus.lattice.vectors()]
    w_mat = [[basis_cols[q][p] for q in range(4)] for p in range(4)]
    w_inv = linalg.inverse(w_mat)
    if w_inv is None:
        raise InternalConsistencyError("lattice basis is singular")
    columns = []
    for c_mat in comm:
        n_mat = linalg.matmul(linalg.matmul(w_inv, [list(rw) for rw in c_mat]), w_mat)
        columns.append(_flatten_rational(n_mat))
    q = 1
    for col in columns:
        for x in col:
            q = lcm(q, x.denominator)
    a_mat = [[int(columns[t][s] * q) for t in range(r)] for s in range(16)]
    chosen = []
    span = linalg.Span()
    for s in range(16):
        if span.add([Fraction(x) for x in a_mat[s]]):
            chosen.append(a_mat[s])
        if len(chosen) == r:
            break
    if len(chosen) != r:
        raise InternalConsistencyError("integrality system lost rank")
    delta = linalg.det([[Fraction(x) for x in row] for row in chosen])
    delta = abs(int(delta))
    transposed = [[a_mat[s][t] for s in range(16)] for t in range(r)]
    transposed += [
        [(-delta if s == t else 0) for s in range(16)] for t in range(16)
    ]
    kernel = linalg.int_kernel(transposed)
    x_basis = [[Fraction(z * q, delta) for z in vec[:r]] for vec in kernel]
    if len(x_basis) != r:
        raise InternalConsistencyError("endomorphism lattice is not full in the commutant")

    def combine(coeffs):
        out = [[CycNum.rational(0)] * 4 for _ in range(4)]
        for coef, c_mat in zip(coeffs, comm):
            if coef == 0:
                continue
            for p in range(4):
                for s in range(4):
                    out[p][s] = out[p][s] + c_mat[p][s] * coef
        return tuple(tuple(row) for row in out)

    endo_basis = [combine(x) for x in x_basis]
    for e_mat in endo_basis:
        n_mat = linalg.matmul(linalg.matmul(w_inv, [list(rw) for rw in e_mat]), w_mat)
        for x in _flatten_rational(n_mat):
            if x.denominator != 1:
                raise InternalConsistencyError("endomorphism basis is not integral")

    lattice_coords = linalg.Span(x_basis).coords
    comm_span = linalg.Span([_flatten_rational(c) for c in comm])

    def comm_coords(mat):
        return comm_span.coords(_flatten_rational(mat))

    identity = tuple(
        tuple(CycNum.rational(1 if p == s else 0) for s in range(4)) for p in range(4)
    )
    id_coords = comm_coords(identity)
    integral = None if id_coords is None else lattice_coords(id_coords)
    if integral is None or any(x.denominator != 1 for x in integral):
        raise InternalConsistencyError("identity is missing from the endomorphism ring")
    for e1 in endo_basis:
        for e2 in endo_basis:
            prod = linalg.matmul([list(rw) for rw in e1], [list(rw) for rw in e2])
            coords = comm_coords(tuple(tuple(rw) for rw in prod))
            if coords is None:
                raise InternalConsistencyError("endomorphism product left the commutant")
            integral = lattice_coords(coords)
            if integral is None or any(x.denominator != 1 for x in integral):
                raise InternalConsistencyError("endomorphism ring is not closed")

    if r == 4:
        return _classify_rank4(torus, endo_basis)
    if r == 8:
        return _classify_rank8(torus, endo_basis)
    return EndomorphismRing(
        r, tuple(endo_basis), "other", None, None, None, None,
        f"commutant rank {r} outside the expected dichotomy",
    )


def _classify_rank4(torus: QuatTorus, endo_basis) -> EndomorphismRing:
    images = []
    for e_mat in endo_basis:
        y = tuple(e_mat[p][0] for p in range(4))
        elem = torus.algebra.element(y)
        if left_mult_matrix(elem) != e_mat:
            return EndomorphismRing(
                4, tuple(endo_basis), "other", None, None, None, None,
                "rank-4 ring is not made of left multiplications",
            )
        images.append(y)
    order_lat = lattice_from_generators(images)
    if not is_order(torus.algebra, order_lat):
        raise InternalConsistencyError("left-multiplication ring image is not an order")
    matches = order_lat == torus.lattice
    if torus.algebra.definite:
        return EndomorphismRing(
            4, tuple(endo_basis), "order-in-definite-quaternion", False,
            order_lat, matches, None,
            "endomorphisms are left multiplications by an order in a definite "
            "quaternion algebra; no abelian surface has such an endomorphism ring",
        )
    return EndomorphismRing(
        4, tuple(endo_basis), "other", None, order_lat, matches, None,
        "left multiplications by an order in an indefinite quaternion algebra",
    )


def _classify_rank8(torus: QuatTorus, endo_basis) -> EndomorphismRing:
    r = len(endo_basis)
    mats = [[list(rw) for rw in e] for e in endo_basis]
    rows = []
    for e2 in mats:
        # commutators [e1, e2] for every e1, one row per entry (p, s)
        brackets = [(linalg.matmul(e1, e2), linalg.matmul(e2, e1)) for e1 in mats]
        for p in range(4):
            for s in range(4):
                rows.append([(ab[p][s] - ba[p][s]).as_fraction() for ab, ba in brackets])
    center = linalg.kernel_right(rows)
    if len(center) != 2:
        return EndomorphismRing(
            r, tuple(endo_basis), "other", None, None, None, None,
            f"center has rank {len(center)}, not 2",
        )

    def from_coords(coeffs):
        out = [[CycNum.rational(0)] * 4 for _ in range(4)]
        for coef, e_mat in zip(coeffs, endo_basis):
            for p in range(4):
                for s in range(4):
                    out[p][s] = out[p][s] + e_mat[p][s] * coef
        return tuple(tuple(rw) for rw in out)

    identity = tuple(
        tuple(CycNum.rational(1 if p == s else 0) for s in range(4)) for p in range(4)
    )
    z_mat = None
    for vec in center:
        cand = from_coords(vec)
        if any(
            not (cand[p][s] - cand[0][0] * identity[p][s]).is_zero()
            for p in range(4)
            for s in range(4)
        ):
            z_mat = cand
            break
    if z_mat is None:
        raise InternalConsistencyError("center of a rank-8 ring is scalar")
    flat_z = [x.as_fraction() for row in z_mat for x in row]
    z2 = linalg.matmul([list(rw) for rw in z_mat], [list(rw) for rw in z_mat])
    flat_z2 = [x.as_fraction() for row in z2 for x in row]
    flat_i = [Fraction(1) if p == s else Fraction(0) for p in range(4) for s in range(4)]
    sol = linalg.Span([flat_z, flat_i]).coords(flat_z2)
    if sol is None:
        raise InternalConsistencyError("center element has no quadratic relation")
    p_coef, q_coef = sol
    t_center = q_coef + p_coef * p_coef / 4
    if t_center >= 0:
        return EndomorphismRing(
            r, tuple(endo_basis), "other", None, None, None, None,
            "center is a real quadratic field",
        )
    disc = fundamental_discriminant(t_center.numerator * t_center.denominator)
    detail = (
        "endomorphism algebra is 8-dimensional with imaginary-quadratic center; "
        "zero-divisor certificate splits it as 2x2 matrices over that field"
    )
    zero_divisor_ok = False
    if torus.direction is not None:
        a, b = torus.algebra.a, torus.algebra.b
        r1, r2, r3 = torus.direction
        t_u = a * r1 * r1 + b * r2 * r2 - a * b * r3 * r3
        ratio = t_u / t_center
        num, den = ratio.numerator, ratio.denominator
        if num > 0 and isqrt(num) ** 2 == num and isqrt(den) ** 2 == den:
            s_val = Fraction(isqrt(num), isqrt(den))
            u_elem = torus.algebra.element((0, r1, r2, r3))
            l_u = left_mult_matrix(u_elem)
            half_p = p_coef / 2
            zeta0 = tuple(
                tuple(z_mat[p][s] - as_cycnum(half_p) * identity[p][s] for s in range(4))
                for p in range(4)
            )
            eta = linalg.matmul([list(rw) for rw in l_u], [list(rw) for rw in zeta0])
            scal = as_cycnum(Fraction(1) / (s_val * t_center))
            eta = [[x * scal for x in row] for row in eta]
            eta2 = linalg.matmul(eta, eta)
            ok = all(
                (eta2[p][s] - identity[p][s]).is_zero()
                for p in range(4)
                for s in range(4)
            )
            nontrivial = any(
                not (eta[p][s] - identity[p][s]).is_zero()
                for p in range(4)
                for s in range(4)
            ) and any(
                not (eta[p][s] + identity[p][s]).is_zero()
                for p in range(4)
                for s in range(4)
            )
            zero_divisor_ok = ok and nontrivial
    if not zero_divisor_ok:
        detail = (
            "endomorphism algebra is 8-dimensional with imaginary-quadratic center; "
            "matrix-algebra certificate not established"
        )
        return EndomorphismRing(
            r, tuple(endo_basis), "other", None, None, None, disc, detail
        )
    return EndomorphismRing(
        r, tuple(endo_basis), "order-in-M2-of-imaginary-quadratic", True,
        None, None, disc, detail,
    )


@dataclass(frozen=True)
class RatLVerdict:
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
