"""Integral lattices in a complex vector space with exact cyclotomic entries.

A ZLattice is the integer span of finitely many vectors in C^n.  It is stored
as a rational structure (an echelonized basis of the rational span of the
generators) plus an integer Hermite-normal-form matrix over a common
denominator, so equal lattices have identical data.  Discreteness of the
integer span is decided exactly by splitting every entry x into
(x + conj x)/2 and (x - conj x)/2, which stay inside the cyclotomic field,
and computing a rank.

RankTwoLattice models a lattice of rank 2 inside the complex line; it carries
the multiplier-ring and isogeny machinery for elliptic-curve factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm

from . import linalg
from .cyclotomic import CycNum, as_cycnum, cyc_from_json, cyc_to_json
from .errors import InternalConsistencyError, InvalidInputError, NotDiscreteError


def flatten(vector, conductor):
    """Rational row of a cyclotomic vector: the coordinates of each entry at
    the conductor, which each entry's conductor divides, one after another."""
    row = []
    for x in vector:
        row.extend(x.coords_at(conductor))
    return row


def expand_vectors(vectors):
    """Common conductor and rational coordinate rows of cyclotomic vectors."""
    conductor = 1
    for vec in vectors:
        for x in vec:
            conductor = lcm(conductor, x.conductor)
    return conductor, [flatten(vec, conductor) for vec in vectors]


def reassemble(dim, conductor, row):
    """Inverse of expand_vectors for a single rational row."""
    width = len(row) // dim
    return tuple(
        CycNum(conductor, list(row[i * width : (i + 1) * width])) for i in range(dim)
    )


@dataclass(frozen=True)
class RationalSubspaceBasis:
    """Echelonized (reduced row echelon) basis of a rational subspace."""

    width: int
    rows: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, width, rows):
        red, _ = linalg.rref(rows)
        return cls(width, tuple(tuple(r) for r in red))

    @property
    def dim(self):
        return len(self.rows)

    def pivots(self):
        out = []
        for row in self.rows:
            out.append(next(i for i, x in enumerate(row) if x != 0))
        return out


@dataclass(frozen=True)
class ZLattice:
    """Integer span of vectors in C^dim, in canonical form."""

    dim: int
    conductor: int
    span: RationalSubspaceBasis
    basis: tuple[tuple[int, ...], ...]
    den: int

    @property
    def rank(self):
        return len(self.basis)

    def ambient_vectors(self):
        return tuple(
            reassemble(self.dim, self.conductor, row) for row in self.span.rows
        )

    def vectors(self):
        """The canonical basis vectors of the lattice, as cyclotomic vectors."""
        ambient = self.ambient_vectors()
        out = []
        for brow in self.basis:
            vec = [CycNum.rational(0)] * self.dim
            for coeff, avec in zip(brow, ambient):
                if coeff:
                    vec = [v + Fraction(coeff, self.den) * a for v, a in zip(vec, avec)]
            out.append(tuple(vec))
        return tuple(out)

    @cached_property
    def _rational_span(self):
        return linalg.Span(self.span.rows)

    @cached_property
    def _basis_span(self):
        return linalg.Span([[Fraction(x) for x in row] for row in self.basis])

    def rational_coords(self, vector):
        """Coordinates of vector in the rational span, or None if outside.

        The span lies in the field of the lattice's conductor, and an entry
        whose (minimal) conductor does not divide it is outside that field.
        """
        if any(self.conductor % x.conductor for x in vector):
            return None
        return self._rational_span.coords(flatten(vector, self.conductor))

    def basis_coords(self, vector):
        """Integer coordinates of vector in the lattice basis, or None."""
        coords = self.rational_coords(vector)
        if coords is None:
            return None
        sol = self._basis_span.coords([self.den * c for c in coords])
        if sol is None or any(s.denominator != 1 for s in sol):
            return None
        return [int(s) for s in sol]

    def contains(self, vector):
        return self.basis_coords(vector) is not None


def lattice_from_generators(vectors, dim=None, allow_zero=False):
    """Canonical ZLattice spanned over the integers by the given vectors.

    Raises NotDiscreteError when the integer span is dense in some real
    direction (then it is not a lattice)."""
    vectors = [tuple(as_cycnum(x) for x in vec) for vec in vectors]
    if dim is None:
        if not vectors:
            raise InvalidInputError("no vectors and no ambient dimension given")
        dim = len(vectors[0])
    vectors = [v for v in vectors if any(not x.is_zero() for x in v)]
    if any(len(v) != dim for v in vectors):
        raise InvalidInputError("mixed vector lengths")
    if not vectors:
        if allow_zero:
            span = RationalSubspaceBasis(dim, ())
            return ZLattice(dim, 1, span, (), 1)
        raise InvalidInputError("no nonzero generators")
    conductor, rows = expand_vectors(vectors)
    span = RationalSubspaceBasis.from_rows(len(rows[0]), rows)
    pivots = span.pivots()
    coord_rows = [[row[c] for c in pivots] for row in rows]
    den = 1
    for row in coord_rows:
        for x in row:
            den = lcm(den, x.denominator)
    int_rows = [[int(x * den) for x in row] for row in coord_rows]
    basis = linalg.hnf(int_rows)
    shrink = den
    for row in basis:
        for x in row:
            shrink = gcd(shrink, x)
    if shrink > 1:
        den //= shrink
        basis = [[x // shrink for x in row] for row in basis]
    lattice = ZLattice(
        dim, conductor, span, tuple(tuple(r) for r in basis), den
    )
    _check_discrete(lattice)
    return lattice


def _check_discrete(lattice):
    vecs = lattice.vectors()
    if not vecs:
        return
    split_rows = []
    for vec in vecs:
        row = [x.real_part() for x in vec] + [x.skew_part() for x in vec]
        split_rows.append(row)
    if linalg.rank(split_rows) != len(vecs):
        raise NotDiscreteError(
            "integer span is not discrete: generators are dependent over the reals"
        )


def lattice_sum(a: ZLattice, b: ZLattice) -> ZLattice:
    if a.dim != b.dim:
        raise InvalidInputError("ambient dimensions differ")
    return lattice_from_generators(list(a.vectors()) + list(b.vectors()), dim=a.dim)


def intersect_with_subspace(lattice: ZLattice, span_vectors, real=False) -> ZLattice:
    """Lattice points in the complex span (or, with real=True, the real span)
    of the given vectors.

    For the real case a lattice vector w lies in the R-span exactly when the
    conjugation-split row (re w | skew w) is a field combination of the split
    span rows: conjugating any field solution and averaging yields a real one.
    """
    span_vectors = [tuple(as_cycnum(x) for x in vec) for vec in span_vectors]
    split = (lambda v: [x.real_part() for x in v] + [x.skew_part() for x in v]) if real \
        else (lambda v: list(v))
    mat = [split(vec) for vec in span_vectors]
    functionals = linalg.kernel_right(mat)
    vecs = list(lattice.vectors())
    if not vecs:
        return lattice
    if not functionals:
        return lattice
    values = []
    for vec in vecs:
        svec = split(vec)
        row = []
        for f in functionals:
            row.append(sum((x * y for x, y in zip(svec, f)), CycNum.rational(0)))
        values.append(row)
    _, rows = expand_vectors(values)
    den = 1
    for row in rows:
        for x in row:
            den = lcm(den, x.denominator)
    int_rows = [[int(x * den) for x in row] for row in rows]
    kernel = linalg.int_kernel(int_rows)
    gens = []
    for krow in kernel:
        vec = [CycNum.rational(0)] * lattice.dim
        for coeff, w in zip(krow, vecs):
            if coeff:
                vec = [v + coeff * x for v, x in zip(vec, w)]
        gens.append(tuple(vec))
    return lattice_from_generators(gens, dim=lattice.dim, allow_zero=True)


def lattice_index(big: ZLattice, small: ZLattice):
    """Index [big : small] for small a sublattice of big; math.inf when the
    ranks differ."""
    coords = [big.basis_coords(vec) for vec in small.vectors()]
    if None in coords:
        raise InvalidInputError("second lattice is not contained in the first")
    if small.rank < big.rank:
        return math.inf
    if small.rank > big.rank:
        raise InvalidInputError("containment with larger rank is impossible")
    d = linalg.det([[Fraction(x) for x in c] for c in coords])
    return abs(int(d))


def scale_lattice(scalar, lattice: ZLattice) -> ZLattice:
    scalar = as_cycnum(scalar)
    scaled = [tuple(scalar * x for x in vec) for vec in lattice.vectors()]
    return lattice_from_generators(scaled, dim=lattice.dim)


def invariance_check(lattice: ZLattice, matrices) -> bool:
    """True when every given matrix maps the lattice into itself."""
    vecs = lattice.vectors()
    for mat in matrices:
        for vec in vecs:
            image = tuple(linalg.matvec(mat, list(vec)))
            if not lattice.contains(image):
                return False
    return True


def lattice_to_json(lat: ZLattice) -> dict:
    return {
        "ambient": [[cyc_to_json(x) for x in vec] for vec in lat.ambient_vectors()],
        "basis": [list(row) for row in lat.basis],
        "denominator": lat.den,
    }


def lattice_from_json(obj) -> ZLattice:
    try:
        ambient = [
            tuple(cyc_from_json(x) for x in vec) for vec in obj["ambient"]
        ]
        basis = [[int(x) for x in row] for row in obj["basis"]]
        den = int(obj["denominator"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad lattice encoding: {exc}") from exc
    if den <= 0:
        raise InvalidInputError("denominator must be positive")
    gens = []
    for row in basis:
        vec = None
        for coeff, avec in zip(row, ambient):
            term = tuple(Fraction(coeff, den) * x for x in avec)
            vec = term if vec is None else tuple(v + t for v, t in zip(vec, term))
        if vec is not None:
            gens.append(vec)
    dim = len(ambient[0]) if ambient else 0
    return lattice_from_generators(gens, dim=dim)


# -- rank-two lattices in the complex line ----------------------------------


class RankTwoLattice:
    """Z g1 + Z g2 inside the complex plane, with g2/g1 not real."""

    __slots__ = ("g1", "g2")

    def __init__(self, g1, g2):
        g1, g2 = as_cycnum(g1), as_cycnum(g2)
        if g1.is_zero() or g2.is_zero():
            raise InvalidInputError("rank-two lattice needs nonzero generators")
        tau = g2 / g1
        if tau.is_real():
            raise NotDiscreteError("generators are dependent over the reals")
        self.g1 = g1
        self.g2 = g2

    def tau(self) -> CycNum:
        return self.g2 / self.g1

    def coords_of(self, value):
        """Rational (x, y) with value = x*g1 + y*g2, or None."""
        value = as_cycnum(value)
        _, (g1, g2, row) = expand_vectors([(self.g1,), (self.g2,), (value,)])
        return linalg.Span([g1, g2]).coords(row)

    def contains(self, value) -> bool:
        coords = self.coords_of(value)
        return coords is not None and all(c.denominator == 1 for c in coords)

    def same_lattice(self, other) -> bool:
        return (
            self.contains(other.g1)
            and self.contains(other.g2)
            and other.contains(self.g1)
            and other.contains(self.g2)
        )

    def __eq__(self, other):
        if not isinstance(other, RankTwoLattice):
            return NotImplemented
        return self.g1 == other.g1 and self.g2 == other.g2

    def __hash__(self):
        return hash((self.g1, self.g2))

    def __repr__(self):
        return f"RankTwoLattice({self.g1}, {self.g2})"


@dataclass(frozen=True)
class MultiplierRing:
    """{c : c L <= L} for a rank-two lattice L: either Z or an imaginary
    quadratic order, described by discriminant, conductor inside the maximal
    order, and an explicit generator."""

    kind: str  # "Z" or "order"
    discriminant: int | None = None
    fundamental_discriminant: int | None = None
    order_conductor: int | None = None
    generator: CycNum | None = None


def squarefree_part(n: int) -> int:
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            out *= d
            n //= d
        d += 1
    return sign * out * n


def fundamental_discriminant(n: int) -> int:
    m = squarefree_part(n)
    return m if m % 4 == 1 else 4 * m


def multiplier_ring(gamma: RankTwoLattice) -> MultiplierRing:
    tau = gamma.tau()
    minpoly = tau.minimal_polynomial()
    if len(minpoly) != 3:
        return MultiplierRing("Z")
    p, q = -minpoly[1], -minpoly[0]  # tau^2 = p tau + q
    f = lcm(p.denominator, q.denominator)
    disc = f * f * (p * p + 4 * q)
    if disc.denominator != 1:
        raise InternalConsistencyError("scaled discriminant is not an integer")
    disc = int(disc)
    if disc >= 0:
        raise InternalConsistencyError(
            "real quadratic multiplier is impossible for a lattice"
        )
    d0 = fundamental_discriminant(disc)
    cond = isqrt(disc // d0)
    return MultiplierRing("order", disc, d0, cond, f * tau)


def isogeny_test(a: RankTwoLattice, b: RankTwoLattice):
    """A nonzero c with c * (rational span of b) = rational span of a, or None."""
    tau_b = b.tau()
    vals = [a.g1, a.g2, -(tau_b * a.g1), -(tau_b * a.g2)]
    _, rows = expand_vectors([(v,) for v in vals])
    cols = [[rows[j][i] for j in range(4)] for i in range(len(rows[0]))]
    kernel = linalg.kernel_right(cols)
    if not kernel:
        return None
    coeffs = kernel[0]
    beta = coeffs[2] * a.g1 + coeffs[3] * a.g2
    if beta.is_zero():
        raise InternalConsistencyError("isogeny kernel vector gives a zero scalar")
    return beta / b.g1

