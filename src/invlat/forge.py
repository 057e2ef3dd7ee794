"""Invariant-lattice constructions and order-module structure.

Three construction recipes (integral span of a rational form's orbit,
doubling a rank-n lattice by a non-real scalar, and the orbit span over an
imaginary-quadratic order, which is already order-stable), plus splitting an
order-stable lattice into a free module over a euclidean order.

An order Z[omega] reads the coordinates (u, v) of x = u + v*omega from its
rank-two lattice Z + Z*omega (`lattices.RankTwoLattice`).  A split writes the
lattice as O*v_1 + ... + O*v_k, so every factor O*v_i is the order itself:
the torus is isomorphic to the product of k copies of C/O.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import floor, lcm

from . import linalg
from .cyclotomic import CycNum, as_cycnum, common_conductor, sqrt_rational
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    OutOfScopeError,
)
from .groups import GroupRep, apply
from .lattices import (
    RankTwoLattice,
    ZLattice,
    flatten,
    fundamental_discriminant,
    lattice_from_generators,
    lattice_sum,
    scale_lattice,
)
from .records import Record
from .schur import CharacterFieldClass

EUCLIDEAN_DISCRIMINANTS = (-3, -4, -7, -8, -11)


class ImaginaryQuadraticOrder(Record):
    """The order Z[omega] of the stated discriminant, omega realized exactly."""

    discriminant: int
    generator: CycNum
    euclidean: bool

    @classmethod
    def from_discriminant(cls, disc: int) -> "ImaginaryQuadraticOrder":
        if disc >= 0 or disc % 4 not in (0, 1):
            raise InvalidInputError(
                f"{disc} is not the discriminant of an imaginary quadratic order"
            )
        if disc % 4 == 0:
            omega = sqrt_rational(Fraction(disc, 4))
        else:
            omega = (1 + sqrt_rational(Fraction(disc))) / 2
        order = cls(disc, omega, disc in EUCLIDEAN_DISCRIMINANTS)
        if not order.contains(omega * omega):
            raise InternalConsistencyError("omega^2 escaped Z[omega]")
        return order

    @cached_property
    def lattice(self) -> RankTwoLattice:
        """The order as the rank-two lattice Z + Z*omega."""
        return RankTwoLattice(1, self.generator)

    def field_coords(self, x):
        """Rational [u, v] with x = u + v*omega, or None if x is outside the field."""
        return self.lattice.coords_of(x)

    def contains(self, x) -> bool:
        return self.lattice.contains(x)

    def norm(self, x) -> Fraction:
        x = as_cycnum(x)
        value = x * x.conjugate()
        if not value.is_rational():
            raise InvalidInputError("norm argument is outside the field")
        return value.as_fraction()

    def euclid_divmod(self, alpha, beta):
        """Quotient q in the order and remainder r = alpha - q*beta, N(r) < N(beta).

        Nearest-point rounding in the (1, omega) basis; the remainder bound
        holds exactly for each of the five euclidean discriminants.
        """
        alpha, beta = as_cycnum(alpha), as_cycnum(beta)
        if beta.is_zero():
            raise InvalidInputError("division by zero")
        exact = alpha / beta
        coords = self.field_coords(exact)
        if coords is None:
            raise InvalidInputError("quotient is outside the field")
        u, v = coords
        half = Fraction(1, 2)
        b = floor(v + half)
        if self.discriminant % 4 == 0:
            a = floor(u + half)
        else:
            a = floor(u + (v - b) * half + half)
        quotient = CycNum.rational(a) + self.generator * b
        remainder = alpha - quotient * beta
        if not remainder.is_zero():
            if self.norm(remainder) >= self.norm(beta):
                raise InternalConsistencyError("euclidean division failed to shrink")
        return quotient, remainder


def _scale_vector(scalar, vector):
    return tuple(scalar * x for x in vector)


def _orbit_lattice(group: GroupRep, starts) -> ZLattice:
    """Integer span of the G-orbits of the starts, closed from the generators.

    Starting from the span of the starts, the images of every basis vector
    under each generator that the lattice does not contain are added until it
    contains them all.  Every g^-1 is a power of g, so the result is the
    smallest lattice that holds the starts and is mapped into itself by the
    generators: the span of the orbits, already certified invariant by the
    stopping condition.
    """
    lattice = lattice_from_generators(starts, dim=group.dimension)
    while True:
        vecs = lattice.vectors()
        images = [apply(g, v) for g in group.sparse_generators for v in vecs]
        missing = [w for w in images if not lattice.contains(w)]
        if not missing:
            return lattice
        lattice = lattice_from_generators(list(vecs) + missing, dim=group.dimension)


def construct_rank_n(group: GroupRep, witness) -> ZLattice:
    """Integral span of the G-orbit of a rational-form basis; rank n."""
    vectors = [tuple(as_cycnum(x) for x in v) for v in witness]
    n = group.dimension
    if len(vectors) != n or linalg.rank([list(v) for v in vectors]) != n:
        raise InvalidInputError("witness is not a rational form of the space")
    conductor = common_conductor([x for v in vectors for x in v])
    span = linalg.Span([flatten(v, conductor) for v in vectors])
    for g in group.sparse_generators:
        for v in vectors:
            image = apply(g, v)
            if lcm(conductor, common_conductor(image)) != conductor:
                raise InvalidInputError("witness span is not stable under the group")
            if span.coords(flatten(image, conductor)) is None:
                raise InvalidInputError("witness span is not stable under the group")
    lattice = _orbit_lattice(group, vectors)
    if lattice.rank != n:
        raise InternalConsistencyError(
            f"orbit span has rank {lattice.rank}, expected {n}"
        )
    return lattice


def extend_rank_2n(lattice: ZLattice, c) -> ZLattice:
    """The lattice plus c times itself; doubles the rank for non-real c."""
    c = as_cycnum(c)
    if (c - c.conjugate()).is_zero():
        raise InvalidInputError("scalar must be non-real")
    out = lattice_sum(lattice, scale_lattice(c, lattice))
    if out.rank != 2 * lattice.rank:
        raise InternalConsistencyError("extension did not double the rank")
    return out


def orbit_lattice_over_order(
    group: GroupRep,
    order: ImaginaryQuadraticOrder,
    vector,
    field: CharacterFieldClass,
) -> ZLattice:
    """Order-span of the G-orbit of a vector; order-stable and G-invariant.

    `field` is the group's character field class, from its profile.  The
    check that omega maps every basis vector into the lattice certifies
    that the lattice is its own saturation L + omega*L.
    """
    if field.kind != "imaginary-quadratic":
        raise InvalidInputError(
            f"character field is {field.kind}, not imaginary quadratic"
        )
    if fundamental_discriminant(order.discriminant) != field.discriminant:
        raise InvalidInputError(
            "order does not lie in the character field"
        )
    vector = tuple(as_cycnum(x) for x in vector)
    if all(x.is_zero() for x in vector):
        raise InvalidInputError("starting vector must be nonzero")
    omega = order.generator
    lattice = _orbit_lattice(group, [vector, _scale_vector(omega, vector)])
    for v in lattice.vectors():
        if not lattice.contains(_scale_vector(omega, v)):
            raise InternalConsistencyError("orbit lattice is not order-stable")
    return lattice


class OrderSplit(Record):
    """A free-module basis over the order; each factor O*v_i is the order."""

    order: ImaginaryQuadraticOrder
    basis: tuple  # vectors v with L = O*v_1 + ... + O*v_k, direct


def split_as_order_module(lattice: ZLattice, order: ImaginaryQuadraticOrder) -> OrderSplit:
    """Free-module basis of an order-stable lattice over a euclidean order."""
    if not order.euclidean:
        raise OutOfScopeError(
            f"order of discriminant {order.discriminant} is not euclidean; "
            "only discriminants -3, -4, -7, -8, -11 are supported"
        )
    omega = order.generator
    for v in lattice.vectors():
        if not lattice.contains(_scale_vector(omega, v)):
            raise InvalidInputError("lattice is not stable under the order")
    if lattice.rank % 2:
        raise InternalConsistencyError("order-stable lattice of odd rank")
    k = lattice.rank // 2
    gens = list(lattice.vectors())
    conductor = common_conductor(
        [x for v in gens for x in v] + [omega]
    )

    # rational span of u and omega*u over the field basis vectors u found; den
    # clears the denominators of the coordinates (a, b) of every a + b*omega
    span = linalg.Span()
    field_basis = []
    rows = []
    den = 1
    for w in gens:
        row = flatten(w, conductor)
        sol = span.coords(row)
        if sol is None:
            field_basis.append(w)
            span.add(row)
            span.add(flatten(_scale_vector(omega, w), conductor))
            rows.append(None)
        else:
            den = lcm(den, *(c.denominator for c in sol))
            rows.append(
                [CycNum.rational(a) + omega * b for a, b in zip(sol[::2], sol[1::2])]
            )
    if len(field_basis) != k:
        raise InternalConsistencyError(
            f"field span has dimension {len(field_basis)}, expected {k}"
        )
    zero, one = CycNum.rational(0), CycNum.rational(1)
    mat = []
    seen = 0
    for w, coords in zip(gens, rows):
        if coords is None:
            row = [zero] * k
            row[seen] = one
            seen += 1
        else:
            row = list(coords) + [zero] * (k - len(coords))
        mat.append(row)
    mat = [[x * den for x in row] for row in mat]

    pivot_row = 0
    for col in range(k):
        while True:
            live = [
                r for r in range(pivot_row, len(mat)) if not mat[r][col].is_zero()
            ]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: order.norm(mat[r][col]))
            base = live[0]
            for r in live[1:]:
                q, _ = order.euclid_divmod(mat[r][col], mat[base][col])
                mat[r] = [x - q * y for x, y in zip(mat[r], mat[base])]
        live = [r for r in range(pivot_row, len(mat)) if not mat[r][col].is_zero()]
        if live:
            r = live[0]
            mat[pivot_row], mat[r] = mat[r], mat[pivot_row]
            pivot_row += 1
    reduced = [row for row in mat[:pivot_row]]
    if len(reduced) != k:
        raise InternalConsistencyError("euclidean reduction lost rank")

    basis = []
    for row in reduced:
        vec = tuple(
            sum((row[i] * field_basis[i][p] for i in range(k)), zero) / den
            for p in range(lattice.dim)
        )
        basis.append(vec)
    regenerated = lattice_from_generators(
        [v for b in basis for v in (b, _scale_vector(omega, b))], dim=lattice.dim
    )
    if regenerated != lattice:
        raise InternalConsistencyError("order-module basis does not regenerate the lattice")
    return OrderSplit(order, tuple(basis))
