"""Invariant-lattice constructions and order-module structure.

Three construction recipes (integral span of a rational form's orbit,
doubling a rank-n lattice by a non-real scalar, and the orbit span over an
imaginary-quadratic order, which is already order-stable), plus splitting an
order-stable lattice into a free module over a euclidean order.  The
doubling L + c*L is one HNF of integer rows: those of L beside those of
c*L, which are L's rows times the blocks of c's multiplication matrix.

An order Z[omega], built once per discriminant, writes a + b*omega as the
integer pair (a, b); its rank-two lattice Z + Z*omega
(`lattices.RankTwoLattice`) is the factor a split renders.  A split writes
the lattice as O*v_1 + ... + O*v_k, so every factor O*v_i is the order
itself: the torus is isomorphic to the product of k copies of C/O.  It runs
on integer coordinates in the lattice basis: omega acts there as the
integer matrix M of `lattices.multiplication_matrix`, which exists exactly
when the lattice is order-stable, the Euclidean reduction divides integer
pairs, and the rows c_s and c_s M of the basis vectors v_s and omega*v_s,
stacked, have |det| 1 exactly when they span the lattice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from operator import mul

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
    _lattice_from_rows,
    _times_rows,
    flatten,
    fundamental_discriminant,
    lattice_from_generators,
    multiplication_matrix,
)
from .records import Record
from .schur import CharacterFieldClass

EUCLIDEAN_DISCRIMINANTS = (-3, -4, -7, -8, -11)


class ImaginaryQuadraticOrder(Record):
    """The order Z[omega] of the stated discriminant, omega realized exactly.

    omega^2 = t*omega - n, with t = 1 and n = (1 - disc) / 4 when
    disc = 1 mod 4, and t = 0 and n = -disc / 4 when disc = 0 mod 4, so an
    element a + b*omega is the integer pair (a, b), and its norm is
    a^2 + t*a*b + n*b^2.
    """

    discriminant: int
    generator: CycNum
    euclidean: bool

    @classmethod
    @cache
    def from_discriminant(cls, disc: int) -> "ImaginaryQuadraticOrder":
        """The order of the discriminant, built once per discriminant."""
        if disc >= 0 or disc % 4 not in (0, 1):
            raise InvalidInputError(
                f"{disc} is not the discriminant of an imaginary quadratic order"
            )
        if disc % 4 == 0:
            omega = sqrt_rational(Fraction(disc, 4))
        else:
            omega = (1 + sqrt_rational(Fraction(disc))) / 2
        order = cls(disc, omega, disc in EUCLIDEAN_DISCRIMINANTS)
        t, n = order._trace_norm
        if omega * omega != t * omega - n:
            raise InternalConsistencyError("omega^2 escaped Z[omega]")
        return order

    @cached_property
    def lattice(self) -> RankTwoLattice:
        """The order as the rank-two lattice Z + Z*omega."""
        return RankTwoLattice(1, self.generator)

    @property
    def _trace_norm(self):
        """(t, n) with omega^2 = t*omega - n."""
        t = self.discriminant % 2
        return t, (t - self.discriminant) // 4

    def pair_norm(self, x) -> int:
        """The norm of the element x = (a, b), a + b*omega."""
        a, b = x
        t, n = self._trace_norm
        return a * a + t * a * b + n * b * b

    def pair_product(self, x, y):
        """The product of the elements x and y, as an integer pair."""
        (a, b), (c, d) = x, y
        t, n = self._trace_norm
        return a * c - n * b * d, a * d + b * c + t * b * d

    def pair_divmod(self, alpha, beta):
        """(q, r) with alpha = q*beta + r and N(r) < N(beta), on integer pairs.

        The exact quotient is alpha * conj(beta) / N(beta), with
        conj(c + d*omega) = (c + t*d) - d*omega; q rounds it to the nearest
        point in the (1, omega) basis, by floor division.  The remainder
        bound holds exactly for each of the five euclidean discriminants.
        """
        c, d = beta
        t, _ = self._trace_norm
        norm = self.pair_norm(beta)
        if not norm:
            raise InvalidInputError("division by zero")
        u, v = self.pair_product(alpha, (c + t * d, -d))
        twice = 2 * norm
        y = (2 * v + norm) // twice
        if t:
            x = (2 * u + v - y * norm + norm) // twice
        else:
            x = (2 * u + norm) // twice
        qc, qd = self.pair_product((x, y), beta)
        r = (alpha[0] - qc, alpha[1] - qd)
        if any(r) and self.pair_norm(r) >= norm:
            raise InternalConsistencyError("euclidean division failed to shrink")
        return (x, y), r


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
    """The lattice plus c times itself; doubles the rank for non-real c.

    At N = lcm of the two conductors, with R the rows of the lattice over
    den and d the denominator of c, the rows of c*L are R times the blocks of
    c's multiplication matrix over den*d, and those of L are R*d over den*d.
    One HNF of the stacked rows, divided by the gcd of den*d and their
    entries, builds the sum.  The field of its entries holds those of L and
    c, the ratio c*x / x for an entry x != 0 of L, so N is its least
    conductor."""
    c = as_cycnum(c)
    if (c - c.conjugate()).is_zero():
        raise InvalidInputError("scalar must be non-real")
    if not lattice.rows:
        raise InvalidInputError("no nonzero generators")
    conductor = lcm(lattice.conductor, c.conductor)
    rows, den = lattice._rows_at(conductor)
    nums, d = c.numerators_at(conductor)
    rows = [[x * d for x in row] for row in rows] + _times_rows(rows, nums, conductor)
    shrink = gcd(den * d, *(x for row in rows for x in row))
    out = _lattice_from_rows(lattice.dim, conductor,
                             [[x // shrink for x in row] for row in rows], den * d // shrink)
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
    integer matrix of omega in the lattice basis (`multiplication_matrix`)
    certifies that omega maps the lattice into itself, so that it is its
    own saturation L + omega*L.
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
    lattice = _orbit_lattice(group, [vector, _scale_vector(order.generator, vector)])
    if multiplication_matrix(lattice, order.generator) is None:
        raise InternalConsistencyError("orbit lattice is not order-stable")
    return lattice


class OrderSplit(Record):
    """A free-module basis over the order; each factor O*v_i is the order."""

    order: ImaginaryQuadraticOrder
    basis: tuple  # vectors v with L = O*v_1 + ... + O*v_k, direct


def split_as_order_module(lattice: ZLattice, order: ImaginaryQuadraticOrder) -> OrderSplit:
    """Free-module basis of an order-stable lattice over a euclidean order.

    Everything runs on integer coordinates in the lattice basis, where omega
    acts as the integer matrix M of `multiplication_matrix`, whose existence
    certifies that the lattice is order-stable.  A basis vector b_i joins the
    field basis when it is outside the rational span of the b_f and omega*b_f
    kept so far, the rows e_f and M_f; every other one is written there as
    sum (a_f + b_f*omega) b_f, with den clearing the denominators.  Euclidean
    division over the order, on the integer pairs (a, b), reduces those
    coordinates to k rows, and each row gives a vector v_s with integer
    coordinates c_s.  The v_s and omega*v_s, rows c_s and c_s M, span the
    lattice exactly when that square integer matrix has |det| 1.
    """
    if not order.euclidean:
        raise OutOfScopeError(
            f"order of discriminant {order.discriminant} is not euclidean; "
            "only discriminants -3, -4, -7, -8, -11 are supported"
        )
    omega = multiplication_matrix(lattice, order.generator)
    if omega is None:
        raise InvalidInputError("lattice is not stable under the order")
    if lattice.rank % 2:
        raise InternalConsistencyError("order-stable lattice of odd rank")
    rank = lattice.rank
    k = rank // 2

    # the (a, b) coordinates of each basis vector over the field basis
    span = linalg.Span()
    field_basis = []
    sols = []
    den = 1
    for i in range(rank):
        unit = [0] * rank
        unit[i] = 1
        sol = span.coords(unit)
        if sol is None:
            sol = [0] * (2 * len(field_basis)) + [1, 0]
            field_basis.append(i)
            span.add(unit)
            span.add(omega[i])
        else:
            den = lcm(den, *(c.denominator for c in sol))
        sols.append(sol)
    if len(field_basis) != k:
        raise InternalConsistencyError(
            f"field span has dimension {len(field_basis)}, expected {k}"
        )
    mat = [
        [(int(a * den), int(b * den)) for a, b in zip(sol[::2], sol[1::2])]
        + [(0, 0)] * (k - len(sol) // 2)
        for sol in sols
    ]

    pivot_row = 0
    for col in range(k):
        while True:
            live = [r for r in range(pivot_row, rank) if any(mat[r][col])]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: order.pair_norm(mat[r][col]))
            base = mat[live[0]]
            for r in live[1:]:
                q, _ = order.pair_divmod(mat[r][col], base[col])
                mat[r] = [(a - c, b - d) for (a, b), (c, d)
                          in zip(mat[r], (order.pair_product(q, y) for y in base))]
        r = next((r for r in range(pivot_row, rank) if any(mat[r][col])), None)
        if r is not None:
            mat[pivot_row], mat[r] = mat[r], mat[pivot_row]
            pivot_row += 1
    if pivot_row != k:
        raise InternalConsistencyError("euclidean reduction lost rank")

    # the coordinates c_s of each v_s, and c_s M of omega*v_s
    coords = []
    for row in mat[:k]:
        c = [0] * rank
        for f, (a, b) in zip(field_basis, row):
            c[f] += a
            if b:
                c = [x + b * m for x, m in zip(c, omega[f])]
        if any(x % den for x in c):
            raise InternalConsistencyError(
                "order-module basis does not regenerate the lattice"
            )
        coords.append([x // den for x in c])
    images = [[sum(map(mul, c, col)) for col in zip(*omega)] for c in coords]
    if linalg.abs_det(coords + images) != 1:
        raise InternalConsistencyError("order-module basis does not regenerate the lattice")
    return OrderSplit(order, tuple(lattice.combination(c) for c in coords))
