"""Integral lattices in a complex vector space with exact cyclotomic entries.

A ZLattice is the integer span of finitely many vectors in C^n.  Each vector
is written as one rational row, the coordinates of its entries at a common
conductor one after another, and the lattice is stored as the row Hermite
normal form of those rows times den, the least positive integer that makes
it integral: echelon rows with positive pivots and the entries above each
pivot reduced, so equal lattices have identical data (Cohen, A Course in
Computational Algebraic Number Theory, 2.4.3).  One integer elimination
builds it, on rows read off each entry's integer numerators.  Every
question is answered from these rows: integer coordinates come from
back-substitution against them, with a divisibility test at each pivot and
an exact zero residual.

Discreteness is decided on the basis vectors: each vector v is extended by
its conjugate to (v | conj v), which stays inside the cyclotomic field, and
the rank of the extended rows over the field must equal their number.
Every builder runs that check.  At conductor 1 the HNF rows settle it.
Otherwise full rank is certified modulo a prime ideal above a prime
l = 1 mod N, through the ring map z_N -> g onto F_l, on the integer rows;
only a rank-deficient image goes on to the exact rank over the field.

RankTwoLattice is a lattice of rank 2 inside the complex line, the lattice of
an elliptic-curve factor.  It is the one place that writes a number in a
rank-two basis: the real coordinates of w = x + y*tau are read off by a
closed formula, since tau is not real.  An imaginary-quadratic order
(`forge.ImaginaryQuadraticOrder`) takes its coordinates from one, and
`multiplier_ring` gives the order of multipliers of one, which also names the
discriminant of an imaginary-quadratic character field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import mul

from . import linalg
from .cyclotomic import CycNum, as_cycnum, common_conductor, cyc_to_json, splitting_prime
from .errors import InternalConsistencyError, InvalidInputError, NotDiscreteError
from .groups import SparseMatrix, apply, as_matrix
from .records import Record


def flatten(vector, conductor):
    """Rational row of a cyclotomic vector: the coordinates of each entry at
    the conductor, which each entry's conductor divides, one after another;
    an int for each coordinate of an integral entry, else a Fraction."""
    row = []
    for x in vector:
        nums, den = x.numerators_at(conductor)
        row.extend(nums if den == 1 else (Fraction(c, den) for c in nums))
    return row


def reassemble(dim, conductor, row):
    """The cyclotomic vector of dim entries whose flattened rational row at
    the conductor is row."""
    width = len(row) // dim
    return tuple(
        CycNum(conductor, list(row[i * width : (i + 1) * width])) for i in range(dim)
    )


def _integer_rows(vectors, conductor):
    """(integer rows, den): the flattened rows of the vectors at the
    conductor, which each entry's conductor divides, are the integer rows /
    den, and den is the least positive integer for which they are integral.
    They are read off each entry's numerators, with no rational row."""
    parts = [[x.numerators_at(conductor) for x in vec] for vec in vectors]
    den = lcm(1, *(d for vec in parts for _, d in vec))
    rows = [[c * (den // d) for nums, d in vec for c in nums] for vec in parts]
    return rows, den


def _pivots(rows):
    """The column of the first nonzero entry of each echelon row."""
    return [next(k for k, x in enumerate(row) if x) for row in rows]


class ZLattice(Record):
    """Integer span of vectors in C^dim, in canonical form.

    The basis vectors are rows / den, read as rational rows at the
    conductor.  The rows are the Hermite normal form of den times the
    lattice: echelon, with a positive pivot and reduced entries above it in
    each pivot column, and den is the least positive integer that makes
    them integral.  So integer coordinates come from one back-substitution
    with a divisibility test at each pivot.  The basis vectors are built
    once per lattice, on first use.
    """

    dim: int
    conductor: int
    rows: tuple[tuple[int, ...], ...]
    den: int

    @property
    def rank(self):
        return len(self.rows)

    def _vector(self, row):
        """The cyclotomic vector whose flattened row at the conductor is the
        integer row / den."""
        width = len(row) // self.dim
        return tuple(
            CycNum.from_numerators(self.conductor, row[k : k + width], self.den)
            for k in range(0, len(row), width)
        )

    @cached_property
    def _vectors(self):
        return tuple(self._vector(row) for row in self.rows)

    def vectors(self):
        """The canonical basis vectors of the lattice, as cyclotomic vectors."""
        return self._vectors

    def _rows_at(self, conductor):
        """(integer rows, den) of the basis vectors at a multiple of the
        conductor."""
        if conductor == self.conductor:
            return self.rows, self.den
        return _integer_rows(self._vectors, conductor)

    def basis_coords(self, vector):
        """Integer coordinates of vector in the lattice basis, or None.

        The target is den * vector at the conductor, read off each entry's
        numerators.  The lattice lies in the field of its conductor, and an
        entry whose (minimal) conductor does not divide it is outside that
        field; an entry whose denominator does not divide den is not
        integral after the scaling."""
        conductor, den = self.conductor, self.den
        target = []
        for x in vector:
            if conductor % x.conductor:
                return None
            nums, d = x.numerators_at(conductor)
            if d == den:
                target.extend(nums)
                continue
            scale, rest = divmod(den, d)
            if rest:
                return None
            target.extend(c * scale for c in nums)
        return linalg.hnf_coords(self.rows, target)

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
            return ZLattice(dim, 1, (), 1)
        raise InvalidInputError("no nonzero generators")
    conductor = common_conductor(x for vec in vectors for x in vec)
    # every generator lies in the lattice, so their least common denominator
    # is the least den that makes the lattice integral
    rows, den = _integer_rows(vectors, conductor)
    return _lattice_from_rows(dim, conductor, rows, den)


def _lattice_from_rows(dim, conductor, rows, den):
    """Canonical ZLattice spanned over the integers by the rows / den at the
    conductor; the conductor must be the least conductor of their entries,
    and den the least positive integer that makes the lattice integral."""
    basis = linalg.hnf(rows)
    lattice = ZLattice(dim, conductor, tuple(tuple(row) for row in basis), den)
    _check_discrete(lattice)
    return lattice


def _check_discrete(lattice):
    """Raise NotDiscreteError unless the basis vectors are independent over
    the reals.

    The rank of the rows (v | conj v) over the field is the rank of the rows
    (Re v | i Im v), since [v | conj v] = [Re v | i Im v] [[I, I], [I, -I]],
    and that is their real rank.  At conductor 1 the rows are rational and
    the HNF rows are independent, so nothing is checked.  Otherwise full
    rank is certified modulo a prime ideal above l (`splitting_prime`): the
    entries of den * v lie in Z[z_N], z_N -> g is a ring map onto F_l that
    sends conj z_N to g^-1, and a nonzero r x r minor of the image matrix
    lifts to a nonzero minor of (den * v | den * conj v).  Only an image of
    lower rank, which every non-discrete lattice gives, goes on to the exact
    rank over the field.  (The rank over Q of the flattened rows would not
    do: Z + Z sqrt 2 has rationally independent rows and is dense.)"""
    if lattice.conductor == 1 or not lattice.rows:
        return
    if _rank_mod_splitting_prime(lattice) < lattice.rank:
        _check_discrete_exactly(lattice)


def _rank_mod_splitting_prime(lattice):
    """Rank over F_l of the images of the rows (v | conj v) under z_N -> g."""
    ell, g = splitting_prime(lattice.conductor)
    width = len(lattice.rows[0]) // lattice.dim
    up = [pow(g, k, ell) for k in range(width)]
    down = [pow(g, -k, ell) for k in range(width)]
    images = []
    for row in lattice.rows:
        blocks = [row[k : k + width] for k in range(0, len(row), width)]
        images.append([sum(map(mul, b, up)) % ell for b in blocks]
                      + [sum(map(mul, b, down)) % ell for b in blocks])
    rank = 0
    for c in range(2 * lattice.dim):
        pr = next((i for i in range(rank, len(images)) if images[i][c]), None)
        if pr is None:
            continue
        images[rank], images[pr] = images[pr], images[rank]
        pivot_row = images[rank]
        inv = pow(pivot_row[c], -1, ell)
        for row in images[rank + 1 :]:
            a = row[c] * inv % ell
            if a:
                row[c:] = [(x - a * y) % ell for x, y in zip(row[c:], pivot_row[c:])]
        rank += 1
        if rank == len(images):
            break
    return rank


def _check_discrete_exactly(lattice):
    """Raise NotDiscreteError unless the rows (v | conj v) of the basis
    vectors have full rank over the cyclotomic field."""
    rows = lattice.vectors()
    doubled = [list(vec) + [x.conjugate() for x in vec] for vec in rows]
    if linalg.rank(doubled) != len(rows):
        raise NotDiscreteError(
            "integer span is not discrete: generators are dependent over the reals"
        )


def lattice_sum(a: ZLattice, b: ZLattice) -> ZLattice:
    """a + b.  Both lie in a + b, so the lcm of their dens is the least den
    of the sum, and one HNF of the two row sets, scaled to it, builds it."""
    if a.dim != b.dim:
        raise InvalidInputError("ambient dimensions differ")
    conductor = lcm(a.conductor, b.conductor)
    (rows_a, den_a), (rows_b, den_b) = a._rows_at(conductor), b._rows_at(conductor)
    den = lcm(den_a, den_b)
    rows = [[x * (den // den_a) for x in row] for row in rows_a]
    rows += [[x * (den // den_b) for x in row] for row in rows_b]
    if not rows:
        raise InvalidInputError("no nonzero generators")
    return _lattice_from_rows(a.dim, conductor, rows, den)


def intersect_with_subspace(lattice: ZLattice, span_vectors) -> ZLattice:
    """Lattice points in the complex span of the given vectors."""
    mat = [[as_cycnum(x) for x in vec] for vec in span_vectors]
    functionals = linalg.kernel_right(mat)
    vecs = lattice.vectors()
    if not vecs:
        return lattice
    if not functionals:
        return lattice
    values = []
    for vec in vecs:
        row = []
        for f in functionals:
            row.append(sum((x * y for x, y in zip(vec, f)), CycNum.rational(0)))
        values.append(row)
    int_rows, _ = _integer_rows(values, common_conductor(x for row in values for x in row))
    kernel = linalg.int_kernel(int_rows)
    gens = []
    for krow in kernel:
        acc = [0] * len(lattice.rows[0])
        for coeff, row in zip(krow, lattice.rows):
            if coeff:
                acc = [a + coeff * x for a, x in zip(acc, row)]
        gens.append(lattice._vector(acc))
    return lattice_from_generators(gens, dim=lattice.dim, allow_zero=True)


def lattice_index(big: ZLattice, small: ZLattice):
    """Index [big : small] for small a sublattice of big; math.inf when the
    ranks differ.

    Once containment is certified and the ranks agree, both lattices have
    the same rational span and so the same pivot columns, and the index is
    the ratio of their covolumes in the pivot coordinates: the products of
    the pivots, each over its denominator to the rank."""
    if any(big.basis_coords(vec) is None for vec in small.vectors()):
        raise InvalidInputError("second lattice is not contained in the first")
    if small.rank < big.rank:
        return math.inf
    if small.rank > big.rank:
        raise InvalidInputError("containment with larger rank is impossible")
    pivots = _pivots(big.rows)
    if (small.conductor, _pivots(small.rows)) != (big.conductor, pivots):
        raise InternalConsistencyError(
            "lattices of equal rank, one inside the other, have different spans"
        )
    num, den = big.den ** big.rank, small.den ** small.rank
    for p, small_row, big_row in zip(pivots, small.rows, big.rows):
        num *= small_row[p]
        den *= big_row[p]
    index, rest = divmod(num, den)
    if rest:
        raise InternalConsistencyError(f"lattice index {num}/{den} is not an integer")
    return index


def scale_lattice(scalar, lattice: ZLattice) -> ZLattice:
    scalar = as_cycnum(scalar)
    scaled = [tuple(scalar * x for x in vec) for vec in lattice.vectors()]
    return lattice_from_generators(scaled, dim=lattice.dim)


def invariance_check(lattice: ZLattice, matrices) -> bool:
    """True when every given matrix maps the lattice into itself.

    A matrix is a groups.SparseMatrix record or a dense square matrix, which
    gets a record here; the images are read off the records' nonzero entries.
    """
    vecs = lattice.vectors()
    for mat in matrices:
        g = mat if isinstance(mat, SparseMatrix) else SparseMatrix(as_matrix(mat))
        for vec in vecs:
            if not lattice.contains(apply(g, vec)):
                return False
    return True


def lattice_to_json(lat: ZLattice) -> dict:
    """The lattice as its rational span ("ambient": the reduced row echelon
    rows, as cyclotomic vectors) and the square HNF of the lattice in the
    pivot coordinates of those rows over the least common denominator."""
    span, pivots = linalg.rref(lat.rows)
    basis = [[row[p] for p in pivots] for row in lat.rows]
    shrink = gcd(lat.den, *(x for row in basis for x in row))
    return {
        "ambient": [
            [cyc_to_json(x) for x in reassemble(lat.dim, lat.conductor, row)]
            for row in span
        ],
        "basis": [[x // shrink for x in row] for row in basis],
        "denominator": lat.den // shrink,
    }


# -- rank-two lattices in the complex line ----------------------------------


class RankTwoLattice:
    """Z g1 + Z g2 inside the complex plane, with tau = g2/g1 not real.

    A complex number w is w = x + y*tau for unique real x and y: conjugating
    gives w - conj(w) = y * (tau - conj(tau)), and tau - conj(tau) is not
    zero.  So value / g1 lies in the rational span of 1 and tau exactly when
    those x and y are rational.
    """

    __slots__ = ("g1", "g2", "_tau", "_skew_inverse")

    def __init__(self, g1, g2):
        g1, g2 = as_cycnum(g1), as_cycnum(g2)
        if g1.is_zero() or g2.is_zero():
            raise InvalidInputError("rank-two lattice needs nonzero generators")
        tau = g2 / g1
        skew = tau - tau.conjugate()
        if skew.is_zero():
            raise NotDiscreteError("generators are dependent over the reals")
        self.g1 = g1
        self.g2 = g2
        self._tau = tau
        self._skew_inverse = skew.inverse()

    def tau(self) -> CycNum:
        return self._tau

    def coords_of(self, value):
        """Rational [x, y] with value = x*g1 + y*g2, or None."""
        w = as_cycnum(value) / self.g1
        y = (w - w.conjugate()) * self._skew_inverse
        if not y.is_rational():
            return None
        x = w - y * self._tau
        if not x.is_rational():
            return None
        return [x.as_fraction(), y.as_fraction()]

    def contains(self, value) -> bool:
        coords = self.coords_of(value)
        return coords is not None and all(c.denominator == 1 for c in coords)

    def __eq__(self, other):
        if not isinstance(other, RankTwoLattice):
            return NotImplemented
        return self.g1 == other.g1 and self.g2 == other.g2

    def __hash__(self):
        return hash((self.g1, self.g2))

    def __repr__(self):
        return f"RankTwoLattice({self.g1}, {self.g2})"


class MultiplierRing(Record):
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
