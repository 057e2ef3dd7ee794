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
an exact zero residual.  The points on the complex line of a root r are
one integer left kernel on the basis's integer rows: with p the first
nonzero entry of r, v lies on the line exactly when
r_p * v_j - r_j * v_p = 0 for every j != p, and each product is a block of
the entries' multiplication matrices; the kernel rows are the line's
coordinates in the lattice basis, and they combine the lattice's rows.
Multiplication by a number x is one integer matrix in the lattice basis
(`multiplication_matrix`): the rows times x's multiplication matrix, read
back by the same back-substitution, or None when x*L is not inside L.  The
same block product gives the rows of c*L that `forge.extend_rank_2n` stacks
with those of L.

Discreteness is decided on the basis vectors: each vector v is extended by
its conjugate to (v | conj v), which stays inside the cyclotomic field, and
the rank of the extended rows over the field must equal their number.
Every builder runs that check.  At conductor 1 the HNF rows settle it.
Otherwise full rank is certified modulo a prime ideal above a prime
l = 1 mod N, through the ring map z_N -> g onto F_l, on the integer rows;
only a rank-deficient image goes on to the exact rank over the field.

RankTwoLattice is a lattice of rank 2 inside the complex line, the lattice of
an elliptic-curve factor, kept as its generators g1, g2 and tau = g2/g1,
which is not real.  `multiplier_ring` gives the order of multipliers of one,
read off the trace and norm of tau: the CM order of an elliptic-curve
factor, or the order a `ds` doubling scalar generates.  Coordinates in a
line lattice come from `ZLattice.basis_coords`, as in any other lattice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import mul

from . import linalg
from .cyclotomic import (
    CycNum, as_cycnum, common_conductor, cyc_to_json, multiplication_rows, splitting_prime,
    squarefree_part,
)
from .errors import InternalConsistencyError, InvalidInputError, NotDiscreteError
from .groups import apply
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

    def combination(self, coords):
        """The vector sum coords[i] * b_i of the basis vectors b_i, for
        integer coordinates coords."""
        return self._vector([sum(map(mul, coords, col)) for col in zip(*self.rows)])

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


def lattice_from_generators(vectors, dim=None):
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


def intersect_with_line(lattice: ZLattice, root):
    """(line lattice, coords): the lattice points on the complex line of the
    nonzero vector root, and the canonical HNF rows coords of the integer
    combinations of the basis that lie on it.

    With p the first nonzero entry of root, v lies on the line exactly when
    root_p * v_j - root_j * v_p = 0 for every j != p; root is first scaled
    by its common denominator, which keeps its line.  At N, the lcm of the
    two conductors, each product is a block of `multiplication_rows`, so on
    the integer rows R of the basis the condition is one integer matrix
    R @ C, and coords is its left kernel.  The line lattice is spanned by
    coords @ rows over den, the lattice's own rows, and its least den is den
    over the gcd of den and their entries.  Its entries lie in the lattice's
    field; when their least conductor is below the lattice's, it is rebuilt
    from its vectors at that conductor."""
    root = [as_cycnum(x) for x in root]
    dim = lattice.dim
    if len(root) == 1 or not lattice.rows:
        return lattice, [[int(i == j) for j in range(lattice.rank)] for i in range(lattice.rank)]
    conductor = lcm(lattice.conductor, common_conductor(root))
    (flat,), _ = _integer_rows([root], conductor)
    width = len(flat) // dim
    entries = [flat[k : k + width] for k in range(0, len(flat), width)]
    p = next(j for j, x in enumerate(entries) if any(x))
    # the columns of each nonzero entry's multiplication matrix
    columns = [list(zip(*multiplication_rows(x, conductor))) if any(x) else None
               for x in entries]
    rows, _ = lattice._rows_at(conductor)
    condition = []
    for row in rows:
        v = [row[k : k + width] for k in range(0, len(row), width)]
        out = []
        for j in range(dim):
            if j == p:
                continue
            block = [sum(map(mul, v[j], col)) for col in columns[p]]
            if columns[j] is not None:
                block = [x - sum(map(mul, v[p], col)) for x, col in zip(block, columns[j])]
            out.extend(block)
        condition.append(out)
    coords = linalg.int_kernel(condition)
    if not coords:
        return ZLattice(dim, 1, (), 1), coords
    gens = linalg.matmul(coords, lattice.rows)
    shrink = gcd(lattice.den, *(x for row in gens for x in row))
    if shrink != 1:
        gens = [[x // shrink for x in row] for row in gens]
    basis = tuple(tuple(row) for row in linalg.hnf(gens))
    line = ZLattice(dim, lattice.conductor, basis, lattice.den // shrink)
    if lattice.conductor > 1 and common_conductor(
        x for vec in line.vectors() for x in vec
    ) < lattice.conductor:
        return lattice_from_generators(line.vectors(), dim=dim), coords
    _check_discrete(line)
    return line, coords


def _times_rows(rows, nums, conductor):
    """x times each integer row, for x = sum nums[k] z^k with integer nums
    at the conductor: every entry block of the row times the matrix of
    `multiplication_rows`."""
    columns = list(zip(*multiplication_rows(nums, conductor)))
    width = len(columns)
    return [[sum(map(mul, row[k : k + width], col))
             for k in range(0, len(row), width) for col in columns] for row in rows]


def multiplication_matrix(lattice: ZLattice, x):
    """The integer matrix M of v -> x*v in the lattice basis, so that
    x * b_i = sum_j M[i][j] * b_j for the basis vectors b_i, or None when
    x*L is not inside L.

    Each entry block of a row of the lattice, times the matrix of
    `multiplication_rows` of x's numerators at the conductor, is that block
    of the row of x * b_i times x's denominator; after that division the row
    has integer coordinates in the rows exactly when x * b_i lies in L.  An
    x outside the field of the conductor moves every nonzero vector out of
    it."""
    x = as_cycnum(x)
    conductor, rows = lattice.conductor, lattice.rows
    if conductor % x.conductor:
        return None if rows else []
    nums, den = x.numerators_at(conductor)
    out = []
    for image in _times_rows(rows, nums, conductor):
        if den != 1:
            if any(c % den for c in image):
                return None
            image = [c // den for c in image]
        coords = linalg.hnf_coords(rows, image)
        if coords is None:
            return None
        out.append(coords)
    return out


def invariance_check(lattice: ZLattice, matrices) -> bool:
    """True when every given matrix maps the lattice into itself.

    The matrices are groups.SparseMatrix records; the images are read off
    their nonzero entries.
    """
    vecs = lattice.vectors()
    for g in matrices:
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
    """Z g1 + Z g2 inside the complex plane, with tau = g2/g1 not real, so
    that g1 and g2 are independent over the reals."""

    __slots__ = ("g1", "g2", "_tau")

    def __init__(self, g1, g2):
        g1, g2 = as_cycnum(g1), as_cycnum(g2)
        if g1.is_zero() or g2.is_zero():
            raise InvalidInputError("rank-two lattice needs nonzero generators")
        tau = g2 / g1
        if (tau - tau.conjugate()).is_zero():
            raise NotDiscreteError("generators are dependent over the reals")
        self.g1 = g1
        self.g2 = g2
        self._tau = tau

    def tau(self) -> CycNum:
        return self._tau

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


def fundamental_discriminant(n: int) -> int:
    m = squarefree_part(n)
    return m if m % 4 == 1 else 4 * m


def multiplier_ring(gamma: RankTwoLattice) -> MultiplierRing:
    """The multiplier ring of gamma, read off tau = g2 / g1.  Since tau is not
    real, it is quadratic exactly when its trace tau + conj tau and its norm
    tau * conj tau are rational, and then tau^2 = trace * tau - norm."""
    tau = gamma.tau()
    trace, norm = tau + tau.conjugate(), tau * tau.conjugate()
    if not (trace.is_rational() and norm.is_rational()):
        return MultiplierRing("Z")
    p, q = trace.as_fraction(), -norm.as_fraction()  # tau^2 = p tau + q
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
