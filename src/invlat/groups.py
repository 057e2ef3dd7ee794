"""Finite matrix groups with exact cyclotomic entries.

Provides breadth-first closure from generators, characters, the exact
irreducibility test by the character norm, averaged invariant Hermitian
forms, and detection of (complex) reflections, each recorded with the
rank-one factorization id - g = root * functional that the later reflection
stages read.
"""

from __future__ import annotations

from math import lcm

from . import linalg
from .cyclotomic import MAX_CONDUCTOR, CycNum, as_cycnum, cyc_from_json, exact_sign
from .errors import CapExceededError, InternalConsistencyError, InvalidInputError
from .records import Record

_ZERO, _ONE = CycNum.rational(0), CycNum.rational(1)

# The largest dimension and generator count a group input may give.  Parsing
# and the closure cost grow with both, so a larger input is rejected before
# any entry is parsed.  Both sit well above the groups in use: the catalog
# and the generated groups have dimension at most 4 and at most 4 generators.
MAX_DIMENSION = 32
MAX_GENERATORS = 64


def as_matrix(rows):
    """Canonical immutable matrix with CycNum entries."""
    mat = tuple(tuple(as_cycnum(x) for x in row) for row in rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise InvalidInputError("matrix must be square and nonempty")
    return mat


class SparseMatrix:
    """The nonzero entries of a square matrix, by row and by column.

    Each entry is an (index, value) pair, with value None where the entry is
    1, so a product with the matrix skips every zero term and multiplies by
    no entry equal to 1.  Generators are mostly permutation, diagonal,
    monomial or one-row Weyl matrices, so nearly all of their entries are 0
    or 1.
    """

    __slots__ = ("matrix", "rows", "cols")

    def __init__(self, mat):
        self.matrix = mat
        self.rows = _nonzero_entries(mat)
        self.cols = _nonzero_entries(zip(*mat))


def _nonzero_entries(lines):
    return tuple(
        tuple(
            (k, None if x == _ONE else x)
            for k, x in enumerate(line)
            if not x.is_zero()
        )
        for line in lines
    )


def _sparse_dot(entries, vec):
    """The sum of value * vec[k] over the (k, value) entries, without zero
    terms; a value of None stands for 1."""
    total = None
    for k, a in entries:
        x = vec[k]
        if x.is_zero():
            continue
        if a is not None:
            x = a * x
        total = x if total is None else total + x
    return _ZERO if total is None else total


def right_mul(a, g: SparseMatrix):
    """The matrix a * g, read off the columns of g."""
    return tuple(tuple(_sparse_dot(col, row) for col in g.cols) for row in a)


def apply(g: SparseMatrix, vec):
    """The vector g * vec, read off the rows of g."""
    return tuple(_sparse_dot(row, vec) for row in g.rows)


def mat_identity(n):
    one, zero = CycNum.rational(1), CycNum.rational(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def conj_transpose(mat):
    n = len(mat)
    return tuple(tuple(mat[j][i].conjugate() for j in range(n)) for i in range(n))


def trace(mat):
    return sum((mat[i][i] for i in range(len(mat))), CycNum.rational(0))


class GroupRep:
    """A finite group of invertible matrices, closed under multiplication.

    The elements are kept in the breadth-first order of `close_group`, the
    identity first.  The sparse records of the generators are kept for every
    later product with a generator.  The character is filled on the first
    `character` call and the reflection inventory on the first
    `find_reflections` call.
    """

    __slots__ = (
        "dimension", "generators", "sparse_generators", "elements",
        "_character", "_reflections",
    )

    def __init__(self, dimension, sparse_generators, elements):
        self.dimension = dimension
        self.sparse_generators = tuple(sparse_generators)
        self.generators = tuple(g.matrix for g in self.sparse_generators)
        self.elements = tuple(elements)
        self._character = None
        self._reflections = None

    @property
    def order(self):
        return len(self.elements)

    @property
    def conductor(self):
        out = 1
        for g in self.generators:
            for row in g:
                for x in row:
                    out = lcm(out, x.conductor)
        return out


def close_group(generators, cap: int = 10000) -> GroupRep:
    """Breadth-first closure of the generated matrix group, capped.

    Each generator must have full rank; a sparse record of it is built once,
    and every new element is current*g read off that record, skipping zero
    terms and multiplications by 1.  No matrix is inverted: a finite set of
    invertible matrices closed under products is a group, since g^k = id
    for some k, and an infinite one exceeds the cap.
    """
    gens = [as_matrix(g) for g in generators]
    if not gens:
        raise InvalidInputError("at least one generator required")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise InvalidInputError("generators have mixed dimensions")
    if any(linalg.rank(g) != n for g in gens):
        raise InvalidInputError("generator is singular")
    sparse = [SparseMatrix(g) for g in gens]
    identity = mat_identity(n)
    seen = {identity}
    order = [identity]
    for current in order:  # order grows in BFS order as it is read
        for g in sparse:
            prod = right_mul(current, g)
            if prod not in seen:
                if len(order) >= cap:
                    raise CapExceededError(
                        f"group closure exceeded the cap of {cap} elements"
                    )
                seen.add(prod)
                order.append(prod)
    return GroupRep(n, sparse, order)


def character(group: GroupRep):
    """Trace of each element, in element order; computed once per group and
    kept on it."""
    if group._character is None:
        group._character = tuple(trace(m) for m in group.elements)
    return group._character


def character_norm(group: GroupRep) -> CycNum:
    """<chi, chi> = (1/|G|) sum chi(g) conj chi(g), exact.

    The group is finite, so chi(g^-1) = conj chi(g)."""
    total = CycNum.rational(0)
    for x in character(group):
        total = total + x * x.conjugate()
    return total / group.order


def invariant_hermitian(group: GroupRep):
    """The averaged invariant positive-definite Hermitian form (1/|G|) sum g^H g."""
    n = group.dimension
    zero = CycNum.rational(0)
    total = [[zero] * n for _ in range(n)]
    for m in group.elements:
        mh = conj_transpose(m)
        prod = linalg.matmul(mh, m)
        total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, prod)]
    gram = tuple(tuple(x / group.order for x in row) for row in total)
    if gram != conj_transpose(gram):
        raise InvalidInputError("averaged form is not Hermitian")
    for k in range(1, n + 1):
        minor = [list(row[:k]) for row in gram[:k]]
        d = linalg.det(minor)
        if not d.is_real() or exact_sign(d) <= 0:
            raise InvalidInputError("averaged form is not positive definite")
    return gram


class ReflectionData(Record):
    """A group element fixing a hyperplane pointwise, with the rank-one
    factorization id - matrix = root * functional.  Only the reflection scan
    makes these records, and it checks the factorization as it makes one."""

    element_index: int
    matrix: tuple
    theta: CycNum  # the nontrivial eigenvalue, = det(matrix) = 1 - phi(alpha)
    root: tuple  # alpha: spans the moved line, first nonzero entry normalized to 1
    functional: tuple  # phi: the row of id - matrix where the root has its 1


def find_reflections(group: GroupRep):
    """All reflections in the group: elements with rank(id - g) = 1.

    The inventory is computed once per group and kept on it; every call
    returns a new list, so a caller may change its copy freely.
    """
    if group._reflections is None:
        group._reflections = tuple(_scan_reflections(group))
    return list(group._reflections)


def _scan_reflections(group: GroupRep):
    """Reflections in element order, behind an exact trace prefilter.

    A reflection g of finite order has the eigenvalue 1 on its hyperplane
    and one other eigenvalue theta != 1, a root of unity, so
    chi(g) = n - 1 + theta with theta * conj(theta) = 1.  Only the elements
    whose theta = chi(g) - (n - 1) passes that test are factored: alpha is
    the first nonzero column of id - g scaled to lead with 1 at row p, phi
    is row p, and id - g has rank one exactly when it equals alpha * phi
    entry by entry (theta != 1, so g != id).  Then g * alpha =
    (1 - phi(alpha)) * alpha, and the eigenvalue is checked against theta.
    """
    n = group.dimension
    out = []
    for idx, (mat, chi) in enumerate(zip(group.elements, character(group))):
        theta = chi - (n - 1)
        if theta == _ONE or theta * theta.conjugate() != _ONE:
            continue
        diff = [
            [(_ONE if i == j else _ZERO) - x for j, x in enumerate(row)]
            for i, row in enumerate(mat)
        ]
        p, col = next(
            (i, j) for j in range(n) for i in range(n) if not diff[i][j].is_zero()
        )
        inv = diff[p][col].inverse()
        root = tuple(row[col] * inv for row in diff)
        phi = tuple(diff[p])
        if any(x != a * f for row, a in zip(diff, root) for x, f in zip(row, phi)):
            continue
        if _ONE - sum((f * a for f, a in zip(phi, root)), _ZERO) != theta:
            raise InternalConsistencyError("root line is not an eigenline")
        out.append(ReflectionData(idx, mat, theta, root, phi))
    return out


def matrix_from_json(obj, dimension) -> tuple:
    if not isinstance(obj, list):
        raise InvalidInputError("matrix must be a list")
    if obj and not isinstance(obj[0], list):
        if len(obj) != dimension * dimension:
            raise InvalidInputError("flat matrix has wrong length")
        obj = [obj[i * dimension : (i + 1) * dimension] for i in range(dimension)]
    if any(not isinstance(row, list) for row in obj):
        raise InvalidInputError("matrix row must be a list")
    if len(obj) != dimension or any(len(row) != dimension for row in obj):
        raise InvalidInputError("matrix has wrong shape")
    return as_matrix([[cyc_from_json(x) for x in row] for row in obj])


def group_from_json(obj, cap: int = 10000) -> GroupRep:
    try:
        dimension = int(obj["dimension"])
        conductor = int(obj["conductor"])
        raw_gens = obj["generators"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad group encoding: {exc}") from exc
    if dimension < 1 or conductor < 1 or not isinstance(raw_gens, list) or not raw_gens:
        raise InvalidInputError("group needs a dimension, conductor, and generators")
    if dimension > MAX_DIMENSION:
        raise InvalidInputError(
            f"dimension {dimension} exceeds the limit of {MAX_DIMENSION}"
        )
    if len(raw_gens) > MAX_GENERATORS:
        raise InvalidInputError(
            f"{len(raw_gens)} generators exceed the limit of {MAX_GENERATORS}"
        )
    if conductor > MAX_CONDUCTOR:
        raise InvalidInputError(
            f"conductor {conductor} exceeds the limit of {MAX_CONDUCTOR}"
        )
    gens = [matrix_from_json(g, dimension) for g in raw_gens]
    for g in gens:
        for row in g:
            for x in row:
                if conductor % x.conductor:
                    raise InvalidInputError(
                        "matrix entry lies outside the declared cyclotomic field"
                    )
    return close_group(gens, cap=cap)
