"""Finite matrix groups with exact cyclotomic entries.

Provides the closure from generators, taken on the indices of each
element's rows in the orbit of the standard row basis, products of elements
on their indices, the conjugacy classes and their power map, characters
evaluated once per class, eigenvalue multiplicities read off the character,
the exact irreducibility test by the character norm, and detection of
(complex) reflections, each recorded with the rank-one factorization
id - g = root * functional that the later reflection stages read.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import itemgetter

from . import linalg
from .cyclotomic import (
    MAX_CONDUCTOR, CycNum, as_cycnum, common_conductor, cyc_from_json,
)
from .errors import CapExceededError, InternalConsistencyError, InvalidInputError
from .records import Record

_ZERO, _ONE = CycNum.rational(0), CycNum.rational(1)

# The largest dimension and generator count a group input may give.  Parsing
# and the closure cost grow with both, so a larger input is rejected before
# any entry is parsed.  Both sit well above the groups in use: the catalog
# and the generated groups have dimension at most 4 and at most 4 generators.
MAX_DIMENSION = 32
MAX_GENERATORS = 64
# The default closure cap: the most elements a closure builds before it
# raises CapExceededError.
DEFAULT_CAP = 10000
# The largest closure cap the CLI accepts: a closure keeps every element it
# builds, so a larger cap would let one large group fill the memory.
MAX_CAP = 100_000


def as_matrix(rows):
    """Canonical immutable matrix with CycNum entries."""
    mat = tuple(tuple(as_cycnum(x) for x in row) for row in rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise InvalidInputError("matrix must be square and nonempty")
    return mat


class SparseMatrix:
    """The nonzero entries of each row of a square matrix.

    Each entry is an (index, value) pair, with value None where the entry is
    1, so a product with the matrix skips every zero term and multiplies by
    no entry equal to 1.  Generators are mostly permutation, diagonal,
    monomial or one-row Weyl matrices, so nearly all of their entries are 0
    or 1.
    """

    __slots__ = ("matrix", "rows")

    def __init__(self, mat):
        self.matrix = mat
        self.rows = tuple(
            tuple(
                (k, None if x == _ONE else x)
                for k, x in enumerate(row)
                if not x.is_zero()
            )
            for row in mat
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


def apply(g: SparseMatrix, vec):
    """The vector g * vec, read off the rows of g."""
    return tuple(_sparse_dot(row, vec) for row in g.rows)


def trace(mat):
    return sum((mat[i][i] for i in range(len(mat))), CycNum.rational(0))


class GroupRep:
    """A finite group of invertible matrices, closed under multiplication.

    The group acts on the right on `rows`, the orbit of the standard row
    basis e_1 ... e_n under r -> r * g, whose first n points are the basis
    itself.  The elements are in the breadth-first order of `close_group`,
    the identity first.  Each element's matrix is made of n of those rows,
    shared with every other element that has them.  right[k][s] is the index
    of element k times generator s, and tree[k] = (p, s) says that element
    k > 0 was first reached as element p times generator s.  The sparse
    records of the generators are kept for every later product with a
    generator.  The conjugacy classes, the character, the power map, the
    character's z^0 coordinates and the reflection inventory are each found
    on the first call that reads them and kept.
    """

    __slots__ = (
        "dimension", "generators", "sparse_generators", "rows", "elements",
        "right", "tree", "_classes", "_class_of", "_class_character",
        "_power_classes", "_character_z0", "_reflections",
    )

    def __init__(self, sparse_generators, rows, elements, right, tree):
        self.sparse_generators = tuple(sparse_generators)
        self.generators = tuple(g.matrix for g in self.sparse_generators)
        self.dimension = len(self.generators[0])
        self.rows = tuple(rows)
        self.elements = tuple(elements)
        self.right = tuple(right)
        self.tree = tuple(tree)
        self._classes = self._class_of = self._reflections = None
        self._class_character = self._power_classes = self._character_z0 = None

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


def _cap_error(cap):
    return CapExceededError(f"group closure exceeded the cap of {cap} elements")


def _row_orbit(generators, n, cap):
    """(rows, generator permutations): the orbit of the rows e_1 ... e_n under
    r -> r * g over the generators g, the basis first, with one `apply` of
    the transpose of g per point and generator; perm[k] is the index of
    rows[k] * g.

    Each basis row's orbit has at most |G| points, so a group with
    |G| <= cap has at most n * cap of them, and more points exceed the cap.
    """
    transposes = [SparseMatrix(tuple(zip(*g))) for g in generators]
    rows = [tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)]
    where = {r: k for k, r in enumerate(rows)}
    images = [[] for _ in transposes]
    for row in rows:  # rows grows in BFS order as it is read
        for g_t, perm in zip(transposes, images):
            image = apply(g_t, row)
            k = where.get(image)
            if k is None:
                if len(rows) >= n * cap:
                    raise _cap_error(cap)
                k = where[image] = len(rows)
                rows.append(image)
            perm.append(k)
    return rows, [tuple(perm) for perm in images]


def _taker(key):
    """The map seq -> (seq[k] for k in key), as a tuple."""
    if len(key) == 1:
        k = key[0]
        return lambda seq: (seq[k],)
    return itemgetter(*key)


def close_group(generators, cap: int = DEFAULT_CAP) -> GroupRep:
    """Breadth-first closure of the generated matrix group, capped.

    Each generator must have full rank.  The generators permute the finite
    orbit of the standard row basis (`_row_orbit`), and an element is known
    by its n rows, so it is kept as their n indices in that orbit.  The rows
    of current*g are the rows of current times g, so the key of current*g is
    perm[k] for each k in the key of current, with perm g's permutation of
    the orbit: the closure visits the elements in the order a closure on
    matrices would, and it keeps n indices per element whatever the length
    of the orbit.  The matrices are built once the closure has succeeded.
    No matrix is inverted: a finite set of invertible matrices closed under
    products is a group, since g^k = id for some k, and an infinite one
    exceeds the cap.
    """
    gens = [as_matrix(g) for g in generators]
    if not gens:
        raise InvalidInputError("at least one generator required")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise InvalidInputError("generators have mixed dimensions")
    if any(linalg.rank(g) != n for g in gens):
        raise InvalidInputError("generator is singular")
    rows, gen_perms = _row_orbit(gens, n, cap)
    identity = tuple(range(n))
    index = {identity: 0}
    keys = [identity]
    right, tree = [], [None]
    for k, current in enumerate(keys):  # keys grows in BFS order as it is read
        take = _taker(current)
        products = []
        for s, perm in enumerate(gen_perms):
            prod = take(perm)
            j = index.get(prod)
            if j is None:
                if len(keys) >= cap:
                    raise _cap_error(cap)
                j = index[prod] = len(keys)
                keys.append(prod)
                tree.append((k, s))
            products.append(j)
        right.append(tuple(products))
    elements = [_taker(key)(rows) for key in keys]
    return GroupRep([SparseMatrix(g) for g in gens], rows, elements, right, tree)


def _left_multiples(group: GroupRep, h):
    """[h * x for each element x], as element indices, read off the right
    products: x = p * g along the closure tree, so h * x = (h * p) * g."""
    right = group.right
    out = [h]
    for p, s in group.tree[1:]:
        out.append(right[out[p]][s])
    return out


def _times(group: GroupRep, x, y):
    """The index of x * y: x times the generators on y's closure-tree path."""
    path = []
    while y:
        y, s = group.tree[y]
        path.append(s)
    for s in reversed(path):
        x = group.right[x][s]
    return x


def conjugacy_classes(group: GroupRep):
    """The conjugacy classes, each a tuple of element indices in element
    order, the classes ordered by their first member; found once per group
    and kept on it.

    The class of x is its orbit under x -> g^-1 * x * g over the generators
    g, taken on element indices: g^-1 is the last power of g before the
    identity, and g^-1 * x comes from `_left_multiples`.  Every h in the
    finite group is a product of generators, so iterated conjugation by
    them reaches every h^-1 x h.
    """
    if group._classes is None:
        right = group.right
        conjugations = []
        for s in range(len(group.generators)):
            g_inv, power = 0, right[0][s]
            while power:
                g_inv, power = power, right[power][s]
            conjugations.append([right[y][s] for y in _left_multiples(group, g_inv)])
        class_of = [None] * group.order
        classes = []
        for first in range(group.order):
            if class_of[first] is not None:
                continue
            label = len(classes)
            class_of[first] = label
            members = [first]
            for k in members:  # members grows as it is read
                for conj in conjugations:
                    y = conj[k]
                    if class_of[y] is None:
                        class_of[y] = label
                        members.append(y)
            classes.append(tuple(sorted(members)))
        group._classes, group._class_of = tuple(classes), tuple(class_of)
    return group._classes


def class_character(group: GroupRep):
    """chi on each conjugacy class, in class order: the trace of the first
    member, computed once per group and kept on it."""
    if group._class_character is None:
        group._class_character = tuple(
            trace(group.elements[cls[0]]) for cls in conjugacy_classes(group)
        )
    return group._class_character


def power_classes(group: GroupRep):
    """For each conjugacy class, the classes of x^0 ... x^(o-1), x its first
    member and o the order of x, kept on the group.  The powers of x come
    from `_times`; the first member of the class of x^a is conjugate to x^a,
    so its j-th power lies in the class of x^(a*j): its row is read off x's."""
    if group._power_classes is None:
        out = [None] * len(conjugacy_classes(group))
        for k, cls in enumerate(conjugacy_classes(group)):
            if out[k] is None:
                seq, x = [0], cls[0]
                while x:
                    seq.append(group._class_of[x])
                    x = _times(group, x, cls[0])
                o = len(seq)
                for a, c in enumerate(seq):
                    if out[c] is None:
                        out[c] = tuple(seq[a * j % o] for j in range(o // gcd(a, o)))
        group._power_classes = tuple(out)
    return group._power_classes


def eigenvalue_multiplicity(group: GroupRep, k, sign) -> int:
    """The multiplicity of the eigenvalue sign = +1 or -1 of the first member
    x of class k: (1/o) sum sign^j chi(x^j) over j < o, o the order of x,
    and 0 for -1 when o is odd.  The sum is rational, so it is the sum of the
    integer z^0 coordinates of its terms at the class values' conductor."""
    seq = power_classes(group)[k]
    if sign == -1 and len(seq) % 2:
        return 0
    if group._character_z0 is None:
        chi = class_character(group)
        conductor = common_conductor(chi)
        group._character_z0 = tuple(x.numerators_at(conductor)[0][0] for x in chi)
    value = sum(group._character_z0[c] * sign**j for j, c in enumerate(seq))
    if value % len(seq):
        raise InternalConsistencyError(f"eigenvalue {sign} multiplicity {value}/{len(seq)}")
    return value // len(seq)


def class_sum(group: GroupRep, values) -> CycNum:
    """The sum of |C| * values[C] over the conjugacy classes C, exact.

    The sum is taken on the integer numerators of the values at their common
    conductor, over the lcm of their denominators, so it forms no CycNum
    product and no Fraction.
    """
    conductor = common_conductor(values)
    parts = [v.numerators_at(conductor) for v in values]
    den = lcm(*(d for _, d in parts))
    total = [0] * len(parts[0][0])
    for cls, (nums, d) in zip(conjugacy_classes(group), parts):
        scale = len(cls) * (den // d)
        for k, c in enumerate(nums):
            if c:
                total[k] += scale * c
    return CycNum.from_numerators(conductor, total, den)


def character_norm(group: GroupRep) -> CycNum:
    """<chi, chi> = (1/|G|) sum |C| chi(C) conj chi(C) over the classes C,
    exact.

    The group is finite, so chi(g^-1) = conj chi(g).  Each product is the
    autocorrelation of the value's integer numerators at the common
    conductor N, folded modulo z^N = 1 into one integer sum over the lcm of
    the squared denominators; that sum is reduced once, at the end."""
    chi = class_character(group)
    conductor = common_conductor(chi)
    parts = [x.numerators_at(conductor) for x in chi]
    den = lcm(*(d * d for _, d in parts))
    total = [0] * conductor
    for cls, (nums, d) in zip(conjugacy_classes(group), parts):
        scale = len(cls) * (den // (d * d))
        terms = [(k, c) for k, c in enumerate(nums) if c]
        for j, a in terms:
            a *= scale
            for k, b in terms:
                total[(j - k) % conductor] += a * b
    return CycNum.from_numerators(conductor, total, den * group.order)


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
    """Reflections in element order: g is one exactly when its eigenvalue 1
    has multiplicity n - 1 (`eigenvalue_multiplicity`; the identity's is n),
    and every member of such a class is factored.  The other eigenvalue is
    theta = chi - (n - 1), and g * alpha = (1 - phi(alpha)) * alpha checks it.
    """
    n = group.dimension
    theta = {}
    for k, (cls, chi) in enumerate(zip(conjugacy_classes(group), class_character(group))):
        if eigenvalue_multiplicity(group, k, 1) == n - 1:
            theta.update((idx, chi - (n - 1)) for idx in cls)
    out = []
    for idx in sorted(theta):
        root, phi = _rank_one_factors(group.elements[idx])
        if _ONE - sum((f * a for f, a in zip(phi, root)), _ZERO) != theta[idx]:
            raise InternalConsistencyError("root line is not an eigenline")
        out.append(ReflectionData(idx, group.elements[idx], theta[idx], root, phi))
    return out


def _rank_one_factors(mat):
    """(alpha, phi) with id - mat = alpha * phi, else raises: alpha is the first
    nonzero column of id - mat scaled to lead with 1 at row p, phi is row p."""
    n = len(mat)
    diff = [
        [(_ONE if i == j else _ZERO) - x for j, x in enumerate(row)]
        for i, row in enumerate(mat)
    ]
    p, col = next(
        (i, j) for j in range(n) for i in range(n) if not diff[i][j].is_zero()
    )
    if all(diff[i][col].is_zero() for i in range(p + 1, n)):
        root = tuple(_ONE if i == p else _ZERO for i in range(n))
    else:
        inv = diff[p][col].inverse()
        root = tuple(row[col] * inv for row in diff)
    phi = tuple(diff[p])
    if any(x != a * f for row, a in zip(diff, root) for x, f in zip(row, phi)):
        raise InternalConsistencyError("a reflection is not root times functional")
    return root, phi


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


def group_from_json(obj, cap: int = DEFAULT_CAP) -> GroupRep:
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
