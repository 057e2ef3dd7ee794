"""Reflection-group torus decomposition.

Splits an invariant lattice across the root lines of n generating
reflections, certifies the finite-index sublattice generated by the line
lattices, computes exact cycle multipliers and their CM consequences, and
assembles the isogeny graph of the line tori.  Every stage reads the
factorizations id - r = alpha * phi recorded by the reflection scan, through
the root functional matrix A[k][j] = phi_k(alpha_j), built once per
decomposition; none rebuilds id - r.  The reflections are chosen by the rank
of their roots and tested for generation on element indices, each root line
is cut from the lattice by `intersect_with_line`, the index of the line
lattices' sum is |det| of their kernel coordinates stacked, and
det s = det A, so no stage row reduces over the cyclotomic field.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations

from . import linalg
from .cyclotomic import CycNum
from .errors import InternalConsistencyError, InvalidInputError, OutOfScopeError
from .groups import GroupRep, ReflectionData, _times, find_reflections
from .lattices import (
    MultiplierRing,
    RankTwoLattice,
    ZLattice,
    intersect_with_line,
    multiplication_matrix,
    multiplier_ring,
)
from .records import Record
from .schur import CharacterFieldClass


def choose_generating_reflections(group: GroupRep):
    """n reflections whose root lines span and which generate the group.

    Greedy pass over the reflection inventory in element order; if the greedy
    choice spans but fails to generate, falls back to scanning root-spanning
    n-subsets in enumeration order, and raises OutOfScopeError when none
    generates.  The reflections lie in the group, so their closure is taken
    on element indices, and they generate the group exactly when it holds
    every generator of the group.  Each product x * r is made by `_times` on
    first use and kept for every later subset.
    """
    n = group.dimension
    inventory = find_reflections(group)
    if not inventory:
        raise InvalidInputError("group contains no reflections")

    generators = set(group.right[0])  # the element indices of the generators
    products = defaultdict(lambda: [None] * group.order)  # k -> [x * element k]

    def generates(refs) -> bool:
        rows = [(r.element_index, products[r.element_index]) for r in refs]
        seen, queue = {0}, [0]
        for x in queue:  # queue grows as it is read
            for k, row in rows:
                y = row[x]
                if y is None:
                    y = row[x] = _times(group, x, k)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
                    if y in generators and generators <= seen:
                        return True
        return False

    chosen = []
    for ref in inventory:
        if linalg.rank([r.root for r in chosen] + [ref.root]) > len(chosen):
            chosen.append(ref)
            if len(chosen) == n:
                break
    if len(chosen) == n and generates(chosen):
        return tuple(chosen)
    for combo in combinations(inventory, n):
        if linalg.rank([list(r.root) for r in combo]) == n and generates(combo):
            return tuple(combo)
    raise OutOfScopeError(
        "no spanning set of n reflections generates the group"
    )


class LineLattice(Record):
    """The intersection of the invariant lattice with one root line."""

    line_index: int
    reflection: ReflectionData
    lattice: ZLattice
    scalars: RankTwoLattice | None  # lattice read along the root, when rank 2
    multiplier: MultiplierRing | None

    @property
    def rank(self) -> int:
        return self.lattice.rank


class ReflectionDecomposition(Record):
    ambient: ZLattice
    reflections: tuple
    lines: tuple  # LineLattice per root line
    index: int  # [ambient : sum of the line lattices]
    s_det: CycNum  # det of s = sum of (id - r_j) = sum of alpha_j phi_j
    functionals: tuple  # the root functional matrix A[k][j] = phi_k(alpha_j)


def _scalar_along_root(root, vector):
    """The scalar a with vector = a*root, or None; the root leads with 1."""
    a = vector[next(p for p, x in enumerate(root) if not x.is_zero())]
    if all((x - a * y).is_zero() for x, y in zip(vector, root)):
        return a
    return None


def line_lattice_decomposition(lattice: ZLattice, refs) -> ReflectionDecomposition:
    """Split the lattice across the root lines of the given reflections.

    s is R Phi, with the roots as the columns of R and the functionals as
    the rows of Phi, and the root functional matrix A is Phi R, so det s is
    det A.  The root lines are independent, so the line lattices' sum is
    direct, and it has finite index exactly when the coordinates of their
    bases in the lattice basis, stacked, make a square matrix of nonzero
    determinant; the index is its absolute value (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4.3)."""
    n = lattice.dim
    refs = tuple(refs)
    if len(refs) != n or linalg.rank([list(r.root) for r in refs]) != n:
        raise InvalidInputError("need n reflections with spanning root lines")
    lines, coords = [], []
    for j, ref in enumerate(refs):
        piece, kernel = intersect_with_line(lattice, ref.root)
        coords += kernel
        scalars = None
        ring = None
        if piece.rank == 2:
            a, b = (
                _scalar_along_root(ref.root, v) for v in piece.vectors()
            )
            if a is None or b is None:
                raise InternalConsistencyError("line lattice left its line")
            scalars = RankTwoLattice(a, b)
            ring = multiplier_ring(scalars)
        lines.append(LineLattice(j, ref, piece, scalars, ring))
    if lattice.rank == 2 * n and any(line.rank != 2 for line in lines):
        raise InternalConsistencyError(
            "rank-2n lattice met a root line in rank != 2"
        )
    index = linalg.abs_det(coords) if len(coords) == lattice.rank else 0
    if not index:
        raise InternalConsistencyError("line-lattice sum has deficient rank")
    a = root_functional_matrix(refs)
    s_det = linalg.det(a)
    if s_det.is_zero():
        raise InternalConsistencyError("sum of (id - r_j) is degenerate")
    return ReflectionDecomposition(lattice, refs, tuple(lines), index, s_det, a)


def root_functional_matrix(refs):
    """A[k][j] = phi_k(alpha_j), read off the factorizations
    id - r_k = alpha_k phi_k that the reflection scan recorded."""
    zero = CycNum.rational(0)
    return tuple(
        tuple(sum((f * x for f, x in zip(k.functional, j.root)), zero) for j in refs)
        for k in refs
    )


MAX_CYCLES = 100_000  # cycles one reflection scan may enumerate


def default_cycle_bound(n: int) -> int:
    """The scan length: n + 1, lowered while the scan of lengths 1..bound
    would enumerate more than MAX_CYCLES cycles (n + n^2 + ... + n^bound),
    and at least 1.

    This is n + 1 for every n <= 5; dimension 6 gets 6 (55986 cycles instead
    of 335922), and dimension 7 gets 5.  A cycle multiplier is the weight of
    a closed walk on the root lines, with weight A[k][j] on the step j -> k.
    A closed walk splits into simple cycles of length at most n, so every
    multiplier is a product of simple-cycle multipliers: a non-rational one
    exists exactly when one of length at most n does, and the scan, ordered
    by length, meets it first.  A bound of at least n (every n <= 6) thus
    settles CM exactly; above that the scan is a bounded search.
    """
    bound, count, term = 1, n, n
    while bound <= n:
        term *= n
        count += term
        if count > MAX_CYCLES:
            break
        bound += 1
    return bound


def scan_cycle_multipliers(a, bound: int):
    """All cycle multipliers for index tuples of length 1..bound, in order,
    off the root functional matrix a of the reflections.

    The multiplier of (j1 ... jm) is the eigenvalue of
    (id - r_{j1})(id - r_{jm})...(id - r_{j2}) on root j1.  Each factor is
    alpha_k phi_k, so it is the cyclic product of a[j_{i+1}][j_i]: the
    closing entry a[j1][jm] times the prefix product P(j1 ... jm) of
    a[j_{i+1}][j_i] for i < m.  The cycles of each length come in
    lexicographic order, those of length m being the ones of length m - 1,
    in their order, each extended by every index; so each prefix product
    is the one before times one factor, and a zero prefix stays zero.
    """
    n = len(a)
    zero = CycNum.rational(0)
    out = [((j,), a[j][j]) for j in range(n)]
    prefixes = [((j,), None) for j in range(n)]  # None: the empty product 1
    for length in range(2, bound + 1):
        grown = []
        for cycle, p in prefixes:
            last, closing = cycle[-1], a[cycle[0]]
            for k in range(n):
                step = a[k][last]
                if p is None:
                    q = step
                elif p.is_zero() or step.is_zero():
                    q = zero
                else:
                    q = p * step
                extended = cycle + (k,)
                c = closing[k]
                out.append((extended, zero if q.is_zero() or c.is_zero() else c * q))
                if length < bound:
                    grown.append((extended, q))
        prefixes = grown
    return out


class CmRecord(Record):
    cycle: tuple
    value: CycNum
    line_index: int
    ring: MultiplierRing


def cm_from_scan(dec: ReflectionDecomposition, scanned):
    """First non-rational multiplier of a scanned list of (cycle, value) pairs,
    verified to multiply its line lattice."""
    for cycle, value in scanned:
        if value.is_rational():
            continue
        line = dec.lines[cycle[0]]
        if multiplication_matrix(line.lattice, value) is None:
            raise InternalConsistencyError(
                "non-rational multiplier does not preserve its line lattice"
            )
        if line.scalars is None:
            raise InternalConsistencyError("CM line lattice has rank != 2")
        return CmRecord(cycle, value, cycle[0], line.multiplier)
    return None


class IsogenyEdge(Record):
    source: int
    target: int
    index: int  # [line lattice of target : (id - r_target)(line lattice of source)]


class IsogenyGraph(Record):
    edges: tuple  # IsogenyEdge, both directions listed
    connected: bool


def isogeny_graph(dec: ReflectionDecomposition) -> IsogenyGraph:
    """Edges j -> k where A[k][j] = phi_k(alpha_j) is nonzero, with lattice maps.

    Every reflection is unitary for the invariant Hermitian form, so
    phi_k(alpha_j) is a nonzero multiple of <alpha_k, alpha_j>: the edges join
    the non-orthogonal root lines, and the zero pattern of A is symmetric.
    id - r_k maps a*alpha_j to a*A[k][j]*alpha_k, so the image of line j is
    spanned by (A[k][j]*g)*alpha_k for the generators g of its scalar
    lattice.  The edge's containment and index come from the integer
    coordinates of those two vectors in line k's lattice basis: both exist,
    and the index is the absolute 2x2 determinant.
    """
    if any(line.scalars is None for line in dec.lines):
        raise InvalidInputError("isogeny graph needs line lattices of rank 2")
    n = len(dec.reflections)
    a = dec.functionals
    if any(a[k][j].is_zero() != a[j][k].is_zero() for j in range(n) for k in range(j)):
        raise InternalConsistencyError(
            "root functional matrix has an asymmetric zero pattern"
        )
    edges = []
    adjacency = {j: set() for j in range(n)}
    for j in range(n):
        source = dec.lines[j].scalars
        for k in range(n):
            if j == k or a[k][j].is_zero():
                continue
            target, root = dec.lines[k].lattice, dec.reflections[k].root
            rows = [target.basis_coords(tuple(s * x for x in root))
                    for s in (a[k][j] * source.g1, a[k][j] * source.g2)]
            if None in rows:
                raise InternalConsistencyError(
                    "reflection image left the target line lattice"
                )
            idx = linalg.abs_det(rows)
            if idx == 0:
                raise InternalConsistencyError("isogeny witness dropped rank")
            edges.append(IsogenyEdge(j, k, idx))
            adjacency[j].add(k)  # the zero pattern is symmetric: k -> j is an edge too
    seen = {0}
    queue = [0]
    while queue:
        for nxt in adjacency[queue.pop(0)]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if len(seen) != n:
        raise InternalConsistencyError(
            "isogeny graph disconnected for an irreducible group"
        )
    return IsogenyGraph(tuple(edges), True)


class GeomReport(Record):
    decomposition: ReflectionDecomposition
    graph: IsogenyGraph
    multipliers: tuple  # (cycle, value) pairs scanned
    cm: CmRecord | None
    weyl_like: bool  # rational character field
    tags: tuple  # subset of ("geom-i", "geom-ii", "geom-iii")


def geom_report(
    group: GroupRep, lattice: ZLattice, field: CharacterFieldClass
) -> GeomReport:
    """Full reflection-torus analysis of an invariant rank-2n lattice.

    `field` is the group's character field class, from its profile.  The
    cycle scan runs to `default_cycle_bound(n)`.  Every cycle multiplier is
    a product of simple-cycle multipliers, of length at most n, so a longer
    scan never changes `cm` or the geom-iii tag: `cm` is exact for n <= 6,
    where the bound is at least n, and a bounded search for n >= 7.  Every
    cycle multiplier lies in the character field, so a rational field gives
    `cm` None at any n.  The smallest irreducible reflection group of rank
    n >= 7 with a non-rational character field is G(3,3,7), of order
    3^6 * 7! = 3,674,160, above `groups.MAX_CAP`; so on every group the
    CLI's cap admits, `cm` is exact.
    """
    n = group.dimension
    if lattice.rank != 2 * n:
        raise InvalidInputError(
            f"lattice rank {lattice.rank} is not twice the dimension {n}"
        )
    refs = choose_generating_reflections(group)
    dec = line_lattice_decomposition(lattice, refs)
    graph = isogeny_graph(dec)
    multipliers = tuple(scan_cycle_multipliers(dec.functionals, default_cycle_bound(n)))
    cm = cm_from_scan(dec, multipliers)
    weyl_like = field.kind == "rational"
    if weyl_like and cm is not None:
        raise InternalConsistencyError(
            "rational character field with a non-rational cycle multiplier"
        )
    tags = ["geom-i", "geom-ii"]
    if cm is not None:
        tags.append("geom-iii")
    return GeomReport(dec, graph, multipliers, cm, weyl_like, tuple(tags))
