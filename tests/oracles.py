"""Shared independent oracles for the test suite."""

from fractions import Fraction
from math import gcd, lcm

from invlat import linalg
from invlat.cyclotomic import CycNum
from invlat.groups import as_matrix, character, invariant_hermitian, mat_identity
from invlat.lattices import ZLattice, lattice_from_generators


def mat_mul(a, b):
    """The dense n^3 product a * b, as a hashable matrix."""
    return tuple(tuple(row) for row in linalg.matmul(a, b))


def rref_divide_each_entry(rows):
    """(nonzero rows, pivot columns) of the reduced row echelon form, with the
    pivot row divided by its pivot entry by entry and every row eliminated
    over all columns.  The library takes one reciprocal per pivot and touches
    only the pivot row's nonzero columns."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        pr = next((i for i in range(r, len(mat)) if not mat[i][c] == 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        lead = mat[r][c]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c] == 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def solve_right(mat, rhs):
    """One solution x of mat @ x = rhs, or None, from the rref of the
    augmented matrix; free variables are set to 0.  The library asks
    `linalg.Span` of the columns of mat instead."""
    m = len(mat)
    if m == 0:
        return None
    n = len(mat[0])
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    red, pivots = linalg.rref(aug)
    if n in pivots:
        return None
    zero = rhs[0] * 0 if rhs else Fraction(0)
    x = [zero] * n
    for row, c in zip(red, pivots):
        x[c] = row[n]
    return x


def rational_coords_by_lifting(lattice, vector):
    """Coordinates of vector in the rational span of the lattice, or None:
    the span rows and the vector are lifted to the conductor of both and the
    column system is solved.  The library rejects an entry whose conductor
    does not divide the lattice's before any solve."""
    conductor = lcm(lattice.conductor, *(x.conductor for x in vector))
    row = [c for x in vector for c in x.coords_at(conductor)]
    lifted = [
        [c for x in avec for c in x.coords_at(conductor)]
        for avec in lattice.ambient_vectors()
    ]
    if not lifted:
        return [] if not any(row) else None
    cols = [[r[i] for r in lifted] for i in range(len(row))]
    return solve_right(cols, row)


def det_by_cofactors(mat):
    """Determinant by cofactor expansion along the first row, with no
    division; n! terms, so for n <= 4 only.  The library eliminates."""
    n = len(mat)
    assert n <= 4, "cofactor expansion is for small matrices"
    if n == 1:
        return mat[0][0]
    total = mat[0][0] * 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * det_by_cofactors(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def coset_count(big: ZLattice, small: ZLattice) -> int:
    """Index oracle independent of the determinant formula: enumerate cosets
    of small inside big by a breadth-first walk over generator translates,
    reducing every visited vector to a canonical representative."""
    rel = []
    for v in small.vectors():
        c = big.basis_coords(v)
        assert c is not None, "small is not inside big"
        rel.append(list(c))
    h = linalg.hnf(rel)
    k = len(h)
    assert k == big.rank, "oracle needs finite index"

    def reduce(vec):
        # h is upper triangular, so sweeping top-down fixes each coordinate
        vec = list(vec)
        for i in range(k):
            pivot = h[i][i]
            assert pivot > 0
            q = vec[i] // pivot
            if q:
                for j in range(k):
                    vec[j] -= q * h[i][j]
        return tuple(vec)

    zero = tuple(0 for _ in range(k))
    seen = {reduce(zero)}
    queue = [reduce(zero)]
    gens = [tuple(int(x == i) for x in range(k)) for i in range(k)]
    while queue:
        cur = queue.pop()
        for g in gens:
            for sign in (1, -1):
                nxt = reduce([c + sign * gi for c, gi in zip(cur, g)])
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return len(seen)


def five_starts(n):
    """Five distinct start vectors for the module search."""
    one, nil = CycNum.rational(1), CycNum.rational(0)
    starts = []
    for k in range(n):
        starts.append(tuple(one if j == k else nil for j in range(n)))
    starts.append(tuple(CycNum.rational(j + 1) for j in range(n)))
    starts.append(tuple(CycNum.rational(1 - 2 * (j % 2)) for j in range(n)))
    starts.append(tuple(CycNum.rational((j + 1) ** 2) for j in range(n)))
    while len(starts) < 5:
        starts.append(tuple(CycNum.rational(7 * j + 3) for j in range(n)))
    return starts[:5]


def orbit_span_all_elements(group, vector, conductor):
    """Rational span of the G-orbit of vector from every element: apply all
    |G| elements, flatten each image to rational coordinates, and rref the
    |G| rows.  The library closes the same span from the generators."""
    rows = []
    for mat in group.elements:
        row = []
        for entry in linalg.matvec(mat, vector):
            row.extend(entry.coords_at(conductor))
        rows.append(row)
    reduced, _ = linalg.rref(rows)
    return [tuple(r) for r in reduced]


def orbit_lattice_all_elements(group, seeds):
    """Integer span of g*s for every one of the |G| elements g and every seed
    s, in one lattice construction.  The library closes the same lattice from
    the generators."""
    images = [tuple(linalg.matvec(g, list(s))) for g in group.elements for s in seeds]
    return lattice_from_generators(images, dim=group.dimension)


def averaged_bilinear_form(group, skew):
    """First nonzero average (1/|G|) sum g^T S g over the unit symmetric seeds
    S (skew=False) or the unit alternating seeds (skew=True), or None when
    every average vanishes.  The averages span the invariant forms of that
    symmetry, so None means there is none.  The library reads the form type
    off the Frobenius-Schur indicator instead."""
    n = group.dimension
    zero, one = CycNum.rational(0), CycNum.rational(1)
    pairs = [(i, j) for i in range(n) for j in range(i + 1 if skew else i, n)]
    for i, j in pairs:
        seed = [[zero] * n for _ in range(n)]
        seed[i][j] = one
        seed[j][i] = -one if skew else one
        total = [[zero] * n for _ in range(n)]
        for g in group.elements:
            gt = [[g[b][a] for b in range(n)] for a in range(n)]
            prod = linalg.matmul(linalg.matmul(gt, seed), g)
            total = [[x + y for x, y in zip(rt, rp)] for rt, rp in zip(total, prod)]
        if any(not x.is_zero() for row in total for x in row):
            return tuple(tuple(x / group.order for x in row) for row in total)
    return None


def cycle_multiplier_by_matrices(refs, cycle):
    """Eigenvalue of (id - r_{j1})(id - r_{jm})...(id - r_{j2}) on root j1,
    from the n x n matrix product; the composition has rank at most one, so
    the eigenvalue must equal its trace.  The library reads the same value
    off the root functional matrix."""
    n = len(refs[0].root)
    identity = mat_identity(n)

    def one_minus(ref):
        return [[identity[i][j] - ref.matrix[i][j] for j in range(n)] for i in range(n)]

    op = one_minus(refs[cycle[0]])
    for j in reversed(cycle[1:]):
        op = linalg.matmul(op, one_minus(refs[j]))
    root = list(refs[cycle[0]].root)
    image = linalg.matvec(op, root)
    pivot = next(p for p, x in enumerate(root) if not x.is_zero())
    value = image[pivot] / root[pivot]
    assert image == [value * x for x in root], "cycle operator moved the root line"
    assert sum((op[i][i] for i in range(n)), CycNum.rational(0)) == value
    return value


def hermitian_inner(gram, u, v) -> CycNum:
    """<u, v> with the given Gram matrix; conjugate-linear in u, linear in v."""
    total = CycNum.rational(0)
    for i, ui in enumerate(u):
        uc = ui.conjugate()
        if not uc.is_zero():
            for j, vj in enumerate(v):
                total = total + uc * gram[i][j] * vj
    return total


def gram_edges(group, refs):
    """Ordered pairs (j, k), j != k, of roots with nonzero inner product under
    the invariant Hermitian form averaged over all |G| elements.  The library
    reads the same pairs off the zero pattern of the root functional matrix."""
    gram = invariant_hermitian(group)
    return {
        (j, k)
        for j in range(len(refs))
        for k in range(len(refs))
        if j != k and not hermitian_inner(gram, refs[j].root, refs[k].root).is_zero()
    }


def close_group_dense(generators):
    """(elements, inverse_index) of the breadth-first closure, by dense n^3
    matrix products: current*g for every element and generator, and
    g^-1 * current^-1 for the inverse of each new element.  The library reads
    the same products off sparse generator records."""
    gens = [as_matrix(g) for g in generators]
    n = len(gens[0])
    gen_inverses = [
        tuple(tuple(row) for row in linalg.inverse([list(r) for r in g]))
        for g in gens
    ]
    identity = mat_identity(n)
    seen = {identity: 0}
    order, inverses = [identity], [identity]
    queue = [0]
    while queue:
        k = queue.pop(0)
        for g, g_inv in zip(gens, gen_inverses):
            prod = mat_mul(order[k], g)
            if prod not in seen:
                seen[prod] = len(order)
                queue.append(len(order))
                order.append(prod)
                inverses.append(mat_mul(g_inv, inverses[k]))
    return tuple(order), tuple(seen[m] for m in inverses)


def indicator_by_squares(group):
    """(1/|G|) sum chi(g^2), with g^2 formed by a matrix product and looked up
    in the closure, which it must not escape.  The library reads chi(g^2) off
    the entries of g as sum g_ij * g_ji."""
    chi = character(group)
    total = CycNum.rational(0)
    for mat in group.elements:
        sq = group.index_of(mat_mul(mat, mat))
        assert sq is not None, "square of an element escaped the group"
        total = total + chi[sq]
    return total / group.order


def reflections_by_rank_scan(group):
    """(element index, det, root) of every element g with rank(id - g) = 1,
    from a rank test on each of the |G| elements; the root is the first
    nonzero column of id - g scaled to lead with 1.  The library runs the
    rank test only on elements whose character value passes a trace test."""
    n = group.dimension
    identity = mat_identity(n)
    out = []
    for idx, mat in enumerate(group.elements):
        diff = [[identity[i][j] - mat[i][j] for j in range(n)] for i in range(n)]
        if linalg.rank(diff) != 1:
            continue
        col = next(j for j in range(n) if any(not row[j].is_zero() for row in diff))
        root = [row[col] for row in diff]
        lead = next(x for x in root if not x.is_zero())
        theta = linalg.det([list(r) for r in mat])
        out.append((idx, theta, tuple(x / lead for x in root)))
    return out


def gcd_kernel_pairwise(group):
    """The gcd certificate from the single elements (g - id, g + id) and then
    every pair (g - h, g + h), in that order, or None.  O(|G|^2) kernels: run
    it on small groups only.  The library scans the single elements alone."""
    n = group.dimension
    identity = mat_identity(n)
    found = [("ambient", n)]
    running = n
    if running == 1:
        return tuple(found)

    def consider(label, mat) -> bool:
        nonlocal running
        dim = len(linalg.kernel_right([list(r) for r in mat]))
        if 0 < dim < n and gcd(running, dim) < running:
            found.append((label, dim))
            running = gcd(running, dim)
        return running == 1

    def combos():
        for idx, g in enumerate(group.elements):
            yield f"element {idx} - id", g, identity, -1
            yield f"element {idx} + id", g, identity, 1
        for i, g in enumerate(group.elements):
            for j in range(i + 1, group.order):
                h = group.elements[j]
                yield f"element {i} - element {j}", g, h, -1
                yield f"element {i} + element {j}", g, h, 1

    for label, g, h, sign in combos():
        mat = [[g[r][c] + sign * h[r][c] for c in range(n)] for r in range(n)]
        if consider(label, mat):
            return tuple(found)
    return None
