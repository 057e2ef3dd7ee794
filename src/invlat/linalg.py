"""Exact linear algebra helpers.

Field routines (rref, rank, solve, kernel, det, inverse) work for any element
type with +, -, *, /, == 0 semantics whose truth value is "nonzero", so they
serve both Fraction matrices and cyclotomic-number matrices.  Elimination
takes one reciprocal per pivot and touches only the columns where the pivot
row is nonzero.  Integer routines (hnf, kernels) implement the row Hermite
normal form with unimodular transforms.
"""

from __future__ import annotations

from fractions import Fraction


def _zero_of(x):
    return x * 0


def _one_of(x):
    return x * 0 + 1


def pivot_row(row, col):
    """(row scaled to 1 at col, the columns where it is nonzero).

    One reciprocal is taken and every nonzero entry is multiplied by it: a
    cyclotomic division runs an extended Euclid against the cyclotomic
    polynomial, so dividing entry by entry would repeat it for each entry.
    """
    inv = _one_of(row[col]) / row[col]
    scaled = [x * inv if x else x for x in row]
    return scaled, [j for j, x in enumerate(scaled) if x]


def eliminate(target, factor, row, support):
    """target -= factor * row in place, over the support of row; every other
    entry of target is unchanged, exactly."""
    for j in support:
        target[j] = target[j] - factor * row[j]


def matvec(mat, vec):
    return [sum((a * b for a, b in zip(row, vec)), _zero_of(row[0])) for row in mat]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), _zero_of(row[0])) for col in cols] for row in a]


def identity(n, one=Fraction(1)):
    zero = one * 0
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rref(rows):
    """Reduced row echelon form.  Returns (nonzero rows, pivot column list)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if not mat[i][c] == 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        mat[r], support = pivot_row(mat[r], c)
        for i in range(len(mat)):
            if i != r and not mat[i][c] == 0:
                eliminate(mat[i], mat[i][c], mat[r], support)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows):
    return len(rref(rows)[0])


def coords_in_rref(basis, pivots, vec):
    """Coordinates of vec in an rref basis, or None if vec is outside the span."""
    coords = [vec[c] for c in pivots]
    residue = list(vec)
    for co, row in zip(coords, basis):
        residue = [x - co * y for x, y in zip(residue, row)]
    if any(not x == 0 for x in residue):
        return None
    return coords


def solve_right(mat, rhs):
    """One solution x of mat @ x = rhs, or None.  Free variables are set to 0."""
    m = len(mat)
    if m == 0:
        return None
    n = len(mat[0])
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    red, pivots = rref(aug)
    if n in pivots:
        return None
    zero = _zero_of(rhs[0]) if rhs else Fraction(0)
    x = [zero] * n
    for row, c in zip(red, pivots):
        x[c] = row[n]
    return x


def kernel_right(mat):
    """Basis of the right kernel {x : mat @ x = 0}."""
    if not mat:
        return []
    n = len(mat[0])
    red, pivots = rref(mat)
    one = _one_of(mat[0][0])
    zero = one * 0
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [zero] * n
        v[f] = one
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


def det(mat):
    n = len(mat)
    if n == 0:
        return Fraction(1)
    a = [list(r) for r in mat]
    one = _one_of(a[0][0])
    result = one
    for c in range(n):
        pr = next((i for i in range(c, n) if not a[i][c] == 0), None)
        if pr is None:
            return one * 0
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            result = -result
        result = result * a[c][c]
        row, support = pivot_row(a[c], c)
        for i in range(c + 1, n):
            if not a[i][c] == 0:
                eliminate(a[i], a[i][c], row, support)
    return result


def inverse(mat):
    """Inverse of a square matrix, or None if singular."""
    n = len(mat)
    one = _one_of(mat[0][0])
    aug = [list(row) + ident for row, ident in zip(mat, identity(n, one))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def xgcd(a: int, b: int):
    """(g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def hnf_with_transform(mat):
    """Row Hermite normal form with transform: returns (H, T), T unimodular,
    T @ mat == H, pivots positive, entries above each pivot reduced into
    [0, pivot).  Zero rows of H sit at the bottom."""
    m = len(mat)
    a = [[int(x) for x in row] for row in mat]
    n = len(a[0]) if m else 0
    t = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        t[r], t[pr] = t[pr], t[r]
        for i in range(r + 1, m):
            while a[i][c] != 0:
                g, u, v = xgcd(a[r][c], a[i][c])
                p, q = a[r][c] // g, a[i][c] // g
                a[r], a[i] = (
                    [u * x + v * y for x, y in zip(a[r], a[i])],
                    [-q * x + p * y for x, y in zip(a[r], a[i])],
                )
                t[r], t[i] = (
                    [u * x + v * y for x, y in zip(t[r], t[i])],
                    [-q * x + p * y for x, y in zip(t[r], t[i])],
                )
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            t[r] = [-x for x in t[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                t[i] = [x - q * y for x, y in zip(t[i], t[r])]
        r += 1
        if r == m:
            break
    return a, t


def hnf(mat):
    """Canonical row HNF with zero rows dropped."""
    h, _ = hnf_with_transform(mat)
    return [row for row in h if any(row)]


def int_kernel(mat):
    """Basis (canonical HNF rows) of {x integer row : x @ mat = 0}."""
    h, t = hnf_with_transform(mat)
    ker = [trow for hrow, trow in zip(h, t) if not any(hrow)]
    return hnf(ker) if ker else []
