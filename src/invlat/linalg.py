"""Exact linear algebra helpers.

Field routines (rref, rank, Span, kernel, det, inverse) work for any element
type with +, -, *, /, == 0 semantics whose truth value is "nonzero", so they
serve int, Fraction and cyclotomic-number matrices.  An int pivot has the
reciprocal Fraction(1, pivot), so int input gives exact Fraction results.

`rref` takes one of two routes.  Rational input (every entry an int or a
Fraction) is cleared to integer rows, one lcm of denominators per row, and
reduced by fraction-free Gauss-Jordan elimination (Bareiss 1968): each step
replaces every other row by (row * p - a * pivot row) // previous pivot,
which Sylvester's identity makes exact, and each kept row is divided by its
pivot once at the end.  Cyclotomic input takes one reciprocal per pivot,
because a cyclotomic reciprocal is an extended Euclid against the cyclotomic
polynomial while a product is one integer convolution, and touches only the
columns where the pivot row is nonzero; `det` eliminates the same way.
`rank` takes no reciprocal at all: it counts the pivots of a forward
elimination by cross-multiplication.  `Span` is the one route for span
membership and coordinates: it keeps the rows added so far in echelon form,
so a fixed basis is reduced once and every later question costs one
reduction of the asked row.  It takes its route from the first row it
sees: rational rows stay on the integers, each echelon row a primitive
integer row over its own pivot and each step a cross-multiplication, and
cyclotomic rows are divided by their pivots as in `rref`.

Integer routines share one Hermite elimination that pivots in a given
number of leading columns: `hnf` runs it on the matrix alone, and
`hnf_with_transform` runs it on the rows [mat | I], whose right-hand block
ends as the unimodular transform; `int_kernel` reads the left kernel off
that transform.  `hnf_coords` writes an integer vector in echelon integer
rows by back-substitution, with a divisibility test at each pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def _zero_of(x):
    return x * 0


def _one_of(x):
    """1 in the field of x; Fraction(1) for an int, so that dividing by an int
    pivot is exact."""
    one = x * 0 + 1
    return Fraction(1) if type(one) is int else one


def _cleared(row):
    """(integer row, d): a row of ints and Fractions is the integer row / d,
    with d the lcm of its denominators."""
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def _pivot_row(row, col):
    """(row scaled to 1 at col, the columns where it is nonzero).

    One reciprocal is taken and every nonzero entry is multiplied by it: a
    cyclotomic division runs an extended Euclid against the cyclotomic
    polynomial, so dividing entry by entry would repeat it for each entry.
    """
    inv = _one_of(row[col]) / row[col]
    scaled = [x * inv if x else x for x in row]
    return scaled, [j for j, x in enumerate(scaled) if x]


def _eliminate(target, factor, row, support):
    """target -= factor * row in place, over the support of row; every other
    entry of target is unchanged, exactly."""
    for j in support:
        target[j] = target[j] - factor * row[j]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def identity(n, one=Fraction(1)):
    zero = one * 0
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rref(rows):
    """Reduced row echelon form.  Returns (nonzero rows, pivot column list).

    Rows whose entries are all int or Fraction are reduced over the integers
    (`_rref_rational`), and the result then has Fraction entries."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return [], []
    if all(isinstance(x, (int, Fraction)) for row in mat for x in row):
        return _rref_rational(mat)
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if not mat[i][c] == 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        mat[r], support = _pivot_row(mat[r], c)
        for i in range(len(mat)):
            if i != r and not mat[i][c] == 0:
                _eliminate(mat[i], mat[i][c], mat[r], support)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _rref_rational(mat):
    """rref of rows of ints and Fractions by fraction-free Gauss-Jordan.

    Each row is cleared to integers by the lcm of its denominators.  At a
    pivot p, every other row becomes (row * p - a * pivot row) // prev, with a
    its entry in the pivot column and prev the pivot before p (1 at first).
    By Sylvester's identity every entry is then a minor of the cleared
    matrix, so the division is exact, and every pivot row holds p at its
    pivot; the kept rows are divided by the last pivot once at the end."""
    rows = [_cleared(row)[0] for row in mat]
    pivots = []
    prev = 1
    r = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot_row = rows[r]
        p = pivot_row[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            a = row[c]
            if a:
                rows[i] = [(x * p - a * y) // prev for x, y in zip(row, pivot_row)]
            elif p != prev:
                rows[i] = [x * p // prev for x in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    zero, one = Fraction(0), Fraction(1)
    return [[zero if not x else one if x == prev else Fraction(x, prev) for x in row]
            for row in rows[:r]], pivots


def rank(rows):
    """The number of pivots of forward elimination.

    Each row below a pivot p is replaced by p * row - a * (pivot row), where a
    is its entry in the pivot column, so no reciprocal is taken; there is no
    back-substitution and no pivot scaling."""
    mat = [list(r) for r in rows]
    count = 0
    for c in range(len(mat[0]) if mat else 0):
        pr = next((i for i in range(count, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[count], mat[pr] = mat[pr], mat[count]
        pivot_row = mat[count]
        pivot = pivot_row[c]
        tail = range(c + 1, len(pivot_row))
        for row in mat[count + 1:]:
            a = row[c]
            if a:
                # columns up to c are not read again
                row[c + 1:] = [row[j] * pivot - a * pivot_row[j] if pivot_row[j]
                               else row[j] * pivot for j in tail]
        count += 1
        if count == len(mat):
            break
    return count


class Span:
    """The rational (or cyclotomic) span of the rows added so far.

    Each kept row is held in echelon form, with a nonzero pivot and 0 at the
    pivots of the rows kept before it, and extended by the combination of
    kept rows that gives it.  So one reduction of a row against the echelon
    rows tests membership and, in the extension, reads off its coordinates.

    The route is chosen from the first row seen.  Rational rows (every entry
    an int or a Fraction) are kept on the integers: each asked row is
    cleared by the lcm of its denominators, every echelon row is an integer
    row standing for itself over its pivot, and a reduction step is the
    cross-multiplication p * row - a * (echelon row), with p the pivot and a
    the row's entry there, both divided by their gcd first; the scale the
    row has taken is carried beside it.  Cyclotomic rows are divided by
    their pivot, one reciprocal each, and reduced by subtraction.  `rows`
    and `coords` give Fractions on the rational route.
    """

    def __init__(self, rows=()):
        # (pivot, echelon row | its combination of kept rows, support)
        self._echelon = []
        self._kept = []  # position among the added rows of each kept row
        self._added = 0
        self._rational = None  # the route, set by the first row seen
        for row in rows:
            self.add(row)

    def __len__(self):
        """The dimension of the span."""
        return len(self._kept)

    @property
    def rows(self):
        """The echelon rows, one per kept row, in the order they were kept."""
        if self._rational:
            return [[Fraction(x, row[pivot]) for x in row[: len(row) // 2]]
                    for pivot, row, _ in self._echelon]
        return [row[: len(row) // 2] for _, row, _ in self._echelon]

    def _reduce(self, row):
        """(extended, scale): row extended by as many zeros, less its
        components along the echelon rows, times scale.  That is the residue
        of row, then minus its coordinates in the kept rows (exact when the
        residue is zero); the scale is 1 on the cyclotomic route."""
        if self._rational is None:
            self._rational = all(isinstance(x, (int, Fraction)) for x in row)
        if not self._rational:
            extended = list(row) + [_zero_of(row[0])] * len(row)
            for pivot, echelon_row, support in self._echelon:
                c = extended[pivot]
                if c:
                    _eliminate(extended, c, echelon_row, support)
            return extended, 1
        extended, scale = _cleared(row)
        extended += [0] * len(row)
        for pivot, echelon_row, support in self._echelon:
            a = extended[pivot]
            if a:
                p = echelon_row[pivot]
                g = gcd(a, p)
                if g != 1:
                    a //= g
                    p //= g
                if p != 1:
                    extended = [x * p for x in extended]
                    scale *= p
                for j in support:
                    extended[j] -= a * echelon_row[j]
        return extended, scale

    def add(self, row) -> bool:
        """Add row; True exactly when it is independent of the rows kept."""
        extended, scale = self._reduce(row)
        self._added += 1
        pivot = next((k for k in range(len(row)) if extended[k]), None)
        if pivot is None:
            return False
        slot = len(row) + len(self._kept)
        if self._rational:
            extended[slot] = scale
            g = gcd(*extended)
            if extended[pivot] < 0:
                g = -g
            extended = [x // g for x in extended]
            echelon = (pivot, extended, [j for j, x in enumerate(extended) if x])
        else:
            extended[slot] = _one_of(extended[pivot])
            echelon = (pivot, *_pivot_row(extended, pivot))
        self._echelon.append(echelon)
        self._kept.append(self._added - 1)
        return True

    def coords(self, row):
        """Coordinates x with row = sum of x[i] * (added row i), one per added
        row and 0 at each row that was dependent when added, or None when row
        is outside the span."""
        extended, scale = self._reduce(row)
        width = len(row)
        if any(extended[:width]):
            return None
        if self._rational:
            out = [Fraction(0)] * self._added
            for j, i in enumerate(self._kept):
                out[i] = Fraction(-extended[width + j], scale)
            return out
        out = [_zero_of(row[0])] * self._added
        for j, i in enumerate(self._kept):
            out[i] = -extended[width + j]
        return out


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
        row, support = _pivot_row(a[c], c)
        for i in range(c + 1, n):
            if not a[i][c] == 0:
                _eliminate(a[i], a[i][c], row, support)
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


def _hermite(a, n):
    """Row Hermite normal form of the integer rows a, in place, with pivots in
    the first n columns only: pivots positive, entries above each pivot
    reduced into [0, pivot), zero rows (in those columns) at the bottom.
    Columns past n take the same row operations and never pivot."""
    m = len(a)
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        # rows r and below are zero in the pivot columns before c
        for i in range(r + 1, m):
            if a[i][c] != 0:
                g, u, v = xgcd(a[r][c], a[i][c])
                p, q = a[r][c] // g, a[i][c] // g
                top, low = a[r][c:], a[i][c:]
                a[r][c:] = [u * x + v * y for x, y in zip(top, low)]
                a[i][c:] = [-q * x + p * y for x, y in zip(top, low)]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i][c:] = [x - q * y for x, y in zip(a[i][c:], a[r][c:])]
        r += 1
        if r == m:
            break
    return a


def hnf_with_transform(mat):
    """Row Hermite normal form with transform: returns (H, T), T unimodular,
    T @ mat == H, pivots positive, entries above each pivot reduced into
    [0, pivot).  Zero rows of H sit at the bottom."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    aug = _hermite([[int(x) for x in row] + [int(i == j) for j in range(m)]
                    for i, row in enumerate(mat)], n)
    return [row[:n] for row in aug], [row[n:] for row in aug]


def hnf(mat):
    """Canonical row HNF with zero rows dropped."""
    a = [[int(x) for x in row] for row in mat]
    return [row for row in _hermite(a, len(a[0]) if a else 0) if any(row)]


def int_kernel(mat):
    """Basis (canonical HNF rows) of {x integer row : x @ mat = 0}."""
    h, t = hnf_with_transform(mat)
    ker = [trow for hrow, trow in zip(h, t) if not any(hrow)]
    return hnf(ker) if ker else []


def hnf_coords(rows, vec):
    """Integer coordinates of vec in the integer rows in row echelon form (an
    HNF), by back-substitution, or None when vec is not in their integer
    span."""
    rest = list(vec)
    out = []
    c = 0
    for row in rows:
        while not row[c]:
            c += 1
        q, rem = divmod(rest[c], row[c])
        if rem:
            return None
        out.append(q)
        if q:
            for k in range(c, len(rest)):
                rest[k] -= q * row[k]
        c += 1
    return None if any(rest) else out
