"""Exact linear algebra helpers.

Rational routines (rref, Span, inverse) take rows of ints and Fractions and
return Fractions.  Each row is cleared to integers by the lcm of its
denominators, and the elimination stays on the integers.  `rref` runs
fraction-free Gauss-Jordan elimination (Bareiss 1968): each step replaces
every other row by (row * p - a * pivot row) // previous pivot, which
Sylvester's identity makes exact, and each kept row is divided by its pivot
once at the end.  A step writes only the live entries: the columns past the
pivot and the earlier columns that got no pivot, since every earlier pivot
column already reads 0, or the pivot in its own row.  `Span` is the one
route for span membership and coordinates: it keeps the rows added so far
in echelon form, each a primitive integer row over its own pivot, so a
fixed basis is reduced once and every later question costs one reduction
of the asked row, one cross-multiplication per echelon row.

`rank` and `det` take any element type with +, -, *, / and a truth value
that means "nonzero", cyclotomic numbers included.  They share one
fraction-free forward elimination on the same Bareiss rule as `rref`, with
one reciprocal of the previous pivot per pivot in place of the exact integer
division: `rank` counts its pivots, and `det` is its signed last pivot.

Integer routines share one Hermite elimination that pivots in a given
number of leading columns, each on the smallest nonzero entry of its column:
a row whose entry the pivot divides is cleared by one row subtraction, any
other by the two-row xgcd update.  `hnf` runs it on the matrix alone, and
`hnf_with_transform` runs it on the rows [mat | I], whose right-hand block
ends as the unimodular transform; `int_kernel` reads the left kernel off
that transform.  `hnf_coords` writes an integer vector in echelon integer
rows by back-substitution, with a divisibility test at each pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def _cleared(row):
    """(integer row, d): a row of ints and Fractions is the integer row / d,
    with d the lcm of its denominators."""
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def identity(n):
    one, zero = Fraction(1), Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rref(rows):
    """Reduced row echelon form of rows of ints and Fractions, by
    fraction-free Gauss-Jordan.  Returns (nonzero rows, pivot column list),
    with Fraction entries.

    Each row is cleared to integers by the lcm of its denominators.  At a
    pivot p, every other row becomes (row * p - a * pivot row) // prev, with a
    its entry in the pivot column and prev the pivot before p (1 at first).
    By Sylvester's identity every entry is then a minor of the cleared
    matrix, so the division is exact, and every pivot row holds p at its
    pivot; the kept rows are divided by the last pivot once at the end.

    A step writes only the entries it can change.  In an earlier pivot
    column every row already holds 0, or prev in that pivot's own row, so
    such a row gets p there and the others keep 0; column c becomes 0 off
    the pivot row.  That leaves the columns past c, and the earlier columns
    that got no pivot, where only the rows above the pivot row can be
    nonzero and the pivot row is 0, so those entries are scaled by p/prev."""
    rows = [_cleared(row)[0] for row in rows]
    if not rows or not rows[0]:
        return [], []
    pivots = []
    free = []  # the columns before c that got no pivot
    prev = 1
    r = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            free.append(c)
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot_row = rows[r]
        p = pivot_row[c]
        tail = pivot_row[c + 1:]
        for i, row in enumerate(rows):
            if i == r:
                continue
            a = row[c]
            if a:
                row[c] = 0
                row[c + 1:] = [(x * p - a * y) // prev for x, y in zip(row[c + 1:], tail)]
            elif p != prev:
                row[c + 1:] = [x * p // prev for x in row[c + 1:]]
            else:
                continue
            if i < r:
                row[pivots[i]] = p
                for f in free:
                    if row[f]:
                        row[f] = row[f] * p // prev
        prev = p
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    zero, one = Fraction(0), Fraction(1)
    return [[zero if not x else one if x == prev else Fraction(x, prev) for x in row]
            for row in rows[:r]], pivots


def _forward(rows):
    """(pivots, sign) of fraction-free forward elimination (Bareiss 1968):
    the pivot entries in order, and -1 to the number of row swaps.

    ints are lifted to Fractions.  At a pivot p, every row below becomes
    (row * p - a * pivot row) / prev, with a its entry in the pivot column and
    prev the pivot before p (1 at first), so by Sylvester's identity every
    entry is a minor of the matrix.  The reciprocal of prev is taken once per
    pivot, when prev != 1 and rows remain below.  As in `rref`, a row with
    a = 0 is skipped when p = prev, and a * 0 is not computed."""
    mat = [[Fraction(x) if type(x) is int else x for x in row] for row in rows]
    pivots = []
    sign = 1
    prev = 1
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
            sign = -sign
        pivot_row = mat[r]
        p = pivot_row[c]
        pivots.append(p)
        if r + 1 == len(mat):
            break
        inv = 1 / prev if prev != 1 else None
        tail = range(c + 1, len(pivot_row))
        for row in mat[r + 1:]:
            a = row[c]
            if not a and p == prev:
                continue
            # columns up to c are not read again
            new = [row[j] * p - a * pivot_row[j] if a and pivot_row[j] else row[j] * p
                   for j in tail]
            row[c + 1:] = new if inv is None else [x * inv for x in new]
        prev = p
    return pivots, sign


def rank(rows):
    """The number of pivots of the forward elimination `_forward`."""
    return len(_forward(rows)[0])


def det(mat):
    """The determinant: the signed last pivot of `_forward`, the minor of the
    whole matrix, or 0 when the rank is short.  An int matrix gives a
    Fraction."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    pivots, sign = _forward(mat)
    if len(pivots) < n:
        return mat[0][0] * Fraction(0)
    return pivots[-1] if sign > 0 else -pivots[-1]


class Span:
    """The rational span of the rows of ints and Fractions added so far.

    Each kept row is held in echelon form, with a nonzero pivot and 0 at the
    pivots of the rows kept before it, and extended by the combination of
    kept rows that gives it.  So one reduction of a row against the echelon
    rows tests membership and, in the extension, reads off its coordinates.

    The rows are kept on the integers: each asked row is cleared by the lcm
    of its denominators, every echelon row is a primitive integer row
    standing for itself over its pivot, and a reduction step is the
    cross-multiplication p * row - a * (echelon row), with p the pivot and a
    the row's entry there, both divided by their gcd first; the scale the
    row has taken is carried beside it.  `rows` and `coords` give Fractions.
    """

    def __init__(self, rows=()):
        # (pivot, echelon row | its combination of kept rows, support)
        self._echelon = []
        self._kept = []  # position among the added rows of each kept row
        self._added = 0
        for row in rows:
            self.add(row)

    def __len__(self):
        """The dimension of the span."""
        return len(self._kept)

    @property
    def rows(self):
        """The echelon rows, one per kept row, in the order they were kept."""
        return [[Fraction(x, row[pivot]) for x in row[: len(row) // 2]]
                for pivot, row, _ in self._echelon]

    def _reduce(self, row):
        """(extended, scale): row cleared to integers and extended by as many
        zeros, less its components along the echelon rows, times scale.  That
        is scale times the residue of row, then minus its coordinates in the
        kept rows (exact when the residue is zero)."""
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
        extended[len(row) + len(self._kept)] = scale
        g = gcd(*extended)
        if extended[pivot] < 0:
            g = -g
        extended = [x // g for x in extended]
        self._echelon.append((pivot, extended, [j for j, x in enumerate(extended) if x]))
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
        out = [Fraction(0)] * self._added
        for j, i in enumerate(self._kept):
            out[i] = Fraction(-extended[width + j], scale)
        return out


def inverse(mat):
    """Inverse of a square matrix of ints and Fractions, or None if singular."""
    n = len(mat)
    aug = [list(row) + ident for row, ident in zip(mat, identity(n))]
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
    Columns past n take the same row operations and never pivot.

    Each column pivots on its smallest nonzero entry in absolute value.  A
    row whose entry the pivot divides is cleared by subtracting one multiple
    of the pivot row; any other row is cleared by the unimodular two-row
    update of xgcd, which leaves the gcd of the two entries as the pivot.
    Small pivots curb the growth of the entries."""
    m = len(a)
    r = 0
    for c in range(n):
        pr = min((i for i in range(r, m) if a[i][c]), key=lambda i: abs(a[i][c]),
                 default=None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        # rows r and below are zero in the columns before c
        top = a[r][c:]
        p = top[0]
        for i in range(r + 1, m):
            row = a[i]
            b = row[c]
            if not b:
                continue
            q, rem = divmod(b, p)
            if not rem:
                row[c:] = [y - q * x for x, y in zip(top, row[c:])]
                continue
            g, u, v = xgcd(p, b)
            s, t = p // g, b // g
            low = row[c:]
            row[c:] = [s * y - t * x for x, y in zip(top, low)]
            top = [u * x + v * y for x, y in zip(top, low)]
            p = g
        if p < 0:
            top = [-x for x in top]
            p = -p
        a[r][c:] = top
        for i in range(r):
            q = a[i][c] // p
            if q:
                a[i][c:] = [x - q * y for x, y in zip(a[i][c:], top)]
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
            rest[c:] = [x - q * y for x, y in zip(rest[c:], row[c:])]
        c += 1
    return None if any(rest) else out
