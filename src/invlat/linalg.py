"""Exact linear algebra helpers.

Rational routines (rref, Span) take rows of ints and Fractions and return
Fractions.  Each row is cleared to integers by the lcm of its
denominators, and the elimination stays on the integers.  `rref` and
`_hnf_modulus` share one fraction-free forward elimination, `_bareiss`
(Bareiss 1968): each step replaces every row below the pivot row by
(row * p - a * pivot row) // previous pivot, which Sylvester's identity
makes exact.  With enough steps to pay for it, each row is packed into one
int, column j in the w-bit slot j as a balanced residue, so a step is two
multiplications, a subtraction and one exact division of ints: every slot
is divisible by the previous pivot, so the integer quotient is the
slot-wise one whatever the carries.  Every entry is a minor on at most
k = min(stop, n - 1) + 1 rows, so by Hadamard's inequality w is one bit more
than the square root of the product of the k largest squared row norms
(each taken as at least 1) needs.  The entry in column c is read off slot c
once the slots below it are 0.  The pivot columns of the rref are unit
columns, so a fraction-free back-substitution (Nakos, Turner and Williams
1997) solves only the free columns, on the integers, as D times the result
with D the last pivot.  `Span` is the one route for span membership and
coordinates: it keeps the rows added so far in echelon form, each a
primitive integer row over its own pivot, so a fixed basis is reduced once
and every later question costs one reduction of the asked row, one
cross-multiplication per echelon row.

`integral` clears a whole matrix by the lcm of its denominators.
`upper_inverse` inverts an upper triangular integer matrix, as an integer
matrix over one denominator, by back-substitution, and `abs_det` reads the
absolute determinant of a square integer matrix off `_bareiss`.

`rank` and `det` take any element type with +, -, *, / and a truth value
that means "nonzero", cyclotomic numbers included.  They share one
fraction-free forward elimination on the same Bareiss rule as `rref`, with
one reciprocal of the previous pivot per pivot in place of the exact integer
division: `rank` counts its pivots, and `det` is its signed last pivot.

The plain Hermite elimination `_hermite` pivots in a given number of
leading columns and clears each by Euclid's reduction: every other row
that is nonzero there is reduced by the row with the smallest nonzero
entry, by the rounded quotient, until one row is left.  `int_kernel` runs
it on the rows [mat | I], pivoting in mat's columns only, so the
right-hand block ends as a unimodular transform whose rows beside the zero
rows span the left kernel.  Its entries have no proven bound; on the
scaled quaternion tori of the tests the kernel rows of that block have at
most 28 bits.  `hnf` of m x n rows with m >= n first takes `_hnf_modulus`,
a multiple R of the lattice determinant that is 0 exactly when the rank is
below n; for R > 0 it folds each column into its smallest entry mod R
(`_hermite_mod`), so no entry reaches R.  Rows with m < n or R = 0 take
`_hermite`.  `hnf_coords` writes an integer vector in echelon integer rows
by back-substitution, with a divisibility test at each pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import lshift, mul


def _cleared(row):
    """(integer row, d): a row of ints and Fractions is the integer row / d,
    with d the lcm of its denominators.  Each entry is read once, as
    `as_integer_ratio()`, and the row is not rescaled when d is 1."""
    pairs = [x.as_integer_ratio() for x in row]
    d = lcm(*{q for _, q in pairs})
    if d == 1:
        return [p for p, _ in pairs], 1
    return [p * (d // q) for p, q in pairs], d


def integral(mat):
    """(integer matrix, d): the matrix of ints and Fractions is the integer
    matrix / d, with d the lcm of its denominators, `_cleared` on all its
    entries at once."""
    n = len(mat[0]) if mat else 0
    flat, d = _cleared([x for row in mat for x in row])
    return [flat[i * n:(i + 1) * n] for i in range(len(mat))], d


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


# The fewest elimination steps for which `_bareiss` packs its rows: below
# this, packing and the slot width cost more than the packed steps save.
# Packing breaks even near 4 steps on dense rows of one-digit entries, and
# near 6 on sparse rows of 0 and +-1, the rows the analyses eliminate.
_PACKED_STEPS = 6


def _bareiss(rows, n, stop):
    """(upper, pivots, rest, prev, w): one fraction-free forward elimination
    (Bareiss 1968) over the columns before stop of the m x n integer rows,
    which are not changed.

    upper holds the pivot rows in order, pivots their pivot columns, rest the
    other rows, and prev the last pivot (1 when there is none).  A step with
    pivot row P and pivot p replaces each row v below by
    (v * p - b * P) // prev, with b its entry in the pivot column, an exact
    division by Sylvester's identity; every entry ever held is a minor of
    the rows.  A pivot row holds the columns from its pivot on, a row of
    rest those from stop on; `_unpack` reads them.

    With at least _PACKED_STEPS steps, each row is one int with w-bit
    balanced slots, column j in slot j: v = sum a_j * 2**(w*j), |a_j| <
    2**(w-1), and a zero row is dropped.  A step is then two
    multiplications, a subtraction and one division of ints: every slot of
    v * p - b * P is divisible by prev, so the integer quotient is the
    slot-wise one whatever the carries.  Once the columns before c are
    eliminated their slots are 0, and the entry in column c is the balanced
    residue of (v >> w*c) mod 2**w.  A step at column n - 1 updates no row,
    so every entry is a minor on k = min(stop, n - 1) + 1 rows or fewer, and
    by Hadamard's inequality at most the square root of the product of the k
    largest max(1, squared norm); w is one bit more than that root has.  The
    norms are sorted only when k < m.  With fewer steps the rows are lists
    that drop each column once it is passed, and w is 0."""
    if min(stop, n - 1, len(rows) - 1) >= _PACKED_STEPS:
        norms = [max(1, sum(map(mul, row, row))) for row in rows]
        k = min(stop, n - 1) + 1
        if k < len(norms):
            norms = sorted(norms)[-k:]
        w = isqrt(prod(norms)).bit_length() + 1
        half, mask = 1 << (w - 1), (1 << w) - 1
        shifts = range(0, w * n, w)
        rest = [v for v in (sum(map(lshift, row, shifts)) for row in rows) if v]
    else:
        w = 0
        rest = rows
    upper, pivots = [], []
    prev = 1
    for c in range(stop):
        # the pivot row is the first row that is nonzero in column c
        if w:
            s = w * c
            for pr, v in enumerate(rest):
                if v >> s & mask:
                    break
            else:
                continue
        else:
            for pr, row in enumerate(rest):
                if row[0]:
                    break
            else:
                rest = [row[1:] for row in rest]
                continue
        top = rest[pr]
        rest = rest[:pr] + rest[pr + 1:]
        p = ((top >> s & mask) ^ half) - half if w else top[0]
        upper.append(top)
        pivots.append(c)
        if c + 1 == n:
            # every row left becomes 0
            prev, rest = p, []
            break
        lower = []
        if w:
            for v in rest:
                b = ((v >> s & mask) ^ half) - half
                if b:
                    v = (v * p - b * top) // prev
                elif p != prev:
                    v = v * p // prev
                if v:
                    lower.append(v)
        else:
            tail = top[1:]
            for row in rest:
                b = row[0]
                if b:
                    lower.append([(x * p - b * y) // prev for x, y in zip(row[1:], tail)])
                elif p != prev:
                    lower.append([x * p // prev for x in row[1:]])
                else:
                    lower.append(row[1:])
        rest = lower
        prev = p
    return upper, pivots, rest, prev, w


def _unpack(v, w, c, n):
    """The entries in columns c ... n - 1 of a row of `_bareiss`, with c the
    first column it holds: the row itself when w is 0, else the balanced
    residue of each w-bit slot from slot c on."""
    if not w:
        return v
    half, mask = 1 << (w - 1), (1 << w) - 1
    v >>= w * c
    out = []
    for _ in range(c, n):
        x = ((v & mask) ^ half) - half
        out.append(x)
        v = (v - x) >> w
    return out


def rref(rows):
    """Reduced row echelon form of rows of ints and Fractions.  Returns
    (nonzero rows, pivot column list), with Fraction entries.

    Each row is cleared to integers by the lcm of its denominators, and the
    fraction-free forward elimination `_bareiss` makes the echelon rows U.
    The pivot columns of the result are unit columns, so only the free
    columns are solved, by fraction-free back-substitution (Nakos, Turner
    and Williams 1997): with D the last pivot and p_k the pivot of U[k], for
    each free column f,
    x_i = (D * U[i][f] - sum over k > i of U[i][p_k] * x_k) // U[i][p_i]
    is an exact division: x is adj(B) times column f, for B the pivot
    columns of the rows that gave the pivots, and det B = D.  Entry (i, f)
    of the result is x_i / D.  U is unpacked only for the rows with a free
    column past their pivot."""
    rows = [_cleared(row)[0] for row in rows]
    if not rows or not rows[0]:
        return [], []
    n = len(rows[0])
    upper, pivots, _, prev, w = _bareiss(rows, n, n)
    free = [c for c in range(n) if c not in pivots]
    # solved[i]: x at the free columns past pivots[i], the only nonzero ones
    solved = [[]] * len(pivots)
    for i in range(len(pivots) - 1, -1, -1):
        o = pivots[i]
        if not free or o > free[-1]:
            continue
        row = _unpack(upper[i], w, o, n)  # row[j - o] is U[i][j]
        acc = [prev * row[f - o] for f in free if f > o]
        for k in range(i + 1, len(pivots)):
            a, xs = row[pivots[k] - o], solved[k]
            if a and xs:
                cut = len(acc) - len(xs)
                acc[cut:] = [s - a * x for s, x in zip(acc[cut:], xs)]
        solved[i] = [s // row[0] for s in acc]
    zero, one = Fraction(0), Fraction(1)
    out = []
    for c, xs in zip(pivots, solved):
        row = [zero] * n
        row[c] = one
        for f, x in zip(free[len(free) - len(xs):], xs):
            if x:
                row[f] = Fraction(x, prev)
        out.append(row)
    return out, pivots


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


def upper_inverse(h, scale=1):
    """(X, d) with scale * h^-1 = X / d in lowest terms, X integer and d > 0,
    for an upper triangular integer matrix h with a nonzero diagonal.

    Back-substitution solves h X = scale * det(h) * I on the integers, one
    column at a time from the diagonal up; each division by a diagonal entry
    is exact, as the solution is scale * adj(h)."""
    n = len(h)
    det = prod(h[i][i] for i in range(n))
    cols = []
    for j in range(n):
        x = [0] * (j + 1)
        x[j] = scale * det // h[j][j]
        for i in range(j - 1, -1, -1):
            x[i] = -sum(map(mul, h[i][i + 1:j + 1], x[i + 1:])) // h[i][i]
        cols.append(x + [0] * (n - j - 1))
    g = gcd(det, *(x for col in cols for x in col))
    if det < 0:
        g = -g
    return [[col[i] // g for col in cols] for i in range(n)], det // g


def abs_det(mat):
    """|det| of a square integer matrix: the last pivot of `_bareiss`, the
    minor of the whole matrix up to the sign of the row order, or 0 when the
    rank is short."""
    n = len(mat)
    _, pivots, _, prev, _ = _bareiss(mat, n, n)
    return abs(prev) if len(pivots) == n else 0


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

    Each column is cleared by Euclid's reduction: every other row that is
    nonzero there is reduced by the one with the smallest entry, by the
    rounded quotient of the two, until one row is left; it is the pivot
    row.  Every step subtracts a multiple of one row from another, so the
    steps are unimodular, and the rounded quotient at least halves each
    reduced entry."""
    m = len(a)
    r = 0
    for c in range(n):
        live = [i for i in range(r, m) if a[i][c]]
        if not live:
            continue
        while len(live) > 1:
            pr = min(live, key=lambda i: abs(a[i][c]))
            # rows r and below are zero in the columns before c
            top = a[pr][c:]
            p = top[0]
            for i in live:
                if i != pr:
                    row = a[i]
                    q = (2 * row[c] + p) // (2 * p)
                    row[c:] = [y - q * x for x, y in zip(top, row[c:])]
            live = [i for i in live if a[i][c]]
        pr = live[0]
        a[r], a[pr] = a[pr], a[r]
        if a[r][c] < 0:
            a[r][c:] = [-x for x in a[r][c:]]
        top = a[r][c:]
        p = top[0]
        for i in range(r):
            q = a[i][c] // p
            if q:
                a[i][c:] = [x - q * y for x, y in zip(a[i][c:], top)]
        r += 1
        if r == m:
            break
    return a


def _hnf_modulus(a):
    """A positive multiple of the determinant of the lattice spanned by the
    m x n integer rows a, or 0 exactly when their rank is below n.

    The gcd of some n x n minors: the forward elimination `_bareiss` over
    the first n - 2 columns, as in `rref`, leaves every other row i with x_i
    and y_i in the last two columns, each a minor on the pivot rows and row
    i.  By Sylvester's identity (x_i * y_j - x_j * y_i) // prev, with prev
    the last pivot, is the n x n minor on the pivot rows and rows i and j.
    The gcd stops as soon as it reaches 1.  For n = 1 it is the gcd of the
    column.  a is not changed."""
    n = len(a[0])
    if n == 1:
        return gcd(*(row[0] for row in a))
    _, pivots, rest, prev, w = _bareiss(a, n, n - 2)
    if len(pivots) < n - 2:
        return 0
    rows = [_unpack(v, w, n - 2, n) for v in rest]
    r = 0
    for i, (x, y) in enumerate(rows):
        for u, v in rows[i + 1:]:
            r = gcd(r, (x * v - u * y) // prev)
            if r == 1:
                return 1
    return r


def _hermite_mod(a, r):
    """Canonical row HNF of the m x n integer rows a of rank n, given r, a
    positive multiple of the determinant of their lattice L, so that r * Z^n
    lies in L (Domich, Kannan and Trotter 1987; Cohen 1993, Alg. 2.4.8).

    L is spanned by the rows mod r and r * Z^n, so the entries stay in
    [0, r).  Column c folds every other row into the pivot row, the one
    with the smallest entry there, mod r: a row whose entry the pivot
    divides by one subtraction, any other by the two-row xgcd update, which
    leaves the gcd of the two entries as the pivot.  The pivot entry itself
    stays exact, the gcd g of the column (0 when every entry there is 0
    mod r).  With d = gcd(g, r) = u * g + v * r, the HNF
    row is u * (pivot row) mod r with d on the diagonal.  The lattice of
    the other rows and r * Z^(n-c-1) has determinant dividing r / d, so r
    becomes r / d.  Once r is 1 the rows left are unit rows.  Last, the
    entries above each pivot are reduced."""
    n = len(a[0])
    rows = [[x % r for x in row] for row in a] if r != 1 else []
    out = []
    for c in range(n):
        if r == 1:
            break
        pr = min((i for i, row in enumerate(rows) if row[0]), key=lambda i: rows[i][0],
                 default=None)
        if pr is None:
            p, top = 0, [0] * (n - c - 1)
        else:
            p, *top = rows.pop(pr)
        lower = []
        # each row keeps only the columns after column c
        for row in rows:
            b = row[0]
            if not b:
                lower.append(row[1:])
                continue
            q, rem = divmod(b, p)
            if not rem:
                lower.append([(y - q * x) % r for x, y in zip(top, row[1:])])
                continue
            g, u, v = xgcd(p, b)
            s, t = p // g, b // g
            low = row[1:]
            lower.append([(s * y - t * x) % r for x, y in zip(top, low)])
            top = [(u * x + v * y) % r for x, y in zip(top, low)]
            p = g
        d, u, _ = xgcd(p, r)
        out.append([0] * c + [d] + [u * x % r for x in top])
        if d != 1:
            r //= d
            lower = [[x % r for x in row] for row in lower]
        rows = lower
    done = len(out)
    # the unit rows from column done on clear those columns above them
    for row in out:
        row[done:] = [0] * (n - done)
    for c in range(1, done):
        pivot_row = out[c][c:]
        d = pivot_row[0]
        for row in out[:c]:
            q = row[c] // d
            if q:
                row[c:] = [x - q * y for x, y in zip(row[c:], pivot_row)]
    for c in range(done, n):
        out.append([0] * n)
        out[c][c] = 1
    return out


def hnf(mat):
    """Canonical row HNF with zero rows dropped.  Rows of full column rank
    take the modular route `_hermite_mod`; fewer rows than columns, or a
    zero `_hnf_modulus`, take `_hermite`."""
    a = [[int(x) for x in row] for row in mat]
    n = len(a[0]) if a else 0
    r = _hnf_modulus(a) if 0 < n <= len(a) else 0
    if r:
        return _hermite_mod(a, r)
    return [row for row in _hermite(a, n) if any(row)]


def int_kernel(mat):
    """Basis (canonical HNF rows) of {x integer row : x @ mat = 0}.

    `_hermite` of the rows [mat | I] pivots in mat's n columns only, so the
    right-hand block ends as a unimodular T with T @ mat the HNF; the rows
    of T beside its zero rows are a basis of the left kernel."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    aug = _hermite([[int(x) for x in row] + [int(i == j) for j in range(m)]
                    for i, row in enumerate(mat)], n)
    ker = [row[n:] for row in aug if not any(row[:n])]
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
