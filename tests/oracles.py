"""Shared independent oracles for the test suite."""

import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import gcd, isqrt, lcm
from operator import mul

import mpmath

from invlat import linalg
from invlat.cyclotomic import (
    CycNum,
    as_cycnum,
    common_conductor,
    cyc_from_json,
    cyc_to_json,
    cyclotomic_polynomial,
)
from invlat.errors import InternalConsistencyError, InvalidInputError, NotDiscreteError
from invlat.groups import (
    SparseMatrix,
    apply,
    as_matrix,
    class_character,
    class_sum,
    close_group,
    conjugacy_classes,
    find_reflections,
    trace,
)
from invlat.schur import SchurWitness, _expansion_conductor, _orbit_span
from invlat.lattices import (
    MultiplierRing,
    RankTwoLattice,
    ZLattice,
    flatten,
    fundamental_discriminant,
    lattice_from_generators,
    lattice_sum,
    lattice_to_json,
    reassemble,
    scale_lattice,
)


def divisors(n: int) -> list[int]:
    """The divisors of n, ascending, by trial division up to sqrt(n)."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _int_poly_quotient(num, den):
    # exact division of integer polynomials, ascending coefficients
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] // den[-1]
        out[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    if any(num):
        raise InternalConsistencyError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial_by_division(n: int) -> tuple[int, ...]:
    """Phi_n as x^n - 1 divided by Phi_d for every proper divisor d of n.  The
    library multiplies sparse binomials (x^d - 1)^mu(n/d) instead."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        poly = _int_poly_quotient(poly, cyclotomic_polynomial_by_division(d))
    return tuple(poly)


# Each descent pass tries every basis vector and RANDOM_COMBOS seeded random
# combinations of them; the descent ends after REQUIRED_STABLE_PASSES
# consecutive passes find no smaller span.
RANDOM_COMBOS = 8
REQUIRED_STABLE_PASSES = 2


def schur_index_by_descent(group, degree, start=None, seed=0, known_index=None):
    """Schur index via a seeded random descent to a minimal rational orbit
    span: regenerate from each basis vector and from RANDOM_COMBOS seeded
    random small-integer combinations, keeping any strictly smaller span,
    until REQUIRED_STABLE_PASSES consecutive passes make no progress.  An
    upper bound, exact whenever the final module is simple.  The library
    splits the orbit span by its commutant instead."""
    n = group.dimension
    if start is None:
        start = tuple(CycNum.rational(1 if k == 0 else 0) for k in range(n))
    conductor = _expansion_conductor(group, start)
    basis = _orbit_span(group, start, conductor)[0]
    smallest = (known_index or 1) * degree * n
    rng = random.Random(seed)
    stable = 0
    while stable < REQUIRED_STABLE_PASSES and len(basis) != smallest:
        improved = False
        candidates = [reassemble(n, conductor, row) for row in basis]
        for _ in range(RANDOM_COMBOS):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            if all(c == 0 for c in coeffs):
                coeffs[rng.randrange(len(basis))] = 1
            row = [
                sum(c * x for c, x in zip(coeffs, col))
                for col in zip(*basis)
            ]
            candidates.append(reassemble(n, conductor, tuple(row)))
        for vec in candidates:
            if all(x.is_zero() for x in vec):
                continue
            span = _orbit_span(group, vec, conductor)[0]
            if len(span) < len(basis):
                basis = span
                improved = True
                break
        stable = 0 if improved else stable + 1
    dim = len(basis)
    m = dim // (degree * n)
    return SchurWitness(m, dim, tuple(reassemble(n, conductor, row) for row in basis))


def mat_identity(n):
    """The n x n identity matrix with CycNum entries.  The library builds no
    identity matrix: it reads id -+ g entry by entry or off the character."""
    one, zero = CycNum.rational(1), CycNum.rational(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def euler_phi(n: int) -> int:
    """The number of units modulo n, by the product formula over the primes
    of n.  The library counts the units it needs directly."""
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def replace(record, **changes):
    """A new record of the same class with the given fields changed; the
    class's `__post_init__` runs on it."""
    values = {name: getattr(record, name) for name in record._fields}
    values.update(changes)
    return type(record)(**values)


def sparse(matrices):
    """Dense square matrices as the `SparseMatrix` records that
    `lattices.invariance_check` takes."""
    return [SparseMatrix(as_matrix(mat)) for mat in matrices]


def order_saturate(lattice, order):
    """Smallest order-stable lattice containing the input: L + omega*L."""
    out = lattice_sum(lattice, scale_lattice(order.generator, lattice))
    if out.rank != lattice.rank:
        raise InternalConsistencyError(
            "saturation changed the rank: lattice is not commensurable "
            "with an order-stable one"
        )
    return out


def numeric(x: CycNum, precision: int = 53) -> mpmath.mpc:
    """Floating approximation of x under z -> exp(2*pi*i/conductor); the
    error is below numeric_bound(x, precision)."""
    if precision < 53:
        raise ValueError("precision below 53 bits is not supported")
    with mpmath.workprec(precision + 32):
        n = x.conductor
        total = mpmath.mpc(0)
        for k, c in enumerate(x.coeffs):
            if c:
                term = mpmath.expjpi(mpmath.mpf(2 * k) / n)
                total += term * mpmath.mpf(c.numerator) / c.denominator
        return +total


def numeric_bound(x: CycNum, precision: int = 53) -> float:
    weight = 1 + sum(map(abs, x.coeffs))
    return 2.0 ** (1 - precision) * float(weight)


def exact_sign(x: CycNum) -> int:
    """Sign of a real cyclotomic number, decided rigorously."""
    if not x.is_real():
        raise ValueError("sign of a non-real value")
    if x.is_zero():
        return 0
    precision = 64
    while True:
        approx = numeric(x, precision)
        if abs(approx.real) > numeric_bound(x, precision):
            return 1 if approx.real > 0 else -1
        precision *= 2


def expand_vectors(vectors):
    """Common conductor and rational coordinate rows of cyclotomic vectors."""
    conductor = 1
    for vec in vectors:
        for x in vec:
            conductor = lcm(conductor, x.conductor)
    return conductor, [flatten(vec, conductor) for vec in vectors]


def matvec(mat, vec):
    """The dense product mat * vec, one sum of products per row."""
    return [sum((a * b for a, b in zip(row, vec)), row[0] * 0) for row in mat]


def real_part(x: CycNum) -> CycNum:
    """(x + conj(x)) / 2."""
    return (x + x.conjugate()) / 2


def skew_part(x: CycNum) -> CycNum:
    """(x - conj(x)) / 2, i.e. i times the imaginary part; stays in the field."""
    return (x - x.conjugate()) / 2


def mat_mul(a, b):
    """The dense n^3 product a * b, as a hashable matrix."""
    return tuple(tuple(row) for row in linalg.matmul(a, b))


def rref_divide_each_entry(rows):
    """(nonzero rows, pivot columns) of the reduced row echelon form, with the
    pivot row divided by its pivot entry by entry and every row eliminated
    over all columns.  The library eliminates on the integers, forward only,
    and solves the free columns by fraction-free back-substitution."""
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


def rref_full_width(rows):
    """(nonzero rows, pivot columns) of the reduced row echelon form of rows
    of ints and Fractions, by fraction-free Gauss-Jordan that rewrites every
    other row across its full width at each pivot: the retired route.  The
    library eliminates forward only, below each pivot, and solves the free
    columns by fraction-free back-substitution."""
    mat = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (d // x.denominator) for x in row])
    if not mat or not mat[0]:
        return [], []
    pivots = []
    prev = 1
    r = 0
    for c in range(len(mat[0])):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pivot_row = mat[r]
        p = pivot_row[c]
        for i, row in enumerate(mat):
            if i == r:
                continue
            a = row[c]
            if a:
                mat[i] = [(x * p - a * y) // prev for x, y in zip(row, pivot_row)]
            elif p != prev:
                mat[i] = [x * p // prev for x in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [[Fraction(x, prev) for x in row] for row in mat[:r]], pivots


def extended_gcd(a, b):
    """(g, u, v) with u*a + v*b = g = gcd(a, b) >= 0, by the recursive
    extended Euclid.  The library's `xgcd` iterates."""
    if b == 0:
        return abs(a), -1 if a < 0 else 1, 0
    g, u, v = extended_gcd(b, a % b)
    return g, v, u - a // b * v


def hermite_by_pairs(a, n):
    """Row Hermite normal form of the integer rows a, in place, pivoting in
    the first n columns on the first nonzero entry and clearing every row
    below it by the two-row update of `extended_gcd`.  The library clears
    each column by Euclid's reduction against its smallest entry."""
    m = len(a)
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        for i in range(r + 1, m):
            if a[i][c] != 0:
                g, u, v = extended_gcd(a[r][c], a[i][c])
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
    """(H, T) with T unimodular and T @ mat == H, the row HNF with its zero
    rows at the bottom: the library's `_hermite` on the rows [mat | I], the
    route `int_kernel` takes, split into its two blocks."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    aug = linalg._hermite([list(row) + [int(i == j) for j in range(m)]
                           for i, row in enumerate(mat)], n)
    return [row[:n] for row in aug], [row[n:] for row in aug]


def hnf_modulus_unpacked(a):
    """A positive multiple of the determinant of the lattice spanned by the
    m x n integer rows a, or 0 exactly when their rank is below n, on list
    rows: the retired route.  The library runs the same Bareiss pass on rows
    packed into one int each once it has enough steps.

    The gcd of some n x n minors: one Bareiss forward pass, as in `rref`,
    over the first n - 2 columns leaves every other row i with x_i and y_i
    in the last two columns, each a minor on the pivot rows and row i.  By
    Sylvester's identity (x_i * y_j - x_j * y_i) // prev, with prev the last
    pivot, is the n x n minor on the pivot rows and rows i and j.  The gcd
    stops as soon as it reaches 1.  For n = 1 it is the gcd of the column.
    a is not changed."""
    n = len(a[0])
    if n == 1:
        return gcd(*(row[0] for row in a))
    rows = a
    prev = 1
    for _ in range(n - 2):
        pr = next((i for i, row in enumerate(rows) if row[0]), None)
        if pr is None:
            return 0
        p, *tail = rows[pr]
        lower = []
        # each row keeps only the columns after the pivot column
        for row in rows[:pr] + rows[pr + 1:]:
            b = row[0]
            if b:
                lower.append([(x * p - b * y) // prev for x, y in zip(row[1:], tail)])
            elif p != prev:
                lower.append([x * p // prev for x in row[1:]])
            else:
                lower.append(row[1:])
        rows = lower
        prev = p
    r = 0
    for i, (x, y) in enumerate(rows):
        for u, v in rows[i + 1:]:
            r = gcd(r, (x * v - u * y) // prev)
            if r == 1:
                return 1
    return r


def _field_rows(mat):
    """mat with each int entry made a Fraction, so that division is exact."""
    return [[Fraction(x) if isinstance(x, int) else x for x in row] for row in mat]


def kernel_right(mat):
    """Basis of the right kernel {x : mat @ x = 0} of a matrix of ints,
    Fractions or cyclotomic numbers, read off `rref_divide_each_entry`.  The
    library intersects a lattice with a root line through n - 1 cross
    products of the root's entries instead."""
    if not mat:
        return []
    n = len(mat[0])
    rows = _field_rows(mat)
    red, pivots = rref_divide_each_entry(rows)
    one = rows[0][0] * 0 + 1
    zero = one * 0
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [zero] * n
        v[f] = one
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


def inverse_by_rref(mat):
    """Inverse of a square matrix of ints, Fractions or cyclotomic numbers,
    or None if singular: the right half of `rref_divide_each_entry` of
    [mat | I].  The library inverts rational matrices only."""
    n = len(mat)
    rows = _field_rows(mat)
    one = rows[0][0] * 0 + 1
    zero = one * 0
    aug = [row + [one if i == j else zero for j in range(n)] for i, row in enumerate(rows)]
    red, pivots = rref_divide_each_entry(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def fraction_identity(n):
    """The n x n identity matrix with Fraction entries."""
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def inverse(mat):
    """Inverse of a square matrix of ints and Fractions, or None if
    singular: the right half of the library's `rref` of [mat | I], whose
    identity block is n free columns."""
    n = len(mat)
    red, pivots = linalg.rref([list(row) + ident
                               for row, ident in zip(mat, fraction_identity(n))])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def intersect_with_subspace(lattice, span_vectors):
    """Lattice points in the complex span of the given vectors: the values of
    the basis vectors on a kernel basis of the span's functionals, flattened
    to integers, and their integer left kernel.  The library intersects with
    one line, on the n - 1 cross products of its root's entries."""
    functionals = kernel_right([[as_cycnum(x) for x in vec] for vec in span_vectors])
    vecs = lattice.vectors()
    if not vecs or not functionals:
        return lattice
    values = [
        [sum((x * y for x, y in zip(vec, f)), CycNum.rational(0)) for f in functionals]
        for vec in vecs
    ]
    _, rows = expand_vectors(values)
    den = lcm(*(x.denominator for row in rows for x in row))
    kernel = linalg.int_kernel([[int(x * den) for x in row] for row in rows])
    gens = [
        tuple(sum((c * v[i] for c, v in zip(krow, vecs)), CycNum.rational(0))
              for i in range(lattice.dim))
        for krow in kernel
    ]
    return lattice_from_generators(gens, dim=lattice.dim, allow_zero=True)


def intersect_with_line_by_values(lattice, root):
    """Lattice points on the complex line of the nonzero vector root, from
    the values root_p * v_j - root_j * v_p (j != p, p the first nonzero entry
    of root) of each basis vector v as CycNum products, flattened to
    integers, and their integer left kernel; the line lattice is rebuilt
    from CycNum combinations of the basis vectors.  The library multiplies
    the basis's integer rows by the roots' multiplication matrices and
    combines the rows themselves."""
    root = [as_cycnum(x) for x in root]
    vecs = lattice.vectors()
    if len(root) == 1 or not vecs:
        return lattice
    p = next(k for k, x in enumerate(root) if not x.is_zero())
    values = [
        [root[p] * v[j] - root[j] * v[p] for j in range(len(root)) if j != p]
        for v in vecs
    ]
    conductor = common_conductor(x for row in values for x in row)
    int_rows, _ = linalg.integral([flatten(row, conductor) for row in values])
    gens = [
        tuple(sum((c * v[i] for c, v in zip(krow, vecs)), CycNum.rational(0))
              for i in range(lattice.dim))
        for krow in linalg.int_kernel(int_rows)
    ]
    return lattice_from_generators(gens, dim=lattice.dim, allow_zero=True)


def lattice_index(big: ZLattice, small: ZLattice):
    """Index [big : small] for small a sublattice of big; math.inf when the
    ranks differ.

    Once containment is certified and the ranks agree, both lattices have
    the same rational span and so the same pivot columns, and the index is
    the ratio of their covolumes in the pivot coordinates: the products of
    the pivots, each over its denominator to the rank.  The library reads
    the index of the root lines' sum as the determinant of their kernel
    coordinates."""
    if any(big.basis_coords(vec) is None for vec in small.vectors()):
        raise InvalidInputError("second lattice is not contained in the first")
    if small.rank < big.rank:
        return math.inf
    if small.rank > big.rank:
        raise InvalidInputError("containment with larger rank is impossible")

    def pivots(rows):
        return [next(k for k, x in enumerate(row) if x) for row in rows]

    big_pivots = pivots(big.rows)
    if (small.conductor, pivots(small.rows)) != (big.conductor, big_pivots):
        raise InternalConsistencyError(
            "lattices of equal rank, one inside the other, have different spans"
        )
    num, den = big.den ** big.rank, small.den ** small.rank
    for p, small_row, big_row in zip(big_pivots, small.rows, big.rows):
        num *= small_row[p]
        den *= big_row[p]
    index, rest = divmod(num, den)
    if rest:
        raise InternalConsistencyError(f"lattice index {num}/{den} is not an integer")
    return index


def generating_reflections_by_echelon(group):
    """choose_generating_reflections with each greedy independence test made
    on a `rref_divide_each_entry` echelon form of the roots kept so far, and
    the fallback's spanning test on the same echelon forms, so over the
    field with one division per entry.  The library counts pivots of a
    division-free forward elimination."""
    n = group.dimension
    inventory = find_reflections(group)

    def spans(roots):
        return len(rref_divide_each_entry([list(r) for r in roots])[0])

    def generates(refs):
        mats = [r.matrix for r in refs]
        if set(group.generators) <= set(mats) | {mat_identity(n)}:
            return True
        return close_group(mats, cap=group.order).order == group.order

    chosen = []
    for ref in inventory:
        if spans([r.root for r in chosen] + [ref.root]) > len(chosen):
            chosen.append(ref)
            if len(chosen) == n:
                break
    if len(chosen) == n and generates(chosen):
        return tuple(chosen)
    for combo in combinations(inventory, n):
        if spans([r.root for r in combo]) == n and generates(combo):
            return tuple(combo)
    return None


def s_det_by_cofactors(refs):
    """det of s = sum of alpha_j phi_j, with s built entry by entry from the
    recorded roots and functionals and expanded by cofactors.  The library
    takes the determinant of the root functional matrix instead."""
    n = len(refs)
    zero = CycNum.rational(0)
    s = [[sum((r.root[i] * r.functional[j] for r in refs), zero) for j in range(n)]
         for i in range(n)]
    return det_by_cofactors(s)


def solve_right(mat, rhs):
    """One solution x of mat @ x = rhs, or None, from the rref of the
    augmented matrix; free variables are set to 0.  The library asks
    `linalg.Span` of the columns of mat instead."""
    m = len(mat)
    if m == 0:
        return None
    n = len(mat[0])
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    red, pivots = rref_divide_each_entry(_field_rows(aug))
    if n in pivots:
        return None
    zero = rhs[0] * 0 if rhs else Fraction(0)
    x = [zero] * n
    for row, c in zip(red, pivots):
        x[c] = row[n]
    return x


class FractionSpan:
    """The span of the rows added so far, by field elimination: every kept
    row is divided by its pivot and a row is reduced by subtracting
    multiples of the kept rows, so int and Fraction rows are reduced in
    Fractions.  Each kept row is extended by the combination of added rows
    that gives it.  The library keeps rational rows on the integers."""

    def __init__(self, rows=()):
        self._echelon = []  # (pivot, echelon row | its combination of kept rows)
        self._kept = []
        self._added = 0
        for row in rows:
            self.add(row)

    def __len__(self):
        return len(self._kept)

    @property
    def rows(self):
        return [row[: len(row) // 2] for _, row in self._echelon]

    def _reduce(self, row):
        zero = row[0] * 0 if row else Fraction(0)
        if type(zero) is int:
            zero = Fraction(0)
        extended = [x + zero for x in row] + [zero] * len(row)
        for pivot, echelon_row in self._echelon:
            c = extended[pivot]
            if c:
                extended = [x - c * y for x, y in zip(extended, echelon_row)]
        return extended

    def add(self, row) -> bool:
        extended = self._reduce(row)
        self._added += 1
        pivot = next((k for k in range(len(row)) if extended[k]), None)
        if pivot is None:
            return False
        lead = extended[pivot]
        extended[len(row) + len(self._kept)] = lead * 0 + 1
        self._echelon.append((pivot, [x / lead for x in extended]))
        self._kept.append(self._added - 1)
        return True

    def coords(self, row):
        extended = self._reduce(row)
        width = len(row)
        if any(extended[:width]):
            return None
        zero = extended[0] * 0 if extended else Fraction(0)
        out = [zero] * self._added
        for j, i in enumerate(self._kept):
            out[i] = -extended[width + j]
        return out


def check_discrete_by_field_rank(lattice):
    """Raise NotDiscreteError unless the rows (v | conj v) of the basis
    vectors have full rank over the cyclotomic field, by an exact CycNum
    rank on every lattice.  The library certifies full rank modulo a prime
    ideal first and ranks over the field only when that fails."""
    rows = lattice.vectors()
    if not rows:
        return
    doubled = [list(vec) + [x.conjugate() for x in vec] for vec in rows]
    if linalg.rank(doubled) != len(rows):
        raise NotDiscreteError(
            "integer span is not discrete: generators are dependent over the reals"
        )


def conj_transpose(mat):
    """The conjugate transpose of a square cyclotomic matrix."""
    n = len(mat)
    return tuple(tuple(mat[j][i].conjugate() for j in range(n)) for i in range(n))


def invariant_hermitian(group):
    """The averaged invariant positive-definite Hermitian form
    (1/|G|) sum g^H g, checked Hermitian and positive definite by the exact
    signs of its leading principal minors.  The library needs no invariant
    form."""
    n = group.dimension
    zero = CycNum.rational(0)
    total = [[zero] * n for _ in range(n)]
    for m in group.elements:
        prod = linalg.matmul(conj_transpose(m), m)
        total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, prod)]
    gram = tuple(tuple(x / group.order for x in row) for row in total)
    if gram != conj_transpose(gram):
        raise InvalidInputError("averaged form is not Hermitian")
    for k in range(1, n + 1):
        d = linalg.det([list(row[:k]) for row in gram[:k]])
        if not d.is_real() or exact_sign(d) <= 0:
            raise InvalidInputError("averaged form is not positive definite")
    return gram


def left_mult_matrix(x):
    """Matrix of y -> x y on the coefficient columns of a quaternion."""
    from invlat.quaternion import _left_mult

    return _left_mult(x.algebra.a, x.algebra.b, x.coords)


def quat_conjugate(x):
    """x0 - x1 i - x2 j - x3 k for x = x0 + x1 i + x2 j + x3 k."""
    x0, x1, x2, x3 = x.coords
    return x.algebra.element((x0, -x1, -x2, -x3))


def reduced_norm(x) -> CycNum:
    """x0^2 - a x1^2 - b x2^2 + ab x3^2 for x = x0 + x1 i + x2 j + x3 k."""
    x0, x1, x2, x3 = x.coords
    a, b = x.algebra.a, x.algebra.b
    return x0 * x0 - a * (x1 * x1) - b * (x2 * x2) + (a * b) * (x3 * x3)


def rank_two_coords_by_span(g1, g2, value):
    """Rational [x, y] with value = x*g1 + y*g2, or None: the three numbers
    are written as rational rows at a common conductor and the value's row is
    solved against the other two.  The library reads x and y off a closed
    formula in value / g1 and its conjugate."""
    _, (row1, row2, row) = expand_vectors([(g1,), (g2,), (value,)])
    return linalg.Span([row1, row2]).coords(row)


def minimal_polynomial(x: CycNum) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of x over the rationals, ascending
    coefficients, from the Fraction oracle's span of powers.  The library
    reads quadratic facts off x and its conjugate instead."""
    return FractionCycNum(x.conductor, list(x.coeffs)).minimal_polynomial()


def field_discriminant_by_minpoly(gen: CycNum) -> int:
    """Fundamental discriminant of Q(gen) for a non-real quadratic gen, from
    its minimal polynomial x^2 + c1 x + c0.  The library reads it off
    (gen - conj gen)^2."""
    poly = minimal_polynomial(gen)
    if len(poly) != 3:
        raise InternalConsistencyError("generator is not quadratic")
    c0, c1, _ = poly
    disc = c1 * c1 - 4 * c0
    if disc >= 0:
        raise InternalConsistencyError("quadratic generator is real")
    den = disc.denominator
    return fundamental_discriminant((disc * den * den).numerator)


def multiplier_ring_by_minpoly(gamma: RankTwoLattice) -> MultiplierRing:
    """The multiplier ring of gamma from the minimal polynomial of tau: Z
    unless tau is quadratic, else the order of f*tau, f the least integer
    that makes tau^2 = p tau + q integral.  The library reads p and q off
    the trace and norm of tau."""
    tau = gamma.tau()
    poly = minimal_polynomial(tau)
    if len(poly) != 3:
        return MultiplierRing("Z")
    p, q = -poly[1], -poly[0]
    f = lcm(p.denominator, q.denominator)
    disc = f * f * (p * p + 4 * q)
    assert disc.denominator == 1 and disc < 0
    disc = int(disc)
    d0 = fundamental_discriminant(disc)
    return MultiplierRing("order", disc, d0, isqrt(disc // d0), f * tau)


def field_degree_by_products(values) -> int:
    """Dimension over the rationals of the algebra generated by the values:
    a span closed under products with each non-rational value.  The library
    counts the Galois automorphisms that fix the values."""
    conductor = common_conductor(values)
    gens = list(dict.fromkeys(v for v in values if not v.is_rational()))
    one = CycNum.rational(1)
    span = linalg.Span([one.coords_at(conductor)])
    queue = [one]
    while queue:
        current = queue.pop(0)
        for g in gens:
            prod = current * g
            if span.add(prod.coords_at(conductor)):
                queue.append(prod)
    return len(span)


def isogeny_test(a: RankTwoLattice, b: RankTwoLattice):
    """A nonzero c with c * (rational span of b) = rational span of a, or None:
    one rational kernel vector of the rows of a.g1, a.g2, -tau_b*a.g1 and
    -tau_b*a.g2.  A split's factors are all the order itself, so the library
    renders the scalar 1 between them without a search."""
    tau_b = b.tau()
    vals = [a.g1, a.g2, -(tau_b * a.g1), -(tau_b * a.g2)]
    _, rows = expand_vectors([(v,) for v in vals])
    cols = [[rows[j][i] for j in range(4)] for i in range(len(rows[0]))]
    kernel = kernel_right(cols)
    if not kernel:
        return None
    coeffs = kernel[0]
    beta = coeffs[2] * a.g1 + coeffs[3] * a.g2
    if beta.is_zero():
        raise InternalConsistencyError("isogeny kernel vector gives a zero scalar")
    return beta / b.g1


def lattice_from_json(obj) -> ZLattice:
    """The lattice of a report's encoding (ambient, basis, denominator): each
    basis row adds up (coefficient / denominator) times the ambient vectors,
    and the sums generate the lattice.  The library writes this encoding and
    never reads it."""
    try:
        ambient = [tuple(cyc_from_json(x) for x in vec) for vec in obj["ambient"]]
        basis = [[int(x) for x in row] for row in obj["basis"]]
        den = int(obj["denominator"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad lattice encoding: {exc}") from exc
    if den <= 0:
        raise InvalidInputError("denominator must be positive")
    gens = []
    for row in basis:
        vec = None
        for coeff, avec in zip(row, ambient):
            term = tuple(Fraction(coeff, den) * x for x in avec)
            vec = term if vec is None else tuple(v + t for v, t in zip(vec, term))
        if vec is not None:
            gens.append(vec)
    dim = len(ambient[0]) if ambient else 0
    return lattice_from_generators(gens, dim=dim)


def lattice_json_by_pivot_hnf(vectors) -> dict:
    """The encoding of the integer span of the vectors by two eliminations:
    the rref of their rows at the common conductor gives the ambient span
    rows, and the HNF of the rows' entries at the pivot columns, over the
    least common denominator of those entries and then shrunk by its gcd
    with the HNF entries, gives the basis and denominator.  The library runs
    one HNF of the full rows and reads the encoding off it."""
    vectors = [tuple(as_cycnum(x) for x in vec) for vec in vectors]
    conductor, rows = expand_vectors(vectors)
    red, pivots = linalg.rref(rows)
    den = lcm(1, *(row[c].denominator for row in rows for c in pivots))
    basis = linalg.hnf([[int(row[c] * den) for c in pivots] for row in rows])
    shrink = gcd(den, *(x for row in basis for x in row))
    return {
        "ambient": [
            [cyc_to_json(x) for x in reassemble(len(vectors[0]), conductor, row)]
            for row in red
        ],
        "basis": [[x // shrink for x in row] for row in basis],
        "denominator": den // shrink,
    }


def vectors_by_cycnum_combination(lattice):
    """The basis vectors of a lattice as CycNum sums over its encoding: each
    basis row adds up (coefficient / denominator) times the ambient span
    vectors, one cyclotomic product and sum per term.  The library reads
    each basis vector off one integer row over its denominator."""
    obj = lattice_to_json(lattice)
    ambient = [tuple(cyc_from_json(x) for x in vec) for vec in obj["ambient"]]
    out = []
    for brow in obj["basis"]:
        vec = [CycNum.rational(0)] * lattice.dim
        for coeff, avec in zip(brow, ambient):
            if coeff:
                vec = [v + Fraction(coeff, obj["denominator"]) * a for v, a in zip(vec, avec)]
        out.append(tuple(vec))
    return tuple(out)


def basis_coords_by_spans(lattice, vector):
    """Integer coordinates of vector in the lattice basis, or None, from two
    `linalg.Span` reductions over the lattice's encoding: the flattened
    vector against the ambient span rows, then the denominator times its
    coordinates against the basis rows.  The library back-substitutes the
    scaled vector against its integer HNF rows."""
    if any(lattice.conductor % x.conductor for x in vector):
        return None
    obj = lattice_to_json(lattice)
    span_rows = [
        flatten([cyc_from_json(x) for x in vec], lattice.conductor) for vec in obj["ambient"]
    ]
    coords = linalg.Span(span_rows).coords(flatten(vector, lattice.conductor))
    if coords is None:
        return None
    basis = linalg.Span([[Fraction(x) for x in row] for row in obj["basis"]])
    sol = basis.coords([obj["denominator"] * c for c in coords])
    if sol is None or any(s.denominator != 1 for s in sol):
        return None
    return [int(s) for s in sol]


def is_discrete_by_vector_split(lattice):
    """True when the basis vectors (built by CycNum sums) are independent over
    the reals: the field rank of their (real part | skew part) rows.  The
    library ranks the rows (v | conj v) of its own basis vectors instead."""
    vecs = vectors_by_cycnum_combination(lattice)
    if not vecs:
        return True
    split = [[real_part(x) for x in v] + [skew_part(x) for x in v] for v in vecs]
    return linalg.rank(split) == len(vecs)


def orbit_lattice_by_rebuilding(group, seeds):
    """(lattice, builds): the orbit lattice of the seeds, grown from every
    generator image of every basis vector until a rebuild gives the same
    lattice back, and the number of lattices built.  The library stops as
    soon as the lattice contains every image, one build earlier."""
    lattice = lattice_from_generators(seeds, dim=group.dimension)
    builds = 1
    while True:
        vecs = lattice.vectors()
        images = [apply(g, v) for g in group.sparse_generators for v in vecs]
        grown = lattice_from_generators(list(vecs) + images, dim=group.dimension)
        builds += 1
        if grown == lattice:
            return lattice, builds
        lattice = grown


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
        for entry in matvec(mat, vector):
            row.extend(entry.coords_at(conductor))
        rows.append(row)
    reduced, _ = linalg.rref(rows)
    return [tuple(r) for r in reduced]


def orbit_lattice_all_elements(group, seeds):
    """Integer span of g*s for every one of the |G| elements g and every seed
    s, in one lattice construction.  The library closes the same lattice from
    the generators."""
    images = [tuple(matvec(g, list(s))) for g in group.elements for s in seeds]
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
    image = matvec(op, root)
    pivot = next(p for p, x in enumerate(root) if not x.is_zero())
    value = image[pivot] / root[pivot]
    assert image == [value * x for x in root], "cycle operator moved the root line"
    assert sum((op[i][i] for i in range(n)), CycNum.rational(0)) == value
    return value


def root_functional_matrix_by_factoring(refs):
    """A[k][j] = phi_k(alpha_j), with phi_k taken as row p of id - r_k, where
    the root alpha_k has its leading 1, and id - r_k = alpha_k phi_k checked
    entry by entry against the matrix.  The library reads the functional the
    reflection scan recorded."""
    n = len(refs[0].root)
    identity = mat_identity(n)
    phis = []
    for ref in refs:
        alpha = ref.root
        p = next(i for i, x in enumerate(alpha) if not x.is_zero())
        phi = [identity[p][q] - ref.matrix[p][q] for q in range(n)]
        for i in range(n):
            for q in range(n):
                assert identity[i][q] - ref.matrix[i][q] == alpha[i] * phi[q], (
                    "id - r is not its root times a functional"
                )
        phis.append(phi)
    zero = CycNum.rational(0)
    return tuple(
        tuple(sum((f * x for f, x in zip(phi, ref.root)), zero) for ref in refs)
        for phi in phis
    )


def isogeny_edges_by_images(dec):
    """{(j, k): index} over the ordered pairs of distinct root lines where
    id - r_k does not kill line j: the images of line j's lattice vectors under
    the dense id - r_k must lie in line k's lattice, and the index is
    [line k : the lattice they generate].  The library reads both off the
    scalar lattices of the lines and the root functional matrix."""
    n = dec.ambient.dim
    identity = mat_identity(n)
    out = {}
    for j, source in enumerate(dec.lines):
        for k, target in enumerate(dec.lines):
            if j == k:
                continue
            rk = dec.reflections[k].matrix
            op = [[identity[p][q] - rk[p][q] for q in range(n)] for p in range(n)]
            images = [tuple(matvec(op, list(v))) for v in source.lattice.vectors()]
            if all(x.is_zero() for w in images for x in w):
                continue
            assert all(target.lattice.contains(w) for w in images)
            image = lattice_from_generators(images, dim=n)
            out[(j, k)] = lattice_index(target.lattice, image)
    return out


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
    g^-1 * current^-1 for the inverse of each new element.  The library
    closes on the indices of each element's rows in the orbit of the row
    basis."""
    gens = [as_matrix(g) for g in generators]
    n = len(gens[0])
    gen_inverses = [
        tuple(tuple(row) for row in inverse_by_rref([list(r) for r in g]))
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


def conjugacy_classes_by_matrices(group):
    """The conjugacy classes of the group's elements, each a sorted tuple of
    element indices, in the order of their first members: the class of g is
    h*g*h^-1 over every element h, by dense products, with h^-1 from
    `inverse_by_rref`.  Matrices with rational integer entries only are
    multiplied as ints.  The library conjugates element indices by the
    generators alone, reading the products off the closure."""
    mats = group.elements
    integral = all(
        x.is_rational() and x.as_fraction().denominator == 1
        for m in mats for row in m for x in row
    )
    if integral:
        mats = [tuple(tuple(int(x.as_fraction()) for x in row) for row in m) for m in mats]
    index = {m: k for k, m in enumerate(mats)}

    def product(a, b_cols):
        return tuple(tuple(sum(map(mul, row, col)) for col in b_cols) for row in a)

    pairs = []  # (h, the columns of h^-1)
    for m in mats:
        inv = inverse_by_rref([list(r) for r in m])
        if integral:  # an integer matrix of finite order has an integer inverse
            inv = [[int(x) for x in row] for row in inv]
        pairs.append((m, tuple(zip(*inv))))
    class_of = [None] * len(mats)
    classes = []
    for k, g in enumerate(mats):
        if class_of[k] is None:
            g_cols = tuple(zip(*g))
            members = {index[product(product(h, g_cols), cols)] for h, cols in pairs}
            for j in members:
                assert class_of[j] is None, "conjugacy is not a partition"
                class_of[j] = len(classes)
            classes.append(tuple(sorted(members)))
    return tuple(classes)


def character(group):
    """The trace of each element, in element order.  The library takes one
    trace per conjugacy class."""
    return tuple(trace(mat) for mat in group.elements)


def indicator_by_squares(group):
    """(1/|G|) sum chi(g^2), with g^2 formed by a matrix product and looked up
    in the closure, which it must not escape.  The library finds g^2 from
    the closure's products along g's closure-tree path, once per class."""
    chi = character(group)
    index = {mat: k for k, mat in enumerate(group.elements)}
    total = CycNum.rational(0)
    for mat in group.elements:
        sq = index.get(mat_mul(mat, mat))
        assert sq is not None, "square of an element escaped the group"
        total = total + chi[sq]
    return total / group.order


def character_norm_by_inverses(group):
    """(1/|G|) sum chi(g) chi(g^-1), with g^-1 read off the inverse index of
    the dense closure.  The library takes chi(g^-1) = conj chi(g), which
    holds because the group is finite."""
    elements, inverse_index = close_group_dense(group.generators)
    assert elements == group.elements
    chi = character(group)
    total = CycNum.rational(0)
    for k, inv in enumerate(inverse_index):
        total = total + chi[k] * chi[inv]
    return total / group.order


def character_norm_by_products(group):
    """(1/|G|) sum |C| chi(C) conj chi(C), with each product formed as a
    CycNum and the products summed by `class_sum`.  The library folds the
    autocorrelations of the integer numerators into one sum and reduces it
    once."""
    chi = class_character(group)
    return class_sum(group, [x * x.conjugate() for x in chi]) / group.order


def reflections_by_rank_scan(group):
    """(element index, det, root) of every element g with rank(id - g) = 1,
    from a rank test on each of the |G| elements; the root is the first
    nonzero column of id - g scaled to lead with 1.  The library factors only
    the members of the classes whose character value passes a trace test and
    whose first member factors."""
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


def _gcd_certificate_by_kernels(n, labelled):
    """The gcd certificate from len(kernel_right) of each (label, matrix) in
    turn, or None."""
    found = [("ambient", n)]
    running = n
    if running == 1:
        return tuple(found)
    for label, mat in labelled:
        dim = len(kernel_right([list(r) for r in mat]))
        if 0 < dim < n and gcd(running, dim) < running:
            found.append((label, dim))
            running = gcd(running, dim)
        if running == 1:
            return tuple(found)
    return None


def _single_combos(group):
    """(label, g -+ id) for each element g, in element order."""
    n = group.dimension
    identity = mat_identity(n)
    for idx, g in enumerate(group.elements):
        for sign, word in ((-1, "-"), (1, "+")):
            yield f"element {idx} {word} id", [
                [g[r][c] + sign * identity[r][c] for c in range(n)] for r in range(n)
            ]


def gcd_kernel_singles(group):
    """The gcd certificate from the complex kernel dimensions of g - id and
    g + id, element by element, each counted as the length of a kernel
    basis.  The library reads each dimension off one rank, once per
    conjugacy class."""
    return _gcd_certificate_by_kernels(group.dimension, _single_combos(group))


def gcd_kernel_pairwise(group):
    """The gcd certificate from the single elements (g - id, g + id) and then
    every pair (g - h, g + h), in that order, or None.  O(|G|^2) kernels: run
    it on small groups only.  The library scans the single elements alone."""
    n = group.dimension

    def pairs():
        for i, g in enumerate(group.elements):
            for j in range(i + 1, group.order):
                h = group.elements[j]
                for sign, word in ((-1, "-"), (1, "+")):
                    yield f"element {i} {word} element {j}", [
                        [g[r][c] + sign * h[r][c] for c in range(n)] for r in range(n)
                    ]

    return _gcd_certificate_by_kernels(n, chain(_single_combos(group), pairs()))


def is_order(algebra, lattice) -> bool:
    """Rank-4 lattice of quaternion coefficients containing 1 and closed under
    multiplication, checked on every product of two basis elements."""
    if lattice.dim != 4 or lattice.rank != 4:
        return False
    one = tuple(CycNum.rational(1 if p == 0 else 0) for p in range(4))
    if not lattice.contains(one):
        return False
    basis = [algebra.element(v) for v in lattice.vectors()]
    return all(lattice.contains((x * y).coords) for x in basis for y in basis)


def endomorphisms_by_commutant(torus):
    """(rank, structure_tag, abelian, matches_input_lattice,
    center_discriminant, detail) of End(V/Λ), found in the coefficient basis:
    the rational commutant of J, its integral part by a determinant and an
    integer kernel, and the center of a rank-8 ring from matrix commutators.
    The library works in the lattice basis, where the ring is one integer
    kernel and the center is read off the multiplication table."""
    from invlat.cyclotomic import common_conductor
    from invlat.lattices import fundamental_discriminant

    j_mat = torus.j_matrix
    conductor = common_conductor(x for row in j_mat for x in row)
    rows = []
    for i in range(4):
        for jj in range(4):
            coeffs = [CycNum.rational(0)] * 16
            for p in range(4):
                coeffs[i * 4 + p] = coeffs[i * 4 + p] + j_mat[p][jj]
                coeffs[p * 4 + jj] = coeffs[p * 4 + jj] - j_mat[i][p]
            coords = [c.coords_at(conductor) for c in coeffs]
            for t in range(len(coords[0])):
                rows.append([Fraction(x[t]) for x in coords])
    comm = [
        [[as_cycnum(vec[p * 4 + q]) for q in range(4)] for p in range(4)]
        for vec in kernel_right(rows)
    ]
    r = len(comm)

    # integral part: x with W^-1 (sum x_t C_t) W integral, from the
    # determinant delta of r independent integrality equations
    w_mat = [list(row) for row in zip(*torus.lattice.vectors())]
    w_inv = inverse_by_rref(w_mat)
    columns = [
        [x.as_fraction() for row in linalg.matmul(linalg.matmul(w_inv, c), w_mat) for x in row]
        for c in comm
    ]
    q = lcm(*(x.denominator for col in columns for x in col))
    a_mat = [[int(columns[t][s] * q) for t in range(r)] for s in range(16)]
    span = linalg.Span()
    chosen = [row for row in a_mat if span.add([Fraction(x) for x in row])]
    delta = abs(int(linalg.det([[Fraction(x) for x in row] for row in chosen])))
    system = [[a_mat[s][t] for s in range(16)] for t in range(r)]
    system += [[-delta if s == t else 0 for s in range(16)] for t in range(16)]
    x_basis = [
        [Fraction(z * q, delta) for z in vec[:r]] for vec in linalg.int_kernel(system)
    ]
    assert len(x_basis) == r

    def combine(coeffs, basis):
        return [
            [sum((m[p][s] * x for x, m in zip(coeffs, basis)), CycNum.rational(0))
             for s in range(4)]
            for p in range(4)
        ]

    endo = [combine(x, comm) for x in x_basis]
    identity = [[CycNum.rational(int(p == s)) for s in range(4)] for p in range(4)]

    if r == 4:
        images = []
        for e_mat in endo:
            y = tuple(row[0] for row in e_mat)
            if [list(row) for row in left_mult_matrix(torus.algebra.element(y))] != e_mat:
                return (4, "other", None, None, None,
                        "rank-4 ring is not made of left multiplications")
            images.append(y)
        order_lat = lattice_from_generators(images)
        assert is_order(torus.algebra, order_lat)
        matches = order_lat == torus.lattice
        if torus.algebra.definite:
            return (
                4, "order-in-definite-quaternion", False, matches, None,
                "endomorphisms are left multiplications by an order in a definite "
                "quaternion algebra; no abelian surface has such an endomorphism ring",
            )
        return (4, "other", None, matches, None,
                "left multiplications by an order in an indefinite quaternion algebra")
    if r != 8:
        return (r, "other", None, None, None,
                f"commutant rank {r} outside the expected dichotomy")

    rows = []
    for e2 in endo:
        brackets = [(linalg.matmul(e1, e2), linalg.matmul(e2, e1)) for e1 in endo]
        for p in range(4):
            for s in range(4):
                rows.append([(ab[p][s] - ba[p][s]).as_fraction() for ab, ba in brackets])
    center = kernel_right(rows)
    if len(center) != 2:
        return (r, "other", None, None, None, f"center has rank {len(center)}, not 2")
    z_mat = next(
        m for m in (combine(vec, endo) for vec in center)
        if any(m[p][s] != (m[0][0] if p == s else 0) for p in range(4) for s in range(4))
    )
    z2 = linalg.matmul(z_mat, z_mat)

    def flat(mat):
        return [x.as_fraction() for row in mat for x in row]

    p_coef, q_coef = linalg.Span([flat(z_mat), flat(identity)]).coords(flat(z2))
    t_center = q_coef + p_coef * p_coef / 4
    if t_center >= 0:
        return (r, "other", None, None, None, "center is a real quadratic field")
    disc = fundamental_discriminant(t_center.numerator * t_center.denominator)
    certified = False
    if torus.direction is not None:
        a, b = torus.algebra.a, torus.algebra.b
        r1, r2, r3 = torus.direction
        ratio = (a * r1 * r1 + b * r2 * r2 - a * b * r3 * r3) / t_center
        num, den = ratio.numerator, ratio.denominator
        if num > 0 and isqrt(num) ** 2 == num and isqrt(den) ** 2 == den:
            s_val = Fraction(isqrt(num), isqrt(den))
            l_u = left_mult_matrix(torus.algebra.element((0, r1, r2, r3)))
            zeta0 = [
                [z_mat[p][s] - identity[p][s] * (p_coef / 2) for s in range(4)]
                for p in range(4)
            ]
            eta = [
                [x / (s_val * t_center) for x in row]
                for row in linalg.matmul(l_u, zeta0)
            ]
            minus = [[-x for x in row] for row in identity]
            certified = linalg.matmul(eta, eta) == identity and eta not in (identity, minus)
    if not certified:
        return (
            r, "other", None, None, disc,
            "endomorphism algebra is 8-dimensional with imaginary-quadratic center; "
            "matrix-algebra certificate not established",
        )
    return (
        r, "order-in-M2-of-imaginary-quadratic", True, None, disc,
        "endomorphism algebra is 8-dimensional with imaginary-quadratic center; "
        "zero-divisor certificate splits it as 2x2 matrices over that field",
    )



def classify_on_fractions(torus, ends, table, identity):
    """(rank, structure_tag, abelian, matches_input_lattice,
    center_discriminant, detail) of the ring with Z-basis ends (4 x 4
    integer matrices in the lattice basis), multiplication table table and
    identity coordinates identity, classified on Fraction matrices: W from
    the basis vectors' rational values, W^-1 by `inverse`, the
    rank-4 order test as a rational determinant and the rank-8 certificate
    as a rational matrix eta.  The library runs the same tests on integer
    matrices over one denominator each."""
    from invlat.quaternion import _left_mult

    w_mat = [[x.as_fraction() for x in row] for row in zip(*torus.lattice.vectors())]
    w_inv = inverse(w_mat)
    w_int, _ = linalg.integral(w_mat)
    inv_int, _ = linalg.integral(w_inv)
    a, b = torus.algebra.a, torus.algebra.b
    r = len(ends)
    if r == 4:
        for e in ends:
            mat = linalg.matmul(linalg.matmul(w_int, e), inv_int)
            if [list(row) for row in _left_mult(a, b, [row[0] for row in mat])] != mat:
                return (4, "other", None, None, None,
                        "rank-4 ring is not made of left multiplications")
        one = [row[0] for row in w_inv]
        coords = [[sum(x * y for x, y in zip(row, one)) for row in e] for e in ends]
        matches = (
            all(x.denominator == 1 for col in coords for x in col)
            and abs(linalg.det(coords)) == 1
        )
        if torus.algebra.definite:
            return (
                4, "order-in-definite-quaternion", False, matches, None,
                "endomorphisms are left multiplications by an order in a definite "
                "quaternion algebra; no abelian surface has such an endomorphism ring",
            )
        return (4, "other", None, matches, None,
                "left multiplications by an order in an indefinite quaternion algebra")
    if r != 8:
        return (r, "other", None, None, None,
                f"commutant rank {r} outside the expected dichotomy")
    center = linalg.int_kernel(
        [[table[i][j][k] - table[j][i][k] for j in range(r) for k in range(r)]
         for i in range(r)]
    )
    if len(center) != 2:
        return (r, "other", None, None, None, f"center has rank {len(center)}, not 2")
    scalars = linalg.Span([identity])
    z = next(vec for vec in center if scalars.coords(vec) is None)
    z2 = [
        sum(z[i] * z[j] * table[i][j][k] for i in range(r) for j in range(r))
        for k in range(r)
    ]
    p_coef, q_coef = linalg.Span([z, identity]).coords(z2)
    t_center = q_coef + p_coef * p_coef / 4
    if t_center >= 0:
        return (r, "other", None, None, None, "center is a real quadratic field")
    disc = fundamental_discriminant(t_center.numerator * t_center.denominator)
    certified = False
    if torus.direction is not None:
        r1, r2, r3 = torus.direction
        ratio = (a * r1 * r1 + b * r2 * r2 - a * b * r3 * r3) / t_center
        num, den = ratio.numerator, ratio.denominator
        if num > 0 and isqrt(num) ** 2 == num and isqrt(den) ** 2 == den:
            s_val = Fraction(isqrt(num), isqrt(den))
            l_u = linalg.matmul(linalg.matmul(w_inv, _left_mult(a, b, (0, r1, r2, r3))), w_mat)
            zeta0 = [x - p_coef / 2 * y for x, y in zip(z, identity)]
            zeta0_mat = [
                [sum(c * e[p][s] for c, e in zip(zeta0, ends)) for s in range(4)]
                for p in range(4)
            ]
            scale = 1 / (s_val * t_center)
            eta = [[x * scale for x in row] for row in linalg.matmul(l_u, zeta0_mat)]
            one = fraction_identity(4)
            minus_one = [[-x for x in row] for row in one]
            certified = linalg.matmul(eta, eta) == one and eta not in (one, minus_one)
    if not certified:
        return (
            r, "other", None, None, disc,
            "endomorphism algebra is 8-dimensional with imaginary-quadratic center; "
            "matrix-algebra certificate not established",
        )
    return (
        r, "order-in-M2-of-imaginary-quadratic", True, None, disc,
        "endomorphism algebra is 8-dimensional with imaginary-quadratic center; "
        "zero-divisor certificate splits it as 2x2 matrices over that field",
    )

# -- the Fraction-per-coefficient cyclotomic kernel ------------------------------

def fraction_reduce_mod_phi(dense, n):
    """Remainder of a dense Fraction polynomial modulo Phi_n, padded to phi(n)."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    p = list(dense)
    for k in range(len(p) - 1, deg - 1, -1):
        c = p[k]
        if c:
            for j in range(len(phi) - 1):
                p[k - deg + j] -= c * phi[j]
        p.pop()
    p += [Fraction(0)] * (deg - len(p))
    return p


def _fraction_fold(dense, n):
    out = [Fraction(0)] * n
    for k, c in enumerate(dense):
        if c:
            out[k % n] += c
    return out


def _fraction_dot(row, vec):
    return sum((a * b for a, b in zip(row, vec)), Fraction(0))


@lru_cache(maxsize=None)
def fraction_subfield_solver(n: int, d: int):
    """Solver data for rewriting conductor-n coordinates at conductor d | n.

    Returns (P, Q): the rewrite candidate is P @ x, and it is valid exactly
    when Q @ x = 0."""
    phi_n, phi_d = euler_phi(n), euler_phi(d)
    cols = []
    for j in range(phi_d):
        p = [Fraction(0)] * (j * (n // d)) + [Fraction(1)]
        cols.append(fraction_reduce_mod_phi(_fraction_fold(p, n), n))
    aug = [[cols[j][i] for j in range(phi_d)]
           + [Fraction(1) if k == i else Fraction(0) for k in range(phi_n)]
           for i in range(phi_n)]
    red, pivots = linalg.rref(aug)
    if pivots[:phi_d] != list(range(phi_d)):
        raise InternalConsistencyError(
            f"subfield basis at conductor {d} is dependent at conductor {n}"
        )
    p_rows = tuple(tuple(red[i][phi_d:]) for i in range(phi_d))
    q_rows = tuple(tuple(red[i][phi_d:]) for i in range(phi_d, len(red)))
    return p_rows, q_rows


def fraction_canonical(n, dense):
    """Reduce (conductor, dense coefficient list) to minimal-conductor form."""
    if n <= 0:
        raise ValueError("conductor must be positive")
    while n % 4 == 2:
        m = n // 2
        out = [Fraction(0)] * m
        for k, c in enumerate(dense):
            if c:
                out[(k * ((m + 1) // 2)) % m] += -c if k % 2 else c
        n, dense = m, out
    return _fraction_descend(n, fraction_reduce_mod_phi(_fraction_fold(dense, n), n))


def _fraction_descend(n, coeffs):
    """Minimal-conductor form of reduced coordinates at conductor n (n != 2 mod 4)."""
    # z^0 = 1 is a basis vector, so the value is rational exactly when the
    # other coordinates vanish; the subfield search then starts at d > 1
    if not any(coeffs[1:]):
        return 1, (coeffs[0],)
    for d in divisors(n)[1:-1]:
        if d % 4 == 2:
            continue
        p_rows, q_rows = fraction_subfield_solver(n, d)
        if all(_fraction_dot(q, coeffs) == 0 for q in q_rows):
            return d, tuple(_fraction_dot(p, coeffs) for p in p_rows)
    return n, tuple(coeffs)


class FractionCycNum:
    """A cyclotomic number stored as one Fraction per power-basis coordinate.

    The same canonical form as `CycNum` (minimal conductor, coordinates
    reduced modulo Phi_N), reached by Fraction arithmetic and a subfield
    search over every divisor of the conductor.  The library stores integer
    numerators over one denominator and descends one prime at a time.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs):
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        n, cs = int(conductor), [Fraction(c) for c in coeffs]
        if n == 1 and len(cs) == 1:
            self.conductor, self.coeffs = 1, (cs[0],)
            return
        self.conductor, self.coeffs = fraction_canonical(n, cs)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _new(n, coeffs) -> "FractionCycNum":
        """A value from data already in canonical form; no checks."""
        x = object.__new__(FractionCycNum)
        x.conductor = n
        x.coeffs = coeffs
        return x

    @staticmethod
    def rational(x) -> "FractionCycNum":
        return FractionCycNum._new(1, (Fraction(x),))

    def _scaled(self, r) -> "FractionCycNum":
        """r * self for a rational r."""
        if not r:
            return _FRACTION_ZERO
        return FractionCycNum._new(self.conductor, tuple(r * c for c in self.coeffs))

    def _lift_dense(self, m):
        """Dense coefficients of self at conductor m (conductor | m)."""
        step = m // self.conductor
        out = [Fraction(0)] * m
        for k, c in enumerate(self.coeffs):
            if c:
                out[k * step] += c
        return out

    def coords_at(self, m) -> tuple[Fraction, ...]:
        """Coordinate vector of self in the power basis at conductor m."""
        if m % self.conductor:
            raise ValueError("conductor does not divide target")
        if m == self.conductor:
            return self.coeffs
        return tuple(fraction_reduce_mod_phi(self._lift_dense(m), m))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = _as_fraction_cycnum(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1:
            self, other = other, self
        n = self.conductor
        if other.conductor == 1:
            # a rational moves only the z^0 coordinate and keeps the field
            return FractionCycNum._new(n, (self.coeffs[0] + other.coeffs[0],) + self.coeffs[1:])
        if n == other.conductor:
            sums = [x + y for x, y in zip(self.coeffs, other.coeffs)]
            return FractionCycNum._new(*_fraction_descend(n, sums))
        m = lcm(n, other.conductor)
        a, b = self._lift_dense(m), other._lift_dense(m)
        return FractionCycNum(m, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return FractionCycNum._new(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _as_fraction_cycnum(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_fraction_cycnum(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1:
            return other._scaled(self.coeffs[0])
        if other.conductor == 1:
            return self._scaled(other.coeffs[0])
        m = lcm(self.conductor, other.conductor)
        a, b = self.coords_at(m), other.coords_at(m)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return FractionCycNum(m, prod)

    __rmul__ = __mul__

    def inverse(self) -> "FractionCycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.conductor
        if n == 1:
            return FractionCycNum(1, [1 / self.coeffs[0]])
        # extended Euclid against the (irreducible) cyclotomic polynomial
        phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
        r0, r1 = phi, list(self.coeffs)
        u0, u1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            while r1 and not r1[-1]:
                r1.pop()
            q, rem = _fraction_poly_divmod(r0, r1)
            r0, r1 = r1, rem
            u0, u1 = u1, _fraction_poly_sub(u0, _fraction_poly_mul(q, u1))
        if len(r0) != 1:
            raise InternalConsistencyError("cyclotomic polynomial must be irreducible")
        inv = [c / r0[0] for c in u0]
        return FractionCycNum(n, inv)

    def __truediv__(self, other):
        other = _as_fraction_cycnum(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    # -- structure -----------------------------------------------------------

    def conjugate(self) -> "FractionCycNum":
        """Complex conjugate (the Galois map z -> z^-1)."""
        return self.galois(-1)

    def galois(self, a: int) -> "FractionCycNum":
        """Image under the field automorphism z -> z^a, gcd(a, conductor) = 1."""
        n = self.conductor
        a %= n
        if gcd(a, n) != 1:
            raise ValueError("exponent not coprime to conductor")
        out = [Fraction(0)] * n
        for k, c in enumerate(self.coeffs):
            if c:
                out[(k * a) % n] += c
        return FractionCycNum(n, out)

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.coeffs[0] == 0

    def minimal_polynomial(self) -> tuple[Fraction, ...]:
        """Monic minimal polynomial over the rationals, ascending coefficients."""
        n = self.conductor
        powers = linalg.Span([FractionCycNum.rational(1).coords_at(n)])
        p = FractionCycNum.rational(1)
        for k in range(1, euler_phi(n) + 1):
            p = p * self
            target = p.coords_at(n)
            sol = powers.coords(target)
            if sol is not None:
                return tuple([-c for c in sol] + [Fraction(1)])
            powers.add(target)
        raise InternalConsistencyError("degree cannot exceed the field degree")

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other):
        other = _as_fraction_cycnum(other)
        if other is NotImplemented:
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return cyc_str_by_fractions(self)

    __repr__ = __str__


def _fraction_poly_divmod(num, den):
    num = [Fraction(c) for c in num]
    dn = len(den) - 1
    q = [Fraction(0)] * max(len(num) - dn, 1)
    for k in range(len(num) - dn - 1, -1, -1):
        c = num[k + dn] / den[dn]
        q[k] = c
        if c:
            for j in range(dn + 1):
                num[k + j] -= c * den[j]
    while num and not num[-1]:
        num.pop()
    return q, num


def _fraction_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _fraction_poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return out


def _as_fraction_cycnum(x):
    if isinstance(x, FractionCycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return FractionCycNum._new(1, (Fraction(x),))
    return NotImplemented


_FRACTION_ZERO = FractionCycNum.rational(0)


def fraction_cyc_to_json(x) -> dict:
    """The JSON encoding of a CycNum or FractionCycNum, built from a Fraction
    per coordinate.  The library reads integer numerators with one gcd each."""
    return {
        "conductor": x.conductor,
        "coeffs": [[str(c.numerator), str(c.denominator)] for c in x.coeffs],
    }


def cyc_str_by_fractions(x) -> str:
    """The text of a CycNum or FractionCycNum, built from a Fraction per
    coordinate.  The library reads integer numerators with one gcd each."""
    if x.conductor == 1:
        return str(x.coeffs[0])
    terms = []
    for k, c in enumerate(x.coeffs):
        if not c:
            continue
        z = "1" if k == 0 else (f"z{x.conductor}" if k == 1 else f"z{x.conductor}^{k}")
        if k == 0:
            terms.append(str(c))
        elif c == 1:
            terms.append(z)
        elif c == -1:
            terms.append(f"-{z}")
        else:
            terms.append(f"{c}*{z}")
    return " + ".join(terms).replace("+ -", "- ")


def render_json_by_dumps(value) -> str:
    """A report's canonical text from the standard library encoder, whose
    indent selects its pure-Python path.  The library writes the same bytes
    in one recursive pass."""
    return json.dumps(value, sort_keys=True, indent=2)


def class_sum_by_fractions(group, values) -> CycNum:
    """The sum of |C| * values[C] over the conjugacy classes C, on a Fraction
    per coordinate at the common conductor.  The library sums integer
    numerators over the lcm of the denominators."""
    conductor = common_conductor(values)
    sizes = [len(cls) for cls in conjugacy_classes(group)]
    coords = zip(*(v.coords_at(conductor) for v in values))
    return CycNum(conductor, [sum(k * c for k, c in zip(sizes, col)) for col in coords])
