"""The kernels workload: seeded batches of public cyclotomic and linalg calls.

Each batch is one kernel at one size (an operation at a conductor, or rref/hnf
at a matrix size) applied to a fixed number of seeded operands.  Results are
checked after timing by routes that do not go through the code under test:
cyclotomic values are evaluated numerically from their raw coefficients with
mpmath, and matrices are checked with small eliminations written here.
"""

from __future__ import annotations

import numbers
import operator
import random
from fractions import Fraction
from math import gcd

import mpmath

CONDUCTORS = (1, 3, 4, 5, 8, 12, 24, 60)
CYC_CALLS = 100  # per (operation, conductor)
MATRIX_SIZES = (4, 8, 12)
MATRIX_CALLS = 40  # per (rref|hnf, size)

_DPS = 40
_TOL = mpmath.mpf(10) ** -25


def rate_names():
    """The per-call rate metric of every batch, in batch order."""
    names = []
    for n in CONDUCTORS:
        names += [f"cyclotomic.{op}.c{n}.us" for op in ("add", "mul", "canon")]
    for k in MATRIX_SIZES:
        names += [f"linalg.{op}.k{k}.ms" for op in ("rref", "hnf")]
    return names


def _phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def _primes(n: int):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))


class Batch:
    """One timed batch: `call(*args)` for each args tuple in `operands`."""

    def __init__(self, metric: str, call, operands, check):
        self.metric = metric  # per-layer rate name, e.g. cyclotomic.mul.c24.us
        self.call = call
        self.operands = operands
        self.check = check  # (args, result) -> None or a failure reason
        self.results = None

    def run(self):
        call = self.call
        self.results = [call(*args) for args in self.operands]

    def per_call(self, seconds: float) -> float:
        """The batch's time per call, in the unit its metric name ends with."""
        unit = self.metric.rsplit(".", 1)[1]
        return seconds * {"us": 1e6, "ms": 1e3}[unit] / len(self.operands)

    def failures(self):
        out = []
        with mpmath.workdps(_DPS):
            for args, result in zip(self.operands, self.results):
                reason = self.check(args, result)
                if reason is not None:
                    out.append(reason)
        return out


# -- numeric oracle for cyclotomic values --------------------------------------

class _Roots:
    """exp(2 pi i k / n), cached per conductor; use under workdps(_DPS)."""

    def __init__(self):
        self._tables = {}

    def table(self, n: int):
        if n not in self._tables:
            self._tables[n] = [mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in range(n)]
        return self._tables[n]

    def value(self, n: int, coeffs, power: int = 1):
        """sum c_k z_n^(power*k) from raw coefficients."""
        roots = self.table(n)
        total = mpmath.mpc(0)
        for k, c in enumerate(coeffs):
            if c:
                total += roots[(k * power) % n] * mpmath.mpf(c.numerator) / c.denominator
        return total


def _close(a, b) -> bool:
    return abs(a - b) <= _TOL * (1 + abs(a) + abs(b))


def _raw(x):
    """(conductor, coefficients) read straight off a CycNum."""
    return x.conductor, x.coeffs


def _minimality_failure(roots: _Roots, x):
    """None if x's stored conductor is minimal for its value, else a reason.

    x lies in Q(z_{f/p}) exactly when it is fixed by every automorphism
    z -> z^a with a = 1 mod f/p; this is tested numerically for each prime p
    dividing the stored conductor f."""
    f, coeffs = _raw(x)
    if len(coeffs) != _phi(f):
        return f"conductor {f} stored with {len(coeffs)} coefficients"
    if f % 4 == 2:
        return f"conductor {f} is 2 mod 4"
    here = roots.value(f, coeffs)
    for p in _primes(f):
        d = f // p
        fixed = all(
            _close(roots.value(f, coeffs, a), here)
            for a in range(1, f, d)
            if gcd(a, f) == 1
        )
        if fixed:
            return f"value at conductor {f} lies in Q(z{d})"
    return None


# -- independent exact checks for matrices --------------------------------------

def _rank(rows) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pr = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] / mat[rank][c]
            if f:
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _echelon_pivots(rows):
    """Pivot columns of an echelon matrix, or None if it is not echelon."""
    pivots = []
    for row in rows:
        p = next((c for c, x in enumerate(row) if x != 0), None)
        if p is None or (pivots and p <= pivots[-1]):
            return None
        pivots.append(p)
    return pivots


def _check_rref(args, result):
    (rows,) = args
    red, pivots = result
    if _echelon_pivots(red) != list(pivots):
        return "rref rows are not echelon with the reported pivots"
    for i, (row, p) in enumerate(zip(red, pivots)):
        if row[p] != 1 or any(red[j][p] != 0 for j in range(len(red)) if j != i):
            return "rref pivot column is not a unit column"
    for v in rows:
        combo = [sum((v[p] * row[c] for row, p in zip(red, pivots)), Fraction(0))
                 for c in range(len(v))]
        if combo != list(v):
            return "input row outside the rref row space"
    if len(red) != _rank(rows):
        return "rref has the wrong number of rows"
    return None


def _integer_echelon(rows):
    """An echelon basis of the integer row span of rows, with its pivot columns.

    Column by column, Euclid's algorithm on the rows that are nonzero there
    leaves one row holding the gcd, which becomes the next basis row."""
    rest = [list(row) for row in rows]
    basis, pivots = [], []
    for c in range(len(rest[0]) if rest else 0):
        live = [row for row in rest if row[c]]
        while len(live) > 1:
            head = min(live, key=lambda row: abs(row[c]))
            rest = [row if row is head or not row[c]
                    else [x - (row[c] // head[c]) * y for x, y in zip(row, head)]
                    for row in rest]
            live = [row for row in rest if row[c]]
        if live:
            basis.append(live[0])
            pivots.append(c)
            rest = [row for row in rest if row is not live[0]]
    return basis, pivots


def _integer_coords(vec, basis, pivots):
    """Integer coordinates of vec in an echelon integer basis, or None."""
    rest = list(vec)
    for row, p in zip(basis, pivots):
        q, r = divmod(rest[p], row[p])
        if r:
            return None
        if q:
            rest = [x - q * y for x, y in zip(rest, row)]
    return None if any(rest) else True


def _check_hnf(args, result):
    (mat,) = args
    if any(not isinstance(x, numbers.Integral) for row in result for x in row):
        return "hnf has an entry that is not an integer"
    pivots = _echelon_pivots(result)
    if pivots is None:
        return "hnf rows are not upper triangular"
    for i, (row, p) in enumerate(zip(result, pivots)):
        if row[p] <= 0 or any(not 0 <= result[j][p] < row[p] for j in range(i)):
            return "hnf pivots are not positive with reduced entries above"
    # H lies in the integer row span of mat, shown against an echelon basis of
    # that span computed here ...
    basis, basis_pivots = _integer_echelon(mat)
    if any(_integer_coords(row, basis, basis_pivots) is None for row in result):
        return "hnf row outside the integer span of the input"
    # ... and every input row lies in the integer span of H
    if any(_integer_coords(row, result, pivots) is None for row in mat):
        return "input row outside the integer span of the hnf basis"
    return None


# -- batch construction ------------------------------------------------------------

def _lift(coeffs, f, n):
    """Dense coefficients at conductor n of sum c_k z_f^k, for f | n."""
    dense = [Fraction(0)] * n
    for k, c in enumerate(coeffs):
        dense[k * (n // f)] = c
    return dense


def _scrambled(rng: random.Random, n: int):
    """A dense length-n input for construction at conductor n.

    Half the time the value is drawn from a proper subfield Q(z_d), so the
    construction has to descend; then zero sums z^k (1 + z^(n/p) + ... ) for
    primes p | n are added, so the input is far from any reduced form."""
    fields = [d for d in range(1, n) if n % d == 0 and d % 4 != 2]
    d = rng.choice(fields) if fields and rng.random() < 0.5 else n
    dense = _lift([_coeff(rng) for _ in range(_phi(d))], d, n)
    for p in _primes(n):
        shift, c = rng.randrange(n), rng.randint(-3, 3)
        for j in range(p):
            dense[(shift + j * (n // p)) % n] += c
    return dense


def make_batches(seed: int, cycnum, linalg):
    """The workload's batches with their seeded operands, in a fixed order."""
    rng = random.Random(seed)
    roots = _Roots()
    batches = []

    def element(n):
        return cycnum(n, [_coeff(rng) for _ in range(_phi(n))])

    def check_sum(args, result):
        x, y = args
        if not _close(roots.value(*_raw(result)), roots.value(*_raw(x)) + roots.value(*_raw(y))):
            return f"sum at conductor {x.conductor} has the wrong value"
        return _minimality_failure(roots, result)

    def check_product(args, result):
        x, y = args
        if not _close(roots.value(*_raw(result)), roots.value(*_raw(x)) * roots.value(*_raw(y))):
            return f"product at conductor {x.conductor} has the wrong value"
        return _minimality_failure(roots, result)

    def check_canonical(args, result):
        n, dense = args
        if not _close(roots.value(*_raw(result)), roots.value(n, dense)):
            return f"construction at conductor {n} changed the value"
        reason = _minimality_failure(roots, result)
        if reason is not None:
            return reason
        f, coeffs = _raw(result)
        if n % f:
            return f"conductor {f} does not divide the input conductor {n}"
        again = cycnum(n, _lift(coeffs, f, n))
        if _raw(again) != (f, coeffs):
            return f"lift from conductor {f} to {n} does not round-trip"
        return None

    for n in CONDUCTORS:
        pairs = [(element(n), element(n)) for _ in range(CYC_CALLS)]
        batches.append(Batch(f"cyclotomic.add.c{n}.us", operator.add, pairs, check_sum))
        pairs = [(element(n), element(n)) for _ in range(CYC_CALLS)]
        batches.append(Batch(f"cyclotomic.mul.c{n}.us", operator.mul, pairs, check_product))
        dense = [(n, _scrambled(rng, n)) for _ in range(CYC_CALLS)]
        batches.append(Batch(f"cyclotomic.canon.c{n}.us", cycnum, dense, check_canonical))
    for k in MATRIX_SIZES:
        mats = [([[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2))) for _ in range(k)]
                  for _ in range(k)],) for _ in range(MATRIX_CALLS)]
        # looked up per call, so a tracer that wraps the module attribute sees it
        batches.append(Batch(f"linalg.rref.k{k}.ms", lambda m: linalg.rref(m), mats,
                             _check_rref))
        mats = [([[rng.randint(-9, 9) for _ in range(k)] for _ in range(k + 4)],)
                for _ in range(MATRIX_CALLS)]
        batches.append(Batch(f"linalg.hnf.k{k}.ms", lambda m: linalg.hnf(m), mats,
                             _check_hnf))
    return batches
