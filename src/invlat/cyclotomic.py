"""Exact arithmetic in cyclotomic fields.

A value is a polynomial in z = exp(2*pi*i/N) with Fraction coefficients,
stored in the power basis 1, z, ..., z^(phi(N)-1) modulo the N-th cyclotomic
polynomial.  Every value is normalized to its minimal conductor (never 2 mod
4), so two equal numbers always have identical (conductor, coeffs) data and
equality and hashing are structural.

Some constructions skip canonicalisation because their result is canonical
by construction (CycNum._new sets the two slots directly):

* rationals (CycNum.rational, as_cycnum on int/Fraction, and CycNum(1, [q])):
  conductor 1 with one coefficient is already the minimal form;
* a rational plus x: it moves only the z^0 coordinate (1 is a basis
  vector) and leaves the field, hence the minimal conductor, unchanged;
* a rational times x, and negation: scaling by a nonzero rational also
  leaves the field unchanged and keeps the coefficients reduced (a zero
  factor gives the shared zero);
* the sum of two values of one conductor: both inputs are reduced modulo
  Phi_N, so their sum is too, and only the subfield test (_descend) runs.

Floating-point output exists only for diagnostics (numeric / numeric_bound);
all decisions in this package are made on exact data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

import mpmath

from .errors import InternalConsistencyError, InvalidInputError
from .linalg import Span, rref

# The largest conductor an input may name.  Phi_N and the subfield solvers of
# a conductor-N value cost row reductions phi(N) wide, so a larger N is
# rejected before any arithmetic.
MAX_CONDUCTOR = 1024


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
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
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        poly = _int_poly_quotient(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _reduce_mod_phi(dense, n):
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


def _fold(dense, n):
    out = [Fraction(0)] * n
    for k, c in enumerate(dense):
        if c:
            out[k % n] += c
    return out


def _dot(row, vec):
    return sum((a * b for a, b in zip(row, vec)), Fraction(0))


@lru_cache(maxsize=None)
def _subfield_solver(n: int, d: int):
    """Solver data for rewriting conductor-n coordinates at conductor d | n.

    Returns (P, Q): the rewrite candidate is P @ x, and it is valid exactly
    when Q @ x = 0."""
    phi_n, phi_d = euler_phi(n), euler_phi(d)
    cols = []
    for j in range(phi_d):
        p = [Fraction(0)] * (j * (n // d)) + [Fraction(1)]
        cols.append(_reduce_mod_phi(_fold(p, n), n))
    aug = [[cols[j][i] for j in range(phi_d)]
           + [Fraction(1) if k == i else Fraction(0) for k in range(phi_n)]
           for i in range(phi_n)]
    red, pivots = rref(aug)
    if pivots[:phi_d] != list(range(phi_d)):
        raise InternalConsistencyError(
            f"subfield basis at conductor {d} is dependent at conductor {n}"
        )
    p_rows = tuple(tuple(red[i][phi_d:]) for i in range(phi_d))
    q_rows = tuple(tuple(red[i][phi_d:]) for i in range(phi_d, len(red)))
    return p_rows, q_rows


def _canonical(n, dense):
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
    return _descend(n, _reduce_mod_phi(_fold(dense, n), n))


def _descend(n, coeffs):
    """Minimal-conductor form of reduced coordinates at conductor n (n != 2 mod 4)."""
    # z^0 = 1 is a basis vector, so the value is rational exactly when the
    # other coordinates vanish; the subfield search then starts at d > 1
    if not any(coeffs[1:]):
        return 1, (coeffs[0],)
    for d in divisors(n)[1:-1]:
        if d % 4 == 2:
            continue
        p_rows, q_rows = _subfield_solver(n, d)
        if all(_dot(q, coeffs) == 0 for q in q_rows):
            return d, tuple(_dot(p, coeffs) for p in p_rows)
    return n, tuple(coeffs)


class CycNum:
    """An element of a cyclotomic field, in canonical minimal-conductor form.

    Treat instances as immutable.  Mixed arithmetic with int and Fraction
    works; two values of different conductors are combined in the compositum.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs):
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        n, cs = int(conductor), [Fraction(c) for c in coeffs]
        if n == 1 and len(cs) == 1:
            self.conductor, self.coeffs = 1, (cs[0],)
            return
        self.conductor, self.coeffs = _canonical(n, cs)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _new(n, coeffs) -> "CycNum":
        """A value from data already in canonical form; no checks."""
        x = object.__new__(CycNum)
        x.conductor = n
        x.coeffs = coeffs
        return x

    @staticmethod
    def rational(x) -> "CycNum":
        return CycNum._new(1, (Fraction(x),))

    def _scaled(self, r) -> "CycNum":
        """r * self for a rational r."""
        if not r:
            return _ZERO
        return CycNum._new(self.conductor, tuple(r * c for c in self.coeffs))

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
        return tuple(_reduce_mod_phi(self._lift_dense(m), m))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = as_cycnum(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1:
            self, other = other, self
        n = self.conductor
        if other.conductor == 1:
            # a rational moves only the z^0 coordinate and keeps the field
            return CycNum._new(n, (self.coeffs[0] + other.coeffs[0],) + self.coeffs[1:])
        if n == other.conductor:
            sums = [x + y for x, y in zip(self.coeffs, other.coeffs)]
            return CycNum._new(*_descend(n, sums))
        m = lcm(n, other.conductor)
        a, b = self._lift_dense(m), other._lift_dense(m)
        return CycNum(m, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return CycNum._new(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = as_cycnum(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = as_cycnum(other)
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
        return CycNum(m, prod)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.conductor
        if n == 1:
            return CycNum(1, [1 / self.coeffs[0]])
        # extended Euclid against the (irreducible) cyclotomic polynomial
        phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
        r0, r1 = phi, list(self.coeffs)
        u0, u1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            while r1 and not r1[-1]:
                r1.pop()
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1))
        if len(r0) != 1:
            raise InternalConsistencyError("cyclotomic polynomial must be irreducible")
        inv = [c / r0[0] for c in u0]
        return CycNum(n, inv)

    def __truediv__(self, other):
        other = as_cycnum(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return as_cycnum(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycNum.rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure -----------------------------------------------------------

    def conjugate(self) -> "CycNum":
        """Complex conjugate (the Galois map z -> z^-1)."""
        return self.galois(-1)

    def galois(self, a: int) -> "CycNum":
        """Image under the field automorphism z -> z^a, gcd(a, conductor) = 1."""
        n = self.conductor
        a %= n
        if gcd(a, n) != 1:
            raise ValueError("exponent not coprime to conductor")
        out = [Fraction(0)] * n
        for k, c in enumerate(self.coeffs):
            if c:
                out[(k * a) % n] += c
        return CycNum(n, out)

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.coeffs[0] == 0

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def is_real(self) -> bool:
        return self == self.conjugate()

    def real_part(self) -> "CycNum":
        return (self + self.conjugate()) / 2

    def skew_part(self) -> "CycNum":
        """(x - conj(x)) / 2, i.e. i times the imaginary part; stays in the field."""
        return (self - self.conjugate()) / 2

    def minimal_polynomial(self) -> tuple[Fraction, ...]:
        """Monic minimal polynomial over the rationals, ascending coefficients."""
        n = self.conductor
        powers = Span([CycNum.rational(1).coords_at(n)])
        p = CycNum.rational(1)
        for k in range(1, euler_phi(n) + 1):
            p = p * self
            target = p.coords_at(n)
            sol = powers.coords(target)
            if sol is not None:
                return tuple([-c for c in sol] + [Fraction(1)])
            powers.add(target)
        raise AssertionError("degree cannot exceed the field degree")

    # -- diagnostics ---------------------------------------------------------

    def numeric(self, precision: int = 53) -> mpmath.mpc:
        """Floating approximation under z -> exp(2*pi*i/conductor).

        The error is below numeric_bound(precision).  Diagnostic only; never
        used for decisions."""
        if precision < 53:
            raise ValueError("precision below 53 bits is not supported")
        with mpmath.workprec(precision + 32):
            n = self.conductor
            total = mpmath.mpc(0)
            for k, c in enumerate(self.coeffs):
                if c:
                    term = mpmath.expjpi(mpmath.mpf(2 * k) / n)
                    total += term * mpmath.mpf(c.numerator) / c.denominator
            return +total

    def numeric_bound(self, precision: int = 53) -> float:
        weight = 1 + sum(abs(c) for c in self.coeffs)
        return 2.0 ** (1 - precision) * float(weight)

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other):
        other = as_cycnum(other)
        if other is NotImplemented:
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        if self.conductor == 1:
            return hash(self.coeffs[0])
        return hash((self.conductor, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.conductor == 1:
            return str(self.coeffs[0])
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            z = "1" if k == 0 else (f"z{self.conductor}" if k == 1 else f"z{self.conductor}^{k}")
            if k == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(z)
            elif c == -1:
                terms.append(f"-{z}")
            else:
                terms.append(f"{c}*{z}")
        return " + ".join(terms).replace("+ -", "- ")

    __repr__ = __str__


def _poly_divmod(num, den):
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


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return out


def as_cycnum(x):
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum._new(1, (Fraction(x),))
    return NotImplemented


_ZERO = CycNum.rational(0)


def zeta(n: int, k: int = 1) -> CycNum:
    """The root of unity exp(2*pi*i*k/n)."""
    dense = [Fraction(0)] * (k % n) + [Fraction(1)]
    return CycNum(n, dense)


def common_conductor(values) -> int:
    out = 1
    for v in values:
        out = lcm(out, v.conductor)
    return out


@lru_cache(maxsize=None)
def _sqrt_prime(p: int) -> CycNum:
    """Square root of a prime as a cyclotomic number."""
    if p == 2:
        return zeta(8) + zeta(8, -1)
    # quadratic Gauss sum: sum of legendre(k) z_p^k is sqrt(p) or i*sqrt(p)
    dense = [Fraction(0)] * p
    for k in range(1, p):
        dense[k] = Fraction(1) if pow(k, (p - 1) // 2, p) == 1 else Fraction(-1)
    g = CycNum(p, dense)
    if p % 4 == 1:
        return g
    return g / zeta(4)


def sqrt_rational(x) -> CycNum:
    """An exact square root of a nonzero rational, as a cyclotomic number."""
    x = Fraction(x)
    if x == 0:
        return CycNum.rational(0)
    num = x.numerator * x.denominator
    result = CycNum.rational(Fraction(1, x.denominator))
    if num < 0:
        result = result * zeta(4)
        num = -num
    square = isqrt(num)
    while square * square > num or num % (square * square):
        square -= 1
    result = result * square
    rest = num // (square * square)
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            result = result * _sqrt_prime(p)
            rest //= p
        p += 1
    if rest > 1:
        result = result * _sqrt_prime(rest)
    return result


def exact_sign(x: CycNum) -> int:
    """Sign of a real cyclotomic number, decided rigorously."""
    if not x.is_real():
        raise ValueError("sign of a non-real value")
    if x.is_zero():
        return 0
    precision = 64
    while True:
        approx = x.numeric(precision)
        if abs(approx.real) > x.numeric_bound(precision):
            return 1 if approx.real > 0 else -1
        precision *= 2


def cyc_to_json(x: CycNum) -> dict:
    return {
        "conductor": x.conductor,
        "coeffs": [[str(c.numerator), str(c.denominator)] for c in x.coeffs],
    }


def _input_conductor(n: int) -> int:
    if not 1 <= n <= MAX_CONDUCTOR:
        raise InvalidInputError(f"conductor {n} is outside 1..{MAX_CONDUCTOR}")
    return n


def cyc_from_json(obj) -> CycNum:
    if isinstance(obj, int):
        return CycNum.rational(obj)
    if isinstance(obj, str):
        return parse_scalar(obj)
    if not isinstance(obj, dict) or "conductor" not in obj or "coeffs" not in obj:
        raise InvalidInputError(f"not a scalar: {obj!r}")
    try:
        conductor = int(obj["conductor"])
        coeffs = [Fraction(int(p), int(q)) for p, q in obj["coeffs"]]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad scalar encoding: {exc}") from exc
    return CycNum(_input_conductor(conductor), coeffs)


def parse_scalar(text: str) -> CycNum:
    """Parse compact scalar syntax: 'p/q', 'zN', 'zetaN', 'zN^k', or sums like
    '2*z3 + 1' with integer or p/q coefficients.  Inverse to str()."""
    total = CycNum.rational(0)
    stripped = text.replace("-", "+-").replace(" ", "")
    parts = stripped.split("+")
    # only the leading part may be empty (it is when text starts with '-')
    if not parts or any(not p for p in parts[1:]) or (len(parts) == 1 and not parts[0]):
        raise InvalidInputError(f"bad scalar syntax: {text!r}")
    for part in parts:
        if not part:
            continue
        sign = 1
        if part.startswith("-"):
            sign, part = -1, part[1:]
        coeff = Fraction(1)
        if "*" in part:
            c, part = part.split("*", 1)
            try:
                coeff = Fraction(c)
            except (ValueError, ZeroDivisionError) as exc:
                raise InvalidInputError(f"bad scalar syntax: {text!r}") from exc
        if part.startswith("zeta") or (
            len(part) > 1 and part[0] == "z" and part[1].isdigit()
        ):
            body = part[4:] if part.startswith("zeta") else part[1:]
            if "^" in body:
                n, k = body.split("^", 1)
            else:
                n, k = body, "1"
            try:
                n, k = int(n), int(k)
            except ValueError as exc:
                raise InvalidInputError(f"bad scalar syntax: {text!r}") from exc
            term = zeta(_input_conductor(n), k)
        else:
            try:
                term = CycNum.rational(Fraction(part))
            except (ValueError, ZeroDivisionError) as exc:
                raise InvalidInputError(f"bad scalar syntax: {text!r}") from exc
        total = total + sign * coeff * term
    return total
