"""Exact arithmetic in cyclotomic fields.

A value is a polynomial in z = exp(2*pi*i/N), stored in the power basis
1, z, ..., z^(phi(N)-1) modulo the N-th cyclotomic polynomial Phi_N as a
tuple of integer numerators over one positive common denominator, the two
reduced by their gcd.  Every value is normalized to its minimal conductor
(never 2 mod 4), so two equal numbers always have identical
(conductor, numerators, denominator) data and equality and hashing are
structural.

All arithmetic runs on the integers.  Phi_N is monic with integer
coefficients, so reducing an integer product modulo Phi_N stays integral;
a sum cross-scales the two numerator tuples to the lcm of the denominators.
The minimal conductor is found one prime at a time: a value at conductor N
lies in Q(z_d) exactly when its minimal conductor divides d, so only the
maximal subfields Q(z_(N/p)) are tested, and the search moves down on
success.

* When p^2 | N, Phi_N(x) = Phi_(N/p)(x^p), so the value lies in Q(z_(N/p))
  exactly when its coordinates vanish off the multiples of p, and those are
  its coordinates there.
* When p divides N once, Q(z_N) = Q(z_(N/p)) tensor Q(z_p), and one integer
  pass over the coordinates decides membership and rewrites them
  (_crt_subfield; T. Breuer, AAECC 8, 1997).  Most values fail that test,
  so a rejection is first sought modulo a prime.  Take a = 1 mod N/p with
  a mod p generating (Z/p)^x: then sigma_a (z -> z^a) generates
  Gal(Q(z_N)/Q(z_(N/p))), so x lies in Q(z_(N/p)) exactly when
  sigma_a(x) = x.  With (l, g) = splitting_prime(N), z -> g is a ring map
  Z[z_N] -> F_l, so sum c_k g^k != sum c_k g^(ak) mod l certifies
  sigma_a(x) != x and the exact test is skipped.  Equal images prove
  nothing: the value then goes to the exact test unchanged.  The image of x
  is shared by the primes of one descent step, and the power tables are
  cached per (N, p).
* The value is rational exactly when the coordinates 1.. vanish (z^0 = 1 is
  a basis vector).

Some constructions skip the subfield search because their result keeps the
field of an input: a rational plus x moves only the z^0 coordinate, scaling
by a nonzero rational and negation keep the field, and so does a Galois
conjugate.  Rational operands take integer fast paths: the sum, difference
or product of two rationals is one integer operation, with no gcd when both
denominators are 1 and one gcd otherwise; x + 0, x - 0, 0 + x and x * 1
return x; an int operand of `*` and `==` is read without building a
CycNum.  `+` and `-` share one body with a sign, so a difference makes one
object.  The inverse is an extended Euclid against Phi_N on integer
polynomials kept primitive, O(phi(N)^2).

`splitting_prime(n)` gives a prime l = 1 mod n and a g of order n modulo l,
so that z_n -> g maps Z[z_n] onto F_l; a rank over the field can then be
certified by a rank over F_l (lattices._check_discrete).
`multiplication_rows` gives the integer matrix of multiplication by an
element of Z[z_n], so a product with it can act on integer rows of
coordinates (lattices.intersect_with_line).

`squarefree_part` is the one square-class routine, read by every quadratic
discriminant and by `sqrt_rational`.  Facts about one value come from its
conjugates, never from a span of its powers.

`coeffs` and `coords_at` present the coordinates as Fractions.  `str` and
`cyc_to_json` read the integer numerators with one gcd per coordinate and
give the same text as a Fraction per coordinate would.  The package has no
floating point: all decisions are made on exact data.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from operator import add, mul, sub

from .errors import InternalConsistencyError, InvalidInputError

# The largest conductor an input may name.  Building Phi_N and each product
# and inverse at conductor N take integer work quadratic in N (the subfield
# tests are linear in N), so a larger N is rejected before any arithmetic.
MAX_CONDUCTOR = 1024


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic.

    Phi_n is the product of (x^d - 1)^mu(n/d) over the divisors d of n.  For
    n > 1 the exponents sum to 0, so Phi_n is also the product of the
    (1 - x^d)^mu(n/d), a power series of degree phi(n), computed only that
    far.  Only squarefree n/d count, one per set of primes of n: a factor
    1 - x^d subtracts the series shifted by d, in descending order, and its
    inverse 1 + x^d + x^2d + ... adds it back, in ascending order."""
    if n == 1:
        return (-1, 1)
    primes = _prime_factors(n)
    deg = n
    for p in primes:
        deg = deg // p * (p - 1)
    series = [1] + [0] * deg
    for chosen in range(1 << len(primes)):
        d = n // prod(p for i, p in enumerate(primes) if chosen >> i & 1)
        if chosen.bit_count() % 2 == 0:
            for k in range(deg, d - 1, -1):
                series[k] -= series[k - d]
        else:
            for k in range(d, deg + 1):
                series[k] += series[k - d]
    return tuple(series)


@lru_cache(maxsize=None)
def _phi_tail(n: int):
    """(phi(n), the nonzero lower coefficients of Phi_n as (j - phi(n), c))."""
    poly = cyclotomic_polynomial(n)
    deg = len(poly) - 1
    return deg, tuple((j - deg, c) for j, c in enumerate(poly[:-1]) if c)


def _reduce_mod_phi(dense, n):
    """Remainder of an integer polynomial modulo Phi_n, as a list of length
    phi(n); Phi_n is monic, so the remainder stays integral."""
    deg, tail = _phi_tail(n)
    p = list(dense)
    for k in range(len(p) - 1, deg - 1, -1):
        c = p[k]
        if c:
            for off, a in tail:
                p[k + off] -= c * a
    del p[deg:]
    p += [0] * (deg - len(p))
    return p


def multiplication_rows(nums, n):
    """The matrix of multiplication by x = sum nums[k] z_n^k, for integer
    coordinates nums at conductor n: row k holds the coordinates of
    z_n^k * x, so a row of coordinates times the matrix gives those of its
    product with x.  Each row is the one before times z_n, a shift with the
    top coordinate folded back by Phi_n."""
    deg, tail = _phi_tail(n)
    row = list(nums)
    rows = [row]
    for _ in range(deg - 1):
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            for off, a in tail:
                row[deg + off] -= top * a
        rows.append(row)
    return rows


def _fold(dense, n):
    """Dense coefficients reduced modulo x^n - 1, so that a long input costs
    one pass before the reduction modulo Phi_n."""
    out = [0] * n
    for k, c in enumerate(dense):
        if c:
            out[k % n] += c
    return out


def _halve(n, dense):
    """(n / 2, the same value at conductor n / 2) for n = 2 mod 4: with m = n / 2
    odd, z_n = -z_m^((m + 1) / 2)."""
    m = n // 2
    h = (m + 1) // 2
    out = [0] * m
    for k, c in enumerate(dense):
        if c:
            out[(k * h) % m] += -c if k & 1 else c
    return m, out


def _convolve(a, b):
    """Product of two integer polynomials, ascending coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _crt_subfield(n, p, nums):
    """Integer coordinates at conductor m = n / p, for p dividing n once, of
    the value with integer coordinates nums at conductor n; None when the
    value is not in Q(z_m).

    With u = p^-1 mod m and v = m^-1 mod p, z_n^k = z_m^(ku) * z_p^(kv), so
    the value is the sum of A_j(z_m) * z_p^j, where A_j collects the k with
    kv = j mod p, i.e. k = jm mod p.  Over Q(z_m) the z_p^j with 0 < j < p
    are a basis and z_p^0 is minus their sum, so the value lies in Q(z_m)
    exactly when every A_j - A_1 vanishes modulo Phi_m, and is then A_0 - A_1."""
    m = n // p
    u = pow(p, -1, m)

    def part(j):
        out = [0] * m
        for k in range(j * m % p, len(nums), p):
            if nums[k]:
                out[k * u % m] += nums[k]
        return out

    first = part(1)
    for j in range(2, p):
        if any(_reduce_mod_phi(list(map(sub, part(j), first)), m)):
            return None
    return _reduce_mod_phi(list(map(sub, part(0), first)), m)


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    primes, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return primes


@lru_cache(maxsize=None)
def _maximal_subfields(n: int):
    """(p, n / p) for each prime p | n, the coefficient-pattern cases (p^2 | n)
    first; Q(z_1) is left out, since the rational test comes before."""
    out = [(p, n // p) for p in _prime_factors(n) if n // p > 1]
    out.sort(key=lambda pd: pd[1] % pd[0] != 0)
    return tuple(out)


def _primitive_root(p: int) -> int:
    """The least generator of (Z/p)^x for a prime p."""
    primes = _prime_factors(p - 1)
    r = 1
    while not all(pow(r, (p - 1) // q, p) != 1 for q in primes):
        r += 1
    return r


def _relative_generator(n: int, p: int) -> int:
    """The a in 1..n with a = 1 mod n / p and a mod p a generator of
    (Z/p)^x, for p dividing n once: z_n -> z_n^a fixes z_(n/p) and generates
    Gal(Q(z_n)/Q(z_(n/p))), which is (Z/p)^x."""
    m = n // p
    return 1 + m * ((_primitive_root(p) - 1) * pow(m, -1, p) % p)


@lru_cache(maxsize=None)
def _galois_images(n: int, p: int):
    """(l, g^k mod l, g^(ak) mod l for k < phi(n)), with (l, g) =
    splitting_prime(n) and a = _relative_generator(n, p): the images in F_l
    of the power basis and of its conjugates under z_n -> z_n^a."""
    ell, g = splitting_prime(n)
    a = _relative_generator(n, p)
    powers = [1] * n
    for k in range(1, n):
        powers[k] = powers[k - 1] * g % ell
    phi = _phi_tail(n)[0]
    return ell, tuple(powers[:phi]), tuple(powers[a * k % n] for k in range(phi))


def _descend(n, nums):
    """(m, coordinates at conductor m): the minimal conductor m of the value
    with integer coordinates nums at conductor n (n != 2 mod 4), and its
    integer coordinates there."""
    while True:
        if not any(nums[1:]):
            return 1, nums[:1]
        image = None
        for p, d in _maximal_subfields(n):
            if d % p == 0:
                # Phi_n(x) = Phi_d(x^p): Q(z_d) holds the values whose
                # coordinates vanish off the multiples of p
                if any(any(nums[r::p]) for r in range(1, p)):
                    continue
                nums = nums[::p]
                if d % 4 == 2:
                    d, nums = _halve(d, nums)
                    nums = _reduce_mod_phi(nums, d)
            else:
                # x and its conjugate sigma_a(x) over Q(z_d) differ in F_l:
                # x is outside Q(z_d); equal images prove nothing
                ell, powers, moved = _galois_images(n, p)
                if image is None:
                    image = sum(map(mul, nums, powers)) % ell
                if sum(map(mul, nums, moved)) % ell != image:
                    continue
                coords = _crt_subfield(n, p, nums)
                if coords is None:
                    continue
                nums = coords
            n = d
            break
        else:
            return n, nums


def _canonical(n, dense):
    """(conductor, integer coordinates) of the minimal-conductor form of an
    integer dense coefficient list at conductor n."""
    if n <= 0:
        raise ValueError("conductor must be positive")
    while n % 4 == 2:
        n, dense = _halve(n, dense)
    if len(dense) > n:
        dense = _fold(dense, n)
    return _descend(n, _reduce_mod_phi(dense, n))


def _make(n, nums, den):
    """The CycNum (sum nums[k] z_n^k) / den from minimal-conductor coordinates
    and a positive den, reduced by their gcd."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return CycNum._new(n, tuple(nums), den)


def _trimmed(poly):
    poly = list(poly)
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _poly_sub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _inverse_coords(n, nums):
    """(u, s) with (sum u[k] z^k) * (sum nums[k] z^k) = s at conductor n, s != 0.

    An extended Euclid of the numerator polynomial a against Phi_n on
    integer polynomials: each remainder is a pseudo-remainder made primitive,
    and r_i = (u_i / s_i) * a mod Phi_n is kept with u_i an integer polynomial
    and s_i > 0."""
    r0, r1 = list(cyclotomic_polynomial(n)), _trimmed(nums)
    u0, s0, u1, s1 = [0], 1, [1], 1
    while len(r1) > 1:
        lead, shift = r1[-1], len(r1) - 1
        terms = len(r0) - shift
        scale = lead ** terms
        rem = [c * scale for c in r0]
        quo = [0] * terms
        for k in range(terms - 1, -1, -1):
            c = rem[k + shift] // lead  # exact after the scaling by lead^terms
            if c:
                quo[k] = c
                for j, y in enumerate(r1, k):
                    rem[j] -= c * y
        rem = _trimmed(rem[:shift])
        if not rem:
            raise InternalConsistencyError("cyclotomic polynomial must be irreducible")
        # rem = scale * r0 - quo * r1 = (scale * u0 / s0 - quo * u1 / s1) * a
        u = _poly_sub([c * scale * s1 for c in u0], [c * s0 for c in _convolve(quo, u1)])
        g = gcd(*rem)
        rem = [c // g for c in rem]
        s = s0 * s1 * g
        h = gcd(s, *u)
        r0, u0, s0 = r1, u1, s1
        r1, u1, s1 = rem, [c // h for c in u], s // h
    return u1, s1 * r1[0]


# Miller-Rabin with the bases 2, 3, 5 and 7 is exact below this bound
# (Jaeschke, Math. Comp. 61, 1993).
_MILLER_RABIN_BOUND = 3_215_031_751


def _is_prime(n: int) -> bool:
    """Primality of 0 <= n < _MILLER_RABIN_BOUND by Miller-Rabin with the
    bases 2, 3, 5 and 7."""
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError("Miller-Rabin with bases 2, 3, 5, 7 is not exact here")
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    if n < 2:
        return False
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def splitting_prime(n: int) -> tuple[int, int]:
    """(l, g): the least prime l = 1 mod n above 2^31, and g of multiplicative
    order exactly n modulo l.

    Then g is a root of Phi_n modulo l, so z_n -> g is a ring map from
    Z[z_n] onto F_l; it sends the conjugate z_n^-1 to g^-1.  Found on the
    first call for each n, by a walk over l = 1 mod n."""
    ell = 2**31 - 2**31 % n + 1
    while ell <= 2**31 or not _is_prime(ell):
        ell += n
    primes = _prime_factors(n)
    h = 2
    while True:
        g = pow(h, (ell - 1) // n, ell)
        if all(pow(g, n // q, ell) != 1 for q in primes):
            return ell, g
        h += 1


class CycNum:
    """An element of a cyclotomic field, in canonical minimal-conductor form.

    Treat instances as immutable.  Mixed arithmetic with int and Fraction
    works; two values of different conductors are combined in the compositum.
    """

    __slots__ = ("conductor", "_nums", "_den")

    def __init__(self, conductor, coeffs):
        if isinstance(coeffs, (int, Fraction)):
            coeffs = [coeffs]
        n = int(conductor)
        # each coefficient read once, as (numerator, denominator)
        pairs = [(c, 1) if type(c) is int else
                 (c if type(c) is Fraction else Fraction(c)).as_integer_ratio() for c in coeffs]
        den = lcm(*{q for _, q in pairs})
        nums = [p for p, _ in pairs] if den == 1 else [p * (den // q) for p, q in pairs]
        if n != 1 or len(nums) != 1:
            n, nums = _canonical(n, nums)
        x = _make(n, nums, den)
        self.conductor, self._nums, self._den = x.conductor, x._nums, x._den

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _new(n, nums, den) -> "CycNum":
        """The value (sum nums[k] z_n^k) / den from data already in canonical
        form; no checks."""
        x = object.__new__(CycNum)
        x.conductor = n
        x._nums = nums
        x._den = den
        return x

    @staticmethod
    def from_numerators(n, nums, den=1) -> "CycNum":
        """The value (sum nums[k] z_n^k) / den for integers nums and den > 0,
        brought to canonical form."""
        m, nums = _canonical(n, list(nums))
        return _make(m, nums, den)

    @staticmethod
    def rational(x) -> "CycNum":
        if type(x) is int:
            return CycNum._new(1, (x,), 1)
        q = Fraction(x)
        return CycNum._new(1, (q.numerator,), q.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates at the conductor, as Fractions."""
        return self.coords_at(self.conductor)

    def _scaled(self, num, den) -> "CycNum":
        """(num / den) * self for integers num and den > 0."""
        if not num:
            return _ZERO
        if num == 1 and den == 1:
            return self
        return _make(self.conductor, [c * num for c in self._nums], self._den * den)

    def _lift_dense(self, m):
        """Dense numerators of self at conductor m (conductor | m), up to the
        position of the last stored coordinate."""
        nums = self._nums
        step = m // self.conductor
        out = [0] * ((len(nums) - 1) * step + 1)
        out[::step] = nums
        return out

    def _coords(self, m):
        """Numerators of self in the power basis at conductor m (conductor | m)."""
        if m == self.conductor:
            return self._nums
        return _reduce_mod_phi(self._lift_dense(m), m)

    def numerators_at(self, m):
        """(integer numerators nums, denominator den) of self at conductor m
        (conductor | m): self is (sum nums[k] z_m^k) / den, and den is the
        least positive integer that makes den * self integral."""
        if m % self.conductor:
            raise ValueError("conductor does not divide target")
        return self._coords(m), self._den

    def coords_at(self, m) -> tuple[Fraction, ...]:
        """Coordinate vector of self in the power basis at conductor m."""
        if m % self.conductor:
            raise ValueError("conductor does not divide target")
        den = self._den
        if den == 1:
            return tuple(map(Fraction, self._coords(m)))
        return tuple(Fraction(c, den) for c in self._coords(m))

    # -- ring operations -----------------------------------------------------

    def _plus(self, other, sign):
        """self + sign * other for a CycNum other and sign = 1 or -1."""
        n, m = self.conductor, other.conductor
        a_den, b_den = self._den, other._den
        if m == 1:
            b = other._nums[0]
            if not b:
                return self
            if n == 1:
                # both rational: integer arithmetic, and a gcd only over a den
                a = self._nums[0]
                if a_den == 1 and b_den == 1:
                    return CycNum._new(1, (a + b if sign > 0 else a - b,), 1)
                return _make(1, [a * b_den + sign * b * a_den], a_den * b_den)
        elif n == 1 and not self._nums[0]:
            return other if sign > 0 else -other
        if a_den == b_den:
            a_f = b_f = 1
        else:
            g = gcd(a_den, b_den)
            a_f, b_f = b_den // g, a_den // g
        den = a_den * a_f
        if m == 1:
            # a rational moves only the z^0 coordinate and keeps the field
            nums = [c * a_f for c in self._nums] if a_f != 1 else list(self._nums)
            nums[0] += sign * b * b_f
            return _make(n, nums, den)
        b_f *= sign
        if n == 1:
            # the same with the roles swapped: other keeps its field
            nums = [c * b_f for c in other._nums]
            nums[0] += self._nums[0] * a_f
            return _make(m, nums, den)
        if n == m:
            a, b = self._nums, other._nums
        else:
            n = lcm(n, m)
            a, b = self._coords(n), other._coords(n)
        if a_f == 1 and b_f == 1:
            sums = list(map(add, a, b))
        elif a_f == 1 and b_f == -1:
            sums = list(map(sub, a, b))
        else:
            sums = [x * a_f + y * b_f for x, y in zip(a, b)]
        m, nums = _descend(n, sums)
        return _make(m, nums, den)

    def __add__(self, other):
        if type(other) is not CycNum:
            other = as_cycnum(other)
            if other is NotImplemented:
                return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return CycNum._new(self.conductor, tuple(-c for c in self._nums), self._den)

    def __sub__(self, other):
        if type(other) is not CycNum:
            other = as_cycnum(other)
            if other is NotImplemented:
                return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = as_cycnum(other)
        if other is NotImplemented:
            return NotImplemented
        return other._plus(self, -1)

    def __mul__(self, other):
        if type(other) is not CycNum:
            if type(other) is int:
                if self.conductor == 1 and self._den == 1:
                    return CycNum._new(1, (self._nums[0] * other,), 1)
                return self._scaled(other, 1)
            other = as_cycnum(other)
            if other is NotImplemented:
                return NotImplemented
        if self.conductor == 1:
            if other.conductor == 1:
                a, b = self._nums[0], other._nums[0]
                if self._den == 1 and other._den == 1:
                    return CycNum._new(1, (a * b,), 1)
                return _make(1, [a * b], self._den * other._den)
            return other._scaled(self._nums[0], self._den)
        if other.conductor == 1:
            return self._scaled(other._nums[0], other._den)
        n = self.conductor
        if n == other.conductor:
            a, b = self._nums, other._nums
        else:
            n = lcm(n, other.conductor)
            a, b = self._coords(n), other._coords(n)
        m, nums = _descend(n, _reduce_mod_phi(_convolve(a, b), n))
        return _make(m, nums, self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n, den = self.conductor, self._den
        if n == 1:
            num = self._nums[0]
            return CycNum._new(1, (den if num > 0 else -den,), abs(num))
        # the inverse lies in the same field, so it keeps the conductor
        u, s = _inverse_coords(n, self._nums)
        if s < 0:
            u, s = [-c for c in u], -s
        return _make(n, _reduce_mod_phi([c * den for c in u], n), s)

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
        if n == 1:
            return self
        out = [0] * n
        for k, c in enumerate(self._nums):
            if c:
                out[(k * a) % n] += c
        # Q(z_d) is Galois over Q, so the image keeps the minimal conductor
        return _make(n, _reduce_mod_phi(out, n), self._den)

    def is_zero(self) -> bool:
        return self.conductor == 1 and not self._nums[0]

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._nums[0], self._den)

    def is_real(self) -> bool:
        return self == self.conjugate()

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not CycNum:
            if type(other) is int:
                return self.conductor == 1 and self._den == 1 and self._nums[0] == other
            other = as_cycnum(other)
            if other is NotImplemented:
                return NotImplemented
        return (self.conductor == other.conductor and self._den == other._den
                and self._nums == other._nums)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        if self.conductor == 1:
            if self._den == 1:
                return hash(self._nums[0])
            return hash(Fraction(self._nums[0], self._den))
        return hash((self.conductor, self._nums, self._den))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        n, den = self.conductor, self._den
        if n == 1:
            num = self._nums[0]
            return str(num) if den == 1 else f"{num}/{den}"
        terms = []
        for k, c in enumerate(self._nums):
            if not c:
                continue
            g = gcd(c, den)
            c, d = c // g, den // g
            text = str(c) if d == 1 else f"{c}/{d}"
            if k == 0:
                terms.append(text)
                continue
            z = f"z{n}" if k == 1 else f"z{n}^{k}"
            if d == 1 and c == 1:
                terms.append(z)
            elif d == 1 and c == -1:
                terms.append(f"-{z}")
            else:
                terms.append(f"{text}*{z}")
        return " + ".join(terms).replace("+ -", "- ")

    __repr__ = __str__


def as_cycnum(x):
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum.rational(x)
    return NotImplemented


_ZERO = CycNum.rational(0)


def zeta(n: int, k: int = 1) -> CycNum:
    """The root of unity exp(2*pi*i*k/n)."""
    dense = [0] * (k % n) + [1]
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
    dense = [0] + [1 if pow(k, (p - 1) // 2, p) == 1 else -1 for k in range(1, p)]
    g = CycNum(p, dense)
    if p % 4 == 1:
        return g
    return g / zeta(4)


def squarefree_part(n: int) -> int:
    """The squarefree s with n = s * f^2 for an integer f; 0 for n = 0.

    Trial division stops as soon as the cofactor still to be split is a
    perfect square, so the cost is set by the primes of s, not by f: the
    square class of a discriminant read off a cyclotomic number has only
    primes of its conductor."""
    sign, rest, out, p = (n > 0) - (n < 0), abs(n), 1, 2
    square = isqrt(rest) ** 2 == rest
    while not square and p * p <= rest:
        if rest % p == 0:
            while rest % (p * p) == 0:
                rest //= p * p
            if rest % p == 0:
                out *= p
                rest //= p
            square = isqrt(rest) ** 2 == rest
        p += 1
    return sign * out * (1 if square else rest)


def sqrt_rational(x) -> CycNum:
    """An exact square root of a rational, as a cyclotomic number."""
    x = Fraction(x)
    if x == 0:
        return CycNum.rational(0)
    num = x.numerator * x.denominator
    rest = squarefree_part(num)
    result = CycNum.rational(Fraction(isqrt(num // rest), x.denominator))
    if rest < 0:
        result = result * zeta(4)
    for p in _prime_factors(abs(rest)):
        result = result * _sqrt_prime(p)
    return result


def cyc_to_json(x: CycNum) -> dict:
    """{"conductor": N, "coeffs": [[num, den], ...]}: each coordinate at the
    conductor as a reduced fraction, its numerator and denominator as strings."""
    den = x._den
    coeffs = []
    for c in x._nums:
        g = gcd(c, den)
        coeffs.append([str(c // g), str(den // g)])
    return {"conductor": x.conductor, "coeffs": coeffs}


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
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad scalar encoding: {exc}") from exc
    return CycNum(_input_conductor(conductor), coeffs)


_RATIONAL = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def _parse_rational(part, text):
    """The rational 'a' or 'a/b' that part spells.  Exponent and decimal
    forms are rejected: Fraction would expand '1e10000000' in full."""
    match = _RATIONAL.fullmatch(part)
    if match is not None:
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidInputError(f"bad scalar syntax: {text!r}")


def parse_scalar(text: str) -> CycNum:
    """Parse compact scalar syntax: 'p/q', 'zN', 'zetaN', 'zN^k', or sums like
    '2*z3 + 1' with integer or p/q coefficients.  Inverse to str()."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        try:
            return CycNum.rational(int(text))
        except ValueError:
            pass  # over int()'s digit limit: the general route rejects it
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
        coeff = 1
        if "*" in part:
            c, part = part.split("*", 1)
            coeff = _parse_rational(c, text)
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
            term = CycNum.rational(_parse_rational(part, text))
        total = total + sign * coeff * term
    return total
