"""Exact arithmetic in the union of cyclotomic fields.

A CyclotomicScalar is a finite Q-linear combination of the unit-circle
exponentials e(r) = exp(2*pi*i*r) with r in Q/Z.  Products follow
e(r)e(r') = e(r+r'), and equality is decided exactly by reducing the
exponent vector modulo a cyclotomic polynomial.  This ring contains every
value we need: roots of unity, rationals, Gauss sums, and sqrt(p) for odd
p.

Normal form: every instance holds a conductor `n` (an int >= 1) and a
dict `coeffs` {k: c} with int keys k in [0, n), each standing for
e(k/n), and nonzero Fraction values c.  The public constructor brings
arbitrary input to that form; the ring operations build their results
directly in it, rewriting operands at the lcm of their conductors, and
wrap them with the trusted `_normal`.  The stored conductor is not part
of the value: `terms`, the read-only view {k/n: c} that callers print,
does not depend on it.  The normal form is not unique (e(0) + e(1/2)
equals 0), so equality is decided by `is_zero`, which reduces an int
vector at the least conductor of the keys.  Instances are immutable:
operations may return an operand itself or a cached value such as
`sqrt_prime(p)`, so `coeffs` is never changed in place.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def _poly_divmod_int(num, den):
    # Exact division of integer polynomials (den monic up to leading unit);
    # coefficient lists are little-endian.
    num = list(num)
    lead = den[-1]
    q = [0] * (max(len(num) - len(den) + 1, 0))
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        c //= lead
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Integer coefficients (little-endian) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod_int(num, list(cyclotomic_poly(d)))
            if r:
                raise ArithmeticError("cyclotomic division left a remainder")
            num = q
    return tuple(num)


_ONE = Fraction(1)


class CyclotomicScalar:
    __slots__ = ("n", "coeffs")

    def __init__(self, terms=None):
        # terms: dict {r mod 1 : coeff}, any keys and values Fraction takes
        clean = {}
        if terms:
            for r, c in terms.items():
                r = Fraction(r) % 1
                c = Fraction(c)
                if c:
                    clean[r] = clean.get(r, Fraction(0)) + c
                    if not clean[r]:
                        del clean[r]
        self.n = lcm(*[r.denominator for r in clean])
        self.coeffs = {r.numerator * (self.n // r.denominator): c
                       for r, c in clean.items()}

    @property
    def terms(self):
        """The view {k/n: c}: Fraction keys in [0, 1), built on each read."""
        n = self.n
        return {Fraction(k, n): c for k, c in self.coeffs.items()}

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rational(c):
        if not isinstance(c, Fraction):
            c = Fraction(c)
        return _normal(1, {0: c} if c else {})

    @staticmethod
    def root_of_unity(r):
        if not isinstance(r, Fraction):
            r = Fraction(r)
        d = r.denominator
        return _normal(d, {r.numerator % d: _ONE})

    @staticmethod
    def zero():
        return _normal(1, {})

    @staticmethod
    def one():
        return _normal(1, {0: _ONE})

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        n = self.n
        if other.n != n:
            n = lcm(n, other.n)
            a, b = _at(self, n), _at(other, n)
        if len(a) < len(b):
            a, b = b, a
        t = dict(a)
        for k, c in b.items():
            s = t.get(k)
            if s is None:
                t[k] = c
            else:
                s += c
                if s:
                    t[k] = s
                else:
                    del t[k]
        # zero has one stored form, at conductor 1
        return _normal(n if t else 1, t)

    __radd__ = __add__

    def __neg__(self):
        return _normal(self.n, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self.coeffs) < len(other.coeffs):
            self, other = other, self
        n = self.n
        a, b = self.coeffs, other.coeffs
        if other.n != n:
            n = lcm(n, other.n)
            a, b = _at(self, n), _at(other, n)
        if len(b) == 1:
            # a monomial c*e(s/n) rotates the other factor: no keys collide
            ((s, c),) = b.items()
            if not s:
                if c == 1:
                    return self
                return _normal(n, {k: x * c for k, x in a.items()})
            # c is 1 for every root of unity, psi's values included
            if c == 1:
                return _normal(n, {(k + s) % n: x for k, x in a.items()})
            return _normal(n, {(k + s) % n: x * c for k, x in a.items()})
        t = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                if k >= n:
                    k -= n
                c = c1 * c2
                s = t.get(k)
                t[k] = c if s is None else s + c
        t = {k: c for k, c in t.items() if c}
        return _normal(n if t else 1, t)

    __rmul__ = __mul__

    def conj(self):
        n = self.n
        return _normal(n, {(n - k if k else k): c
                           for k, c in self.coeffs.items()})

    # -- decision procedures --------------------------------------------
    def _reduced(self):
        """(m, remainder coeff list) with the element written in the power
        basis 1, z, ..., z^(phi(m)-1) of Q(zeta_m), m the least conductor
        of the keys.  The reduction runs on the int vector D * self, D the
        common denominator of the coefficients; only the remainder is
        divided by D."""
        d = self.coeffs
        if not d:
            return 1, []
        n = self.n
        m = lcm(*[n // gcd(k, n) for k in d])
        step = n // m  # k / n = (k // step) / m, exactly
        den = lcm(*[c.denominator for c in d.values()])
        vec = [0] * m
        for k, c in d.items():
            vec[k // step] += c.numerator * (den // c.denominator)
        phi = cyclotomic_poly(m)
        # remainder of vec modulo the monic phi, on its nonzero coefficients
        deg = len(phi) - 1
        nonzero = [(j - deg, a) for j, a in enumerate(phi) if a]
        for i in range(m - 1, deg - 1, -1):
            c = vec[i]
            if c:
                for j, a in nonzero:
                    vec[i + j] -= c * a
        rem = vec[:deg]
        while rem and not rem[-1]:
            rem.pop()
        return m, [Fraction(v, den) for v in rem]

    def is_zero(self):
        if not self.coeffs:
            return True
        if len(self.coeffs) == 1:
            return False  # a single nonzero multiple of a root of unity
        _, rem = self._reduced()
        return not rem

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        # the reduced form depends on the conductor it is written at, so
        # only the rational value, which does not, may enter the hash
        r = self.as_rational()
        return 1 if r is None else hash(r)

    def as_rational(self):
        """Return self as a Fraction, or None if irrational."""
        d = self.coeffs
        if not d:
            return Fraction(0)
        if len(d) == 1 and 0 in d:
            return d[0]
        _, rem = self._reduced()
        if not rem:
            return Fraction(0)
        if len(rem) == 1:
            return rem[0]
        return None

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if not self.coeffs:
            return "Cyc(0)"
        n = self.n
        bits = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            bits.append(f"{c}*e({Fraction(k, n)})" if k else f"{c}")
        return "Cyc(" + " + ".join(bits) + ")"


_new = object.__new__


def _normal(n, coeffs):
    """The trusted constructor: wrap a conductor and a dict that are
    already in normal form (int keys in [0, n), nonzero Fraction values)
    without checking them."""
    out = _new(CyclotomicScalar)
    out.n = n
    out.coeffs = coeffs
    return out


def _at(x, n):
    """x's coeffs written at conductor n, a multiple of x.n."""
    if x.n == n:
        return x.coeffs
    step = n // x.n
    return {k * step: c for k, c in x.coeffs.items()}


def _coerce(x):
    if isinstance(x, CyclotomicScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CyclotomicScalar.from_rational(x)
    return NotImplemented


def legendre(a, p):
    """Legendre symbol (a|p) for odd prime p, as an int in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


@lru_cache(maxsize=64)
def sqrt_prime(p):
    """sqrt(p) as a CyclotomicScalar, via the quadratic Gauss sum.

    g = sum_a (a|p) e(a/p) equals sqrt(p) for p = 1 mod 4 and i*sqrt(p)
    for p = 3 mod 4 (classical sign determination), so sqrt(p) lies in
    Q(zeta_{4p}).
    """
    if p == 2 or p % 2 == 0:
        raise ValueError("odd prime required")
    g = CyclotomicScalar(
        {Fraction(a, p): Fraction(legendre(a, p)) for a in range(1, p)}
    )
    if p % 4 == 1:
        return g
    # divide by i, i.e. multiply by e(-1/4)
    return g * CyclotomicScalar.root_of_unity(Fraction(-1, 4))


@lru_cache(maxsize=256)
def sqrt_rational_power(p, k):
    """p^(k/2) as a CyclotomicScalar, for integer k (possibly negative)."""
    half = k % 2
    whole = (k - half) // 2
    out = CyclotomicScalar.from_rational(Fraction(p) ** whole)
    if half:
        out = out * sqrt_prime(p)
    return out
