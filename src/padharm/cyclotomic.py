"""Exact arithmetic in the union of cyclotomic fields.

A CyclotomicScalar is a finite Q-linear combination of the unit-circle
exponentials e(r) = exp(2*pi*i*r) with r in Q/Z.  Products follow
e(r)e(r') = e(r+r'), and equality is decided exactly by reducing the
exponent vector modulo the n-th cyclotomic polynomial, n = lcm of the
denominators.  This ring contains every value we need: roots of unity,
rationals, Gauss sums, and sqrt(p) for odd p.

Normal form: every instance holds `terms` as a dict {r: c} with Fraction
keys r in [0, 1) and nonzero Fraction values c.  The public constructor
brings arbitrary input to that form; the ring operations build their
results directly in it and wrap them with the trusted `_normal`, so no
result is normalized a second time.  The normal form is not unique
(e(0) + e(1/2) is in normal form and equals 0), so equality is still
decided by `is_zero`.  Instances are immutable: operations may return an
operand itself or a cached value such as `sqrt_prime(p)`, so `terms` is
never changed in place.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


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


def _lcm(a, b):
    from math import gcd
    return a * b // gcd(a, b)


_ZERO = Fraction(0)
_ONE = Fraction(1)


class CyclotomicScalar:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict {Fraction r mod 1 : Fraction coeff}, zeros dropped
        clean = {}
        if terms:
            for r, c in terms.items():
                r = Fraction(r) % 1
                c = Fraction(c)
                if c:
                    clean[r] = clean.get(r, Fraction(0)) + c
                    if not clean[r]:
                        del clean[r]
        self.terms = clean

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rational(c):
        if not isinstance(c, Fraction):
            c = Fraction(c)
        return _normal({_ZERO: c} if c else {})

    @staticmethod
    def root_of_unity(r):
        if not isinstance(r, Fraction):
            r = Fraction(r)
        if r.numerator < 0 or r.numerator >= r.denominator:
            r %= 1
        return _normal({r: _ONE})

    @staticmethod
    def zero():
        return _normal({})

    @staticmethod
    def one():
        return _normal({_ZERO: _ONE})

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        t = dict(a)
        for r, c in b.items():
            s = t.get(r)
            if s is None:
                t[r] = c
            else:
                s += c
                if s:
                    t[r] = s
                else:
                    del t[r]
        return _normal(t)

    __radd__ = __add__

    def __neg__(self):
        return _normal({r: -c for r, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self.terms) < len(other.terms):
            self, other = other, self
        a, b = self.terms, other.terms
        if len(b) == 1:
            # a monomial c*e(s) rotates the other factor: no keys collide
            ((s, c),) = b.items()
            if not s:
                if c == 1:
                    return self
                return _normal({r: x * c for r, x in a.items()})
            # r + s mod 1 on numerators and denominators, one Fraction per
            # key; c is 1 for every root of unity, psi's values included
            sn, sd = s.numerator, s.denominator
            keys = []
            for r in a:
                n, d = r.numerator, r.denominator
                if d == sd:
                    n += sn
                else:
                    n, d = n * sd + sn * d, d * sd
                keys.append(Fraction(n - d if n >= d else n, d))
            if c == 1:
                return _normal(dict(zip(keys, a.values())))
            return _normal({r: x * c for r, x in zip(keys, a.values())})
        t = {}
        for r1, c1 in a.items():
            for r2, c2 in b.items():
                r = r1 + r2
                if r.numerator >= r.denominator:
                    r -= 1
                c = c1 * c2
                s = t.get(r)
                t[r] = c if s is None else s + c
        return _normal({r: c for r, c in t.items() if c})

    __rmul__ = __mul__

    def conj(self):
        return _normal({(_ONE - r if r else r): c
                        for r, c in self.terms.items()})

    # -- decision procedures --------------------------------------------
    def _reduced(self):
        """(n, remainder coeff list) with the element written in the power
        basis 1, z, ..., z^(phi(n)-1) of Q(zeta_n)."""
        if not self.terms:
            return 1, []
        n = 1
        for r in self.terms:
            n = _lcm(n, r.denominator)
        vec = [Fraction(0)] * n
        for r, c in self.terms.items():
            vec[int(r * n) % n] += c
        phi = list(cyclotomic_poly(n))
        # remainder of vec modulo the monic integer polynomial phi
        deg = len(phi) - 1
        for i in range(n - 1, deg - 1, -1):
            c = vec[i]
            if c:
                for j in range(len(phi)):
                    vec[i - deg + j] -= c * phi[j]
        rem = vec[:deg]
        while rem and not rem[-1]:
            rem.pop()
        return n, rem

    def is_zero(self):
        if not self.terms:
            return True
        if len(self.terms) == 1:
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
        if not self.terms:
            return Fraction(0)
        if set(self.terms) == {Fraction(0)}:
            return self.terms[Fraction(0)]
        _, rem = self._reduced()
        if not rem:
            return Fraction(0)
        if len(rem) == 1:
            return rem[0]
        return None

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if not self.terms:
            return "Cyc(0)"
        bits = []
        for r in sorted(self.terms):
            c = self.terms[r]
            bits.append(f"{c}*e({r})" if r else f"{c}")
        return "Cyc(" + " + ".join(bits) + ")"


_new = object.__new__


def _normal(terms):
    """The trusted constructor: wrap a dict that is already in normal form
    (Fraction keys in [0, 1), nonzero Fraction values) without checking it."""
    out = _new(CyclotomicScalar)
    out.terms = terms
    return out


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
