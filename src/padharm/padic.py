"""Exact arithmetic for a p-adic field F and its quadratic extensions.

Every element of F that padharm handles is rational, so an F-scalar is a
plain `Fraction`: sums, products, zero tests and valuations are exact.
An element x + tau*y of E = F[tau], tau^2 = delta, is a `QuadExtScalar`
held as an integer triple (a, b, d) in normal form: x = a/d, y = b/d,
d > 0 and gcd(a, b, d) = 1.  The form is unique, so equality compares
triples, and each operation ends in one gcd; `QuadExtContext` keeps
delta's numerator and denominator for the products and inverses.

Only odd residue characteristic is supported, and quadratic extensions
must be fields (split algebras are rejected).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclotomic import legendre
from .errors import NotInDomain, UnsupportedPlace

_SMALL_PRIME_LIMIT = 10**6


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def val_p(x, p):
    """p-adic valuation of a nonzero int or Fraction."""
    if isinstance(x, int):
        n, d = x, 1
    else:
        x = Fraction(x)
        n, d = x.numerator, x.denominator
    if n == 0:
        raise ValueError("valuation of zero")
    # n / d is in lowest terms, so p divides at most one of them
    if n % p == 0:
        return strip_p(n, p)[0]
    if d % p == 0:
        return -strip_p(d, p)[0]
    return 0


def strip_p(n, p):
    """(v, u) with n = p^v u and p not dividing u, for a nonzero int n.

    When p does not divide n this costs one modulo, and a short run of
    p costs one modulo and one division per unit of v.  From v = 8 on it
    divides by p^2, p^4, ... while they divide, and from p again when one
    does not: O(log(v)^2) divisions, where one division per unit of v
    would be quadratic in the size of n."""
    v = 0
    q = p
    e = 1
    while True:
        if n % q:
            if e == 1:
                return v, n
            q = p
            e = 1
        else:
            n //= q
            v += e
            if v >= 8:
                q *= q
                e *= 2


def unit_residue(x, p):
    """The unit part x / p^v(x) of a nonzero rational, reduced mod p."""
    u = Fraction(x) / Fraction(p) ** val_p(x, p)
    return u.numerator * pow(u.denominator, -1, p) % p


class FieldContext:
    """A p-adic base field (q = p) for a small odd prime p.

    A second positional argument is accepted and ignored: four calls in
    perfbench/ still pass one.  ROADMAP item 8 deletes the parameter
    together with those four calls."""

    def __init__(self, p, _ignored=None):
        if p == 2:
            raise UnsupportedPlace("residue characteristic 2 is not supported")
        if p > _SMALL_PRIME_LIMIT or not _is_prime(p):
            raise UnsupportedPlace(f"p must be a small odd prime, got {p}")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, FieldContext) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"FieldContext(p={self.p})"


class QuadExtContext:
    """E = F[tau], tau^2 = delta, for a rational non-square delta (inert
    or ramified)."""

    def __init__(self, field, delta):
        self.F = field
        self.delta = Fraction(delta)
        if self.delta == 0:
            raise NotInDomain("delta must be nonzero")
        # the integer kernel of QuadExtScalar reads delta = _dnum / _dden
        self._dnum = self.delta.numerator
        self._dden = self.delta.denominator
        v = val_p(self.delta, field.p)
        if v == 0:
            if legendre(unit_residue(self.delta, field.p), field.p) == 1:
                raise UnsupportedPlace(
                    "delta is a square: split algebras are not supported"
                )
            self.kind = "inert"
            self.e = 1
        elif v == 1:
            self.kind = "ramified"
            self.e = 2
        else:
            raise NotInDomain(
                "delta must be a unit non-residue or uniformizer * unit"
            )

    @property
    def is_inert(self):
        return self.kind == "inert"

    def __eq__(self, other):
        return (
            isinstance(other, QuadExtContext)
            and self.F == other.F
            and self.delta == other.delta
        )

    def __hash__(self):
        return hash((self.F, self.kind))

    def __repr__(self):
        return f"QuadExtContext({self.F}, delta={self.delta}, {self.kind})"

    def scalar(self, x, y=0):
        """x + tau*y from rationals."""
        if type(x) is int and type(y) is int:
            return QuadExtScalar(self, x, y, 1)
        x, y = Fraction(x), Fraction(y)
        xd, yd = x.denominator, y.denominator
        # over d = lcm(xd, yd), gcd(a, b, d) = 1 already: a prime power
        # that divides d fully divides xd or yd, whose numerator it misses
        d = xd * yd // gcd(xd, yd)
        return QuadExtScalar(self, x.numerator * (d // xd),
                             y.numerator * (d // yd), d)

    def tau(self):
        return QuadExtScalar(self, 0, 1, 1)

    def zero(self):
        return QuadExtScalar(self, 0, 0, 1)

    def one(self):
        return QuadExtScalar(self, 1, 0, 1)


def _reduced(ext, a, b, d):
    """The element (a + tau*b)/d for d > 0, in normal form."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return QuadExtScalar(ext, a, b, d)


class QuadExtScalar:
    """x + tau*y in E, held as integers (a, b, d) with x = a/d, y = b/d,
    d > 0 and gcd(a, b, d) = 1.

    That normal form is unique, so `==` is a comparison of the triples
    and zero is (0, 0, 1); each operation ends in one gcd.  `x` and `y`
    are the exact `Fraction` coordinates.  The constructor trusts its
    triple to be normal: build values through `QuadExtContext.scalar`
    or the arithmetic.  Instances are immutable, and they are not
    hashable.  Both operands of the arithmetic are elements of E: an int
    or a Fraction is not converted (`ext.scalar` builds it), so it is a
    TypeError there and compares unequal.  Arithmetic between elements
    of two different extensions raises NotInDomain, and they compare
    unequal."""

    __slots__ = ("ext", "a", "b", "d")

    def __init__(self, ext, a, b, d):
        self.ext = ext
        self.a = a
        self.b = b
        self.d = d

    @property
    def x(self):
        return Fraction(self.a, self.d)

    @property
    def y(self):
        return Fraction(self.b, self.d)

    def _coerce(self, other):
        """other, an element of an equal E, or None for a type that is not
        an E-scalar; an element of another extension raises NotInDomain."""
        if type(other) is not QuadExtScalar:
            return None
        if other.ext != self.ext:
            raise NotInDomain(f"an element of {other.ext!r} is not in "
                              f"{self.ext!r}")
        return other

    def __add__(self, other):
        if type(other) is not QuadExtScalar or other.ext is not self.ext:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        return _reduced(self.ext, self.a * e + other.a * d,
                        self.b * e + other.b * d, d * e)

    def __neg__(self):
        return QuadExtScalar(self.ext, -self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not QuadExtScalar or other.ext is not self.ext:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        d, e = self.d, other.d
        return _reduced(self.ext, self.a * e - other.a * d,
                        self.b * e - other.b * d, d * e)

    def __mul__(self, other):
        if type(other) is not QuadExtScalar or other.ext is not self.ext:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        ext = self.ext
        a, b, c, e = self.a, self.b, other.a, other.b
        dd = ext._dden
        return _reduced(ext, a * c * dd + ext._dnum * b * e,
                        (a * e + b * c) * dd, self.d * other.d * dd)

    def conj(self):
        return QuadExtScalar(self.ext, self.a, -self.b, self.d)

    def _norm_numerator(self):
        """a^2 - delta b^2, times delta's denominator: an integer."""
        ext = self.ext
        return self.a * self.a * ext._dden - ext._dnum * self.b * self.b

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def inverse(self):
        # 1/(x + tau y) = (a - tau b) d dd / (a^2 dd - dnum b^2)
        m = self._norm_numerator()
        if m == 0:
            raise NotInDomain("inverse of zero in E")
        k = self.d * self.ext._dden
        if m < 0:
            m, k = -m, -k
        return _reduced(self.ext, self.a * k, -self.b * k, m)

    def __eq__(self, other):
        if type(other) is not QuadExtScalar:
            return NotImplemented
        return ((self.a, self.b, self.d) == (other.a, other.b, other.d)
                and (other.ext is self.ext or other.ext == self.ext))

    def valuation_E(self):
        """Normalized valuation on E (v_E(uniformizer of E) = 1):
        min(e v(x), e v(y) + e - 1) with e the ramification index."""
        p, e = self.ext.F.p, self.ext.e
        if self.is_zero():
            raise NotInDomain("valuation of zero")
        vd = val_p(self.d, p)
        cands = [e * (val_p(self.a, p) - vd)] if self.a else []
        if self.b:
            cands.append(e * (val_p(self.b, p) - vd) + e - 1)
        return min(cands)

    def __repr__(self):
        return f"QuadExt({self.x} + tau*{self.y})"

