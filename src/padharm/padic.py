"""Exact arithmetic for a p-adic field F and its quadratic extensions.

Every element of F that padharm handles is rational, so an F-scalar is a
plain `Fraction`: sums, products, zero tests and valuations are exact.
E = F[tau], tau^2 = delta, holds the exact pairs x + tau*y of Fractions
(`QuadExtScalar`).  The one value that is not rational is a square root
of a p-adic unit, which `solve_norm` needs for its norm witness; it is
Hensel-lifted to the field's precision N, so the witness's norm equals
its target modulo p^N only.

Only odd residue characteristic is supported, and quadratic extensions
must be fields (split algebras are rejected).
"""

from __future__ import annotations

from fractions import Fraction

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
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def unit_residue(x, p, mod=None):
    """The unit part x / p^v(x) of a nonzero rational, reduced mod `mod`
    (default p)."""
    mod = mod or p
    u = Fraction(x) / Fraction(p) ** val_p(x, p)
    return u.numerator * pow(u.denominator, -1, mod) % mod


class FieldContext:
    """A p-adic base field (q = p).  N is the Hensel precision of the
    square roots in `solve_norm`; every other value is exact."""

    def __init__(self, p, N):
        if p == 2:
            raise UnsupportedPlace("residue characteristic 2 is not supported")
        if p > _SMALL_PRIME_LIMIT or not _is_prime(p):
            raise UnsupportedPlace(f"p must be a small odd prime, got {p}")
        if N < 1:
            raise ValueError("precision N must be >= 1")
        self.p = p
        self.N = N
        self.q = p

    def __eq__(self, other):
        return (
            isinstance(other, FieldContext)
            and (self.p, self.N) == (other.p, other.N)
        )

    def __hash__(self):
        return hash((self.p, self.N))

    def __repr__(self):
        return f"FieldContext(p={self.p}, N={self.N})"

    def sqrt(self, c):
        """A square root of the nonzero square c, as a rational whose
        square is c modulo p^(v(c) + N)."""
        p, N = self.p, self.N
        v = val_p(c, p)
        if v % 2:
            raise NotInDomain("not a square")
        r = _unit_sqrt(unit_residue(c, p, p ** N), p, N)
        return Fraction(p) ** (v // 2) * r


def _unit_sqrt(u, p, rel):
    """Square root of a unit square mod p^rel by Hensel lifting (p odd)."""
    r = None
    for x in range(1, p):
        if (x * x - u) % p == 0:
            r = x
            break
    if r is None:
        raise NotInDomain("not a square mod p")
    k = 1
    while k < rel:
        k = min(2 * k, rel)
        mod = p ** k
        r = (r + u * pow(r, -1, mod)) * pow(2, -1, mod) % mod
    return r % (p ** rel)


class QuadExtContext:
    """E = F[tau], tau^2 = delta, for a rational non-square delta (inert
    or ramified)."""

    def __init__(self, field, delta):
        self.F = field
        self.delta = Fraction(delta)
        if self.delta == 0:
            raise NotInDomain("delta must be nonzero")
        v = val_p(self.delta, field.p)
        if v == 0:
            if legendre(unit_residue(self.delta, field.p), field.p) == 1:
                raise UnsupportedPlace(
                    "delta is a square: split algebras are not supported"
                )
            self.kind = "inert"
            self.e = 1
            self.q = field.q ** 2
        elif v == 1:
            self.kind = "ramified"
            self.e = 2
            self.q = field.q
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
        return QuadExtScalar(self, Fraction(x), Fraction(y))

    def tau(self):
        return self.scalar(0, 1)

    def zero(self):
        return self.scalar(0, 0)

    def one(self):
        return self.scalar(1, 0)


class QuadExtScalar:
    """x + tau*y in E with exact rational x and y.  Instances are
    immutable; equal values compare equal, and they are not hashable."""

    __slots__ = ("ext", "x", "y")

    def __init__(self, ext, x, y):
        self.ext = ext
        self.x = x
        self.y = y

    def _coerce(self, other):
        if type(other) is QuadExtScalar:
            return other
        if isinstance(other, (int, Fraction)):
            return self.ext.scalar(other, 0)
        return None

    def __add__(self, other):
        if type(other) is not QuadExtScalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return QuadExtScalar(self.ext, self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtScalar(self.ext, -self.x, -self.y)

    def __sub__(self, other):
        if type(other) is not QuadExtScalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return QuadExtScalar(self.ext, self.x - other.x, self.y - other.y)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not QuadExtScalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.x, self.y, other.x, other.y
        return QuadExtScalar(self.ext, a * c + self.ext.delta * b * d,
                             a * d + b * c)

    __rmul__ = __mul__

    def conj(self):
        return QuadExtScalar(self.ext, self.x, -self.y)

    def trace(self):
        return 2 * self.x

    def norm(self):
        return self.x * self.x - self.ext.delta * self.y * self.y

    def is_zero(self):
        return self.x == 0 and self.y == 0

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise NotInDomain("inverse of zero in E")
        return QuadExtScalar(self.ext, self.x / n, -self.y / n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def valuation_E(self):
        """Normalized valuation on E (v_E(uniformizer of E) = 1):
        min(e v(x), e v(y) + e - 1) with e the ramification index."""
        p, e = self.ext.F.p, self.ext.e
        cands = [e * val_p(self.x, p)] if self.x else []
        if self.y:
            cands.append(e * val_p(self.y, p) + e - 1)
        if not cands:
            raise NotInDomain("valuation of zero")
        return min(cands)

    def __repr__(self):
        return f"QuadExt({self.x} + tau*{self.y})"


def solve_norm(ext, c):
    """Some z in E with Norm(z) = c mod p^(v(c) + N), or NotInDomain if c
    is not a norm.

    Search for a residue solution of x^2 - delta*y^2 = c, then take the
    Hensel-lifted square root in whichever coordinate has a unit
    derivative (p odd)."""
    F = ext.F
    p = F.p
    c = Fraction(c)
    if c == 0:
        return ext.zero()
    v = val_p(c, p)
    if ext.is_inert:
        if v % 2:
            raise NotInDomain("odd-valuation elements are not inert norms")
        shift = Fraction(p) ** (v // 2)
        u = c / (shift * shift)
        u0 = unit_residue(u, p)
        d0 = unit_residue(ext.delta, p)
        for y0 in range(p):
            t = (u0 + d0 * y0 * y0) % p
            if t and legendre(t, p) == 1:
                x = F.sqrt(u + ext.delta * y0 * y0)
                return ext.scalar(x * shift, y0 * shift)
            if t == 0 and y0:
                # x = 0 branch: y^2 = -u/delta is a unit square, with
                # residue y0^2
                return ext.scalar(0, F.sqrt(-u / ext.delta) * shift)
        raise NotInDomain("not a norm from the inert extension")
    # ramified: peel one factor of Norm(tau) = -delta off an odd valuation
    if v % 2:
        return solve_norm(ext, c / -ext.delta) * ext.tau()
    if legendre(unit_residue(c, p), p) != 1:
        raise NotInDomain("not a norm from the ramified extension")
    return ext.scalar(F.sqrt(c), 0)
