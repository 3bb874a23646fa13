"""Truncated p-adic arithmetic and quadratic extensions.

Scalars are stored as (valuation, unit mod p^rel) with a relative
precision tag; sums propagate the pessimistic absolute precision of the
operands.  When cancellation eats every known digit the result is an
"indeterminate zero" that remembers how far it is known to vanish, and
any predicate that would have to guess raises InsufficientPrecision.

Only odd residue characteristic is supported, and quadratic extensions
must be fields (split algebras are rejected).
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import legendre
from .errors import (
    InsufficientPrecision,
    NotInDomain,
    UnsupportedPlace,
)

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


def unit_part(x, p):
    """x / p^val as a Fraction with p-unit numerator and denominator."""
    return Fraction(x) / Fraction(p) ** val_p(x, p)


class FieldContext:
    """A p-adic base field at working relative precision N (q = p)."""

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

    def scalar(self, x):
        """Exact-input scalar: valuation exact, unit known mod p^N."""
        x = Fraction(x)
        if x == 0:
            return PAdicScalar._exact_zero(self)
        v = val_p(x, p=self.p)
        u = unit_part(x, self.p)
        mod = self.p ** self.N
        un = u.numerator % mod
        ud = u.denominator % mod
        return PAdicScalar(self, v, un * pow(ud, -1, mod) % mod, self.N)

    def zero(self):
        return PAdicScalar._exact_zero(self)

    def one(self):
        return self.scalar(1)


class PAdicScalar:
    __slots__ = ("ctx", "v", "u", "rel", "_zero_prec")

    def __init__(self, ctx, v, u, rel):
        self.ctx = ctx
        self.v = v            # int, or None for (exact or fuzzy) zero
        self.u = u            # unit mod p^rel, or None for zero
        self.rel = rel
        self._zero_prec = None  # int for fuzzy zero; None otherwise

    @staticmethod
    def _exact_zero(ctx):
        s = PAdicScalar(ctx, None, None, None)
        return s

    @staticmethod
    def _fuzzy_zero(ctx, known_prec):
        s = PAdicScalar(ctx, None, None, None)
        s._zero_prec = known_prec
        return s

    # -- state predicates ------------------------------------------------
    @property
    def is_exact_zero(self):
        return self.v is None and self._zero_prec is None

    @property
    def is_fuzzy_zero(self):
        return self._zero_prec is not None

    def abs_prec(self):
        """Absolute precision: the value is known modulo p^abs_prec."""
        if self.is_exact_zero:
            return None  # infinite
        if self.is_fuzzy_zero:
            return self._zero_prec
        return self.v + self.rel

    def is_zero(self):
        if self.is_exact_zero:
            return True
        if self.is_fuzzy_zero:
            raise InsufficientPrecision(
                f"value is 0 mod p^{self._zero_prec}; cannot decide vanishing"
            )
        return False

    def valuation(self):
        if self.is_exact_zero:
            raise NotInDomain("valuation of exact zero")
        if self.is_fuzzy_zero:
            raise InsufficientPrecision(
                f"valuation known only to be >= {self._zero_prec}"
            )
        return self.v

    def unit(self):
        if self.v is None:
            raise InsufficientPrecision("no unit part available")
        return self.u

    def residue(self):
        """Residue of the unit part mod p."""
        return self.unit() % self.ctx.p

    # -- conversions -------------------------------------------------------
    def as_fraction(self):
        """The canonical representative p^v * u (exact for exact inputs)."""
        if self.is_exact_zero:
            return Fraction(0)
        if self.is_fuzzy_zero:
            raise InsufficientPrecision("no representative for fuzzy zero")
        return Fraction(self.ctx.p) ** self.v * self.u

    # -- arithmetic ----------------------------------------------------------
    def _check_ctx(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        if not isinstance(other, PAdicScalar):
            return None
        if other.ctx != self.ctx:
            raise ValueError("mixed p-adic contexts")
        return other

    def __add__(self, other):
        other = self._check_ctx(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        if a.is_exact_zero:
            return b
        if b.is_exact_zero:
            return a
        pa, pb = a.abs_prec(), b.abs_prec()
        m = min(pa, pb)
        ra = Fraction(0) if a.is_fuzzy_zero else a.as_fraction()
        rb = Fraction(0) if b.is_fuzzy_zero else b.as_fraction()
        return _from_representative(self.ctx, ra + rb, m)

    __radd__ = __add__

    def __neg__(self):
        if self.v is None:
            return self
        return PAdicScalar(
            self.ctx, self.v, (-self.u) % self.ctx.p ** self.rel, self.rel
        )

    def __sub__(self, other):
        other = self._check_ctx(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check_ctx(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        if a.is_exact_zero or b.is_exact_zero:
            return PAdicScalar._exact_zero(self.ctx)
        if a.is_fuzzy_zero or b.is_fuzzy_zero:
            za = a._zero_prec if a.is_fuzzy_zero else a.v
            zb = b._zero_prec if b.is_fuzzy_zero else b.v
            return PAdicScalar._fuzzy_zero(self.ctx, za + zb)
        rel = min(a.rel, b.rel)
        mod = self.ctx.p ** rel
        return PAdicScalar(self.ctx, a.v + b.v, (a.u * b.u) % mod, rel)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_exact_zero:
            raise NotInDomain("inverse of zero")
        if self.is_fuzzy_zero:
            raise InsufficientPrecision("cannot invert an undecided zero")
        mod = self.ctx.p ** self.rel
        return PAdicScalar(self.ctx, -self.v, pow(self.u, -1, mod), self.rel)

    def __truediv__(self, other):
        other = self._check_ctx(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        other = self._check_ctx(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()  # may raise InsufficientPrecision

    def __hash__(self):
        raise TypeError("PAdicScalar is not hashable (equality is a predicate)")

    def __repr__(self):
        p = self.ctx.p
        if self.is_exact_zero:
            return "PAdic(0)"
        if self.is_fuzzy_zero:
            return f"PAdic(O({p}^{self._zero_prec}))"
        return f"PAdic({p}^{self.v} * {self.u} + O({p}^{self.v + self.rel}))"

    # -- squares ---------------------------------------------------------
    def is_square(self):
        if self.is_exact_zero:
            return True
        if self.is_fuzzy_zero:
            raise InsufficientPrecision("square predicate undecided at zero")
        if self.v % 2:
            return False
        return legendre(self.u, self.ctx.p) == 1

    def sqrt(self):
        if self.is_exact_zero:
            return self
        if not self.is_square():
            raise NotInDomain("not a square")
        p = self.ctx.p
        r = _unit_sqrt(self.u, p, self.rel)
        return PAdicScalar(self.ctx, self.v // 2, r, self.rel)


def _from_representative(ctx, r, abs_prec):
    """Scalar from an exact rational representative known mod p^abs_prec."""
    p = ctx.p
    if r == 0:
        return PAdicScalar._fuzzy_zero(ctx, abs_prec)
    v = val_p(r, p)
    if v >= abs_prec:
        return PAdicScalar._fuzzy_zero(ctx, abs_prec)
    rel = min(abs_prec - v, ctx.N)
    mod = p ** rel
    u = unit_part(r, p)
    un = u.numerator % mod
    ud = u.denominator % mod
    return PAdicScalar(ctx, v, un * pow(ud, -1, mod) % mod, rel)


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
    """E = F[tau], tau^2 = delta, for a non-square delta (inert or ramified)."""

    def __init__(self, field, delta):
        self.F = field
        d = field.scalar(delta) if isinstance(delta, (int, Fraction)) else delta
        if d.is_exact_zero:
            raise NotInDomain("delta must be nonzero")
        self.delta = d
        self.delta_fraction = d.as_fraction()
        if d.valuation() == 0:
            if legendre(d.unit(), field.p) == 1:
                raise UnsupportedPlace(
                    "delta is a square: split algebras are not supported"
                )
            self.kind = "inert"
            self.e = 1
            self.q = field.q ** 2
        elif d.valuation() == 1:
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
            and self.delta_fraction == other.delta_fraction
        )

    def __hash__(self):
        return hash((self.F, self.kind))

    def __repr__(self):
        return f"QuadExtContext({self.F}, delta={self.delta_fraction}, {self.kind})"

    def scalar(self, x, y=0):
        """x + tau*y from rationals or PAdicScalars."""
        fx = self.F.scalar(x) if isinstance(x, (int, Fraction)) else x
        fy = self.F.scalar(y) if isinstance(y, (int, Fraction)) else y
        return QuadExtScalar(self, fx, fy)

    def tau(self):
        return self.scalar(0, 1)

    def zero(self):
        return self.scalar(0, 0)

    def one(self):
        return self.scalar(1, 0)


class QuadExtScalar:
    __slots__ = ("ext", "x", "y")

    def __init__(self, ext, x, y):
        self.ext = ext
        self.x = x
        self.y = y

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.ext.scalar(other, 0)
        if isinstance(other, PAdicScalar):
            return QuadExtScalar(self.ext, other, self.ext.F.zero())
        if isinstance(other, QuadExtScalar):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExtScalar(self.ext, self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtScalar(self.ext, -self.x, -self.y)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self.ext.delta
        x = self.x * other.x + d * (self.y * other.y)
        y = self.x * other.y + self.y * other.x
        return QuadExtScalar(self.ext, x, y)

    __rmul__ = __mul__

    def conj(self):
        return QuadExtScalar(self.ext, self.x, -self.y)

    def trace(self):
        return self.x + self.x

    def norm(self):
        return self.x * self.x - self.ext.delta * (self.y * self.y)

    def is_zero(self):
        return self.x.is_zero() and self.y.is_zero()

    def inverse(self):
        n = self.norm()
        if n.is_zero():
            raise NotInDomain("inverse of zero in E")
        ninv = n.inverse()
        return QuadExtScalar(self.ext, self.x * ninv, -(self.y * ninv))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("QuadExtScalar is not hashable")

    def valuation_E(self):
        """Normalized valuation on E (v_E(uniformizer of E) = 1)."""
        vx = None if self.x.is_exact_zero else self.x.valuation()
        vy = None if self.y.is_exact_zero else self.y.valuation()
        if self.ext.is_inert:
            cands = [v for v in (vx, vy) if v is not None]
        else:
            cands = []
            if vx is not None:
                cands.append(2 * vx)
            if vy is not None:
                cands.append(2 * vy + 1)
        if not cands:
            raise NotInDomain("valuation of zero")
        return min(cands)

    def __repr__(self):
        return f"QuadExt({self.x!r} + tau*{self.y!r})"


def e_mul(a, b, delta):
    """Product of E-pairs (plus, minus) = plus + tau*minus, tau^2 = delta:
    the exact, untruncated counterpart of QuadExtScalar."""
    return (a[0] * b[0] + delta * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def e_matmul(A, B, delta):
    """Product of matrices of E-pairs."""
    n, k, m = len(A), len(B), len(B[0])
    out = [[(Fraction(0), Fraction(0))] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = (Fraction(0), Fraction(0))
            for t in range(k):
                prod = e_mul(A[i][t], B[t][j], delta)
                s = (s[0] + prod[0], s[1] + prod[1])
            out[i][j] = s
    return out


def e_det2(A, delta):
    """Determinant of a 2x2 matrix of E-pairs."""
    ad = e_mul(A[0][0], A[1][1], delta)
    bc = e_mul(A[0][1], A[1][0], delta)
    return (ad[0] - bc[0], ad[1] - bc[1])


def vanishes(x):
    """True if x is zero at the available precision (exact or fuzzy zero).

    This is the right notion for verifying algebraic identities in
    truncated arithmetic: a sum of exact inputs that cancels completely
    is only ever known to vanish modulo p^(working precision).
    """
    if isinstance(x, QuadExtScalar):
        return vanishes(x.x) and vanishes(x.y)
    return x.is_exact_zero or x.is_fuzzy_zero


def solve_norm(ext, c):
    """Some z in E with Norm(z) = c, or NotInDomain if c is not a norm.

    Search for a residue solution of x^2 - delta*y^2 = c, then Hensel-lift
    in whichever coordinate has a unit derivative (p odd).
    """
    F = ext.F
    p = F.p
    if isinstance(c, (int, Fraction)):
        c = F.scalar(c)
    if c.is_exact_zero:
        return ext.zero()
    v = c.valuation()
    if ext.is_inert:
        if v % 2:
            raise NotInDomain("odd-valuation elements are not inert norms")
        shift = F.scalar(Fraction(p) ** (v // 2))
        u = c * shift.inverse() * shift.inverse()
        d0 = ext.delta.unit() * p ** ext.delta.valuation()
        u0 = u.unit() % p
        for y0 in range(p):
            t = (u0 + d0 * y0 * y0) % p
            if t and legendre(t, p) == 1:
                y = F.scalar(y0)
                x = (u + ext.delta * y * y).sqrt()
                return ext.scalar(x * shift, y * shift)
            if t == 0 and y0:
                # x = 0 branch: y^2 = -u/delta must be a unit square
                w = -u * ext.delta.inverse()
                if w.is_square():
                    y = w.sqrt()
                    return ext.scalar(F.zero() * shift, y * shift)
        raise NotInDomain("not a norm from the inert extension")
    # ramified: peel one factor of Norm(tau) = -delta if the valuation
    # of c and of -delta have the same parity requirement
    if v % 2 == ext.delta.valuation() % 2:
        base = -ext.delta
        z = solve_norm(ext, c * base.inverse())
        return z * ext.tau()
    if v % 2:
        raise NotInDomain("not a norm from the ramified extension")
    if not c.is_square():
        raise NotInDomain("not a norm from the ramified extension")
    x = c.sqrt()
    return ext.scalar(x, 0)
