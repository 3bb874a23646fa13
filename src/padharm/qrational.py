"""Rational functions in one variable over Q, in an integer normal form.

Used for regularized integrals as functions of T = q^(-s): geometric
series sum to these exactly, poles are located exactly (including at
T = q^(-1/2), handled by reduction mod T^2 - 1/q), and real poles in an
interval are counted with a Sturm sequence.

A QRational stores two int tuples, N and D: the little-endian
coefficients of a numerator and a denominator in Z[T], in the normal
form

* lc(D) > 0;
* no integer > 1 divides every coefficient of N and D together;
* gcd(N, D) = 1 in Q[T];

with zero stored as N = (), D = (1,).  The form is unique.  If N/D and
N'/D' are the same function and both pairs are in normal form, then
N D' = N' D, and since N and D are coprime over Q, D' = c D and N' = c N
for a rational c = u/v in lowest terms.  Both pairs are integral, so v
divides the content of (N, D), which is 1, and u divides the content of
(N', D') = c (N, D), which is also 1; so c = +-1, and lc(D), lc(D') > 0
leave c = 1.  Equal functions therefore have identical tuples, and
`__eq__` and `__hash__` compare tuples.

All arithmetic is on ints: coefficient products and sums, gcds by the
primitive polynomial remainder sequence (G. E. Collins, J. ACM 14, 1967;
W. S. Brown, J. ACM 18, 1971) with exact division over Z (a quotient by
a primitive divisor is integral, by Gauss's lemma), values by
homogeneous Horner, u^deg P(t/u) for T = t/u, and Sturm chains whose
pseudo-remainders carry the positive multiplier |lc|^(delta + 1), so
every member is a positive multiple of the chain over Q and has its
signs.

`repr` and the CLI show N and D over lc(D), which makes the shown
denominator monic; they format each coefficient over lc(D) from the
ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from numbers import Rational

from .errors import PoleAtEvaluationPoint


# -- int polynomial kernels: little-endian tuples, no zero leading term -------


def _trim(c):
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _trim(out)


def _neg(a):
    return tuple(-x for x in a)


def _mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _derivative(a):
    return tuple(i * x for i, x in enumerate(a))[1:]


def _order(a):
    """The exponent of the largest power of T dividing nonzero a."""
    i = 0
    while not a[i]:
        i += 1
    return i


def _primitive(a):
    """a over the gcd of its coefficients, with a positive leading
    coefficient."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple(x // g for x in a)


def _quo(a, b):
    """a / b for b primitive and dividing a in Q[T]; the quotient is then
    in Z[T], so every step divides exactly."""
    r = list(a)
    nb, lb = len(b) - 1, b[-1]
    q = [0] * (len(r) - nb)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + nb] // lb
        if c:
            q[i] = c
            for j in range(nb):
                r[i + j] -= c * b[j]
    return tuple(q)


def _prem(a, b):
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, for
    deg a >= deg b."""
    r = list(a)
    nb, lb = len(b) - 1, b[-1]
    e = len(r) - nb
    while len(r) > nb:
        t = r.pop()
        k = len(r) - nb
        if lb != 1:
            r = [lb * x for x in r]
        for j in range(nb):
            r[k + j] -= t * b[j]
        e -= 1
        while r and not r[-1]:
            r.pop()
    if e and lb != 1:
        f = lb ** e
        r = [f * x for x in r]
    return tuple(r)


def _gcd(a, b):
    """gcd(a, b) in Q[T] for nonzero a and b, as a primitive int
    polynomial with a positive leading coefficient.  The power of T comes
    off first; the rest is the primitive remainder sequence."""
    i, j = _order(a), _order(b)
    shift = (0,) * min(i, j)
    a, b = a[i:], b[j:]
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return shift + (1,)
    a, b = _primitive(a), _primitive(b)
    while True:
        r = _prem(a, b)
        if not r:
            return shift + b
        if len(r) == 1:
            return shift + (1,)
        a, b = b, _primitive(r)


def _homogeneous(p, t, u):
    """u^deg(p) * p(t/u), an int; the sign of p(t/u) when u > 0."""
    if not p:
        return 0
    v = p[-1]
    w = 1
    for i in range(len(p) - 2, -1, -1):
        w *= u
        v = v * t + p[i] * w
    return v


def _lowest(N, D):
    """The QRational N/D, for N and D coprime in Q[T] and D nonzero: the
    common content goes and lc(D) turns positive."""
    g = gcd(*N, *D)
    if D[-1] < 0:
        g = -g
    if g != 1:
        N, D = tuple(x // g for x in N), tuple(x // g for x in D)
    return QRational._of(N, D)


def _poly_repr(P, lc):
    """P over lc as `repr` shows it: Poly(c0 + c1*T^1 + ...) with the zero
    coefficients left out, each c_i printed as its Fraction prints."""
    bits = []
    for i, x in enumerate(P):
        if x:
            g = gcd(x, lc)
            c = f"{x // g}/{lc // g}" if lc != g else f"{x // g}"
            bits.append(f"{c}*T^{i}" if i else c)
    return "Poly(" + (" + ".join(bits) if bits else "0") + ")"


class QRational:
    """N/D in the normal form of the module docstring.  The variable is
    T = q^(-s); Laurent monomials are allowed via denominators T^k.

    Every operation builds a pair coprime over Q and hands it to
    `_lowest`, which takes out the content; a product runs a gcd only
    across non-constant factors, and a sum runs Henrici's two gcds (of
    the denominators, then of the new numerator with their gcd; P.
    Henrici, J. ACM 3, 1956).  Values come from `const`, `monomial` and
    the operations; no constructor reduces arbitrary tuples."""

    __slots__ = ("N", "D")

    @staticmethod
    def _of(N, D):
        """Trusted constructor: (N, D) is in normal form."""
        out = QRational.__new__(QRational)
        out.N, out.D = N, D
        return out

    @staticmethod
    def const(x):
        x = Fraction(x)
        return QRational._of((x.numerator,) if x else (), (x.denominator,))

    @staticmethod
    def monomial(coeff, k):
        """coeff * T^k, any integer k."""
        c = Fraction(coeff)
        if not c or k == 0:
            return QRational.const(c)
        if k > 0:
            return QRational._of((0,) * k + (c.numerator,), (c.denominator,))
        return QRational._of((c.numerator,), (0,) * -k + (c.denominator,))

    def is_zero(self):
        return not self.N

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        N1, D1, N2, D2 = self.N, self.D, other.N, other.D
        if not N1:
            return other
        if not N2:
            return self
        # Henrici: with g = gcd(D1, D2) and Di = g di, the sum is
        # (N1 d2 + N2 d1) / (g d1 d2), and only g can share a factor with
        # its numerator (the sum is 0 only when D1 and D2 are constants)
        g = _gcd(D1, D2)
        if len(g) == 1:
            return _lowest(_add(_mul(N1, D2), _mul(N2, D1)), _mul(D1, D2))
        d1, d2 = _quo(D1, g), _quo(D2, g)
        t = _add(_mul(N1, d2), _mul(N2, d1))
        if not t:
            return _ZERO
        if len(t) > 1:
            h = _gcd(t, g)
            if len(h) > 1:
                t, g = _quo(t, h), _quo(g, h)
        return _lowest(t, _mul(_mul(d1, d2), g))

    __radd__ = __add__

    def __neg__(self):
        return QRational._of(_neg(self.N), self.D)

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
        N1, D1, N2, D2 = self.N, self.D, other.N, other.D
        if not N1 or not N2:
            return _ZERO
        # cancel across: each factor is reduced, so after gcd(N1, D2) and
        # gcd(N2, D1) go the product is coprime over Q
        if len(N1) > 1 and len(D2) > 1:
            g = _gcd(N1, D2)
            if len(g) > 1:
                N1, D2 = _quo(N1, g), _quo(D2, g)
        if len(N2) > 1 and len(D1) > 1:
            g = _gcd(N2, D1)
            if len(g) > 1:
                N2, D1 = _quo(N2, g), _quo(D1, g)
        return _lowest(_mul(N1, N2), _mul(D1, D2))

    __rmul__ = __mul__

    def inverse(self):
        if not self.N:
            raise ZeroDivisionError("inverse of zero")
        if self.N[-1] < 0:
            return QRational._of(_neg(self.D), _neg(self.N))
        return QRational._of(self.D, self.N)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.N == other.N and self.D == other.D

    def __hash__(self):
        # a constant equals its int or Fraction value, so it hashes as one
        if len(self.N) <= 1 and len(self.D) == 1:
            return hash(Fraction(self.N[0], self.D[0])) if self.N else 0
        return hash((self.N, self.D))

    def evaluate(self, t):
        """Exact value at a rational T = t; raises at a pole, naming its
        order."""
        t = Fraction(t)
        a, b = t.numerator, t.denominator
        d = _homogeneous(self.D, a, b)
        if not d:
            order, den = 0, self.D
            while not _homogeneous(den, a, b):
                order += 1
                den = _derivative(den)
            raise PoleAtEvaluationPoint(f"pole of order {order} at T={t}")
        # N(t)/D(t) = b^-deg N * n / (b^-deg D * d)
        n, k = _homogeneous(self.N, a, b), len(self.D) - len(self.N)
        if k >= 0:
            return Fraction(n * b ** k, d)
        return Fraction(n, d * b ** -k)

    def substitute_reciprocal(self):
        """R(1/T) as a QRational in T: both sides reversed at the common
        degree n, i.e. T^n N(1/T) / T^n D(1/T).  The pair stays coprime
        (at most one side gains a factor T, and a nonzero common root r
        would make 1/r a common root of N and D) and keeps its content,
        so only the sign of the new lc(D) needs fixing."""
        N, D = self.N, self.D
        n = max(len(N), len(D))
        N = _trim(tuple(reversed(N + (0,) * (n - len(N)))))
        D = _trim(tuple(reversed(D + (0,) * (n - len(D)))))
        if D[-1] < 0:
            N, D = _neg(N), _neg(D)
        return QRational._of(N, D)

    def pole_order_at_sqrt(self, s0, sign=+1):
        """Order of the pole at T = sign*sqrt(s0), for s0 a positive
        rational, decided exactly.  With s0 = t/u in lowest terms, s0 is
        a square iff t and u are; then the root is the rational
        sign*sqrt(t)/sqrt(u) and P vanishes there iff its homogeneous
        value does.  Otherwise reduce mod T^2 - s0: P(sqrt(s0)) =
        A + B sqrt(s0) vanishes iff A = B = 0, which is the same at both
        signs, and u^K A and u^K B are the homogeneous values at t/u of
        the even and of the odd coefficients."""
        t, u = s0.numerator, s0.denominator
        rt, ru = isqrt(t), isqrt(u)
        if rt * rt == t and ru * ru == u:
            r = sign * rt

            def vanishes(p):
                return not _homogeneous(p, r, ru)
        else:
            def vanishes(p):
                return not (_homogeneous(p[0::2], t, u)
                            or _homogeneous(p[1::2], t, u))

        den, order = self.D, 0
        while vanishes(den):
            order += 1
            den = _derivative(den)
        if order and vanishes(self.N):
            raise ArithmeticError("unreduced common sqrt factor")
        return order

    def real_pole_count(self, a, b):
        """Number of distinct real roots of the denominator in (a, b]."""
        return sturm_root_count(self.D, a, b)

    def __repr__(self):
        num, den = (_poly_repr(P, self.D[-1]) for P in (self.N, self.D))
        return f"QRational({num} / {den})"


_ZERO = QRational._of((), (1,))


def _coerce(x):
    if isinstance(x, QRational):
        return x
    if isinstance(x, Rational):
        return QRational.const(x)
    return NotImplemented


def sturm_root_count(poly, a, b):
    """Distinct real roots in the half-open interval (a, b] of the int
    polynomial `poly`, for rational a < b."""
    if len(poly) <= 1:
        return 0
    # square-free part
    g = _gcd(poly, _derivative(poly))
    if len(g) > 1:
        poly = _quo(poly, g)
    chain = [poly, _derivative(poly)]
    while len(chain[-1]) > 1:
        f, h = chain[-2], chain[-1]
        rem = _prem(f, h)
        if not rem:
            break
        # -(f mod h) up to a positive factor: the pseudo-remainder's
        # multiplier lc(h)^(deg f - deg h + 1) may be negative
        c = gcd(*rem)
        if h[-1] > 0 or (len(f) - len(h)) % 2:
            c = -c
        chain.append(tuple(x // c for x in rem))

    def sign_changes(t):
        signs = [v > 0 for v in (_homogeneous(f, t.numerator, t.denominator)
                                 for f in chain) if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    # with zero values dropped, the count runs over (a, b]
    return sign_changes(a) - sign_changes(b)


def geometric_tail(coeff, power, start):
    """Sum over v >= start of (coeff * T^power)^v, as a QRational, for a
    nonzero rational coeff and power >= 1.

    This is the exact regularization of the geometric series: the value
    x^start / (1 - x) for x = coeff*T^power.  With coeff = c/w it is
    c^start w T^(power start) / (w^start (w - c T^power)), built directly:
    a monomial is coprime to w - c T^power, whose constant term is not 0,
    so no gcd runs.
    """
    c, w = coeff.numerator, coeff.denominator
    one_minus = (w,) + (0,) * (power - 1) + (-c,)
    if start >= 0:
        return _lowest((0,) * (power * start) + (c ** start * w,),
                       tuple(x * w ** start for x in one_minus))
    return _lowest((w ** -start * w,), (0,) * (-power * start)
                   + tuple(x * c ** -start for x in one_minus))
