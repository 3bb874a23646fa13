"""Rational functions in one variable over Q, reduced and normalized.

Used for regularized integrals as functions of T = q^(-s): geometric
series sum to these exactly, poles are located exactly (including at
T = q^(-1/2), handled by reduction mod T^2 - 1/q), and real poles in an
interval are counted with a Sturm sequence.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PoleAtEvaluationPoint


def _trimmed(c):
    while c and not c[-1]:
        c.pop()
    return c


class Poly:
    """Dense polynomial over Q, little-endian coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        self.c = _trimmed([Fraction(x) for x in coeffs])

    @staticmethod
    def _of(c):
        """Trusted constructor: `c` is a fresh list of Fractions."""
        out = Poly.__new__(Poly)
        out.c = _trimmed(c)
        return out

    @staticmethod
    def const(x):
        return Poly([x])

    @staticmethod
    def monomial(coeff, k):
        return Poly([0] * k + [coeff])

    def degree(self):
        return len(self.c) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.c

    def __add__(self, other):
        n = max(len(self.c), len(other.c))
        return Poly._of(
            [
                (self.c[i] if i < len(self.c) else 0)
                + (other.c[i] if i < len(other.c) else 0)
                for i in range(n)
            ]
        )

    def __neg__(self):
        return Poly._of([-x for x in self.c])

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    out[i + j] += a * b
        return Poly._of(out)

    def scale(self, k):
        return Poly._of([x * k for x in self.c])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.c)
        d = other.c
        q = [Fraction(0)] * max(len(r) - len(d) + 1, 0)
        for i in range(len(r) - len(d), -1, -1):
            coef = r[i + len(d) - 1] / d[-1]
            q[i] = coef
            if coef:
                for j in range(len(d)):
                    r[i + j] -= coef * d[j]
        return Poly._of(q), Poly._of(r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.scale(1 / a.c[-1])

    def derivative(self):
        return Poly._of([i * x for i, x in enumerate(self.c)][1:])

    def eval(self, t):
        out = Fraction(0)
        for x in reversed(self.c):
            out = out * t + x
        return out

    def eval_mod_quadratic(self, s0):
        """Evaluate at a root of T^2 = s0: returns (a, b) meaning a + b*T."""
        a, b = Fraction(0), Fraction(0)
        for i, x in enumerate(self.c):
            if i % 2 == 0:
                a += x * s0 ** (i // 2)
            else:
                b += x * s0 ** ((i - 1) // 2)
        return a, b

    def __eq__(self, other):
        return isinstance(other, Poly) and self.c == other.c

    def __hash__(self):
        return hash(tuple(self.c))

    def __repr__(self):
        if not self.c:
            return "Poly(0)"
        return "Poly(" + " + ".join(
            f"{x}*T^{i}" if i else f"{x}" for i, x in enumerate(self.c) if x
        ) + ")"


class QRational:
    """num/den with den monic and gcd(num, den) = 1.  The variable is
    T = q^(-s); Laurent monomials are allowed via denominators T^k.

    Every operation builds its result in this normal form directly and
    hands it to `_normal`, which does no gcd; only a sum, and the public
    constructor with a non-constant denominator, run a polynomial gcd."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if den is None:
            den = _ONE
        elif not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = num, _ONE
            return
        if den.degree() > 0:
            g = num.gcd(den)
            if g.degree() > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        lead = den.c[-1]
        if lead != 1:
            num, den = num.scale(1 / lead), den.scale(1 / lead)
        self.num, self.den = num, den

    @staticmethod
    def _normal(num, den):
        """Trusted constructor: den monic and coprime to num, den = 1 when
        num is zero."""
        out = QRational.__new__(QRational)
        out.num, out.den = num, den
        return out

    @staticmethod
    def const(x):
        return QRational._normal(Poly.const(x), _ONE)

    @staticmethod
    def monomial(coeff, k):
        """coeff * T^k, any integer k."""
        num = Poly.const(coeff)
        if num.is_zero() or k == 0:
            return QRational._normal(num, _ONE)
        if k > 0:
            return QRational._normal(Poly._of([Fraction(0)] * k + num.c), _ONE)
        return QRational._normal(num, Poly.monomial(1, -k))

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.degree() == 0 and other.den.degree() == 0:
            return QRational._normal(self.num + other.num, _ONE)
        return QRational(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return QRational._normal(-self.num, self.den)

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
        # cancel across: gcd(n1, d2) and gcd(n2, d1) are monic, and each
        # factor was already reduced, so the product is in normal form (a
        # zero factor has den 1 and cancels the other den to 1)
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return QRational._normal(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        inv = 1 / self.num.c[-1]
        return QRational._normal(self.den.scale(inv), self.num.scale(inv))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(self.num.c), tuple(self.den.c)))

    def evaluate(self, t):
        """Exact value at a rational T = t; raises at poles with a report."""
        t = Fraction(t)
        d = self.den.eval(t)
        if d == 0:
            order = 0
            den = self.den
            while den.eval(t) == 0:
                order += 1
                den = den.derivative()
            raise PoleAtEvaluationPoint(
                f"pole of order {order} at T={t}",
                report={"T": t, "order": order},
            )
        return self.num.eval(t) / d

    def substitute_reciprocal(self):
        """R(1/T) as a QRational in T."""
        n = max(self.num.degree(), self.den.degree(), 0)
        rn = Poly(list(reversed(self.num.c + [Fraction(0)] * (n - self.num.degree()))))
        rd = Poly(list(reversed(self.den.c + [Fraction(0)] * (n - self.den.degree()))))
        return QRational(rn, rd)

    def pole_order_at_sqrt(self, s0, sign=+1):
        """Order of the pole at T = sign*sqrt(s0) (s0 a positive rational),
        decided exactly by reduction mod T^2 - s0."""
        s0 = Fraction(s0)
        den = self.den
        order = 0
        while True:
            a, b = den.eval_mod_quadratic(s0)
            if sign < 0:
                b = -b
            if a == 0 and b == 0:
                order += 1
                den = den.derivative()
                continue
            # no longer vanishing; also confirm numerator does not vanish
            if order:
                na, nb = self.num.eval_mod_quadratic(s0)
                if sign < 0:
                    nb = -nb
                if na == 0 and nb == 0:
                    raise ArithmeticError("unreduced common sqrt factor")
            return order

    def real_pole_count(self, a, b):
        """Number of distinct real roots of the denominator in (a, b]."""
        return sturm_root_count(self.den, Fraction(a), Fraction(b))

    def __repr__(self):
        return f"QRational({self.num!r} / {self.den!r})"


_ONE = Poly([1])


def _cancel(num, den):
    """num / g and den / g for g = gcd(num, den), with no gcd when either
    is constant (den is monic, so g is then 1)."""
    if num.degree() == 0 or den.degree() == 0:
        return num, den
    g = num.gcd(den)
    if g.degree() == 0:
        return num, den
    return num.divmod(g)[0], den.divmod(g)[0]


def _coerce(x):
    if isinstance(x, QRational):
        return x
    if isinstance(x, (int, Fraction)):
        return QRational.const(x)
    if isinstance(x, Poly):
        return QRational(x)
    return NotImplemented


def sturm_root_count(poly, a, b):
    """Distinct real roots of poly in the half-open interval (a, b]."""
    if poly.degree() <= 0:
        return 0
    # square-free part
    g = poly.gcd(poly.derivative())
    if g.degree() > 0:
        poly = poly.divmod(g)[0]
    chain = [poly, poly.derivative()]
    while chain[-1].degree() > 0:
        rem = chain[-2] % chain[-1]
        if rem.is_zero():
            break
        chain.append(-rem)

    def signs_at(t):
        out = []
        for f in chain:
            v = f.eval(t)
            if v:
                out.append(1 if v > 0 else -1)
        changes = 0
        for i in range(1, len(out)):
            if out[i] != out[i - 1]:
                changes += 1
        return changes

    count = signs_at(a) - signs_at(b)
    # Sturm counts roots in (a, b]; adjust for a root exactly at a (not
    # counted) -- standard statement already excludes a and includes b.
    return count


def geometric_tail(coeff, power, start):
    """Sum over v >= start of (coeff * T^power)^v, as a QRational.

    This is the exact regularization of the geometric series: the value
    (coeff*T^power)^start / (1 - coeff*T^power) as a rational function.
    """
    x = QRational.monomial(Fraction(coeff), power)
    num = _qr_pow(x, start)
    return num * (QRational.const(1) - x).inverse()


def _qr_pow(x, n):
    out = QRational.const(1)
    base = x if n >= 0 else x.inverse()
    for _ in range(abs(n)):
        out = out * base
    return out
