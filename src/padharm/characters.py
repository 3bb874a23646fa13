"""Additive and tame multiplicative characters with exact cyclotomic values.

The additive character psi has conductor exponent d (trivial on p^-d O,
nontrivial one step further out); its extension to E is psi_E(z) =
psi(tr(z)/2), which restricts to psi on F.  Multiplicative characters
are tame: determined by a value on the uniformizer and a character of
the residue field, evaluated through a discrete-log table.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CyclotomicScalar, legendre
from .errors import NotInDomain, UnsupportedConductor
from .padic import strip_p, unit_residue, val_p


def frac_part_ratio(num, den, p, d):
    """The p-power fractional part of p^d x, x = num / den: the r in
    [0, 1) with p-power denominator and p^d x - r integral at p, as an
    int pair (m, p^k) with r = m / p^k and 0 <= m < p^k; (0, 1) when r is
    0.  num and den > 0 are ints, not necessarily coprime, d is any int,
    and m / p^k need not be in lowest terms.

    Integer kernel: den = p^v u with p not dividing u, so p^d x has the
    p-power denominator p^k, k = v - d (less when p divides num), and
    m = num * u^-1 mod p^k, which names the same rational when num / den
    is not in lowest terms.  A denominator prime to p costs one modulo;
    any other is split by `strip_p`.
    """
    if not num:
        return 0, 1
    k = -d
    if den % p == 0:
        v, den = strip_p(den, p)
        k += v
    if k <= 0:
        return 0, 1
    pk = p ** k
    return num * pow(den, -1, pk) % pk, pk


class AdditiveCharacter:
    """psi(x) = e(frac_p(p^d x)): conductor exponent d."""

    def __init__(self, field, conductor_exponent=0):
        self.F = field
        self.d = int(conductor_exponent)

    def __eq__(self, other):
        return (
            isinstance(other, AdditiveCharacter)
            and self.F == other.F
            and self.d == other.d
        )

    def _phase_pair(self, x):
        """(m, p^k) with psi(x) = e(m / p^k), for rational x."""
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        return frac_part_ratio(x.numerator, x.denominator, self.F.p, self.d)

    def __call__(self, x):
        # built from the int pair, with no Fraction per value
        return CyclotomicScalar.root_of_unity_ratio(*self._phase_pair(x))


@lru_cache(maxsize=None)
def _dlog_table_F(p):
    """Discrete logs in F_p^* for a fixed generator; returns (g, table)."""
    for g in range(2, p):
        seen = {}
        x = 1
        for k in range(p - 1):
            seen[x] = k
            x = x * g % p
        if len(seen) == p - 1:
            return g, seen
    raise ArithmeticError("no generator found")


@lru_cache(maxsize=None)
def _dlog_table_Fp2(p, d0):
    """Discrete logs in F_{p^2}^* = F_p[t]/(t^2 - d0); returns (g, table)
    with elements keyed as pairs (x, y)."""
    order = p * p - 1

    def mul(a, b):
        return ((a[0] * b[0] + d0 * a[1] * b[1]) % p,
                (a[0] * b[1] + a[1] * b[0]) % p)

    # the powers of g until one repeats: g generates when all are distinct
    for g in itertools.product(range(p), repeat=2):
        seen = {}
        x = (1, 0)
        for k in range(order):
            if x in seen:
                break
            seen[x] = k
            x = mul(x, g)
        if len(seen) == order:
            return g, seen
    raise ArithmeticError("no generator found")


class MultiplicativeCharacter:
    """Tame character of F^*: chi(p^v u) = e(v * r_pi) * e(k * dlog(u0)/(p-1))."""

    def __init__(self, field, value_on_uniformizer, residue_exponent):
        self.F = field
        self.r_pi = Fraction(value_on_uniformizer) % 1
        self.k = int(residue_exponent) % (field.p - 1)

    @property
    def is_unramified(self):
        return self.k == 0

    def conductor_exponent(self):
        return 0 if self.k == 0 else 1

    def is_quadratic(self):
        two = self ** 2
        return two.r_pi == 0 and two.k == 0

    def __pow__(self, n):
        return MultiplicativeCharacter(self.F, self.r_pi * n, self.k * n)

    def phase(self, x):
        """The phase of chi(x) in [0, 1), for a nonzero int or Fraction x:
        v and the unit residue u0 are read from the numerator and the
        denominator on ints, and the phase is built as one Fraction."""
        p = self.F.p
        num, den = x.numerator, x.denominator
        if num == 0:
            raise NotInDomain("multiplicative character at 0")
        v, num = strip_p(num, p)
        w, den = strip_p(den, p)
        v -= w
        a, b = self.r_pi.numerator, self.r_pi.denominator
        if not self.k:
            return Fraction(a * v % b, b)
        _, table = _dlog_table_F(p)
        u0 = num * pow(den, -1, p) % p
        # v r_pi + k dlog(u0) / (p - 1) over the one denominator b (p - 1)
        d = b * (p - 1)
        return Fraction((a * v * (p - 1) + self.k * table[u0] * b) % d, d)

    def __call__(self, x):
        return CyclotomicScalar.root_of_unity(self.phase(x))


def eta_unramified(field):
    return MultiplicativeCharacter(field, Fraction(1, 2), 0)


# cached: match_side checks its eta against this on every call
@lru_cache(maxsize=None)
def eta_for_extension(ext):
    """The quadratic character of F^* with kernel the norms of E^*."""
    F = ext.F
    if ext.is_inert:
        return eta_unramified(F)
    p = F.p
    # ramified: eta on units is the residue Legendre character; eta(p) is
    # pinned by eta(-delta) = eta(Norm(tau)) = 1.
    sign = legendre(-unit_residue(ext.delta, p) % p, p)
    r_pi = Fraction(0) if sign == 1 else Fraction(1, 2)
    return MultiplicativeCharacter(F, r_pi, (p - 1) // 2)


class ExtCharacter:
    """Tame character of E^*: value on a uniformizer of E plus a character
    of the residue field k_E (given by an exponent against a fixed
    generator)."""

    def __init__(self, ext, value_on_uniformizer, residue_exponent):
        self.ext = ext
        self.r_pi = Fraction(value_on_uniformizer) % 1
        order = (ext.F.p ** 2 - 1) if ext.is_inert else (ext.F.p - 1)
        self.k = int(residue_exponent) % order
        self._order = order

    def _unit_residue_log(self, z):
        p = self.ext.F.p
        if self.ext.is_inert:
            # z is a unit of E: x and y are integral, one of them a unit
            x0, y0 = (unit_residue(t, p) if t and val_p(t, p) == 0 else 0
                      for t in (z.x, z.y))
            _, table = _dlog_table_Fp2(p, unit_residue(self.ext.delta, p))
            return table[(x0, y0)]
        _, table = _dlog_table_F(p)
        return table[unit_residue(z.x, p)]

    def phase(self, z):
        ext = self.ext
        if isinstance(z, (int, Fraction)):
            z = ext.scalar(z, 0)
        if z.is_zero():
            raise NotInDomain("character at 0")
        v = z.valuation_E()
        pi = ext.scalar(ext.F.p, 0) if ext.is_inert else ext.tau()
        zu = z * _ext_pow(pi.inverse(), v)
        r = (self.r_pi * v) % 1
        if self.k:
            r = (r + Fraction(self.k * self._unit_residue_log(zu), self._order)) % 1
        return r

    def __call__(self, z):
        return CyclotomicScalar.root_of_unity(self.phase(z))


def _ext_pow(z, n):
    out, base = z.ext.one(), z if n >= 0 else z.inverse()
    for _ in range(abs(n)):
        out = out * base
    return out


def eta_prime_default(ext, eta=None):
    """A standard extension of eta to E^*."""
    eta = eta or eta_for_extension(ext)
    p = ext.F.p
    if ext.is_inert:
        # unramified extension: trivial on units, -1 on the uniformizer p
        return ExtCharacter(ext, eta.r_pi, 0)
    # ramified: residue character must restrict to Legendre on F_p, and
    # eta'(tau)^2 = eta'(delta) = eta(delta) pins the value on tau up to sign
    eta_delta = eta.phase(ext.delta)
    r_tau = eta_delta / 2
    return ExtCharacter(ext, r_tau, (p - 1) // 2)


def gauss_sum(eta, psi):
    """g = sum over units a mod p of eta(a) psi(a/p)."""
    p = eta.F.p
    total = CyclotomicScalar.zero()
    for a in range(1, p):
        total = total + eta(a) * psi(Fraction(a, p))
    return total


def epsilon_half(eta, psi):
    """The s = 1/2 epsilon factor, normalized to modulus one.

    Unramified eta with unramified psi gives exactly 1; a ramified
    (conductor-one) eta gives the normalized Gauss sum g / sqrt(p).
    Other conductors are out of scope.
    """
    if psi.d != 0:
        raise UnsupportedConductor("only conductor-zero psi is supported")
    if eta.is_unramified:
        return CyclotomicScalar.one()
    from .cyclotomic import sqrt_prime

    p = eta.F.p
    g = gauss_sum(eta, psi)
    return g * sqrt_prime(p) * CyclotomicScalar.from_rational(Fraction(1, p))
