"""Exact arithmetic in the union of cyclotomic fields.

A CyclotomicScalar is a finite Q-linear combination of the unit-circle
exponentials e(r) = exp(2*pi*i*r) with r in Q/Z.  Products follow
e(r)e(r') = e(r+r'), and equality is decided exactly, one small prime p
at a time, by the relation 1 + w + ... + w^(p-1) = 0 of w = e(1/p).
This ring contains every value we need: roots of unity, rationals, Gauss
sums, and sqrt(p) for odd p.

Normal form: every instance holds a conductor `n` (an int >= 1), a dict
`coeffs` {k: c} with int keys k in [0, n), each standing for e(k/n), and
nonzero int values c, and one denominator `den` (an int > 0) with
gcd(den, *coeffs.values()) == 1; the element is the sum of the
(c / den) e(k/n).  Zero has one stored form: n = 1, {} and den = 1.  The
public constructors bring rational input to that form.  The ring
operations build their results directly in it, on ints, rewriting
operands at the lcm of their conductors: + takes one lcm of the two
denominators, merges, and divides out one gcd when two keys met; * keeps
a monomial fast path that only rotates (and rescales) the other
operand's keys.  The trusted `_normal` wraps the result; no operation
builds a Fraction.  The stored conductor is not part of the value:
the exponents k/n and coefficients c/den in lowest terms, which `repr`
and the CLI print, do not depend on it.  The normal form is not unique
(e(0) + e(1/2) equals 0), so equality is decided by `is_zero`, whose
work depends on the number of keys and not on the conductor.
Instances are immutable: operations may return an operand itself or a
cached value such as `sqrt_prime(p)`, so `coeffs` is never changed in
place.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class CyclotomicScalar:
    __slots__ = ("n", "coeffs", "den")

    def __init__(self, terms=None):
        # terms: dict {r mod 1 : coeff}, any keys and values `_exact` takes
        clean = {}
        if terms:
            for r, c in terms.items():
                r = _exact(r) % 1
                c = _exact(c)
                if c:
                    clean[r] = clean.get(r, 0) + c
                    if not clean[r]:
                        del clean[r]
        # over the lcm of lowest-terms denominators the numerators have no
        # common factor with it
        self.n = n = lcm(*[r.denominator for r in clean])
        self.den = den = lcm(*[c.denominator for c in clean.values()])
        self.coeffs = {r.numerator * (n // r.denominator):
                       c.numerator * (den // c.denominator)
                       for r, c in clean.items()}

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rational(c):
        if not isinstance(c, (int, Fraction)):
            c = _exact(c)
        if not c:
            return _ZERO
        return _normal(1, {0: c.numerator}, c.denominator)

    @staticmethod
    def root_of_unity(r):
        if not isinstance(r, Fraction):
            r = _exact(r)
        return CyclotomicScalar.root_of_unity_ratio(r.numerator,
                                                    r.denominator)

    @staticmethod
    def root_of_unity_ratio(num, den):
        """e(num / den) for ints num and den > 0, not necessarily coprime,
        built on ints: stored at the conductor den / gcd(num, den)."""
        g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
        return _normal(den, {num % den: 1}, 1)

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        if type(other) is not CyclotomicScalar:
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
        den = self.den
        if other.den != den:
            den = lcm(den, other.den)
            sa, sb = den // self.den, den // other.den
            if sa != 1:
                a = {k: c * sa for k, c in a.items()}
            if sb != 1:
                b = {k: c * sb for k, c in b.items()}
        if len(a) < len(b):
            a, b = b, a
        t = dict(a)
        met = False
        for k, c in b.items():
            s = t.get(k)
            if s is None:
                t[k] = c
            else:
                met = True
                s += c
                if s:
                    t[k] = s
                else:
                    del t[k]
        if not t:
            return _ZERO
        # scaled to the lcm, some coefficient of one operand is still prime
        # to each prime of den, so only a sum of two can share a factor
        if met and den != 1:
            g = gcd(den, *t.values())
            if g != 1:
                den //= g
                t = {k: c // g for k, c in t.items()}
        return _normal(n, t, den)

    __radd__ = __add__

    def __neg__(self):
        return _normal(self.n, {k: -c for k, c in self.coeffs.items()},
                       self.den)

    def __sub__(self, other):
        if type(other) is not CyclotomicScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not CyclotomicScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if len(self.coeffs) < len(other.coeffs):
            self, other = other, self
        b = other.coeffs
        if not b:
            return _ZERO
        a = self.coeffs
        n, m = self.n, other.n
        if len(b) == 1:
            # a monomial (c / db) e(s/m) rotates the other factor: no keys
            # collide, and only the other factor's keys are rewritten
            ((s, c),) = b.items()
            db = other.den
            if m != n:
                l = lcm(n, m)
                step, s, n = l // n, s * (l // m), l
            else:
                step = 1
            if c == 1 and db == 1:
                # every root of unity, psi's values included
                if not s and step == 1:
                    return self
                return _normal(n, {(k * step + s) % n: x
                                   for k, x in a.items()}, self.den)
            # gcd(c, db) = 1 and gcd(da, coeffs) = 1, so the common factor
            # of den = da db and the products is gcd(c, da) gcd(db, coeffs)
            g = gcd(c, self.den)
            h = gcd(db, *a.values()) if db != 1 else 1
            c //= g
            return _normal(n, {(k * step + s) % n: x // h * c
                               for k, x in a.items()},
                           self.den // g * (db // h))
        if m != n:
            n = lcm(n, m)
            a, b = _at(self, n), _at(other, n)
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
        if not t:
            return _ZERO
        den = self.den * other.den
        if den != 1:
            g = gcd(den, *t.values())
            if g != 1:
                den //= g
                t = {k: c // g for k, c in t.items()}
        return _normal(n, t, den)

    __rmul__ = __mul__

    def conj(self):
        n = self.n
        return _normal(n, {(n - k if k else k): c
                           for k, c in self.coeffs.items()}, self.den)

    # -- decision procedures --------------------------------------------
    def _reduced(self):
        """den * self, an int, when self is rational; else None.

        Write n = q m with q = p^e prime to m.  The automorphism zeta_n ->
        zeta_n^(m + q) keeps zero and each rational value, and sends e(k/n)
        to e(j/q) e(k/m), j = k mod q = r + b p^(e-1) with r < p^(e-1).  The
        image is the sum over r of e(r/q) y_r, y_r the sum of a_rb w^b with
        w = e(1/p) and a_rb in Q(zeta_m) gathering the keys at j.  The e(r/q)
        are a basis over Q(zeta_mp), and Phi_p stays the minimal polynomial
        of w over Q(zeta_m).  So self is the rational c exactly when each
        row r != 0 has its p entries a_rb equal, and row 0 has a_01 = ... =
        a_0(p-1) = a_00 - c, an absent entry being 0: the same test one
        factor down, on at most K = len(coeffs) keys.  A row is full (its
        entries b >= 1 all present) only if p <= K + 1; else each entry is
        0 but a_00 = c.  So n is trial-divided only up to K + 1; the rest,
        whose primes all exceed K + 1, is split as one factor whose rows are
        never full, as splitting its primes in turn shows.
        """
        d, n = self.coeffs, self.n
        factors = []  # (q, q / p, p) for q = p^e exactly dividing n
        for p in range(2, len(d) + 2):
            if not n % p:
                q = p
                while not n % (q * p):
                    q *= p
                n //= q
                factors.append((q, q // p, p))
        if n > 1:
            factors.append((n, n, n))  # one entry per row: never full
        return _rational(d, self.n, factors)

    def is_zero(self):
        if not self.coeffs:
            return True
        if len(self.coeffs) == 1:
            return False  # a single nonzero multiple of a root of unity
        return self._reduced() == 0

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        # equal values may be stored with different keys (e(0) + e(1/2) is
        # 0), so only the rational value, which the keys decide, may enter
        # the hash
        r = self.as_rational()
        return 1 if r is None else hash(r)

    def as_rational(self):
        """Return self as a Fraction, or None if irrational."""
        d = self.coeffs
        if not d:
            return Fraction(0)
        if len(d) == 1 and 0 in d:
            return Fraction(d[0], self.den)
        v = self._reduced()
        return None if v is None else Fraction(v, self.den)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if not self.coeffs:
            return "Cyc(0)"
        n, den = self.n, self.den
        bits = []
        for k in sorted(self.coeffs):
            c = Fraction(self.coeffs[k], den)
            bits.append(f"{c}*e({Fraction(k, n)})" if k else f"{c}")
        return "Cyc(" + " + ".join(bits) + ")"


_new = object.__new__


def _normal(n, coeffs, den):
    """The trusted constructor: wrap a conductor, a dict and a denominator
    that are already in normal form (int keys in [0, n), nonzero int
    values, den > 0 with no factor common to all of them) without checking
    them."""
    out = _new(CyclotomicScalar)
    out.n = n
    out.coeffs = coeffs
    out.den = den
    return out


_ZERO = _normal(1, {}, 1)
_ONE = _normal(1, {0: 1}, 1)


def _at(x, n):
    """x's coeffs written at conductor n, a multiple of x.n."""
    if x.n == n:
        return x.coeffs
    step = n // x.n
    return {k * step: c for k, c in x.coeffs.items()}


def _minus(x, y):
    """x - y for dicts {k: c}, zero values dropped."""
    t = dict(x)
    for k, c in y.items():
        t[k] = t.get(k, 0) - c
        if not t[k]:
            del t[k]
    return t


def _rational(d, n, factors):
    """The int value of the sum of c e(k/n) over d = {k: c}, or None if it
    is irrational; n is the product of the q of factors, each (q, step, p)
    split by the rule of `CyclotomicScalar._reduced`."""
    if not factors:
        return d.get(0, 0)  # n = 1
    (q, step, p), rest = factors[0], factors[1:]
    m = n // q
    rows = {}  # {r: {b: {k mod m: c}}}, k mod q = r + b step; no keys meet
    for k, c in d.items():
        b, r = divmod(k % q, step)
        rows.setdefault(r, {}).setdefault(b, {})[k % m] = c
    value = 0
    for r, row in rows.items():
        base = row.pop(0, {})
        zeros = list(row.values())
        if len(zeros) == p - 1:  # full: each entry b >= 1 equals the least
            a = min(zeros, key=len)
            base = _minus(base, a)
            zeros = [_minus(x, a) for x in zeros if x is not a]
        if any(_rational(x, m, rest) != 0 for x in zeros):
            return None
        v = _rational(base, m, rest)
        if v is None or (r and v):
            return None
        if not r:
            value = v
    return value


def _exact(x):
    """x as a Fraction, for any input Fraction takes but a float: the float
    0.1 is the binary fraction 3602879701896397 / 2^55, whose denominator
    would become a conductor or the denominator of every later result."""
    if isinstance(x, float):
        raise TypeError(f"CyclotomicScalar takes exact rationals, not the "
                        f"float {x!r}")
    return Fraction(x)


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
    g = _normal(p, {a: legendre(a, p) for a in range(1, p)}, 1)
    if p % 4 == 1:
        return g
    # divide by i, i.e. multiply by e(-1/4)
    return g * CyclotomicScalar.root_of_unity_ratio(-1, 4)


@lru_cache(maxsize=256)
def sqrt_rational_power(p, k):
    """p^(k/2) as a CyclotomicScalar, for integer k (possibly negative)."""
    half = k % 2
    whole = (k - half) // 2
    out = CyclotomicScalar.from_rational(Fraction(p) ** whole)
    if half:
        out = out * sqrt_prime(p)
    return out
