"""Exact truncated power-series arithmetic for rigid graphs in C^2.

Everything downstream works with real-analytic hypersurfaces written as
graphs  v = F(z, zbar, u)  over coordinates (z, w = u + iv), truncated in the
weighted sense with

    weight(z) = weight(zbar) = 1,     weight(u) = weight(w) = 2.

One sparse container, ``WeightedSeries``, holds a dict from exponent keys to
coefficients and keeps a term while the weight of its key is at most the
truncation order n.  Construction, comparison, truncation, addition and the
truncated product live there once; three weightings of the key subclass it
and add only their own mathematics:

* ``Series3``  -- F(z, zbar, u), keys (j, k, l) for z^j zbar^k u^l,
  weight j + k + 2l.
* ``HoloSeries`` -- holomorphic h(z, w), keys (j, l) for z^j w^l,
  weight j + 2l.
* ``UPoly``    -- one-variable truncated series c_0 + c_1 t + ..., keys the
  integer exponent m, weight m (u-slices, curve components and
  one-variable stage data).

Substitution of series into a series (``eval_holo3``, ``eval_holo2``,
``eval_graph``, ``eval_curve``) runs through one core over a table of the
arguments' powers; each entry point only checks its arguments and fixes the
order to which its result is sound.  The pipeline has no other substitution
code: composing maps, pushing a map along a curve and moving a surface to
another base point all go through this core.  A table holds the powers at
one order and can be shared by several substitutions into the same
arguments at that order (``GraphTable``); each entry point builds a fresh
one.

Coefficients are exact Gaussian rationals (``GaussianRational``, stored as
three integers (a, b, d) for (a + ib)/d in lowest terms).  The series code
uses only ``+ - * /``, ``conjugate`` and truthiness of its scalars, so a zero
test is exact.

All containers are immutable in practice: every operation returns a new
object and exact zeros are stripped, so equality of content is equality of
the coefficient dicts.
"""

from __future__ import annotations

import operator
import re

from fractions import Fraction
from math import gcd

from .errors import InternalInvariantError, ParseError

#: scalar types accepted as exact *real* rationals
RATIONAL_TYPES = (int, Fraction)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$", re.ASCII)


def parse_rational(text):
    """Parse "p" or "p/q" (reduced or not) into an exact rational."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ParseError("bad rational literal: %r" % (text,))
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ParseError("zero denominator in rational literal %r" % (text,))


class GaussianRational:
    """Exact complex number  re + i*im  with rational real/imaginary parts.

    Stored as three integers (a, b, d) meaning (a + ib)/d, with d > 0 and
    gcd(a, b, d) = 1, so every value has exactly one representation (zero is
    (0, 0, 1)).  Each operation does its integer arithmetic and reduces once;
    results are built by ``_make``, which skips the checks of ``__init__``.

    Offers the part of the ``complex`` interface the series code relies on:
    arithmetic, ``conjugate``, ``real``/``imag`` (as ``Fraction``) and
    truthiness.  ``int`` and ``Fraction`` operands mix in freely and compare
    and hash like the equal Gaussian rational.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if isinstance(re, (float, complex)) or isinstance(im, (float, complex)):
            raise InternalInvariantError("GaussianRational parts must be exact rationals")
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        # over the least common denominator the triple is already reduced
        dr, di = re.denominator, im.denominator
        d = dr // gcd(dr, di) * di
        self._a = re.numerator * (d // dr)
        self._b = im.numerator * (d // di)
        self._d = d

    @property
    def real(self):
        return Fraction(self._a, self._d)

    @property
    def imag(self):
        return Fraction(self._b, self._d)

    def conjugate(self):
        return _make(self._a, -self._b, self._d)

    def is_real(self):
        return not self._b

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._a == other._a and not self._b and self._d == other._d

    def __hash__(self):
        if not self._b:
            return hash(self.real)
        return hash((self.real, self.imag))

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _sum(self._a, self._b, d1, other._a, other._b, d2)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a - other._a, self._b - other._b, d1)
        return _sum(self._a, self._b, d1, -other._a, -other._b, d2)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # (a1 + i b1)/d1 / ((a2 + i b2)/d2) = (a1 + i b1)(a2 - i b2) d2 / (d1 |a2 + i b2|^2)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        norm = a2 * a2 + b2 * b2
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        d2 = other._d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * norm)

    def __rtruediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return GaussianRational(other).__truediv__(self)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (GaussianRational(1) / self) ** (-k)
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.real, self.imag)

    def __str__(self):
        re, im = self.real, self.imag
        if not im:
            return str(re)
        return "(%s%s%si)" % (re, "+" if im >= 0 else "-", abs(im))


def _make(a, b, d):
    """The Gaussian rational (a + ib)/d; the caller vouches that d > 0 and
    gcd(a, b, d) = 1."""
    x = _new(GaussianRational)
    x._a = a
    x._b = b
    x._d = d
    return x


_new = object.__new__


def _reduced(a, b, d):
    """(a + ib)/d in lowest terms, for any d > 0 (``_make`` inlined: this
    ends almost every operation)."""
    g = gcd(a, b, d)
    x = _new(GaussianRational)
    if g == 1:
        x._a, x._b, x._d = a, b, d
    else:
        x._a, x._b, x._d = a // g, b // g, d // g
    return x


def _sum(a1, b1, d1, a2, b2, d2):
    """(a1 + ib1)/d1 + (a2 + ib2)/d2 in lowest terms, for d1 != d2.

    Over d1*d2/g with g = gcd(d1, d2), the way ``Fraction`` adds: a common
    factor of the result can only divide g.
    """
    g = gcd(d1, d2)
    if g == 1:
        return _make(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
    s, t = d1 // g, d2 // g
    a, b = a1 * t + a2 * s, b1 * t + b2 * s
    g = gcd(a, b, g)
    if g == 1:
        return _make(a, b, s * d2)
    return _make(a // g, b // g, s * d2 // g)


def _coerce(value):
    """An int or Fraction operand as a Gaussian rational, else NotImplemented."""
    if isinstance(value, int):
        return _make(value, 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return NotImplemented


def gr(re, im=0):
    """Shorthand Gaussian-rational constructor (accepts "p/q" strings)."""
    if isinstance(re, str):
        re = parse_rational(re)
    if isinstance(im, str):
        im = parse_rational(im)
    return GaussianRational(re, im)


# Shared scalars; a GaussianRational is never changed in place.
ZERO = GaussianRational()
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))


def _check_scalar(value, where):
    if isinstance(value, (complex, float)):
        raise InternalInvariantError("float scalar %r in %s scalar mul" % (value, where))
    if isinstance(value, RATIONAL_TYPES):
        return GaussianRational(value)
    return value


# ---------------------------------------------------------------------------
# the weighted sparse series
# ---------------------------------------------------------------------------


class WeightedSeries:
    """Sparse truncated series: {key: coefficient}, kept while weight(key) <= n.

    A subclass fixes the key shape through ``_ONE_KEY`` (the key of the
    constant monomial) and ``_weight`` (the weighted degree of a key).  Keys
    are exponent tuples, added entrywise when monomials multiply; a subclass
    with other keys also overrides ``_add_keys`` and ``_negative``.
    """

    __slots__ = ("n", "c")

    @staticmethod
    def _add_keys(a, b):
        return tuple(map(operator.add, a, b))

    @staticmethod
    def _negative(key):
        return min(key) < 0

    def __init__(self, n, coeffs=None):
        if n < 0:
            raise InternalInvariantError("%s with negative order %d" % (type(self).__name__, n))
        self.n = n
        c = {}
        if coeffs:
            weight, negative = self._weight, self._negative
            for key, v in coeffs.items():
                if negative(key):
                    raise InternalInvariantError(
                        "negative exponent in %s key %r" % (type(self).__name__, key)
                    )
                if weight(key) <= n and v:
                    c[key] = v
        self.c = c

    @classmethod
    def _trusted(cls, n, c):
        """The series with order n and coefficient dict c, taken as it is.

        For results whose keys are valid by construction: the caller promises
        that every key has the subclass's shape with no negative exponent,
        that its weight is at most n, and that no coefficient is zero.  ``c``
        is kept, not copied.
        """
        series = _new(cls)
        series.n = n
        series.c = c
        return series

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, None)

    @classmethod
    def one(cls, n):
        return cls(n, {cls._ONE_KEY: ONE})

    # -- basics ------------------------------------------------------------------

    def coeff(self, *exponents):
        """Coefficient of the monomial with these exponents (zero if absent)."""
        key = exponents[0] if len(exponents) == 1 else exponents
        return self.c.get(key, ZERO)

    def is_zero(self):
        return not self.c

    def low_weight(self):
        """Smallest weight of a present monomial, or None if zero."""
        return min(map(self._weight, self.c)) if self.c else None

    def weight_part(self, w):
        weight = self._weight
        return type(self)(self.n, {k: v for k, v in self.c.items() if weight(k) == w})

    def truncate(self, m):
        return type(self)(min(self.n, m), self.c)

    def padded(self, m):
        """Reinterpret as exact to weight m (caller vouches: no hidden tail)."""
        if m < self.n:
            return self.truncate(m)
        return type(self)(m, self.c)

    def terms(self):
        """Deterministic (key, coeff) iteration, sorted by key."""
        for key in sorted(self.c):
            yield key, self.c[key]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.n == other.n and self.c == other.c

    def __repr__(self):
        parts = ["%r: %s" % (k, v) for k, v in list(self.terms())[:12]]
        more = "" if len(self.c) <= 12 else ", ... (%d terms)" % len(self.c)
        return "%s(n=%d, {%s%s})" % (type(self).__name__, self.n, ", ".join(parts), more)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        n = min(self.n, other.n)
        weight = self._weight
        c = {k: v for k, v in self.c.items() if weight(k) <= n}
        _accumulate(c, [(k, v) for k, v in other.c.items() if weight(k) <= n])
        return self._trusted(n, c)

    def __sub__(self, other):
        return self.__add__(-other)

    def __neg__(self):
        return self._trusted(self.n, {k: -v for k, v in self.c.items()})

    def __mul__(self, other):
        cls = type(self)
        if isinstance(other, cls):
            n = min(self.n, other.n)
            weight, add_keys = self._weight, self._add_keys
            c = {}
            bs = sorted((weight(k), k, v) for k, v in other.c.items())
            for k1, v1 in self.c.items():
                lim = n - weight(k1)
                if lim < 0:
                    continue
                for w2, k2, v2 in bs:
                    if w2 > lim:
                        break
                    key = add_keys(k1, k2)
                    s = c.get(key, ZERO) + v1 * v2
                    if s:
                        c[key] = s
                    elif key in c:
                        del c[key]
            return cls._trusted(n, c)
        v = _check_scalar(other, cls.__name__)
        if not v:
            return cls.zero(self.n)
        return cls._trusted(self.n, {k: w * v for k, w in self.c.items()})

    __rmul__ = __mul__


# The subclasses bind __mul__/__rmul__ (and Series3 also __add__) in their own
# namespaces although they are the base's functions: perfbench/tracing.py
# finds the methods it counts through each class's own __dict__, so each
# class's products are counted apart.


# ---------------------------------------------------------------------------
# one-variable series
# ---------------------------------------------------------------------------


class UPoly(WeightedSeries):
    """Truncated one-variable series sum_m c_m t^m, exponents 0..n kept."""

    __slots__ = ()

    _ONE_KEY = 0

    @staticmethod
    def _weight(m):
        return m

    _add_keys = staticmethod(operator.add)

    @staticmethod
    def _negative(m):
        return m < 0

    __mul__ = __rmul__ = WeightedSeries.__mul__

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, n, value):
        return cls(n, {0: value})

    @classmethod
    def var(cls, n):
        return cls(n, {1: ONE})

    # -- basics --------------------------------------------------------------

    def degree(self):
        return max(self.c) if self.c else None

    def is_real(self):
        return all(v.is_real() for v in self.c.values())

    def conjugate(self):
        return UPoly(self.n, {m: v.conjugate() for m, v in self.c.items()})

    def real_part(self):
        return (self + self.conjugate()) * HALF

    # -- calculus ------------------------------------------------------------

    def derivative(self):
        c = {m - 1: v * m for m, v in self.c.items() if m >= 1}
        return UPoly(max(self.n - 1, 0), c)

    def integrate(self):
        """Antiderivative vanishing at 0; gains one sound order."""
        c = {m + 1: v / (m + 1) for m, v in self.c.items()}
        return UPoly(self.n + 1, c)

    # -- composition and inverses ---------------------------------------------

    def compose(self, other):
        """self(other(t)); requires other(0) = 0."""
        if other.coeff(0):
            raise InternalInvariantError("UPoly.compose needs arg(0) = 0")
        n = min(self.n, other.n)
        res = UPoly.const(n, self.coeff(0)) if self.coeff(0) else UPoly.zero(n)
        pw = UPoly.one(n)
        top = self.degree()
        if top is None:
            return res
        for m in range(1, top + 1):
            pw = pw * other
            if pw.is_zero():
                break
            if m in self.c:
                res = res + pw * self.c[m]
        return res

    def reversion(self):
        """Functional inverse tau with self(tau(t)) = t; needs c0=0, c1 != 0."""
        if self.coeff(0):
            raise InternalInvariantError("reversion needs a series with no constant term")
        a1 = self.coeff(1)
        if not a1:
            raise InternalInvariantError("reversion needs a nonzero linear coefficient")
        inv = {1: ONE / a1}
        for m in range(2, self.n + 1):
            partial = UPoly(m, inv)
            comp = self.truncate(m).compose(partial)
            resid = comp.coeff(m)
            if resid:
                inv[m] = -resid / a1
        return UPoly(self.n, inv)

    def inverse(self):
        """Multiplicative inverse; needs c0 != 0."""
        a0 = self.coeff(0)
        if not a0:
            raise InternalInvariantError("UPoly.inverse needs a unit constant term")
        b = {0: ONE / a0}
        for m in range(1, self.n + 1):
            acc = ZERO
            for j in range(1, m + 1):
                aj = self.c.get(j)
                if aj:
                    bm = b.get(m - j)
                    if bm:
                        acc = acc + aj * bm
            if acc:
                b[m] = -acc / a0
        return UPoly(self.n, b)

    def sqrt(self):
        """The square root with s(0) = 1 of a series with constant term 1.

        Any other constant term is refused: its square root is in general
        not a Gaussian rational.
        """
        if self.coeff(0) != ONE:
            raise InternalInvariantError("UPoly.sqrt needs constant term 1")
        double = ONE + ONE
        s = {0: ONE}
        for m in range(1, self.n + 1):
            acc = self.coeff(m)
            for j in range(1, m):
                sj = s.get(j)
                sk = s.get(m - j)
                if sj and sk:
                    acc = acc - sj * sk
            if acc:
                s[m] = acc / double
        return UPoly(self.n, s)

    def exp(self):
        """exp of a series with no constant term."""
        if self.coeff(0):
            raise InternalInvariantError("UPoly.exp needs a series with no constant term")
        e = {0: ONE}
        for m in range(0, self.n):
            # (m+1) e_{m+1} = sum_{j=0..m} (j+1) a_{j+1} e_{m-j}
            acc = ZERO
            for j in range(0, m + 1):
                aj = self.c.get(j + 1)
                if aj:
                    em = e.get(m - j)
                    if em:
                        acc = acc + (aj * (j + 1)) * em
            if acc:
                e[m + 1] = acc / (m + 1)
        return UPoly(self.n, e)

    def evaluate(self, x):
        """Horner evaluation at a scalar."""
        top = self.degree()
        if top is None:
            return ZERO
        acc = self.coeff(top)
        for m in range(top - 1, -1, -1):
            acc = acc * x + self.coeff(m)
        return acc


# ---------------------------------------------------------------------------
# three-variable graph series
# ---------------------------------------------------------------------------


class Series3(WeightedSeries):
    """Sparse F(z, zbar, u), keys (j, k, l), kept while j + k + 2l <= n."""

    __slots__ = ()

    _ONE_KEY = (0, 0, 0)

    @staticmethod
    def _weight(key):
        j, k, l = key
        return j + k + 2 * l

    __add__ = WeightedSeries.__add__
    __mul__ = __rmul__ = WeightedSeries.__mul__

    # -- constructors ----------------------------------------------------------

    @classmethod
    def z_var(cls, n):
        return cls(n, {(1, 0, 0): ONE})

    @classmethod
    def zbar_var(cls, n):
        return cls(n, {(0, 1, 0): ONE})

    @classmethod
    def u_var(cls, n):
        return cls(n, {(0, 0, 1): ONE})

    @classmethod
    def monomial(cls, n, j, k, l, coeff):
        return cls(n, {(j, k, l): coeff})

    @classmethod
    def hermitian_square(cls, n):
        """z zbar, the model graph."""
        return cls(n, {(1, 1, 0): ONE})

    # -- basics -----------------------------------------------------------------

    def up_to_weight(self, w):
        weight = self._weight
        return Series3(self.n, {k: v for k, v in self.c.items() if weight(k) <= w})

    def conj(self):
        """The series of conj F(z,zbar,u): swap z/zbar, conjugate coefficients."""
        return Series3(
            self.n,
            {(k, j, l): v.conjugate() for (j, k, l), v in self.c.items()},
        )

    def is_real(self):
        """Exact Hermitian reality check."""
        for (j, k, l), v in self.c.items():
            if v != self.c.get((k, j, l), ZERO).conjugate():
                return False
        return True

    def assert_real(self, where="series"):
        if not self.is_real():
            raise InternalInvariantError("%s is not a real series" % where)

    def assert_zero(self, where="series"):
        if not self.is_zero():
            raise InternalInvariantError("%s does not vanish (%d terms left)" % (where, len(self.c)))

    def slice_jk(self, j, k):
        """The u-series F_{j,k}(u), sound to u-order floor((n-j-k)/2)."""
        order = (self.n - j - k) // 2
        if order < 0:
            raise InternalInvariantError(
                "slice (%d,%d) outside truncation order %d" % (j, k, self.n)
            )
        coeffs = {}
        for (jj, kk, l), v in self.c.items():
            if jj == j and kk == k:
                coeffs[l] = v
        return UPoly(order, coeffs)

    def pure_u_part(self):
        return self.slice_jk(0, 0)

    def evaluate(self, z, zb, u):
        """Plain evaluation at scalars."""
        total = ZERO
        for (j, k, l), v in self.c.items():
            total = total + v * (z ** j) * (zb ** k) * (u ** l)
        return total


# ---------------------------------------------------------------------------
# two-variable holomorphic series
# ---------------------------------------------------------------------------


class HoloSeries(WeightedSeries):
    """Sparse holomorphic h(z, w), keys (j, l), kept while j + 2l <= n."""

    __slots__ = ()

    _ONE_KEY = (0, 0)

    @staticmethod
    def _weight(key):
        j, l = key
        return j + 2 * l

    __mul__ = __rmul__ = WeightedSeries.__mul__

    @classmethod
    def z_var(cls, n):
        return cls(n, {(1, 0): ONE})

    @classmethod
    def w_var(cls, n):
        return cls(n, {(0, 1): ONE})

    @classmethod
    def from_w_series(cls, p, n):
        """Reinterpret a one-variable series p(t) as p(w)."""
        return cls(n, {(0, m): v for m, v in p.c.items()})

    def diff_z(self):
        c = {(j - 1, l): v * j for (j, l), v in self.c.items() if j >= 1}
        return HoloSeries(max(self.n - 1, 0), c)

    def diff_w(self):
        c = {(j, l - 1): v * l for (j, l), v in self.c.items() if l >= 1}
        return HoloSeries(max(self.n - 2, 0), c)


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def _tail_bound(F, zs, ws, polynomial):
    """Weight to which F(zs, ..., ws) is sound.

    The result is sound to the arguments' orders.  A monomial of F beyond its
    truncation (weight > F.n) would add output of weight at least the
    smallest "corner" distribution of its exponents over the arguments' low
    weights, which caps the order one below that; ``polynomial=True`` asserts
    there is no such tail (F is a complete polynomial) and lifts the cap.

    An argument with a constant term is refused only for a truncated F, whose
    unseen monomials would then reach every weight.  For a complete F it is
    sound: all weights are >= 0, so output of weight <= n depends only on
    argument terms of weight <= n (``translate_to_point`` relies on this).
    """
    z_low, w_low = zs.low_weight(), ws.low_weight()
    order = min(zs.n, ws.n)
    if not polynomial:
        if z_low == 0 or w_low == 0:
            raise InternalInvariantError("substitution argument with a constant term")
        tail = F.n + 1
        if z_low is not None:
            order = min(order, z_low * tail - 1)
        if w_low is not None:
            order = min(order, w_low * ((tail + 1) // 2) - 1)
    return order


def _resolve_order(natural, n_out, what):
    if n_out is None:
        return natural
    if natural < n_out:
        raise InternalInvariantError(
            "%s only sound to weight %d, %d requested" % (what, natural, n_out)
        )
    return n_out


class PowerTable:
    """Powers of substitution arguments at one order n, built on demand.

    ``power(i, e)`` is args[i]**e and ``head(key)`` the product of the powers
    that all but the last exponent of a key name (zs^j conj(zs)^k for a graph
    key (j, k, l)), with its low weight (None when it is zero); a zero
    exponent adds no factor, and an all-zero head is the series one.  Both
    are kept once built, so substitutions that share a table build each
    power and each head product once.
    """

    __slots__ = ("args", "n", "pows", "heads")

    def __init__(self, args, n):
        self.args = args
        self.n = n
        one = type(args[0]).one(n)
        self.pows = [[one] for _ in args]
        self.heads = {}

    def power(self, i, e):
        pows = self.pows[i]
        while len(pows) <= e:
            pows.append(pows[-1] * self.args[i])
        return pows[e]

    def head(self, key):
        entry = self.heads.get(key)
        if entry is None:
            factors = [self.power(i, e) for i, e in enumerate(key) if e]
            prod = factors[0] if factors else self.pows[0][0]
            for factor in factors[1:]:
                prod = prod * factor
            entry = self.heads[key] = (prod, prod.low_weight())
        return entry


def _accumulate(acc, items, scale=None):
    """acc[k] += v (times scale) for (k, v) in items, in place, keeping no
    zero coefficient."""
    get = acc.get
    for k, v in items:
        s = get(k, ZERO) + (v if scale is None else v * scale)
        if s:
            acc[k] = s
        elif k in acc:
            del acc[k]


def _substitute(F, table):
    """F(args[0], args[1], ...) to the table's order, one argument per key
    exponent.

    The terms of F are grouped by all but their last exponent, so a group
    costs one head product of the table and one product with its inner sum
    sum_l v_l * Q^l over powers of the last argument Q; the group with the
    all-zero head needs no product.  The result has the type of the
    arguments.

    A head product whose lowest weight is w multiplies the inner sum, so a
    term of the inner sum above weight n - w only makes output above the
    order n: the inner sum is built to weight n - w only.  The inner sums and
    the result are accumulated in place.
    """
    n, last = table.n, len(table.args) - 1
    cls = type(table.args[0])
    weight = cls._weight
    res = {}
    groups = {}
    for key, v in F.c.items():
        groups.setdefault(key[:-1], []).append((key[-1], v))
    for head, pairs in sorted(groups.items()):
        prod, low = table.head(head)
        if low is None:
            continue
        lim = n - low
        inner = {}
        for l, v in pairs:
            power = table.power(last, l).c.items()
            _accumulate(inner, [(k, p) for k, p in power if weight(k) <= lim], v)
        if not inner:
            continue
        if any(head):
            inner = (prod * cls._trusted(n, inner)).c
        _accumulate(res, inner.items())
    return cls._trusted(n, res)


def eval_holo3(h, zs, ws, n_out=None, polynomial=False):
    """h(zs, ws) for a holomorphic h; zs and ws are both Series3, both
    HoloSeries (composition of holomorphic maps) or both UPoly (a map pushed
    along a curve t |-> (zs(t), ws(t))), and so is the result.

    Without ``polynomial`` the arguments need low weight >= 1 and the result
    order is clipped to what is sound given h's truncation; ``polynomial``
    declares h complete, lifts the clip and admits constant terms.
    """
    n = _resolve_order(_tail_bound(h, zs, ws, polynomial), n_out, "holomorphic substitution")
    return _substitute(h, PowerTable((zs, ws), n))


# A name of its own for composition with HoloSeries arguments: normalize.py
# imports it, and perfbench/tracing.py reports calls under each name.
eval_holo2 = eval_holo3


def _graph_order(F, zs, us, n_out, polynomial):
    """Check the arguments of F(zs, conj(zs), us); the weight to compute to."""
    if not us.is_real():
        raise InternalInvariantError("graph substitution needs a real u-argument")
    return _resolve_order(_tail_bound(F, zs, us, polynomial), n_out, "graph substitution")


class GraphTable(PowerTable):
    """The powers of zs, conj(zs) and us at order n, for substituting several
    series F into the same graph arguments.

    Calling the table is ``eval_graph(F, zs, us)`` with the table's powers:
    the same checks run, and F(zs, conj(zs), us) must be sound to exactly the
    table's order.
    """

    __slots__ = ()

    def __init__(self, zs, us, n):
        super().__init__((zs, zs.conj(), us), n)

    def __call__(self, F):
        zs, _, us = self.args
        n = _graph_order(F, zs, us, None, False)
        if n != self.n:
            raise InternalInvariantError(
                "graph substitution sound to weight %d through a table of order %d" % (n, self.n)
            )
        return _substitute(F, self)


def eval_graph(F, zs, us, n_out=None, polynomial=False):
    """F(zs, conj(zs), us) for a Series3 F; us must be a real series.

    The second slot always receives the conjugate of the first -- every
    geometric use has that shape -- which keeps reality automatic.
    """
    return _substitute(F, GraphTable(zs, us, _graph_order(F, zs, us, n_out, polynomial)))


def eval_curve(F, phi, n_out=None, polynomial=False):
    """F(phi(t), conj(phi)(t), t) as a one-variable series in t; the order
    rule is ``_tail_bound``'s with t in the u-slot."""
    t = UPoly.var(phi.n)
    n = _resolve_order(_tail_bound(F, phi, t, polynomial), n_out, "curve substitution")
    return _substitute(F, PowerTable((phi, phi.conjugate(), t), n))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def is_json_count(value, least=0):
    """True for a JSON integer >= least; JSON true/false do not count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _terms_to_json(series, fields):
    """The sorted coefficient entries {field: exponent, ..., "re", "im"}."""
    out = []
    for key, v in series.terms():
        entry = dict(zip(fields, key))
        entry["re"], entry["im"] = str(v.real), str(v.imag)
        out.append(entry)
    return out


def _terms_from_json(raw, n, cls, fields, where):
    """The cls series of order n from a list of coefficient entries;
    ParseError for a malformed, repeated or above-order entry."""
    if not isinstance(raw, list):
        raise ParseError("%s must be a list of coefficient entries" % where)
    c = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise ParseError("bad coefficient entry in %s: %r" % (where, entry))
        try:
            key = tuple(entry[f] for f in fields)
        except KeyError:
            raise ParseError("entry missing %s in %s: %r" % ("/".join(fields), where, entry))
        if not all(is_json_count(e) for e in key):
            raise ParseError("bad exponents in %s: %r" % (where, entry))
        weight = cls._weight(key)
        if weight > n:
            raise ParseError(
                "monomial %r in %s has weight %d above order %d" % (key, where, weight, n)
            )
        if key in c:
            raise ParseError("duplicate monomial %r in %s" % (key, where))
        c[key] = GaussianRational(
            parse_rational(entry.get("re", "0")), parse_rational(entry.get("im", "0"))
        )
    return cls(n, c)


def series3_to_json(F):
    """{"trunc_order": n, "coeffs": [{"j","k","l","re","im"}, ...]} sorted."""
    return {"trunc_order": F.n, "coeffs": _terms_to_json(F, "jkl")}


def series3_from_json(obj):
    if not isinstance(obj, dict):
        raise ParseError("series object must be a JSON object")
    if "trunc_order" not in obj:
        raise ParseError("series object lacks trunc_order")
    n = obj["trunc_order"]
    if not is_json_count(n):
        raise ParseError("bad trunc_order: %r" % (n,))
    return _terms_from_json(obj.get("coeffs", []), n, Series3, "jkl", "series coeffs")


def holo_to_json(h):
    return _terms_to_json(h, "jl")


def holo_from_json(raw, n, where="map component"):
    return _terms_from_json(raw, n, HoloSeries, "jl", where)
