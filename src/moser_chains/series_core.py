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
``eval_graph``, ``eval_curve``) runs through one power-table core; each entry
point only checks its arguments and fixes the order to which its result is
sound.

Coefficients are either exact Gaussian rationals (``GaussianRational``) or
Python ``complex`` (numeric mode); a container never mixes the two.  Exact
arithmetic uses ``gmpy2.mpq`` when available and ``fractions.Fraction``
otherwise -- identical semantics, gmpy2 is just faster.

All containers are immutable in practice: every operation returns a new
object and exact zeros are stripped, so equality of content is equality of
the coefficient dicts.
"""

from __future__ import annotations

import operator
import os
import re

from fractions import Fraction

from .errors import InternalInvariantError, ParseError

try:  # pragma: no cover - exercised implicitly by whichever env runs
    from gmpy2 import mpq as _mpq

    def _rat(p=0, q=None):
        if q is None:
            return _mpq(p)
        return _mpq(p, q)

except ImportError:  # pragma: no cover

    def _rat(p=0, q=None):
        if q is None:
            return Fraction(p)
        return Fraction(p, q)


#: scalar types accepted as exact *real* rationals
RATIONAL_TYPES = (int, Fraction, type(_rat(0)))

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

# Tolerance used by *internal* consistency assertions in numeric mode (the
# exact mode asserts exact zero).  User-facing accuracy statements use their
# own, documented tolerances.
FLOAT_ASSERT_TOL = 1e-7


def default_order():
    """Working truncation order: MOSER_CHAINS_ORDER env var, default 6.

    Values below 6 are rejected -- the normal form itself lives in weights
    up to 6, so nothing meaningful can be computed below that.
    """
    raw = os.environ.get("MOSER_CHAINS_ORDER")
    if raw is None:
        return 6
    try:
        n = int(raw)
    except ValueError:
        raise ParseError("MOSER_CHAINS_ORDER must be an integer, got %r" % raw)
    if n < 6:
        raise ParseError("MOSER_CHAINS_ORDER must be >= 6, got %d" % n)
    return n


def parse_rational(text):
    """Parse "p" or "p/q" (reduced or not) into an exact rational."""
    if isinstance(text, int) and not isinstance(text, bool):
        return _rat(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ParseError("bad rational literal: %r" % (text,))
    s = text.strip().lstrip("+")
    if "/" in s:
        p, q = s.split("/")
        neg = p.startswith("-")
        if neg:
            p = p[1:]
        qi = int(q)
        if qi == 0:
            raise ParseError("zero denominator in rational literal %r" % (text,))
        val = _rat(int(p), qi)
        return -val if neg else val
    return _rat(int(s))


class GaussianRational:
    """Exact complex number  re + i*im  with rational real/imaginary parts.

    Mirrors the part of the ``complex`` interface the series code relies on
    (arithmetic, ``conjugate``, ``real``/``imag``, truthiness), so containers
    can hold either kind without branching.
    """

    __slots__ = ("_re", "_im")

    def __init__(self, re=0, im=0):
        if isinstance(re, (float, complex)) or isinstance(im, (float, complex)):
            raise InternalInvariantError("GaussianRational parts must be exact rationals")
        self._re = re if isinstance(re, RATIONAL_TYPES[2:]) else _rat(re)
        self._im = im if isinstance(im, RATIONAL_TYPES[2:]) else _rat(im)

    @property
    def real(self):
        return self._re

    @property
    def imag(self):
        return self._im

    def conjugate(self):
        return GaussianRational(self._re, -self._im)

    def is_real(self):
        return not self._im

    def __bool__(self):
        return bool(self._re) or bool(self._im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._re == other._re and self._im == other._im
        if isinstance(other, RATIONAL_TYPES):
            return self._im == 0 and self._re == other
        return NotImplemented

    def __hash__(self):
        if not self._im:
            return hash(Fraction(self._re.numerator, self._re.denominator))
        return hash((self._re, self._im))

    def __neg__(self):
        return GaussianRational(-self._re, -self._im)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self._re + other._re, self._im + other._im)
        if isinstance(other, RATIONAL_TYPES):
            return GaussianRational(self._re + other, self._im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self._re - other._re, self._im - other._im)
        if isinstance(other, RATIONAL_TYPES):
            return GaussianRational(self._re - other, self._im)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self._re * other._re - self._im * other._im,
                self._re * other._im + self._im * other._re,
            )
        if isinstance(other, RATIONAL_TYPES):
            return GaussianRational(self._re * other, self._im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RATIONAL_TYPES):
            return GaussianRational(self._re / other, self._im / other)
        if isinstance(other, GaussianRational):
            d = other._re * other._re + other._im * other._im
            if not d:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return GaussianRational(
                (self._re * other._re + self._im * other._im) / d,
                (self._im * other._re - self._re * other._im) / d,
            )
        return NotImplemented

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
        return complex(float(self._re), float(self._im))

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self._re, self._im)

    def __str__(self):
        if not self._im:
            return str(self._re)
        return "(%s%s%si)" % (self._re, "+" if self._im >= 0 else "-", abs(self._im))


def gr(re, im=0):
    """Shorthand Gaussian-rational constructor (accepts "p/q" strings)."""
    if isinstance(re, str):
        re = parse_rational(re)
    if isinstance(im, str):
        im = parse_rational(im)
    return GaussianRational(re, im)


def czero(exact):
    return GaussianRational() if exact else 0j


def cone(exact):
    return GaussianRational(1) if exact else (1 + 0j)


def cimag(exact):
    return GaussianRational(0, 1) if exact else 1j


def chalf(exact):
    return GaussianRational(_rat(1, 2)) if exact else (0.5 + 0j)


def _check_scalar(value, exact, where):
    if exact:
        if isinstance(value, (complex, float)):
            raise InternalInvariantError(
                "float scalar %r leaked into exact-mode %s scalar mul" % (value, where)
            )
        if isinstance(value, RATIONAL_TYPES):
            return GaussianRational(value)
        return value
    return complex(value)


def scalar_abs(value):
    """|value| as a float, for either coefficient domain."""
    return abs(complex(value))


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

    __slots__ = ("n", "c", "exact")

    @staticmethod
    def _add_keys(a, b):
        return tuple(map(operator.add, a, b))

    @staticmethod
    def _negative(key):
        return min(key) < 0

    def __init__(self, n, coeffs=None, exact=True):
        if n < 0:
            raise InternalInvariantError("%s with negative order %d" % (type(self).__name__, n))
        self.n = n
        self.exact = exact
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

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zero(cls, n, exact=True):
        return cls(n, None, exact)

    @classmethod
    def one(cls, n, exact=True):
        return cls(n, {cls._ONE_KEY: cone(exact)}, exact)

    # -- basics ------------------------------------------------------------------

    def coeff(self, *exponents):
        """Coefficient of the monomial with these exponents (zero if absent)."""
        key = exponents[0] if len(exponents) == 1 else exponents
        return self.c.get(key, czero(self.exact))

    def is_zero(self):
        return not self.c

    def vanishes(self):
        """Zero as an internal assertion reads it: no term at all in exact
        mode, no coefficient above FLOAT_ASSERT_TOL in numeric mode."""
        if self.exact:
            return not self.c
        return self.max_abs() <= FLOAT_ASSERT_TOL

    def low_weight(self):
        """Smallest weight of a present monomial, or None if zero."""
        return min(map(self._weight, self.c)) if self.c else None

    def max_abs(self):
        return max((scalar_abs(v) for v in self.c.values()), default=0.0)

    def weight_part(self, w):
        weight = self._weight
        return type(self)(self.n, {k: v for k, v in self.c.items() if weight(k) == w}, self.exact)

    def truncate(self, m):
        return type(self)(min(self.n, m), self.c, self.exact)

    def padded(self, m):
        """Reinterpret as exact to weight m (caller vouches: no hidden tail)."""
        if m < self.n:
            return self.truncate(m)
        return type(self)(m, self.c, self.exact)

    def to_float(self):
        return type(self)(self.n, {k: complex(v) for k, v in self.c.items()}, False)

    def terms(self):
        """Deterministic (key, coeff) iteration, sorted by key."""
        for key in sorted(self.c):
            yield key, self.c[key]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.n == other.n and self.exact == other.exact and self.c == other.c

    def __repr__(self):
        parts = ["%r: %s" % (k, v) for k, v in list(self.terms())[:12]]
        more = "" if len(self.c) <= 12 else ", ... (%d terms)" % len(self.c)
        return "%s(n=%d, {%s%s})" % (type(self).__name__, self.n, ", ".join(parts), more)

    # -- arithmetic --------------------------------------------------------------

    def _binop_check(self, other):
        if self.exact != other.exact:
            raise InternalInvariantError("mixed exact/float %s arithmetic" % type(self).__name__)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._binop_check(other)
        n = min(self.n, other.n)
        weight = self._weight
        zero = czero(self.exact)
        c = {k: v for k, v in self.c.items() if weight(k) <= n}
        for k, v in other.c.items():
            if weight(k) <= n:
                s = c.get(k, zero) + v
                if s:
                    c[k] = s
                elif k in c:
                    del c[k]
        return type(self)(n, c, self.exact)

    def __sub__(self, other):
        return self.__add__(-other)

    def __neg__(self):
        return type(self)(self.n, {k: -v for k, v in self.c.items()}, self.exact)

    def __mul__(self, other):
        cls = type(self)
        if isinstance(other, cls):
            self._binop_check(other)
            n = min(self.n, other.n)
            weight, add_keys = self._weight, self._add_keys
            c = {}
            zero = czero(self.exact)
            bs = sorted((weight(k), k, v) for k, v in other.c.items())
            for k1, v1 in self.c.items():
                lim = n - weight(k1)
                if lim < 0:
                    continue
                for w2, k2, v2 in bs:
                    if w2 > lim:
                        break
                    key = add_keys(k1, k2)
                    s = c.get(key, zero) + v1 * v2
                    if s:
                        c[key] = s
                    elif key in c:
                        del c[key]
            return cls(n, c, self.exact)
        v = _check_scalar(other, self.exact, cls.__name__)
        if not v:
            return cls.zero(self.n, self.exact)
        return cls(self.n, {k: w * v for k, w in self.c.items()}, self.exact)

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
    def const(cls, n, value, exact=True):
        return cls(n, {0: value}, exact)

    @classmethod
    def var(cls, n, exact=True):
        return cls(n, {1: cone(exact)}, exact)

    # -- basics --------------------------------------------------------------

    def degree(self):
        return max(self.c) if self.c else None

    def is_real(self):
        return all(not v.imag for v in self.c.values())

    def conjugate(self):
        return UPoly(self.n, {m: v.conjugate() for m, v in self.c.items()}, self.exact)

    def real_part(self):
        half = chalf(self.exact)
        return (self + self.conjugate()) * half

    def shifted(self, s):
        """Multiply by t^s."""
        return UPoly(self.n, {m + s: v for m, v in self.c.items()}, self.exact)

    # -- calculus ------------------------------------------------------------

    def derivative(self):
        c = {m - 1: v * m for m, v in self.c.items() if m >= 1}
        return UPoly(max(self.n - 1, 0), c, self.exact)

    def integrate(self):
        """Antiderivative vanishing at 0; gains one sound order."""
        c = {m + 1: v / (m + 1) for m, v in self.c.items()}
        return UPoly(self.n + 1, c, self.exact)

    # -- composition and inverses ---------------------------------------------

    def compose(self, other):
        """self(other(t)); requires other(0) = 0."""
        if other.coeff(0):
            raise InternalInvariantError("UPoly.compose needs arg(0) = 0")
        self._binop_check(other)
        n = min(self.n, other.n)
        res = UPoly.const(n, self.coeff(0), self.exact) if self.coeff(0) else UPoly.zero(n, self.exact)
        pw = UPoly.one(n, self.exact)
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
        one = cone(self.exact)
        inv = {1: one / a1}
        for m in range(2, self.n + 1):
            partial = UPoly(m, inv, self.exact)
            comp = self.truncate(m).compose(partial)
            resid = comp.coeff(m)
            if resid:
                inv[m] = -resid / a1
        return UPoly(self.n, inv, self.exact)

    def inverse(self):
        """Multiplicative inverse; needs c0 != 0."""
        a0 = self.coeff(0)
        if not a0:
            raise InternalInvariantError("UPoly.inverse needs a unit constant term")
        one = cone(self.exact)
        b = {0: one / a0}
        for m in range(1, self.n + 1):
            acc = czero(self.exact)
            for j in range(1, m + 1):
                aj = self.c.get(j)
                if aj:
                    bm = b.get(m - j)
                    if bm:
                        acc = acc + aj * bm
            if acc:
                b[m] = -acc / a0
        return UPoly(self.n, b, self.exact)

    def sqrt(self):
        """Square root branch with s(0) near 1.

        Exact mode insists on constant term exactly 1 (so the result stays
        rational); float mode accepts any constant term with positive real
        part and takes the principal square root.
        """
        c0 = self.coeff(0)
        if self.exact:
            if c0 != cone(True):
                raise InternalInvariantError("UPoly.sqrt needs constant term 1")
            s0 = cone(True)
        else:
            if complex(c0).real <= 0.0:
                raise InternalInvariantError("UPoly.sqrt needs Re c0 > 0")
            s0 = complex(c0) ** 0.5
        double = s0 + s0
        s = {0: s0}
        for m in range(1, self.n + 1):
            acc = self.coeff(m)
            for j in range(1, m):
                sj = s.get(j)
                sk = s.get(m - j)
                if sj and sk:
                    acc = acc - sj * sk
            if acc:
                s[m] = acc / double
        return UPoly(self.n, s, self.exact)

    def exp(self):
        """exp of a series with no constant term."""
        if self.coeff(0):
            raise InternalInvariantError("UPoly.exp needs a series with no constant term")
        e = {0: cone(self.exact)}
        for m in range(0, self.n):
            # (m+1) e_{m+1} = sum_{j=0..m} (j+1) a_{j+1} e_{m-j}
            acc = czero(self.exact)
            for j in range(0, m + 1):
                aj = self.c.get(j + 1)
                if aj:
                    em = e.get(m - j)
                    if em:
                        acc = acc + (aj * (j + 1)) * em
            if acc:
                e[m + 1] = acc / (m + 1)
        return UPoly(self.n, e, self.exact)

    def evaluate(self, x):
        """Horner evaluation at a scalar."""
        top = self.degree()
        if top is None:
            return czero(self.exact) if not isinstance(x, (complex, float)) else 0j
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
    def z_var(cls, n, exact=True):
        return cls(n, {(1, 0, 0): cone(exact)}, exact)

    @classmethod
    def zbar_var(cls, n, exact=True):
        return cls(n, {(0, 1, 0): cone(exact)}, exact)

    @classmethod
    def u_var(cls, n, exact=True):
        return cls(n, {(0, 0, 1): cone(exact)}, exact)

    @classmethod
    def monomial(cls, n, j, k, l, coeff, exact=True):
        return cls(n, {(j, k, l): coeff}, exact)

    @classmethod
    def hermitian_square(cls, n, exact=True):
        """z zbar, the model graph."""
        return cls(n, {(1, 1, 0): cone(exact)}, exact)

    # -- basics -----------------------------------------------------------------

    def up_to_weight(self, w):
        weight = self._weight
        return Series3(self.n, {k: v for k, v in self.c.items() if weight(k) <= w}, self.exact)

    def conj(self):
        """The series of conj F(z,zbar,u): swap z/zbar, conjugate coefficients."""
        return Series3(
            self.n,
            {(k, j, l): v.conjugate() for (j, k, l), v in self.c.items()},
            self.exact,
        )

    def reality_defect(self):
        """max |c_{jkl} - conj(c_{kjl})| as a float (0.0 iff Hermitian-real)."""
        worst = 0.0
        for (j, k, l), v in self.c.items():
            d = v - self.c.get((k, j, l), czero(self.exact)).conjugate()
            if d:
                worst = max(worst, scalar_abs(d))
        return worst

    def is_real(self):
        """Exact Hermitian reality check."""
        for (j, k, l), v in self.c.items():
            if v != self.c.get((k, j, l), czero(self.exact)).conjugate():
                return False
        return True

    def assert_real(self, where="series"):
        if self.exact:
            if not self.is_real():
                raise InternalInvariantError("%s is not a real series" % where)
        else:
            d = self.reality_defect()
            if d > FLOAT_ASSERT_TOL:
                raise InternalInvariantError(
                    "%s is not a real series (defect %.3e)" % (where, d)
                )

    def assert_zero(self, where="series"):
        if not self.vanishes():
            raise InternalInvariantError("%s does not vanish (max %.3e)" % (where, self.max_abs()))

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
        return UPoly(order, coeffs, self.exact)

    def pure_u_part(self):
        return self.slice_jk(0, 0)

    def evaluate(self, z, zb, u):
        """Plain evaluation at scalars (numeric use)."""
        total = czero(self.exact)
        for (j, k, l), v in self.c.items():
            total = total + v * (z ** j) * (zb ** k) * (u ** l)
        return total

    # -- calculus --------------------------------------------------------------------

    def diff_u(self):
        c = {(j, k, l - 1): v * l for (j, k, l), v in self.c.items() if l >= 1}
        return Series3(max(self.n - 2, 0), c, self.exact)

    def integrate_u(self):
        c = {(j, k, l + 1): v / (l + 1) for (j, k, l), v in self.c.items()}
        return Series3(self.n + 2, c, self.exact)


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
    def z_var(cls, n, exact=True):
        return cls(n, {(1, 0): cone(exact)}, exact)

    @classmethod
    def w_var(cls, n, exact=True):
        return cls(n, {(0, 1): cone(exact)}, exact)

    @classmethod
    def monomial(cls, n, j, l, coeff, exact=True):
        return cls(n, {(j, l): coeff}, exact)

    @classmethod
    def from_w_series(cls, p, n):
        """Reinterpret a one-variable series p(t) as p(w)."""
        return cls(n, {(0, m): v for m, v in p.c.items()}, p.exact)

    def diff_z(self):
        c = {(j - 1, l): v * j for (j, l), v in self.c.items() if j >= 1}
        return HoloSeries(max(self.n - 1, 0), c, self.exact)

    def diff_w(self):
        c = {(j, l - 1): v * l for (j, l), v in self.c.items() if l >= 1}
        return HoloSeries(max(self.n - 2, 0), c, self.exact)


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
    """
    z_low, w_low = zs.low_weight(), ws.low_weight()
    if z_low == 0 or w_low == 0:
        raise InternalInvariantError("substitution argument with a constant term")
    order = min(zs.n, ws.n)
    if not polynomial:
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


def _substitute(F, args, n):
    """F(args[0], args[1], ...) to weight n, one argument per key exponent.

    Each argument gets a table of its powers.  The terms of F are grouped by
    all but their last exponent, so a group costs one product of table
    entries and one product with a combination of powers of the last
    argument.  The result has the type of the arguments.
    """
    cls, exact = type(args[0]), F.exact
    res = cls.zero(n, exact)
    if F.is_zero():
        return res
    groups = {}
    for key, v in F.c.items():
        groups.setdefault(key[:-1], []).append((key[-1], v))
    tables = []
    for i, arg in enumerate(args):
        pows = [cls.one(n, exact)]
        for _ in range(max(key[i] for key in F.c)):
            pows.append(pows[-1] * arg)
        tables.append(pows)
    *outer, last = tables
    for head, pairs in sorted(groups.items()):
        prod = outer[0][head[0]]
        for pows, e in zip(outer[1:], head[1:]):
            prod = prod * pows[e]
        if prod.is_zero():
            continue
        inner = cls.zero(n, exact)
        for l, v in pairs:
            inner = inner + last[l] * v
        res = res + prod * inner
    return res


def eval_holo3(h, zs, ws, n_out=None, polynomial=False):
    """h(zs, ws) for a holomorphic h; zs and ws are both Series3, or both
    HoloSeries (composition of holomorphic maps), and so is the result.

    Requires low-weight(zs) >= 1 and low-weight(ws) >= 1; the result order is
    clipped to what is actually sound given h's truncation unless
    ``polynomial`` declares h complete.
    """
    exact = zs.exact
    if ws.exact != exact or h.exact != exact:
        raise InternalInvariantError("mixed exact/float substitution")
    n = _resolve_order(_tail_bound(h, zs, ws, polynomial), n_out, "holomorphic substitution")
    return _substitute(h, (zs, ws), n)


# A name of its own for composition with HoloSeries arguments: normalize.py
# imports it, and perfbench/tracing.py reports calls under each name.
eval_holo2 = eval_holo3


def eval_graph(F, zs, us, n_out=None, polynomial=False):
    """F(zs, conj(zs), us) for a Series3 F; us must be a real series.

    The second slot always receives the conjugate of the first -- every
    geometric use has that shape -- which keeps reality automatic.
    """
    exact = zs.exact
    if us.exact != exact or F.exact != exact:
        raise InternalInvariantError("mixed exact/float substitution")
    if exact and not us.is_real():
        raise InternalInvariantError("graph substitution needs a real u-argument")
    n = _resolve_order(_tail_bound(F, zs, us, polynomial), n_out, "graph substitution")
    return _substitute(F, (zs, zs.conj(), us), n)


def eval_curve(F, phi, n_out=None, polynomial=False):
    """F(phi(t), conj(phi)(t), t) as a one-variable series in t."""
    exact = F.exact
    if phi.exact != exact:
        raise InternalInvariantError("mixed exact/float substitution")
    natural = phi.n
    if not polynomial:
        natural = min(natural, (F.n + 2) // 2 - 1)
    n = _resolve_order(natural, n_out, "curve substitution")
    if phi.coeff(0):
        raise InternalInvariantError("curve substitution needs phi(0) = 0")
    return _substitute(F, (phi, phi.conjugate(), UPoly.var(n, exact)), n)


# ---------------------------------------------------------------------------
# JSON serialization (exact mode only)
# ---------------------------------------------------------------------------


def is_json_count(value, least=0):
    """True for a JSON integer >= least; JSON true/false do not count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _coeff_to_json(v):
    return {"re": str(v.real), "im": str(v.imag)}


def _coeff_from_json(obj, where):
    if not isinstance(obj, dict):
        raise ParseError("bad coefficient entry in %s: %r" % (where, obj))
    re_part = parse_rational(obj.get("re", "0"))
    im_part = parse_rational(obj.get("im", "0"))
    return GaussianRational(re_part, im_part)


def series3_to_json(F):
    """{"trunc_order": n, "coeffs": [{"j","k","l","re","im"}, ...]} sorted."""
    if not F.exact:
        raise InternalInvariantError("only exact series serialize to JSON")
    coeffs = []
    for (j, k, l), v in F.terms():
        entry = {"j": j, "k": k, "l": l}
        entry.update(_coeff_to_json(v))
        coeffs.append(entry)
    return {"trunc_order": F.n, "coeffs": coeffs}


def series3_from_json(obj):
    if not isinstance(obj, dict):
        raise ParseError("series object must be a JSON object")
    if "trunc_order" not in obj:
        raise ParseError("series object lacks trunc_order")
    n = obj["trunc_order"]
    if not is_json_count(n):
        raise ParseError("bad trunc_order: %r" % (n,))
    raw = obj.get("coeffs", [])
    if not isinstance(raw, list):
        raise ParseError("coeffs must be a list")
    c = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise ParseError("bad coefficient entry: %r" % (entry,))
        try:
            j, k, l = entry["j"], entry["k"], entry["l"]
        except KeyError:
            raise ParseError("coefficient entry missing j/k/l: %r" % (entry,))
        if not all(is_json_count(e) for e in (j, k, l)):
            raise ParseError("bad exponents in entry: %r" % (entry,))
        key = (j, k, l)
        if key in c:
            raise ParseError("duplicate monomial (%d,%d,%d)" % key)
        c[key] = _coeff_from_json(entry, "series")
    return Series3(n, c, exact=True)


def holo_to_json(h):
    if not h.exact:
        raise InternalInvariantError("only exact series serialize to JSON")
    coeffs = []
    for (j, l), v in h.terms():
        entry = {"j": j, "l": l}
        entry.update(_coeff_to_json(v))
        coeffs.append(entry)
    return coeffs


def holo_from_json(raw, n, where="map component"):
    if not isinstance(raw, list):
        raise ParseError("%s must be a list of coefficient entries" % where)
    c = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise ParseError("bad coefficient entry in %s: %r" % (where, entry))
        try:
            j, l = entry["j"], entry["l"]
        except KeyError:
            raise ParseError("entry missing j/l in %s: %r" % (where, entry))
        if not all(is_json_count(e) for e in (j, l)):
            raise ParseError("bad exponents in %s: %r" % (where, entry))
        if (j, l) in c:
            raise ParseError("duplicate monomial (%d,%d) in %s" % (j, l, where))
        c[(j, l)] = _coeff_from_json(entry, where)
    return HoloSeries(n, c, exact=True)
