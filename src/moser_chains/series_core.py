"""Exact truncated power-series arithmetic for real graphs in C^2.

Everything downstream works with real-analytic hypersurfaces written as
graphs  v = F(z, zbar, u)  over coordinates (z, w = u + iv), truncated in the
weighted sense with

    weight(z) = weight(zbar) = 1,     weight(u) = weight(w) = 2.

One sparse container, ``WeightedSeries``, keeps a term while the weight of
its exponent key is at most the truncation order n.  It stores the whole
series over one denominator: a positive integer d and a dict from keys to
integer pairs (a, b), each meaning the coefficient (a + ib)/d -- the layout
of FLINT's ``fmpq_poly``.  Construction, comparison, truncation, addition and
the truncated product live there once; four weightings of the key subclass
it and add only their own mathematics:

* ``Series3``  -- F(z, zbar, u), keys (j, k, l) for z^j zbar^k u^l,
  weight j + k + 2l.
* ``HoloSeries`` -- holomorphic h(z, w), keys (j, l) for z^j w^l,
  weight j + 2l.
* ``UPoly``    -- one-variable truncated series c_0 + c_1 t + ..., keys the
  integer exponent m, weight m (u-slices, curve components and
  one-variable stage data).
* ``lie_jets.RPoly`` -- the symbolic half's polynomials in 11 jet
  variables, keys their exponents, weight the total degree.

Inside a series every key is one integer with the weight in its top field:
an exponent tuple (e_0, ..., e_{F-1}) of weight w is packed as
(w << F*s) | e_0 << (F-1)*s | ... | e_{F-1}, with s bits per field (8 for
``Series3`` and ``HoloSeries``, 6 for ``RPoly``; a ``UPoly`` key is its
exponent, already its weight).  Sorting keys sorts by weight, the weight is
a shift, a product of monomials is the sum of their keys and a weight filter
compares integers.  No field carries while the weight is at most the order,
since no exponent exceeds the weight, so each class refuses an order above
the largest its fields hold (``_MAX_ORDER``) with ParseError.  Exponent
tuples appear only at the edges, converted by the class hooks ``_pack`` and
``_unpack``: constructors, ``coeff``, ``terms``, ``c`` and JSON.

Substitution of series into a series (``eval_holo3``, ``eval_holo2``,
``eval_graph``, ``eval_curve``, ``UPoly.compose``) runs through one core over
a table of the arguments' powers; each entry point only checks its arguments
and fixes the order to which its result is sound.  The pipeline has no other
substitution code: composing maps, pushing a map along a curve,
reparametrizing a curve and moving a surface to another base point all go
through this core.  A table (``PowerTable``) holds products of the
arguments' powers for one order, each built only to the weight its reader
needs; each entry point builds a fresh one.  ``GraphTable`` is the one table
for F(x, conj(x), t), with x a graph's ``Series3`` or a curve's ``UPoly``,
and it can be shared by several substitutions into the same arguments at its
order.

The ``UPoly`` inverses and the series equations of ``normalize`` (the
isotropy denominator, the harmonic inversion, the reparametrization) go
through one solver, ``fixed_point``; ``normalize.graph_transform`` instead
solves its image weight by weight, with the near-identity rule below.

Most substitutions the pipeline makes are tangent to the identity: every
argument is x_i + h_i, with x_i the i-th variable of its class and every term
of h_i at least d >= 1 weights above x_i.  Taylor's formula sends a monomial
m of weight w to m + sum_i (dm/dx_i) h_i plus terms with two or more factors
h_i, all of weight >= w + 2d.  To order n the core therefore copies the terms
of weight above n - d, takes one product per argument for the band
n - 2d < w <= n - d, and substitutes only the terms of weight <= n - 2d in
full.  One copy rule covers the case with no band and no rest: an F whose
every term lies above n - d (any F when no argument has an offset) comes
back as it is, at order n.  A graph or curve substitution F(x, conj(x), t)
has a real t, so its table builds half of its powers and products as
conjugates (``GraphTable``); the result stays exact for any F.

Coefficients are exact Gaussian rationals.  Series arithmetic -- sums,
products, scalar multiples, conjugation, truncation, slices and the
substitution core -- runs on plain integers: a term costs integer products
and sums, with no scalar object and no gcd, and each operation removes the
common content of its result with one gcd pass at the end.  The scalar type
``GaussianRational`` (three integers (a, b, d) in lowest terms) is only the
edge type: coefficients passed to a constructor, ``coeff``, ``terms``,
scalar operands, the read-only view ``c`` and JSON.  It has one arithmetic
path, an integer formula per operator reduced once.

This module is the one gate for exact input.  ``exact_scalar`` admits a
``GaussianRational``, ``int`` or ``Fraction`` and refuses anything else with
ParseError; it serves the scalar's constructor, the series constructors,
the series scalar product and the pipeline's scalar parameters.
``_check_order`` admits an order that is an integer from 0 to the largest
the class's keys hold and refuses anything else with ParseError; it serves
every series constructor, ``padded``, ``from_w_series`` and the JSON
readers.  ``_check_key`` admits a constructor key of the class's length
whose exponents are integers >= 0 and refuses anything else with
ParseError.

A series is kept in canonical form: gcd(d, every a, every b) = 1, no (0, 0)
entry, and d = 1 for the zero series.  Every value therefore has one
representation, so equality is a plain comparison of the order, the
denominator and the dict, and a zero test is exact.  All containers are
immutable in practice: every operation returns a new object.
"""

from __future__ import annotations

import re

from fractions import Fraction
from math import gcd, inf, lcm
from operator import mul

from .errors import InternalInvariantError, MathPreconditionError, ParseError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$", re.ASCII)


def _rational_parts(text):
    """The integers (p, q), q > 0, of "p" or "p/q" (reduced or not) or of
    an int; ParseError for anything else."""
    if type(text) is int:
        return text, 1
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ParseError("bad rational literal: %r" % (text,))
    p, _, q = text.partition("/")
    if q and not int(q):
        raise ParseError("zero denominator in rational literal %r" % (text,))
    return int(p), int(q or 1)


def parse_rational(text):
    """Parse "p" or "p/q" (reduced or not) into an exact rational."""
    return Fraction(*_rational_parts(text))


class GaussianRational:
    """Exact complex number  re + i*im  with rational real/imaginary parts.

    The edge type of the package: series store plain integers, and a
    ``GaussianRational`` only carries a coefficient in or out of a series
    (constructors, ``coeff``, ``terms``, ``c``, scalar operands, JSON) or a
    scalar of the pipeline's own.  It is three integers (a, b, d) meaning
    (a + ib)/d, with d > 0 and gcd(a, b, d) = 1, so every value has exactly
    one representation (zero is (0, 0, 1)).  There is one arithmetic path:
    every operator brings its operand through ``_coerce``, evaluates one
    integer formula and reduces it once with ``_reduced``.

    Offers the part of the ``complex`` interface the series code relies on:
    arithmetic, ``conjugate``, ``real``/``imag`` (as ``Fraction``) and
    truthiness.  ``int`` and ``Fraction`` operands mix in freely and compare
    and hash like the equal Gaussian rational.  The parts passed to the
    constructor must be exact real rationals (strings go through ``gr``);
    anything else raises ParseError.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        re, im = exact_scalar(re, "real part"), exact_scalar(im, "imaginary part")
        if re._b or im._b:
            raise ParseError("GaussianRational parts must be real, not %s and %s" % (re, im))
        return _reduced(re._a * im._d, im._a * re._d, re._d * im._d)

    @property
    def real(self):
        return Fraction(self._a, self._d)

    @property
    def imag(self):
        return Fraction(self._b, self._d)

    def conjugate(self):
        return _reduced(self._a, -self._b, self._d)

    def is_real(self):
        return not self._b

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        if not self._b:
            return hash(self.real)
        return hash((self.real, self.imag))

    def __neg__(self):
        return _reduced(-self._a, -self._b, self._d)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self._d, other._d
        return _reduced(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self._d, other._d
        return _reduced(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (ONE / self) ** (-k)
        out = ONE
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


_new = object.__new__


def _reduced(a, b, d):
    """(a + ib)/d in lowest terms, for any d > 0: every scalar is made here."""
    g = gcd(a, b, d)
    x = _new(GaussianRational)
    if g == 1:
        x._a, x._b, x._d = a, b, d
    else:
        x._a, x._b, x._d = a // g, b // g, d // g
    return x


def _coerce(value):
    """A GaussianRational, int or Fraction as a GaussianRational, else
    NotImplemented."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        return _reduced(value, 0, 1)
    if isinstance(value, Fraction):
        return _reduced(value.numerator, 0, value.denominator)
    return NotImplemented


def exact_scalar(value, what="scalar"):
    """``_coerce`` that refuses: value as a GaussianRational, or ParseError
    unless it is a GaussianRational, an int or a Fraction.  Every exact input
    of the package passes here: scalar parts, series coefficients, series
    scalar operands and the pipeline's scalar parameters."""
    v = _coerce(value)
    if v is NotImplemented:
        raise ParseError("%s must be an exact (Gaussian) rational, not %r" % (what, value))
    return v


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


# ---------------------------------------------------------------------------
# the weighted sparse series
# ---------------------------------------------------------------------------


class WeightedSeries:
    """Sparse truncated series over one denominator, kept while weight <= n.

    ``num`` maps each present key to an integer pair (a, b) and ``d`` is a
    positive integer: the coefficient of the key is (a + ib)/d.  The form is
    canonical -- gcd(d, every a, every b) = 1, no (0, 0) entry, d = 1 for the
    zero series -- so equal series have equal n, d and num.  Results are made
    by ``_series`` (already canonical) or ``_reduced_series`` (drops the
    (0, 0) entries and divides out the content).  ``c`` is a read-only view
    {exponents: GaussianRational}, built on each access.

    The constructor takes {exponents: coefficient} with ``GaussianRational``,
    ``int`` or ``Fraction`` coefficients (``exact_scalar``), exponent keys of
    the class's length ``_ARITY`` (``_check_key``) and an order from
    ``_MIN_ORDER`` to ``_MAX_ORDER`` (``_check_order``); else ParseError.

    Keys are packed integers (see the module docstring).  A subclass fixes
    the layout: ``_pack`` and ``_unpack`` convert an exponent tuple to its key
    and back, the weight of a key is ``key >> _SHIFT``, exponent i is
    ``key >> _SHIFTS[i] & _MASK``, and ``_UNITS[i]`` is the key of the i-th
    variable.
    """

    __slots__ = ("n", "d", "num")

    _SHIFT, _UNITS, _MIN_ORDER = 0, (), 0

    @staticmethod
    def _check_substitution(F, args):
        """Hook run by ``_substitute`` before args of this class go into F."""

    def __init__(self, n, coeffs=None):
        _check_order(type(self), n)
        self.n = n
        kept = []
        d = 1
        if coeffs:
            pack, top = self._pack, (n + 1) << self._SHIFT
            for exponents, v in coeffs.items():
                _check_key(type(self), exponents)
                v = exact_scalar(v, "coefficient")
                # a field can only carry for a weight above n <= _MAX_ORDER,
                # and a carry only raises the packed weight
                key = pack(exponents)
                if key < top and v:
                    kept.append((key, v))
                    d = lcm(d, v._d)
        # each coefficient is in lowest terms, so over the least common
        # denominator the series is already canonical
        self.d = d
        self.num = {key: (v._a * (d // v._d), v._b * (d // v._d)) for key, v in kept}

    @property
    def c(self):
        """The coefficients as a dict {exponents: GaussianRational}, built anew."""
        d, unpack = self.d, self._unpack
        return {unpack(key): _reduced(a, b, d) for key, (a, b) in self.num.items()}

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, None)

    @classmethod
    def one(cls, n):
        _check_order(cls, n)
        return _series(cls, n, 1, {0: (1, 0)})

    # -- basics ------------------------------------------------------------------

    def coeff(self, *exponents):
        """Coefficient of the monomial with these exponents (zero if absent)."""
        v = self.num.get(self._pack(exponents[0] if len(exponents) == 1 else exponents))
        return ZERO if v is None else _reduced(v[0], v[1], self.d)

    def is_zero(self):
        return not self.num

    def low_weight(self):
        """Smallest weight of a present monomial, or None if zero."""
        return min(self.num) >> self._SHIFT if self.num else None

    def weight_part(self, w):
        lo, hi = w << self._SHIFT, (w + 1) << self._SHIFT
        return _reduced_series(
            type(self), self.n, self.d, {k: v for k, v in self.num.items() if lo <= k < hi}
        )

    def truncate(self, m):
        if m >= self.n:
            return self
        _check_order(type(self), m)
        return _reduced_series(type(self), m, self.d, dict(_items_to(self, m)))

    def padded(self, m):
        """Reinterpret as exact to weight m (caller vouches: no hidden tail)."""
        _check_order(type(self), m)
        if m < self.n:
            return self.truncate(m)
        return _series(type(self), m, self.d, self.num)

    def terms(self):
        """Deterministic (exponents, coeff) iteration, sorted by exponents."""
        d, num, unpack = self.d, self.num, self._unpack
        for exponents, key in sorted((unpack(key), key) for key in num):
            a, b = num[key]
            yield exponents, _reduced(a, b, d)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.n == other.n and self.d == other.d and self.num == other.num

    def __repr__(self):
        parts = ["%r: %s" % (k, v) for k, v in list(self.terms())[:12]]
        more = "" if len(self.num) <= 12 else ", ... (%d terms)" % len(self.num)
        return "%s(n=%d, {%s%s})" % (type(self).__name__, self.n, ", ".join(parts), more)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        n = min(self.n, other.n)
        return _combine(type(self), n, 1, ((self, 1, 0), (other, 1, 0)))

    def __sub__(self, other):
        return self.__add__(-other)

    def __neg__(self):
        return _series(type(self), self.n, self.d, {k: (-a, -b) for k, (a, b) in self.num.items()})

    def __mul__(self, other):
        cls = type(self)
        if isinstance(other, cls):
            return _times(self, other, min(self.n, other.n))
        v = exact_scalar(other, "%s scalar operand" % cls.__name__)
        a, b = v._a, v._b
        num = {k: (x * a - y * b, x * b + y * a) for k, (x, y) in self.num.items()}
        return _reduced_series(cls, self.n, self.d * v._d, num)

    __rmul__ = __mul__


def _check_order(cls, n):
    """ParseError unless the order n is an integer (not a bool) from
    ``cls._MIN_ORDER`` to ``cls._MAX_ORDER``, the largest its fields hold."""
    if not (is_json_count(n, cls._MIN_ORDER) and n <= cls._MAX_ORDER):
        raise ParseError(
            "%s order must be an integer from %d to %s, the largest its keys hold, not %r"
            % (cls.__name__, cls._MIN_ORDER, cls._MAX_ORDER, n)
        )


def _check_key(cls, exponents):
    """ParseError unless exponents is a key of cls: a tuple of ``cls._ARITY``
    exponents, or one bare exponent when ``_ARITY`` is None (``UPoly``), each
    an integer (not a bool) >= 0."""
    fields = (exponents,) if cls._ARITY is None else exponents
    if type(fields) is tuple and len(fields) == (cls._ARITY or 1):
        for e in fields:
            if type(e) is not int or e < 0:
                break
        else:
            return
    raise ParseError(
        "%s key %r is not %d exponents, each an integer >= 0"
        % (cls.__name__, exponents, cls._ARITY or 1)
    )


def _derivative(series, i):
    """The numerators of d(series)/dx_i over series.d, by key arithmetic:
    each key loses the unit of x_i and its coefficient gains exponent i."""
    unit, shift, mask = series._UNITS[i], series._SHIFTS[i], series._MASK
    return {
        k - unit: (a * e, b * e) for k, (a, b) in series.num.items() if (e := k >> shift & mask)
    }


def _series(cls, n, d, num):
    """The cls series of order n with denominator d and numerators num, taken
    as it is: the caller vouches for the keys and for the canonical form.
    ``num`` is kept, not copied."""
    series = _new(cls)
    series.n = n
    series.d = d
    series.num = num
    return series


def _reduced_series(cls, n, d, num):
    """The cls series num/d of order n in canonical form: the (0, 0) entries
    are dropped from num (in place) and the content gcd(d, every a, every b)
    is divided out, in one pass over the terms."""
    g = d
    zeros = []
    for key, (a, b) in num.items():
        if not (a or b):
            zeros.append(key)
        elif g != 1:
            g = gcd(g, a, b)
    for key in zeros:
        del num[key]
    if not num:
        return _series(cls, n, 1, num)
    if g != 1:
        d //= g
        num = {key: (a // g, b // g) for key, (a, b) in num.items()}
    return _series(cls, n, d, num)


def _items_to(series, w):
    """The (key, (a, b)) entries of series of weight at most w."""
    if w >= series.n:
        return series.num.items()
    top = (w + 1) << series._SHIFT
    return [(k, v) for k, v in series.num.items() if k < top]


def _add_into(num, items, a, b):
    """Add (a + ib) * (x + iy) into num[key] for each entry (key, (x, y)):
    the one summing loop of the series layer."""
    get = num.get
    for key, (x, y) in items:
        re, im = a * x - b * y, a * y + b * x
        old = get(key)
        num[key] = (re, im) if old is None else (old[0] + re, old[1] + im)


def _mul_into(num, x, ys, n):
    """Add the numerators of the product of the series x with the entries ys
    (key, (a, b)) of another series, sorted by key, into num, up to weight n:
    the one product loop of the series layer."""
    shift = x._SHIFT
    top = (n + 1) << shift
    get = num.get
    for k1, (a1, b1) in x.num.items():
        # ys is weight-sorted, and k1 + k2 is within order exactly when
        # k2 < top - (weight(k1) << shift)
        lim = top - (k1 >> shift << shift)
        for k2, (a2, b2) in ys:
            if k2 >= lim:
                break
            key = k1 + k2
            re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            s = get(key)
            num[key] = (re, im) if s is None else (s[0] + re, s[1] + im)


def _times(x, y, n):
    """The product x * y to weight n, through the one product loop; the
    caller vouches that the operands make it sound to n."""
    num = {}
    _mul_into(num, x, sorted(y.num.items()), n)
    return _reduced_series(type(x), n, x.d * y.d, num)


def _combine(cls, n, d, parts):
    """The cls series of order n that is the sum of (a + ib)/d * s over the
    parts (s, a, b), with the terms of s above weight n left out.

    The parts are brought to the least common multiple of their
    denominators, so the sum costs integer products only.
    """
    den = lcm(*(s.d for s, _, _ in parts))
    num = {}
    for s, a, b in parts:
        m = den // s.d
        _add_into(num, _items_to(s, n), a * m, b * m)
    return _reduced_series(cls, n, den * d, num)


def fixed_point(step, start, what):
    """The solution of x = step(x), iterated from start until a pass returns
    x unchanged (a plain comparison, as the form is canonical).  Every step
    solved with it fixes one more weight per pass, so the solution is unique
    and exact; one not settled in start.n + 2 passes raises
    InternalInvariantError.
    """
    x = start
    for _ in range(start.n + 2):
        nxt = step(x)
        if nxt == x:
            return x
        x = nxt
    raise InternalInvariantError("%s did not settle in %d passes" % (what, start.n + 2))


# The subclasses bind __mul__/__rmul__ (and Series3 also __add__) in their own
# namespaces although they are the base's functions: perfbench/tracing.py
# finds the methods it counts through each class's own __dict__, so each
# class's products are counted apart.


# ---------------------------------------------------------------------------
# one-variable series
# ---------------------------------------------------------------------------


class UPoly(WeightedSeries):
    """Truncated one-variable series sum_m c_m t^m, exponents 0..n kept.
    Each inverse below is the ``fixed_point`` of the equation it states."""

    __slots__ = ()

    # the key is the exponent m, which is its weight: no field to overflow
    _ARITY, _MAX_ORDER = None, inf

    @staticmethod
    def _pack(m):
        return m

    _unpack = _pack

    __mul__ = __rmul__ = WeightedSeries.__mul__

    # -- constructors ------------------------------------------------------

    @classmethod
    def var(cls, n):
        return cls(n, {1: ONE})

    # -- basics --------------------------------------------------------------

    def degree(self):
        return max(self.num) if self.num else None

    def is_real(self):
        return not any(b for _, b in self.num.values())

    def conjugate(self):
        return _series(UPoly, self.n, self.d, {m: (a, -b) for m, (a, b) in self.num.items()})

    # ``GraphTable`` conjugates its x by type(x).conj, a curve as a graph
    conj = conjugate

    def real_part(self):
        return (self + self.conjugate()) * HALF

    # -- calculus ------------------------------------------------------------

    def derivative(self):
        num = {m - 1: (a * m, b * m) for m, (a, b) in self.num.items() if m >= 1}
        return _reduced_series(UPoly, max(self.n - 1, 0), self.d, num)

    def integrate(self):
        """Antiderivative vanishing at 0; gains one sound order.  It is
        (a, b) * L/(m + 1) over d * L, with L the lcm of the m + 1."""
        big = lcm(*(m + 1 for m in self.num))
        num = {m + 1: (a * big // (m + 1), b * big // (m + 1)) for m, (a, b) in self.num.items()}
        return _reduced_series(UPoly, self.n + 1, self.d * big, num)

    # -- composition and inverses ---------------------------------------------

    def compose(self, other):
        """self(other(t)) to order n = min(self.n, other.n); requires
        other(0) = 0.  The core substitutes p(z, w) = self(w) at z = 0,
        w = other; a term of self above weight n only makes output above n."""
        if 0 in other.num:
            raise MathPreconditionError("UPoly.compose needs arg(0) = 0")
        n = min(self.n, other.n)
        p = HoloSeries.from_w_series(self, 2 * n)
        return _substitute(p, PowerTable((UPoly.zero(n), other), n))

    def reversion(self):
        """Functional inverse tau with self(tau(t)) = t; needs c0=0, c1 != 0.
        tau = (t - rest(tau)) / c1, where rest = self - c1 t."""
        if self.coeff(0):
            raise MathPreconditionError("reversion needs a series with no constant term")
        a1 = self.coeff(1)
        if not a1:
            raise MathPreconditionError("reversion needs a nonzero linear coefficient")
        inv1 = ONE / a1
        t = UPoly.var(self.n)
        rest = self - t * a1
        return fixed_point(lambda tau: (t - rest.compose(tau)) * inv1, t * inv1, "reversion")

    def inverse(self):
        """Multiplicative inverse b = (1 - (a - a0) b) / a0; needs a0 != 0."""
        a0 = self.coeff(0)
        if not a0:
            raise MathPreconditionError("UPoly.inverse needs a unit constant term")
        inv0 = ONE / a0
        one = UPoly.one(self.n)
        rest = self - one * a0
        return fixed_point(lambda b: (one - rest * b) * inv0, one * inv0, "UPoly.inverse")

    def sqrt(self):
        """The square root s with s(0) = 1 of a series a with constant term
        1: s = s + (a - s^2)/2.

        Any other constant term is refused: its square root is in general
        not a Gaussian rational.
        """
        if self.coeff(0) != ONE:
            raise MathPreconditionError("UPoly.sqrt needs constant term 1")
        return fixed_point(lambda s: s + (self - s * s) * HALF, UPoly.one(self.n), "UPoly.sqrt")

    def exp(self):
        """exp e = 1 + integral(a' e) of a series a with no constant term."""
        if self.coeff(0):
            raise MathPreconditionError("UPoly.exp needs a series with no constant term")
        one = UPoly.one(self.n)
        da = self.derivative()
        return fixed_point(lambda e: one + (da * e).integrate(), one, "UPoly.exp")

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

    # key (j + k + 2l) << 24 | j << 16 | k << 8 | l
    _ARITY, _SHIFT, _SHIFTS, _MASK, _MAX_ORDER = 3, 24, (16, 8, 0), 0xFF, 0xFF
    _UNITS = (1 << 24 | 1 << 16, 1 << 24 | 1 << 8, 2 << 24 | 1)

    @staticmethod
    def _pack(exponents):
        j, k, l = exponents
        return (j + k + 2 * l) << 24 | j << 16 | k << 8 | l

    @staticmethod
    def _unpack(key):
        return key >> 16 & 0xFF, key >> 8 & 0xFF, key & 0xFF

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
        return _reduced_series(Series3, self.n, self.d, dict(_items_to(self, w)))

    def conj(self):
        """The series of conj F(z,zbar,u): swap z/zbar (the j and k fields of
        each key), conjugate coefficients."""
        num = {
            k & ~0xFFFF00 | k >> 8 & 0xFF00 | (k & 0xFF00) << 8: (a, -b)
            for k, (a, b) in self.num.items()
        }
        return _series(Series3, self.n, self.d, num)

    def re_im(self):
        """(Re F, Im F) = ((F + conj F)/2, (F - conj F)/(2i)), both real, in one
        pass that pairs each key with its z/zbar swap.  With F_K = (a + ib)/d
        and F_swap(K) = (c + ie)/d, Re F_K = (a + c + i(b - e))/2d and
        Im F_K = (b + e + i(c - a))/2d, and each series takes the conjugate
        at the swapped key."""
        num, re, im = self.num, {}, {}
        for k, (a, b) in num.items():
            s = k & ~0xFFFF00 | k >> 8 & 0xFF00 | (k & 0xFF00) << 8
            if s in re:
                continue
            c, e = num.get(s, (0, 0))
            re[k], im[k] = (a + c, b - e), (b + e, c - a)
            re[s], im[s] = (a + c, e - b), (b + e, a - c)
        d = 2 * self.d
        return _reduced_series(Series3, self.n, d, re), _reduced_series(Series3, self.n, d, im)

    def is_real(self):
        """Exact Hermitian reality check: F equals its conjugate."""
        return self.conj().num == self.num

    def assert_zero(self, where="series"):
        if not self.is_zero():
            raise InternalInvariantError("%s does not vanish (%d terms left)" % (where, len(self.num)))

    def slice_jk(self, j, k):
        """The u-series F_{j,k}(u), sound to u-order floor((n-j-k)/2)."""
        order = (self.n - j - k) // 2
        if order < 0:
            raise MathPreconditionError(
                "slice (%d,%d) outside truncation order %d" % (j, k, self.n)
            )
        jk = j << 16 | k << 8
        num = {key & 0xFF: v for key, v in self.num.items() if key & 0xFFFF00 == jk}
        return _reduced_series(UPoly, order, self.d, num)

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

    # key (j + 2l) << 16 | j << 8 | l
    _ARITY, _SHIFT, _SHIFTS, _MASK, _MAX_ORDER = 2, 16, (8, 0), 0xFF, 0xFF
    _UNITS = (1 << 16 | 1 << 8, 2 << 16 | 1)

    @staticmethod
    def _pack(exponents):
        j, l = exponents
        return (j + 2 * l) << 16 | j << 8 | l

    @staticmethod
    def _unpack(key):
        return key >> 8 & 0xFF, key & 0xFF

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
        _check_order(cls, n)
        num = {cls._pack((0, m)): v for m, v in p.num.items() if 2 * m <= n}
        return _reduced_series(cls, n, p.d, num)

    def diff(self, name):
        """d/dz or d/dw, by name; the order drops by the variable's weight."""
        i = ("z", "w").index(name)
        return _reduced_series(HoloSeries, max(self.n - 1 - i, 0), self.d, _derivative(self, i))


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def _bounds(zs, ws):
    """The arguments' common order and low weights, as ``_tail_bound`` takes them."""
    return min(zs.n, ws.n), zs.low_weight(), ws.low_weight()


def _tail_bound(F, order, z_low, w_low, polynomial):
    """Weight to which F(zs, ..., ws) is sound, from the arguments' common
    order and low weights (None for a zero argument), as ``_bounds`` gives.

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
    if not polynomial:
        if z_low == 0 or w_low == 0:
            raise MathPreconditionError("substitution argument with a constant term")
        tail = F.n + 1
        if z_low is not None:
            order = min(order, z_low * tail - 1)
        if w_low is not None:
            order = min(order, w_low * ((tail + 1) // 2) - 1)
    return order


class PowerTable:
    """Powers of substitution arguments at one order n, and their products,
    each built on demand only to the weight its reader needs.

    ``power(i, e, m)`` is args[i]**e and ``head(key, m)`` the product of the
    powers that all but the last exponent of a key name (zs^j conj(zs)^k for
    a graph key (j, k, l)); a zero exponent adds no factor, and an all-zero
    head is the series one.  Each is sound at least to weight m, and to the
    full order when m is left out.  An entry is built through the one
    product loop to weight m, capped at the arguments' orders (``caps``: a
    power at its argument's, a head at the smallest of args[0] up to its
    last factor), and kept with m (inf for a full read) in ``pows`` or
    ``heads``: a later read to weight <= m returns it, and one to a higher
    weight rebuilds it, with the powers it is made of.  So an entry read at
    n is exactly the full product, and one read lower is the full one
    truncated.  The zeroth power is one and the first is the argument
    truncated to n, with no product.

    ``lows`` are the arguments' low weights (n + 1 for a zero one).  The low
    weight of a product is read off its exponents, sum_i e_i * low(x_i),
    because the lowest-weight parts of nonzero series multiply to a nonzero
    part.  So a power e is args[i]**(e - 1), read to m - low(x_i), times
    args[i]; and each factor of a head is read to m less the low weights of
    the others.  ``near`` is the arguments' gap d and offsets h_i
    (``_near_identity``), found once per table.  A graph or curve
    substitution uses ``GraphTable``, whose ``_conj`` makes half of the
    powers and heads conjugates.
    """

    __slots__ = ("args", "n", "pows", "heads", "lows", "caps", "near")

    #: the conjugation of the arguments' class when the table mirrors
    #: (see ``GraphTable``), else None
    _conj = None

    def __init__(self, args, n):
        self.args, self.n, self.near = args, n, _near_identity(args, n)
        self.pows = [{0: (type(arg).one(n), inf), 1: (arg.truncate(n), inf)} for arg in args]
        self.heads = {}
        self.lows = [arg.low_weight() if arg.num else n + 1 for arg in args]
        self.caps = [min(n, arg.n) for arg in args]

    def power(self, i, e, m=inf):
        got = self.pows[i].get(e)
        if got is None or got[1] < m:
            got = self.pows[i][e] = (self._power(i, e, m), m)
        return got[0]

    def head(self, key, m=inf):
        got = self.heads.get(key)
        if got is None or got[1] < m:
            got = self.heads[key] = (self._head(key, m), m)
        return got[0]

    def _power(self, i, e, m):
        if self._conj and i == 1:
            return self._conj(self.power(0, e, m))
        return _times(self.power(i, e - 1, m - self.lows[i]), self.args[i], min(m, self.caps[i]))

    def _head(self, key, m):
        if self._conj and key[1] > key[0]:
            return self._conj(self.head(key[::-1], m))
        prod = None
        for i, e in enumerate(key):
            if e:
                b = self.power(i, e, m - sum(map(mul, key, self.lows)) + e * self.lows[i])
                prod = b if prod is None else _times(prod, b, min(m, *self.caps[: i + 1]))
        return self.pows[0][0][0] if prod is None else prod


def _near_identity(args, n):
    """(d, [(i, h_i), ...]) when every args[i] is x_i + h_i, x_i the i-th
    variable (coefficient exactly 1), and every term of h_i is at least
    d >= 1 weights above x_i; the nonzero h_i are listed, and d is n + 1
    when there is none.  (0, []) for any other arguments.

    Each h_i is args[i] without its (den, 0) entry at x_i, which keeps the
    content gcd at 1, so it is canonical with no reduction pass."""
    cls = type(args[0])
    if len(cls._UNITS) != len(args):
        return 0, []
    d, hs = n + 1, []
    for i, (arg, x) in enumerate(zip(args, cls._UNITS)):
        if arg.num.get(x) != (arg.d, 0):
            return 0, []
        h = _series(cls, arg.n, arg.d, {k: v for k, v in arg.num.items() if k != x})
        if h.num:
            d = min(d, h.low_weight() - (x >> cls._SHIFT))
            hs.append((i, h))
    return (d, hs) if d > 0 else (0, [])


def _substitute(F, table):
    """F(args[0], args[1], ...) to the table's order, one argument per key
    exponent.

    The terms of F are grouped by all but their last exponent, so a group
    costs one head product of the table and one product with its inner sum
    sum_l v_l * Q^l over powers of the last argument Q; the group with the
    all-zero head needs no product.  The result has the type of the
    arguments, whose class checks F first (``_check_substitution``).

    A group reads its head and its powers of Q only to the weight they can
    reach the order n at.  The head has low weight w = sum_i e_i * low(x_i),
    from its key (``PowerTable``), and the inner sum low weight
    min(l) * low(Q); a term of either above n less the other's low weight
    only makes output above n.  So the head is read to n - min(l) * low(Q),
    the powers of Q and the inner sum to n - w, and a group with
    w + min(l) * low(Q) > n (a zero argument, say) is skipped.

    When F has the arguments' class and the table's arguments are x_i + h_i
    with every h_i at least d >= 1 weights above x_i (``_near_identity``),
    only the terms of F of weight <= n - 2d are grouped: a term of weight w
    maps to itself plus sum_i (d/dx_i)(term) * h_i, of weight >= w + d, plus
    terms of weight >= w + 2d.  So the terms with n - d < w <= n are copied,
    those with n - 2d < w <= n - d add one product (dF_band/dx_i) * h_i per
    argument, and those above n add nothing.  With d = 0 every term is
    grouped, as a constant-term argument of a complete F needs.  When every
    term of F lies above n - d -- F of any weight when no argument has an
    offset (d = n + 1) -- every term is copied: ``F.padded(n)`` is returned
    after the one pass that sorts the terms, with no summing or reduction
    pass.

    On a mirror table (arguments (x, conj(x), t) with t real) the groups
    (j, k) and (k, j) of F with v_kjl = conj(v_jkl) -- all of them when F is
    real -- cost one product: group (k, j) is then conj(x)^j x^k times
    sum_l conj(v_jkl) t^l, the conjugate of group (j, k).  A group whose
    mirror differs or is absent gets its own product, so a non-real F stays
    exact.

    The result is one accumulator: one numerator dict over a denominator
    den that every part divides.  The kept terms, the band products, the
    zero-head group's inner sum and each head's product with its inner sum
    are added into it in place (``_add_into``, ``_mul_into``); an inner sum
    is built over den / (the head's denominator), so its product lands over
    den unscaled.  The mirrored groups' products go into a second dict,
    which is added once at the end together with its conjugate.
    """
    n, last = table.n, len(table.args) - 1
    cls = type(table.args[0])
    cls._check_substitution(F, table.args)
    conj = table._conj
    d, hs = table.near if type(F) is cls else (0, [])
    shift, unpack, groups, kept, band = F._SHIFT, F._unpack, {}, {}, {}
    for key, v in F.num.items():
        w = key >> shift
        if not d or w <= n - 2 * d:
            exponents = unpack(key)
            groups.setdefault(exponents[:-1], {})[exponents[-1]] = v
        elif w <= n:
            kept[key] = v
            if w <= n - d:
                band[key] = v
    if d and not (groups or band):
        return F.padded(n)
    grads = [(g, h) for i, h in hs if (g := _derivative(_series(cls, n, F.d, band), i))]
    mirrored = set()
    if conj:
        for (j, k), pairs in groups.items():
            if j > k and groups.get((k, j)) == {l: (a, -b) for l, (a, b) in pairs.items()}:
                mirrored.add((j, k))
    for j, k in mirrored:
        del groups[k, j]
    heads = []
    for head, pairs in sorted(groups.items()):
        low, reach = sum(map(mul, head, table.lows)), n - min(pairs) * table.lows[last]
        if low <= reach:
            prod = table.head(head, reach)
            pows = [(table.power(last, l, n - low), a, b) for l, (a, b) in pairs.items()]
            heads.append((head, prod, low, pows, prod.d * F.d * lcm(*(p.d for p, _, _ in pows))))
    den = lcm(F.d, *(F.d * h.d for _, h in grads), *(part[-1] for part in heads))
    acc, mirror = {}, {}
    _add_into(acc, kept.items(), den // F.d, 0)
    for grad, h in grads:
        m = den // (F.d * h.d)
        ys = sorted((k, (a * m, b * m)) for k, (a, b) in h.num.items())
        _mul_into(acc, _series(cls, n, F.d, grad), ys, n)
    for head, prod, low, pows, _ in heads:
        # the inner sum over den / prod.d, straight into acc for the zero head
        inner = {} if any(head) else acc
        scale = den // (prod.d * F.d)
        for p, a, b in pows:
            m = scale // p.d
            _add_into(inner, _items_to(p, n - low), a * m, b * m)
        if any(head) and inner:
            _mul_into(mirror if head in mirrored else acc, prod, sorted(inner.items()), n)
    if mirror:
        _add_into(acc, mirror.items(), 1, 0)
        _add_into(acc, conj(_series(cls, n, den, mirror)).num.items(), 1, 0)
    return _reduced_series(cls, n, den, acc)


def eval_holo3(h, zs, ws, polynomial=False):
    """h(zs, ws) for a holomorphic h; zs and ws are both Series3, both
    HoloSeries (composition of holomorphic maps) or both UPoly (a map pushed
    along a curve t |-> (zs(t), ws(t))), and so is the result.

    Without ``polynomial`` the arguments need low weight >= 1 and the result
    order is clipped to what is sound given h's truncation; ``polynomial``
    declares h complete, lifts the clip and admits constant terms.
    """
    return _substitute(h, PowerTable((zs, ws), _tail_bound(h, *_bounds(zs, ws), polynomial)))


# A name of its own for composition with HoloSeries arguments: normalize.py
# imports it, and perfbench/tracing.py reports calls under each name.
eval_holo2 = eval_holo3


class GraphTable(PowerTable):
    """The table of the arguments (x, conj(x), t) of F(x, conj(x), t) at
    order n: a graph (x and t ``Series3``) or a curve (x a ``UPoly``, t its
    parameter).  ``_conj`` is the conjugation of x's class.

    t must be real, which is checked once, here.  Conjugation is then a ring
    automorphism that fixes t and swaps x with conj(x), so conj(x)^e =
    conj(x^e) and x^k conj(x)^j = conj(x^j conj(x)^k): ``power(1, e)`` and
    ``head((j, k))`` for k > j are built as conjugates of the entries read to
    the same weight, with no series product (``PowerTable._power`` and
    ``_head``).  Conjugation keeps every weight, so the low weights and the
    truncation agree too.

    Calling the table is ``eval_graph(F, x, t)`` with the table's powers, for
    substituting several series F into the same arguments: F(x, conj(x), t)
    must be sound to exactly the table's order, found from the arguments'
    order and low weights kept here.
    """

    __slots__ = ("_conj", "bounds")

    def __init__(self, x, t, n):
        if not t.is_real():
            raise MathPreconditionError("graph substitution needs a real u-argument")
        conj = type(x).conj
        super().__init__((x, conj(x), t), n)
        self._conj = conj
        self.bounds = _bounds(x, t)

    def __call__(self, F):
        n = _tail_bound(F, *self.bounds, False)
        if n != self.n:
            raise InternalInvariantError(
                "graph substitution sound to weight %d through a table of order %d" % (n, self.n)
            )
        return _substitute(F, self)


def eval_graph(F, zs, us, polynomial=False):
    """F(zs, conj(zs), us) for a Series3 F; us must be a real series.

    The second slot always receives the conjugate of the first -- every
    geometric use has that shape -- which keeps reality automatic.
    """
    return _substitute(F, GraphTable(zs, us, _tail_bound(F, *_bounds(zs, us), polynomial)))


def eval_curve(F, phi, polynomial=False):
    """F(phi(t), conj(phi)(t), t) as a one-variable series in t; the order
    rule is ``_tail_bound``'s with t in the u-slot."""
    t = UPoly.var(phi.n)
    return _substitute(F, GraphTable(phi, t, _tail_bound(F, *_bounds(phi, t), polynomial)))


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
    _check_order(cls, n)
    c = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise ParseError("bad coefficient entry in %s: %r" % (where, entry))
        try:
            key = tuple(entry[f] for f in fields)
        except KeyError:
            raise ParseError("entry missing %s in %s: %r" % ("/".join(fields), where, entry))
        _check_key(cls, key)
        weight = cls._pack(key) >> cls._SHIFT
        if weight > n:
            raise ParseError(
                "monomial %r in %s has weight %d above order %d" % (key, where, weight, n)
            )
        if key in c:
            raise ParseError("duplicate monomial %r in %s" % (key, where))
        (a, b), (x, y) = _rational_parts(entry.get("re", 0)), _rational_parts(entry.get("im", 0))
        c[key] = _reduced(a * y, x * b, b * y)
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
    return _terms_from_json(obj.get("coeffs", []), n, Series3, "jkl", "series coeffs")


def holo_to_json(h):
    return _terms_to_json(h, "jl")


def holo_from_json(raw, n, where="map component"):
    return _terms_from_json(raw, n, HoloSeries, "jl", where)
