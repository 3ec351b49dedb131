"""Jet prolongation calculus for vector fields on graph coordinates.

A hypersurface in graph form carries intrinsic coordinates (u, x, y) with
z = x + iy; curves transversal to the complex tangent are graphs
(x(u), y(u)), and their 2-jet coordinates are (x1, y1, x2, y2).  This module
implements:

* ``RPoly`` -- sparse polynomials in the fixed variable list
  (u, x, y, x1, y1, x2, y2, x3, y3, a2, b2), the total-degree weighting of
  the shared ``series_core.WeightedSeries``; the third-order jet slots exist
  only as scratch space for the total derivative (they must cancel from any
  second prolongation), and (a2, b2) are offset parameters used by the
  jet-locus analysis.
* ``IntrinsicField`` -- xi d_u + phi d_x + psi d_y with coefficients in
  (u, x, y) only.
* ``total_derivative`` -- the total u-derivative on 2-jet pullbacks.
* ``prolong2`` -- second prolongation of an intrinsic field to the 2-jet
  coordinates, with the third-order slots checked to cancel identically.
* brackets of intrinsic fields and of prolonged fields.

Coefficients are exact Gaussian rationals over one denominator, as in every
series.  They are real everywhere except inside
``sphere_isotropy._restrict_to_sphere``, which splits its complex result into
real and imaginary parts.  A polynomial is exact through degree MAX_DEGREE:
a product or ``subs`` that would pass it raises InternalInvariantError
instead of truncating, and a constructor key past it raises ParseError.
"""

from __future__ import annotations

from functools import reduce
from operator import mul, or_

from .errors import InternalInvariantError, ParseError
from .series_core import PowerTable, WeightedSeries, _derivative, _reduced_series, _substitute

VAR_NAMES = ("u", "x", "y", "x1", "y1", "x2", "y2", "x3", "y3", "a2", "b2")
VAR_INDEX = {name: i for i, name in enumerate(VAR_NAMES)}
NVARS = len(VAR_NAMES)

BASE_VARS = ("u", "x", "y")
JET2_VARS = ("u", "x", "y", "x1", "y1", "x2", "y2")

#: guard against runaway symbolic computations
MAX_DEGREE = 48

_ZERO_KEY = (0,) * NVARS

#: bits per exponent field of a packed RPoly key; 6 hold MAX_DEGREE
_BITS = 6


class RPoly(WeightedSeries):
    """Sparse polynomial in the jet variables VAR_NAMES.

    A ``WeightedSeries`` whose keys are the 11 exponents, weighted by total
    degree and always carried at order MAX_DEGREE: sums, products, negation,
    equality and printing are the shared class's, and ``subs`` runs through
    the shared substitution core.  The order would truncate silently, so a
    product or a substitution (``subs``, or ``eval_holo3`` on RPoly
    arguments) whose exact result passes MAX_DEGREE raises
    InternalInvariantError instead, and the constructor refuses a key of
    degree above MAX_DEGREE with ParseError, as ``one``, ``padded`` and
    ``truncate`` refuse any order but MAX_DEGREE (``_MIN_ORDER``).
    """

    __slots__ = ()

    # key (total degree) << 66 | e_0 << 60 | ... | e_10
    _ARITY = NVARS
    _SHIFT = _BITS * NVARS
    _SHIFTS = tuple(_BITS * (NVARS - 1 - i) for i in range(NVARS))
    _MASK = (1 << _BITS) - 1
    _MIN_ORDER = _MAX_ORDER = MAX_DEGREE
    _UNITS = tuple(1 << _BITS * NVARS | 1 << s for s in _SHIFTS)

    @staticmethod
    def _pack(exponents):
        key = sum(exponents)
        for e in exponents:
            key = key << _BITS | e
        return key

    @staticmethod
    def _unpack(key):
        return tuple(key >> s & RPoly._MASK for s in RPoly._SHIFTS)

    def __init__(self, coeffs=None):
        # the shared constructor checks each key and drops a term past the
        # order; here a term past MAX_DEGREE is refused instead
        super().__init__(MAX_DEGREE, coeffs)
        if coeffs and max(map(sum, coeffs)) > MAX_DEGREE:
            raise ParseError("RPoly key of degree above %d in %r" % (MAX_DEGREE, sorted(coeffs)))

    # -- constructors (the order is always MAX_DEGREE)

    @classmethod
    def zero(cls):
        return cls()

    @staticmethod
    def _check_substitution(F, args):
        """The shared core builds inner sums only to the order, so no product
        sees a term past MAX_DEGREE: each term's degree sum e_i * deg(arg_i)
        is checked first, for ``subs`` and ``eval_holo3`` alike."""
        degs = [arg.degree() for arg in args]
        if any(sum(map(mul, F._unpack(key), degs)) > MAX_DEGREE for key in F.num):
            raise InternalInvariantError("polynomial degree blew past %d" % MAX_DEGREE)

    @classmethod
    def const(cls, v):
        return cls({_ZERO_KEY: v})

    @classmethod
    def var(cls, name, power=1):
        key = [0] * NVARS
        key[VAR_INDEX[name]] = power
        return cls({tuple(key): 1})

    # -- basics ----------------------------------------------------------------

    def degree(self):
        """Total degree; 0 for the zero polynomial."""
        return max(self.num, default=0) >> self._SHIFT

    def constant_term(self):
        return self.coeff(_ZERO_KEY)

    def uses_var(self, name):
        # the fields do not overlap, so a field of the keys' OR is nonzero
        # exactly when some key's field is
        return bool(reduce(or_, self.num, 0) >> self._SHIFTS[VAR_INDEX[name]] & self._MASK)

    def vars_used(self):
        used = reduce(or_, self.num, 0)
        return {name for name, s in zip(VAR_NAMES, self._SHIFTS) if used >> s & self._MASK}

    # -- arithmetic: rational operands and the degree guard --------------------

    def __add__(self, other):
        if not isinstance(other, RPoly):
            other = RPoly.const(other)
        return WeightedSeries.__add__(self, other)

    __radd__ = __add__

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, RPoly) and self.degree() + other.degree() > MAX_DEGREE:
            raise InternalInvariantError("polynomial degree blew past %d" % MAX_DEGREE)
        return WeightedSeries.__mul__(self, other)

    __rmul__ = __mul__

    # -- calculus -------------------------------------------------------------------

    def diff(self, name):
        return _reduced_series(RPoly, MAX_DEGREE, self.d, _derivative(self, VAR_INDEX[name]))

    def subs(self, mapping):
        """Substitute variables by rationals or RPolys; returns an RPoly.

        A variable left out of the mapping stands for itself.
        """
        args = list(_VARS)
        for name, v in mapping.items():
            args[VAR_INDEX[name]] = v if isinstance(v, RPoly) else RPoly.const(v)
        return _substitute(self, PowerTable(args, MAX_DEGREE))

    def evaluate(self, point):
        """Evaluate at a point {name: rational}; missing names are 0."""
        return self.subs(point).constant_term()


#: the variables themselves, the arguments ``subs`` leaves in place
_VARS = tuple(RPoly.var(name) for name in VAR_NAMES)


def _check_vars(p, allowed, what):
    extra = p.vars_used() - set(allowed)
    if extra:
        raise InternalInvariantError(
            "%s uses variables %s outside %s" % (what, sorted(extra), allowed)
        )


class IntrinsicField:
    """xi d_u + phi d_x + psi d_y with polynomial coefficients in (u, x, y)."""

    __slots__ = ("xi", "phi", "psi")

    def __init__(self, xi, phi, psi):
        for p, nm in ((xi, "xi"), (phi, "phi"), (psi, "psi")):
            _check_vars(p, BASE_VARS, "intrinsic field component " + nm)
        self.xi = xi
        self.phi = phi
        self.psi = psi

    def apply(self, h):
        """Derivative of a function h(u, x, y) along the field."""
        return self.xi * h.diff("u") + self.phi * h.diff("x") + self.psi * h.diff("y")

    def __eq__(self, other):
        if not isinstance(other, IntrinsicField):
            return NotImplemented
        return self.xi == other.xi and self.phi == other.phi and self.psi == other.psi

    def __repr__(self):
        return "IntrinsicField(xi=%r, phi=%r, psi=%r)" % (self.xi, self.phi, self.psi)


def bracket_intrinsic(a, b):
    """Lie bracket [a, b] of two intrinsic fields."""
    return IntrinsicField(
        a.apply(b.xi) - b.apply(a.xi),
        a.apply(b.phi) - b.apply(a.phi),
        a.apply(b.psi) - b.apply(a.psi),
    )


def total_derivative(p):
    """Total u-derivative along graphs (x(u), y(u)), on jet pullbacks.

    D = d_u + x1 d_x + y1 d_y + x2 d_{x1} + y2 d_{y1} + x3 d_{x2} + y3 d_{y2}.
    """
    out = p.diff("u")
    for fr, to in (("x", "x1"), ("y", "y1"), ("x1", "x2"), ("y1", "y2"),
                   ("x2", "x3"), ("y2", "y3")):
        d = p.diff(fr)
        if not d.is_zero():
            out = out + RPoly.var(to) * d
    return out


class JetField2:
    """A vector field on 2-jet space (u, x, y, x1, y1, x2, y2)."""

    __slots__ = ("comp",)

    def __init__(self, comp):
        self.comp = {}
        for name in JET2_VARS:
            p = comp.get(name, RPoly.zero())
            _check_vars(p, JET2_VARS, "jet field component " + name)
            self.comp[name] = p

    def apply(self, h):
        _check_vars(h, JET2_VARS, "jet function")
        out = RPoly.zero()
        for name, p in self.comp.items():
            d = h.diff(name)
            if not d.is_zero():
                out = out + p * d
        return out

    def __eq__(self, other):
        if not isinstance(other, JetField2):
            return NotImplemented
        return self.comp == other.comp

    def __repr__(self):
        return "JetField2(%r)" % (self.comp,)


def prolong2(field):
    """Second prolongation of an intrinsic field to 2-jet space.

    The first-prolonged components are
        phi1 = D(phi - xi x1) + xi x2,   psi1 = D(psi - xi y1) + xi y2,
    and the second-prolonged ones
        phi2 = D(D(phi - xi x1)) + xi x3,  psi2 = D(D(psi - xi y1)) + xi y3.
    The x3/y3 contributions must cancel identically; if they do not, the
    input was not an intrinsic field and we refuse to continue.
    """
    x1 = RPoly.var("x1")
    y1 = RPoly.var("y1")
    x2 = RPoly.var("x2")
    y2 = RPoly.var("y2")
    x3 = RPoly.var("x3")
    y3 = RPoly.var("y3")

    char_x = field.phi - field.xi * x1
    char_y = field.psi - field.xi * y1

    phi1 = total_derivative(char_x) + field.xi * x2
    psi1 = total_derivative(char_y) + field.xi * y2
    phi2 = total_derivative(total_derivative(char_x)) + field.xi * x3
    psi2 = total_derivative(total_derivative(char_y)) + field.xi * y3

    for p, nm in ((phi1, "phi1"), (psi1, "psi1"), (phi2, "phi2"), (psi2, "psi2")):
        if p.uses_var("x3") or p.uses_var("y3"):
            raise InternalInvariantError(
                "third-order jet variables failed to cancel in %s" % nm
            )

    return JetField2(
        {
            "u": field.xi,
            "x": field.phi,
            "y": field.psi,
            "x1": phi1,
            "y1": psi1,
            "x2": phi2,
            "y2": psi2,
        }
    )


def bracket_jet(v, w):
    """Lie bracket of two fields on 2-jet space."""
    comp = {}
    for name in JET2_VARS:
        comp[name] = v.apply(w.comp[name]) - w.apply(v.comp[name])
    return JetField2(comp)
