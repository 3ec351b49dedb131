"""Vector fields and their jet prolongation, on named coordinates.

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
* ``VectorField`` -- one class for every field of the symbolic half:
  sum_v comp[v] d_v, with ``HoloSeries`` components on (z, w) (the sphere's
  isotropy algebra) or ``RPoly`` components on (u, x, y) (its intrinsic
  fields) and on 2-jet space (their prolongations); ``bracket`` is its Lie
  bracket.
* ``total_derivative`` -- the total u-derivative on 2-jet pullbacks.
* ``prolong2`` -- second prolongation of a field on (u, x, y) to the 2-jet
  coordinates, with the third-order slots checked to cancel identically.

Coefficients are exact Gaussian rationals over one denominator, as in every
series.  They are real everywhere except inside
``sphere_isotropy._restrict_to_sphere``, which splits its complex result into
real and imaginary parts.  A polynomial is exact through degree MAX_DEGREE:
a product or ``subs`` that would pass it raises InternalInvariantError
instead of truncating, and a constructor key past it raises ParseError.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul, or_

from .errors import InternalInvariantError, MathPreconditionError, ParseError
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
        raise MathPreconditionError(
            "%s uses variables %s outside %s" % (what, sorted(extra), list(allowed))
        )


class VectorField:
    """The field sum_v comp[v] d_v on the coordinates named by comp's keys.

    Components are ``RPoly`` on jet coordinates (u, x, y) or 2-jet space,
    or ``HoloSeries`` on (z, w), whose ``diff`` takes "z" and "w".  An RPoly
    component may use only the field's own coordinates.
    """

    __slots__ = ("comp",)

    def __init__(self, comp):
        for name, p in comp.items():
            if isinstance(p, RPoly):
                _check_vars(p, comp, "field component " + name)
        self.comp = dict(comp)

    def apply(self, h):
        """Derivative of a function h of the field's coordinates along it."""
        if isinstance(h, RPoly):
            _check_vars(h, self.comp, "function")
        return reduce(add, (p * h.diff(name) for name, p in self.comp.items()))

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.comp == other.comp

    def __repr__(self):
        return "VectorField(%r)" % (self.comp,)


def bracket(v, w):
    """Lie bracket [v, w] of two fields on the same coordinates."""
    if v.comp.keys() != w.comp.keys():
        raise MathPreconditionError(
            "bracket of fields on %s and %s" % (list(v.comp), list(w.comp))
        )
    return VectorField({name: v.apply(w.comp[name]) - w.apply(v.comp[name]) for name in v.comp})


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


def prolong2(field):
    """Second prolongation of a field xi d_u + phi d_x + psi d_y on (u, x, y)
    to 2-jet space (u, x, y, x1, y1, x2, y2).

    The first-prolonged components are
        phi1 = D(phi - xi x1) + xi x2,   psi1 = D(psi - xi y1) + xi y2,
    and the second-prolonged ones
        phi2 = D(D(phi - xi x1)) + xi x3,  psi2 = D(D(psi - xi y1)) + xi y3.
    A field on other coordinates is refused.  The x3/y3 contributions
    cancel identically: phi and xi depend on (u, x, y) only, so the x3 term
    of D(D(phi - xi x1)) is exactly -xi x3 (the same for y), and
    ``VectorField`` would refuse a component left with one.
    """
    if field.comp.keys() != set(BASE_VARS):
        raise MathPreconditionError(
            "prolong2 takes a field on (u, x, y), not on %s" % list(field.comp)
        )
    xi = field.comp["u"]
    comp = dict(field.comp)
    for c in ("x", "y"):
        d1 = total_derivative(comp[c] - xi * RPoly.var(c + "1"))
        comp[c + "1"] = d1 + xi * RPoly.var(c + "2")
        comp[c + "2"] = total_derivative(d1) + xi * RPoly.var(c + "3")
    return VectorField(comp)
