"""Jet prolongation calculus for vector fields on graph coordinates.

A hypersurface in graph form carries intrinsic coordinates (u, x, y) with
z = x + iy; curves transversal to the complex tangent are graphs
(x(u), y(u)), and their 2-jet coordinates are (x1, y1, x2, y2).  This module
implements, over exact rational coefficients:

* ``RPoly`` -- sparse polynomials in the fixed variable list
  (u, x, y, x1, y1, x2, y2, x3, y3, a2, b2); the third-order jet slots exist
  only as scratch space for the total derivative (they must cancel from any
  second prolongation), and (a2, b2) are offset parameters used by the
  jet-locus analysis.
* ``IntrinsicField`` -- xi d_u + phi d_x + psi d_y with coefficients in
  (u, x, y) only.
* ``total_derivative`` -- the total u-derivative on 2-jet pullbacks.
* ``prolong2`` -- second prolongation of an intrinsic field to the 2-jet
  coordinates, with the third-order slots checked to cancel identically.
* brackets of intrinsic fields and of prolonged fields.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInvariantError

VAR_NAMES = ("u", "x", "y", "x1", "y1", "x2", "y2", "x3", "y3", "a2", "b2")
VAR_INDEX = {name: i for i, name in enumerate(VAR_NAMES)}
NVARS = len(VAR_NAMES)

BASE_VARS = ("u", "x", "y")
JET2_VARS = ("u", "x", "y", "x1", "y1", "x2", "y2")

#: guard against runaway symbolic computations
MAX_DEGREE = 48

_ZERO_KEY = (0,) * NVARS


def _as_rat(v):
    if isinstance(v, float):
        raise InternalInvariantError("RPoly coefficients must be exact rationals")
    return Fraction(v) if isinstance(v, int) else v


class RPoly:
    """Sparse polynomial over the rationals in the fixed jet variables."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for key, v in coeffs.items():
                if len(key) != NVARS or any(e < 0 for e in key):
                    raise InternalInvariantError("bad RPoly exponent key %r" % (key,))
                if v:
                    c[key] = v
        self.c = c

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, v):
        v = _as_rat(v)
        return cls({_ZERO_KEY: v} if v else None)

    @classmethod
    def var(cls, name, power=1):
        key = [0] * NVARS
        key[VAR_INDEX[name]] = power
        return cls({tuple(key): Fraction(1)})

    # -- basics ----------------------------------------------------------------

    def is_zero(self):
        return not self.c

    def constant_term(self):
        return self.c.get(_ZERO_KEY, Fraction(0))

    def uses_var(self, name):
        i = VAR_INDEX[name]
        return any(key[i] for key in self.c)

    def vars_used(self):
        used = set()
        for key in self.c:
            for i, e in enumerate(key):
                if e:
                    used.add(VAR_NAMES[i])
        return used

    def __eq__(self, other):
        if not isinstance(other, RPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __repr__(self):
        if not self.c:
            return "RPoly(0)"
        parts = []
        for key in sorted(self.c, key=lambda k: (sum(k), k)):
            v = self.c[key]
            mono = "*".join(
                "%s%s" % (VAR_NAMES[i], "" if e == 1 else "^%d" % e)
                for i, e in enumerate(key)
                if e
            )
            parts.append("%s%s" % (v, ("*" + mono) if mono else ""))
        return "RPoly(%s)" % " + ".join(parts)

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RPoly):
            c = dict(self.c)
            for key, v in other.c.items():
                s = c.get(key, Fraction(0)) + v
                if s:
                    c[key] = s
                elif key in c:
                    del c[key]
            return RPoly(c)
        return self + RPoly.const(other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RPoly):
            return self + (-other)
        return self + RPoly.const(-_as_rat(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RPoly({k: -v for k, v in self.c.items()})

    def __mul__(self, other):
        if isinstance(other, RPoly):
            c = {}
            for k1, v1 in self.c.items():
                for k2, v2 in other.c.items():
                    key = tuple(a + b for a, b in zip(k1, k2))
                    if sum(key) > MAX_DEGREE:
                        raise InternalInvariantError(
                            "polynomial degree blew past %d" % MAX_DEGREE
                        )
                    s = c.get(key, Fraction(0)) + v1 * v2
                    if s:
                        c[key] = s
                    elif key in c:
                        del c[key]
            return RPoly(c)
        v = _as_rat(other)
        if not v:
            return RPoly()
        return RPoly({k: w * v for k, w in self.c.items()})

    __rmul__ = __mul__

    # -- calculus -------------------------------------------------------------------

    def diff(self, name):
        i = VAR_INDEX[name]
        c = {}
        for key, v in self.c.items():
            e = key[i]
            if e:
                nk = key[:i] + (e - 1,) + key[i + 1 :]
                c[nk] = c.get(nk, Fraction(0)) + v * e
        return RPoly(c)

    def subs(self, mapping):
        """Substitute variables by rationals or RPolys; returns an RPoly."""
        vals = {}
        for name, v in mapping.items():
            vals[VAR_INDEX[name]] = v if isinstance(v, RPoly) else RPoly.const(v)
        out = RPoly()
        pow_cache = {}
        for key, coeff in self.c.items():
            term = RPoly.const(coeff)
            for i, e in enumerate(key):
                if not e:
                    continue
                if i in vals:
                    pw = pow_cache.get((i, e))
                    if pw is None:
                        pw = vals[i]
                        for _ in range(e - 1):
                            pw = pw * vals[i]
                        pow_cache[(i, e)] = pw
                    term = term * pw
                else:
                    term = term * RPoly.var(VAR_NAMES[i], e)
            out = out + term
        return out

    def evaluate(self, point):
        """Evaluate at a full point {name: rational}; missing names are 0."""
        total = Fraction(0)
        vals = [_as_rat(point.get(name, 0)) for name in VAR_NAMES]
        for key, coeff in self.c.items():
            term = coeff
            for i, e in enumerate(key):
                if e:
                    term = term * vals[i] ** e
            total = total + term
        return total


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
