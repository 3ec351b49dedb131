"""The distinguished 2-jet locus cut out by the sphere's isotropy algebra.

Prolonging the five intrinsic isotropy fields of the model sphere to 2-jet
space and evaluating on the jet fiber over the origin gives a 5x4 matrix
(columns: the d_{x1}, d_{y1}, d_{x2}, d_{y2} components).  Its rank drops
from 4 to 2 exactly on the surface

    Sigma0:  x2 = -2 x1^2 y1 - 2 y1^3,      y2 = 2 x1 y1^2 + 2 x1^3,

equivalently  z2 = 2i z1^2 conj(z1)  with z1 = x1 + iy1, z2 = x2 + iy2 --
the 2-jets of chains of the sphere through the origin.
"""

from __future__ import annotations

import functools

from fractions import Fraction

from .lie_jets import RPoly, prolong2
from .linalg import rank
from .sphere_isotropy import FIELD_NAMES, intrinsic_fields

_FIBER_ORIGIN = {"u": 0, "x": 0, "y": 0}

JET_COLUMNS = ("x1", "y1", "x2", "y2")


def prolonged_fields():
    """Second prolongations of the five intrinsic isotropy fields."""
    return {nm: prolong2(f) for nm, f in intrinsic_fields().items()}


def second_prolongation_table():
    """(phi1, psi1, phi2, psi2) of each field on the jet fiber over the origin."""
    table = {}
    for nm, jf in prolonged_fields().items():
        table[nm] = tuple(jf.comp[c].subs(_FIBER_ORIGIN) for c in JET_COLUMNS)
    return table


@functools.cache
def orbit_matrix():
    """The 5x4 matrix of jet components over the origin, rows in FIELD_NAMES order.

    Entries are polynomials in (x1, y1, x2, y2).  The matrix never changes,
    so it is built once and shared, as a tuple of row tuples.
    """
    table = second_prolongation_table()
    return tuple(table[nm] for nm in FIELD_NAMES)


def sigma0_jet(x1, y1):
    """The unique isotropy-degenerate (x2, y2) over a given 1-jet."""
    x1 = Fraction(x1) if isinstance(x1, int) else x1
    y1 = Fraction(y1) if isinstance(y1, int) else y1
    return (
        -2 * x1 * x1 * y1 - 2 * y1 * y1 * y1,
        2 * x1 * y1 * y1 + 2 * x1 * x1 * x1,
    )


def sigma0_symbolic():
    """Sigma0 right-hand sides as polynomials in (x1, y1)."""
    return sigma0_jet(RPoly.var("x1"), RPoly.var("y1"))


def offset_matrix():
    """Orbit matrix with (x2, y2) replaced by the Sigma0 point plus (a2, b2)."""
    s1, s2 = sigma0_symbolic()
    shift = {
        "x2": s1 + RPoly.var("a2"),
        "y2": s2 + RPoly.var("b2"),
    }
    return [[entry.subs(shift) for entry in row] for row in orbit_matrix()]


def symbolic_pivot():
    """Row-reduce the offset matrix by hand-checkable row operations.

    The inversion row vanishes identically on the fiber (the matrix is
    fixed data, and a test pins that row) and is dropped; then
    with rows (d, r, p1, p2) = (dilation, rotation, parabolic1, parabolic2),

        d' = d + x1 p1 + y1 p2,      r' = r + y1 p1 - x1 p2

    eliminates every entry of the first two rows except pure (a2, b2) terms.
    Returns the reduced 4x4 matrix [d', r', p1, p2].
    """
    m = offset_matrix()
    d, r, p1, p2 = (
        m[FIELD_NAMES.index(nm)]
        for nm in ("dilation", "rotation", "parabolic1", "parabolic2")
    )
    x1 = RPoly.var("x1")
    y1 = RPoly.var("y1")
    d_new = [a + x1 * b + y1 * c for a, b, c in zip(d, p1, p2)]
    r_new = [a + y1 * b - x1 * c for a, b, c in zip(r, p1, p2)]
    return [d_new, r_new, p1, p2]


def rank_at(x1, y1, x2, y2):
    """Exact rank of the orbit matrix at a rational jet (x1, y1, x2, y2)."""
    point = {"x1": x1, "y1": y1, "x2": x2, "y2": y2}
    numeric = [[e.evaluate(point) for e in row] for row in orbit_matrix()]
    return rank(numeric)


def is_chain_jet(x1, y1, x2, y2):
    """True iff (x2, y2) is the Sigma0 completion of (x1, y1)."""
    s1, s2 = sigma0_jet(x1, y1)
    return x2 == s1 and y2 == s2
