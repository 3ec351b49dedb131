"""The isotropy algebra of the model sphere v = z zbar.

The model hypersurface ("Heisenberg sphere") is the graph v = z zbar in
coordinates (z, w = u + iv).  Its infinitesimal CR automorphisms fixing the
origin form a five-dimensional real Lie algebra spanned by holomorphic
polynomial fields a(z, w) d_z + b(z, w) d_w:

=============  =====================  ==================
key            a(z, w)                b(z, w)
=============  =====================  ==================
dilation       z                      2 w
rotation       i z                    0
parabolic1     w + 2i z^2             2i z w
parabolic2     i w + 2 z^2            2 z w
inversion      z w                    w^2
=============  =====================  ==================

Each is one ``lie_jets.VectorField`` on (z, w), components {"z": a, "w": b},
and ``lie_jets.bracket`` gives their brackets.  This module expands brackets
in the basis, checks tangency to the sphere, and pushes the fields down to
fields on the graph coordinates (u, x, y) (z = x + iy) via
2 Re X  |->  Re(b) d_u + Re(a) d_x + Im(a) d_y  evaluated along
w = u + i(x^2 + y^2).
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .lie_jets import RPoly, VectorField, bracket
from .linalg import solve
from .series_core import I_UNIT, HoloSeries, eval_holo3, gr

#: polynomial degree bound comfortably holding every field and bracket here
FIELD_ORDER = 8

FIELD_NAMES = ("dilation", "rotation", "parabolic1", "parabolic2", "inversion")


def standard_fields(n=FIELD_ORDER):
    """The five basis fields of the sphere's isotropy algebra, on (z, w)."""
    i = gr(0, 1)
    z = HoloSeries.z_var(n)
    w = HoloSeries.w_var(n)
    z2 = z * z
    zw = z * w
    pairs = {
        "dilation": (z, w * gr(2)),
        "rotation": (z * i, HoloSeries.zero(n)),
        "parabolic1": (w + z2 * gr(0, 2), zw * gr(0, 2)),
        "parabolic2": (w * i + z2 * gr(2), zw * gr(2)),
        "inversion": (zw, w * w),
    }
    return {nm: VectorField({"z": a, "w": b}) for nm, (a, b) in pairs.items()}


def expand_in_basis(field, basis):
    """Write a field on (z, w) as a real-linear combination of basis fields.

    Returns {name: rational}; raises if the field is not in the real span.
    """
    names = list(basis)
    keys = sorted({k for f in (*basis.values(), field) for p in f.comp.values() for k in p.c})
    rows, rhs = [], []
    for which, p in field.comp.items():
        for key in keys:
            vals = [basis[nm].comp[which].coeff(key) for nm in names]
            t = p.coeff(key)
            rows += [[v.real for v in vals], [v.imag for v in vals]]
            rhs += [t.real, t.imag]
    sol = solve(rows, rhs)
    if sol is None:
        raise InternalInvariantError("field is not in the span of the basis")
    return dict(zip(names, sol))


def commutator_table(n=FIELD_ORDER):
    """All pairwise brackets expanded in the standard basis.

    Returns {(name1, name2): {name: coefficient}} for name1 < name2 in the
    order of FIELD_NAMES, with zero coefficients dropped.
    """
    fields = standard_fields(n)
    table = {}
    for idx, nm1 in enumerate(FIELD_NAMES):
        for nm2 in FIELD_NAMES[idx + 1 :]:
            coeffs = expand_in_basis(bracket(fields[nm1], fields[nm2]), fields)
            table[(nm1, nm2)] = {nm: v for nm, v in coeffs.items() if v}
    return table


# ---------------------------------------------------------------------------
# restriction to the sphere and intrinsic pushforward
# ---------------------------------------------------------------------------


def _restrict_to_sphere(h):
    """h(x + iy, u + i(x^2+y^2)) as an (re, im) RPoly pair in (u, x, y): one
    substitution on complex RPolys, split coefficientwise."""
    x, y, u = RPoly.var("x"), RPoly.var("y"), RPoly.var("u")
    c = eval_holo3(h, x + y * I_UNIT, u + (x * x + y * y) * I_UNIT, polynomial=True).c
    return RPoly({k: v.real for k, v in c.items()}), RPoly({k: v.imag for k, v in c.items()})


def _on_sphere(field):
    """Re a, Im a and Re b of X = a d_z + b d_w restricted to the sphere, and
    the tangency defect Im b - 2x Re a - 2y Im a there; each component is
    restricted once."""
    a_re, a_im = _restrict_to_sphere(field.comp["z"])
    b_re, b_im = _restrict_to_sphere(field.comp["w"])
    x = RPoly.var("x")
    y = RPoly.var("y")
    return a_re, a_im, b_re, b_im - 2 * x * a_re - 2 * y * a_im


def tangency_residual(field):
    """Defect of tangency to v = x^2 + y^2 (zero iff the field is tangent).

    For X = a d_z + b d_w, the real field 2 Re X has (d_x, d_y, d_u, d_v)
    components (Re a, Im a, Re b, Im b) on the sphere; tangency demands
    Im b = 2x Re a + 2y Im a there.
    """
    return _on_sphere(field)[3]


def intrinsic_pushforward(field):
    """Push 2 Re X down to graph coordinates (u, x, y).

    Requires the field to be tangent to the sphere (checked); the result is
    Re(b) d_u + Re(a) d_x + Im(a) d_y with all components restricted to the
    sphere.
    """
    a_re, a_im, b_re, defect = _on_sphere(field)
    if not defect.is_zero():
        raise InternalInvariantError("cannot push forward a non-tangent field")
    return VectorField({"u": b_re, "x": a_re, "y": a_im})


def intrinsic_fields():
    """The five pushed-forward basis fields, keyed like standard_fields."""
    fields = standard_fields()
    return {nm: intrinsic_pushforward(fields[nm]) for nm in FIELD_NAMES}
