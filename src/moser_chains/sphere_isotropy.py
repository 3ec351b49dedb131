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

This module computes their brackets, checks tangency to the sphere, and
pushes them down to intrinsic fields in the graph coordinates (u, x, y)
(z = x + iy) via  2 Re X  |->  Re(a) d_x + Im(a) d_y + Re(b) d_u  evaluated
along w = u + i(x^2 + y^2).
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .lie_jets import IntrinsicField, RPoly
from .linalg import solve
from .series_core import I_UNIT, HoloSeries, eval_holo3, gr

#: polynomial degree bound comfortably holding every field and bracket here
FIELD_ORDER = 8

FIELD_NAMES = ("dilation", "rotation", "parabolic1", "parabolic2", "inversion")


class ExtrinsicField:
    """Holomorphic polynomial field a(z,w) d_z + b(z,w) d_w."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def apply(self, h):
        """Derivative of a holomorphic h(z, w) along the field."""
        return self.a * h.diff_z() + self.b * h.diff_w()

    def __eq__(self, other):
        if not isinstance(other, ExtrinsicField):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __repr__(self):
        return "ExtrinsicField(a=%r, b=%r)" % (self.a, self.b)


def standard_fields(n=FIELD_ORDER):
    """The five basis fields of the sphere's isotropy algebra."""
    i = gr(0, 1)
    z = HoloSeries.z_var(n)
    w = HoloSeries.w_var(n)
    z2 = z * z
    zw = z * w
    return {
        "dilation": ExtrinsicField(z, w * gr(2)),
        "rotation": ExtrinsicField(z * i, HoloSeries.zero(n)),
        "parabolic1": ExtrinsicField(w + z2 * gr(0, 2), zw * gr(0, 2)),
        "parabolic2": ExtrinsicField(w * i + z2 * gr(2), zw * gr(2)),
        "inversion": ExtrinsicField(zw, w * w),
    }


def bracket_ext(X, Y):
    """Lie bracket [X, Y] of two extrinsic fields."""
    return ExtrinsicField(
        X.apply(Y.a) - Y.apply(X.a),
        X.apply(Y.b) - Y.apply(X.b),
    )


def expand_in_basis(field, basis):
    """Write an extrinsic field as a real-linear combination of basis fields.

    Returns {name: rational}; raises if the field is not in the real span.
    """
    names = list(basis)
    keys = set()
    for f in (*basis.values(), field):
        keys.update(f.a.c, f.b.c)
    rows = []
    rhs = []
    for which in ("a", "b"):
        for key in sorted(keys):
            row_re, row_im = [], []
            for nm in names:
                v = getattr(basis[nm], which).coeff(key)
                row_re.append(v.real)
                row_im.append(v.imag)
            t = getattr(field, which).coeff(key)
            rows.append(row_re)
            rhs.append(t.real)
            rows.append(row_im)
            rhs.append(t.imag)
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
            coeffs = expand_in_basis(bracket_ext(fields[nm1], fields[nm2]), fields)
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


def tangency_residual(field):
    """Defect of tangency to v = x^2 + y^2 (zero iff the field is tangent).

    The real field 2 Re X has (d_x, d_y, d_u, d_v) components
    (Re a, Im a, Re b, Im b) on the sphere; tangency demands
    Im b = 2x Re a + 2y Im a there.
    """
    a_re, a_im = _restrict_to_sphere(field.a)
    _, b_im = _restrict_to_sphere(field.b)
    x = RPoly.var("x")
    y = RPoly.var("y")
    return b_im - 2 * x * a_re - 2 * y * a_im


def intrinsic_pushforward(field):
    """Push 2 Re X down to graph coordinates (u, x, y).

    Requires the field to be tangent to the sphere (checked); the result is
    Re(b) d_u + Re(a) d_x + Im(a) d_y with all components restricted to the
    sphere.
    """
    if not tangency_residual(field).is_zero():
        raise InternalInvariantError("cannot push forward a non-tangent field")
    a_re, a_im = _restrict_to_sphere(field.a)
    b_re, _ = _restrict_to_sphere(field.b)
    return IntrinsicField(b_re, a_re, a_im)


def intrinsic_fields():
    """The five pushed-forward basis fields, keyed like standard_fields."""
    fields = standard_fields()
    return {nm: intrinsic_pushforward(fields[nm]) for nm in FIELD_NAMES}
