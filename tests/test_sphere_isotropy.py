"""Isotropy algebra of the model sphere: brackets, tangency, pushforwards."""

import pytest

from moser_chains.errors import InternalInvariantError
from moser_chains.lie_jets import RPoly, VectorField, bracket
from moser_chains.linalg import rank
from moser_chains.normalize import _operator_columns, core_expression
from moser_chains.series_core import HoloSeries, gr
from moser_chains.sphere_isotropy import (
    FIELD_NAMES,
    commutator_table,
    expand_in_basis,
    intrinsic_fields,
    intrinsic_pushforward,
    standard_fields,
    tangency_residual,
)


def V(name):
    return RPoly.var(name)


# frozen structure constants of the isotropy algebra
EXPECTED_TABLE = {
    ("dilation", "rotation"): {},
    ("dilation", "parabolic1"): {"parabolic1": 1},
    ("dilation", "parabolic2"): {"parabolic2": 1},
    ("dilation", "inversion"): {"inversion": 2},
    ("rotation", "parabolic1"): {"parabolic2": -1},
    ("rotation", "parabolic2"): {"parabolic1": 1},
    ("rotation", "inversion"): {},
    ("parabolic1", "parabolic2"): {"inversion": 4},
    ("parabolic1", "inversion"): {},
    ("parabolic2", "inversion"): {},
}


class TestCommutators:
    def test_full_table(self):
        table = commutator_table()
        assert set(table) == set(EXPECTED_TABLE)
        for pair, expected in EXPECTED_TABLE.items():
            assert table[pair] == expected, pair

    def test_expand_rejects_outside_span(self):
        fields = standard_fields()
        rogue = VectorField({"z": HoloSeries.one(8), "w": HoloSeries.zero(8)})
        with pytest.raises(InternalInvariantError):
            expand_in_basis(rogue, fields)


class TestTangency:
    def test_all_five_tangent(self):
        for nm, f in standard_fields().items():
            assert tangency_residual(f).is_zero(), nm

    def test_heisenberg_translations(self):
        # the translations (z, w) -> (z + a, w + b + 2i conj(a) z + i|a|^2)
        # are automorphisms of v = z zbar; their fields d_z + 2iz d_w,
        # i d_z + 2z d_w and d_w are tangent, and the first two bracket to
        # 4 d_w, the center (the order drops by the weight of w)
        n = 8
        t1 = VectorField({"z": HoloSeries.one(n), "w": HoloSeries(n, {(1, 0): gr(0, 2)})})
        t2 = VectorField({"z": HoloSeries.one(n) * gr(0, 1), "w": HoloSeries(n, {(1, 0): gr(2)})})
        t3 = VectorField({"z": HoloSeries.zero(n), "w": HoloSeries.one(n)})
        for t in (t1, t2, t3):
            assert tangency_residual(t).is_zero()
        four_dw = VectorField({"z": HoloSeries.zero(n - 2), "w": HoloSeries.one(n - 2) * 4})
        assert bracket(t1, t2) == four_dw

    def test_non_tangent_detected(self):
        bad = VectorField({"z": HoloSeries.zero(8), "w": HoloSeries.one(8) * gr(0, 1)})
        assert not tangency_residual(bad).is_zero()
        with pytest.raises(InternalInvariantError):
            intrinsic_pushforward(bad)


# frozen intrinsic forms of the five pushed-forward fields
def _expected_intrinsic():
    u, x, y = V("u"), V("x"), V("y")

    def field(xi, phi, psi):
        return VectorField({"u": xi, "x": phi, "y": psi})

    return {
        "dilation": field(2 * u, x, y),
        "rotation": field(RPoly.zero(), -y, x),
        "parabolic1": field(
            -2 * x * x * x - 2 * x * y * y - 2 * y * u,
            u - 4 * x * y,
            3 * x * x - y * y,
        ),
        "parabolic2": field(
            2 * x * u - 2 * y * x * x - 2 * y * y * y,
            x * x - 3 * y * y,
            u + 4 * x * y,
        ),
        "inversion": field(
            u * u - (x * x + y * y) * (x * x + y * y),
            x * u - x * x * y - y * y * y,
            x * x * x + x * y * y + y * u,
        ),
    }


class TestPushforward:
    def test_frozen_intrinsic_fields(self):
        got = intrinsic_fields()
        expected = _expected_intrinsic()
        for nm in FIELD_NAMES:
            assert got[nm] == expected[nm], nm

    def test_pushforward_is_bracket_morphism(self):
        # the pushforward must intertwine extrinsic and intrinsic brackets
        ext = standard_fields()
        intr = intrinsic_fields()
        for nm1 in FIELD_NAMES:
            for nm2 in FIELD_NAMES:
                if nm1 >= nm2:
                    continue
                pushed = intrinsic_pushforward(bracket(ext[nm1], ext[nm2]))
                direct = bracket(intr[nm1], intr[nm2])
                assert pushed == direct, (nm1, nm2)


class TestPunctualKernel:
    """The two halves meet at the punctual stages: the maps that leave the
    sphere's weight-delta slice alone are the isotropy fields homogeneous of
    weights (delta - 1, delta)."""

    # the standard fields homogeneous of weights (delta - 1, delta)
    HOMOGENEOUS = {3: {"parabolic1", "parabolic2"}, 4: {"inversion"}, 5: set()}

    def test_kernel_dimension(self):
        for delta, dim in ((3, 2), (4, 1), (5, 0)):
            columns = _operator_columns(delta)[1]
            matrix = [[col.get(key, 0) for col in columns] for key in sorted(set().union(*columns))]
            assert len(columns) - rank(matrix) == dim, delta
            assert len(self.HOMOGENEOUS[delta]) == dim

    def test_homogeneous_fields_are_the_kernel(self):
        fields = standard_fields()
        for delta, names in self.HOMOGENEOUS.items():
            homogeneous = {
                nm
                for nm, f in fields.items()
                if f.comp["z"] == f.comp["z"].weight_part(delta - 1)
                and f.comp["w"] == f.comp["w"].weight_part(delta)
            }
            assert homogeneous == names, delta
            for nm in names:
                assert core_expression(fields[nm].comp["z"], fields[nm].comp["w"], delta).is_zero()
