"""Jet calculus tests: total derivative, prolongation, brackets."""

from fractions import Fraction

import pytest

from conftest import rand_intrinsic, rand_rat, rand_rpoly

from moser_chains.errors import MathPreconditionError, ParseError
from moser_chains.chain_locus import prolonged_fields
from moser_chains.lie_jets import (
    JET2_VARS,
    RPoly,
    VectorField,
    bracket,
    prolong2,
    total_derivative,
)
from moser_chains.series_core import HoloSeries


def V(name):
    return RPoly.var(name)


class TestRPoly:
    def test_arithmetic(self):
        x, y = V("x"), V("y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert (p - p).is_zero()
        assert (x + 1) * (x + 1) == x * x + 2 * x + 1

    def test_diff(self):
        x, u = V("x"), V("u")
        p = x * x * u + 3 * u
        assert p.diff("x") == 2 * x * u
        assert p.diff("u") == x * x + 3
        assert p.diff("y").is_zero()

    def test_subs_and_evaluate(self):
        x, y = V("x"), V("y")
        p = x * x + y
        q = p.subs({"x": y})
        assert q == y * y + y
        assert p.evaluate({"x": Fraction(1, 2), "y": 3}) == Fraction(13, 4)

    def test_subs_evaluate_agree_random(self, rng):
        for _ in range(40):
            p = rand_rpoly(rng, names=("u", "x", "y", "x1"), max_deg=4, terms=4)
            point = {n: rand_rat(rng) for n in ("u", "x", "y", "x1")}
            direct = p.evaluate(point)
            via_subs = p.subs(point).constant_term()
            assert direct == via_subs

    def test_float_rejected(self):
        with pytest.raises(ParseError):
            RPoly.const(0.5)


class TestTotalDerivative:
    def test_base_rules(self):
        assert total_derivative(V("u")) == RPoly.const(1)
        assert total_derivative(V("x")) == V("x1")
        assert total_derivative(V("y")) == V("y1")
        assert total_derivative(V("x1")) == V("x2")
        assert total_derivative(V("x2")) == V("x3")

    def test_leibniz(self):
        p = V("x") * V("y")
        assert total_derivative(p) == V("x1") * V("y") + V("y1") * V("x")

    def test_leibniz_random(self, rng):
        names = ("u", "x", "y", "x1", "y1")
        for _ in range(30):
            p = rand_rpoly(rng, names=names, max_deg=3, terms=3)
            q = rand_rpoly(rng, names=names, max_deg=3, terms=3)
            lhs = total_derivative(p * q)
            rhs = total_derivative(p) * q + p * total_derivative(q)
            assert lhs == rhs


class TestProlongation:
    def test_translation_is_flat(self):
        f = VectorField({"u": RPoly.zero(), "x": RPoly.const(1), "y": RPoly.zero()})
        p = prolong2(f)
        assert p.comp["x1"].is_zero() and p.comp["x2"].is_zero()
        assert p.comp["y1"].is_zero() and p.comp["y2"].is_zero()

    def test_scaling_field(self):
        # x d_x + y d_y + 2u d_u
        f = VectorField({"u": 2 * V("u"), "x": V("x"), "y": V("y")})
        p = prolong2(f)
        assert p.comp["x1"] == -V("x1")
        assert p.comp["y1"] == -V("y1")
        assert p.comp["x2"] == -3 * V("x2")
        assert p.comp["y2"] == -3 * V("y2")

    def test_second_prolongation_identity_random(self, rng):
        # phi2 == D^2(phi) - D^2(xi) x1 - 2 D(xi) x2, and same for psi/y
        for _ in range(25):
            f = rand_intrinsic(rng)
            p = prolong2(f)
            D = total_derivative
            x1, x2 = V("x1"), V("x2")
            y1, y2 = V("y1"), V("y2")
            xi, phi, psi = f.comp["u"], f.comp["x"], f.comp["y"]
            assert p.comp["x2"] == D(D(phi)) - D(D(xi)) * x1 - 2 * D(xi) * x2
            assert p.comp["y2"] == D(D(psi)) - D(D(xi)) * y1 - 2 * D(xi) * y2
            assert p.comp["x1"] == D(phi) - D(xi) * x1
            assert p.comp["y1"] == D(psi) - D(xi) * y1

    def test_no_third_order_jet_variable_survives(self, rng):
        # phi and xi depend on (u, x, y) only, so the x3/y3 terms cancel: no
        # second prolongation, of an isotropy field or a random one, uses them
        fields = list(prolonged_fields().values())
        fields += [prolong2(rand_intrinsic(rng)) for _ in range(10)]
        for field in fields:
            assert field.comp.keys() == set(JET2_VARS)
            for p in field.comp.values():
                assert not p.uses_var("x3") and not p.uses_var("y3")

    def test_intrinsic_field_validation(self):
        with pytest.raises(MathPreconditionError):
            VectorField({"u": V("x1"), "x": RPoly.zero(), "y": RPoly.zero()})

    def test_prolong2_refuses_field_off_base_coordinates(self, rng):
        # a prolonged field, a field on (z, w) and one on (u, x) alone
        jet = prolong2(rand_intrinsic(rng))
        holo = VectorField({"z": HoloSeries.z_var(4), "w": HoloSeries.w_var(4)})
        partial = VectorField({"u": RPoly.zero(), "x": RPoly.const(1)})
        for field in (jet, holo, partial):
            with pytest.raises(MathPreconditionError):
                prolong2(field)

    def test_apply_refuses_function_off_its_coordinates(self, rng):
        f = rand_intrinsic(rng)
        with pytest.raises(MathPreconditionError):
            f.apply(V("x1"))
        with pytest.raises(MathPreconditionError):
            prolong2(f).apply(V("x3"))


class TestBrackets:
    def test_simple_bracket(self):
        # [d_x, x d_x] = d_x
        a = VectorField({"u": RPoly.zero(), "x": RPoly.const(1), "y": RPoly.zero()})
        b = VectorField({"u": RPoly.zero(), "x": V("x"), "y": RPoly.zero()})
        assert bracket(a, b) == a

    def test_bracket_refuses_fields_on_different_coordinates(self, rng):
        a = rand_intrinsic(rng)
        holo = VectorField({"z": HoloSeries.z_var(4), "w": HoloSeries.w_var(4)})
        for other in (prolong2(a), holo):
            for pair in ((a, other), (other, a)):
                with pytest.raises(MathPreconditionError):
                    bracket(*pair)

    def test_antisymmetry_random(self, rng):
        for _ in range(20):
            a = rand_intrinsic(rng)
            b = rand_intrinsic(rng)
            ab = bracket(a, b)
            ba = bracket(b, a)
            assert all(ab.comp[nm] == -ba.comp[nm] for nm in ("u", "x", "y"))

    def test_jacobi(self, rng):
        for _ in range(6):
            a = rand_intrinsic(rng, max_deg=2, terms=2)
            b = rand_intrinsic(rng, max_deg=2, terms=2)
            c = rand_intrinsic(rng, max_deg=2, terms=2)
            total = bracket(a, bracket(b, c))
            total = VectorField({
                nm: total.comp[nm] + bracket(b, bracket(c, a)).comp[nm]
                + bracket(c, bracket(a, b)).comp[nm]
                for nm in ("u", "x", "y")
            })
            assert all(total.comp[nm].is_zero() for nm in ("u", "x", "y"))

    def test_prolongation_is_bracket_morphism(self, rng):
        # prolong2([a, b]) == [prolong2(a), prolong2(b)] -- a strong
        # correctness oracle for both the prolongation and the jet bracket.
        for _ in range(8):
            a = rand_intrinsic(rng, max_deg=2, terms=2)
            b = rand_intrinsic(rng, max_deg=2, terms=2)
            lhs = prolong2(bracket(a, b))
            rhs = bracket(prolong2(a), prolong2(b))
            assert lhs == rhs
