"""Jet calculus tests: total derivative, prolongation, brackets."""

from fractions import Fraction

import pytest

from conftest import rand_intrinsic, rand_rat, rand_rpoly

from moser_chains.errors import InternalInvariantError, ParseError
from moser_chains.lie_jets import (
    IntrinsicField,
    JetField2,
    RPoly,
    bracket_intrinsic,
    bracket_jet,
    prolong2,
    total_derivative,
)


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
        f = IntrinsicField(RPoly.zero(), RPoly.const(1), RPoly.zero())
        p = prolong2(f)
        assert p.comp["x1"].is_zero() and p.comp["x2"].is_zero()
        assert p.comp["y1"].is_zero() and p.comp["y2"].is_zero()

    def test_scaling_field(self):
        # x d_x + y d_y + 2u d_u
        f = IntrinsicField(2 * V("u"), V("x"), V("y"))
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
            assert p.comp["x2"] == D(D(f.phi)) - D(D(f.xi)) * x1 - 2 * D(f.xi) * x2
            assert p.comp["y2"] == D(D(f.psi)) - D(D(f.xi)) * y1 - 2 * D(f.xi) * y2
            assert p.comp["x1"] == D(f.phi) - D(f.xi) * x1
            assert p.comp["y1"] == D(f.psi) - D(f.xi) * y1

    def test_intrinsic_field_validation(self):
        with pytest.raises(InternalInvariantError):
            IntrinsicField(V("x1"), RPoly.zero(), RPoly.zero())


class TestBrackets:
    def test_simple_bracket(self):
        # [d_x, x d_x] = d_x
        a = IntrinsicField(RPoly.zero(), RPoly.const(1), RPoly.zero())
        b = IntrinsicField(RPoly.zero(), V("x"), RPoly.zero())
        assert bracket_intrinsic(a, b) == a

    def test_antisymmetry_random(self, rng):
        for _ in range(20):
            a = rand_intrinsic(rng)
            b = rand_intrinsic(rng)
            ab = bracket_intrinsic(a, b)
            ba = bracket_intrinsic(b, a)
            assert ab.xi == -ba.xi and ab.phi == -ba.phi and ab.psi == -ba.psi

    def test_jacobi(self, rng):
        for _ in range(6):
            a = rand_intrinsic(rng, max_deg=2, terms=2)
            b = rand_intrinsic(rng, max_deg=2, terms=2)
            c = rand_intrinsic(rng, max_deg=2, terms=2)
            total = bracket_intrinsic(a, bracket_intrinsic(b, c))
            total = IntrinsicField(
                total.xi + bracket_intrinsic(b, bracket_intrinsic(c, a)).xi
                + bracket_intrinsic(c, bracket_intrinsic(a, b)).xi,
                total.phi + bracket_intrinsic(b, bracket_intrinsic(c, a)).phi
                + bracket_intrinsic(c, bracket_intrinsic(a, b)).phi,
                total.psi + bracket_intrinsic(b, bracket_intrinsic(c, a)).psi
                + bracket_intrinsic(c, bracket_intrinsic(a, b)).psi,
            )
            assert total.xi.is_zero() and total.phi.is_zero() and total.psi.is_zero()

    def test_prolongation_is_bracket_morphism(self, rng):
        # prolong2([a, b]) == [prolong2(a), prolong2(b)] -- a strong
        # correctness oracle for both the prolongation and the jet bracket.
        for _ in range(8):
            a = rand_intrinsic(rng, max_deg=2, terms=2)
            b = rand_intrinsic(rng, max_deg=2, terms=2)
            lhs = prolong2(bracket_intrinsic(a, b))
            rhs = bracket_jet(prolong2(a), prolong2(b))
            assert lhs == rhs
