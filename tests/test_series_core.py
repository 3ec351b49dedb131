"""Series engine tests: frozen small cases plus seeded property loops."""

import json
import random

from fractions import Fraction

import pytest

from conftest import rand_gr, rand_rat, rand_series3, rand_real_series3, rand_upoly

from moser_chains.errors import InternalInvariantError, ParseError
from moser_chains.series_core import (
    GaussianRational,
    HoloSeries,
    Series3,
    UPoly,
    default_order,
    eval_curve,
    eval_graph,
    eval_holo2,
    eval_holo3,
    gr,
    holo_from_json,
    parse_rational,
    series3_from_json,
    series3_to_json,
)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


class TestGaussianRational:
    def test_basic_arithmetic(self):
        a = gr(1, 2)
        b = gr(3, -1)
        assert a * b == gr(5, 5)
        assert a + b == gr(4, 1)
        assert a - b == gr(-2, 3)
        assert -a == gr(-1, -2)

    def test_division(self):
        one_plus = gr(1, 1)
        one_minus = gr(1, -1)
        assert one_plus / one_minus == gr(0, 1)
        assert (gr(5, 5) / gr(3, -1)) == gr(1, 2)
        with pytest.raises(ZeroDivisionError):
            one_plus / gr(0, 0)

    def test_rational_interop(self):
        a = gr("3/4", "1/2")
        assert a + 1 == gr("7/4", "1/2")
        assert 2 * a == gr("3/2", 1)
        assert a / 2 == gr("3/8", "1/4")
        assert 1 / gr(0, 1) == gr(0, -1)

    def test_powers(self):
        i = gr(0, 1)
        assert i ** 2 == gr(-1)
        assert i ** 3 == gr(0, -1)
        assert gr(1, 1) ** 4 == gr(-4)
        assert gr(2) ** -1 == gr("1/2")

    def test_conjugate_and_parts(self):
        a = gr("3/4", "-1/2")
        assert a.conjugate() == gr("3/4", "1/2")
        assert a.real == Fraction(3, 4)
        assert a.imag == Fraction(-1, 2)
        assert a.conjugate().is_real() is False
        assert gr(7).is_real()

    def test_truthiness(self):
        assert not gr(0, 0)
        assert gr(0, "1/3")
        assert gr("-2/5", 0)

    def test_complex_conversion(self):
        assert complex(gr("1/2", "-1/4")) == 0.5 - 0.25j

    def test_float_rejected(self):
        with pytest.raises(InternalInvariantError):
            GaussianRational(0.5)

    def test_ring_axioms_random(self, rng):
        for _ in range(200):
            a, b, c = (rand_gr(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            if b:
                assert (a / b) * b == a


class TestRationalText:
    def test_parse(self):
        assert parse_rational("3") == 3
        assert parse_rational("-1/2") == Fraction(-1, 2)
        assert parse_rational("+4/6") == Fraction(2, 3)
        assert parse_rational(5) == 5

    def test_parse_errors(self):
        for bad in ("1.5", "a", "1/0", "", "1/-2", None, [1], True, False):
            with pytest.raises(ParseError):
                parse_rational(bad)

    def test_format_roundtrip(self, rng):
        for _ in range(100):
            q = rand_rat(rng, num=40, den=12)
            assert parse_rational(str(q)) == q


# ---------------------------------------------------------------------------
# one-variable series
# ---------------------------------------------------------------------------


class TestUPoly:
    def test_mul_truncates(self):
        t = UPoly.var(3)
        p = (UPoly.one(3) + t) * (UPoly.one(3) + t) * (UPoly.one(3) + t)
        assert p.coeff(0) == 1 and p.coeff(1) == 3 and p.coeff(2) == 3 and p.coeff(3) == 1

    def test_sqrt_binomial(self):
        one_plus_u = UPoly(5, {0: gr(1), 1: gr(1)})
        s = one_plus_u.sqrt()
        assert s.coeff(0) == 1
        assert s.coeff(1) == gr("1/2")
        assert s.coeff(2) == gr("-1/8")
        assert s.coeff(3) == gr("1/16")
        assert s.coeff(4) == gr("-5/128")
        assert s.coeff(5) == gr("7/256")
        assert (s * s - one_plus_u).is_zero()

    def test_sqrt_requires_unit(self):
        with pytest.raises(InternalInvariantError):
            UPoly(3, {0: gr(2)}).sqrt()

    def test_exp_frozen(self):
        arg = UPoly(4, {1: gr(1), 2: gr(1)})
        e = arg.exp()
        assert e.coeff(0) == 1
        assert e.coeff(1) == 1
        assert e.coeff(2) == gr("3/2")
        assert e.coeff(3) == gr("7/6")
        assert e.coeff(4) == gr("25/24")

    def test_inverse_geometric(self):
        inv = UPoly(3, {0: gr(1), 1: gr(1)}).inverse()
        assert inv == UPoly(3, {0: gr(1), 1: gr(-1), 2: gr(1), 3: gr(-1)})

    def test_reversion_catalan(self):
        psi = UPoly(5, {1: gr(1), 2: gr(1)})
        tau = psi.reversion()
        assert tau.coeff(1) == 1
        assert tau.coeff(2) == -1
        assert tau.coeff(3) == 2
        assert tau.coeff(4) == -5
        assert tau.coeff(5) == 14
        assert psi.compose(tau) == UPoly.var(5)

    def test_compose(self):
        p = UPoly(4, {1: gr(1), 2: gr(1)})
        q = UPoly(4, {2: gr(1)})
        assert p.compose(q) == UPoly(4, {2: gr(1), 4: gr(1)})

    def test_calculus_roundtrip(self, rng):
        for _ in range(50):
            p = rand_upoly(rng, 5)
            assert p.integrate().derivative() == p.padded(6).truncate(5)

    def test_property_ops(self, rng):
        for _ in range(60):
            a = rand_upoly(rng, 6)
            b = rand_upoly(rng, 6)
            c = rand_upoly(rng, 6)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    def test_sqrt_exp_random(self, rng):
        for _ in range(25):
            p = rand_upoly(rng, 6)
            unit = UPoly.one(6) + p.shifted(1).truncate(6)
            s = unit.sqrt()
            assert s * s == unit
            arg = p.shifted(1).truncate(6)
            e = arg.exp()
            # d/dt exp = arg' * exp, to the sound order
            lhs = e.derivative()
            rhs = (arg.derivative() * e).truncate(5)
            assert lhs == rhs

    def test_reversion_random(self, rng):
        for _ in range(25):
            p = rand_upoly(rng, 6)
            psi = UPoly.var(6) + p.shifted(2).truncate(6)
            tau = psi.reversion()
            assert psi.compose(tau) == UPoly.var(6)
            assert tau.compose(psi) == UPoly.var(6)

    def test_inverse_random(self, rng):
        for _ in range(25):
            p = rand_upoly(rng, 6)
            unit = UPoly.one(6) + p.shifted(1).truncate(6)
            assert unit * unit.inverse() == UPoly.one(6)

    def test_evaluate(self):
        p = UPoly(3, {0: gr(1), 2: gr(-2)})
        assert p.evaluate(gr("1/2")) == gr("1/2")

    def test_real_part(self):
        p = UPoly(2, {0: gr(1, 1), 1: gr(0, 2)})
        assert p.real_part() == UPoly(2, {0: gr(1)})


# ---------------------------------------------------------------------------
# three-variable series
# ---------------------------------------------------------------------------


class TestSeries3:
    def test_weighted_truncation_in_mul(self):
        base = Series3(6, {(1, 1, 0): gr(1), (2, 2, 0): gr(1)})
        sq = base * base
        # (zzb + z^2 zb^2)^2 keeps only z^2zb^2 + 2 z^3zb^3 at order 6
        assert sq == Series3(6, {(2, 2, 0): gr(1), (3, 3, 0): gr(2)})

    def test_conj(self):
        F = Series3(4, {(1, 0, 0): gr(0, 1)})
        assert F.conj() == Series3(4, {(0, 1, 0): gr(0, -1)})

    def test_reality(self):
        F = Series3(6, {(1, 1, 0): gr(1), (2, 1, 0): gr(1, 1), (1, 2, 0): gr(1, -1)})
        assert F.is_real()
        assert F.reality_defect() == 0.0
        G = Series3(6, {(2, 1, 0): gr(1, 1), (1, 2, 0): gr(1, 1)})
        assert not G.is_real()
        with pytest.raises(InternalInvariantError):
            G.assert_real()

    def test_random_real_generator_is_real(self, rng):
        for _ in range(40):
            F = rand_real_series3(rng, 8)
            assert F.is_real()

    def test_slices(self):
        F = Series3(8, {(1, 1, 0): gr(1), (1, 1, 2): gr(3), (2, 1, 1): gr(0, 1)})
        s11 = F.slice_jk(1, 1)
        assert s11 == UPoly(3, {0: gr(1), 2: gr(3)})
        assert F.slice_jk(2, 1) == UPoly(2, {1: gr(0, 1)})
        assert F.pure_u_part().is_zero()

    def test_weight_parts(self):
        F = Series3(6, {(1, 1, 0): gr(1), (0, 0, 2): gr(2), (3, 2, 0): gr(1, 1)})
        assert F.weight_part(2) == Series3(6, {(1, 1, 0): gr(1)})
        assert F.weight_part(4) == Series3(6, {(0, 0, 2): gr(2)})
        assert F.low_weight() == 2
        assert F.up_to_weight(4).c == {(1, 1, 0): gr(1), (0, 0, 2): gr(2)}

    def test_calculus(self):
        F = Series3(6, {(1, 1, 1): gr(2)})
        assert F.diff_u() == Series3(4, {(1, 1, 0): gr(2)})
        assert F.integrate_u() == Series3(8, {(1, 1, 2): gr(1)})

    def test_ring_random(self, rng):
        for _ in range(40):
            a = rand_series3(rng, 6, terms=4)
            b = rand_series3(rng, 6, terms=4)
            c = rand_series3(rng, 6, terms=4)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b).conj() == a.conj() * b.conj()

    def test_float_mode(self, rng):
        for _ in range(10):
            a = rand_series3(rng, 6, terms=4)
            b = rand_series3(rng, 6, terms=4)
            prod = (a * b).to_float()
            prod2 = a.to_float() * b.to_float()
            diff = prod - prod2
            assert diff.max_abs() < 1e-12

    def test_mixed_mode_rejected(self):
        with pytest.raises(InternalInvariantError):
            Series3.one(4) + Series3.one(4).to_float()


class TestVanishes:
    def test_float_mode_uses_the_assertion_tolerance(self):
        assert Series3(6, {(1, 1, 0): 1e-9 + 0j, (0, 0, 1): -1e-10j}, exact=False).vanishes()
        assert not Series3(6, {(1, 1, 0): 1e-9 + 0j, (2, 0, 0): 1e-6 + 0j}, exact=False).vanishes()
        assert UPoly.zero(4, exact=False).vanishes()

    def test_exact_mode_needs_exact_zero(self):
        assert not UPoly(4, {2: gr(Fraction(1, 10 ** 30))}).vanishes()
        assert HoloSeries.zero(4).vanishes()


# ---------------------------------------------------------------------------
# substitution engines
# ---------------------------------------------------------------------------


class TestSubstitution:
    def test_w_square_into_u_plus_igraph(self):
        # frozen: w^2 at w = u + i z zb  ->  u^2 + 2i u z zb - z^2 zb^2
        n = 6
        h = HoloSeries(n, {(0, 2): gr(1)})
        zs = Series3.z_var(n)
        ws = Series3.u_var(n) + Series3.hermitian_square(n) * gr(0, 1)
        out = eval_holo3(h, zs, ws)
        assert out == Series3(
            n, {(0, 0, 2): gr(1), (1, 1, 1): gr(0, 2), (2, 2, 0): gr(-1)}
        )

    def test_linear_rescale(self):
        F = Series3.hermitian_square(6)
        out = eval_graph(F, Series3.z_var(6) * gr(2), Series3.u_var(6))
        assert out == Series3(6, {(1, 1, 0): gr(4)})

    def test_graph_shift_in_u(self):
        F = Series3(6, {(0, 0, 2): gr(1)})
        us = Series3.u_var(6) + Series3.hermitian_square(6)
        out = eval_graph(F, Series3.z_var(6), us)
        assert out == Series3(
            6, {(0, 0, 2): gr(1), (1, 1, 1): gr(2), (2, 2, 0): gr(1)}
        )

    def test_graph_requires_real_u(self):
        F = Series3.hermitian_square(6)
        us = Series3.u_var(6) * gr(0, 1)
        with pytest.raises(InternalInvariantError):
            eval_graph(F, Series3.z_var(6), us)

    def test_curve_substitution(self):
        F = Series3(8, {(1, 1, 0): gr(1), (0, 0, 3): gr(1)})
        phi = UPoly(8, {2: gr(1, 1)})
        out = eval_curve(F, phi)
        assert out == UPoly(4, {3: gr(1), 4: gr(2)})

    def test_order_bound_enforced(self):
        # substituting into a truncated series cannot promise more digits
        F = Series3.hermitian_square(6)
        with pytest.raises(InternalInvariantError):
            eval_graph(F, Series3.z_var(8).padded(8), Series3.u_var(8).padded(8), n_out=8)
        # ... unless the series is declared a complete polynomial
        out = eval_graph(
            F.padded(8), Series3.z_var(8), Series3.u_var(8), n_out=8, polynomial=True
        )
        assert out == Series3(8, {(1, 1, 0): gr(1)})

        h = HoloSeries(4, {(2, 0): gr(1)})
        with pytest.raises(InternalInvariantError):
            eval_holo3(h, Series3.z_var(8), Series3.u_var(8), n_out=8)
        out = eval_holo3(h, Series3.z_var(8), Series3.u_var(8), n_out=8, polynomial=True)
        assert out == Series3(8, {(2, 0, 0): gr(1)})

        with pytest.raises(InternalInvariantError):
            eval_holo2(h, HoloSeries.z_var(8), HoloSeries.w_var(8), n_out=8)
        out = eval_holo2(h, HoloSeries.z_var(8), HoloSeries.w_var(8), n_out=8, polynomial=True)
        assert out == HoloSeries(8, {(2, 0): gr(1)})

        # a curve in F of order 6 is sound to t-order 3 only
        with pytest.raises(InternalInvariantError):
            eval_curve(F, UPoly.var(5), n_out=5)
        assert eval_curve(F, UPoly.var(5), n_out=5, polynomial=True) == UPoly(5, {2: gr(1)})

    def test_constant_term_argument_rejected(self):
        F = Series3.hermitian_square(6)
        with pytest.raises(InternalInvariantError):
            eval_graph(F, Series3.z_var(6) + Series3.one(6), Series3.u_var(6))
        with pytest.raises(InternalInvariantError):
            eval_holo3(HoloSeries.w_var(6), Series3.z_var(6), Series3.u_var(6) + Series3.one(6))

    def test_truncation_consistency_random(self, rng):
        # with polynomial=True the order-n result is the order-(n+2) one truncated
        n, m = 6, 8

        def high(cls):
            # a random series of cls with every term of weight >= 2
            series = rand_series3(rng, m, terms=3)
            if cls is HoloSeries:
                series = HoloSeries(m, {(j + k, l): v for (j, k, l), v in series.c.items()})
            return sum((series.weight_part(w) for w in range(2, m + 1)), cls.zero(m))

        for _ in range(8):
            F = rand_series3(rng, m, terms=6)
            h = HoloSeries(m, {(j + k, l): v for (j, k, l), v in F.c.items()})
            a = rand_gr(rng, nonzero=True)
            zs3 = Series3.z_var(m) * a + high(Series3)
            ws3 = Series3.u_var(m) + high(Series3)
            zs2 = HoloSeries.z_var(m) * a + high(HoloSeries)
            ws2 = HoloSeries.w_var(m) + high(HoloSeries)
            us = Series3.u_var(m) + rand_real_series3(rng, m, terms=3, min_weight=2)
            phi = UPoly.var(m) * a + rand_upoly(rng, m).shifted(2)
            for entry, G, args in (
                (eval_holo3, h, (zs3, ws3)),
                (eval_holo2, h, (zs2, ws2)),
                (eval_graph, F, (zs3, us)),
                (eval_curve, F, (phi,)),
            ):
                low = entry(G, *args, n_out=n, polynomial=True)
                full = entry(G, *args, n_out=n + 2, polynomial=True)
                assert low == full.truncate(n)

    def test_holo_composition(self):
        # f(z, w) = z + w^2 composed with (z, w) -> (z + w, w)
        n = 8
        f = HoloSeries(n, {(1, 0): gr(1), (0, 2): gr(1)})
        zs = HoloSeries(n, {(1, 0): gr(1), (0, 1): gr(1)})
        ws = HoloSeries.w_var(n)
        out = eval_holo2(f, zs, ws)
        assert out == HoloSeries(n, {(1, 0): gr(1), (0, 1): gr(1), (0, 2): gr(1)})

    def test_substitution_linearity_random(self, rng):
        n = 7
        for _ in range(20):
            F = rand_series3(rng, n, terms=5)
            G = rand_series3(rng, n, terms=5)
            zs = Series3.z_var(n) * rand_gr(rng, nonzero=True)
            base = rand_real_series3(rng, n, terms=3, min_weight=2)
            us = Series3.u_var(n) + (base + base.conj()) * gr("1/2")
            lhs = eval_graph(F + G, zs, us)
            rhs = eval_graph(F, zs, us) + eval_graph(G, zs, us)
            assert lhs == rhs
            lhs2 = eval_graph(F * G, zs, us)
            rhs2 = eval_graph(F, zs, us) * eval_graph(G, zs, us)
            assert lhs2 == rhs2

    def test_graph_reality_preserved(self, rng):
        n = 7
        for _ in range(20):
            F = rand_real_series3(rng, n, terms=5)
            zs = Series3.z_var(n) * rand_gr(rng, nonzero=True)
            us = Series3.u_var(n)
            assert eval_graph(F, zs, us).is_real()


# ---------------------------------------------------------------------------
# serialization and configuration
# ---------------------------------------------------------------------------


class TestJson:
    def test_roundtrip(self, rng):
        for _ in range(20):
            F = rand_series3(rng, 8, terms=6)
            blob = json.dumps(series3_to_json(F))
            back = series3_from_json(json.loads(blob))
            assert back == F

    def test_schema_shape(self):
        F = Series3(6, {(1, 1, 0): gr(1), (0, 0, 1): gr("-1/2", "1/3")})
        obj = series3_to_json(F)
        assert obj["trunc_order"] == 6
        assert obj["coeffs"] == [
            {"j": 0, "k": 0, "l": 1, "re": "-1/2", "im": "1/3"},
            {"j": 1, "k": 1, "l": 0, "re": "1", "im": "0"},
        ]

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            series3_from_json({"coeffs": []})
        with pytest.raises(ParseError):
            series3_from_json({"trunc_order": -1, "coeffs": []})
        with pytest.raises(ParseError):
            series3_from_json({"trunc_order": 6, "coeffs": [{"j": 1, "k": 0}]})
        with pytest.raises(ParseError):
            series3_from_json(
                {"trunc_order": 6, "coeffs": [{"j": 1, "k": 0, "l": 0, "re": "x", "im": "0"}]}
            )
        with pytest.raises(ParseError):
            series3_from_json(
                {
                    "trunc_order": 6,
                    "coeffs": [
                        {"j": 1, "k": 0, "l": 0, "re": "1", "im": "0"},
                        {"j": 1, "k": 0, "l": 0, "re": "2", "im": "0"},
                    ],
                }
            )
        # JSON true/false are not integers or rationals
        for bad in (
            {"trunc_order": True, "coeffs": []},
            {"trunc_order": 6, "coeffs": [{"j": True, "k": True, "l": 0, "re": True}]},
            {"trunc_order": 6, "coeffs": [{"j": 1, "k": 1, "l": False, "re": "1"}]},
            {"trunc_order": 6, "coeffs": [{"j": 1, "k": 1, "l": 0, "re": "1", "im": True}]},
        ):
            with pytest.raises(ParseError):
                series3_from_json(bad)
        with pytest.raises(ParseError):
            holo_from_json([{"j": True, "l": 0, "re": "1"}], 6)


class TestDefaultOrder:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("MOSER_CHAINS_ORDER", raising=False)
        assert default_order() == 6

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("MOSER_CHAINS_ORDER", "8")
        assert default_order() == 8

    def test_rejects_low_or_bad(self, monkeypatch):
        monkeypatch.setenv("MOSER_CHAINS_ORDER", "5")
        with pytest.raises(ParseError):
            default_order()
        monkeypatch.setenv("MOSER_CHAINS_ORDER", "six")
        with pytest.raises(ParseError):
            default_order()
