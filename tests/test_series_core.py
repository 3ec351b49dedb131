"""Series engine tests: frozen small cases plus seeded property loops."""

import json
import random

from fractions import Fraction

import pytest

from conftest import rand_gr, rand_rat, rand_series3, rand_real_series3, rand_upoly

from moser_chains.errors import InternalInvariantError, ParseError
from moser_chains.series_core import (
    GaussianRational,
    GraphTable,
    HoloSeries,
    Series3,
    UPoly,
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


class RefGaussian:
    """Reference Gaussian rational over two ``Fraction`` parts, with the
    formulas, the text forms and the hash of the library's scalar."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        if isinstance(x, RefGaussian):
            return x
        if isinstance(x, GaussianRational):
            return RefGaussian(x.real, x.imag)
        return RefGaussian(x)

    def __add__(self, o):
        o = RefGaussian.of(o)
        return RefGaussian(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = RefGaussian.of(o)
        return RefGaussian(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = RefGaussian.of(o)
        return RefGaussian(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        o = RefGaussian.of(o)
        d = o.re * o.re + o.im * o.im
        return RefGaussian((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def __neg__(self):
        return RefGaussian(-self.re, -self.im)

    def conjugate(self):
        return RefGaussian(self.re, -self.im)

    def power(self, k):
        base = RefGaussian(1) / self if k < 0 else self
        out = RefGaussian(1)
        for _ in range(abs(k)):
            out = out * base
        return out

    def hash(self):
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def str(self):
        if not self.im:
            return str(self.re)
        return "(%s%s%si)" % (self.re, "+" if self.im >= 0 else "-", abs(self.im))

    def repr(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)


class TestAgainstReference:
    """GaussianRational against the two-Fraction reference on random draws."""

    @staticmethod
    def draw(rng):
        """A GaussianRational, int or Fraction with mixed denominators."""
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-9, 9)
        if kind == 1:
            return rand_rat(rng, num=40, den=36)
        return gr(rand_rat(rng, num=40, den=36), rand_rat(rng, num=40, den=rng.choice((1, 6, 36))))

    @staticmethod
    def same(x, ref):
        assert isinstance(x, GaussianRational)
        assert (x.real, x.imag) == (ref.re, ref.im)
        assert type(x.real) is Fraction and type(x.imag) is Fraction
        assert x == gr(ref.re, ref.im) and hash(x) == ref.hash()
        assert str(x) == ref.str() and repr(x) == ref.repr()
        assert complex(x) == complex(float(ref.re), float(ref.im))
        assert bool(x) == bool(ref.re or ref.im)

    def test_operations_random(self, rng):
        for _ in range(400):
            a = gr(rand_rat(rng, num=40, den=36), rand_rat(rng, num=40, den=36))
            b = self.draw(rng)
            ra, rb = RefGaussian.of(a), RefGaussian.of(b)
            self.same(a, ra)
            self.same(a + b, ra + rb)
            self.same(b + a, ra + rb)
            self.same(a - b, ra - rb)
            self.same(b - a, rb - ra)
            self.same(a * b, ra * rb)
            self.same(b * a, ra * rb)
            self.same(-a, -ra)
            self.same(a.conjugate(), ra.conjugate())
            if b:
                self.same(a / b, ra / rb)
            if a:
                self.same(b / a, rb / ra)
                k = rng.randint(-4, 4)
                self.same(a ** k, ra.power(k))
            else:
                with pytest.raises(ZeroDivisionError):
                    b / a

    def test_equality_and_hash_with_rationals(self, rng):
        assert hash(gr(3)) == hash(3) == hash(Fraction(3))
        assert gr(3) == 3 and gr(3) == Fraction(3) and 3 == gr(3)
        assert gr("-5/6") == Fraction(-5, 6) and hash(gr("-5/6")) == hash(Fraction(-5, 6))
        assert gr(3, 1) != 3 and gr("1/2") != 1 and gr("1/2") != Fraction(1, 3)
        assert gr(0) == 0 and hash(gr(0)) == hash(0)
        for _ in range(200):
            q = rand_rat(rng, num=40, den=36)
            assert gr(q) == q and hash(gr(q)) == hash(q)
            assert {gr(q): 1}[q] == 1

    def test_canonical_form(self, rng):
        """Equal values reached by different routes are equal and hash equal."""
        for _ in range(200):
            a, b = self.draw(rng), gr(rand_rat(rng, num=40, den=36, nonzero=True),
                                     rand_rat(rng, num=40, den=36))
            a = gr(0) + a
            for same in ((a * b) / b, (a + b) - b, (a - b) + b, -(-a), a.conjugate().conjugate(),
                         a * gr(1), a / 1, (a * b) * b ** -1):
                assert same == a and hash(same) == hash(a)
                assert str(same) == str(a) and repr(same) == repr(a)
            assert a - a == 0 and not (a - a) and hash(a - a) == hash(0)

    def test_non_rational_operands(self):
        a = gr("1/2", 3)
        assert a.__add__(0.5) is NotImplemented and a.__mul__(1j) is NotImplemented
        assert a.__eq__("1/2") is NotImplemented
        with pytest.raises(TypeError):
            a + 0.5
        with pytest.raises(InternalInvariantError):
            GaussianRational(1, 0.5)
        with pytest.raises(InternalInvariantError):
            GaussianRational(1j)


class TestRationalText:
    def test_parse(self):
        assert parse_rational("3") == 3
        assert parse_rational("-1/2") == Fraction(-1, 2)
        assert parse_rational("+4/6") == Fraction(2, 3)
        assert parse_rational(5) == 5

    def test_parse_errors(self):
        for bad in ("1.5", "a", "1/0", "", "1/-2", None, [1], True, False, "\u0661\u0662"):
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
            unit = UPoly.one(6) + UPoly.var(6) * p
            s = unit.sqrt()
            assert s * s == unit
            arg = UPoly.var(6) * p
            e = arg.exp()
            # d/dt exp = arg' * exp, to the sound order
            lhs = e.derivative()
            rhs = (arg.derivative() * e).truncate(5)
            assert lhs == rhs

    def test_reversion_random(self, rng):
        for _ in range(25):
            p = rand_upoly(rng, 6)
            psi = UPoly.var(6) + UPoly(6, {2: gr(1)}) * p
            tau = psi.reversion()
            assert psi.compose(tau) == UPoly.var(6)
            assert tau.compose(psi) == UPoly.var(6)

    def test_inverse_random(self, rng):
        for _ in range(25):
            p = rand_upoly(rng, 6)
            unit = UPoly.one(6) + UPoly.var(6) * p
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

    def test_ring_random(self, rng):
        for _ in range(40):
            a = rand_series3(rng, 6, terms=4)
            b = rand_series3(rng, 6, terms=4)
            c = rand_series3(rng, 6, terms=4)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b).conj() == a.conj() * b.conj()

    def test_mixed_mode_rejected(self):
        # a float scalar never enters an exact series
        for scalar in (0.5, 1j):
            with pytest.raises(InternalInvariantError):
                Series3.one(4) * scalar


class TestVanishes:
    def test_exact_mode_needs_exact_zero(self):
        # a series vanishes only when no term is left, however small
        assert not UPoly(4, {2: gr(Fraction(1, 10 ** 30))}).is_zero()
        assert HoloSeries.zero(4).is_zero()


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
            phi = UPoly.var(m) * a + UPoly(m, {2: gr(1)}) * rand_upoly(rng, m)
            for entry, G, args in (
                (eval_holo3, h, (zs3, ws3)),
                (eval_holo2, h, (zs2, ws2)),
                (eval_graph, F, (zs3, us)),
                (eval_curve, F, (phi,)),
            ):
                low = entry(G, *args, n_out=n, polynomial=True)
                full = entry(G, *args, n_out=n + 2, polynomial=True)
                assert low == full.truncate(n)

    @staticmethod
    def naive_sum(G, args, n):
        """sum of v * args[0]^e_0 * args[1]^e_1 * ... over the terms of G,
        from plain series products at order n."""
        cls = type(args[0])
        args = [a.truncate(n) for a in args]
        total = cls.zero(n)
        for key, v in G.c.items():
            term = cls.one(n)
            for arg, e in zip(args, key if isinstance(key, tuple) else (key,)):
                for _ in range(e):
                    term = term * arg
            total = total + term * v
        return total

    def test_naive_sum_with_low_weight_arguments(self, rng):
        # every argument has low weight >= 2, so a head product P^j conj(P)^k
        # starts at weight >= 2(j + k) and the weight bound of the inner sums
        # drops terms; the result must still be the term-by-term sum.  The
        # same holds for a map pushed along a curve (UPoly arguments) and for
        # arguments with a constant term, which a complete polynomial admits
        n = 10

        def above(cls, low):
            # a random series of cls with every term of weight >= low
            series = rand_series3(rng, n, terms=4)
            if cls is HoloSeries:
                series = HoloSeries(n, {(j + k, l): v for (j, k, l), v in series.c.items()})
            return sum((series.weight_part(w) for w in range(low, n + 1)), cls.zero(n))

        for _ in range(6):
            F = rand_series3(rng, n, terms=10)
            h = HoloSeries(n, {(j + k, l): v for (j, k, l), v in F.c.items()})
            a = rand_gr(rng, nonzero=True)
            zs3 = Series3(n, {(2, 0, 0): a}) + above(Series3, 2)
            ws3 = Series3.u_var(n) + above(Series3, 2)
            us = Series3.u_var(n) + rand_real_series3(rng, n, terms=4, min_weight=2)
            zs2 = HoloSeries(n, {(2, 0): a}) + above(HoloSeries, 2)
            ws2 = HoloSeries.w_var(n) + above(HoloSeries, 3)
            phi = UPoly(n, {2: a}) + UPoly(n, {3: gr(1)}) * rand_upoly(rng, n)
            psi = phi.conjugate() + UPoly(n, {2: gr(1)})
            zc = zs3 + Series3.one(n) * a
            uc = us + Series3.one(n) * a.real
            wc = ws3 + Series3.one(n) * a
            phic = phi + UPoly.one(n) * a
            for entry, G, args, full in (
                (eval_graph, F, (zs3, us), (zs3, zs3.conj(), us)),
                (eval_holo3, h, (zs3, ws3), (zs3, ws3)),
                (eval_holo2, h, (zs2, ws2), (zs2, ws2)),
                (eval_curve, F, (phi,), (phi, phi.conjugate(), UPoly.var(n))),
                (eval_holo3, h, (phi, psi), (phi, psi)),
                (eval_graph, F, (zc, uc), (zc, zc.conj(), uc)),
                (eval_holo3, h, (zc, wc), (zc, wc)),
                (eval_curve, F, (phic,), (phic, phic.conjugate(), UPoly.var(n))),
            ):
                for n_out in (n, n - 3):
                    out = entry(G, *args, n_out=n_out, polynomial=True)
                    assert out == self.naive_sum(G, full, n_out), (entry.__name__, n_out)

    def test_shared_graph_table(self, rng):
        # one table serves several F at its order, extending its powers as a
        # later F needs higher ones; each result is eval_graph's
        n = 8
        zs = Series3.z_var(n) * rand_gr(rng, nonzero=True) + rand_series3(rng, n, terms=4)
        zs = zs - Series3.monomial(n, 0, 0, 0, zs.coeff(0, 0, 0))
        us = Series3.u_var(n) + rand_real_series3(rng, n, terms=3, min_weight=2)
        table = GraphTable(zs, us, n)
        built = []
        for top in (2, 5, 8):
            F = rand_series3(rng, top, terms=8).padded(n)
            assert table(F) == eval_graph(F, zs, us)
            built.append(sum(map(len, table.pows)))
        assert built == sorted(set(built))
        # a series sound to another order than the table's is refused
        with pytest.raises(InternalInvariantError):
            table(rand_series3(rng, n - 2, terms=4))
        with pytest.raises(InternalInvariantError):
            GraphTable(zs, us, n - 2)(rand_series3(rng, n, terms=4))
        # and eval_graph's argument checks still run
        with pytest.raises(InternalInvariantError):
            GraphTable(zs, us * gr(0, 1), n)(Series3.hermitian_square(n))

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
# serialization
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
        # a monomial above the truncation order is an error, not dropped:
        # the shear lowers weight, so it could change the normal form
        with pytest.raises(ParseError):
            series3_from_json({"trunc_order": 8, "coeffs": [{"j": 9, "k": 1, "l": 0, "re": "1", "im": "0"}]})
        with pytest.raises(ParseError):
            holo_from_json([{"j": 1, "l": 3, "re": "1"}], 6)
        # digits other than ASCII ones are not rational literals
        with pytest.raises(ParseError):
            series3_from_json({"trunc_order": 6, "coeffs": [{"j": 1, "k": 1, "l": 0, "re": "\u0661\u0662"}]})
