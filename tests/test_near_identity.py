"""The near-identity and variable-head rules of the substitution core,
against the term-by-term sum of ``TestSubstitution.naive_sum``.

Arguments x_i + h_i whose h_i sit d >= 1 weights above their variables let
the core copy the terms of F above n - d, take one product per argument for
the band n - 2d < w <= n - d and substitute only the rest in full.  When
every argument but the last is its own variable, the rest costs one product
F_l * t^l per last exponent l, with no head.
"""

import pytest

from conftest import rand_gr, rand_rat, rand_real_series3, rand_series3, rand_upoly

import test_series_core

from moser_chains import series_core
from moser_chains.lie_jets import VAR_NAMES, RPoly
from moser_chains.series_core import (
    GraphTable,
    HoloSeries,
    I_UNIT,
    PowerTable,
    Series3,
    UPoly,
    eval_curve,
    eval_graph,
    eval_holo2,
    eval_holo3,
    gr,
)

naive_sum = test_series_core.TestSubstitution.naive_sum


def above(rng, cls, n, low, real=False):
    """A random series of cls at order n with every term of weight >= low
    and at least one of weight exactly low (zero when low > n)."""
    if low > n:
        return cls.zero(n)
    if cls is HoloSeries:
        lead = HoloSeries(n, {(low % 2, low // 2): rand_gr(rng, nonzero=True)})
        rest = rand_series3(rng, n, terms=5)
        rest = HoloSeries(n, {(j + k, l): v for (j, k, l), v in rest.c.items()})
    elif real:
        if low % 2:
            c, l = rand_gr(rng, nonzero=True), (low - 1) // 2
            lead = Series3(n, {(1, 0, l): c, (0, 1, l): c.conjugate()})
        else:
            lead = Series3.monomial(n, 0, 0, low // 2, rand_rat(rng, nonzero=True))
        rest = rand_real_series3(rng, n, terms=4, min_weight=low)
    else:
        lead = Series3.monomial(n, 1, 0, (low - 1) // 2, rand_gr(rng, nonzero=True))
        if low % 2 == 0:
            lead = lead * Series3.zbar_var(n)
        rest = rand_series3(rng, n, terms=5)
    return lead + sum((rest.weight_part(w) for w in range(low, n + 1)), cls.zero(n))


def graph_args(rng, n, d):
    """zs = z + (weight >= 1 + d, one term at 1 + d), us = u + a real series
    of weight >= 2 + d: the table's gap is exactly d."""
    zs = Series3.z_var(n) + above(rng, Series3, n, 1 + d)
    us = Series3.u_var(n) + above(rng, Series3, n, 2 + d + rng.randint(0, 1), real=True)
    return zs, us


class TestGap:
    def test_graph_tables_at_each_gap(self, rng):
        # d = 1, 2, 3 and d >= n/2, for real and non-real F, through a table
        # and through eval_graph
        n = 10
        for d in (1, 2, 3, 5, 6):
            for _ in range(3):
                zs, us = graph_args(rng, n, d)
                table = GraphTable(zs, us, n)
                assert table.near[0] == d
                for F in (rand_real_series3(rng, n, terms=10), rand_series3(rng, n, terms=12)):
                    expect = naive_sum(F, (zs, zs.conj(), us), n)
                    assert table(F) == expect, d
                    assert eval_graph(F, zs, us) == expect, d

    def test_output_order_below_F_order(self, rng):
        # arguments at order m < F.n: the terms of F above m make no output
        n, m = 10, 6
        for d in (1, 2, 4):
            zs, us = graph_args(rng, n, d)
            F = rand_series3(rng, n, terms=14)
            low_z, low_u = zs.truncate(m), us.truncate(m)
            out = GraphTable(low_z, low_u, m)(F)
            assert out.n == m
            assert out == naive_sum(F, (zs, zs.conj(), us), m)
            h = HoloSeries(n, {(j + k, l): v for (j, k, l), v in F.c.items()})
            zh = HoloSeries.z_var(n) + above(rng, HoloSeries, n, 1 + d)
            wh = HoloSeries.w_var(n) + above(rng, HoloSeries, n, 2 + d)
            out = eval_holo2(h, zh.truncate(m), wh.truncate(m))
            assert out.n == m
            assert out == naive_sum(h, (zh, wh), m)

    def test_holomorphic_composition(self, rng):
        # eval_holo2 on HoloSeries maps z + p, w + q, as Biholo.compose makes
        n = 11
        for d in (1, 2, 3, 6):
            for _ in range(3):
                zs = HoloSeries.z_var(n) + above(rng, HoloSeries, n, 1 + d)
                ws = HoloSeries.w_var(n) + above(rng, HoloSeries, n, 2 + d)
                assert PowerTable((zs, ws), n).near[0] == d
                rest = rand_series3(rng, n, terms=12)
                h = HoloSeries(n, {(j + k, l): v for (j, k, l), v in rest.c.items()})
                assert eval_holo2(h, zs, ws) == naive_sum(h, (zs, ws), n)

    def test_rpoly_subs_variable_plus_higher(self, rng):
        # x -> x + y^2 + ..., u -> u + x y: the table's gap is 1; the terms
        # of degree 47 and 48 fall in the band and the copied part
        x, y, u = RPoly.var("x"), RPoly.var("y"), RPoly.var("u")
        for _ in range(4):
            p = RPoly.zero()
            for a, b, c in ((1, 1, 0), (0, 2, 1), (2, 0, 0), (0, 1, 0), (1, 0, 2), (0, 1, 46)):
                mono = RPoly.var("u", a) * RPoly.var("x", b) * RPoly.var("y", c)
                p = p + mono * rand_rat(rng, nonzero=True)
            p = p + RPoly.var("y", 48) * rand_rat(rng)
            mapping = {"x": x + y * y * rand_rat(rng, nonzero=True), "u": u + x * y}
            args = [mapping.get(name, RPoly.var(name)) for name in VAR_NAMES]
            assert PowerTable(args, 48).near[0] == 1
            assert p.subs(mapping) == naive_sum(p, args, 48)


class TestNoGap:
    def test_other_arguments_get_gap_zero(self, rng):
        # a coefficient other than 1 on the variable, an extra term of the
        # variable's weight or below, or a constant term: the rule is off,
        # and the result is still the term-by-term sum
        n = 9
        z, zb, u, one = Series3.z_var(n), Series3.zbar_var(n), Series3.u_var(n), Series3.one(n)
        high = above(rng, Series3, n, 3)
        real_high = above(rng, Series3, n, 4, real=True)
        zz = Series3.hermitian_square(n)
        cases = [
            (z * gr(2, 1) + high, u + real_high),
            (z + high, u * 3 + real_high),
            (z + zb * rand_gr(rng, nonzero=True) + high, u + real_high),
            (z + high, u + zz * rand_rat(rng, nonzero=True) + real_high),
            (z + u * rand_gr(rng, nonzero=True), u + z + zb + real_high),
        ]
        for zs, us in cases:
            assert GraphTable(zs, us, n).near == (0, [])
            for F in (rand_real_series3(rng, n, terms=8), rand_series3(rng, n, terms=8)):
                out = eval_graph(F, zs, us)
                assert out == naive_sum(F, (zs, zs.conj(), us), out.n)
        c = rand_gr(rng, nonzero=True)
        zc, uc = z + high + one * c, u + real_high + one * c.real
        assert GraphTable(zc, uc, n).near == (0, [])
        F = rand_series3(rng, n, terms=8)
        assert eval_graph(F, zc, uc, polynomial=True) == naive_sum(F, (zc, zc.conj(), uc), n)
        zh = HoloSeries.z_var(n)
        assert PowerTable((zh, HoloSeries.w_var(n) + zh), n).near == (0, [])

    def test_identity_arguments_gap(self):
        # no h at all: the gap is n + 1, so every term of F is copied
        n = 8
        assert GraphTable(Series3.z_var(n), Series3.u_var(n), n).near == (n + 1, [])
        assert PowerTable((HoloSeries.z_var(n), HoloSeries.w_var(n)), n).near == (n + 1, [])


class TestVariableHeads:
    """Tables whose arguments but the last are the variables themselves:
    (z, conj z, t) graph tables and (z, W) tables, as the vertical images,
    their oracles and the transform's ingredients make them."""

    @staticmethod
    def check(F, t, n, polynomial=False):
        """F(z, conj z, t) through ``eval_graph``, whose table has variable
        heads, against the term-by-term sum; returns the sum."""
        z = Series3.z_var(n)
        assert GraphTable(z, t, n).lone
        expect = naive_sum(F, (z, z.conj(), t), n)
        assert eval_graph(F, z, t, polynomial=polynomial) == expect
        return expect

    def test_scale(self, rng):
        # t = a u, a real: no offset, so no near-identity gap either
        n = 10
        for _ in range(3):
            t = Series3.u_var(n) * rand_rat(rng, nonzero=True)
            assert GraphTable(Series3.z_var(n), t, n).near == (0, [])
            for F in (rand_real_series3(rng, n, terms=12), rand_series3(rng, n, terms=12)):
                self.check(F, t, n)

    def test_shear_and_bend(self, rng):
        # t = u + a z + conj(a) zbar and u + b z^2 + conj(b) zbar^2 have terms
        # below u's weight; F is a complete polynomial
        n = 9
        for _ in range(3):
            for e in (1, 2):
                a = rand_gr(rng, nonzero=True)
                t = Series3.u_var(n) + Series3(n, {(e, 0, 0): a, (0, e, 0): a.conjugate()})
                for F in (rand_real_series3(rng, n, terms=12), rand_series3(rng, n, terms=12)):
                    self.check(F, t, n, polynomial=True)

    def test_band_and_copy(self, rng):
        # t = u plus real terms of weight >= 2 + d: the near-identity rule
        # copies and bands the high terms, and the rest goes by powers of t
        n = 10
        for d in (1, 2, 3):
            for _ in range(3):
                t = Series3.u_var(n) + above(rng, Series3, n, 2 + d, real=True)
                table = GraphTable(Series3.z_var(n), t, n)
                assert table.near[0] == d and [i for i, _ in table.near[1]] == [2]
                for F in (rand_real_series3(rng, n, terms=12), rand_series3(rng, n, terms=12)):
                    self.check(F, t, n)

    def test_holomorphic_into_z_and_w(self, rng):
        # f(z, W) with W = u + iF, as the transform's ingredients substitute
        n = 10
        z = Series3.z_var(n)
        for _ in range(3):
            F = Series3.hermitian_square(n) + rand_real_series3(rng, n, terms=8, min_weight=3)
            W = Series3.u_var(n) + F * I_UNIT
            table = PowerTable((z, W), n)
            assert table.lone
            rest = rand_series3(rng, n, terms=14)
            h = HoloSeries(n, {(j + k, l): v for (j, k, l), v in rest.c.items()})
            assert series_core._substitute(h, table) == naive_sum(h, (z, W), n)
            assert eval_holo3(h, z, W) == naive_sum(h, (z, W), n)

    def test_groups_that_cannot_reach_n(self, rng):
        # t of low weight 4 (above u's 2): a group F_l of low weight w is
        # skipped when w + 4l > n, here the lowest u-power group (l = 2) and
        # the others alike, so the result is zero; a zero t skips every l > 0
        n = 9
        t = Series3.hermitian_square(n) * Series3.u_var(n) + above(rng, Series3, n, 6, real=True)
        F = Series3(n, {(2, 1, 2): gr(1, 2), (1, 2, 2): gr(1, -2), (1, 0, 3): gr("1/3")})
        assert self.check(F, t, n).is_zero()
        G = F + Series3(n, {(1, 1, 1): gr(5), (0, 0, 1): gr(2), (3, 0, 0): gr(0, 1)})
        self.check(G, t, n)
        zero = self.check(G, Series3.zero(n), n, polynomial=True)
        assert zero == Series3(n, {(3, 0, 0): gr(0, 1)})

    def test_F_of_higher_order_than_the_table(self, rng):
        # F of order 8 into arguments of order 6: the table has order 6, and
        # a term whose variable part alone lies above 6, as z^7 or z^3 w^2,
        # adds nothing, in the group of every power of t or W
        z, u = Series3.z_var(6), Series3.u_var(6)
        F = Series3(8, {(2, 0, 0): gr(1), (7, 0, 0): gr(1)})
        assert eval_graph(F, z, u * 2) == Series3(6, {(2, 0, 0): gr(1)})
        high = {(7, 0, 0): gr(1), (0, 8, 0): gr(0, 2), (4, 3, 0): gr(3), (5, 2, 1): gr(-1)}
        zh = HoloSeries.z_var(6)
        for _ in range(3):
            F = rand_series3(rng, 8, terms=14) + Series3(8, high)
            t = u * rand_rat(rng, nonzero=True)
            assert GraphTable(z, t, 6).lone
            out = eval_graph(F, z, t)
            assert out.n == 6 and out == naive_sum(F, (z, z.conj(), t), 6)
            h = HoloSeries(8, {(j + k, l): v for (j, k, l), v in F.c.items()})
            wh = HoloSeries.w_var(6) * rand_gr(rng, nonzero=True)
            assert PowerTable((zh, wh), 6).lone
            out = eval_holo2(h, zh, wh)
            assert out.n == 6 and out == naive_sum(h, (zh, wh), 6)

    def test_other_tables_keep_heads(self):
        # a coefficient on z, an offset on z or a curve keeps the head grouping
        n = 8
        z, u = Series3.z_var(n), Series3.u_var(n)
        assert not GraphTable(z * 2, u, n).lone
        assert not GraphTable(z + u, u, n).lone
        assert not GraphTable(UPoly.var(n), UPoly.var(n), n).lone
        assert not PowerTable((UPoly.zero(n), UPoly.var(n)), n).lone


class TestCost:
    @pytest.fixture
    def products(self, monkeypatch):
        # every series product, in __mul__ or inside a substitution, runs
        # the one product loop once
        made = []
        mul = series_core._mul_into

        def counted(num, x, ys, n):
            made.append(type(x))
            return mul(num, x, ys, n)

        monkeypatch.setattr(series_core, "_mul_into", counted)
        return made

    def test_exact_variables_make_no_product(self, rng, products):
        n = 10
        table = GraphTable(Series3.z_var(n), Series3.u_var(n), n)
        for F in (rand_real_series3(rng, n, terms=12), rand_series3(rng, n, terms=12)):
            assert table(F) == F
        assert products == []

    def test_band_costs_one_product_per_argument(self, rng, products):
        # zs = z + c z^2 u has gap 3 and us = u none: at n = 10 the terms of
        # weight 8..10 are copied and those of weight 5..7 cost one product
        # for zs and one for conj(zs); anything lower builds heads
        n, d = 10, 3
        zs = Series3.z_var(n) + Series3.monomial(n, 2, 0, 1, rand_gr(rng, nonzero=True))
        us = Series3.u_var(n)
        table = GraphTable(zs, us, n)
        assert table.near[0] == d
        F = rand_series3(rng, n, terms=12) + rand_series3(rng, 5, terms=6).padded(n)
        top = sum((F.weight_part(w) for w in range(n - d + 1, n + 1)), Series3.zero(n))
        band = sum((F.weight_part(w) for w in range(n - 2 * d + 1, n - d + 1)), Series3.zero(n))
        rest = F - top - band
        assert not (top.is_zero() or band.is_zero() or rest.is_zero())
        assert table(top) == top
        assert products == []
        out = table(band)
        assert len(products) == sum(any(key[i] for key in band.c) for i in (0, 1)) > 0
        assert out == naive_sum(band, (zs, zs.conj(), us), n)
        del products[:]
        out = table(rest)
        assert products
        assert out == naive_sum(rest, (zs, zs.conj(), us), n)

    def test_variable_heads_cost_one_product_per_last_exponent(self, rng, products):
        # with the powers of t built, F(z, conj z, t) is one product
        # F_l * t^l per last exponent l > 0 (F_0 is added as it is), and no
        # head product is built: the factor of group l is the power t^l;
        # t = u + a z + conj(a) zbar has no near-identity gap
        n = 9
        a = rand_gr(rng, nonzero=True)
        t = Series3.u_var(n) + Series3(n, {(1, 0, 0): a, (0, 1, 0): a.conjugate()})
        table = GraphTable(Series3.z_var(n), t, n)
        assert table.lone and table.near == (0, [])
        for l in range(2, n + 1):
            table.power(2, l)
        for F in (rand_real_series3(rng, n, terms=12), rand_series3(rng, n, terms=12)):
            del products[:]
            out = series_core._substitute(F, table)
            assert len(products) == len({l for _, _, l in F.c} - {0}) > 0
            assert all(
                key[:2] == (0, 0) and table.heads[key][0] == table.power(2, key[2])
                for key in table.heads
            )
            assert out == naive_sum(F, (table.args[0], table.args[1], t), n)


class TestAccumulator:
    """``_substitute`` adds every part -- kept terms, band products, the
    zero-head group, each head times inner product and the mirrored groups'
    conjugate -- into one numerator dict over one denominator.  F's
    coefficients here have several different denominators, so most parts
    are rescaled on the way in."""

    @staticmethod
    def mixed(cls, n, coeffs):
        """The cls series with these {exponents: (re, im)} coefficients."""
        return cls(n, {key: gr(re, im) for key, (re, im) in coeffs.items()})

    def test_graph_table_every_part(self, rng):
        # gap 2 at n = 10: weights 9..10 kept, 7..8 band, <= 6 grouped
        n, d = 10, 2
        a, b = gr("2/3", "-1/7"), gr("-5/4", "3/10")
        F = self.mixed(Series3, n, {
            # kept (weights 9, 10) and band (7, 8)
            (5, 4, 0): ("1/11", 0), (4, 5, 0): ("1/11", 0), (3, 3, 2): ("5/9", 0),
            (4, 3, 0): ("3/5", "1/2"), (3, 4, 0): ("3/5", "-1/2"), (2, 2, 2): ("-7/6", 0),
            # zero head, a group without its mirror and a diagonal group
            (0, 0, 1): ("4/9", 0), (0, 0, 3): ("-1/5", 0), (3, 0, 1): ("1/13", 0),
            (1, 1, 1): ("7/2", 0),
        }) + Series3(n, {
            # a mirrored pair of groups, and a pair that is not mirrored
            (2, 1, 0): a, (1, 2, 0): a.conjugate(), (2, 1, 1): b, (1, 2, 1): b.conjugate(),
            (3, 1, 0): a, (1, 3, 0): a,
        })
        for _ in range(3):
            zs, us = graph_args(rng, n, d)
            table = GraphTable(zs, us, n)
            assert table.near[0] == d
            for G in (F, F + rand_series3(rng, n, terms=6)):
                expect = naive_sum(G, (zs, zs.conj(), us), n)
                assert table(G) == expect
                assert eval_graph(G, zs, us) == expect

    def test_holo_arguments_every_part(self, rng):
        # HoloSeries arguments z + h_z, w + h_w with gap 2: kept, band, the
        # pure-w (zero-head) group and head products, no mirroring
        n, d = 10, 2
        F = self.mixed(HoloSeries, n, {
            (10, 0): ("1/3", 0), (7, 1): ("2/5", "1/7"),
            (0, 4): ("-3/11", "1/2"), (5, 1): ("-5/3", "2/9"),
            (4, 1): ("5/6", 0), (2, 2): ("1/9", "-4/5"), (3, 0): ("7/13", 0),
            (0, 1): ("1/4", 0), (0, 2): ("-2/7", "1/3"), (1, 1): ("3/8", 0),
        })
        for _ in range(3):
            zs = HoloSeries.z_var(n) + above(rng, HoloSeries, n, 1 + d)
            ws = HoloSeries.w_var(n) + above(rng, HoloSeries, n, 2 + d)
            assert PowerTable((zs, ws), n).near[0] == d
            extra = HoloSeries(n, {(j + k, l): v for (j, k, l), v in rand_series3(rng, n).c.items()})
            for G in (F, F + extra):
                assert eval_holo2(G, zs, ws, polynomial=True) == naive_sum(G, (zs, ws), n)

    def test_upoly_arguments_every_part(self, rng):
        # a curve's mirror table (F real, or with one broken pair) and a
        # map pushed along a curve; UPoly arguments have no band
        n = 10
        a = gr("3/7", "1/5")
        F = self.mixed(Series3, n, {
            (1, 1, 0): (1, 0), (0, 0, 1): ("5/9", 0), (0, 0, 2): ("-1/6", 0),
            (3, 1, 0): ("2/11", "1/3"), (1, 3, 0): ("2/11", "-1/3"), (2, 0, 1): ("1/13", 0),
        }) + Series3(n, {(2, 1, 1): a, (1, 2, 1): a.conjugate()})
        h = self.mixed(HoloSeries, n, {
            (1, 0): (1, 0), (0, 1): ("1/3", 0), (2, 1): ("4/7", "-1/2"), (0, 3): ("1/11", 0),
        })
        for _ in range(3):
            high = UPoly(n, {2: gr(1)})
            phi = UPoly(n, {1: rand_gr(rng, nonzero=True)}) + high * rand_upoly(rng, n)
            psi = UPoly.var(n) + high * rand_upoly(rng, n)
            t = UPoly.var(n)
            for G in (F, F + Series3.monomial(n, 1, 2, 1, gr(1))):
                expect = naive_sum(G, (phi, phi.conjugate(), t), n)
                assert eval_curve(G, phi, polynomial=True) == expect
            assert eval_holo3(h, phi, psi, polynomial=True) == naive_sum(h, (phi, psi), n)
