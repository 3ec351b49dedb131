"""Substitution-table entries built only to the weight their reader needs.

``PowerTable.power(i, e, m)`` and ``head(key, m)`` build an entry through the
product loop to weight min(m, the operands' orders) and keep it with m; a
later read to a higher weight rebuilds it.  ``_substitute`` reads a group's
head to n - min(l) * low(t) and the powers of t to n - low(head), with
low(x_i^e) = e * low(x_i) taken from the key.  With near-identity arguments
of gap d >= 1, an F whose every term lies above n - d is returned as
``F.padded(n)``.  Each test compares with the full-order entries of a fresh
table or with the term-by-term sum ``TestSubstitution.naive_sum``.
"""

from math import inf

import pytest

from conftest import rand_gr, rand_real_series3, rand_series3, rand_upoly

import test_near_identity
import test_series_core

from moser_chains import series_core
from moser_chains.lie_jets import MAX_DEGREE, VAR_NAMES, RPoly
from moser_chains.series_core import (
    GraphTable,
    HoloSeries,
    PowerTable,
    Series3,
    UPoly,
    eval_graph,
    eval_holo3,
    gr,
)

naive_sum = test_series_core.TestSubstitution.naive_sum
graph_args = test_near_identity.graph_args
above = test_near_identity.above


def cut(series, m):
    """The terms of series of weight <= m, as a series of order m.  Unlike
    ``truncate`` it takes any order, as an ``RPoly`` entry read below
    ``MAX_DEGREE`` has one."""
    return series_core._reduced_series(
        type(series), m, series.d, dict(series_core._items_to(series, m))
    )


def table_args(rng, cls, m):
    """Arguments of cls at order m for a PowerTable: one per exponent of a
    key of cls, random but for RPoly's small polynomials."""
    if cls is RPoly:
        x, y, u = (RPoly.var(name) for name in ("x", "y", "u"))
        return [RPoly.var(name) * rand_gr(rng, nonzero=True) + x * y * rand_gr(rng) + u * u
                for name in VAR_NAMES]
    if cls is UPoly:
        return [UPoly.var(m) + rand_upoly(rng, m, terms=4) for _ in range(2)]
    series = [Series3.z_var(m) * rand_gr(rng, nonzero=True) + rand_series3(rng, m, terms=5)
              for _ in range(3)]
    if cls is HoloSeries:
        return [HoloSeries(m, {(j + k, l): v for (j, k, l), v in s.c.items()}) for s in series[:2]]
    return series


class TestReadOrders:
    @pytest.mark.parametrize("cls", [Series3, HoloSeries, UPoly, RPoly])
    def test_low_read_is_the_full_entry_truncated(self, rng, cls):
        # an entry read to weight m is built to exactly m and agrees with
        # the full-order entry of a fresh table through m
        n = MAX_DEGREE if cls is RPoly else 8
        args = table_args(rng, cls, n)
        full = PowerTable(args, n)
        reads = (0, 3, 7, 20, n) if cls is RPoly else range(n + 1)
        keys = [(2, 0), (3, 0), (0, 2), (1, 1), (2, 1)] if len(args) <= 3 else [
            (2,) + (0,) * 9, (1, 0, 2) + (0,) * 7, (0,) * 9 + (3,), (1,) * 10]
        for m in reads:
            # fresh tables, and the higher power first, so that each entry
            # is built from entries read below m
            table = PowerTable(args, n)
            for i in range(len(args)):
                for e in (3, 2):
                    low, whole = table.power(i, e, m), full.power(i, e)
                    assert low.n == m and whole.n == n
                    assert cut(low, m) == cut(whole, m)
            table = PowerTable(args, n)
            for key in keys:
                low = table.head(key[:len(args) - 1], m)
                assert cut(low, m) == cut(full.head(key[:len(args) - 1]), m)

    def test_graph_table_conjugate_slot(self, rng):
        # the conjugate slot's powers and heads k > j are conjugates of
        # entries read to the same weight
        n = 9
        x = Series3.z_var(n) * gr(2, 1) + rand_series3(rng, n, terms=6)
        t = Series3.u_var(n) + rand_real_series3(rng, n, terms=4, min_weight=3)
        full = GraphTable(x, t, n)
        for m in range(n + 1):
            table = GraphTable(x, t, n)
            for e in (2, 3, 4):
                low = table.power(1, e, m)
                assert low.n == m and low == cut(full.power(1, e), m)
                assert low == table.power(0, e, m).conj()
            for key in ((0, 2), (1, 2), (1, 3), (2, 3)):
                low = table.head(key, m)
                assert low == cut(full.head(key), m)
                assert low == table.head(key[::-1], m).conj()

    def test_curve_table_conjugate_slot(self, rng):
        n = 8
        phi = UPoly(n, {1: gr(1, -2)}) + UPoly(n, {2: gr(1)}) * rand_upoly(rng, n)
        full = GraphTable(phi, UPoly.var(n), n)
        for m in range(n + 1):
            table = GraphTable(phi, UPoly.var(n), n)
            assert table.power(1, 3, m) == cut(full.power(1, 3), m)
            assert table.head((1, 2), m) == cut(full.head((1, 2)), m)


class TestRebuild:
    def test_higher_read_rebuilds_the_entry_and_its_powers(self, rng):
        n = 10
        # x has low weight 1, so x^3 read to m reads x^2 to m - 1
        x = Series3.z_var(n) * gr(1, 1) + rand_series3(rng, n, terms=6)
        x = x - Series3.monomial(n, 0, 0, 0, x.coeff(0, 0, 0))
        t = Series3.u_var(n) + rand_real_series3(rng, n, terms=4, min_weight=3)
        table, fresh = GraphTable(x, t, n), GraphTable(x, t, n)
        assert table.power(0, 3, 4).n == 4
        assert (table.pows[0][2][1], table.pows[0][3][1]) == (3, 4)
        # a read with no weight is a full one, kept with weight inf
        assert table.power(0, 3) == fresh.power(0, 3)
        assert (table.pows[0][2][1], table.pows[0][3][1]) == (inf, inf)
        # a lower read after a full one returns the full entry
        assert table.power(0, 3, 2) is table.power(0, 3)

    def test_interleaved_substitutions_match_a_fresh_table(self, rng):
        # the first F reads the head (2, 1) to n - 3 * low(t) and u^3 to
        # n - low(z zbar), the most its groups (1, 1) and (2, 1) need; the
        # second reads both at n, which rebuilds them
        n = 11
        for _ in range(3):
            x = Series3.z_var(n) * rand_gr(rng, nonzero=True) + rand_series3(rng, n, terms=5)
            x = x - Series3.monomial(n, 0, 0, 0, x.coeff(0, 0, 0))
            t = Series3.u_var(n) + rand_real_series3(rng, n, terms=3, min_weight=3)
            low_first = Series3(n, {(2, 1, 3): gr(1, 2), (1, 2, 3): gr(1, -2), (1, 1, 3): gr(3)})
            full_next = Series3(n, {(2, 1, 0): gr(2), (1, 2, 0): gr(2), (0, 0, 3): gr(-1)})
            table = GraphTable(x, t, n)
            assert table(low_first) == eval_graph(low_first, x, t)
            assert table.heads[2, 1][1] == n - 6
            assert table.pows[2][3][1] == n - 2
            for F in (full_next, low_first + full_next, low_first):
                assert table(F) == GraphTable(x, t, n)(F) == naive_sum(F, (x, x.conj(), t), n)
            assert table.heads[2, 1][1] == table.pows[2][3][1] == n

    def test_rebuilt_holo_substitution(self, rng):
        # the first F reads z^2 and w^3 below n, the second reads both at n
        n = 10
        zs = HoloSeries(n, {(1, 0): gr(2), (2, 0): gr(1, 1), (1, 1): gr(-1)})
        ws = HoloSeries(n, {(0, 1): gr(3), (2, 1): gr(0, 1)})
        table = PowerTable((zs, ws), n)
        first = HoloSeries(n, {(2, 3): gr(1), (4, 1): gr(-2)})
        second = HoloSeries(n, {(2, 0): gr(5), (0, 3): gr(1, 1)})
        for F in (first, second, first + second):
            out = series_core._substitute(F, table)
            assert out == eval_holo3(F, zs, ws, polynomial=True) == naive_sum(F, (zs, ws), n)


class TestShortArguments:
    @pytest.mark.parametrize("cls", [Series3, HoloSeries, UPoly])
    def test_no_entry_outgrows_the_full_product(self, rng, cls):
        # arguments of order m < n: an entry read to any weight is at most
        # as long as cls.one(n) * arg * arg and agrees with it
        n = 8
        for m in (n - 1, n - 3):
            args = table_args(rng, cls, m)
            for r in range(n + 1):
                table = PowerTable(args, n)
                for i, arg in enumerate(args):
                    full = cls.one(n) * arg * arg
                    entry = table.power(i, 2, r)
                    assert entry.n == min(r, m) <= full.n
                    assert entry == cut(full, entry.n)
                head = table.head((2, 1)[: len(args) - 1], r)
                assert head.n <= m

    def test_graph_table_heads(self, rng):
        n = 9
        x = Series3.z_var(n - 2) * gr(1, 3) + rand_series3(rng, n - 2, terms=5)
        t = Series3.u_var(n) + rand_real_series3(rng, n, terms=3, min_weight=3)
        for r in range(n + 1):
            table = GraphTable(x, t, n)
            for key in ((1, 1), (2, 1), (1, 2)):
                head = table.head(key, r)
                j, k = key
                full = Series3.one(n)
                for _ in range(j):
                    full = full * x
                for _ in range(k):
                    full = full * x.conj()
                assert head.n == min(r, n - 2) <= full.n
                assert head == cut(full, head.n)


class TestCopyRule:
    @pytest.fixture
    def products(self, monkeypatch):
        made = []
        mul = series_core._mul_into

        def counted(num, x, ys, n):
            made.append(type(x))
            return mul(num, x, ys, n)

        monkeypatch.setattr(series_core, "_mul_into", counted)
        return made

    def test_terms_above_n_minus_d_are_copied(self, rng, products):
        n = 12
        for d in (1, 2, 3, n + 1):
            zs, us = graph_args(rng, n, d)
            table = GraphTable(zs, us, n)
            assert table.near[0] == d
            for top in (n, n + 3):
                F = above(rng, Series3, top, n - d + 1) if d <= n else rand_series3(rng, top, 9)
                del products[:]
                assert table(F.truncate(n)) == F.padded(n)
                assert series_core._substitute(F, table) == F.padded(n)
                assert table(Series3.zero(n)) == Series3.zero(n)
                assert products == []

    def test_holo_terms_above_n_minus_d_are_copied(self, rng, products):
        n, d = 10, 2
        zs = HoloSeries.z_var(n) + above(rng, HoloSeries, n, 1 + d)
        ws = HoloSeries.w_var(n) + above(rng, HoloSeries, n, 2 + d)
        F = above(rng, HoloSeries, n, n - d + 1)
        del products[:]
        assert eval_holo3(F, zs, ws, polynomial=True) == F
        assert products == []

    def test_one_term_at_n_minus_d_goes_through_the_band(self, rng, products):
        n, d = 12, 2
        zs, us = graph_args(rng, n, d)
        table = GraphTable(zs, us, n)
        for key in ((n - d, 0, 0), (n - d - 4, 2, 1), (1, 1, (n - d - 2) // 2)):
            F = above(rng, Series3, n, n - d + 1) + Series3.monomial(n, *key, gr(1, 1))
            del products[:]
            out = table(F)
            assert products
            assert out == naive_sum(F, (zs, zs.conj(), us), n)
            assert out != F.padded(n)
