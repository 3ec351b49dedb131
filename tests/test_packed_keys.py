"""The packed integer keys of the series classes.

Every key is one integer with the weight in its top field.  These tests pin
the layout at its limits, the exponent order of the edges (``terms``,
JSON), the key-arithmetic operations against definitions written here on the
exponent view ``c``, and the refusal of an order the fields cannot hold.
"""

import pytest

from conftest import rand_gr, rand_series3, rand_upoly

from moser_chains.errors import ParseError
from moser_chains.lie_jets import MAX_DEGREE, NVARS, VAR_NAMES, RPoly
from moser_chains.series_core import (
    HoloSeries,
    Series3,
    UPoly,
    holo_from_json,
    series3_from_json,
    series3_to_json,
)

WEIGHTS = {Series3: (1, 1, 2), HoloSeries: (1, 2), RPoly: (1,) * NVARS}


def weight(kind, exponents):
    if kind is UPoly:
        return exponents
    return sum(e * c for e, c in zip(exponents, WEIGHTS[kind]))


def rand_holo(rng, n, terms=6):
    c = {}
    for _ in range(terms):
        j = rng.randint(0, n)
        c[(j, rng.randint(0, (n - j) // 2))] = rand_gr(rng)
    return HoloSeries(n, c)


def rand_rpoly(rng, terms=6, max_deg=6):
    c = {}
    for _ in range(terms):
        key = [0] * NVARS
        for _ in range(rng.randint(0, max_deg)):
            key[rng.randrange(NVARS)] += 1
        c[tuple(key)] = rand_gr(rng)
    return RPoly(c)


def draws(rng):
    """Random series of every class with their exponent-keyed coefficients."""
    for _ in range(25):
        n = rng.randint(0, 9)
        for series in (rand_series3(rng, n, terms=8), rand_holo(rng, n), rand_upoly(rng, n, 5),
                       rand_rpoly(rng)):
            yield series, series.c


class TestLayout:
    @pytest.mark.parametrize(
        "kind, exponents",
        [(Series3, e) for e in ((255, 0, 0), (0, 255, 0), (0, 0, 127), (1, 2, 126), (0, 0, 0))]
        + [(HoloSeries, e) for e in ((255, 0), (0, 127), (1, 127))]
        + [(RPoly, tuple(63 if i == v else 0 for i in range(NVARS))) for v in range(NVARS)]
        + [(RPoly, (3,) * NVARS), (UPoly, 0), (UPoly, 10**6)],
    )
    def test_round_trip_at_largest_exponent(self, kind, exponents):
        key = kind._pack(exponents)
        assert kind._unpack(key) == exponents
        assert key >> kind._SHIFT == weight(kind, exponents)

    def test_sorted_keys_sort_by_weight(self, rng):
        for series, c in draws(rng):
            kind = type(series)
            keys = sorted(series.num)
            assert [k >> kind._SHIFT for k in keys] == sorted(weight(kind, e) for e in c)

    def test_product_stops_at_the_order(self):
        # a term of weight exactly n + 1 times the constant is the first pair
        # the sorted early exit must drop
        for kind, top in ((Series3, (6, 0, 0)), (HoloSeries, (0, 3)), (UPoly, 6)):
            a = kind(8, {top: 1})
            assert (a * kind.one(5)).is_zero() and (kind.one(5) * a).is_zero()
            assert (a * kind.one(6)).c == {top: 1}

    def test_products_at_the_largest_order(self):
        # no field carries into its neighbour at the top of the layout
        z, zb, u = Series3.z_var(255), Series3.zbar_var(255), Series3.u_var(255)
        zj = Series3.monomial(255, 200, 0, 0, 1) * Series3.monomial(255, 55, 0, 0, 1)
        assert zj.c == {(255, 0, 0): 1}
        ul = Series3.monomial(255, 0, 0, 100, 1) * Series3.monomial(255, 0, 0, 27, 1)
        assert ul.c == {(0, 0, 127): 1}
        assert (z * zb * u).c == {(1, 1, 1): 1}
        assert (zj * z).is_zero() and (ul * z).c == {(1, 0, 127): 1}
        assert zj.conj().c == {(0, 255, 0): 1}
        h = HoloSeries(255, {(254, 0): 1}) * HoloSeries.z_var(255)
        assert h.c == {(255, 0): 1} and h.diff("z").c == {(254, 0): 255}
        p = RPoly.var("b2", 24) * RPoly.var("b2", 24)
        assert p.c == {(0,) * (NVARS - 1) + (MAX_DEGREE,): 1} and p.degree() == MAX_DEGREE


class TestEdgeOrder:
    def test_terms_and_json_sort_by_exponents(self, rng):
        for series, c in draws(rng):
            assert [e for e, _ in series.terms()] == sorted(c)
            assert dict(series.terms()) == c
            if isinstance(series, Series3):
                coeffs = series3_to_json(series)["coeffs"]
                assert [(t["j"], t["k"], t["l"]) for t in coeffs] == sorted(c)
                assert series3_from_json(series3_to_json(series)) == series

    def test_coeff_reads_exponents(self, rng):
        for series, c in draws(rng):
            for e, v in c.items():
                assert series.coeff(e) == v
            assert series.c == {e: series.coeff(e) for e in c}


class TestKeyArithmetic:
    """Each operation against its definition on the exponent view ``c``."""

    def test_weight_filters(self, rng):
        for series, c in draws(rng):
            kind, n = type(series), series.n
            ws = [weight(kind, e) for e in c]
            assert series.low_weight() == (min(ws) if ws else None)
            for w in range(-1, n + 2):
                part = series.weight_part(w)
                assert part.c == {e: v for e, v in c.items() if weight(kind, e) == w}
                if kind is RPoly and 0 <= w < MAX_DEGREE:
                    # an RPoly has the one order MAX_DEGREE: a lower cut is refused
                    with pytest.raises(ParseError):
                        series.truncate(w)
                elif 0 <= w:
                    cut = series.truncate(w)
                    assert cut.c == {e: v for e, v in c.items() if weight(kind, e) <= w}
                    assert cut.n == min(n, w)
                if kind is Series3:
                    assert series.up_to_weight(w).c == {
                        e: v for e, v in c.items() if weight(kind, e) <= w
                    }

    def test_conj_is_real_slice(self, rng):
        for _ in range(60):
            n = rng.randint(0, 10)
            F = rand_series3(rng, n, terms=8)
            c = F.c
            conj = {(k, j, l): v.conjugate() for (j, k, l), v in c.items()}
            assert F.conj().c == conj
            assert F.is_real() == (conj == c)
            real = F + F.conj()
            assert real.is_real() and real.conj() == real
            for j in range(n + 1):
                for k in range(n + 1 - j):
                    part = F.slice_jk(j, k)
                    assert part.n == (n - j - k) // 2
                    assert part.c == {l: v for (jj, kk, l), v in c.items() if (jj, kk) == (j, k)}

    def test_derivatives(self, rng):
        for _ in range(40):
            n = rng.randint(1, 10)
            h = rand_holo(rng, n)
            c = h.c
            assert h.diff("z").c == {(j - 1, l): v * j for (j, l), v in c.items() if j}
            assert h.diff("w").c == {(j, l - 1): v * l for (j, l), v in c.items() if l}
            p = rand_rpoly(rng)
            c = p.c
            for i, name in enumerate(VAR_NAMES):
                ref = {e[:i] + (e[i] - 1,) + e[i + 1 :]: v * e[i] for e, v in c.items() if e[i]}
                assert p.diff(name).c == ref
                assert p.uses_var(name) == any(e[i] for e in c)
            assert p.vars_used() == {VAR_NAMES[i] for e in c for i in range(NVARS) if e[i]}
            assert p.degree() == max(map(sum, c), default=0)


class TestOrderLimit:
    @pytest.mark.parametrize("kind", [Series3, HoloSeries])
    def test_largest_order_is_accepted(self, kind):
        assert kind.z_var(255).n == 255
        assert kind.z_var(8).padded(255).n == 255

    @pytest.mark.parametrize("kind", [Series3, HoloSeries])
    def test_order_beyond_layout_is_refused(self, kind):
        with pytest.raises(ParseError, match="largest its keys hold"):
            kind(256)
        with pytest.raises(ParseError, match="largest its keys hold"):
            kind.z_var(256)
        with pytest.raises(ParseError, match="largest its keys hold"):
            kind.z_var(8).padded(256)

    def test_refused_at_every_edge(self):
        with pytest.raises(ParseError, match="largest its keys hold"):
            series3_from_json({"trunc_order": 300, "coeffs": [{"j": 1, "k": 1, "l": 0, "re": "1"}]})
        with pytest.raises(ParseError, match="largest its keys hold"):
            holo_from_json([{"j": 300, "l": 0, "re": "1"}], 300)
        with pytest.raises(ParseError, match="largest its keys hold"):
            HoloSeries.from_w_series(UPoly.var(200), 400)
        with pytest.raises(ParseError, match="largest its keys hold"):
            UPoly.var(200).compose(UPoly.var(200))

    def test_upoly_has_no_limit(self):
        t = UPoly.var(1000)
        assert (t * t).c == {2: 1} and UPoly.one(1000).padded(5000).n == 5000
