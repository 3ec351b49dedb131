"""Exact input has one gate: every entry point refuses a non-exact scalar, a
bad order or a bad exponent key with ParseError and accepts an int, a
Fraction or a GaussianRational.  A pipeline entry point also refuses an
argument of the wrong type with ParseError."""

from fractions import Fraction

import pytest

from moser_chains.errors import ParseError
from moser_chains.lie_jets import MAX_DEGREE, NVARS, RPoly
from moser_chains.normalize import (
    Biholo,
    Hypersurface,
    find_chain_curve,
    fundamental_identity_residual,
    graph_transform,
    isotropy_map,
    normalize_hypersurface,
    translate_to_point,
)
from moser_chains.series_core import (
    GaussianRational,
    HoloSeries,
    Series3,
    UPoly,
    gr,
    holo_from_json,
    series3_from_json,
)

# a real graph with a u-dependent height, so every coordinate matters
_SURFACE = Hypersurface(Series3(4, {(1, 1, 0): 1, (0, 0, 2): 1}))

#: entry points that take one scalar; the values below are all real, so
#: each entry accepts every good one
SCALAR_ENTRIES = {
    "GaussianRational re": lambda v: GaussianRational(v),
    "GaussianRational im": lambda v: GaussianRational(1, v),
    "gr re": lambda v: gr(v),
    "gr im": lambda v: gr(0, v),
    "Series3()": lambda v: Series3(4, {(1, 1, 0): v}),
    "HoloSeries()": lambda v: HoloSeries(4, {(1, 0): v}),
    "UPoly()": lambda v: UPoly(4, {1: v}),
    "RPoly()": lambda v: RPoly({(0,) * NVARS: v}),
    "Series3 * v": lambda v: Series3.one(4) * v,
    "v * Series3": lambda v: v * Series3.one(4),
    "HoloSeries * v": lambda v: HoloSeries.one(4) * v,
    "UPoly * v": lambda v: UPoly.one(4) * v,
    "RPoly * v": lambda v: RPoly.var("x") * v,
    "RPoly.const": lambda v: RPoly.const(v),
    "RPoly + v": lambda v: RPoly.var("x") + v,
    "v + RPoly": lambda v: v + RPoly.var("x"),
    "isotropy_map lambda": lambda v: isotropy_map(v, 0, 0, 4),
    "isotropy_map alpha": lambda v: isotropy_map(1, v, 0, 4),
    "isotropy_map r": lambda v: isotropy_map(1, 0, v, 4),
    "translate_to_point z0": lambda v: translate_to_point(_SURFACE, v, 0),
    "translate_to_point u0": lambda v: translate_to_point(_SURFACE, 0, v),
    "translate_to_point v0": lambda v: translate_to_point(_SURFACE, 0, 0, v),
}

#: entry points that take one order; the three map entries need an order >= 1
ORDER_ENTRIES = {
    "Series3()": lambda n: Series3(n),
    "HoloSeries()": lambda n: HoloSeries(n),
    "UPoly()": lambda n: UPoly(n, {1: 1}),
    "Series3.zero": lambda n: Series3.zero(n),
    "Series3.one": lambda n: Series3.one(n),
    "HoloSeries.z_var": lambda n: HoloSeries.z_var(n),
    "UPoly.var": lambda n: UPoly.var(n),
    "Series3.padded": lambda n: Series3.one(4).padded(n),
    "UPoly.padded": lambda n: UPoly.one(4).padded(n),
    "HoloSeries.from_w_series": lambda n: HoloSeries.from_w_series(UPoly.var(4), n),
    "series3_from_json": lambda n: series3_from_json({"trunc_order": n, "coeffs": []}),
    "holo_from_json": lambda n: holo_from_json([], n),
    "Hypersurface.sphere": lambda n: Hypersurface.sphere(n),
    "isotropy_map": lambda n: isotropy_map(1, 0, 0, n),
    "Biholo.identity": lambda n: Biholo.identity(n),
    "Biholo.from_json": lambda n: Biholo.from_json({"trunc_order": n}),
}

BAD_SCALARS = (0.5, 0.5j, None, "x")
GOOD_SCALARS = (3, Fraction(-2, 3), gr("5/7"))
BAD_ORDERS = (1.5, 4.0, -1, "4", True)
GOOD_ORDERS = (2, 6)

# v0=None is translate_to_point's "no height given"
_REFUSED = [
    ("scalar", name, v)
    for name in SCALAR_ENTRIES
    for v in BAD_SCALARS
    if not (name.endswith("v0") and v is None)
] + [("order", name, n) for name in ORDER_ENTRIES for n in BAD_ORDERS]


@pytest.mark.parametrize("kind, entry, value", _REFUSED)
def test_refused_with_parse_error(kind, entry, value):
    call = (SCALAR_ENTRIES if kind == "scalar" else ORDER_ENTRIES)[entry]
    with pytest.raises(ParseError):
        call(value)


@pytest.mark.parametrize("entry", [e for e in SCALAR_ENTRIES if not e.endswith("v0")])
def test_exact_scalars_accepted(entry):
    for value in GOOD_SCALARS:
        SCALAR_ENTRIES[entry](value)


def test_exact_height_accepted():
    # the height of _SURFACE over (0, u0) is u0^2
    for u0, v0 in ((0, 0), (0, Fraction(0)), (0, gr(0)), (3, 9), (Fraction(1, 2), gr("1/4"))):
        translate_to_point(_SURFACE, 0, u0, v0)


@pytest.mark.parametrize("entry", list(ORDER_ENTRIES))
def test_integer_orders_accepted(entry):
    for n in GOOD_ORDERS:
        ORDER_ENTRIES[entry](n)


@pytest.mark.parametrize("entry", ["isotropy_map", "Biholo.identity", "Biholo.from_json"])
def test_order_zero_map_refused(entry):
    # a map carries f at order n - 1, so its order is at least 1; the
    # refusal names the order the caller passed, not f's n - 1
    for n in (0, -1):
        with pytest.raises(ParseError, match=r"map order must be an integer >= 1, not %d$" % n):
            ORDER_ENTRIES[entry](n)
    ORDER_ENTRIES[entry](1)


_SPHERE = Hypersurface.sphere(8)
_IDENTITY = Biholo.identity(8)

#: pipeline entry points called with one argument of the wrong type
WRONG_TYPES = {
    "normalize_hypersurface M": lambda: normalize_hypersurface("x"),
    "normalize_hypersurface Series3": lambda: normalize_hypersurface(_SPHERE.series),
    "normalize_hypersurface curve": lambda: normalize_hypersurface(_SPHERE, curve=UPoly.var(4)),
    "graph_transform map": lambda: graph_transform(_SPHERE, "h"),
    "graph_transform M": lambda: graph_transform(_SPHERE.series, _IDENTITY),
    "fundamental_identity_residual map": lambda: fundamental_identity_residual(
        _SPHERE, "h", _SPHERE
    ),
    "fundamental_identity_residual target": lambda: fundamental_identity_residual(
        _SPHERE, _IDENTITY, _SPHERE.series
    ),
    "translate_to_point M": lambda: translate_to_point(_SPHERE.series, 0, 0),
    "find_chain_curve M": lambda: find_chain_curve(_SPHERE.series),
}


@pytest.mark.parametrize("entry", list(WRONG_TYPES))
def test_wrong_type_refused_with_parse_error(entry):
    with pytest.raises(ParseError):
        WRONG_TYPES[entry]()


def test_complex_part_refused():
    # a part must be real: a non-real GaussianRational has no real value to take
    for call in (lambda: GaussianRational(gr(1, 2)), lambda: gr(1, gr(0, 1))):
        with pytest.raises(ParseError):
            call()


def test_exact_values_agree():
    """The gate maps equal exact values to equal scalars and series."""
    assert GaussianRational(Fraction(2, 4), 3) == gr("1/2", 3) == GaussianRational(gr("1/2"), 3)
    assert Series3.one(4) * Fraction(3) == Series3.one(4) * 3 == Series3.one(4) * gr(3)
    assert RPoly.var("x") + Fraction(1, 2) == RPoly.var("x") + gr("1/2")


#: constructors that take one exponent key, and a good key for each
KEY_ENTRIES = {
    "UPoly()": (lambda key: UPoly(4, {key: 1}), 2),
    "Series3()": (lambda key: Series3(4, {key: 1}), (1, 1, 0)),
    "HoloSeries()": (lambda key: HoloSeries(4, {key: 1}), (1, 0)),
    "RPoly()": (lambda key: RPoly({key: 1}), (1,) + (0,) * (NVARS - 1)),
}


def _bad_keys(good):
    """Keys that differ from a good one in one way: a float, bool, string or
    negative exponent, one field short or one too many, or a bare/tuple
    mismatch."""
    if not isinstance(good, tuple):
        return [1.5, True, "2", -1, (good,), None]
    rest = good[1:]
    return [(1.5,) + rest, (True,) + rest, ("1",) + rest, (-1,) + rest,
            good[:-1], good + (0,), good[0]]


_BAD_KEYS = [(name, key) for name, (_, good) in KEY_ENTRIES.items() for key in _bad_keys(good)]


@pytest.mark.parametrize("entry, key", _BAD_KEYS)
def test_bad_key_refused_with_parse_error(entry, key):
    with pytest.raises(ParseError):
        KEY_ENTRIES[entry][0](key)


@pytest.mark.parametrize("entry", list(KEY_ENTRIES))
def test_good_key_accepted(entry):
    make, good = KEY_ENTRIES[entry]
    series = make(good)
    assert series.coeff(good) == 1 and len(series.num) == 1


def test_rpoly_key_past_max_degree_refused():
    # an RPoly is exact through MAX_DEGREE, so the constructor refuses a key
    # past it instead of dropping it as a series drops a term past its order
    with pytest.raises(ParseError):
        RPoly({(MAX_DEGREE + 1,) + (0,) * (NVARS - 1): 1})
    assert RPoly({(MAX_DEGREE,) + (0,) * (NVARS - 1): 1}).degree() == MAX_DEGREE
    assert Series3(4, {(5, 0, 0): 1}).is_zero()


def test_rpoly_zero_takes_no_order():
    assert RPoly.zero() == RPoly() and RPoly.zero().is_zero()
    for n in (4, "4", -1):
        with pytest.raises(TypeError):
            RPoly.zero(n)


def test_rpoly_order_is_max_degree():
    # an RPoly lives at order MAX_DEGREE: at a lower one a product would drop
    # its terms silently (RPoly.one(4) * RPoly.var("x", 5) was zero)
    x = RPoly.var("x")
    for m in (0, 4, MAX_DEGREE - 1, MAX_DEGREE + 1, 4.0, True):
        with pytest.raises(ParseError):
            RPoly.one(m)
        with pytest.raises(ParseError):
            x.padded(m)
    for m in (0, 4, MAX_DEGREE - 1, 4.0, True):
        with pytest.raises(ParseError):
            x.truncate(m)
    # a cut at or above the order keeps the series, as for every series
    assert x.truncate(MAX_DEGREE) == x.truncate(MAX_DEGREE + 1) == x.padded(MAX_DEGREE) == x
    assert RPoly.one(MAX_DEGREE) == RPoly.const(1)
    assert (RPoly.one(MAX_DEGREE) * RPoly.var("x", 5)).degree() == 5
    assert x.subs({"x": RPoly.var("y") + 1}) == RPoly.var("y") + 1


def test_truncate_below_zero_refused():
    for series in (Series3.one(4), HoloSeries.one(4), UPoly.one(4)):
        with pytest.raises(ParseError):
            series.truncate(-1)
