"""RPoly against references built without the substitution core, and its
degree guard."""

from fractions import Fraction
from math import prod

import pytest

from conftest import rand_rat

from moser_chains.errors import InternalInvariantError
from moser_chains.lie_jets import MAX_DEGREE, NVARS, VAR_NAMES, RPoly
from moser_chains.series_core import HoloSeries, eval_holo3

# b2 is the last key slot, which the substitution core treats apart
NAMES = ("u", "x", "y", "x1", "b2")


def V(name, power=1):
    return RPoly.var(name, power)


def rand_coeffs(rng, names, max_deg=4, terms=5):
    """A random {key: Fraction} dict in the given variables."""
    coeffs = {}
    for _ in range(terms):
        key = [0] * NVARS
        for _ in range(rng.randint(0, max_deg)):
            key[VAR_NAMES.index(rng.choice(names))] += 1
        coeffs[tuple(key)] = rand_rat(rng)
    return coeffs


class TestIndependentReference:
    def test_evaluate_matches_naive_sum(self, rng):
        for _ in range(40):
            coeffs = rand_coeffs(rng, NAMES)
            # names left out of the point count as 0
            point = {nm: rand_rat(rng) for nm in rng.sample(NAMES, rng.randint(1, len(NAMES)))}
            vals = [Fraction(point.get(nm, 0)) for nm in VAR_NAMES]
            naive = sum(
                (c * prod(v**e for v, e in zip(vals, key)) for key, c in coeffs.items()),
                Fraction(0),
            )
            assert RPoly(coeffs).evaluate(point) == naive

    def test_subs_matches_repeated_products(self, rng):
        for _ in range(30):
            coeffs = rand_coeffs(rng, NAMES, max_deg=3, terms=4)
            mapping = {
                nm: RPoly(rand_coeffs(rng, ("x", "y", "a2", "b2"), max_deg=2, terms=3))
                for nm in rng.sample(NAMES, 3)
            }
            mapping[rng.choice(NAMES)] = rand_rat(rng)
            args = {nm: RPoly.const(v) if isinstance(v, Fraction) else v for nm, v in mapping.items()}
            expected = RPoly.zero()
            for key, c in coeffs.items():
                term = RPoly.const(c)
                for nm, e in zip(VAR_NAMES, key):
                    for _ in range(e):
                        term = term * args.get(nm, V(nm))
                expected = expected + term
            assert RPoly(coeffs).subs(mapping) == expected


class TestDegreeGuard:
    def test_product_past_max_degree_raises(self):
        with pytest.raises(InternalInvariantError):
            V("x", 30) * V("y", 30)

    def test_subs_past_max_degree_raises(self):
        with pytest.raises(InternalInvariantError):
            V("x", 25).subs({"x": V("y", 2)})
        assert V("x", 24).subs({"x": V("y", 2)}) == V("y", MAX_DEGREE)

    def test_subs_guard_sees_terms_the_core_prunes(self):
        # every power stays within MAX_DEGREE, but x * b2^24 becomes
        # y^2 * u^48 of degree 50; the core would drop it as past the order
        p = V("x") * V("b2", 24)
        with pytest.raises(InternalInvariantError):
            p.subs({"x": V("y", 2), "b2": V("u", 2)})

    def test_eval_holo3_past_max_degree_raises(self):
        with pytest.raises(InternalInvariantError):
            eval_holo3(HoloSeries(25, {(25, 0): 1}), V("y", 2), V("u"), polynomial=True)
        got = eval_holo3(HoloSeries(24, {(24, 0): 1}), V("y", 2), V("u"), polynomial=True)
        assert got == V("y", MAX_DEGREE)
