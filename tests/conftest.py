"""Shared random generators for the test suite.

Property tests use seeded random.Random instances so failures reproduce.
Coefficients are kept small (numerators/denominators of a few digits) so the
exact pipelines stay fast.
"""

import importlib.util
import random

from fractions import Fraction
from pathlib import Path

import pytest

from moser_chains.lie_jets import RPoly, VectorField
from moser_chains.series_core import GaussianRational, Series3, UPoly

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def load_gen():
    """The benchmark's surface generator, ``perfbench/gen.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def rand_rat(rng, num=6, den=4, nonzero=False):
    while True:
        q = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if q or not nonzero:
            return q


def rand_gr(rng, num=6, den=4, nonzero=False):
    while True:
        v = GaussianRational(rand_rat(rng, num, den), rand_rat(rng, num, den))
        if v or not nonzero:
            return v


def rand_upoly(rng, n, terms=4):
    c = {}
    for _ in range(terms):
        m = rng.randint(0, n)
        c[m] = rand_gr(rng)
    return UPoly(n, c)


def rand_series3(rng, n, terms=6):
    """Random sparse Series3 (not necessarily real)."""
    c = {}
    for _ in range(terms):
        j = rng.randint(0, n)
        k = rng.randint(0, n - j)
        l = rng.randint(0, (n - j - k) // 2)
        c[(j, k, l)] = rand_gr(rng)
    return Series3(n, c)


def rand_real_series3(rng, n, terms=5, min_weight=0):
    """Random sparse *real* (Hermitian) Series3 with weights >= min_weight."""
    c = {}
    for _ in range(terms):
        for _ in range(200):
            j = rng.randint(0, n)
            k = rng.randint(0, n - j)
            lmax = (n - j - k) // 2
            l = rng.randint(0, lmax)
            if j + k + 2 * l >= min_weight:
                break
        v = rand_gr(rng)
        if j == k:
            v = GaussianRational(v.real)  # diagonal coefficients must be real
        cur = c.get((j, k, l), GaussianRational())
        c[(j, k, l)] = cur + v
        cc = c.get((k, j, l), GaussianRational())
        if (k, j, l) != (j, k, l):
            c[(k, j, l)] = cc + v.conjugate()
    return Series3(n, c)


def rand_rpoly(rng, names=("u", "x", "y"), max_deg=3, terms=3):
    p = RPoly.zero()
    for _ in range(terms):
        term = RPoly.const(rand_rat(rng))
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            term = term * RPoly.var(rng.choice(names))
        p = p + term
    return p


def rand_intrinsic(rng, max_deg=2, terms=2):
    return VectorField(
        {name: rand_rpoly(rng, max_deg=max_deg, terms=terms) for name in ("u", "x", "y")}
    )


@pytest.fixture
def rng():
    return random.Random(20260822)
