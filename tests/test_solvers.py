"""The one series solver ``fixed_point`` and the stage equations solved with
it, checked from outside: the rotation and reparametrization maps satisfy
their defining equations, and the symbolic half's degree guard covers every
substitution route."""

import pytest

from conftest import rand_gr, rand_rat

from moser_chains.errors import InternalInvariantError
from moser_chains.lie_jets import RPoly
from moser_chains.normalize import Hypersurface, kill_f22_rotation, kill_f33_reparam
from moser_chains.series_core import (
    HALF,
    I_UNIT,
    HoloSeries,
    Series3,
    UPoly,
    eval_holo3,
    fixed_point,
    gr,
)


class TestFixedPoint:
    def test_step_that_never_settles_raises(self):
        one = UPoly.one(4)
        with pytest.raises(InternalInvariantError, match="never settles"):
            fixed_point(lambda x: x + one, UPoly.zero(4), "never settles")

    def test_geometric_series(self):
        one, t = UPoly.one(6), UPoly.var(6)
        got = fixed_point(lambda x: one + t * x, one, "geometric")
        assert got == UPoly(6, {m: gr(1) for m in range(7)})


def _slice_surface(rng, n, slices):
    """z zbar plus random real u-slices F_{j,j}(u) for j in slices (real
    coefficients) and a random F_{4,2} slice with its conjugate F_{2,4}."""
    c = {(1, 1, 0): gr(1)}
    for j in slices:
        for l in range((n - 2 * j) // 2 + 1):
            c[(j, j, l)] = gr(rand_rat(rng, nonzero=True))
    for l in range((n - 6) // 2 + 1):
        v = rand_gr(rng)
        c[(4, 2, l)], c[(2, 4, l)] = v, v.conjugate()
    return Hypersurface(Series3(n, c))


def _u_factor(h, j, order):
    """The series sum_l h_{j,l} t^l of a map component h, to t-order `order`."""
    return UPoly(order, {l: h.coeff(j, l) for l in range(order + 1)})


class TestRotationStage:
    def test_rotation_factor_equation_random(self, rng):
        for n in (10, 11, 12):
            M = _slice_surface(rng, n, (2, 3))
            stages = []
            M2 = kill_f22_rotation(M, stages)
            assert [s.name for s in stages] == ["rotate"]
            assert M2.slice(2, 2).is_zero()
            # f = z lambda(w) carries lambda to t-order (n - 2) // 2
            lam = _u_factor(stages[0].map.f, 1, (n - 2) // 2)
            assert lam.coeff(0) == 1
            assert stages[0].map.f == (
                HoloSeries.z_var(n - 1) * HoloSeries.from_w_series(lam, n - 1)
            ).truncate(n - 1)
            assert lam * lam.conjugate() == UPoly.one(lam.n)
            f22 = M.slice(2, 2)
            sound = min(lam.n - 1, f22.n)
            lhs = (lam.derivative() * I_UNIT * 2).truncate(sound)
            assert lhs == (f22 * lam).truncate(sound)


class TestReparamStage:
    def test_reparametrization_law_random(self, rng):
        for n in (10, 11, 12):
            M = _slice_surface(rng, n, (3,))
            stages = []
            M2 = kill_f33_reparam(M, stages)
            assert [s.name for s in stages] == ["reparam"]
            assert M2.slice(3, 3).is_zero()
            h = stages[0].map
            phi = _u_factor(h.f, 1, (n - 2) // 2)
            psi = _u_factor(h.g, 0, n // 2)
            assert psi.coeff(0) == 0 and phi.coeff(0) == 1
            # psi' = phi^2
            dpsi = psi.derivative()
            assert dpsi == (phi * phi).truncate(dpsi.n)
            # psi''' psi' = (3/2) psi''^2 - 3 F33 psi'^2
            f33 = M.slice(3, 3)
            d2 = dpsi.derivative()
            d3 = d2.derivative()
            sound = min(d3.n, f33.n)
            lhs = (d3 * dpsi).truncate(sound)
            rhs = (d2 * d2 * (HALF * 3) - f33 * dpsi * dpsi * 3).truncate(sound)
            assert lhs == rhs


class TestDegreeGuard:
    def test_eval_holo3_on_rpoly_arguments_past_max_degree(self):
        # y^2 * (x^2)^24 has degree 50 > MAX_DEGREE = 48, although no single
        # power of an argument passes it
        x, y = RPoly.var("x"), RPoly.var("y")
        with pytest.raises(InternalInvariantError, match="degree"):
            eval_holo3(HoloSeries(49, {(1, 24): 1}), y * y, x * x, polynomial=True)

    def test_eval_holo3_on_rpoly_arguments_at_max_degree(self):
        x, y = RPoly.var("x"), RPoly.var("y")
        got = eval_holo3(HoloSeries(48, {(0, 24): 1}), y * y, x * x, polynomial=True)
        assert got == RPoly.var("x", 48)
