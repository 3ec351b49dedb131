"""The graph transform's linear passes, each against the formula it replaces.

``Series3.re_im`` builds Re E and Im E in one pass over E; a power table's
first power is its argument, with no product; a substitution whose arguments
have no offset returns F; and ``graph_transform`` keeps its remainder per
weight over one running denominator, subtracting each image of its loop in place.
"""

from fractions import Fraction

import pytest

from conftest import rand_gr, rand_real_series3, rand_series3, rand_upoly
from moser_chains import normalize
from moser_chains.errors import InternalInvariantError
from moser_chains.normalize import (
    Biholo,
    Hypersurface,
    fundamental_identity_residual,
)
from moser_chains.series_core import (
    HALF,
    GaussianRational,
    GraphTable,
    HoloSeries,
    PowerTable,
    Series3,
    UPoly,
    eval_graph,
    eval_holo3,
    gr,
)

MINUS_HALF_I = GaussianRational(0, Fraction(-1, 2))


def by_formula(E):
    E_bar = E.conj()
    return (E + E_bar) * HALF, (E - E_bar) * MINUS_HALF_I


class TestReIm:
    def test_random_series(self, rng):
        # non-real coefficients; most keys have no mirror
        for n in (1, 4, 8, 11):
            for _ in range(10):
                E = rand_series3(rng, n, terms=rng.randint(0, 12))
                assert E.re_im() == by_formula(E)

    def test_mirrors_diagonals_and_mixed_denominators(self):
        E = Series3(8, {
            (2, 1, 0): gr("1/3", 2),      # mirror with another denominator
            (1, 2, 0): gr(5, "-7/4"),
            (1, 1, 1): gr("2/5", "3/7"),  # diagonal, non-real
            (0, 0, 3): gr(0, "1/9"),      # diagonal, imaginary
            (3, 0, 1): gr("1/11", 1),     # no mirror
            (0, 4, 2): gr(-2, 0),         # no mirror, mirror key after it
        })
        Q, R = E.re_im()
        assert (Q, R) == by_formula(E)
        assert Q.is_real() and R.is_real()
        assert Q.coeff(1, 1, 1) == gr("2/5") and R.coeff(1, 1, 1) == gr("3/7")
        assert not Q.coeff(0, 0, 3) and R.coeff(0, 0, 3) == gr("1/9")

    def test_real_and_zero_series(self, rng):
        F = rand_real_series3(rng, 9, terms=8)
        assert F.re_im() == (F, Series3.zero(9))
        assert (F * gr(0, 1)).re_im() == (Series3.zero(9), F)
        assert Series3.zero(5).re_im() == (Series3.zero(5), Series3.zero(5))


def random_args(rng, cls, m, count):
    if cls is UPoly:
        return [rand_upoly(rng, m, terms=4) for _ in range(count)]
    series = [rand_series3(rng, m, terms=5) for _ in range(count)]
    if cls is HoloSeries:
        return [HoloSeries(m, {(j + k, l): v for (j, k, l), v in s.c.items()}) for s in series]
    return series


class TestFirstPowers:
    @pytest.mark.parametrize("cls", [Series3, HoloSeries, UPoly])
    def test_first_power_is_the_truncated_argument(self, rng, cls):
        n = 6
        for m in (n + 3, n, n - 2):
            args = random_args(rng, cls, m, 2)
            table = PowerTable(args, n)
            for i, arg in enumerate(args):
                assert table.power(i, 1) == cls.one(n) * arg
                assert table.power(i, 2) == cls.one(n) * arg * arg

    def test_graph_table_conjugate_slot(self, rng):
        n = 7
        for m in (n + 2, n, n - 3):
            x = rand_series3(rng, m, terms=6)
            t = Series3.u_var(m) + rand_real_series3(rng, m, terms=4, min_weight=3)
            table = GraphTable(x, t, n)
            one = Series3.one(n)
            assert table.power(0, 1) == one * x
            assert table.power(1, 1) == one * x.conj()
            assert table.power(2, 1) == one * t
            assert table.power(1, 3) == one * x.conj() * x.conj() * x.conj()

    def test_curve_table_conjugate_slot(self, rng):
        n = 6
        for m in (n + 2, n, n - 2):
            phi = rand_upoly(rng, m, terms=4)
            table = GraphTable(phi, UPoly.var(m), n)
            assert table.power(1, 1) == UPoly.one(n) * phi.conjugate()


class TestOffsetFree:
    def test_graph_substitution_returns_f(self, rng):
        for n in (3, 8):
            F = rand_series3(rng, n, terms=7)
            z, u = Series3.z_var(n), Series3.u_var(n)
            assert eval_graph(F, z, u) == F
            assert GraphTable(z, u, n)(F) == F
            for m in (n - 1, n + 4):
                zm, um = Series3.z_var(m), Series3.u_var(m)
                assert eval_graph(F, zm, um, polynomial=True) == F.padded(m)

    def test_holomorphic_substitution_returns_h(self, rng):
        for n in (4, 9):
            (h,) = random_args(rng, HoloSeries, n, 1)
            z, w = HoloSeries.z_var(n), HoloSeries.w_var(n)
            assert eval_holo3(h, z, w) == h
            for m in (n - 2, n + 3):
                zm, wm = HoloSeries.z_var(m), HoloSeries.w_var(m)
                assert eval_holo3(h, zm, wm, polynomial=True) == h.padded(m)

    def test_offset_far_above_the_order(self, rng):
        # an offset above the table's order moves nothing below it
        n = 6
        F = rand_series3(rng, n, terms=7)
        z = Series3.z_var(n + 6) + Series3.monomial(n + 6, 5, 3, 1, gr(2, 1))
        u = Series3.u_var(n + 6)
        assert eval_graph(F, z, u, polynomial=True).truncate(n) == F


class TestRunningDenominator:
    def test_growing_denominator_is_exact(self, rng, monkeypatch):
        # map coefficients over 7 and 11 put primes into the loop's images
        # that R's denominator lacks, so the remainder's one denominator grows
        n = 9
        images = []

        class Recording(GraphTable):
            __slots__ = ()

            def __call__(self, F):
                out = super().__call__(F)
                images.append(out)
                return out

        # without verify, every call of a table that normalize builds is a
        # step or the band call of the transform's loop
        monkeypatch.setattr(normalize, "GraphTable", Recording)
        grew = 0
        for _ in range(4):
            M = Hypersurface(
                Series3.hermitian_square(n) + rand_real_series3(rng, n, terms=8, min_weight=3)
            )
            h = Biholo(
                HoloSeries(n - 1, {(1, 0): 1, (2, 0): gr("1/7", 2), (1, 1): gr(0, "3/11")}),
                HoloSeries(n, {(0, 1): 1, (2, 1): gr("5/7"), (0, 2): gr(1, "1/11")}),
            )
            images[:] = []
            img, _, _, R, _ = normalize._graph_transform_parts(M, h)
            grew += any(R.d % image.d for image in images)
            assert fundamental_identity_residual(M, h, img).is_zero()
        assert grew


class TestStageCheck:
    def test_wrong_image_reports_the_residual(self, rng, monkeypatch):
        # the stage check compares forward(F2) with R; on a mismatch it
        # builds the difference and names the stage
        M = Hypersurface(
            Series3.hermitian_square(8) + rand_real_series3(rng, 8, terms=6, min_weight=3)
        )
        h = Biholo(
            HoloSeries(7, {(1, 0): 1, (2, 0): gr(1, 2)}), HoloSeries(8, {(0, 1): 1, (1, 1): gr(3)})
        )
        parts = normalize._graph_transform_parts

        def wrong(M, h):
            img, P, Q, R, forward = parts(M, h)
            bad = img.series + Series3.monomial(8, 2, 2, 1, gr("1/13"))
            return Hypersurface(bad, check=False), P, Q, R, forward

        stages = []
        normalize._run_stage("probe", M, h, stages, True)
        assert stages[-1].residual_zero is True
        monkeypatch.setattr(normalize, "_graph_transform_parts", wrong)
        with pytest.raises(InternalInvariantError, match="independent residual after stage 'probe'"):
            normalize._run_stage("probe", M, h, [], True)
        normalize._run_stage("probe", M, h, stages, False)
        assert stages[-1].residual_zero is None

