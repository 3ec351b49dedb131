"""Prolongation tables, the orbit matrix, and the distinguished 2-jet locus."""

from fractions import Fraction

from conftest import rand_rat

from moser_chains.chain_locus import (
    is_chain_jet,
    offset_matrix,
    orbit_matrix,
    rank_at,
    second_prolongation_table,
    sigma0_jet,
    sigma0_symbolic,
    symbolic_pivot,
)
from moser_chains.lie_jets import RPoly
from moser_chains.normalize import (
    Hypersurface,
    TransversalCurve,
    isotropy_map,
    transform_curve,
)
from moser_chains.series_core import GaussianRational, UPoly, gr


def V(name):
    return RPoly.var(name)


def _expected_second_table():
    x1, y1, x2, y2 = V("x1"), V("y1"), V("x2"), V("y2")
    one = RPoly.const(1)
    zero = RPoly.zero()
    return {
        "dilation": (-x1, -y1, -3 * x2, -3 * y2),
        "rotation": (-y1, x1, -y2, x2),
        "parabolic1": (one, zero, -4 * x1 * y1, 6 * x1 * x1 + 2 * y1 * y1),
        "parabolic2": (zero, one, -2 * x1 * x1 - 6 * y1 * y1, 4 * x1 * y1),
        "inversion": (zero, zero, zero, zero),
    }


class TestTables:
    def test_second_prolongation_table(self):
        got = second_prolongation_table()
        expected = _expected_second_table()
        assert set(got) == set(expected)
        for nm, quad in expected.items():
            assert got[nm] == quad, nm


class TestPivot:
    def test_symbolic_pivot_rows(self):
        x1, y1, a2, b2 = V("x1"), V("y1"), V("a2"), V("b2")
        one = RPoly.const(1)
        zero = RPoly.zero()
        expected = [
            [zero, zero, -3 * a2, -3 * b2],
            [zero, zero, -b2, a2],
            [one, zero, -4 * x1 * y1, 6 * x1 * x1 + 2 * y1 * y1],
            [zero, one, -2 * x1 * x1 - 6 * y1 * y1, 4 * x1 * y1],
        ]
        assert symbolic_pivot() == expected

    def test_offset_matrix_inversion_row_zero(self):
        m = offset_matrix()
        assert all(e.is_zero() for e in m[4])


class TestSigma0:
    def test_complex_form(self, rng):
        # sigma0 is z2 = 2i z1^2 conj(z1)
        for _ in range(50):
            x1 = rand_rat(rng)
            y1 = rand_rat(rng)
            z1 = GaussianRational(x1, y1)
            z2 = GaussianRational(0, 2) * z1 * z1 * z1.conjugate()
            s1, s2 = sigma0_jet(x1, y1)
            assert z2.real == s1 and z2.imag == s2

    def test_examples(self):
        assert sigma0_jet(1, 0) == (0, 2)
        assert sigma0_jet(0, 1) == (-2, 0)
        assert is_chain_jet(1, 0, 0, 2)
        assert not is_chain_jet(1, 0, 0, 0)

    def test_rank_dichotomy_random(self, rng):
        for _ in range(60):
            x1 = rand_rat(rng)
            y1 = rand_rat(rng)
            s1, s2 = sigma0_jet(x1, y1)
            assert rank_at(x1, y1, s1, s2) == 2
            a2 = rand_rat(rng, nonzero=True)
            b2 = rand_rat(rng)
            assert rank_at(x1, y1, s1 + a2, s2 + b2) == 4
            # rank never exceeds 4 and never drops below 2
            assert rank_at(x1, y1, rand_rat(rng), rand_rat(rng)) in (2, 4)


class TestSigma0Bridge:
    def test_isotropy_image_of_u_axis_has_sigma0_jet(self):
        # the sphere's chain through the origin is the u-axis; an isotropy map
        # (1, alpha, 0) sends it to a chain with 1-jet z1 = alpha, whose 2-jet
        # z2 = 2 * (t^2 coefficient) must lie on Sigma0 over z1
        u_axis = TransversalCurve.complete(Hypersurface.sphere(8), UPoly.zero(4))
        for alpha in (gr(1), gr("1/3", "1/5"), gr(-2, 1)):
            chain = transform_curve(u_axis, isotropy_map(1, alpha, 0, 8))
            z1 = chain.phi.coeff(1)
            z2 = chain.phi.coeff(2) * 2
            assert z1 == alpha
            assert (z2.real, z2.imag) == sigma0_jet(z1.real, z1.imag)
            assert is_chain_jet(z1.real, z1.imag, z2.real, z2.imag)
