"""Normal-form pipeline: containers, the graph transform, stages, end shape."""

import random

from fractions import Fraction

import pytest

from conftest import rand_gr, rand_rat, rand_real_series3
from moser_chains.errors import (
    InternalInvariantError,
    LeviDegenerateError,
    MathPreconditionError,
    ParseError,
)
from moser_chains.normalize import (
    Biholo,
    Hypersurface,
    PIPELINE_STEPS,
    TransversalCurve,
    adapt_chart,
    absorb_k1,
    assert_normal_form,
    core_expression,
    find_chain_curve,
    fundamental_identity_residual,
    graph_transform,
    isotropy_map,
    kill_f22_rotation,
    kill_f33_reparam,
    kill_harmonics,
    normalize_hypersurface,
    normalize_levi,
    punctual_normalize,
    straighten_curve,
    transform_curve,
    translate_to_point,
    _f32_slice_through_subpipeline,
    _punctual_system,
)
from moser_chains.series_core import (
    ONE,
    GaussianRational,
    HoloSeries,
    Series3,
    UPoly,
    gr,
)


def sphere(n=8):
    return Hypersurface.sphere(n)


def perturbed_sphere(n, *terms):
    """zzb plus given (j, k, l, coeff) monomials and their conjugates."""
    F = Series3.hermitian_square(n)
    for (j, k, l, v) in terms:
        F = F + Series3.monomial(n, j, k, l, v)
        if j != k or not v.is_real():
            F = F + Series3.monomial(n, k, j, l, v.conjugate())
    return Hypersurface(F)


def rand_surface(rng, n=8, terms=10, min_weight=1):
    """Random Levi nondegenerate real polynomial graph."""
    while True:
        pert = rand_real_series3(rng, n, terms=terms, min_weight=min_weight)
        M = Hypersurface((Series3.hermitian_square(n) + pert).truncate(n))
        if M.levi_coefficient():
            return M


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


class TestHypersurface:
    def test_rejects_constant_term(self):
        F = Series3.monomial(6, 0, 0, 0, ONE) + Series3.hermitian_square(6)
        with pytest.raises(MathPreconditionError):
            Hypersurface(F)

    def test_rejects_nonreal_graph(self):
        F = Series3.monomial(6, 2, 1, 0, gr(1))  # no conjugate partner
        with pytest.raises(InternalInvariantError):
            Hypersurface(F)

    def test_json_round_trip(self):
        M = perturbed_sphere(8, (3, 2, 0, gr("1/3", "2/5")))
        again = Hypersurface.from_json(M.to_json())
        assert again == M

    def test_json_rejects_garbage(self):
        with pytest.raises(ParseError):
            Hypersurface.from_json({"trunc_order": 6, "coeffs": [{"j": 0, "k": 0, "l": 0, "re": "1", "im": "0"}]})

    def test_value_at(self):
        M = sphere(6)
        z0 = gr("1/2", "1/3")
        assert M.series.evaluate(z0, z0.conjugate(), gr(2).real) == (z0 * z0.conjugate())

    def test_constructors_reject_float_coefficients(self):
        # int and Fraction coefficients are exact and stay accepted
        exact = {(1, 1, 0): 1, (2, 2, 0): Fraction(1, 2)}
        Hypersurface(Series3(8, exact))
        for bad in (0.5, 0.5 + 0j):
            with pytest.raises(ParseError):
                Hypersurface(Series3(8, {**exact, (3, 3, 0): bad}))
            with pytest.raises(ParseError):
                Biholo(HoloSeries(7, {(1, 0): bad}), HoloSeries.w_var(8))
            with pytest.raises(ParseError):
                Biholo(HoloSeries.z_var(7), HoloSeries(8, {(0, 1): gr(1), (0, 2): bad}))
            with pytest.raises(ParseError):
                TransversalCurve(UPoly(4, {2: bad}), UPoly.var(4))


class TestBiholo:
    def test_must_fix_origin(self):
        f = HoloSeries(5, {(0, 0): gr(1), (1, 0): gr(1)})
        g = HoloSeries.w_var(6)
        with pytest.raises(MathPreconditionError):
            Biholo(f, g)

    def test_compose_is_function_composition(self):
        # h1 = (2z, 4w), h2 = (z + zw, w + w^2): compose(h2, h1) applies h1 first
        h1 = Biholo(HoloSeries(7, {(1, 0): gr(2)}), HoloSeries(8, {(0, 1): gr(4)}))
        h2 = Biholo(
            HoloSeries(7, {(1, 0): gr(1), (1, 1): gr(1)}),
            HoloSeries(8, {(0, 1): gr(1), (0, 2): gr(1)}),
        )
        comp = h2.compose(h1)
        # f = 2z + (2z)(4w) = 2z + 8zw ; g = 4w + 16w^2
        assert comp.f.coeff(1, 0) == gr(2)
        assert comp.f.coeff(1, 1) == gr(8)
        assert comp.g.coeff(0, 1) == gr(4)
        assert comp.g.coeff(0, 2) == gr(16)

    def test_json_round_trip(self):
        h = isotropy_map(gr(2), gr("1/3", "1/5"), rand_rat(random.Random(3)), 8)
        again = Biholo.from_json(h.to_json())
        assert again.f == h.f and again.g == h.g

    def test_json_rejects_booleans(self):
        blob = Biholo.identity(6).to_json()
        for field, bad in (("trunc_order", True), ("f", [{"j": True, "l": 0, "re": "1"}])):
            with pytest.raises(ParseError):
                Biholo.from_json(dict(blob, **{field: bad}))

    def test_json_rejects_monomials_above_order(self):
        # f is carried to weight n - 1, g to weight n
        blob = Biholo.identity(6).to_json()
        Biholo.from_json(dict(blob, f=[{"j": 1, "l": 0, "re": "1"}, {"j": 1, "l": 2, "re": "1"}]))
        for field, bad in (("f", {"j": 0, "l": 3, "re": "1"}), ("g", {"j": 1, "l": 3, "re": "1"})):
            with pytest.raises(ParseError):
                Biholo.from_json(dict(blob, **{field: blob[field] + [bad]}))


class TestTransversalCurve:
    def test_complete_puts_curve_on_surface(self):
        M = perturbed_sphere(8, (4, 2, 0, gr("1/7")))
        curve = TransversalCurve.complete(M, UPoly(4, {2: gr("1/3", "1/5")}))
        curve.validate_on(M)  # must not raise

    def test_off_surface_curve_rejected(self):
        M = sphere(8)
        good = TransversalCurve.complete(M, UPoly(4, {2: gr("1/3")}))
        bad = TransversalCurve(good.phi, good.psi + UPoly(4, {3: gr(0, 1)}))
        with pytest.raises(MathPreconditionError):
            bad.validate_on(M)

    def test_curve_must_start_at_origin(self):
        with pytest.raises(MathPreconditionError):
            TransversalCurve(UPoly(4, {0: gr(1)}), UPoly.var(4))


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------


class TestTranslate:
    def test_sphere_translation_linear_terms(self):
        z0 = gr("1/3", "-1/2")
        Mt = translate_to_point(sphere(8), z0, gr("2/5").real)
        # F(z0+z) - F(z0) = zzb + conj(z0) z + z0 zb
        assert Mt.series.coeff(1, 0, 0) == z0.conjugate()
        assert Mt.series.coeff(0, 1, 0) == z0
        assert Mt.series.coeff(1, 1, 0) == gr(1)
        assert not Mt.series.coeff(0, 0, 0)

    def test_round_trip(self, rng):
        M = rand_surface(rng)
        z0 = rand_gr(rng)
        u0 = rand_rat(rng)
        Mt = translate_to_point(M, z0, u0)
        back = translate_to_point(Mt, -z0, -u0)
        assert back == M

    def test_point_validation(self):
        with pytest.raises(MathPreconditionError):
            translate_to_point(sphere(8), gr(1), gr(0).real, v0=gr(5))
        ok = translate_to_point(sphere(8), gr(1), gr(0).real, v0=gr(1))
        assert ok.series.coeff(1, 0, 0) == gr(1)
        with pytest.raises(MathPreconditionError):
            translate_to_point(sphere(8), gr(1), gr(0, 1))

    def test_rejects_float_point(self):
        for z0, u0, v0 in ((0.5, 0, None), (0.5j, 0, None), (0, 0.5, None), (0, 0.5j, None),
                           (1, 0, 1.0)):
            with pytest.raises(ParseError):
                translate_to_point(sphere(8), z0, u0, v0=v0)

    def test_pointwise_oracle(self, rng):
        # Mt(z, zb, u) = F(z0 + z, conj(z0 + z), u0 + u) - F(z0, conj z0, u0)
        # at random points; unlike the round trip this sees a shift of the
        # wrong sign, which translating back would undo
        for _ in range(4):
            M = rand_surface(rng, terms=12)
            F = M.series
            z0, u0 = rand_gr(rng), rand_rat(rng)
            Mt = translate_to_point(M, z0, u0)
            assert Mt.n == M.n
            base = F.evaluate(z0, z0.conjugate(), u0)
            for _ in range(5):
                z, u = rand_gr(rng), rand_rat(rng)
                zz = z0 + z
                assert Mt.series.evaluate(z, z.conjugate(), u) == (
                    F.evaluate(zz, zz.conjugate(), u0 + u) - base
                )


# ---------------------------------------------------------------------------
# the graph transform and its oracle
# ---------------------------------------------------------------------------


def rand_contract_map(rng, n, allow_fw=True):
    """Random origin-fixing map with f_z(0) != 0, g_z(0) = 0, Re g_w(0) != 0."""
    fc = {(1, 0): rand_gr(rng, nonzero=True)}
    gc = {(0, 1): GaussianRational(rand_rat(rng, nonzero=True), rand_rat(rng))}
    if allow_fw:
        fc[(0, 1)] = rand_gr(rng)
    for _ in range(3):
        j = rng.randrange(0, 4)
        l = rng.randrange(0, 3)
        if j + 2 * l in (0, 1) or j + 2 * l > n - 1:
            continue
        fc[(j, l)] = rand_gr(rng)
    for _ in range(3):
        j = rng.randrange(0, 4)
        l = rng.randrange(0, 3)
        w = j + 2 * l
        if w in (0, 1) or w > n or (j, l) == (1, 0):
            continue
        gc[(j, l)] = rand_gr(rng)
    return Biholo(HoloSeries(n - 1, fc), HoloSeries(n, gc))


class TestGraphTransform:
    def test_contract_violations(self):
        M = sphere(8)
        with pytest.raises(MathPreconditionError):
            graph_transform(M, Biholo(HoloSeries(7, {(2, 0): gr(1)}), HoloSeries.w_var(8)))
        with pytest.raises(MathPreconditionError):
            graph_transform(
                M,
                Biholo(HoloSeries.z_var(7), HoloSeries(8, {(1, 0): gr(1), (0, 1): gr(1)})),
            )
        with pytest.raises(MathPreconditionError):
            graph_transform(M, Biholo(HoloSeries.z_var(3), HoloSeries.w_var(8)))

    def test_pure_scaling(self):
        # (z, w) -> (2z, 4w) maps the sphere to itself
        h = Biholo(HoloSeries(7, {(1, 0): gr(2)}), HoloSeries(8, {(0, 1): gr(4)}))
        img, zmap, umap = graph_transform(sphere(8), h)
        assert img == sphere(8)
        assert zmap.coeff(1, 0, 0) == gr(2)
        assert umap.coeff(0, 0, 1) == gr(4).real

    def test_isotropy_fixes_sphere(self, rng):
        for _ in range(5):
            lam = rand_gr(rng, nonzero=True)
            alpha = rand_gr(rng)
            r = rand_rat(rng)
            h = isotropy_map(lam, alpha, r, 8)
            img, _, _ = graph_transform(sphere(8), h)
            assert img == sphere(8)

    def test_residual_oracle_random(self, rng):
        for _ in range(6):
            M = rand_surface(rng, terms=7)
            h = rand_contract_map(rng, 8)
            img, _, _ = graph_transform(M, h)
            resid = fundamental_identity_residual(M, h, img)
            assert resid.is_zero()

    def test_residual_detects_wrong_target(self, rng):
        M = rand_surface(rng, terms=5)
        h = rand_contract_map(rng, 8)
        img, _, _ = graph_transform(M, h)
        wrong = Hypersurface(img.series + Series3.monomial(8, 2, 2, 1, gr("1/13")), check=False)
        resid = fundamental_identity_residual(M, h, wrong)
        assert not resid.is_zero()


# ---------------------------------------------------------------------------
# isotropy map coefficients (frozen closed forms)
# ---------------------------------------------------------------------------


def isotropy_expected(lam, alpha, r):
    """Closed-form low-order coefficients of the sphere automorphism."""
    i = gr(0, 1)
    lamb = lam.conjugate()
    ab = alpha.conjugate()
    aa = alpha * ab
    rr = GaussianRational(r, 0)
    f = {
        (1, 0): lam,
        (2, 0): i * lam * ab * 2,
        (3, 0): -lam * ab * ab * 4,
        (4, 0): -i * lam * ab * ab * ab * 8,
        (0, 1): lam * alpha,
        (1, 1): i * lam * aa * 3 + lam * rr,
        (2, 1): -lam * alpha * ab * ab * 8 + i * ab * lam * rr * 4,
        (0, 2): lam * alpha * rr + i * lam * alpha * alpha * ab,
    }
    ll = lam * lamb
    g = {
        (0, 1): ll,
        (1, 1): i * ll * ab * 2,
        (2, 1): -ll * ab * ab * 4,
        (3, 1): -i * ll * ab * ab * ab * 8,
        (0, 2): i * ll * aa + ll * rr,
        (1, 2): i * ll * ab * rr * 4 - ll * ab * ab * alpha * 4,
    }
    return f, g


class TestIsotropyMap:
    def test_frozen_coefficients(self, rng):
        for _ in range(6):
            lam = rand_gr(rng, nonzero=True)
            alpha = rand_gr(rng)
            r = rand_rat(rng)
            h = isotropy_map(lam, alpha, r, 8)
            fexp, gexp = isotropy_expected(lam, alpha, r)
            for key, v in fexp.items():
                assert h.f.coeff(*key) == v, ("f", key)
            for key, v in gexp.items():
                assert h.g.coeff(*key) == v, ("g", key)

    def test_rejects_zero_lambda(self):
        with pytest.raises(MathPreconditionError):
            isotropy_map(gr(0), gr(1), rand_rat(random.Random(1)), 8)

    def test_rejects_complex_r(self):
        with pytest.raises(MathPreconditionError):
            isotropy_map(gr(1), gr(1), gr(1, 1), 8)

    def test_rejects_float_parameters(self):
        for args in ((0.5, 0, 0), (1, 0.5j, 0), (1, 0, 0.5), (1, 0, 1j)):
            with pytest.raises(ParseError):
                isotropy_map(*args, 6)


class TestOrderArguments:
    def test_bad_orders_raise_parse_error(self):
        bad = (0, -1, 2.5, 6.0, True, "6", None)
        for n in bad:
            with pytest.raises(ParseError):
                isotropy_map(1, 0, 0, n)
            with pytest.raises(ParseError):
                Biholo.identity(n)
        for n in (-1, 2.5, True, "6"):
            with pytest.raises(ParseError):
                Hypersurface.sphere(n)

    def test_smallest_orders_still_work(self):
        assert isotropy_map(1, 0, 0, 1).g == HoloSeries.w_var(1)
        assert Biholo.identity(1).f.is_zero()
        assert Hypersurface.sphere(0).series.is_zero()
        assert Hypersurface.sphere(6) == sphere(6)


# ---------------------------------------------------------------------------
# adapted chart
# ---------------------------------------------------------------------------


class TestAdaptChart:
    def test_all_four_moves(self):
        F = Series3.zero(8)
        F = F + Series3.monomial(8, 1, 0, 0, gr("1/2", "1/3")) + Series3.monomial(8, 0, 1, 0, gr("1/2", "-1/3"))
        F = F + Series3.monomial(8, 0, 0, 1, gr("2/7"))
        F = F + Series3.monomial(8, 2, 0, 0, gr("1/5", "-1/2")) + Series3.monomial(8, 0, 2, 0, gr("1/5", "1/2"))
        F = F + Series3.hermitian_square(8) * gr(-3)
        M = Hypersurface(F)
        stages = []
        Ma = adapt_chart(M, stages, verify=True)
        assert [s.name for s in stages] == ["shear", "tilt", "bend", "scale"]
        low = Ma.series.up_to_weight(2)
        assert low == Series3.hermitian_square(8).up_to_weight(2)

    def test_idempotent(self, rng):
        M = rand_surface(rng)
        stages = []
        Ma = adapt_chart(M, stages, verify=True)
        again = []
        Mb = adapt_chart(Ma, again)
        assert again == [] and Mb == Ma

    def test_levi_degenerate_raises(self):
        bad = Hypersurface(Series3.monomial(8, 2, 2, 0, gr(1)))
        with pytest.raises(LeviDegenerateError):
            adapt_chart(bad)

    def test_negative_levi_single_scale(self):
        M = Hypersurface(Series3.hermitian_square(8) * gr(-2))
        stages = []
        Ma = adapt_chart(M, stages, verify=True)
        assert [s.name for s in stages] == ["scale"]
        assert Ma.levi_coefficient() == gr(1)

    def test_random_postcondition(self, rng):
        for _ in range(5):
            M = rand_surface(rng, terms=8)
            Ma = adapt_chart(M, [], verify=True)
            assert Ma.series.up_to_weight(2) == Series3.hermitian_square(8).up_to_weight(2)


# ---------------------------------------------------------------------------
# punctual normalization
# ---------------------------------------------------------------------------


class TestPunctual:
    def test_system_dimensions(self):
        # unknown/equation counts for the three weights
        expected = {3: (8, 6), 4: (10, 9), 5: (12, 12)}
        for delta, (n_unknowns, n_rows) in expected.items():
            f_keys, g_keys, monos, columns = _punctual_system(delta)
            assert len(columns) == n_unknowns
            assert len(columns[0]) == n_rows

    def test_core_expression_frozen(self):
        # f = 0, g = -2i z^3 gives Re{2 z^3} = z^3 + zb^3
        g = HoloSeries(3, {(3, 0): gr(0, -2)})
        core = core_expression(HoloSeries.zero(2), g, 6)
        assert core == Series3.monomial(6, 3, 0, 0, gr(1)) + Series3.monomial(6, 0, 3, 0, gr(1))

    def test_kills_low_weights(self, rng):
        for _ in range(4):
            M = rand_surface(rng, terms=8)
            Ma = adapt_chart(M, [])
            Mp = punctual_normalize(Ma, [], verify=True)
            for delta in (3, 4, 5):
                assert Mp.series.weight_part(delta).is_zero()
            assert Mp.series.up_to_weight(2) == Series3.hermitian_square(8).up_to_weight(2)

    def test_needs_adapted_chart(self):
        M = perturbed_sphere(8, (1, 0, 0, gr(1)))
        with pytest.raises(MathPreconditionError):
            punctual_normalize(M)


# ---------------------------------------------------------------------------
# straightening and curve transport
# ---------------------------------------------------------------------------


class TestStraighten:
    def test_axis_after_straightening(self, rng):
        for _ in range(4):
            M = rand_surface(rng, terms=6)
            Ma = adapt_chart(M, [])
            curve = TransversalCurve.complete(Ma, UPoly(4, {2: rand_gr(rng), 3: rand_gr(rng)}))
            M2 = straighten_curve(Ma, curve, [], verify=True)
            assert M2.series.pure_u_part().is_zero()

    def test_noop_for_axis_on_axis_surface(self):
        M = perturbed_sphere(8, (4, 2, 0, gr("1/3")))
        curve = TransversalCurve.complete(M, UPoly.zero(4))
        stages = []
        M2 = straighten_curve(M, curve, stages)
        assert stages == [] and M2 == M

    def test_transport_keeps_curve_on_surface(self, rng):
        M = rand_surface(rng, terms=6)
        curve = TransversalCurve.complete(M, UPoly(4, {2: rand_gr(rng)}))
        stages = []
        Ma = adapt_chart(M, stages, verify=True)
        moved = curve
        for st in stages:
            moved = transform_curve(moved, st.map)
        moved.validate_on(Ma)


# ---------------------------------------------------------------------------
# the individual normal-form stages (frozen examples + postconditions)
# ---------------------------------------------------------------------------


class TestStages:
    def test_kill_harmonics_frozen(self):
        M = perturbed_sphere(8, (3, 0, 0, gr(1)))
        stages = []
        M2 = kill_harmonics(M, stages, verify=True)
        st = stages[0]
        assert st.map.g.coeff(3, 0) == gr(0, -2)  # w' = w - 2i z^3
        for (j, k, l) in M2.series.c:
            assert j >= 1 and k >= 1

    def test_kill_harmonics_needs_preconditions(self):
        with pytest.raises(MathPreconditionError):
            kill_harmonics(perturbed_sphere(8, (1, 0, 0, gr(1))))
        with pytest.raises(MathPreconditionError):
            kill_harmonics(perturbed_sphere(8, (0, 0, 2, gr("1/2"))))

    def test_normalize_levi_frozen(self):
        # F = zzb (1 + u): scale z by 1/sqrt(1+u)
        M = perturbed_sphere(8, (1, 1, 1, gr(1)))
        stages = []
        M2 = normalize_levi(M, stages, verify=True)
        one = UPoly.one(3)
        assert M2.slice(1, 1) == one
        # the map's z-factor is sqrt(1+u) = 1 + u/2 - u^2/8 + ...
        f = stages[0].map.f
        assert f.coeff(1, 1) == gr("1/2")
        assert f.coeff(1, 2) == gr("-1/8")

    def test_absorb_frozen(self):
        M = perturbed_sphere(8, (3, 1, 0, gr("1/2", "1/3")))
        stages = []
        M2 = absorb_k1(M, stages, verify=True)
        assert stages[0].map.f.coeff(3, 0) == gr("1/2", "1/3")
        assert M2.slice(3, 1).is_zero()
        assert M2.slice(1, 3).is_zero()

    def test_kill_f22_frozen(self):
        # F22 = u: lambda = exp(-i u^2 / 4)
        M = perturbed_sphere(8, (2, 2, 1, gr(1)))
        stages = []
        M2 = kill_f22_rotation(M, stages, verify=True)
        f = stages[0].map.f
        assert f.coeff(1, 2) == gr(0, "-1/4")
        assert M2.slice(2, 2).is_zero()

    def test_kill_f33_frozen(self):
        # F33 = u: psi = u - u^4/8 + O(u^6), phi = 1 - u^3/4 + O(u^5)
        M = perturbed_sphere(8, (3, 3, 1, gr(1)))
        stages = []
        M2 = kill_f33_reparam(M, stages, verify=True)
        g = stages[0].map.g
        assert g.coeff(0, 1) == gr(1)
        assert g.coeff(0, 4) == gr("-1/8")
        assert not g.coeff(0, 2) and not g.coeff(0, 3)
        f = stages[0].map.f
        assert f.coeff(1, 3) == gr("-1/4")
        assert M2.slice(3, 3).is_zero()

    def test_stage_noops(self):
        M = sphere(8)
        for op in (kill_harmonics, normalize_levi, absorb_k1, kill_f22_rotation, kill_f33_reparam):
            stages = []
            assert op(M, stages) == M and stages == []


# ---------------------------------------------------------------------------
# chain finding and the chain miracle
# ---------------------------------------------------------------------------


def m_eps(eps, n=8):
    return perturbed_sphere(n, (4, 2, 0, eps))


class TestChain:
    def test_axis_is_chain_of_perturbed_sphere(self):
        M = m_eps(gr("1/10"))
        axis = TransversalCurve.complete(M, UPoly.zero(4))
        res = normalize_hypersurface(M, curve=axis, verify=True)
        assert res.completed
        assert res.surface == M  # already in normal form

    def test_wrong_curve_leaves_obstruction(self):
        M = m_eps(gr("1/3"))
        wrong = TransversalCurve.complete(M, UPoly(4, {2: gr("1/7")}))
        res = normalize_hypersurface(M, curve=wrong, verify=True, stop_after="rotate")
        assert res.surface.slice(3, 2).coeff(0) == gr("-4/7")
        with pytest.raises(MathPreconditionError):
            normalize_hypersurface(M, curve=wrong)

    def test_auto_mode_finds_axis(self):
        M = m_eps(gr("1/3"))
        res = normalize_hypersurface(M, verify=True)
        assert res.chain_curve.phi.is_zero()
        assert res.surface == M

    def test_quadratic_jet_from_weight5_obstruction(self):
        # with F = zzb + d z^3 zb^2 + conj, the chain's 2-jet is conj(d)/4
        d = gr("1/5", "1/7")
        M = perturbed_sphere(8, (3, 2, 0, d))
        c2 = d.conjugate() * gr("1/4")
        curve = TransversalCurve.complete(M, UPoly(4, {2: c2}))
        res = normalize_hypersurface(M, curve=curve, verify=True, stop_after="rotate")
        assert res.surface.slice(3, 2).is_zero()
        # while the axis leaves exactly the obstruction d
        axis = TransversalCurve.complete(M, UPoly.zero(4))
        res0 = normalize_hypersurface(M, curve=axis, verify=True, stop_after="rotate")
        assert res0.surface.slice(3, 2).coeff(0) == d

    def test_find_chain_needs_prenormalized_surface(self):
        M = perturbed_sphere(8, (3, 2, 0, gr(1)))
        with pytest.raises(MathPreconditionError):
            find_chain_curve(M)

    @pytest.mark.parametrize("n, seed", [(10, 11), (12, 12)])
    def test_truncated_chain_steps_match_full_order(self, n, seed):
        # find_chain_curve solves c_m on the surface truncated to order 2m+1;
        # the F_{3,2} coefficients it reads there are the full-order ones
        M = rand_surface(random.Random(seed), n, terms=40, min_weight=2)
        M = normalize_hypersurface(M, stop_after="punctual").surface
        chain = find_chain_curve(M)
        mmax = (n - 1) // 2
        for m in range(3, mmax + 1):
            solved = UPoly(m, {k: v for k, v in chain.c.items() if k < m})
            low = _f32_slice_through_subpipeline(M.with_order(2 * m + 1), solved)
            full = _f32_slice_through_subpipeline(M, solved.padded(n // 2))
            for q in range(m - 1):
                assert low.coeff(q) == full.coeff(q)
        f32 = _f32_slice_through_subpipeline(M, chain)
        assert all(not f32.coeff(q) for q in range(mmax - 1))
        assert any(chain.coeff(m) for m in range(3, mmax + 1))

    def test_found_chain_is_verified_by_full_run(self, rng):
        for _ in range(3):
            M = rand_surface(rng, terms=8)
            res = normalize_hypersurface(M, verify=True)
            assert res.completed
            assert_normal_form(res.surface)


# ---------------------------------------------------------------------------
# full pipeline behaviour
# ---------------------------------------------------------------------------


class TestPipeline:
    def test_sphere_is_fixed_point(self):
        res = normalize_hypersurface(sphere(8), verify=True)
        assert res.stages == []
        assert res.surface == sphere(8)

    def test_translated_sphere_renormalizes_to_sphere(self):
        Mt = translate_to_point(sphere(8), gr("1/3", "-1/2"), gr("2/5").real)
        res = normalize_hypersurface(Mt, verify=True)
        assert res.surface == sphere(8)

    def test_random_surfaces_reach_normal_form(self, rng):
        for _ in range(6):
            M = rand_surface(rng)
            res = normalize_hypersurface(M, verify=True)
            assert res.completed
            assert_normal_form(res.surface)
            assert all(s.residual_zero for s in res.stages)

    def test_truncation_consistency(self, rng):
        # the order-8 normal form is the order-10 one truncated to 8, and the
        # chains agree through c_3.  Only surfaces without weight-1 terms:
        # the shear u -> u - nu z/2 - conj(nu) zb/2 lowers weight, so there
        # input terms above the order legitimately change the result.  Stage
        # lists are not compared: a stage whose map only acts above weight 8
        # is a no-op at the lower order.
        lo_n, hi_n = 8, 10
        chains = []
        for _ in range(5):
            M = rand_surface(rng, hi_n, terms=30, min_weight=2)
            hi = normalize_hypersurface(M)
            lo = normalize_hypersurface(M.with_order(lo_n))
            assert lo.completed and hi.completed
            assert lo.surface.series == hi.surface.series.truncate(lo_n)
            for m in range(3, (lo_n - 1) // 2 + 1):
                assert lo.chain_curve.phi.coeff(m) == hi.chain_curve.phi.coeff(m)
                chains.append(lo.chain_curve.phi.coeff(m))
        assert any(chains)

    def test_stop_after(self):
        M = m_eps(gr("1/10"))
        res = normalize_hypersurface(M, stop_after="adapt")
        assert not res.completed
        with pytest.raises(ParseError):
            normalize_hypersurface(M, stop_after="nonsense")

    def test_every_checkpoint_in_both_modes(self):
        # every stage has work on this sphere image, and the image of the
        # sphere's chain (the u-axis) is a chain of it to supply
        h = rand_contract_map(random.Random(2), 8)
        M, _, _ = graph_transform(sphere(8), h)
        chain = transform_curve(TransversalCurve.complete(sphere(8), UPoly.zero(4)), h)
        for curve in (None, chain):
            full = normalize_hypersurface(M, curve=curve)
            assert full.completed and full.surface == sphere(8)
            for step in PIPELINE_STEPS:
                if curve is not None and step == "punctual":
                    continue
                res = normalize_hypersurface(M, curve=curve, stop_after=step)
                assert res.completed == (step == "reparam"), step
                names = res.stage_names()
                assert names == full.stage_names()[: len(names)], step
                found_yet = PIPELINE_STEPS.index(step) >= PIPELINE_STEPS.index("straighten")
                assert (res.chain_curve is not None) == (curve is not None or found_yet), step

    def test_supplied_curve_has_no_punctual_checkpoint(self):
        # a supplied curve skips the punctual stages, so that stop is refused
        # before any stage runs, for a chain and for a curve that is none
        M = rand_surface(random.Random(3))
        wrong = TransversalCurve.complete(M, UPoly(4, {2: gr("1/7")}))
        with pytest.raises(MathPreconditionError):
            normalize_hypersurface(M, curve=wrong)
        M_eps = m_eps(gr("1/10"))
        axis = TransversalCurve.complete(M_eps, UPoly.zero(4))
        for surface, curve in ((M, wrong), (M_eps, axis)):
            with pytest.raises(ParseError):
                normalize_hypersurface(surface, curve=curve, stop_after="punctual")

    def test_order_too_low(self):
        with pytest.raises(MathPreconditionError):
            normalize_hypersurface(sphere(4))

    def test_composite_map_reproduces_final_surface(self, rng):
        # a surface with no linear terms so all stage maps have g_z(0) = 0
        while True:
            M = rand_surface(rng, terms=8)
            if not M.series.coeff(1, 0, 0):
                break
        res = normalize_hypersurface(M, verify=True)
        if not res.stages:
            return
        total = res.composite_map()
        img, _, _ = graph_transform(M, total)
        n = img.n
        assert img.series == res.surface.series.truncate(n)

    def test_float_auto_mode_rejected(self):
        # a float surface is refused when it is built, with the documented
        # error class, before any stage runs
        with pytest.raises(ParseError):
            F = Series3(8, {(1, 1, 0): 1 + 0j, (2, 2, 0): 0.5 + 0j, (3, 3, 0): 0.25 + 0j})
            normalize_hypersurface(Hypersurface(F))

    def test_sphere_images_normalize_to_sphere(self):
        # h(sphere) is equivalent to the sphere, so its normal form is
        # exactly z zbar: an oracle with no tolerance and no reference data
        c3 = {}
        for seed, n in ((0, 8), (1, 8), (2, 8), (3, 8), (0, 10)):
            h = rand_contract_map(random.Random(seed), n)
            M, _, _ = graph_transform(sphere(n), h)
            res = normalize_hypersurface(M)
            assert res.completed
            assert res.surface == sphere(n)
            c3[seed, n] = res.chain_curve.phi.coeff(3)
        assert c3[0, 8] == c3[0, 10]
