"""Normal-form pipeline: containers, the graph transform, stages, end shape."""

import random

from fractions import Fraction

import pytest

from conftest import load_gen, rand_gr, rand_rat, rand_real_series3
from moser_chains import normalize
from moser_chains.errors import (
    InternalInvariantError,
    LeviDegenerateError,
    MathPreconditionError,
    ParseError,
)
from moser_chains.linalg import rank, solve
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
    _through_rotation,
    _homological_operator,
    _operator_columns,
    _solve_homological,
    _without_terms,
)
from moser_chains.series_core import (
    I_UNIT,
    ONE,
    GaussianRational,
    GraphTable,
    HoloSeries,
    Series3,
    UPoly,
    eval_graph,
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
        with pytest.raises(MathPreconditionError):
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

    def test_json_round_trip_smallest_orders(self):
        # every map to_json writes reads back, down to the order-1 maps that
        # identity and isotropy_map build
        for n in (1, 2, 3):
            for h in (Biholo.identity(n), isotropy_map(gr(2), gr("1/3", "1/5"), Fraction(1, 7), n)):
                again = Biholo.from_json(h.to_json())
                assert again.f == h.f and again.g == h.g
        with pytest.raises(ParseError):
            Biholo.from_json(dict(Biholo.identity(1).to_json(), trunc_order=0))

    def test_json_rejects_booleans(self):
        blob = Biholo.identity(6).to_json()
        for field, bad in (("trunc_order", True), ("f", [{"j": True, "l": 0, "re": "1"}])):
            with pytest.raises(ParseError):
                Biholo.from_json(dict(blob, **{field: bad}))

    def test_json_refusals(self):
        # no trunc_order, and a map that does not fix the origin
        for bad in ([], {"f": [], "g": []}):
            with pytest.raises(ParseError, match="needs trunc_order"):
                Biholo.from_json(bad)
        blob = dict(Biholo.identity(6).to_json(), g=[{"j": 0, "l": 0, "re": "1"}])
        with pytest.raises(ParseError, match="invalid map: map must fix the origin"):
            Biholo.from_json(blob)

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


def gap_map(rng, n, d):
    """An identity-led map (z + f1, w + g1): f1 of weight >= 1 + d with a
    z^(1+d) term, g1 of weight >= 2 + d.  Over a surface with no weight-1
    term its (P, Q) has gap exactly d."""
    fc = {(1, 0): ONE, (1 + d, 0): rand_gr(rng, nonzero=True)}
    gc = {(0, 1): ONE}
    for _ in range(4):
        j, l = rng.randrange(0, 4), rng.randrange(0, 3)
        if 1 + d <= j + 2 * l <= n - 1 and (j, l) not in fc:
            fc[(j, l)] = rand_gr(rng)
        if 2 + d <= j + 2 * l <= n:
            gc[(j, l)] = rand_gr(rng)
    return Biholo(HoloSeries(n - 1, fc), HoloSeries(n, gc))


class LoopCalls:
    """Each table that ``normalize`` builds, in ``made``, and each call of
    one, as (table, argument), in ``calls``; the call numbered ``bad`` (from
    1) returns its image doubled.  Without verify the calls are the
    transform loop's only."""

    def __init__(self, monkeypatch):
        self.made, self.calls, self.bad = [], [], 0
        log = self

        class Recording(GraphTable):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                log.made.append(self)

            def __call__(self, F):
                log.calls.append((self, F))
                out = super().__call__(F)
                return out * 2 if len(log.calls) == log.bad else out

        monkeypatch.setattr(normalize, "GraphTable", Recording)


def loop_kind(table, F, n):
    """"step" for a call on one weight <= n - 2d, "band" for one on weights
    in the band n - 2d < w <= n - d, d the table's gap; else None."""
    d, low, high = table.near[0], F.low_weight(), max(F.num) >> Series3._SHIFT
    if low == high <= n - 2 * d:
        return "step"
    if n - 2 * d < low and high <= n - d:
        return "band"
    return None


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
        # g carried to n - 1 on an order-n surface, with and without an offset
        for g in (HoloSeries.w_var(7), HoloSeries(7, {(0, 1): ONE, (2, 1): gr(1, 1)})):
            with pytest.raises(MathPreconditionError, match="w-component truncated below"):
                graph_transform(M, Biholo(HoloSeries.z_var(7), g))
        # g = i w: Q = Re(i (u + i z zbar)) = -z zbar has no u term
        with pytest.raises(MathPreconditionError, match="u-part degenerates"):
            graph_transform(M, Biholo(HoloSeries.z_var(7), HoloSeries(8, {(0, 1): gr(0, 1)})))

    def test_weight_one_surface_refused_up_front(self):
        # E = g(z, u + iF) would be sound only to about weight n/2, which the
        # map used to be blamed for; the message names the surface's term
        F = Series3(8, {(1, 1, 0): ONE, (1, 0, 0): gr(1, 1), (0, 1, 0): gr(1, -1)})
        with pytest.raises(MathPreconditionError, match="no weight-1 term .*shear"):
            graph_transform(Hypersurface(F), Biholo.identity(8))

    def test_weight_one_surface_residual_names_the_surface(self):
        # the truncated residual blamed the map ("w-component truncated");
        # for complete polynomial data the weight-1 term is sound
        M = Hypersurface(Series3(8, {(1, 1, 0): ONE, (1, 0, 0): gr(1, 1), (0, 1, 0): gr(1, -1)}))
        h = Biholo.identity(8)
        with pytest.raises(MathPreconditionError, match="no weight-1 term .*shear"):
            fundamental_identity_residual(M, h, M)
        assert fundamental_identity_residual(M, h, M, polynomial=True).is_zero()

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

    def test_leading_part_shapes_certified(self, rng, monkeypatch):
        # only an identity leading part (lambda = 1, sigma = 1, q2 = 0) is
        # solved over (P, Q) directly; any other -- lambda != 1 or sigma != 1
        # (the linear maps, an isotropy map with sigma = |lambda|^2), q2 =
        # Re(b z^2) from a z^2 term in g, or the tilt w -> (1 - ic) w, whose
        # q2 = c z zbar -- is solved over an identity-led table of
        # L^-1 o (P, Q), the first table made, and mapped back, and the check
        # gets a second table, of (P, Q)
        n = 8
        c, lam0, b = gr("2/3"), gr(2, 1), gr(1, -3)
        u = Series3.u_var(n)
        log = LoopCalls(monkeypatch)

        def linear(lam, sigma):
            return Biholo(HoloSeries(n - 1, {(1, 0): lam}), HoloSeries(n, {(0, 1): sigma}))

        tilt = Biholo(HoloSeries.z_var(n - 1), HoloSeries(n, {(0, 1): ONE - gr(0, 1) * c}))
        iso = isotropy_map(lam0, gr(1, 2), gr("1/2"), n)
        bent = Biholo(iso.f, iso.g + HoloSeries(n, {(2, 0): b}))
        re_bz2 = Series3(n, {(2, 0, 0): b * gr("1/2"), (0, 2, 0): b.conjugate() * gr("1/2")})
        for M in [sphere(n)] + [
            Hypersurface(
                Series3.hermitian_square(n) + rand_real_series3(rng, n, terms=6, min_weight=3)
            )
            for _ in range(3)
        ]:
            identity_led = Biholo(
                HoloSeries(n - 1, {(1, 0): ONE, (2, 0): rand_gr(rng), (0, 1): rand_gr(rng)}),
                HoloSeries(n, {(0, 1): ONE, (1, 1): rand_gr(rng), (0, 2): rand_gr(rng)}),
            )
            for h, lam, q_2 in (
                (identity_led, ONE, u),
                (linear(lam0, gr("1/3")), lam0, u * gr("1/3")),
                (linear(ONE, gr("1/3")), ONE, u * gr("1/3")),
                (linear(lam0, ONE), lam0, u),
                (tilt, ONE, u + Series3.hermitian_square(n) * c),
                (iso, lam0, u * 5),
                (bent, lam0, u * 5 + re_bz2),
            ):
                del log.made[:]
                img, P, Q, _, forward = normalize._graph_transform_parts(M, h)
                assert P.coeff(1, 0, 0) == lam and Q.weight_part(2) == q_2
                table = log.made[0]
                assert table.near[0] >= 1
                assert log.made == ([table] if h is identity_led else [table, forward])
                assert table is forward or table.args[0] != P or table.args[2] != Q
                assert fundamental_identity_residual(M, h, img).is_zero()
                if h is iso and M == sphere(n):
                    assert img == M

    def test_residual_detects_wrong_target(self, rng):
        M = rand_surface(rng, terms=5)
        h = rand_contract_map(rng, 8)
        img, _, _ = graph_transform(M, h)
        wrong = Hypersurface(img.series + Series3.monomial(8, 2, 2, 1, gr("1/13")), check=False)
        resid = fundamental_identity_residual(M, h, wrong)
        assert not resid.is_zero()

    def test_stage_residual_is_the_oracle(self, rng):
        # the stage check, forward(F2) - R over the transform's own P, Q, R
        # and its table of (P, conj P, Q) -- the loop's own for an identity
        # leading part, a fresh one otherwise -- is
        # fundamental_identity_residual term for term
        for _ in range(3):
            M = rand_surface(rng, terms=5, min_weight=2)
            for h in (rand_contract_map(rng, 8), gap_map(rng, 8, 1)):
                img, P, Q, R, forward = normalize._graph_transform_parts(M, h)
                assert forward.args == (P, P.conj(), Q)
                assert (forward(img.series) - R).is_zero()
                wrong = Hypersurface(
                    img.series + Series3.monomial(8, 2, 2, 1, gr("1/13")), check=False
                )
                resid = forward(wrong.series) - R
                assert not resid.is_zero()
                assert resid == fundamental_identity_residual(M, h, wrong)

    def test_remainder_check_is_live(self, monkeypatch):
        # doubling the image of any one step, or of the band's one call,
        # leaves the lowest weight of its argument nonzero
        n = 10
        M = rand_surface(random.Random(4), n=n, terms=10, min_weight=2)
        h = gap_map(random.Random(5), n, 2)
        log = LoopCalls(monkeypatch)
        graph_transform(M, h)
        kinds = [loop_kind(table, F, n) for table, F in log.calls]
        assert "step" in kinds and "band" in kinds
        lows = [F.low_weight() for _, F in log.calls]
        for log.bad, nu in enumerate(lows, 1):
            del log.calls[:]
            with pytest.raises(InternalInvariantError, match="recursion left weight %d$" % nu):
                graph_transform(M, h)

    def test_image_is_real(self, rng):
        # the image carries no reality check of its own: R = Im E is real and
        # both tables map real series to real ones (see graph_transform)
        n = 10
        for _ in range(6):
            M = rand_surface(rng, n, terms=8)
            near = Biholo(
                HoloSeries(n - 1, {(1, 0): ONE, (2, 0): rand_gr(rng), (1, 1): rand_gr(rng)}),
                HoloSeries(n, {(0, 1): ONE, (2, 1): rand_gr(rng), (0, 2): rand_gr(rng)}),
            )
            for h in (near, rand_contract_map(rng, n)):
                img, _, _ = graph_transform(M, h)
                assert img.series.is_real()
                assert img.series.conj() == img.series
                assert fundamental_identity_residual(M, h, img).is_zero()


class TestIdentityLedLoop:
    """The transform solves over (P~, Q~) = L^-1 o (P, Q), L = (lambda z,
    sigma u + q2) the leading part, in one loop of steps, one band call and
    copies (``graph_transform``)."""

    def test_identity_map_copies_every_weight(self, rng, monkeypatch):
        # no offset: the gap is n + 1, so every weight of R = F is copied
        log = LoopCalls(monkeypatch)
        for n in (6, 9):
            M = rand_surface(rng, n, terms=8, min_weight=2)
            img, _, _, _, table = normalize._graph_transform_parts(M, Biholo.identity(n))
            assert img == M and table.near == (n + 1, [])
            assert not log.calls

    @pytest.mark.parametrize("n", range(8, 14))
    def test_band_step_at_each_order(self, rng, monkeypatch, n):
        # every call is one step or the band's one call, and both occur
        log = LoopCalls(monkeypatch)
        for d in (2, 3):
            del log.calls[:]
            M = rand_surface(rng, n, terms=10, min_weight=2)
            h = gap_map(rng, n, d)
            img, _, _ = graph_transform(M, h)
            kinds = [loop_kind(table, F, n) for table, F in log.calls]
            assert kinds.count("band") == 1 and kinds.count("step") == len(kinds) - 1
            assert {table.near[0] for table, _ in log.calls} == {d}
            assert fundamental_identity_residual(M, h, img).is_zero()


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


def four_move_surface():
    """A surface on which adapt_chart runs all four moves."""
    F = Series3.zero(8)
    F = F + Series3.monomial(8, 1, 0, 0, gr("1/2", "1/3")) + Series3.monomial(8, 0, 1, 0, gr("1/2", "-1/3"))
    F = F + Series3.monomial(8, 0, 0, 1, gr("2/7"))
    F = F + Series3.monomial(8, 2, 0, 0, gr("1/5", "-1/2")) + Series3.monomial(8, 0, 2, 0, gr("1/5", "1/2"))
    F = F + Series3.hermitian_square(8) * gr(-3)
    return Hypersurface(F)


class TestAdaptChart:
    def test_all_four_moves(self):
        stages = []
        Ma = adapt_chart(four_move_surface(), stages, verify=True)
        assert [s.name for s in stages] == ["shear", "tilt", "bend", "scale"]
        low = Ma.series.up_to_weight(2)
        assert low == Series3.hermitian_square(8).up_to_weight(2)

    def test_shear_check_is_live(self, monkeypatch):
        # a z-linear term the shear leaves is refused at the shear, before
        # the tilt's transform would refuse the surface as a precondition
        def leaky(F, zs, us, polynomial=False):
            z_term = Series3.monomial(F.n, 1, 0, 0, ONE) + Series3.monomial(F.n, 0, 1, 0, ONE)
            return eval_graph(F, zs, us, polynomial) + z_term

        monkeypatch.setattr(normalize, "eval_graph", leaky)
        with pytest.raises(InternalInvariantError, match="w-shear failed"):
            adapt_chart(four_move_surface())

    @pytest.mark.parametrize("move", ["tilt", "bend", "scale"])
    def test_postcondition_catches_each_later_move(self, monkeypatch, move):
        # a move that leaves its surface unchanged leaves its weight-2 term
        # (u, z^2 or the Levi coefficient -3); the one final check sees it.
        # Every move, loop (tilt) or closed form (bend, scale), is applied
        # by _run_stage
        inner = normalize._run_stage

        def skipping(name, M, *rest):
            return M if name == move else inner(name, M, *rest)

        monkeypatch.setattr(normalize, "_run_stage", skipping)
        with pytest.raises(InternalInvariantError, match="adapted chart postcondition"):
            adapt_chart(four_move_surface(), verify=True)

    def test_vertical_image_is_the_weight_loop(self, rng):
        # h = (z, a w + p(z)), a real and nonzero, p(0) = 0: the closed form
        # equals the transform's weight loop exactly (g_z(0) = 0 there)
        for n in (7, 8, 9):
            for _ in range(4):
                M = rand_surface(rng, n=n, terms=10, min_weight=2)
                a = gr(rand_rat(rng, nonzero=True))
                p = {(j, 0): rand_gr(rng) for j in rng.sample(range(2, n + 1), 3)}
                h = Biholo(HoloSeries.z_var(n - 1), HoloSeries(n, {(0, 1): a, **p}))
                assert normalize._vertical_image(M.series, a, p) == graph_transform(M, h)[0].series

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

    def test_levi_degenerate_after_shear_raises(self):
        # v = z zbar + 2 Re(alpha z) + 2 Re(beta z u): the raw z zbar
        # coefficient is 1, but the shear that removes alpha z sends
        # u to u - Re(nu z) with nu = -2i alpha, which leaves the z zbar
        # coefficient 1 - 2 Re(i beta conj(alpha)) = 0 here
        alpha, beta = gr(2, -1), gr("-3/2", "1/2")
        assert 1 - 2 * (beta * gr(0, 1) * alpha.conjugate()).real == 0
        M = perturbed_sphere(6, (1, 0, 0, alpha), (1, 0, 1, beta))
        assert M.series.coeff(1, 1, 0) == ONE
        with pytest.raises(LeviDegenerateError):
            normalize_hypersurface(M)

    def test_benchmark_draw_levi_degenerate_after_shear(self):
        # the generator checks only the raw z zbar coefficient, so its
        # chart_verify draw for seed 571, surface 2, is the surface above
        obj = load_gen().rand_surface_json(
            random.Random("chart_verify/monomials/2"),
            random.Random("chart_verify/571/coefficients/2"),
            9,
            60,
        )
        F = Hypersurface.from_json(obj).series
        assert F.coeff(1, 1, 0) == ONE
        assert (F.coeff(1, 0, 0), F.coeff(1, 0, 1)) == (gr(2, -1), gr("-3/2", "1/2"))
        with pytest.raises(LeviDegenerateError):
            normalize_hypersurface(Hypersurface(F), verify=True, stop_after="punctual")

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


def holo_keys(n):
    """(j, l) with j + 2l = n, sorted."""
    return sorted((n - 2 * l, l) for l in range(n // 2 + 1))


def row_keys(delta):
    """The real rows at weight delta: (j, k, l, im) for the monomials with
    j >= k, sorted, im = 0 for the real part and 1, off the diagonal, for
    the imaginary part."""
    monos = sorted(
        (delta - 2 * l - k, k, l)
        for l in range(delta // 2 + 1)
        for k in range((delta - 2 * l) // 2 + 1)
    )
    return [(j, k, l, im) for j, k, l in monos for im in range(1 + (j != k))]


def real_rows(series, delta):
    """The parts of series' coefficients that ``row_keys(delta)`` name."""
    values = []
    for j, k, l, im in row_keys(delta):
        v = series.coeff(j, k, l)
        values.append(v.imag if im else v.real)
    return values


def core_matrix(delta):
    """L at weight delta by probes: the rows ``row_keys`` of core_expression
    on each unit coefficient of f, then of g, at their keys (j, l) sorted,
    each unit 1 then i."""
    columns = []
    for n, part in ((delta - 1, 0), (delta, 1)):
        for key in holo_keys(n):
            for unit in (ONE, I_UNIT):
                fg = [HoloSeries.zero(delta - 1), HoloSeries.zero(delta)]
                fg[part] = HoloSeries(n, {key: unit})
                columns.append(real_rows(core_expression(*fg, delta), delta))
    return [list(row) for row in zip(*columns)]


def col_type(col):
    """The type j - k of a column's first row."""
    j, k, _, _ = next(iter(col))
    return j - k


def dense(delta, columns):
    """The columns {(j, k, l, im): value} of ``_operator_columns`` as a matrix
    over ``row_keys``."""
    return [[col.get(key, 0) for col in columns] for key in row_keys(delta)]


class TestPunctual:
    def test_system_dimensions(self):
        # unknown/equation counts for the three weights
        expected = {3: (8, 6), 4: (10, 9), 5: (12, 12)}
        for delta, (n_unknowns, n_rows) in expected.items():
            labels, keys, den, rows = _homological_operator(delta)
            assert len(labels) == len(rows) == n_unknowns
            assert keys == row_keys(delta) and len(keys) == n_rows
            mat = core_matrix(delta)
            assert (len(mat[0]), len(mat)) == (n_unknowns, n_rows)

    def test_system_has_full_row_rank(self):
        # rank = row count (6, 9, 12): every target is solvable, so the
        # solve operator needs no consistency rows
        for delta in (3, 4, 5):
            mat = core_matrix(delta)
            assert rank(mat) == len(mat)

    @pytest.mark.parametrize("bad", [3, 4, 5])
    def test_remainder_check_is_live(self, monkeypatch, bad):
        # doubling one weight's solution leaves minus its target there; the
        # stage residual still vanishes, as the transform of the doubled map
        # is right, so the remainder check is what refuses it
        solve_homological = normalize._solve_homological

        def doubled(delta, target):
            parts = solve_homological(delta, target)
            if delta == bad:
                parts = tuple({k: v * 2 for k, v in c.items()} for c in parts)
            return parts

        # an adapted surface with a term at each of the weights 3, 4 and 5
        M = perturbed_sphere(8, (2, 1, 0, gr(1, 2)), (2, 2, 0, gr(3)), (3, 2, 0, gr("1/2", -1)))
        monkeypatch.setattr(normalize, "_solve_homological", doubled)
        with pytest.raises(InternalInvariantError, match="weight-%d normalization left" % bad):
            punctual_normalize(M, [], verify=True)

    def test_cached_solver_matches_solve(self, rng):
        # the cached operator gives linalg.solve's particular solution of
        # the probed system on random Gaussian-rational targets
        for delta in (3, 4, 5):
            mat = core_matrix(delta)
            f_keys, g_keys = holo_keys(delta - 1), holo_keys(delta)
            for _ in range(8):
                target = rand_real_series3(rng, 9, terms=6, min_weight=delta).weight_part(delta)
                sol = solve(mat, real_rows(target, delta))
                pairs = [GaussianRational(re, im) for re, im in zip(sol[::2], sol[1::2])]
                fc = {jk: v for jk, v in zip(f_keys, pairs) if v}
                gc = {jk: v for jk, v in zip(g_keys, pairs[len(f_keys):]) if v}
                assert _solve_homological(delta, target) == (fc, gc, {})

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

    def test_needs_order_6(self):
        # an order-5 surface is refused before any weight is solved
        with pytest.raises(MathPreconditionError, match="needs order >= 6"):
            punctual_normalize(sphere(5))


class TestLinalg:
    def test_empty_system(self):
        # rref of no rows has no pivots: rank 0, and the empty solution
        assert rank([]) == 0
        assert solve([], []) == []


class TestHomologicalOperator:
    """L(f, g) = Re(i g + 2 zbar f) on w0 = u + i z zbar, built by type
    block in closed form, with N's unit columns (ROADMAP item 19)."""

    @pytest.mark.parametrize("delta", range(3, 13))
    def test_columns_are_core_expression(self, delta):
        labels, columns = _operator_columns(delta)
        probed = [col for (part, _, _), col in zip(labels, columns) if part < 2]
        assert dense(delta, probed) == core_matrix(delta)
        # N's columns are the units at the monomials assert_normal_form allows
        normal = []
        for j, k, l, im in row_keys(delta):
            term = Series3.monomial(delta, j, k, l, ONE)
            try:
                assert_normal_form(Hypersurface(sphere(delta).series + term + term.conj()))
            except InternalInvariantError:
                continue
            normal.append(((2, (j, k, l), (ONE, I_UNIT)[im]), {(j, k, l, im): 1}))
        assert [lc for lc in zip(labels, columns) if lc[0][0] == 2] == normal

    def test_each_column_lies_in_one_type(self):
        for delta in range(3, 16):
            for col in _operator_columns(delta)[1]:
                assert col and len({j - k for j, k, _, _ in col}) == 1

    @pytest.mark.parametrize("delta", range(3, 16))
    def test_blocks(self, delta):
        # from weight 5 on every block of [L | N] is square and of full rank,
        # so each weight-delta part splits uniquely as L(f, g) + N; at
        # weights 3 and 4 L's kernel has dimension 2 and 1 (the isotropy)
        labels, columns = _operator_columns(delta)
        assert (delta <= 5) == all(part < 2 for part, _, _ in labels)
        types = {j - k for j, k, _, _ in row_keys(delta)}
        kernel = 0
        for t in types:
            cols = [col for col in columns if col_type(col) == t]
            keys = [key for key in row_keys(delta) if key[0] - key[1] == t]
            rows = [[col.get(key, 0) for col in cols] for key in keys]
            assert rank(rows) == len(rows)
            if delta >= 5:
                assert len(cols) == len(rows)
            kernel += len(cols) - len(rows)
        assert kernel == {3: 2, 4: 1}.get(delta, 0)

    def test_cached_and_filled_by_punctual(self):
        _homological_operator.cache_clear()
        punctual_normalize(perturbed_sphere(6, (2, 1, 0, ONE), (3, 1, 0, ONE), (3, 2, 0, ONE)))
        assert _homological_operator.cache_info().currsize == 3
        misses = _homological_operator.cache_info().misses
        punctual_normalize(perturbed_sphere(8, (2, 1, 0, gr(1, 2)), (3, 2, 0, ONE)))
        assert _homological_operator.cache_info().misses == misses

    @pytest.mark.parametrize("seed", range(4))
    def test_weight_6_normal_part_is_c42(self, seed):
        # the post-punctual surface is normal through weight 5, so at weight
        # 6 the later stages act through L alone, and the normal form keeps
        # the N part of the split: c42 z^4 zbar^2 + conj (ROADMAP item 20)
        gen = load_gen()
        rng = random.Random(seed)
        M = Hypersurface.from_json(gen.rand_surface_json(rng, rng, 6, 30))
        post = normalize_hypersurface(M, stop_after="punctual").surface
        _, _, nc = _solve_homological(6, post.series.weight_part(6))
        c42 = normalize_hypersurface(M).surface.series.coeff(4, 2, 0)
        assert c42 and nc == {(4, 2, 0): c42}


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

    def test_transform_curve_refuses_a_tangent_image(self):
        # w -> i w turns the u-axis into the v-axis, which Re psi = t cannot
        # parametrize
        axis = TransversalCurve(UPoly.zero(4), UPoly.var(4))
        h = Biholo(HoloSeries.z_var(7), HoloSeries.w_var(8) * I_UNIT)
        with pytest.raises(MathPreconditionError, match="loses transversality"):
            transform_curve(axis, h)


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

    def test_normalize_levi_needs_levi_slice_at_1(self):
        # F = 2 z zbar: the Levi slice starts at 2, which only the adapted
        # chart's scale removes
        with pytest.raises(MathPreconditionError, match="Levi slice must start at 1"):
            normalize_levi(Hypersurface(Series3.hermitian_square(8) * 2))

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


class TestStageResidual:
    """With verify=True each stage is checked by the graph identity over the
    P, Q, R and forward table its transform built (``_run_stage``), and each
    closed-form vertical move by ``fundamental_identity_residual``."""

    def test_one_build_per_transform_stage(self, monkeypatch):
        # P, E, Q and R are built once per transform stage, and once for
        # each vertical move's standalone residual (it has no transform)
        calls = []
        inner = normalize._transform_ingredients

        def counted(*args, **kwargs):
            calls.append(args[0].n)
            return inner(*args, **kwargs)

        monkeypatch.setattr(normalize, "_transform_ingredients", counted)
        names = set()
        for seed in (2, 5, 9):
            del calls[:]
            M = rand_surface(random.Random(seed), n=9, terms=12)
            res = normalize_hypersurface(M, verify=True, stop_after="punctual")
            assert all(s.residual_zero is True for s in res.stages)
            assert len(calls) == len(res.stages) > 0
            names.update(res.stage_names())
        assert "shear" in names and names & {"scale", "punctual3", "punctual4"}

    def test_perturbed_stage_image_raises(self, monkeypatch):
        inner = normalize._graph_transform_parts
        M = rand_surface(random.Random(2), n=9, terms=12)
        bump = Series3.monomial(9, 4, 3, 0, ONE) + Series3.monomial(9, 3, 4, 0, ONE)

        def perturbed(M, h):
            img, P, Q, R, forward = inner(M, h)
            return Hypersurface(img.series + bump, check=False), P, Q, R, forward

        monkeypatch.setattr(normalize, "_graph_transform_parts", perturbed)
        # unchecked, the bump passes every stage postcondition
        assert not normalize_hypersurface(M, stop_after="punctual").completed
        # shear, bend and scale are closed form; punctual3 is the first loop
        with pytest.raises(InternalInvariantError, match="independent residual after stage 'punctual3'"):
            normalize_hypersurface(M, verify=True, stop_after="punctual")

    @pytest.mark.parametrize("move", ["bend", "scale"])
    def test_perturbed_closed_form_image_raises(self, monkeypatch, move):
        # the closed-form image of bend (p = zeta z^2) or scale (p = 0) is
        # checked by fundamental_identity_residual under verify
        inner = normalize._vertical_image
        F = four_move_surface().series
        M = Hypersurface(F - F.weight_part(1))
        bump = Series3.monomial(8, 4, 3, 0, ONE) + Series3.monomial(8, 3, 4, 0, ONE)

        def perturbed(F, a, p):
            img = inner(F, a, p)
            return img + bump if bool(p) == (move == "bend") else img

        monkeypatch.setattr(normalize, "_vertical_image", perturbed)
        stages = []
        adapt_chart(M, stages)
        assert [s.name for s in stages] == ["tilt", "bend", "scale"]
        with pytest.raises(InternalInvariantError, match="independent residual after stage '%s'" % move):
            adapt_chart(M, verify=True)


class TestPostChainGuards:
    """Each check after the chain is found, tripped by a fault at the stage
    runner on a surface where every stage has work (skipping a stage with no
    work would trip nothing)."""

    @staticmethod
    def surface():
        return graph_transform(sphere(8), rand_contract_map(random.Random(2), 8))[0]

    MESSAGES = {
        "straighten": "straightened curve is not the u-axis",
        "harmonics": "harmonic slices after harmonic killing does not vanish",
        "levi": "Levi slice not normalized to 1",
        "absorb": "degree-one slices after absorption does not vanish",
        "rotate": "F22 slice survived the rotation",
        "reparam": "F33 slice survived the reparametrization",
        "transport": r"degree-\(4,2\) slice transport law violated",
    }

    @pytest.mark.parametrize("stage", list(MESSAGES))
    def test_faulty_stage_trips_its_check(self, monkeypatch, stage):
        # a skipped stage leaves the slices its own check reads; "transport"
        # adds z^4 zbar^2 + conj to the reparametrized image, which keeps
        # F33 empty but breaks the degree-(4,2) slice transport law
        inner = normalize._run_stage
        bump = Series3.monomial(8, 4, 2, 0, ONE) + Series3.monomial(8, 2, 4, 0, ONE)

        def faulty(name, M, *rest):
            if name == stage:
                return M
            M2 = inner(name, M, *rest)
            if name == "reparam" and stage == "transport":
                return Hypersurface(M2.series + bump)
            return M2

        monkeypatch.setattr(normalize, "_run_stage", faulty)
        with pytest.raises(InternalInvariantError, match=self.MESSAGES[stage]):
            normalize_hypersurface(self.surface())

    def test_wrong_found_chain_trips_the_obstruction_check(self, monkeypatch):
        inner = normalize.find_chain_curve

        def wrong(M):
            phi = inner(M)
            return phi + UPoly(phi.n, {3: ONE})

        monkeypatch.setattr(normalize, "find_chain_curve", wrong)
        with pytest.raises(InternalInvariantError, match="found curve left a chain obstruction"):
            normalize_hypersurface(self.surface())


class TestGroupOracles:
    def test_normal_form_commutes_with_dilation(self):
        # N(d M) = d N(M) for the dilations and rotations d = (lam z, |lam|^2 w):
        # every stage commutes with them, so the pipeline must too.  The
        # transform needs F of weight >= 2, so the draws have no shear; these
        # four run every other stage but the tilt
        n = 10
        for seed in (8, 14, 31, 39):
            M = rand_surface(random.Random(seed), n=n, terms=20, min_weight=2)
            N = normalize_hypersurface(M).surface
            for lam in (gr(2), gr(0, 1), gr(1, 1), gr(3, -2)):
                d = Biholo(HoloSeries.z_var(n - 1) * lam, HoloSeries.w_var(n) * (lam * lam.conjugate()))
                assert normalize_hypersurface(graph_transform(M, d)[0]).surface == graph_transform(N, d)[0]


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
        # a run on the surface truncated to order 2m+1 leaves the full-order
        # F_{3,2} coefficients through u^(m-2), the rule find_chain_curve's
        # truncated block runs rest on
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

    def test_sphere_chain_response(self):
        # on the model sphere the curve c t^m leaves -2m(m-1) conj(c) as the
        # u^(m-2) coefficient of F_{3,2}, the constant find_chain_curve uses
        for m in range(3, 11):
            M = Hypersurface.sphere(2 * m + 1)
            for c in (ONE, gr(0, 1)):
                f32 = _f32_slice_through_subpipeline(M, UPoly(m, {m: c}))
                assert f32.coeff(m - 2) == c.conjugate() * (-2 * m * (m - 1)), (m, c)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_chain_step_closed_form(self, seed):
        # on z zbar + (weight >= 6), adding x t^m to the curve solved through
        # c_{m-1} moves the u^(m-2) coefficient of F_{3,2} by -2m(m-1) conj(x),
        # so c_m = conj(r0) / (2m(m-1)) cancels the residual r0.  The random
        # z^3 zbar^2 u^(m-2) terms make every r0 nonzero
        rng = random.Random(seed)
        n = 11
        pert = rand_real_series3(rng, n, terms=20, min_weight=6)
        seeded = [(3, 2, m - 2, rand_gr(rng, nonzero=True)) for m in range(3, 6)]
        M = Hypersurface(perturbed_sphere(n, *seeded).series + pert)
        chain = find_chain_curve(M)
        for m in range(3, 6):
            Mm = M.with_order(2 * m + 1)
            solved = UPoly(m, {k: v for k, v in chain.c.items() if k < m})
            r0 = _f32_slice_through_subpipeline(Mm, solved).coeff(m - 2)
            assert r0 and not r0.is_real(), m
            assert chain.coeff(m) == r0.conjugate() / (2 * m * (m - 1))
            x = rand_gr(rng, nonzero=True)
            moved = _f32_slice_through_subpipeline(Mm, solved + UPoly(m, {m: x})).coeff(m - 2)
            assert moved - r0 == x.conjugate() * (-2 * m * (m - 1)), m

    @staticmethod
    def block_runs(seed):
        """On z zbar + 20 random terms of weight >= 6 at order 13, plus
        z^3 zbar^2 u^(m-2) terms that make every r_m nonzero: for m = 3, 4
        yield m, the found chain, a random x, and the F_{3,2} slices of the
        order-(2m+5) run on the curve solved through c_{m-1}, without and
        with x t^m added."""
        rng = random.Random(seed)
        n = 13
        pert = rand_real_series3(rng, n, terms=20, min_weight=6)
        seeded = [(3, 2, m - 2, rand_gr(rng, nonzero=True)) for m in range(3, 7)]
        M = Hypersurface(perturbed_sphere(n, *seeded).series + pert)
        chain = find_chain_curve(M)
        for m in (3, 4):
            Mm = M.with_order(2 * m + 5)
            solved = UPoly(m + 2, {k: v for k, v in chain.c.items() if k < m})
            x = rand_gr(rng, nonzero=True)
            yield (
                m, chain, x,
                _f32_slice_through_subpipeline(Mm, solved),
                _f32_slice_through_subpipeline(Mm, solved + UPoly(m + 2, {m: x})),
            )

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_chain_block_of_two(self, seed):
        # x t^m moves r_m by -2m(m-1) conj(x) and leaves r_{m+1} as it is,
        # so one run on the curve through c_{m-1} solves c_m and c_{m+1}
        for m, chain, x, r, moved in self.block_runs(seed):
            for k in (m, m + 1):
                assert r.coeff(k - 2), (m, k)
                assert chain.coeff(k) == r.coeff(k - 2).conjugate() / (2 * k * (k - 1))
            assert moved.coeff(m - 2) - r.coeff(m - 2) == x.conjugate() * (-2 * m * (m - 1)), m
            assert moved.coeff(m - 1) == r.coeff(m - 1), m

    def test_chain_block_of_three_is_unsound(self):
        # a product of c_m with a weight-6 coefficient of F reaches r_{m+2}:
        # on this draw x t^m moves r_{m+2}, so r_{m+2} read without c_m is wrong
        for m, _, _, r, moved in self.block_runs(23):
            assert moved.coeff(m) != r.coeff(m), m

    @pytest.mark.parametrize("n, runs", [(6, 0), (7, 1), (10, 1), (11, 2), (13, 2), (18, 3)])
    def test_chain_runs_per_block_of_two(self, monkeypatch, n, runs):
        # ceil((mmax - 2)/2) subpipeline runs, mmax = (n-1)//2; each run
        # straightens once, so counting straighten_curve counts the runs
        calls = []
        inner = normalize.straighten_curve

        def counted(*args, **kwargs):
            calls.append(args[0].n)
            return inner(*args, **kwargs)

        monkeypatch.setattr(normalize, "straighten_curve", counted)
        rng = random.Random(n)
        M = Hypersurface(
            Series3.hermitian_square(n) + rand_real_series3(rng, n, terms=8, min_weight=6)
        )
        find_chain_curve(M)
        mmax = (n - 1) // 2
        assert len(calls) == runs == -(-(mmax - 2) // 2)
        # each block (m, m+1) runs at order 2 min(m+1, mmax) + 1
        assert calls == [2 * min(m + 1, mmax) + 1 for m in range(3, mmax + 1, 2)]

    @pytest.mark.parametrize("n", [11, 13, 16, 17])
    @pytest.mark.parametrize("seed", range(7, 12))
    def test_cut_block_runs_match_full_input(self, monkeypatch, n, seed):
        # the block (m, top) runs without weights 2m and 2m + 2 and, after
        # straighten, without the terms with j > 3 or k > 3; its F_{3,2}
        # coefficients through u^(top-2) are those of a run on the whole
        # surface at order 2 top + 1.  Orders 11 and 16 end on a one-target
        # block (top = m), 13 and 17 on a two-target one.  The surfaces are
        # the seed's single-stream 30-term draws of the benchmark's generator,
        # normalized through weight 5
        rng = random.Random(seed)
        obj = load_gen().rand_surface_json(rng, rng, n, 30)
        M = normalize_hypersurface(Hypersurface.from_json(obj), stop_after="punctual").surface
        runs = []
        inner = normalize._f32_slice_through_subpipeline

        def recorded(block, phi):
            runs.append((phi, inner(block, phi)))
            return runs[-1][1]

        monkeypatch.setattr(normalize, "_f32_slice_through_subpipeline", recorded)
        find_chain_curve(M)
        mmax = (n - 1) // 2
        assert [phi.n for phi, _ in runs] == [min(m + 1, mmax) for m in range(3, mmax + 1, 2)]
        for phi, f32 in runs:
            top = phi.n
            whole = M.with_order(2 * top + 1)
            straight = straighten_curve(whole, TransversalCurve.complete(whole, phi))
            full, _ = _through_rotation(straight, [])
            for q in range(top - 1):
                assert f32.coeff(q) == full.slice(3, 2).coeff(q), (top, q)

    def test_block_runs_get_only_the_terms_that_reach_residuals(self, monkeypatch):
        # the block (m, top) straightens a surface with no term of weight 2m
        # or 2m + 2, and the stages after straighten see no term
        # z^j zbar^k u^l with j > 3 or k > 3
        rng = random.Random(7)
        obj = load_gen().rand_surface_json(rng, rng, 17, 30)
        M = normalize_hypersurface(Hypersurface.from_json(obj), stop_after="punctual").surface
        seen = []
        for name in ("straighten_curve", "kill_harmonics"):
            def recorded(M, *args, inner=getattr(normalize, name), **kwargs):
                seen.append({Series3._unpack(key) for key in M.series.num})
                return inner(M, *args, **kwargs)

            monkeypatch.setattr(normalize, name, recorded)
        find_chain_curve(M)
        blocks = (3, 5, 7)
        assert len(seen) == 2 * len(blocks)
        # the surface has terms of every weight the blocks drop, and terms
        # with j > 3
        weights = {j + k + 2 * l for j, k, l in M.series.c}
        assert {2 * m + e for m in blocks for e in (0, 2)} <= weights
        assert any(j > 3 for j, _, _ in M.series.c)
        for m, straightened, harmonics in zip(blocks, seen[::2], seen[1::2]):
            assert not {j + k + 2 * l for j, k, l in straightened} & {2 * m, 2 * m + 2}, m
            assert all(j <= 3 and k <= 3 for j, k, _ in harmonics), m

    def test_block_cut_one_weight_too_far_trips_reappeared_check(self, monkeypatch):
        # weight 2m - 1 moves r_{m-1} at first order: a block run without it
        # leaves the residual of the u^(m-3) coefficient that the block
        # before solved, and find_chain_curve refuses it
        rng = random.Random(21)
        n = 13
        pert = rand_real_series3(rng, n, terms=20, min_weight=6)
        seeded = [(3, 2, m - 2, rand_gr(rng, nonzero=True)) for m in range(3, 7)]
        M = Hypersurface(perturbed_sphere(n, *seeded).series + pert)
        find_chain_curve(M)
        blocks = iter((3, 5))
        inner = normalize._f32_slice_through_subpipeline

        def cut_too_far(block, phi):
            m = next(blocks)
            return inner(_without_terms(block, lambda j, k, l: j + k + 2 * l == 2 * m - 1), phi)

        monkeypatch.setattr(normalize, "_f32_slice_through_subpipeline", cut_too_far)
        with pytest.raises(InternalInvariantError, match="solved order 2 reappeared"):
            find_chain_curve(M)

    def test_found_chain_is_verified_by_full_run(self, rng):
        for _ in range(3):
            M = rand_surface(rng, terms=8)
            res = normalize_hypersurface(M, verify=True)
            assert res.completed
            assert_normal_form(res.surface)


# ---------------------------------------------------------------------------
# full pipeline behaviour
# ---------------------------------------------------------------------------


class TestNormalFormShape:
    # Chern-Moser: F = z zbar + the sum of F_jk z^j zbar^k with
    # min(j, k) >= 2 and F_22 = F_32 = F_23 = F_33 = 0
    def classes(self, n):
        """Each (j, k, l) with j >= k and weight 1 to n, a real class."""
        return [
            (j, k, l)
            for l in range(n // 2 + 1)
            for k in range(n + 1)
            for j in range(k, n + 1)
            if 0 < j + k + 2 * l <= n
        ]

    def test_each_monomial_class(self):
        # one class added at a time to a normal form: every class outside
        # the normal form's shape is refused, every other one passes; the
        # z zbar class changes the Levi coefficient away from 1
        n = 10
        base = normalize_hypersurface(rand_surface(random.Random(11), n=n, terms=10)).surface
        assert_normal_form(base)
        allowed = 0
        for j, k, l in self.classes(n):
            v = gr("2/3") if j == k else gr("2/3", "-1/5")
            M = Hypersurface(perturbed_sphere(n, (j, k, l, v)).series + base.series - sphere(n).series)
            if k <= 1 or (j, k) in ((2, 2), (3, 2), (3, 3)):
                with pytest.raises(InternalInvariantError, match="not in normal form"):
                    assert_normal_form(M)
            else:
                assert_normal_form(M)
                allowed += 1
        assert allowed == 20

    def test_levi_coefficient_must_be_one(self):
        for c in (0, 2, -1):
            with pytest.raises(InternalInvariantError):
                assert_normal_form(Hypersurface(Series3.hermitian_square(8) * c, check=False))


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

    def test_composite_after_shear_reproduces_final_surface(self, rng):
        # on a surface with a z-linear term the pipeline runs the shear
        # first.  The composite of all maps is then sound only to a lower
        # order: through that term, unseen terms of the later maps reach
        # weight n.  The composite of the later maps is sound to the full
        # order and sends the sheared surface exactly onto the result, as a
        # graph transform and as a zero residual
        for _ in range(6):
            while True:
                M = rand_surface(rng, terms=8)
                if M.series.coeff(1, 0, 0):
                    break
            res = normalize_hypersurface(M)
            first, *later = res.stages
            assert first.name == "shear" and later
            total = later[0].map
            for stage in later[1:]:
                total = stage.map.compose(total)
            img, _, _ = graph_transform(first.surface, total)
            assert img.n == M.n
            assert img.series == res.surface.series
            assert fundamental_identity_residual(first.surface, total, res.surface).is_zero()

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
