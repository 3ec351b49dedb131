"""Normal-form pipeline for rigid real-analytic graphs v = F(z, zbar, u).

The central objects:

* ``Hypersurface`` -- a real graph series (polynomial data; the truncation
  order bounds the *transforms*, the stored terms are the surface).
* ``Biholo``       -- an origin-fixing map (z, w) |-> (f(z,w), g(z,w)).
* ``graph_transform`` -- the induced graph function of the image surface,
  solved weight by weight; its independent correctness oracle is
  ``fundamental_identity_residual``.
* the pipeline stages: adapted chart, punctual normalization through weight
  5, chain straightening (with the chain found automatically or supplied),
  harmonic killing, Levi normalization, degree-one absorption, the unitary
  u-rotation and the final chain reparametrization, ending in the normal
  form  v = zzb + (weight >= 6 terms with tightly constrained slices).

Every stage both *constructs* its map from the surface data and *asserts*
the postcondition it is responsible for, so a run that completes silently
is a proof sketch at the working order.
"""

from __future__ import annotations

import math

from .errors import (
    InternalInvariantError,
    LeviDegenerateError,
    MathPreconditionError,
    ParseError,
)
from .linalg import solve
from .series_core import (
    GaussianRational,
    HoloSeries,
    Series3,
    UPoly,
    chalf,
    cimag,
    cone,
    czero,
    eval_curve,
    eval_graph,
    eval_holo2,
    eval_holo3,
    holo_from_json,
    holo_to_json,
    is_json_count,
    scalar_abs,
    series3_from_json,
    series3_to_json,
)


def _nonzero(v, exact):
    return bool(v) if exact else scalar_abs(v) > 0.0


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


class Hypersurface:
    """A rigid graph v = F(z, zbar, u) through the origin.

    F must be a real series (Hermitian coefficient symmetry) with F(0) = 0.
    The coefficient data is treated as an exact polynomial surface; the
    truncation order n says up to which weight transforms of it are computed.
    """

    __slots__ = ("series",)

    def __init__(self, series, check=True):
        if check:
            if series.coeff(0, 0, 0):
                raise MathPreconditionError("graph function must vanish at the origin")
            series.assert_real("graph function")
        self.series = series

    @property
    def n(self):
        return self.series.n

    @property
    def exact(self):
        return self.series.exact

    @classmethod
    def sphere(cls, n, exact=True):
        return cls(Series3.hermitian_square(n, exact), check=False)

    @classmethod
    def from_json(cls, obj):
        try:
            M = cls(series3_from_json(obj))
        except (InternalInvariantError, MathPreconditionError) as exc:
            raise ParseError("invalid hypersurface: %s" % exc)
        return M

    def to_json(self):
        return series3_to_json(self.series)

    def to_float(self):
        return Hypersurface(self.series.to_float(), check=False)

    def with_order(self, n):
        """Same polynomial surface, re-truncated/padded to order n."""
        return Hypersurface(self.series.padded(n) if n >= self.n else self.series.truncate(n), check=False)

    def slice(self, j, k):
        return self.series.slice_jk(j, k)

    def levi_coefficient(self):
        return self.series.coeff(1, 1, 0)

    def value_at(self, z0, u0):
        """F(z0, conj z0, u0) for scalars."""
        return self.series.evaluate(z0, z0.conjugate(), u0)

    def __eq__(self, other):
        if not isinstance(other, Hypersurface):
            return NotImplemented
        return self.series == other.series

    def __repr__(self):
        return "Hypersurface(%r)" % (self.series,)


class Biholo:
    """Origin-fixing holomorphic map (z, w) |-> (f(z, w), g(z, w)).

    By the weighted bookkeeping a map normalizing a surface at order n needs
    f through weight n-1 and g through weight n; constructors of stage maps
    follow that convention.
    """

    __slots__ = ("f", "g")

    def __init__(self, f, g):
        if f.exact != g.exact:
            raise InternalInvariantError("mixed exact/float map components")
        if f.coeff(0, 0) or g.coeff(0, 0):
            raise MathPreconditionError("map must fix the origin")
        self.f = f
        self.g = g

    @property
    def exact(self):
        return self.f.exact

    @classmethod
    def identity(cls, n, exact=True):
        return cls(HoloSeries.z_var(n - 1, exact), HoloSeries.w_var(n, exact))

    def compose(self, inner):
        """self after inner (apply inner first)."""
        zf = eval_holo2(self.f, inner.f, inner.g)
        inner_f = inner.f
        if inner_f.n < inner.g.n and not self.g.coeff(1, 0):
            # inner.f is carried one weight lower than inner.g; its missing
            # top slice cannot reach the g-composition's order because every
            # z-slot of g carries weight >= 2 alongside it.
            inner_f = inner_f.padded(inner.g.n)
        zg = eval_holo2(self.g, inner_f, inner.g)
        return Biholo(zf, zg)

    def to_float(self):
        return Biholo(self.f.to_float(), self.g.to_float())

    def to_json(self):
        return {
            "trunc_order": self.g.n,
            "f": holo_to_json(self.f),
            "g": holo_to_json(self.g),
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "trunc_order" not in obj:
            raise ParseError("map object needs trunc_order, f and g")
        n = obj["trunc_order"]
        if not is_json_count(n, 2):
            raise ParseError("bad map trunc_order: %r" % (n,))
        f = holo_from_json(obj.get("f", []), n - 1, "f")
        g = holo_from_json(obj.get("g", []), n, "g")
        try:
            return cls(f, g)
        except MathPreconditionError as exc:
            raise ParseError("invalid map: %s" % exc)

    def __repr__(self):
        return "Biholo(f=%r, g=%r)" % (self.f, self.g)


class TransversalCurve:
    """A curve t |-> (phi(t), psi(t)) on a graph, parametrized by u = Re psi = t."""

    __slots__ = ("phi", "psi")

    def __init__(self, phi, psi):
        if phi.exact != psi.exact:
            raise InternalInvariantError("mixed exact/float curve components")
        if phi.coeff(0) or psi.coeff(0):
            raise MathPreconditionError("curve must start at the origin")
        self.phi = phi
        self.psi = psi

    @property
    def exact(self):
        return self.phi.exact

    @classmethod
    def complete(cls, M, phi):
        """Complete a z-component into a curve on M: psi = t + i F along it."""
        exact = M.exact
        if phi.exact != exact:
            raise InternalInvariantError("curve/surface mode mismatch")
        order = M.n // 2
        phi = phi.padded(order) if phi.n < order else phi.truncate(order)
        if phi.coeff(0):
            raise MathPreconditionError("curve z-component must vanish at t = 0")
        height = eval_curve(M.series, phi)
        psi = UPoly.var(order, exact) + height.truncate(order) * cimag(exact)
        return cls(phi, psi)

    def validate_on(self, M):
        """Check Re psi = t and Im psi = F along the curve."""
        exact = self.exact
        t = UPoly.var(self.psi.n, exact)
        re_psi = self.psi.real_part()
        height = eval_curve(M.series, self.phi)
        im_psi = (self.psi - re_psi) * (-cimag(exact))
        defect = re_psi - t
        defect2 = im_psi - height.truncate(im_psi.n)
        if not defect.vanishes() or not defect2.vanishes():
            raise MathPreconditionError("curve does not lie on the hypersurface")

    def __repr__(self):
        return "TransversalCurve(phi=%r, psi=%r)" % (self.phi, self.psi)


class Stage:
    """One applied pipeline map and the surface it produced."""

    __slots__ = ("name", "map", "surface", "residual_zero")

    def __init__(self, name, biholo, surface, residual_zero=None):
        self.name = name
        self.map = biholo
        self.surface = surface
        self.residual_zero = residual_zero

    def __repr__(self):
        return "Stage(%r)" % (self.name,)


# ---------------------------------------------------------------------------
# the isotropy group of the model sphere (origin-fixing automorphisms)
# ---------------------------------------------------------------------------


def isotropy_map(lam, alpha, r, n, exact=True):
    """The sphere automorphism with parameters (lambda, alpha, r).

        z' = lambda (z + alpha w) / d,   w' = lambda conj(lambda) w / d,
        d  = 1 - 2i conj(alpha) z - (r + i alpha conj(alpha)) w,

    expanded to weights n-1 / n.  lambda != 0 is required; r must be real.
    """
    if exact:
        if isinstance(lam, complex) or isinstance(alpha, complex):
            raise InternalInvariantError("float parameters in exact isotropy map")
        lam = lam if isinstance(lam, GaussianRational) else GaussianRational(lam)
        alpha = alpha if isinstance(alpha, GaussianRational) else GaussianRational(alpha)
        if isinstance(r, GaussianRational):
            if not r.is_real():
                raise MathPreconditionError("isotropy parameter r must be real")
            r = r.real
    else:
        lam = complex(lam)
        alpha = complex(alpha)
        r = float(r)
    if not _nonzero(lam, exact):
        raise MathPreconditionError("isotropy parameter lambda must be nonzero")

    i_unit = cimag(exact)
    abs2 = alpha * alpha.conjugate()
    # the geometric-series denominator
    b = HoloSeries(
        n,
        {
            (1, 0): i_unit * alpha.conjugate() * 2,
            (0, 1): abs2 * i_unit + r,
        },
        exact,
    )
    inv_d = HoloSeries.one(n, exact)
    power = HoloSeries.one(n, exact)
    for _ in range(n):
        power = power * b
        if power.is_zero():
            break
        inv_d = inv_d + power
    zpart = HoloSeries.z_var(n, exact) + HoloSeries.w_var(n, exact) * alpha
    f = (zpart * inv_d * lam).truncate(n - 1)
    g = (HoloSeries.w_var(n, exact) * inv_d * (lam * lam.conjugate())).truncate(n)
    return Biholo(f, g)


# ---------------------------------------------------------------------------
# translation (an affine chart move, not an origin-fixing map)
# ---------------------------------------------------------------------------


def translate_to_point(M, z0, u0, v0=None):
    """Recenter the graph at the surface point over (z0, u0).

    The surface is polynomial data, so the shift is exact.  If v0 is given
    it is validated against F(z0, conj z0, u0).
    """
    F = M.series
    exact = F.exact
    if exact:
        if isinstance(z0, complex) or isinstance(u0, (float, complex)):
            raise InternalInvariantError("float point on an exact surface")
        z0 = z0 if isinstance(z0, GaussianRational) else GaussianRational(z0)
        if isinstance(u0, GaussianRational):
            if not u0.is_real():
                raise MathPreconditionError("u-coordinate must be real")
            u0 = u0.real
    else:
        z0 = complex(z0)
        u0 = float(u0)
    z0b = z0.conjugate()
    height = F.evaluate(z0, z0b, u0)
    if v0 is not None:
        diff = height - (v0 if not exact else (v0 if isinstance(v0, GaussianRational) else GaussianRational(v0)))
        if not UPoly.const(0, diff, exact).vanishes():
            raise MathPreconditionError("point is not on the hypersurface")

    n = F.n
    zero = czero(exact)
    acc = {}
    max_j = max((j for (j, _, _) in F.c), default=0)
    max_k = max((k for (_, k, _) in F.c), default=0)
    max_l = max((l for (_, _, l) in F.c), default=0)
    z_pows = [cone(exact)]
    for _ in range(max_j):
        z_pows.append(z_pows[-1] * z0)
    zb_pows = [cone(exact)]
    for _ in range(max_k):
        zb_pows.append(zb_pows[-1] * z0b)
    u_pows = [cone(exact) if exact else 1.0]
    for _ in range(max_l):
        u_pows.append(u_pows[-1] * u0)

    for (j, k, l), v in F.c.items():
        for s in range(j + 1):
            cjs = math.comb(j, s)
            for t in range(k + 1):
                ckt = math.comb(k, t)
                for q in range(l + 1):
                    clq = math.comb(l, q)
                    coeff = v * (cjs * ckt * clq)
                    coeff = coeff * z_pows[j - s] * zb_pows[k - t]
                    if l - q:
                        coeff = coeff * u_pows[l - q]
                    key = (s, t, q)
                    cur = acc.get(key, zero) + coeff
                    if _nonzero(cur, exact):
                        acc[key] = cur
                    elif key in acc:
                        del acc[key]
    const = acc.pop((0, 0, 0), zero) - height
    if _nonzero(const, exact) and exact:
        raise InternalInvariantError("translated constant term failed to cancel")
    out = Series3(n, acc, exact)
    out.assert_real("translated graph")
    return Hypersurface(out, check=False)


# ---------------------------------------------------------------------------
# the graph transform and its independent oracle
# ---------------------------------------------------------------------------


def _transform_ingredients(M, h, polynomial=False):
    F = M.series
    n = F.n
    exact = F.exact
    zv = Series3.z_var(n, exact)
    big_w = Series3.u_var(n, exact) + F * cimag(exact)
    P = eval_holo3(h.f, zv, big_w, polynomial=polynomial)
    if P.n < n:
        # f is carried to weight n-1 only; the missing weight-n slice of P
        # cannot reach weights <= n in any product that also carries weight
        # >= 1 from elsewhere, and the identity has no weight-1 content, so
        # declaring it zero is sound for everything computed here.
        P = P.padded(n)
    E = eval_holo3(h.g, zv, big_w, polynomial=polynomial)
    if E.n < n:
        raise MathPreconditionError("map w-component truncated below the surface order")
    half = chalf(exact)
    minus_half_i = cimag(exact) * half * (-1)
    Q = (E + E.conj()) * half
    R = (E - E.conj()) * minus_half_i
    return n, exact, P, Q, R


def graph_transform(M, h):
    """Express the image h(M) as a graph; returns (surface, zmap, umap).

    Contract: h fixes the origin, f_z(0) != 0, g_z(0) = 0, and the image
    graph's u-part must stay transversal (u-coefficient of Re g(z, u+iF)
    nonzero).  zmap/umap are the new coordinates as series over the source.
    """
    if M.exact != h.exact:
        raise InternalInvariantError("surface/map mode mismatch")
    if _nonzero(h.g.coeff(1, 0), M.exact):
        raise MathPreconditionError("graph transform needs g_z(0) = 0")
    if not _nonzero(h.f.coeff(1, 0), M.exact):
        raise MathPreconditionError("graph transform needs f_z(0) != 0")
    if h.f.n < M.n - 1:
        raise MathPreconditionError("map z-component truncated below the surface order")

    n, exact, P, Q, R = _transform_ingredients(M, h)
    Q.assert_real("transformed u-coordinate")
    sigma = Q.coeff(0, 0, 1)
    if not _nonzero(sigma, exact) or (not exact and scalar_abs(sigma) < 1e-12):
        raise MathPreconditionError("image is not a graph over (z, u): u-part degenerates")
    lam = P.coeff(1, 0, 0)

    one = cone(exact)
    zs_inv = Series3.z_var(n, exact) * (one / lam)
    q2 = Q.weight_part(2) - Series3.monomial(n, 0, 0, 1, sigma, exact)
    uv = Series3.u_var(n, exact)
    if q2.is_zero():
        us_inv = uv * (one / sigma)
    else:
        us_inv = (uv - eval_graph(q2, zs_inv, uv)) * (one / sigma)

    S = R
    out = Series3.zero(n, exact)
    for nu in range(1, n + 1):
        s_nu = S.weight_part(nu)
        if s_nu.is_zero():
            continue
        f_nu = eval_graph(s_nu, zs_inv, us_inv)
        S = S - eval_graph(f_nu, P, Q)
        out = out + f_nu
    S.assert_zero("graph transform recursion remainder")
    out.assert_real("transformed graph")
    if _nonzero(out.coeff(0, 0, 0), exact) and exact:
        raise InternalInvariantError("transformed graph gained a constant term")
    return Hypersurface(out, check=False), P, Q


def fundamental_identity_residual(M, h, M_target, polynomial=False):
    """Defect of the graph identity for h mapping M onto M_target.

    Writing E = g(z, u+iF) and P = f(z, u+iF), the target graph F' must
    satisfy  F'(P, conj P, Re E) - Im E = 0  identically; the returned series
    is that left-hand side, computed by forward substitution only (no use of
    the solver's internals).
    """
    n = min(M.n, M_target.n)
    _, exact, P, Q, R = _transform_ingredients(M.with_order(n), h, polynomial=polynomial)
    composed = eval_graph(M_target.series, P, Q, polynomial=polynomial)
    return (composed - R).truncate(n)


# ---------------------------------------------------------------------------
# stage helpers
# ---------------------------------------------------------------------------


def _run_stage(name, M, h, stages, verify):
    M2, _, _ = graph_transform(M, h)
    ok = None
    if verify:
        resid = fundamental_identity_residual(M, h, M2)
        resid.assert_zero("independent residual after stage %r" % name)
        ok = True
    stages.append(Stage(name, h, M2, ok))
    return M2


# ---------------------------------------------------------------------------
# adapted chart: kill weight-1 and harmonic weight-2 data, scale the Levi form
# ---------------------------------------------------------------------------


def adapt_chart(M, stages=None, verify=False):
    """Normalize through weight 2: F = z zbar + (weight >= 3).

    Four elementary moves: a w-shear killing the z-linear term, w' = (1-ic)w
    killing the u-linear term, a quadratic w-shear killing the z^2 harmonic,
    and the real scale w' = w/e normalizing the Levi coefficient (error if it
    vanishes: the surface is Levi degenerate at the origin).
    """
    stages = [] if stages is None else stages
    F = M.series
    n = F.n
    exact = F.exact
    one = cone(exact)
    i_unit = cimag(exact)
    half = chalf(exact)

    # -- shear: kill the z-linear coefficient exactly ------------------------
    alpha = F.coeff(1, 0, 0)
    if _nonzero(alpha, exact):
        c = F.coeff(0, 0, 1)
        nu = (alpha * 2) / (c + i_unit)
        nub = nu.conjugate()
        shift = Series3(
            n,
            {(0, 0, 1): one, (1, 0, 0): -(nu * half), (0, 1, 0): -(nub * half)},
            exact,
        )
        harm = Series3(
            n,
            {(1, 0, 0): nu * (i_unit * (-1)) * half, (0, 1, 0): nub * i_unit * half},
            exact,
        )
        F1 = eval_graph(F, Series3.z_var(n, exact), shift, n_out=n, polynomial=True) + harm
        F1.assert_real("sheared graph")
        if _nonzero(F1.coeff(1, 0, 0), exact) and exact:
            raise InternalInvariantError("w-shear failed to kill the z-linear term")
        h = Biholo(
            HoloSeries.z_var(n - 1, exact),
            HoloSeries(n, {(0, 1): one, (1, 0): nu}, exact),
        )
        M2 = Hypersurface(F1, check=False)
        ok = None
        if verify:
            resid = fundamental_identity_residual(
                M, h, M2, polynomial=True
            )
            resid.assert_zero("independent residual after stage 'shear'")
            ok = True
        stages.append(Stage("shear", h, M2, ok))
        M = M2
        F = M.series

    # -- tilt: kill the u-linear coefficient ---------------------------------
    c = F.coeff(0, 0, 1)
    if _nonzero(c, exact):
        h = Biholo(
            HoloSeries.z_var(n - 1, exact),
            HoloSeries(n, {(0, 1): one - i_unit * c}, exact),
        )
        M = _run_stage("tilt", M, h, stages, verify)
        F = M.series
        if _nonzero(F.coeff(0, 0, 1), exact) and exact:
            raise InternalInvariantError("w-tilt failed to kill the u-linear term")

    # -- bend: kill the z^2 harmonic ------------------------------------------
    beta = F.coeff(2, 0, 0)
    if _nonzero(beta, exact):
        zeta = beta * i_unit * (-2)
        h = Biholo(
            HoloSeries.z_var(n - 1, exact),
            HoloSeries(n, {(0, 1): one, (2, 0): zeta}, exact),
        )
        M = _run_stage("bend", M, h, stages, verify)
        F = M.series
        if _nonzero(F.coeff(2, 0, 0), exact) and exact:
            raise InternalInvariantError("w-bend failed to kill the z^2 term")

    # -- scale: normalize the Levi coefficient --------------------------------
    e = F.coeff(1, 1, 0)
    if exact:
        if not e:
            raise LeviDegenerateError("Levi form vanishes at the origin")
        degenerate = False
    else:
        degenerate = scalar_abs(e) < 1e-10
        if degenerate:
            raise LeviDegenerateError("Levi form numerically degenerate at the origin")
    if e != one:
        h = Biholo(
            HoloSeries.z_var(n - 1, exact),
            HoloSeries(n, {(0, 1): one / e}, exact),
        )
        M = _run_stage("scale", M, h, stages, verify)
        F = M.series

    if exact:
        if F.low_weight() not in (2,) or F.weight_part(2) != Series3.hermitian_square(n, exact):
            raise InternalInvariantError("adapted chart postcondition failed")
    return M


# ---------------------------------------------------------------------------
# punctual normalization (weights 3, 4, 5)
# ---------------------------------------------------------------------------


def core_expression(f, g, n, exact=True):
    """Re{ i g + 2 zbar f } restricted to the model graph w = u + i z zbar.

    This is the linearization of the graph transform around the model
    sphere: applying (z + f, w + g) changes the weight-delta slice of a
    prenormalized surface by exactly minus this expression when (f, g) are
    homogeneous of weights (delta-1, delta).  f and g are treated as
    complete polynomials, whatever their stored truncation order.
    """
    zv = Series3.z_var(n, exact)
    w0 = Series3.u_var(n, exact) + Series3.hermitian_square(n, exact) * cimag(exact)
    acc = Series3.zero(n, exact)
    if not g.is_zero():
        acc = acc + eval_holo3(g, zv, w0, n_out=n, polynomial=True) * cimag(exact)
    if not f.is_zero():
        acc = acc + Series3.zbar_var(n, exact) * eval_holo3(f, zv, w0, n_out=n, polynomial=True) * 2
    return (acc + acc.conj()) * chalf(exact)


def _weight_monomials(delta):
    """(j, k, l) with j + k + 2l = delta and j >= k, sorted."""
    out = []
    for l in range(delta // 2 + 1):
        rest = delta - 2 * l
        for k in range(rest // 2 + 1):
            j = rest - k
            if j >= k:
                out.append((j, k, l))
    return sorted(out)


def _holo_keys(weight):
    """(j, l) with j + 2l = weight, sorted."""
    return sorted((weight - 2 * l, l) for l in range(weight // 2 + 1))


def _series_rows(series, monos):
    """Stack Re/Im coefficient rows of a real series over the monomials."""
    rows = []
    for (j, k, l) in monos:
        v = series.coeff(j, k, l)
        rows.append(v.real)
        if j != k:
            rows.append(v.imag)
    return rows


_PUNCTUAL_CACHE = {}


def _punctual_system(delta):
    """Probe matrix of the core expression for homogeneous (f, g) at delta.

    Returns (f_keys, g_keys, columns) where the columns run over the real
    and imaginary parts of each f/g coefficient, exact rationals.
    """
    key = delta
    if key in _PUNCTUAL_CACHE:
        return _PUNCTUAL_CACHE[key]
    f_keys = _holo_keys(delta - 1)
    g_keys = _holo_keys(delta)
    monos = _weight_monomials(delta)
    columns = []
    one = cone(True)
    i_unit = cimag(True)
    for which, keys in (("f", f_keys), ("g", g_keys)):
        for jk in keys:
            for val in (one, i_unit):
                if which == "f":
                    f = HoloSeries(delta - 1, {jk: val})
                    g = HoloSeries.zero(delta)
                else:
                    f = HoloSeries.zero(delta - 1)
                    g = HoloSeries(delta, {jk: val})
                core = core_expression(f, g, delta)
                columns.append(_series_rows(core, monos))
    _PUNCTUAL_CACHE[key] = (f_keys, g_keys, monos, columns)
    return _PUNCTUAL_CACHE[key]


def _solve_punctual(delta, target, exact):
    """Solve core_expression(f, g) = target for homogeneous (f, g)."""
    f_keys, g_keys, monos, columns = _punctual_system(delta)
    rhs = _series_rows(target, monos)
    if exact:
        mat = [[col[r] for col in columns] for r in range(len(rhs))]
        sol = solve(mat, rhs)
    else:
        mat = [[complex(col[r]) for col in columns] for r in range(len(rhs))]
        sol = solve(mat, [complex(v) for v in rhs], pivoting="partial")
    if sol is None:
        raise InternalInvariantError(
            "weight-%d correction system is inconsistent" % delta
        )
    # reassemble complex coefficients from the (re, im) unknown pairs
    fc = {}
    gc = {}
    idx = 0
    for which, keys, store in (("f", f_keys, fc), ("g", g_keys, gc)):
        for jk in keys:
            re_part, im_part = sol[idx], sol[idx + 1]
            idx += 2
            if exact:
                val = GaussianRational(re_part, 0) + GaussianRational(im_part, 0) * cimag(True)
            else:
                val = complex(re_part) + complex(im_part) * 1j
            if _nonzero(val, exact):
                store[jk] = val
    return fc, gc


def punctual_normalize(M, stages=None, verify=False):
    """Kill all weight 3, 4 and 5 terms of an adapted surface."""
    stages = [] if stages is None else stages
    F = M.series
    n = F.n
    exact = F.exact
    if n < 6:
        raise MathPreconditionError("punctual normalization needs order >= 6")
    if exact and F.up_to_weight(2) != Series3.hermitian_square(n, exact).up_to_weight(2):
        raise MathPreconditionError("punctual normalization needs an adapted chart")
    one = cone(exact)
    for delta in (3, 4, 5):
        target = M.series.weight_part(delta)
        if target.is_zero():
            continue
        fc, gc = _solve_punctual(delta, target, exact)
        f = HoloSeries.z_var(n - 1, exact) + HoloSeries(n - 1, fc, exact)
        g = HoloSeries.w_var(n, exact) + HoloSeries(n, gc, exact)
        M = _run_stage("punctual%d" % delta, M, Biholo(f, g), stages, verify)
        if not M.series.weight_part(delta).vanishes():
            raise InternalInvariantError(
                "weight-%d normalization left a remainder" % delta
            )
    return M


# ---------------------------------------------------------------------------
# straightening a transversal curve to the u-axis
# ---------------------------------------------------------------------------


def _map_along_curve(h_component, phi, psi):
    """h(phi(t), psi(t)) for an exact polynomial map component h."""
    n = min(phi.n, psi.n)
    exact = phi.exact
    res = UPoly.zero(n, exact)
    phi_pows = {0: UPoly.one(n, exact)}
    psi_pows = {0: UPoly.one(n, exact)}
    for (j, l), v in h_component.c.items():
        if j not in phi_pows:
            base = phi_pows[max(phi_pows)]
            for jj in range(max(phi_pows) + 1, j + 1):
                base = base * phi
                phi_pows[jj] = base
        if l not in psi_pows:
            base = psi_pows[max(psi_pows)]
            for ll in range(max(psi_pows) + 1, l + 1):
                base = base * psi
                psi_pows[ll] = base
        res = res + phi_pows[j] * psi_pows[l] * v
    return res


def transform_curve(curve, h):
    """Push a curve through an exact polynomial map and reparametrize by u.

    Only safe for maps whose components are complete polynomials (the
    adapted-chart moves are); the result is again parametrized by Re psi = t.
    """
    phi_raw = _map_along_curve(h.f, curve.phi, curve.psi)
    psi_raw = _map_along_curve(h.g, curve.phi, curve.psi)
    s = psi_raw.real_part()
    if not _nonzero(s.coeff(1), curve.exact):
        raise MathPreconditionError("transformed curve loses transversality")
    tau = s.reversion()
    return TransversalCurve(phi_raw.compose(tau), psi_raw.compose(tau))


def straighten_curve(M, curve, stages=None, verify=False):
    """Map a transversal curve on M to the u-axis.

    The map is z' = z - phi(tau(w)), w' = tau(w) with tau the functional
    inverse of psi; afterwards the graph function vanishes along z = 0.
    """
    stages = [] if stages is None else stages
    curve.validate_on(M)
    n = M.n
    exact = M.exact
    trivial_phi = curve.phi.is_zero()
    trivial_psi = curve.psi == UPoly.var(curve.psi.n, exact)
    if trivial_phi and trivial_psi:
        return M
    tau = curve.psi.reversion()
    phi_of = curve.phi.compose(tau)
    f = HoloSeries.z_var(n - 1, exact) - HoloSeries.from_w_series(phi_of, n - 1)
    g = HoloSeries.from_w_series(tau, n)
    M2 = _run_stage("straighten", M, Biholo(f, g), stages, verify)
    if not M2.series.pure_u_part().vanishes():
        raise InternalInvariantError("straightened curve is not the u-axis")
    return M2


# ---------------------------------------------------------------------------
# harmonic killing: remove all F_{j,0} / F_{0,k} slices
# ---------------------------------------------------------------------------


def kill_harmonics(M, stages=None, verify=False):
    """Remove the harmonic slices (k = 0) of a straightened, adapted graph."""
    stages = [] if stages is None else stages
    F = M.series
    n = F.n
    exact = F.exact
    if _nonzero(F.coeff(1, 0, 0), exact) or _nonzero(F.coeff(0, 0, 1), exact) or _nonzero(
        F.coeff(2, 0, 0), exact
    ):
        raise MathPreconditionError("harmonic killing needs an adapted chart")
    if not F.pure_u_part().vanishes():
        raise MathPreconditionError("harmonic killing needs a straightened u-axis")

    harm = HoloSeries(
        n, {(j, l): v for (j, k, l), v in F.c.items() if k == 0 and j >= 1}, exact
    )
    if harm.is_zero():
        return M
    i_unit = cimag(exact)
    # invert omega = u + i F(z, 0, u) for u = T(z, omega)
    zv = HoloSeries.z_var(n, exact)
    T = HoloSeries.w_var(n, exact)
    for _ in range(n):
        T_next = HoloSeries.w_var(n, exact) - eval_holo2(harm, zv, T, n_out=n) * i_unit
        if T_next == T:
            break
        T = T_next
    else:
        if exact:
            raise InternalInvariantError("harmonic inversion did not stabilize")
    g_corr = eval_holo2(harm, zv, T, n_out=n) * (i_unit * (-2))
    if exact and g_corr != (T - HoloSeries.w_var(n, exact)) * 2:
        raise InternalInvariantError("harmonic inversion identity failed")
    h = Biholo(HoloSeries.z_var(n - 1, exact), HoloSeries.w_var(n, exact) + g_corr)
    M2 = _run_stage("harmonics", M, h, stages, verify)
    leftover = Series3(
        n, {key: v for key, v in M2.series.c.items() if key[0] == 0 or key[1] == 0}, exact
    )
    leftover.assert_zero("harmonic slices after harmonic killing")
    return M2


# ---------------------------------------------------------------------------
# Levi normalization, degree-one absorption, u-rotation, reparametrization
# ---------------------------------------------------------------------------


def normalize_levi(M, stages=None, verify=False):
    """Scale z by 1/sqrt(F_{1,1}(u)) so the Levi slice becomes constant 1."""
    stages = [] if stages is None else stages
    n = M.n
    exact = M.exact
    f11 = M.slice(1, 1)
    one = cone(exact)
    if not UPoly.const(0, f11.coeff(0) - one, exact).vanishes():
        raise MathPreconditionError("Levi slice must start at 1")
    if exact and not f11.is_real():
        raise InternalInvariantError("Levi slice is not real")
    if f11 == UPoly.one(f11.n, exact):
        return M
    root = f11.sqrt()
    f = (HoloSeries.z_var(n - 1, exact) * HoloSeries.from_w_series(root, n - 1)).truncate(n - 1)
    h = Biholo(f, HoloSeries.w_var(n, exact))
    M2 = _run_stage("levi", M, h, stages, verify)
    if not (M2.slice(1, 1) - UPoly.one((n - 2) // 2, exact)).vanishes():
        raise InternalInvariantError("Levi slice not normalized to 1")
    return M2


def absorb_k1(M, stages=None, verify=False):
    """Absorb all F_{j,1} slices (j >= 2) into z' = z + Lambda(z, w)."""
    stages = [] if stages is None else stages
    F = M.series
    n = F.n
    exact = F.exact
    lam_corr = HoloSeries(
        n - 1, {(j, l): v for (j, k, l), v in F.c.items() if k == 1 and j >= 2}, exact
    )
    if lam_corr.is_zero():
        return M
    f = HoloSeries.z_var(n - 1, exact) + lam_corr
    h = Biholo(f, HoloSeries.w_var(n, exact))
    M2 = _run_stage("absorb", M, h, stages, verify)
    leftover = Series3(
        n,
        {key: v for key, v in M2.series.c.items() if (key[1] == 1 and key[0] >= 2) or (key[0] == 1 and key[1] >= 2)},
        exact,
    )
    leftover.assert_zero("degree-one slices after absorption")
    return M2


def kill_f22_rotation(M, stages=None, verify=False):
    """Rotate z by the unit factor lambda(u) that removes the F_{2,2} slice."""
    stages = [] if stages is None else stages
    n = M.n
    exact = M.exact
    f22 = M.slice(2, 2)
    if f22.is_zero():
        return M
    if exact and not f22.is_real():
        raise InternalInvariantError("F22 slice is not real")
    minus_half_i = cimag(exact) * chalf(exact) * (-1)
    lam = (f22.integrate() * minus_half_i).exp()
    unit_defect = lam * lam.conjugate() - UPoly.one(lam.n, exact)
    if not unit_defect.vanishes():
        raise InternalInvariantError("rotation factor is not unitary")
    f = (HoloSeries.z_var(n - 1, exact) * HoloSeries.from_w_series(lam, n - 1)).truncate(n - 1)
    h = Biholo(f, HoloSeries.w_var(n, exact))
    M2 = _run_stage("rotate", M, h, stages, verify)
    # the rotation satisfies 2i lambda'/lambda = F22 by construction; with
    # the new slice F'22 = 0 that is exactly the stage's defining equation
    ode_defect = lam.derivative() * cimag(exact) * 2 - (f22 * lam).truncate(lam.n - 1)
    if not ode_defect.vanishes():
        raise InternalInvariantError("rotation factor violates its defining equation")
    if not M2.slice(2, 2).vanishes():
        raise InternalInvariantError("F22 slice survived the rotation")
    return M2


def kill_f33_reparam(M, stages=None, verify=False):
    """Reparametrize the u-axis to remove the F_{3,3} slice.

    With eta'' = (3/2) F33 eta, eta(0) = 1, eta'(0) = 0, the map is
    z' = z phi(w), w' = psi(w) with phi = 1/eta, psi' = phi^2, psi(0) = 0;
    psi then satisfies psi''' = (3/2) psi''^2 / psi' - 3 F33 psi'.
    """
    stages = [] if stages is None else stages
    n = M.n
    exact = M.exact
    f33 = M.slice(3, 3)
    if f33.is_zero():
        return M
    if exact and not f33.is_real():
        raise InternalInvariantError("F33 slice is not real")
    eta_order = f33.n + 2
    one = cone(exact)
    three_halves = chalf(exact) * 3
    eta = {0: one}
    for m in range(0, eta_order - 1):
        # eta_{m+2} = (3/2) (F33 * eta)_m / ((m+1)(m+2))
        acc = czero(exact)
        for j, fv in f33.c.items():
            if j <= m and (m - j) in eta:
                acc = acc + fv * eta[m - j]
        acc = acc * three_halves
        if _nonzero(acc, exact):
            eta[m + 2] = acc / ((m + 1) * (m + 2))
    eta = UPoly(eta_order, eta, exact)
    phi = eta.inverse()
    psi_u = phi * phi
    psi = psi_u.integrate()
    # assert the nonlinear reparametrization law: psi''' psi' = (3/2) psi''^2 - 3 F33 psi'^2
    lhs = psi.derivative().derivative().derivative() * psi_u
    rhs = psi_u.derivative() * psi_u.derivative() * three_halves - f33 * psi_u * psi_u * 3
    if not (lhs - rhs).vanishes():
        raise InternalInvariantError("reparametrization ODE violated")

    f = (HoloSeries.z_var(n - 1, exact) * HoloSeries.from_w_series(phi, n - 1)).truncate(n - 1)
    g = HoloSeries.from_w_series(psi, n)
    h = Biholo(f, g)
    f42_before = M.slice(4, 2)
    M2 = _run_stage("reparam", M, h, stages, verify)
    if not M2.slice(3, 3).vanishes():
        raise InternalInvariantError("F33 slice survived the reparametrization")
    # transported-slice law: psi' F42 = phi^6 (F'42 o psi)
    f42_after = M2.slice(4, 2)
    if not f42_after.is_zero() or not f42_before.is_zero():
        sound = min(f42_before.n, f42_after.n, psi.n - 1)
        lhs42 = (psi_u * f42_before).truncate(sound)
        phi6 = phi * phi * phi
        phi6 = phi6 * phi6
        rhs42 = (phi6 * f42_after.compose(psi.truncate(sound))).truncate(sound)
        if not (lhs42 - rhs42).vanishes():
            raise InternalInvariantError("degree-(4,2) slice transport law violated")
    return M2


# ---------------------------------------------------------------------------
# chain finding on a surface normalized through weight 5
# ---------------------------------------------------------------------------

_CHAIN_RESPONSE_CACHE = {}


def _f32_slice_through_subpipeline(M, phi):
    """Straighten phi's completion and run the stages through the rotation;
    return the F_{3,2} slice of the result."""
    curve = TransversalCurve.complete(M, phi)
    stages = []
    M1 = straighten_curve(M, curve, stages)
    M2 = kill_harmonics(M1, stages)
    M3 = normalize_levi(M2, stages)
    M4 = absorb_k1(M3, stages)
    M5 = kill_f22_rotation(M4, stages)
    return M5.slice(3, 2)


def _chain_response(m):
    """Universal affine response (kappa, mu) of the order-(m-2) straightening
    residual to the curve coefficient c_m, measured on the model sphere."""
    if m in _CHAIN_RESPONSE_CACHE:
        return _CHAIN_RESPONSE_CACHE[m]
    n_probe = 2 * m + 1
    sphere = Hypersurface.sphere(n_probe)
    one = cone(True)
    i_unit = cimag(True)
    half = chalf(True)
    r_one = _f32_slice_through_subpipeline(
        sphere, UPoly(n_probe // 2, {m: one})
    ).coeff(m - 2)
    r_i = _f32_slice_through_subpipeline(
        sphere, UPoly(n_probe // 2, {m: i_unit})
    ).coeff(m - 2)
    kappa = (r_one + i_unit * r_i) * half
    mu = (r_one - i_unit * r_i) * half
    _CHAIN_RESPONSE_CACHE[m] = (kappa, mu)
    return kappa, mu


def find_chain_curve(M):
    """The z-component of the chain through the origin with flat 1-jet.

    Requires an exact surface of the shape z zbar + (weight >= 6).  The curve
    coefficients c_m (m >= 3; c_2 = 0 on such surfaces) are solved order by
    order from the straightening residual's affine response.
    """
    if not M.exact:
        raise MathPreconditionError("chain finding runs in exact arithmetic only")
    F = M.series
    n = F.n
    low = (F - Series3.hermitian_square(n)).low_weight()
    if low is not None and low < 6:
        raise MathPreconditionError(
            "chain finding needs a surface normalized through weight 5"
        )
    order = n // 2
    mmax = (n - 1) // 2
    coeffs = {}
    for m in range(3, mmax + 1):
        f32 = _f32_slice_through_subpipeline(M, UPoly(order, coeffs))
        for q in range(m - 2):
            if f32.coeff(q):
                raise InternalInvariantError(
                    "chain residual at solved order %d reappeared" % q
                )
        r0 = f32.coeff(m - 2)
        if not r0:
            continue
        kappa, mu = _chain_response(m)
        # r0 + kappa conj(c) + mu c = 0, c = x + iy
        a = kappa + mu
        b = (mu - kappa) * cimag(True)
        rows = [[a.real, b.real], [a.imag, b.imag]]
        rhs = [-r0.real, -r0.imag]
        sol = solve(rows, rhs)
        if sol is None:
            raise InternalInvariantError("chain correction system inconsistent")
        coeffs[m] = GaussianRational(sol[0], sol[1])
    return UPoly(order, coeffs)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

#: checkpoint names accepted by stop_after, in execution order
PIPELINE_STEPS = (
    "adapt",
    "punctual",
    "straighten",
    "harmonics",
    "levi",
    "absorb",
    "rotate",
    "reparam",
)


def assert_normal_form(M):
    """Check the normal-form shape: the model term plus constrained weight >= 6."""
    n = M.n
    exact = M.exact
    defects = []
    for j in range(0, n + 1):
        defects.append(M.slice(j, 0))
    for j in range(2, n):
        defects.append(M.slice(j, 1))
    defects.append(M.slice(1, 1) - UPoly.one((n - 2) // 2, exact))
    if n >= 4:
        defects.append(M.slice(2, 2))
    if n >= 5:
        defects.append(M.slice(3, 2))
    if n >= 6:
        defects.append(M.slice(3, 3))
    if not all(d.vanishes() for d in defects):
        raise InternalInvariantError("surface is not in normal form")


class PipelineResult:
    """Outcome of normalize_hypersurface: stages, final surface, chain used."""

    __slots__ = ("input", "surface", "stages", "chain_curve", "completed")

    def __init__(self, input_surface, surface, stages, chain_curve, completed):
        self.input = input_surface
        self.surface = surface
        self.stages = stages
        self.chain_curve = chain_curve
        self.completed = completed

    def stage_names(self):
        return [s.name for s in self.stages]

    def composite_map(self):
        """All stage maps composed (applied left to right)."""
        if not self.stages:
            return Biholo.identity(self.surface.n, self.surface.exact)
        total = self.stages[0].map
        for stage in self.stages[1:]:
            total = stage.map.compose(total)
        return total


def normalize_hypersurface(M, curve=None, verify=False, stop_after=None):
    """Run the normal-form pipeline on a Levi nondegenerate graph.

    With curve=None the distinguished curve (the chain with flat 1-jet at
    the origin) is found automatically after the weight-5 punctual
    normalization.  Passing a TransversalCurve instead transports it through
    the adapted-chart moves, straightens it, and skips the punctual stages;
    the pipeline then fails with a precondition error before the final
    reparametrization if the curve was not actually a chain (its F_{3,2}
    obstruction survives straightening).

    stop_after names a checkpoint from PIPELINE_STEPS to halt at.
    """
    if stop_after is not None and stop_after not in PIPELINE_STEPS:
        raise ParseError(
            "unknown checkpoint %r; expected one of %s" % (stop_after, ", ".join(PIPELINE_STEPS))
        )
    if M.n < 6:
        raise MathPreconditionError("normalization needs truncation order >= 6")
    stages = []
    chain = None
    exact = M.exact

    def result(surface, completed):
        return PipelineResult(M, surface, stages, chain, completed)

    if curve is None:
        cur = adapt_chart(M, stages, verify)
        if stop_after == "adapt":
            return result(cur, False)
        cur = punctual_normalize(cur, stages, verify)
        if stop_after == "punctual":
            return result(cur, False)
        if not exact:
            raise MathPreconditionError(
                "automatic chain finding needs an exact surface; "
                "pass an explicit curve in numeric mode"
            )
        chain = TransversalCurve.complete(cur, find_chain_curve(cur))
        cur = straighten_curve(cur, chain, stages, verify)
        if stop_after == "straighten":
            return result(cur, False)
    else:
        curve.validate_on(M)
        mark = len(stages)
        cur = adapt_chart(M, stages, verify)
        chain = curve
        for stage in stages[mark:]:
            chain = transform_curve(chain, stage.map)
        chain.validate_on(cur)
        if stop_after == "adapt":
            return result(cur, False)
        cur = straighten_curve(cur, chain, stages, verify)
        if stop_after == "straighten":
            return result(cur, False)

    cur = kill_harmonics(cur, stages, verify)
    if stop_after == "harmonics":
        return result(cur, False)
    cur = normalize_levi(cur, stages, verify)
    if stop_after == "levi":
        return result(cur, False)
    cur = absorb_k1(cur, stages, verify)
    if stop_after == "absorb":
        return result(cur, False)
    cur = kill_f22_rotation(cur, stages, verify)
    if stop_after == "rotate":
        return result(cur, False)

    if not cur.slice(3, 2).vanishes():
        if curve is None:
            raise InternalInvariantError("automatically found curve left a chain obstruction")
        raise MathPreconditionError(
            "the supplied curve is not a chain: its straightening obstruction survives"
        )

    cur = kill_f33_reparam(cur, stages, verify)
    assert_normal_form(cur)
    return result(cur, True)
