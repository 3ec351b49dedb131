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

import functools

from .errors import (
    InternalInvariantError,
    LeviDegenerateError,
    MathPreconditionError,
    ParseError,
)
from .linalg import solve
from .series_core import (
    HALF,
    I_UNIT,
    ONE,
    RATIONAL_TYPES,
    ZERO,
    GaussianRational,
    GraphTable,
    HoloSeries,
    Series3,
    UPoly,
    eval_curve,
    eval_graph,
    eval_holo2,
    eval_holo3,
    holo_from_json,
    holo_to_json,
    is_json_count,
    series3_from_json,
    series3_to_json,
)


def _reject_floats(what, *series):
    """ParseError if a coefficient is a float: the pipeline is exact only."""
    for s in series:
        if any(isinstance(v, (float, complex)) for v in s.c.values()):
            raise ParseError("%s has a float coefficient; coefficients must be exact" % what)


def _exact_scalar(value, what):
    """value as a GaussianRational; ParseError unless it is an int, a
    Fraction or a GaussianRational (a float or complex value is refused)."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, RATIONAL_TYPES):
        return GaussianRational(value)
    raise ParseError("%s must be an exact (Gaussian) rational, not %r" % (what, value))


def _exact_real(value, what):
    """value as a Fraction; ParseError as in ``_exact_scalar``, and
    MathPreconditionError for a Gaussian rational that is not real."""
    value = _exact_scalar(value, what)
    if not value.is_real():
        raise MathPreconditionError("%s must be real" % what)
    return value.real


def _check_order(n, least, what):
    """ParseError unless the order n is an integer >= least (a bool is not)."""
    if not is_json_count(n, least):
        raise ParseError("%s order must be an integer >= %d, not %r" % (what, least, n))


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


class Hypersurface:
    """A rigid graph v = F(z, zbar, u) through the origin.

    F must be a real series (Hermitian coefficient symmetry) with F(0) = 0
    and exact coefficients (``GaussianRational``, ``int`` or ``Fraction``).
    The coefficient data is treated as an exact polynomial surface; the
    truncation order n says up to which weight transforms of it are computed.
    """

    __slots__ = ("series",)

    def __init__(self, series, check=True):
        if check:
            _reject_floats("graph function", series)
            if series.coeff(0, 0, 0):
                raise MathPreconditionError("graph function must vanish at the origin")
            series.assert_real("graph function")
        self.series = series

    @property
    def n(self):
        return self.series.n

    @classmethod
    def sphere(cls, n):
        _check_order(n, 0, "sphere")
        return cls(Series3.hermitian_square(n), check=False)

    @classmethod
    def from_json(cls, obj):
        try:
            M = cls(series3_from_json(obj))
        except (InternalInvariantError, MathPreconditionError) as exc:
            raise ParseError("invalid hypersurface: %s" % exc)
        return M

    def to_json(self):
        return series3_to_json(self.series)

    def with_order(self, n):
        """Same polynomial surface, re-truncated/padded to order n."""
        return Hypersurface(self.series.padded(n), check=False)

    def slice(self, j, k):
        return self.series.slice_jk(j, k)

    def levi_coefficient(self):
        return self.series.coeff(1, 1, 0)

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
        _reject_floats("map", f, g)
        if f.coeff(0, 0) or g.coeff(0, 0):
            raise MathPreconditionError("map must fix the origin")
        self.f = f
        self.g = g

    @classmethod
    def identity(cls, n):
        _check_order(n, 1, "identity map")
        return cls(HoloSeries.z_var(n - 1), HoloSeries.w_var(n))

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
        _reject_floats("curve", phi, psi)
        if phi.coeff(0) or psi.coeff(0):
            raise MathPreconditionError("curve must start at the origin")
        self.phi = phi
        self.psi = psi

    @classmethod
    def complete(cls, M, phi):
        """Complete a z-component into a curve on M: psi = t + i F along it."""
        order = M.n // 2
        phi = phi.padded(order)
        if phi.coeff(0):
            raise MathPreconditionError("curve z-component must vanish at t = 0")
        height = eval_curve(M.series, phi)
        psi = UPoly.var(order) + height.truncate(order) * I_UNIT
        return cls(phi, psi)

    def validate_on(self, M):
        """Check Re psi = t and Im psi = F along the curve."""
        t = UPoly.var(self.psi.n)
        re_psi = self.psi.real_part()
        height = eval_curve(M.series, self.phi)
        im_psi = (self.psi - re_psi) * (-I_UNIT)
        defect = re_psi - t
        defect2 = im_psi - height.truncate(im_psi.n)
        if not defect.is_zero() or not defect2.is_zero():
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


def isotropy_map(lam, alpha, r, n):
    """The sphere automorphism with parameters (lambda, alpha, r).

        z' = lambda (z + alpha w) / d,   w' = lambda conj(lambda) w / d,
        d  = 1 - 2i conj(alpha) z - (r + i alpha conj(alpha)) w,

    expanded to weights n-1 / n.  lambda != 0 is required; r must be real.
    The parameters must be exact (``int``, ``Fraction`` or
    ``GaussianRational``) and n an integer >= 1; anything else raises
    ParseError.
    """
    _check_order(n, 1, "isotropy map")
    lam = _exact_scalar(lam, "isotropy parameter lambda")
    alpha = _exact_scalar(alpha, "isotropy parameter alpha")
    r = _exact_real(r, "isotropy parameter r")
    if not lam:
        raise MathPreconditionError("isotropy parameter lambda must be nonzero")

    abs2 = alpha * alpha.conjugate()
    # the geometric-series denominator
    b = HoloSeries(
        n,
        {
            (1, 0): I_UNIT * alpha.conjugate() * 2,
            (0, 1): abs2 * I_UNIT + r,
        },
    )
    inv_d = HoloSeries.one(n)
    power = HoloSeries.one(n)
    for _ in range(n):
        power = power * b
        if power.is_zero():
            break
        inv_d = inv_d + power
    zpart = HoloSeries.z_var(n) + HoloSeries.w_var(n) * alpha
    f = (zpart * inv_d * lam).truncate(n - 1)
    g = (HoloSeries.w_var(n) * inv_d * (lam * lam.conjugate())).truncate(n)
    return Biholo(f, g)


# ---------------------------------------------------------------------------
# translation (an affine chart move, not an origin-fixing map)
# ---------------------------------------------------------------------------


def translate_to_point(M, z0, u0, v0=None):
    """Recenter the graph at the surface point over (z0, u0): the result is
    F(z0 + z, conj z0 + zbar, u0 + u) - F(z0, conj z0, u0), exact because the
    surface is polynomial data (``eval_graph`` with ``polynomial=True``).
    If v0 is given it is validated against F(z0, conj z0, u0).  The
    coordinates must be exact, as in ``isotropy_map``.
    """
    F = M.series
    z0 = _exact_scalar(z0, "z-coordinate")
    u0 = _exact_real(u0, "u-coordinate")
    height = F.evaluate(z0, z0.conjugate(), u0)
    if v0 is not None:
        if height - _exact_scalar(v0, "v-coordinate"):
            raise MathPreconditionError("point is not on the hypersurface")

    n = F.n
    one = Series3.one(n)
    out = eval_graph(F, Series3.z_var(n) + one * z0, Series3.u_var(n) + one * u0, polynomial=True)
    out = out - one * height
    if out.coeff(0, 0, 0):
        raise InternalInvariantError("translated constant term failed to cancel")
    out.assert_real("translated graph")
    return Hypersurface(out, check=False)


# ---------------------------------------------------------------------------
# the graph transform and its independent oracle
# ---------------------------------------------------------------------------


def _transform_ingredients(M, h, polynomial=False):
    F = M.series
    n = F.n
    zv = Series3.z_var(n)
    big_w = Series3.u_var(n) + F * I_UNIT
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
    minus_half_i = I_UNIT * HALF * (-1)
    Q = (E + E.conj()) * HALF
    R = (E - E.conj()) * minus_half_i
    return n, P, Q, R


def graph_transform(M, h):
    """Express the image h(M) as a graph; returns (surface, P, Q).

    Contract: h fixes the origin, f_z(0) != 0, g_z(0) = 0, and the image
    graph's u-part must stay transversal (u-coefficient of Re g(z, u+iF)
    nonzero).  P and Q are the new z and u coordinates as series over the
    source.

    The image is solved weight by weight; every step substitutes into the
    same arguments, so the powers of the inverse coordinates and of (P, Q)
    are built once per call, in one GraphTable each.
    """
    if h.g.coeff(1, 0):
        raise MathPreconditionError("graph transform needs g_z(0) = 0")
    if not h.f.coeff(1, 0):
        raise MathPreconditionError("graph transform needs f_z(0) != 0")
    if h.f.n < M.n - 1:
        raise MathPreconditionError("map z-component truncated below the surface order")

    n, P, Q, R = _transform_ingredients(M, h)
    Q.assert_real("transformed u-coordinate")
    sigma = Q.coeff(0, 0, 1)
    if not sigma:
        raise MathPreconditionError("image is not a graph over (z, u): u-part degenerates")
    lam = P.coeff(1, 0, 0)

    zs_inv = Series3.z_var(n) * (ONE / lam)
    q2 = Q.weight_part(2) - Series3.monomial(n, 0, 0, 1, sigma)
    uv = Series3.u_var(n)
    if q2.is_zero():
        us_inv = uv * (ONE / sigma)
    else:
        us_inv = (uv - eval_graph(q2, zs_inv, uv)) * (ONE / sigma)

    inverse, forward = GraphTable(zs_inv, us_inv, n), GraphTable(P, Q, n)
    S = R
    out = Series3.zero(n)
    for nu in range(1, n + 1):
        s_nu = S.weight_part(nu)
        if s_nu.is_zero():
            continue
        f_nu = inverse(s_nu)
        S = S - forward(f_nu)
        out = out + f_nu
    S.assert_zero("graph transform recursion remainder")
    out.assert_real("transformed graph")
    if out.coeff(0, 0, 0):
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
    _, P, Q, R = _transform_ingredients(M.with_order(n), h, polynomial=polynomial)
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

    # -- shear: kill the z-linear coefficient exactly ------------------------
    alpha = F.coeff(1, 0, 0)
    if alpha:
        c = F.coeff(0, 0, 1)
        nu = (alpha * 2) / (c + I_UNIT)
        nub = nu.conjugate()
        shift = Series3(
            n,
            {(0, 0, 1): ONE, (1, 0, 0): -(nu * HALF), (0, 1, 0): -(nub * HALF)},
        )
        harm = Series3(
            n,
            {(1, 0, 0): nu * (I_UNIT * (-1)) * HALF, (0, 1, 0): nub * I_UNIT * HALF},
        )
        F1 = eval_graph(F, Series3.z_var(n), shift, n_out=n, polynomial=True) + harm
        F1.assert_real("sheared graph")
        if F1.coeff(1, 0, 0):
            raise InternalInvariantError("w-shear failed to kill the z-linear term")
        h = Biholo(
            HoloSeries.z_var(n - 1),
            HoloSeries(n, {(0, 1): ONE, (1, 0): nu}),
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
    if c:
        h = Biholo(
            HoloSeries.z_var(n - 1),
            HoloSeries(n, {(0, 1): ONE - I_UNIT * c}),
        )
        M = _run_stage("tilt", M, h, stages, verify)
        F = M.series
        if F.coeff(0, 0, 1):
            raise InternalInvariantError("w-tilt failed to kill the u-linear term")

    # -- bend: kill the z^2 harmonic ------------------------------------------
    beta = F.coeff(2, 0, 0)
    if beta:
        zeta = beta * I_UNIT * (-2)
        h = Biholo(
            HoloSeries.z_var(n - 1),
            HoloSeries(n, {(0, 1): ONE, (2, 0): zeta}),
        )
        M = _run_stage("bend", M, h, stages, verify)
        F = M.series
        if F.coeff(2, 0, 0):
            raise InternalInvariantError("w-bend failed to kill the z^2 term")

    # -- scale: normalize the Levi coefficient --------------------------------
    e = F.coeff(1, 1, 0)
    if not e:
        raise LeviDegenerateError("Levi form vanishes at the origin")
    if e != ONE:
        h = Biholo(
            HoloSeries.z_var(n - 1),
            HoloSeries(n, {(0, 1): ONE / e}),
        )
        M = _run_stage("scale", M, h, stages, verify)
        F = M.series

    if F.low_weight() not in (2,) or F.weight_part(2) != Series3.hermitian_square(n):
        raise InternalInvariantError("adapted chart postcondition failed")
    return M


# ---------------------------------------------------------------------------
# punctual normalization (weights 3, 4, 5)
# ---------------------------------------------------------------------------


def core_expression(f, g, n):
    """Re{ i g + 2 zbar f } restricted to the model graph w = u + i z zbar.

    This is the linearization of the graph transform around the model
    sphere: applying (z + f, w + g) changes the weight-delta slice of a
    prenormalized surface by exactly minus this expression when (f, g) are
    homogeneous of weights (delta-1, delta).  f and g are treated as
    complete polynomials, whatever their stored truncation order.
    """
    zv = Series3.z_var(n)
    w0 = Series3.u_var(n) + Series3.hermitian_square(n) * I_UNIT
    acc = Series3.zero(n)
    if not g.is_zero():
        acc = acc + eval_holo3(g, zv, w0, n_out=n, polynomial=True) * I_UNIT
    if not f.is_zero():
        acc = acc + Series3.zbar_var(n) * eval_holo3(f, zv, w0, n_out=n, polynomial=True) * 2
    return (acc + acc.conj()) * HALF


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


@functools.cache
def _punctual_system(delta):
    """Probe matrix of the core expression for homogeneous (f, g) at delta.

    Returns (f_keys, g_keys, monos, columns): monos are the weight-delta
    monomials whose Re/Im parts make the rows, and the columns run over the
    real and imaginary parts of each f/g coefficient, exact rationals.
    """
    f_keys = _holo_keys(delta - 1)
    g_keys = _holo_keys(delta)
    monos = _weight_monomials(delta)
    f0, g0 = HoloSeries.zero(delta - 1), HoloSeries.zero(delta)
    columns = [
        _series_rows(core_expression(HoloSeries(delta - 1, {jk: val}), g0, delta), monos)
        for jk in f_keys for val in (ONE, I_UNIT)
    ] + [
        _series_rows(core_expression(f0, HoloSeries(delta, {jk: val}), delta), monos)
        for jk in g_keys for val in (ONE, I_UNIT)
    ]
    return f_keys, g_keys, monos, columns


def _solve_punctual(delta, target):
    """Solve core_expression(f, g) = target for homogeneous (f, g)."""
    f_keys, g_keys, monos, columns = _punctual_system(delta)
    rhs = _series_rows(target, monos)
    mat = [[col[r] for col in columns] for r in range(len(rhs))]
    sol = solve(mat, rhs)
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
            val = GaussianRational(re_part, 0) + GaussianRational(im_part, 0) * I_UNIT
            if val:
                store[jk] = val
    return fc, gc


def punctual_normalize(M, stages=None, verify=False):
    """Kill all weight 3, 4 and 5 terms of an adapted surface."""
    stages = [] if stages is None else stages
    F = M.series
    n = F.n
    if n < 6:
        raise MathPreconditionError("punctual normalization needs order >= 6")
    if F.up_to_weight(2) != Series3.hermitian_square(n).up_to_weight(2):
        raise MathPreconditionError("punctual normalization needs an adapted chart")
    for delta in (3, 4, 5):
        target = M.series.weight_part(delta)
        if target.is_zero():
            continue
        fc, gc = _solve_punctual(delta, target)
        f = HoloSeries.z_var(n - 1) + HoloSeries(n - 1, fc)
        g = HoloSeries.w_var(n) + HoloSeries(n, gc)
        M = _run_stage("punctual%d" % delta, M, Biholo(f, g), stages, verify)
        if not M.series.weight_part(delta).is_zero():
            raise InternalInvariantError(
                "weight-%d normalization left a remainder" % delta
            )
    return M


# ---------------------------------------------------------------------------
# straightening a transversal curve to the u-axis
# ---------------------------------------------------------------------------


def transform_curve(curve, h):
    """Push a curve through an exact polynomial map and reparametrize by u.

    Only safe for maps whose components are complete polynomials (the
    adapted-chart moves are); the result is again parametrized by Re psi = t.
    """
    phi_raw = eval_holo3(h.f, curve.phi, curve.psi, polynomial=True)
    psi_raw = eval_holo3(h.g, curve.phi, curve.psi, polynomial=True)
    s = psi_raw.real_part()
    if not s.coeff(1):
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
    trivial_phi = curve.phi.is_zero()
    trivial_psi = curve.psi == UPoly.var(curve.psi.n)
    if trivial_phi and trivial_psi:
        return M
    tau = curve.psi.reversion()
    phi_of = curve.phi.compose(tau)
    f = HoloSeries.z_var(n - 1) - HoloSeries.from_w_series(phi_of, n - 1)
    g = HoloSeries.from_w_series(tau, n)
    M2 = _run_stage("straighten", M, Biholo(f, g), stages, verify)
    if not M2.series.pure_u_part().is_zero():
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
    if F.coeff(1, 0, 0) or F.coeff(0, 0, 1) or F.coeff(2, 0, 0):
        raise MathPreconditionError("harmonic killing needs an adapted chart")
    if not F.pure_u_part().is_zero():
        raise MathPreconditionError("harmonic killing needs a straightened u-axis")

    harm = HoloSeries(
        n, {(j, l): v for (j, k, l), v in F.c.items() if k == 0 and j >= 1}
    )
    if harm.is_zero():
        return M
    # invert omega = u + i F(z, 0, u) for u = T(z, omega)
    zv = HoloSeries.z_var(n)
    T = HoloSeries.w_var(n)
    for _ in range(n):
        T_next = HoloSeries.w_var(n) - eval_holo2(harm, zv, T, n_out=n) * I_UNIT
        if T_next == T:
            break
        T = T_next
    else:
        raise InternalInvariantError("harmonic inversion did not stabilize")
    g_corr = eval_holo2(harm, zv, T, n_out=n) * (I_UNIT * (-2))
    if g_corr != (T - HoloSeries.w_var(n)) * 2:
        raise InternalInvariantError("harmonic inversion identity failed")
    h = Biholo(HoloSeries.z_var(n - 1), HoloSeries.w_var(n) + g_corr)
    M2 = _run_stage("harmonics", M, h, stages, verify)
    leftover = Series3(
        n, {key: v for key, v in M2.series.c.items() if key[0] == 0 or key[1] == 0}
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
    f11 = M.slice(1, 1)
    if f11.coeff(0) - ONE:
        raise MathPreconditionError("Levi slice must start at 1")
    if not f11.is_real():
        raise InternalInvariantError("Levi slice is not real")
    if f11 == UPoly.one(f11.n):
        return M
    root = f11.sqrt()
    f = (HoloSeries.z_var(n - 1) * HoloSeries.from_w_series(root, n - 1)).truncate(n - 1)
    h = Biholo(f, HoloSeries.w_var(n))
    M2 = _run_stage("levi", M, h, stages, verify)
    if not (M2.slice(1, 1) - UPoly.one((n - 2) // 2)).is_zero():
        raise InternalInvariantError("Levi slice not normalized to 1")
    return M2


def absorb_k1(M, stages=None, verify=False):
    """Absorb all F_{j,1} slices (j >= 2) into z' = z + Lambda(z, w)."""
    stages = [] if stages is None else stages
    F = M.series
    n = F.n
    lam_corr = HoloSeries(
        n - 1, {(j, l): v for (j, k, l), v in F.c.items() if k == 1 and j >= 2}
    )
    if lam_corr.is_zero():
        return M
    f = HoloSeries.z_var(n - 1) + lam_corr
    h = Biholo(f, HoloSeries.w_var(n))
    M2 = _run_stage("absorb", M, h, stages, verify)
    leftover = Series3(
        n,
        {key: v for key, v in M2.series.c.items() if (key[1] == 1 and key[0] >= 2) or (key[0] == 1 and key[1] >= 2)},
    )
    leftover.assert_zero("degree-one slices after absorption")
    return M2


def kill_f22_rotation(M, stages=None, verify=False):
    """Rotate z by the unit factor lambda(u) that removes the F_{2,2} slice."""
    stages = [] if stages is None else stages
    n = M.n
    f22 = M.slice(2, 2)
    if f22.is_zero():
        return M
    if not f22.is_real():
        raise InternalInvariantError("F22 slice is not real")
    minus_half_i = I_UNIT * HALF * (-1)
    lam = (f22.integrate() * minus_half_i).exp()
    unit_defect = lam * lam.conjugate() - UPoly.one(lam.n)
    if not unit_defect.is_zero():
        raise InternalInvariantError("rotation factor is not unitary")
    f = (HoloSeries.z_var(n - 1) * HoloSeries.from_w_series(lam, n - 1)).truncate(n - 1)
    h = Biholo(f, HoloSeries.w_var(n))
    M2 = _run_stage("rotate", M, h, stages, verify)
    # the rotation satisfies 2i lambda'/lambda = F22 by construction; with
    # the new slice F'22 = 0 that is exactly the stage's defining equation
    ode_defect = lam.derivative() * I_UNIT * 2 - (f22 * lam).truncate(lam.n - 1)
    if not ode_defect.is_zero():
        raise InternalInvariantError("rotation factor violates its defining equation")
    if not M2.slice(2, 2).is_zero():
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
    f33 = M.slice(3, 3)
    if f33.is_zero():
        return M
    if not f33.is_real():
        raise InternalInvariantError("F33 slice is not real")
    eta_order = f33.n + 2
    three_halves = HALF * 3
    eta = {0: ONE}
    for m in range(0, eta_order - 1):
        # eta_{m+2} = (3/2) (F33 * eta)_m / ((m+1)(m+2))
        acc = ZERO
        for j, fv in f33.c.items():
            if j <= m and (m - j) in eta:
                acc = acc + fv * eta[m - j]
        acc = acc * three_halves
        if acc:
            eta[m + 2] = acc / ((m + 1) * (m + 2))
    eta = UPoly(eta_order, eta)
    phi = eta.inverse()
    psi_u = phi * phi
    psi = psi_u.integrate()
    # assert the nonlinear reparametrization law: psi''' psi' = (3/2) psi''^2 - 3 F33 psi'^2
    lhs = psi.derivative().derivative().derivative() * psi_u
    rhs = psi_u.derivative() * psi_u.derivative() * three_halves - f33 * psi_u * psi_u * 3
    if not (lhs - rhs).is_zero():
        raise InternalInvariantError("reparametrization ODE violated")

    f = (HoloSeries.z_var(n - 1) * HoloSeries.from_w_series(phi, n - 1)).truncate(n - 1)
    g = HoloSeries.from_w_series(psi, n)
    h = Biholo(f, g)
    f42_before = M.slice(4, 2)
    M2 = _run_stage("reparam", M, h, stages, verify)
    if not M2.slice(3, 3).is_zero():
        raise InternalInvariantError("F33 slice survived the reparametrization")
    # transported-slice law: psi' F42 = phi^6 (F'42 o psi)
    f42_after = M2.slice(4, 2)
    if not f42_after.is_zero() or not f42_before.is_zero():
        sound = min(f42_before.n, f42_after.n, psi.n - 1)
        lhs42 = (psi_u * f42_before).truncate(sound)
        phi6 = phi * phi * phi
        phi6 = phi6 * phi6
        rhs42 = (phi6 * f42_after.compose(psi.truncate(sound))).truncate(sound)
        if not (lhs42 - rhs42).is_zero():
            raise InternalInvariantError("degree-(4,2) slice transport law violated")
    return M2


# ---------------------------------------------------------------------------
# chain finding on a surface normalized through weight 5
# ---------------------------------------------------------------------------

def _straighten_through_rotation(M, curve, stages, verify=False, stop_after=None):
    """Straighten curve to the u-axis and run the stages through the rotation;
    returns (surface, stopped), stopped True when the checkpoint stop_after
    was reached (the surface is then the one at it)."""
    M = straighten_curve(M, curve, stages, verify)
    if stop_after == "straighten":
        return M, True
    # the stages are looked up by name on each call, not kept in a module
    # constant, so a wrapper on the module's names (perfbench/tracing.py) counts
    for name, stage in (
        ("harmonics", kill_harmonics),
        ("levi", normalize_levi),
        ("absorb", absorb_k1),
        ("rotate", kill_f22_rotation),
    ):
        M = stage(M, stages, verify)
        if stop_after == name:
            return M, True
    return M, False


def _f32_slice_through_subpipeline(M, phi):
    """Straighten phi's completion and run the stages through the rotation;
    return the F_{3,2} slice of the result."""
    M5, _ = _straighten_through_rotation(M, TransversalCurve.complete(M, phi), [])
    return M5.slice(3, 2)


@functools.cache
def _chain_response(m):
    """Universal affine response (kappa, mu) of the order-(m-2) straightening
    residual to the curve coefficient c_m, measured on the model sphere."""
    n_probe = 2 * m + 1
    sphere = Hypersurface.sphere(n_probe)
    r_one = _f32_slice_through_subpipeline(
        sphere, UPoly(n_probe // 2, {m: ONE})
    ).coeff(m - 2)
    r_i = _f32_slice_through_subpipeline(
        sphere, UPoly(n_probe // 2, {m: I_UNIT})
    ).coeff(m - 2)
    kappa = (r_one + I_UNIT * r_i) * HALF
    mu = (r_one - I_UNIT * r_i) * HALF
    return kappa, mu


def find_chain_curve(M):
    """The z-component of the chain through the origin with flat 1-jet.

    Requires a surface of the shape z zbar + (weight >= 6).  The curve
    coefficients c_m (m >= 3; c_2 = 0 on such surfaces) are solved order by
    order from the straightening residual's affine response.

    Step m runs the subpipeline on the surface truncated to order 2m+1, with
    the curve c_3..c_{m-1} carried to t-order m.  That is sound:

    * the u^q coefficient of F_{3,2} has weight 5 + 2q, so c_m is read off
      the weight-(2m+1) coefficient q = m-2;
    * the subpipeline maps (straighten, harmonics, levi, absorb, rotate)
      substitute arguments of weight >= 1 in z and >= 2 in w, so they never
      lower weight: input terms above weight 2m+1 cannot reach it;
    * so coefficients q <= m-2 of F_{3,2} from the order-(2m+1) run equal
      those of the full-order run.

    normalize_hypersurface still checks the full-order slice(3, 2) after the
    rotation, which certifies the found chain on every call.
    """
    F = M.series
    n = F.n
    low = (F - Series3.hermitian_square(n)).low_weight()
    if low is not None and low < 6:
        raise MathPreconditionError(
            "chain finding needs a surface normalized through weight 5"
        )
    mmax = (n - 1) // 2
    coeffs = {}
    for m in range(3, mmax + 1):
        f32 = _f32_slice_through_subpipeline(M.with_order(2 * m + 1), UPoly(m, coeffs))
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
        b = (mu - kappa) * I_UNIT
        rows = [[a.real, b.real], [a.imag, b.imag]]
        rhs = [-r0.real, -r0.imag]
        sol = solve(rows, rhs)
        if sol is None:
            raise InternalInvariantError("chain correction system inconsistent")
        coeffs[m] = GaussianRational(sol[0], sol[1])
    return UPoly(n // 2, coeffs)


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
    defects = []
    for j in range(0, n + 1):
        defects.append(M.slice(j, 0))
    for j in range(2, n):
        defects.append(M.slice(j, 1))
    defects.append(M.slice(1, 1) - UPoly.one((n - 2) // 2))
    if n >= 4:
        defects.append(M.slice(2, 2))
    if n >= 5:
        defects.append(M.slice(3, 2))
    if n >= 6:
        defects.append(M.slice(3, 3))
    if not all(d.is_zero() for d in defects):
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
            return Biholo.identity(self.surface.n)
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

    stop_after names a checkpoint from PIPELINE_STEPS to halt at.  With a
    supplied curve there is no "punctual" checkpoint, and asking for it
    raises ParseError.
    """
    if stop_after is not None and stop_after not in PIPELINE_STEPS:
        raise ParseError(
            "unknown checkpoint %r; expected one of %s" % (stop_after, ", ".join(PIPELINE_STEPS))
        )
    if curve is not None and stop_after == "punctual":
        raise ParseError("a supplied curve skips the punctual stages; no 'punctual' checkpoint")
    if M.n < 6:
        raise MathPreconditionError("normalization needs truncation order >= 6")
    stages = []
    chain = None

    def result(surface, completed):
        return PipelineResult(M, surface, stages, chain, completed)

    if curve is None:
        cur = adapt_chart(M, stages, verify)
        if stop_after == "adapt":
            return result(cur, False)
        cur = punctual_normalize(cur, stages, verify)
        if stop_after == "punctual":
            return result(cur, False)
        chain = TransversalCurve.complete(cur, find_chain_curve(cur))
    else:
        curve.validate_on(M)
        cur = adapt_chart(M, stages, verify)
        chain = curve
        for stage in stages:
            chain = transform_curve(chain, stage.map)
        chain.validate_on(cur)
        if stop_after == "adapt":
            return result(cur, False)

    cur, stopped = _straighten_through_rotation(cur, chain, stages, verify, stop_after)
    if stopped:
        return result(cur, False)

    if not cur.slice(3, 2).is_zero():
        if curve is None:
            raise InternalInvariantError("automatically found curve left a chain obstruction")
        raise MathPreconditionError(
            "the supplied curve is not a chain: its straightening obstruction survives"
        )

    cur = kill_f33_reparam(cur, stages, verify)
    assert_normal_form(cur)
    return result(cur, True)
