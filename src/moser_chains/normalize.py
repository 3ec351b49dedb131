"""Normal-form pipeline for real-analytic graphs v = F(z, zbar, u).

The central objects:

* ``Hypersurface`` -- a real graph series (polynomial data; the truncation
  order bounds the *transforms*, the stored terms are the surface).
* ``Biholo``       -- an origin-fixing map (z, w) |-> (f(z,w), g(z,w)).
* ``graph_transform`` -- the induced graph function of the image surface,
  solved weight by weight in coordinates with an identity leading part;
  its independent correctness oracle is the identity
  F'(P, conj P, Re E) = Im E (``fundamental_identity_residual``), which
  each stage checks over its transform's own P, E and a table of (P, Re E);
  a vertical map (z, a w + p(z)), a real, has a closed-form image instead.
* ``_homological_operator`` -- the weight-delta linearization L(f, g) =
  Re(i g + 2 zbar f) on the model w = u + i z zbar, with the unit columns N
  of the normal-form monomials, built in closed form and solved by type
  block j - k; the punctual stages are its delta <= 5 case.
* the pipeline stages: adapted chart, punctual normalization through weight
  5, chain straightening (with the chain found automatically or supplied),
  harmonic killing, Levi normalization, degree-one absorption, the unitary
  u-rotation and the final chain reparametrization, ending in the normal
  form  v = zzb + (weight >= 6 terms with tightly constrained slices).

Every stage *constructs* its map from the surface data, and each
postcondition is *asserted* once, by the first check that reads it (a
stage's own, ``adapt_chart``'s weight-2 check or ``assert_normal_form``),
so a run that completes silently is a proof sketch at the working order.
"""

from __future__ import annotations

import functools

from fractions import Fraction
from math import comb, lcm
from operator import mul

from .errors import (
    InternalInvariantError,
    LeviDegenerateError,
    MathPreconditionError,
    ParseError,
)
from .linalg import rref
from .series_core import (
    HALF,
    I_UNIT,
    ONE,
    ZERO,
    GraphTable,
    HoloSeries,
    Series3,
    UPoly,
    _combine,
    _reduced_series,
    _series,
    _tail_bound,
    eval_curve,
    eval_graph,
    eval_holo2,
    eval_holo3,
    exact_scalar,
    fixed_point,
    holo_from_json,
    holo_to_json,
    is_json_count,
    series3_from_json,
    series3_to_json,
)


def _exact_real(value, what):
    """value as a Fraction; ParseError as in ``exact_scalar``, and
    MathPreconditionError for a Gaussian rational that is not real."""
    value = exact_scalar(value, what)
    if not value.is_real():
        raise MathPreconditionError("%s must be real" % what)
    return value.real


def _check_map_order(n):
    """ParseError unless n is an integer >= 1: a map carries f at order
    n - 1, so that is its least order."""
    if not is_json_count(n, 1):
        raise ParseError("map order must be an integer >= 1, not %r" % (n,))


def _check_type(value, cls, what):
    """ParseError unless value is a cls: a pipeline entry point refuses a
    wrong-typed argument as malformed input."""
    if not isinstance(value, cls):
        raise ParseError("%s must be a %s, not %s" % (what, cls.__name__, type(value).__name__))


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


class Hypersurface:
    """A graph v = F(z, zbar, u) through the origin; F may depend on u.

    F must be a real series (Hermitian coefficient symmetry) with F(0) = 0
    and exact coefficients (``GaussianRational``, ``int`` or ``Fraction``).
    The coefficient data is treated as an exact polynomial surface; the
    truncation order n says up to which weight transforms of it are computed.
    """

    __slots__ = ("series",)

    def __init__(self, series, check=True):
        if check:
            if series.coeff(0, 0, 0):
                raise MathPreconditionError("graph function must vanish at the origin")
            if not series.is_real():
                raise MathPreconditionError("graph function must be a real series")
        self.series = series

    @property
    def n(self):
        return self.series.n

    @classmethod
    def sphere(cls, n):
        return cls(Series3.hermitian_square(n), check=False)

    @classmethod
    def from_json(cls, obj):
        try:
            M = cls(series3_from_json(obj))
        except MathPreconditionError as exc:
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
        if f.coeff(0, 0) or g.coeff(0, 0):
            raise MathPreconditionError("map must fix the origin")
        self.f = f
        self.g = g

    @classmethod
    def identity(cls, n):
        _check_map_order(n)
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
        _check_map_order(n)
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

    expanded to weights n-1 / n; with d = 1 - b, 1/d is the fixed point of
    1/d = 1 + b (1/d).  lambda != 0 is required; r must be real.
    The parameters must be exact (``int``, ``Fraction`` or
    ``GaussianRational``) and n an integer >= 1; anything else raises
    ParseError.
    """
    lam = exact_scalar(lam, "isotropy parameter lambda")
    alpha = exact_scalar(alpha, "isotropy parameter alpha")
    r = _exact_real(r, "isotropy parameter r")
    _check_map_order(n)
    if not lam:
        raise MathPreconditionError("isotropy parameter lambda must be nonzero")

    abs2 = alpha * alpha.conjugate()
    b = HoloSeries(
        n,
        {
            (1, 0): I_UNIT * alpha.conjugate() * 2,
            (0, 1): abs2 * I_UNIT + r,
        },
    )
    one = HoloSeries.one(n)
    inv_d = fixed_point(lambda x: one + b * x, one, "isotropy denominator")
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
    The height F(z0, conj z0, u0) is the constant term of that
    substitution; if v0 is given it is validated against it.  The
    coordinates must be exact, as in ``isotropy_map``.  The result is real
    without a check: a real F substituted into (x, conj x, t) with t real
    is real (``GraphTable``), so its constant term, the height, is too.
    """
    _check_type(M, Hypersurface, "surface")
    F = M.series
    z0 = exact_scalar(z0, "z-coordinate")
    u0 = _exact_real(u0, "u-coordinate")
    n = F.n
    one = Series3.one(n)
    out = eval_graph(F, Series3.z_var(n) + one * z0, Series3.u_var(n) + one * u0, polynomial=True)
    height = out.coeff(0, 0, 0)
    if v0 is not None and height != exact_scalar(v0, "v-coordinate"):
        raise MathPreconditionError("point is not on the hypersurface")
    return Hypersurface(out - one * height, check=False)


# ---------------------------------------------------------------------------
# the graph transform and its independent oracle
# ---------------------------------------------------------------------------


def _is_variable(s, i):
    """True when the HoloSeries s is its variable z (i = 0) or w (1)."""
    return s.d == 1 and s.num == {HoloSeries._UNITS[i]: (1, 0)}


def _transform_ingredients(M, h, polynomial=False):
    """(n, P, Q, R): P = f(z, W) and Q + iR = g(z, W), W = u + iF, Q and R
    real; f = z gives P = z and g = w gives Q = u and R = F for free.  F's
    weight-1 terms are refused unless ``polynomial``: g(z, W) would be sound
    only to about weight n/2."""
    F = M.series
    n = F.n
    if not polynomial and F.low_weight() == 1:
        raise MathPreconditionError(
            "graph transform needs a surface with no weight-1 term"
            " (the shear in adapt_chart removes it)"
        )
    # g(z, W) is sound to this weight whether or not g is w
    if _tail_bound(h.g, n, 1, min(F.low_weight() or 2, 2), polynomial) < n:
        raise MathPreconditionError("map w-component truncated below the surface order")
    zv, uv = Series3.z_var(n), Series3.u_var(n)
    f_moves, g_moves = not _is_variable(h.f, 0), not _is_variable(h.g, 1)
    P, Q, R = zv, uv, F
    if f_moves or g_moves:
        # W = u + iF is canonical as F is: gcd(d, F) = 1 and its u entry adds d
        u_key, d = Series3._UNITS[2], F.d
        num = {k: (-b, a) for k, (a, b) in F.num.items()}
        a, b = num.get(u_key, (0, 0))
        num[u_key] = (a + d, b)
        big_w = _series(Series3, n, d, num)
    if f_moves:
        # f is carried to weight n-1 only; the missing weight-n slice of P
        # cannot reach weights <= n in any product that also carries weight
        # >= 1 from elsewhere, and the identity has no weight-1 content, so
        # declaring it zero is sound for everything computed here.
        P = eval_holo3(h.f, zv, big_w, polynomial=polynomial).padded(n)
    if g_moves:
        Q, R = eval_holo3(h.g, zv, big_w, polynomial=polynomial).re_im()
    return n, P, Q, R


def graph_transform(M, h):
    """Express the image h(M) as a graph; returns (surface, P, Q).

    Contract: h fixes the origin, f_z(0) != 0, g_z(0) = 0, and the image
    graph's u-part must stay transversal (u-coefficient of Re g(z, u+iF)
    nonzero).  P and Q are the new z and u coordinates as series over the
    source; a stage checks its image over them (``_run_stage``).

    The image F' solves F'(P, conj P, Q) = R.  With L = (lambda z, sigma u +
    q2) the leading part of (P, Q), the loop solves G(P~, conj P~, Q~) = R
    over (P~, Q~) = L^-1 o (P, Q), whose leading part is the identity, and
    F' = G o L^-1.  Every stage but the tilt has L = 1, so F' = G; the tilt
    pays q2(P~) before the loop and G o L^-1 after it.

    The loop's table of (P~, Q~) has gap d (``GraphTable.near``): a term of
    weight w goes to itself plus terms of weight >= w + d, so G's weight-nu
    part is the remainder R - sum table(g_mu) at weight nu.  Each weight
    nu <= n - 2d takes one step, the band n - 2d < nu <= n - d one call, as
    its images land above n - d, and the top d weights are copied.  The
    remainder is one numerator dict per weight over one running
    denominator, each image added into it in place; each step and each
    weight of the band must leave its own weights zero, which is checked.

    The image is real without a check: R is real, and the table substitutes
    into (x, conj x, t) with t real, checked once, so conjugation commutes
    with it and a real series goes to a real one; so each remainder slice,
    G and G o L^-1 are real.
    """
    _check_type(M, Hypersurface, "surface")
    _check_type(h, Biholo, "map")
    return _graph_transform_parts(M, h)[:3]


def _graph_transform_parts(M, h):
    """``graph_transform``'s (surface, P, Q), R and a table of (P, Q), the
    loop's own when L = 1, for the stage check."""
    if h.g.coeff(1, 0):
        raise MathPreconditionError("graph transform needs g_z(0) = 0")
    if not h.f.coeff(1, 0):
        raise MathPreconditionError("graph transform needs f_z(0) != 0")
    if h.f.n < M.n - 1:
        raise MathPreconditionError("map z-component truncated below the surface order")

    n, P, Q, R = _transform_ingredients(M, h)
    sigma = Q.coeff(0, 0, 1)
    if not sigma:
        raise MathPreconditionError("image is not a graph over (z, u): u-part degenerates")
    lam = P.coeff(1, 0, 0)
    q2 = Q.weight_part(2) - Series3.monomial(n, 0, 0, 1, sigma)
    identity = lam == ONE and sigma == ONE and not q2.num
    if identity:
        table = forward = GraphTable(P, Q, n)
    else:
        pt = P * (ONE / lam)
        table = GraphTable(pt, (Q - eval_graph(q2, pt, Q)) * (ONE / sigma), n)
    # R - sum table(g_mu), kept as its weight-w numerators rem[w] over den
    shift, den, rem = Series3._SHIFT, R.d, [{} for _ in range(n + 1)]
    for k, v in R.num.items():
        rem[k >> shift][k] = v
    d, parts, nu = table.near[0], [], 1
    while nu <= n:
        # a step per weight through n - 2d, one call for the band through
        # n - d, and the top d weights copied: their images add nothing else
        top = nu if nu <= n - 2 * d else n - d if nu <= n - d else n
        s = _reduced_series(
            Series3, n, den, {k: v for w in range(nu, top + 1) for k, v in rem[w].items()}
        )
        if s.num and top <= n - d:
            image = table(s)
            if den % image.d:
                m = lcm(den, image.d) // den
                den *= m
                for w in range(nu, n + 1):
                    rem[w] = {k: (a * m, b * m) for k, (a, b) in rem[w].items()}
            m = den // image.d
            for k, (a, b) in image.num.items():
                part = rem[k >> shift]
                x, y = part.get(k, (0, 0))
                part[k] = (x - a * m, y - b * m)
            for w in range(nu, top + 1):
                if any(a or b for a, b in rem[w].values()):
                    raise InternalInvariantError("graph transform recursion left weight %d" % w)
        parts.append((s, 1, 0))
        nu = top + 1
    G = _combine(Series3, n, 1, parts)
    if not identity:
        zs_inv = Series3.z_var(n) * (ONE / lam)
        uv = Series3.u_var(n)
        G = eval_graph(G, zs_inv, (uv - eval_graph(q2, zs_inv, uv)) * (ONE / sigma))
        forward = GraphTable(P, Q, n)
    return Hypersurface(G, check=False), P, Q, R, forward


def fundamental_identity_residual(M, h, M_target, polynomial=False):
    """Defect of the graph identity for h mapping M onto M_target.

    Writing E = g(z, u+iF) and P = f(z, u+iF), the target graph F' must
    satisfy  F'(P, conj P, Re E) - Im E = 0  identically; the returned series
    is that left-hand side, computed by forward substitution only (no use of
    the solver's internals).  It builds P and E afresh; it checks the
    stages with no transform, the vertical maps (``_run_stage``).  F's
    weight-1 terms are refused unless ``polynomial``.
    """
    _check_type(M, Hypersurface, "surface")
    _check_type(h, Biholo, "map")
    _check_type(M_target, Hypersurface, "target surface")
    n = min(M.n, M_target.n)
    _, P, Q, R = _transform_ingredients(M.with_order(n), h, polynomial=polynomial)
    composed = eval_graph(M_target.series, P, Q, polynomial=polynomial)
    return (composed - R).truncate(n)


# ---------------------------------------------------------------------------
# stage helpers
# ---------------------------------------------------------------------------


def _vertical_image(F, a, p):
    """F' = a F(z, zbar, (u - Re p)/a) + Im p, the image of v = F under
    (z, a w + p(z)), for a real a != 0 and p = {(j, 0): p_j} with j >= 1."""
    n = F.n
    shift, harm = {(0, 0, 1): ONE / a}, {}
    for (j, _), c in p.items():
        shift[j, 0, 0], shift[0, j, 0] = c * (-HALF / a), c.conjugate() * (-HALF / a)
        harm[j, 0, 0], harm[0, j, 0] = c * (-HALF * I_UNIT), c.conjugate() * (HALF * I_UNIT)
    return eval_graph(F, Series3.z_var(n), Series3(n, shift), polynomial=True) * a + Series3(n, harm)


def _run_stage(name, M, h, stages, verify):
    """Apply h to M and return the image; with verify, check it; append the
    stage when stages is a list.  The route is read off h's packed keys, f's
    first, so a loop stage builds no scalar here.

    * h = (z, a w + p(z)) with a real (f is z, and no term of g but a w has
      a w): Q = a u + Re p and R = a F + Im p do not contain F, so
      F'(z, zbar, Q) = R is one substitution, exact for the surface's terms
      (``_vertical_image``), checked by ``fundamental_identity_residual``.
    * any other h: the transform's weight loop, checked F2(P, conj P, Q) = R
      over its own P, Q, R and table of (P, Q), the loop's own when the
      leading part is the identity.  Rebuilding them would rerun the same
      deterministic code on the same input, so this costs no independence;
      the check uses no remainder, loop slice or map back by L^-1.
    """
    g, w_key = h.g, HoloSeries._UNITS[1]
    a = g.num.get(w_key)
    if _is_variable(h.f, 0) and a is not None and not a[1] and not any(
        k & HoloSeries._MASK for k in g.num if k != w_key
    ):
        p = g.c
        M2 = Hypersurface(_vertical_image(M.series, p.pop((0, 1)), p), check=False)
        resid = fundamental_identity_residual(M, h, M2, polynomial=True) if verify else None
    else:
        M2, _, _, R, forward = _graph_transform_parts(M, h)
        resid = None
        if verify:
            # both sides are canonical, so they are equal exactly when the
            # residual is zero; the difference is built only to report it
            image = forward(M2.series)
            resid = Series3.zero(R.n) if image == R else image - R
    if resid is not None:
        resid.assert_zero("independent residual after stage %r" % name)
    if stages is not None:
        stages.append(Stage(name, h, M2, None if resid is None else True))
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

    Each move is a map (z, a w + p(z)).  The shear, bend and scale have a
    real, so ``_run_stage`` finds their image in closed form, by one
    substitution.  The tilt's a = 1 - ic is not real, so Q = u + cF contains
    F and ``_run_stage`` runs the transform's weight loop for it.

    The shear checks its result (a z-linear term left would make the tilt's
    transform refuse the surface first, as a precondition); the others are
    checked at the end, on the weight-2 part, where no later move cancels
    what one leaves: the bend changes only z^2 and zbar^2 there, and the
    scale only rescales.
    """
    n = M.n

    def move(name, M, g):
        h = Biholo(HoloSeries.z_var(n - 1), HoloSeries(n, g))
        return _run_stage(name, M, h, stages, verify)

    # -- shear: kill the z-linear coefficient exactly ------------------------
    alpha = M.series.coeff(1, 0, 0)
    if alpha:
        nu = (alpha * 2) / (M.series.coeff(0, 0, 1) + I_UNIT)
        M = move("shear", M, {(0, 1): ONE, (1, 0): nu})
        if M.series.coeff(1, 0, 0):
            raise InternalInvariantError("w-shear failed to kill the z-linear term")

    # -- tilt: kill the u-linear coefficient ---------------------------------
    c = M.series.coeff(0, 0, 1)
    if c:
        M = move("tilt", M, {(0, 1): ONE - I_UNIT * c})

    # -- bend: kill the z^2 harmonic ------------------------------------------
    beta = M.series.coeff(2, 0, 0)
    if beta:
        M = move("bend", M, {(0, 1): ONE, (2, 0): beta * I_UNIT * (-2)})

    # -- scale: normalize the Levi coefficient --------------------------------
    e = M.series.coeff(1, 1, 0)
    if not e:
        raise LeviDegenerateError("Levi form vanishes at the origin")
    if e != ONE:
        M = move("scale", M, {(0, 1): ONE / e})

    if M.series.up_to_weight(2) != Series3.hermitian_square(n):
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
    ``_operator_columns`` builds its columns in closed form.
    """
    zv = Series3.z_var(n)
    w0 = Series3.u_var(n) + Series3.hermitian_square(n) * I_UNIT
    acc = Series3.zero(n)
    if not g.is_zero():
        acc = acc + eval_holo3(g, zv, w0, polynomial=True) * I_UNIT
    if not f.is_zero():
        acc = acc + Series3.zbar_var(n) * eval_holo3(f, zv, w0, polynomial=True) * 2
    return acc.re_im()[0]


def _weight_monomials(delta):
    """(j, k, l) with j + k + 2l = delta and j >= k, sorted."""
    return sorted(
        (delta - 2 * l - k, k, l) for l in range(delta // 2 + 1) for k in range(delta // 2 - l + 1)
    )


#: i^e for e mod 4, as Gaussian-integer pairs
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _operator_columns(delta):
    """The columns of [L | N] at weight delta, in closed form.

    Returns (labels, columns).  A label (part, key, unit) names the unit
    coefficient (ONE or I_UNIT) at key (j, l) of f (part 0) or g (1), keys
    sorted, or at the monomial (j, k, l) of N (2).  A column is its nonzero
    rows {(j, k, l, im): Fraction}: the real (im = 0) or the imaginary part
    (im = 1) of L's coefficient at (j, k, l), j >= k, only the real one for
    j = k.

    With w0 = u + i z zbar, w0^l = sum_m C(l, m) i^m u^(l-m) (z zbar)^m, so
    the unit c z^a w^l of f gives 2c zbar z^a w0^l, terms z^(a+m) zbar^(1+m)
    u^(l-m), and that of g gives i c z^a w0^l, terms z^(a+m) zbar^m u^(l-m),
    with no substitution.  A term h z^p zbar^q u^r puts h/2 at (p, q, r) and
    conj(h)/2 at (q, p, r), so a column lies in the rows of one type j - k:
    |a - 1| for f and a for g.  N's unit columns follow L's.
    """
    labels, columns = [], []
    for part, weight, zbar, scale, e in ((0, delta - 1, 1, 2, 0), (1, delta, 0, 1, 1)):
        for l in range(weight // 2, -1, -1):
            a = weight - 2 * l
            for s, unit in enumerate((ONE, I_UNIT)):
                col = {}
                for m in range(l + 1):
                    x, y = _I_POWERS[(m + s + e) % 4]
                    v, p, q = Fraction(scale * comb(l, m), 2), a + m, zbar + m
                    if p < q:
                        p, q, y = q, p, -y
                    for im, t in ((0, x), (1, y)) if p > q else ((0, 2 * x),):
                        if t:
                            col[p, q, l - m, im] = v * t
                labels.append((part, (a, l), unit))
                columns.append(col)
    for j, k, l in _weight_monomials(delta):
        if k >= 2 and (j, k) not in _EMPTY_SLICES:
            for im, unit in enumerate((ONE, I_UNIT)[: 1 + (j != k)]):
                labels.append((2, (j, k, l), unit))
                columns.append({(j, k, l, im): Fraction(1)})
    return labels, columns


@functools.cache
def _homological_operator(delta):
    """The solve operator of [L | N] at weight delta: (labels, keys, den,
    rows), keys the rows (j, k, l, im) in the order of the sorted monomials.
    x = rows b / den, one integer row per unknown (zero for a free one) over
    one denominator, solves [L | N] x = b for every b.

    The columns and rows of one type t make a block, and rref runs on each
    block's [A_t | I] alone, which reduces to [E_t | T_t], T_t A_t = E_t.
    Pivots go left to right inside a block and the blocks share no row, so
    the pivots and T are those of rref on the whole [A | I], and x[pivot of
    row i] = (T b)_i, free variables zero, is ``linalg.solve``'s solution.
    Every block has full row rank (checked for delta = 3 to 15: L's rank is
    its row count at 3, 4 and 5, and from 5 on every block is square), so no
    b is left unsolved.
    """
    labels, columns = _operator_columns(delta)
    keys = [(j, k, l, im) for j, k, l in _weight_monomials(delta) for im in range(1 + (j != k))]
    blocks, zero, solved, dens = {}, Fraction(0), [], []
    for c, col in enumerate(columns):
        j, k, _, _ = next(iter(col))
        blocks.setdefault(j - k, []).append(c)
    for t, cols in blocks.items():
        rs = [r for r, key in enumerate(keys) if key[0] - key[1] == t]
        red, pivots = rref(
            [[columns[c].get(keys[r], zero) for c in cols] + [Fraction(r == s) for s in rs]
             for r in rs]
        )
        size = len(cols)
        dens += (x.denominator for row in red for x in row[size:])
        solved += ((cols[p], rs, row[size:]) for p, row in zip(pivots, red) if p < size)
    den = lcm(*dens)
    rows = [[0] * len(keys) for _ in columns]
    for c, rs, t in solved:
        for r, x in zip(rs, t):
            rows[c][r] = int(x * den)
    return labels, keys, den, rows


def _solve_homological(delta, target):
    """Split target, a real series of weight delta, as L(f, g) + N: the
    coefficient dicts (fc, gc, nc) of f, g and N in the operator's solution."""
    labels, keys, den, rows = _homological_operator(delta)
    rhs = [target.num.get(Series3._pack(key[:3]), (0, 0))[key[3]] for key in keys]
    out = ({}, {}, {})
    for (part, key, unit), row in zip(labels, rows):
        x = sum(map(mul, row, rhs))
        if x:
            c = out[part]
            c[key] = c.get(key, ZERO) + unit * Fraction(x, den * target.d)
    return out


def punctual_normalize(M, stages=None, verify=False):
    """Kill all weight 3, 4 and 5 terms of an adapted surface."""
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
        fc, gc, _ = _solve_homological(delta, target)
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
    The caller vouches that the curve lies on M (``TransversalCurve.complete``
    builds it there, or ``validate_on`` checked it); it is not checked here.
    """
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


def _z_slices(F, k, n):
    """sum_{j > k} F_{j,k}(w) z^j as a HoloSeries of order n, read off F's
    packed keys."""
    num = {}
    for key, v in F.num.items():
        j, kk, l = Series3._unpack(key)
        if kk == k < j:
            num[HoloSeries._pack((j, l))] = v
    return _reduced_series(HoloSeries, n, F.d, num)


def _assert_no_terms(M, hit, where):
    """InternalInvariantError unless M has no term z^j zbar^k u^l with
    hit(j, k), read off its packed keys."""
    left = sum(1 for key in M.series.num if hit(*Series3._unpack(key)[:2]))
    if left:
        raise InternalInvariantError("%s does not vanish (%d terms left)" % (where, left))


def kill_harmonics(M, stages=None, verify=False):
    """Remove the harmonic slices (k = 0) of a straightened, adapted graph.

    With harm = sum_{j >= 1} F_{j,0}(u) z^j and T = w - i harm(z, T) (u = T
    inverts w = u + i harm(z, u)), the map is w' = w - 2i harm(z, T) = 2T - w.
    """
    F = M.series
    n = F.n
    if F.coeff(1, 0, 0) or F.coeff(0, 0, 1) or F.coeff(2, 0, 0):
        raise MathPreconditionError("harmonic killing needs an adapted chart")
    if not F.pure_u_part().is_zero():
        raise MathPreconditionError("harmonic killing needs a straightened u-axis")

    harm = _z_slices(F, 0, n)
    if harm.is_zero():
        return M
    zv, w = HoloSeries.z_var(n), HoloSeries.w_var(n)
    T = fixed_point(lambda T: w - eval_holo2(harm, zv, T) * I_UNIT, w, "harmonic inversion")
    h = Biholo(HoloSeries.z_var(n - 1), T * 2 - w)
    M2 = _run_stage("harmonics", M, h, stages, verify)
    _assert_no_terms(M2, lambda j, k: j == 0 or k == 0, "harmonic slices after harmonic killing")
    return M2


# ---------------------------------------------------------------------------
# Levi normalization, degree-one absorption, u-rotation, reparametrization
# ---------------------------------------------------------------------------


def normalize_levi(M, stages=None, verify=False):
    """Scale z by 1/sqrt(F_{1,1}(u)) so the Levi slice becomes constant 1."""
    n = M.n
    f11 = M.slice(1, 1)
    if f11.coeff(0) - ONE:
        raise MathPreconditionError("Levi slice must start at 1")
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
    F = M.series
    n = F.n
    lam_corr = _z_slices(F, 1, n - 1)
    if lam_corr.is_zero():
        return M
    f = HoloSeries.z_var(n - 1) + lam_corr
    h = Biholo(f, HoloSeries.w_var(n))
    M2 = _run_stage("absorb", M, h, stages, verify)
    _assert_no_terms(
        M2, lambda j, k: min(j, k) == 1 < max(j, k), "degree-one slices after absorption"
    )
    return M2


def kill_f22_rotation(M, stages=None, verify=False):
    """Rotate z by the unit factor lambda(u) that removes the F_{2,2} slice.

    The map is z' = z lambda(w), lambda = exp(-(i/2) integral(F22)), so
    2i lambda' = F22 lambda; F22 is real, so lambda conj(lambda) = 1.
    """
    n = M.n
    f22 = M.slice(2, 2)
    if f22.is_zero():
        return M
    lam = (f22.integrate() * (I_UNIT * HALF * -1)).exp()
    f = (HoloSeries.z_var(n - 1) * HoloSeries.from_w_series(lam, n - 1)).truncate(n - 1)
    h = Biholo(f, HoloSeries.w_var(n))
    M2 = _run_stage("rotate", M, h, stages, verify)
    if not M2.slice(2, 2).is_zero():
        raise InternalInvariantError("F22 slice survived the rotation")
    return M2


def kill_f33_reparam(M, stages=None, verify=False):
    """Reparametrize the u-axis to remove the F_{3,3} slice.

    eta is the fixed point of eta = 1 + integral(integral((3/2) F33 eta)),
    so eta'' = (3/2) F33 eta, eta(0) = 1, eta'(0) = 0.  The map is
    z' = z phi(w), w' = psi(w) with phi = 1/eta, psi' = phi^2, psi(0) = 0;
    psi then satisfies psi''' = (3/2) psi''^2 / psi' - 3 F33 psi'.
    """
    n = M.n
    f33 = M.slice(3, 3)
    if f33.is_zero():
        return M
    one = UPoly.one(f33.n + 2)
    rhs = f33 * (HALF * 3)
    eta = fixed_point(lambda e: one + (rhs * e).integrate().integrate(), one, "reparam eta")
    phi = eta.inverse()
    psi_u = phi * phi
    psi = psi_u.integrate()
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

def _through_rotation(M, stages, verify=False):
    """Run harmonics, levi, absorb and rotate on a straightened surface."""
    # the stages are looked up by name on each call, not kept in a module
    # constant, so a wrapper on the module's names (perfbench/tracing.py) counts
    for stage in (kill_harmonics, normalize_levi, absorb_k1, kill_f22_rotation):
        M = stage(M, stages, verify)
    return M


def _without_terms(M, cut):
    """M without its terms z^j zbar^k u^l for which cut(j, k, l) holds; the
    cut set must be closed under j <-> k, so that the result stays real."""
    F = M.series
    num = {key: v for key, v in F.num.items() if not cut(*Series3._unpack(key))}
    return Hypersurface(_reduced_series(Series3, F.n, F.d, num), check=False)


def _f32_slice_through_subpipeline(M, phi):
    """The F_{3,2} slice that straightening phi's completion and the stages
    through the rotation leave.

    The stages after ``straighten`` run on the straightened surface without
    its terms z^j zbar^k u^l with j > 3 or k > 3.  Those terms span an ideal
    I, closed under conjugation, that holds no F_{3,2} term, and the output
    mod I depends only on the input mod I (see ``find_chain_curve``), so
    the slice is the one the whole surface leaves.
    """
    M = straighten_curve(M, TransversalCurve.complete(M, phi))
    M5 = _through_rotation(_without_terms(M, lambda j, k, l: j > 3 or k > 3), None)
    return M5.slice(3, 2)


def find_chain_curve(M):
    """The z-component of the chain through the origin with flat 1-jet.

    Requires a surface of the shape z zbar + (weight >= 6).  The curve
    coefficients c_m (m >= 3; c_2 = 0 on such surfaces) are solved in closed
    form, c_m = conj(r_m) / (2m(m-1)), where r_m is the u^(m-2) coefficient
    of the F_{3,2} slice that the subpipeline (straighten, harmonics, levi,
    absorb, rotate) leaves for the curve c_3..c_{m-1}.

    Why: to first order in the curve's z-component phi, the subpipeline
    leaves F_{3,2} = -2 conj(phi'') on the model z zbar, with v = z zbar:

    * straightening (z' = z - phi(w)) and then harmonic killing leave
      z conj(phi)(u - iv) - z conj(phi)(u + iv) + conj, that is
      F_{2,1} = -2i conj(phi') and no F_{3,2} term (the even powers of v
      cancel);
    * ``absorb_k1`` removes F_{2,1} with z' = z - 2i z^2 conj(phi')(w), and
      the v-term of conj(phi')(u + iv) adds -2 conj(phi'') to F_{3,2};
    * levi and rotate do not act at first order (F_{1,1} and F_{2,2} do not
      move).

    So adding c t^m to phi moves r_m by -2m(m-1) conj(c), and the c above
    cancels it.  That move is the same on every surface of the required shape
    and has no term of higher order in c: every stage commutes with the
    dilation (z, w) -> (s z, s^2 w), which scales c by s^(1-2m), c_k by
    s^(1-2k), a coefficient of F of weight d >= 6 by s^(2-d), and r_m by
    s^(1-2m); a product of c with any other of these scales faster than r_m.

    Weights: give c_k the weight 2k + 1 of the coefficients of F that scale
    like it.  A term of the output then has the weight of the input term
    that moves it at first order, and a product of factors of weights a and
    b scales like weight a + b - 2.  Every factor (a coefficient of F of
    weight >= 6, or a c_k) has weight >= 6, so a product with a factor of
    weight d reaches only weights >= d + 4.  The u^q coefficient of F_{3,2}
    has the odd weight 5 + 2q, so r_m has weight 2m + 1.

    The coefficients are solved in blocks of two.  A run for the block
    (m, m+1) carries the curve c_3..c_{m-1} and yields both r_m and r_{m+1}:

    * at first order c_m moves only r_m (t^m gives conj(phi'') in u^(m-2));
    * c_m has weight 2m + 1, so its products reach only weights >= 2m + 5
      and first reach r_{m+2};
    * so c_m cannot move r_{m+1}, and r_{m+1} read without c_m is the one
      the curve through c_m leaves.  Blocks of three fail: a product of
      c_m with a weight-6 coefficient of F has weight 2m + 5, and moves
      r_{m+2}.

    The run for the block (m, top), top = min(m+1, mmax), gets only the
    terms of F that can reach the residuals it reads, r_q for q <= top - 2:

    * no term above weight 2 top + 1: the surface is truncated to that
      order, with the curve carried to t-order top.  The subpipeline maps
      substitute arguments of weight >= 1 in z and >= 2 in w, so they never
      lower weight, and r_top has weight 2 top + 1;
    * no term of weight 2m or 2m + 2.  Weight 2m moves at first order only
      the even weight 2m, and in products only weights >= 2m + 4, so it
      reaches neither r_m (2m + 1) nor r_{m+1} (2m + 3); weight 2m + 2 moves
      2m + 2 and >= 2m + 6, so it misses r_{m+1}.  The first block (3, 4)
      runs on z zbar + F_7 + F_9, where it is linear;
    * every weight <= 2m - 1 stays.  The residuals r_q below r_m, which the
      "reappeared" check reads, have weights <= 2m - 1 and come from those
      terms at first order, and in products those terms reach r_m and
      r_{m+1} too (weight 2m - 2 times a weight-7 factor has weight
      2m + 3).  A block run without weight 2m - 1 as well trips the check.

    Inside each run the stages after ``straighten`` see only the terms
    z^j zbar^k u^l with j, k <= 3 (``_f32_slice_through_subpipeline``).
    The other terms span I, a monomial ideal closed under conjugation, and
    the output mod I depends only on the straightened surface mod I:

    * each map of harmonics, levi, absorb and rotate has f(0, w) = 0, so
      P = f(z, u + iF) lies in (z) and conj P in (zbar), and F' -> F'(P,
      conj P, Q) maps I into I, as does every product with a term of I;
    * the maps are built from slices of the surface, and the only slice
      terms in I they read are harmonics' F_{j,0} and absorb's F_{j,1} with
      j >= 4; those add map terms divisible by z^4, which land in I;
    * F_{3,2} lies outside I.  ``straighten`` itself lowers the z-degree
      (its f(0, w) = -phi(tau(w))), so it still gets the whole block input.

    So coefficients q <= top - 2 of F_{3,2} from the cut run equal those of
    a run on the whole surface.  A surface of order n takes
    ceil((mmax - 2)/2) runs, mmax = (n-1)//2.  normalize_hypersurface still
    checks the full-order slice(3, 2) after the rotation, which certifies
    the found chain on every call.
    """
    _check_type(M, Hypersurface, "surface")
    F = M.series
    n = F.n
    low = (F - Series3.hermitian_square(n)).low_weight()
    if low is not None and low < 6:
        raise MathPreconditionError(
            "chain finding needs a surface normalized through weight 5"
        )
    mmax = (n - 1) // 2
    coeffs = {}
    for m in range(3, mmax + 1, 2):
        top = min(m + 1, mmax)
        block = _without_terms(
            M.with_order(2 * top + 1), lambda j, k, l: j + k + 2 * l in (2 * m, 2 * m + 2)
        )
        f32 = _f32_slice_through_subpipeline(block, UPoly(top, coeffs))
        for q in range(m - 2):
            if f32.coeff(q):
                raise InternalInvariantError(
                    "chain residual at solved order %d reappeared" % q
                )
        for k in range(m, top + 1):
            r = f32.coeff(k - 2)
            if r:
                coeffs[k] = r.conjugate() / (2 * k * (k - 1))
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


#: the slices (j, k) with min(j, k) >= 2 that a normal form leaves empty
_EMPTY_SLICES = frozenset(((2, 2), (3, 2), (2, 3), (3, 3)))


def assert_normal_form(M):
    """Check the normal-form shape in one pass over the terms: z zbar has
    coefficient 1, and every other term z^j zbar^k u^l has min(j, k) >= 2
    and (j, k) outside ``_EMPTY_SLICES``."""
    F = M.series
    rest = F.num.keys() - {Series3._pack((1, 1, 0))}
    if F.coeff(1, 1, 0) != ONE or any(
        min(j, k) < 2 or (j, k) in _EMPTY_SLICES for j, k, _ in map(Series3._unpack, rest)
    ):
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
        """All stage maps composed (applied left to right).  After a shear it
        is sound only to about weight n/2; the exact certificate is then the
        composite of ``stages[1:]`` mapping ``stages[0].surface`` onto the
        result with a zero ``fundamental_identity_residual``, plus the
        shear's own residual (``test_composite_after_shear_reproduces_final_surface``)."""
        if not self.stages:
            return Biholo.identity(self.surface.n)
        total = self.stages[0].map
        for stage in self.stages[1:]:
            total = stage.map.compose(total)
        return total


def normalize_hypersurface(M, curve=None, verify=False, stop_after=None):
    """Run the normal-form pipeline on a Levi nondegenerate graph.

    The path's steps are PIPELINE_STEPS, less "punctual" when a curve is
    supplied.  With curve=None the distinguished curve (the chain with flat
    1-jet at the origin) is found at "straighten", after the weight-5
    punctual normalization.  A supplied TransversalCurve is instead
    transported through the adapted-chart moves and straightened; the
    pipeline then fails with a precondition error before the final
    reparametrization if the curve was not actually a chain (its F_{3,2}
    obstruction survives straightening).

    stop_after names a checkpoint, a position in the path's step list, to
    halt after; "reparam", the last, is the full run.  Any other name raises
    ParseError.
    """
    _check_type(M, Hypersurface, "surface")
    steps = PIPELINE_STEPS
    if curve is not None:
        _check_type(curve, TransversalCurve, "curve")
        steps = tuple(s for s in steps if s != "punctual")
    if stop_after is not None and stop_after not in steps:
        raise ParseError("checkpoint %r is not on this path: %s" % (stop_after, ", ".join(steps)))
    if M.n < 6:
        raise MathPreconditionError("normalization needs truncation order >= 6")
    if curve is not None:
        curve.validate_on(M)
    cur, stages, chain = M, [], curve
    # the stage of each step in PIPELINE_STEPS, looked up by name on each call
    # as in _through_rotation; straighten reads the chain when it runs
    run = dict(zip(PIPELINE_STEPS, (
        adapt_chart, punctual_normalize,
        lambda M, stages, verify: straighten_curve(M, chain, stages, verify),
        kill_harmonics, normalize_levi, absorb_k1, kill_f22_rotation, kill_f33_reparam,
    )))
    for name in steps:
        if name == "straighten" and curve is None:
            chain = TransversalCurve.complete(cur, find_chain_curve(cur))
        if name == "reparam" and not cur.slice(3, 2).is_zero():
            if curve is None:
                raise InternalInvariantError("automatically found curve left a chain obstruction")
            raise MathPreconditionError(
                "the supplied curve is not a chain: its straightening obstruction survives"
            )
        cur = run[name](cur, stages, verify)
        if name == "adapt" and curve is not None:
            for stage in stages:
                chain = transform_curve(chain, stage.map)
            chain.validate_on(cur)
        if name == stop_after:
            break
    if name == "reparam":
        assert_normal_form(cur)
    return PipelineResult(M, cur, stages, chain, name == "reparam")
