"""Build the two superconformal surfaces attached to a conjugate minimal pair.

Given a pair (g, h) the two surfaces are phi = g + Jhat(sign) h, where the
bundle map acts as the complex structure J on the tangential part of h and as
a +-90 degree rotation on its normal part.  The module computes full
second-order jets of phi so the curvature machinery in `geometry` can run on
the result, flags the points where the construction degenerates (an int
array of the FLAG_* bits, PhiSample.flags), checks the geometry the two
surfaces share with g (dual_pair_report), and implements the inverse
extraction of (g, h) from a superconformal sample.  Vectors in and out are
(4, n) batches, the layout of the jets' slots.

Sign convention, fixed once for the whole package: with W = g_u ^ g_v the
tangent 2-form of the base surface, |W|^2 = EG - F^2, and * the Hodge star
of R4 with e1^e2^e3^e4 > 0,

    Jhat(+-) = (W +- *W) / |W|,   acting as (A h)_i = sum_j A_ij h_j,

so Jhat(+) n1 = -n2 and Jhat(+) n2 = +n1 in the oriented normal frame of
`geometry`.  Which of the two built surfaces a closed-form reference calls
"+" depends on orientation choices the reference leaves implicit, so
comparisons against stored oracles allow one global swap of the labels and
record the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (FrameDegenerateError, FrameUndefinedError,
                     PreconditionError)
from .geometry import (CIRCULAR_TOL, R4, REGULARITY_FLOOR, FundamentalData,
                       _blas_dot, _ellipse_axes, _largest, _normal_parts,
                       _pypow, _rank_deficient, _sqrt0, _vec_norm,
                       adapted_frame, fundamental_data)
from .jets import DIV_FLOOR, Jet2, fail_rows
from .minimal import MinimalPair

SIGNS = ("+", "-")

# a-values below this use the fallback normal basis instead of h^N
A_FLOOR = 1e-10
# ||h|| below this means the frame does not exist at all
R_FLOOR = 1e-10
# threshold for the FLAG_A_SMALL bit
A_SMALL = 0.05
# below this the conformal-factor residual (a^2 in its denominator) is nan
CONFORMAL_A_FLOOR = 1e-3

# the bits of a point's flags: a below A_SMALL, g's circular ellipse collapses
# the surface, the surface is rank-deficient; the grid runs of export add the
# point outside the domain and the point whose sampling failed
FLAG_A_SMALL = 1
FLAG_G_HOLOMORPHIC = 2
FLAG_RANK_DEFICIENT = 4
FLAG_OUT_OF_DOMAIN = 8
FLAG_DEGENERATE_SAMPLE = 16


def check_sign(sign):
    """+1.0 or -1.0 for a sign of SIGNS; PreconditionError otherwise."""
    if sign not in SIGNS:
        raise PreconditionError(f"sign must be '+' or '-', got {sign!r}")
    return 1.0 if sign == "+" else -1.0


# index pairs (i, j), i < j, of the six components of a 2-form on R4
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_I, _J = (list(ix) for ix in zip(*_PAIRS))
# *A for a 2-form A on _PAIRS: its components reversed, two of them negated
_STAR = [5, 4, 3, 2, 1, 0]
_STAR_SIGN = np.array([1.0, -1, 1, 1, -1, 1])[:, None]
# the terms of A h: for each pair (i, j) in turn, +A_ij h_j in component i
# and -A_ij h_i in component j; term k of component i is row 4 k + i
_TERM_A = [0, 0, 1, 2, 1, 3, 3, 4, 2, 4, 5, 5]
_TERM_H = [1, 0, 0, 0, 2, 2, 1, 1, 3, 3, 3, 2]
_TERM_SIGN = np.array([1.0, -1, -1, -1, 1, 1, -1, -1, 1, 1, 1, -1])[:, None]


def _act(form, h):
    """(A h)_i = sum_j A_ij h_j for the 2-form A, (6, n) on _PAIRS, and h,
    (4, n): one product of all terms, each component summed from 0.0 in
    _PAIRS order, so it rounds as written term by term (x * -1.0 is -x)."""
    t = (form[_TERM_A] * h[_TERM_H]).scaled(_TERM_SIGN)
    return 0.0 + t[0:4] + t[4:8] + t[8:12]


def _jhat_parts(gu, gv, h):
    """(W h, *W h) for the tangent 2-form W = gu ^ gv of the base surface.

    Jhat(s) h = (W h + s *W h) / |W|, for vector jets gu, gv and h."""
    W = gu[_I] * gv[_J] - gu[_J] * gv[_I]
    return _act(W, h), _act(W[_STAR].scaled(_STAR_SIGN), h)


@dataclass
class _FieldContext:
    """Everything phi assembly needs, with full jets over a batch of points,
    computed once for both signs."""

    sample: object
    E: Jet2
    F: Jet2
    G: Jet2
    r: Jet2
    ru: Jet2
    rv: Jet2
    a: np.ndarray
    turn_t: Jet2   # W h / |W|, the tangential half of Jhat h
    turn_n: Jet2   # *W h / |W|, the normal half of Jhat h
    fd_g: FundamentalData
    g_collapse: dict  # sign -> whether a circular ellipse of g collapses it


@dataclass
class PhiSample:
    """One built surface over a batch of points: phi with full jets, the
    field context it was assembled from (ctx.a is the a-function) and its
    regularity flags, an int array of FLAG_* bits over the batch."""

    sign: str
    phi: Jet2
    ctx: _FieldContext
    flags: np.ndarray


def _assemble(s) -> _FieldContext:
    """The field context of a split sample.

    The rows fail (jets.fail_rows) with FrameDegenerateError where h
    vanishes (||h||^2 at its relative floor or at the sqrt floor DIV_FLOOR),
    DegenerateJetError at another jet floor, and SingularSampleError where a
    is at its floor and g is singular (g's normal frame would have to stand
    in for h's)."""
    g, h = s.g, s.h
    gu, gv = s.g_u, s.g_v
    E = gu.dot(gu)
    F = gu.dot(gv)
    G = gv.dot(gv)

    scale = _largest(_vec_norm(h.v), _vec_norm(g.v), 1.0)
    r2 = h.dot(h)
    fail_rows(r2.v <= np.maximum(_pypow(R_FLOOR * scale, 2), DIV_FLOOR),
              lambda k: FrameDegenerateError(
                  f"h vanishes at z={complex(s.z[k])}: "
                  f"||h|| = {np.sqrt(max(r2.v[k], 0.0)):.3e}"))
    r = r2.sqrt()

    # d||h|| = <h_u, h>/||h||; routing through the conjugate fields keeps
    # full second-order jets for the gradient coefficients
    ru = s.h_u.dot(h) / r
    rv = s.h_v.dot(h) / r
    ng2 = (ru * ru + rv * rv) / E
    a = _sqrt0(1.0 - ng2.v)

    inv_w = 1.0 / (E * G - F * F).sqrt()
    turn_t, turn_n = (t * inv_w for t in _jhat_parts(gu, gv, h))

    # g's curvature data gives the fallback xi and the g-holomorphic flag
    fd_g = fundamental_data(g)
    fail_rows((a <= A_FLOOR) & ~fd_g.regular, _rank_deficient(fd_g))
    return _FieldContext(sample=s, E=E, F=F, G=G, r=r, ru=ru, rv=rv, a=a,
                         turn_t=turn_t, turn_n=turn_n, fd_g=fd_g,
                         g_collapse=_g_collapse(fd_g))


def _g_collapse(fd_g):
    """Which construction sign degenerates when g has a circular ellipse.

    The rotation Jhat(s) that matches the orientation of g's curvature
    circle (the sign of its normal curvature in the deterministic frame)
    collapses the corresponding phi.  Calibrated on the null-quadric
    trigonometric pair; for a point ellipse (K_N = 0) both signs degenerate;
    where g is singular neither does."""
    res_orth, res_len = _ellipse_axes(fd_g)[2:]
    circular = ((np.maximum(abs(res_orth), abs(res_len)) < CIRCULAR_TOL)
                & fd_g.regular)
    if not circular.any():
        return {"+": circular, "-": circular}
    point = abs(fd_g.K_N) < CIRCULAR_TOL * np.maximum(1.0, abs(fd_g.K))
    positive = fd_g.K_N > 0.0
    return {"-": circular & (point | positive),
            "+": circular & (point | np.logical_not(positive))}


def _flags(ctx: _FieldContext, sign, phi: Jet2) -> np.ndarray:
    # rank floor relative to the pair's own length scale, not phi's: a
    # collapsed phi is pure roundoff and must not self-normalize into
    # looking like a (tiny) immersion.  E, F, G round as in fundamental_data
    # and scale >= its scale, so each row it calls irregular is flagged here
    pu, pv = phi.du, phi.dv
    E, F, G = R4.dot(pu, pu), R4.dot(pu, pv), R4.dot(pv, pv)
    det1 = E * G - F * F
    scale = _largest(np.sqrt(E), np.sqrt(G), _vec_norm(ctx.sample.g_u.v),
                     _vec_norm(ctx.sample.g_v.v), 1e-150)
    rank_def = det1 <= REGULARITY_FLOOR * _pypow(scale, 4)
    return (FLAG_A_SMALL * (ctx.a < A_SMALL)
            | FLAG_G_HOLOMORPHIC * ctx.g_collapse[sign]
            | FLAG_RANK_DEFICIENT * rank_def)


def build_phi_pair(pair: MinimalPair, z):
    """Both surfaces attached to the pair, with full jets, in the order of
    SIGNS, over the points z; one point is a batch of one.

    The rows where the construction fails are recorded in the innermost
    jets.row_failures() sink (without one, the first raises), like the jets
    it is built from."""
    return _phi_pair(_assemble(pair.samples_at(z)))


def _phi_pair(ctx: _FieldContext):
    """Both surfaces of one field context, with their flags."""
    base = ctx.sample.g + ctx.turn_t
    out = []
    for sign in SIGNS:
        phi = base + ctx.turn_n * check_sign(sign)
        out.append(PhiSample(sign=sign, phi=phi, ctx=ctx,
                             flags=_flags(ctx, sign, phi)))
    return tuple(out)


def phi_value(g_sample: Jet2, h_sample: Jet2, sign) -> np.ndarray:
    """Value of phi, (4, n), from plain 2-jet samples of g and h.

    For pairs given by closed-form samplers rather than holomorphic curves;
    no derivative fields are required because only the value is produced.
    The chart need not be conformal: the tangent rotation is the quarter
    turn of the induced metric, which reduces to the split-curve formula on
    isothermal charts.  Whether the chart is oriented with or against the
    conjugacy convention is read off the first derivatives of h, per row.
    The rows where g is singular fail (jets.fail_rows)."""
    s = check_sign(sign)
    fd = fundamental_data(g_sample)
    fail_rows(~fd.regular, _rank_deficient(fd))
    gu, gv = fd.Xu, fd.Xv
    w = np.sqrt(fd.det1)
    # W gu / |W| and W gv / |W|: the quarter turns of the coordinate fields
    ju = (fd.F * gu - fd.E * gv) / w
    jv = (fd.G * gu - fd.F * gv) / w
    hu, hv = h_sample.du, h_sample.dv
    standard = _vec_norm(hu - ju) + _vec_norm(hv - jv)
    mirrored = _vec_norm(hu + ju) + _vec_norm(hv + jv)
    orient = np.where(standard <= mirrored, 1.0, -1.0)
    # as vector jets with vanishing derivatives, so that each value takes
    # the operations it takes in _assemble
    tw, nw = (t.v for t in _jhat_parts(*(
        Jet2(x, *[np.zeros((4, 1))] * 5) for x in (gu, gv, h_sample.v))))
    return g_sample.v + (orient * tw + s * nw) / w


@dataclass(frozen=True)
class DualPairReport:
    z: np.ndarray
    r: np.ndarray
    a: np.ndarray
    mu: dict
    center_residual: dict
    conformal_residual: dict
    tangency_residual: dict
    metric_relation_residual: np.ndarray | None


def dual_pair_report(pair: MinimalPair, z, signs=SIGNS) -> DualPairReport:
    """Shared-geometry checks for the surfaces of the given signs built at
    the points z, one entry per point in every residual (failed rows are
    recorded as by build_phi_pair).

    Residuals reported: each surface plus its normalized mean-curvature
    vector lands back on g (common central sphere); the pull-back metric of
    g equals (r mu / a)^2 times each surface's metric; the two surfaces'
    metrics agree after scaling by their mu^2 (None unless both signs are
    asked for); the vector g_* Z + a xi is orthogonal to each surface's
    tangent plane and to its mean curvature.  The conformal-factor entries
    are nan where a is below a small floor (the factor has a^2 in the
    denominator and degenerates with it); the floor is far below the
    a_small flag threshold, so flagged-but-sane samples still get a finite
    entry.  A rank-deficient surface fails its row with PreconditionError."""
    for sign in signs:
        check_sign(sign)
    s = pair.samples_at(z)
    ctx = _assemble(s)
    built = [ps for ps in _phi_pair(ctx) if ps.sign in signs]
    for ps in built:
        rank_def = (ps.flags & FLAG_RANK_DEFICIENT) != 0
        fail_rows(rank_def, lambda k, sign=ps.sign: (
            PreconditionError(f"constructed surface {sign} is rank-deficient "
                              f"at z={complex(s.z[k])}")))
    a, r = ctx.a, ctx.r.v
    g_val, gu, gv = s.g.v, s.g_u.v, s.g_v.v
    # the coefficients (p, q) of grad r are (ru, rv) / E, and those of
    # Z = -J grad r are (-q, p)
    grad_u, grad_v = ((d / ctx.E).v for d in (ctx.ru, ctx.rv))
    # xi = -h^N / (a r), or g's first normal where a is at its floor
    [hN] = _normal_parts([s.h.v], gu, gv, _blas_dot)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = -hN / (a * r)
    fallback = a <= A_FLOOR
    if np.any(fallback):
        xi = np.where(fallback, ctx.fd_g.n1, xi)
    zeta_c = -grad_v * gu + grad_u * gv + a * xi
    conformal_ok = a >= CONFORMAL_A_FLOOR

    mu, center, conformal, tangency, forms = {}, {}, {}, {}, {}
    for ps in built:
        fd = fundamental_data(ps.phi)
        fr = adapted_frame(fd)
        mu[ps.sign] = fr.mu
        H = fd.H
        lam2 = _blas_dot(H, H)
        center[ps.sign] = _vec_norm(ps.phi.v + H / lam2 - g_val)
        forms[ps.sign] = (fd.E, fd.F, fd.G)
        rho = _pypow(r * fr.mu / np.where(conformal_ok, a, 1.0), 2)
        conformal[ps.sign] = np.where(conformal_ok, _largest(
            abs(ctx.E.v - rho * fd.E), abs(ctx.F.v - rho * fd.F),
            abs(ctx.G.v - rho * fd.G)), np.nan)[()]
        tangency[ps.sign] = _largest(
            *(abs(_blas_dot(zeta_c, w)) / _vec_norm(w)
              for w in (ps.phi.du, ps.phi.dv, H)))
    metric = None
    if len(built) == 2:
        m_plus, m_minus = _pypow(mu["+"], 2), _pypow(mu["-"], 2)
        metric = _largest(*(abs(m_plus * p - m_minus * m) for p, m in
                            zip(forms["+"], forms["-"])))
    return DualPairReport(
        z=s.z, r=r, a=a, mu=mu, center_residual=center,
        conformal_residual=conformal, tangency_residual=tangency,
        metric_relation_residual=metric)


def translation_check(pair: MinimalPair, offset, points):
    """max over points of | ||phi^{h+v} - phi^h|| - ||v|| | for both signs.

    Translating h rigidly translates each built surface by a rotated copy
    of the offset, so the displacement norm is exactly the offset norm."""
    offset = np.asarray(offset, dtype=float)
    z = np.asarray(points, dtype=complex)
    moved = build_phi_pair(pair.translated(offset), z)
    shift = np.concatenate([_vec_norm(m.phi.v - b.phi.v)
                            for b, m in zip(build_phi_pair(pair, z), moved)])
    return float(np.abs(shift - np.linalg.norm(offset)).max(initial=0.0))


def reflection_pair_check(pair: MinimalPair, points):
    """For a pair lying in the x4 = 0 hyperplane, the two built surfaces
    differ exactly by the reflection x4 -> -x4; returns the worst residual
    ||reflect(phi_plus) - phi_minus|| over the points.

    Raises PreconditionError if the pair leaves the hyperplane: if |x4| of
    g or h exceeds 1e-9 times the sample scale at a point."""
    mirror = np.array([1.0, 1.0, 1.0, -1.0])[:, None]
    z = np.asarray(points, dtype=complex)
    plus, minus = build_phi_pair(pair, z)
    g, h = plus.ctx.sample.g.v, plus.ctx.sample.h.v
    scale = _largest(_vec_norm(g), _vec_norm(h), 1.0)
    off = np.flatnonzero(np.maximum(abs(g[3]), abs(h[3])) > 1e-9 * scale)
    if off.size:
        raise PreconditionError(
            f"pair leaves the x4 = 0 hyperplane at z={complex(z[off[0]])}; "
            "reflection symmetry only applies to pairs in R3")
    return float(np.abs(mirror * plus.phi.v - minus.phi.v).max(initial=0.0))


@dataclass(frozen=True)
class ExtractedPair:
    g: np.ndarray
    h: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    zeta_orientation: np.ndarray


def extract_minimal_pair(sample: Jet2) -> ExtractedPair:
    """Recover (g, h) values, (4, n), from a superconformal surface sample,
    a vector Jet2 over a batch of points.

    g is the center of the curvature circle's sphere: phi + H/||H||^2; h is
    -zeta/||H|| with zeta the oriented second adapted normal.  The
    orientation sign that was used is part of the result, since a reference
    pair may differ from the recovered h by one global sign.  Failed rows
    are recorded as by adapted_frame."""
    fd = fundamental_data(sample)
    fr = adapted_frame(fd)
    lam, mu = fr.lam, fr.mu
    fail_rows((lam <= R_FLOOR) | (mu <= R_FLOOR),
              lambda k: FrameUndefinedError(
                  f"extraction needs ||H|| and mu above floor, got "
                  f"{lam[k]:.3e}, {mu[k]:.3e}"))
    g = fd.position + fd.H / (lam * lam)
    h = -fr.zeta_oriented / lam
    return ExtractedPair(g=g, h=h, lam=lam, mu=mu,
                         zeta_orientation=fr.ambient_det)
