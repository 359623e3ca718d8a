"""Conformal transformations: inversions, duality, space-form bridges.

The operations here move surfaces and conjugate pairs through conformal
transformations of the ambient space:

  * inversions of flat R4 and of Lorentzian R5, with the induced transport
    of unit normals and shape operators,
  * the quadratic inversion Z -> r^2 Z / <<Z, Z>> acting on holomorphic
    curves, which realizes the pointwise inversion on the level of
    conjugate pairs,
  * the normal-component dual f -> f^N / (2 ||f^N||^2) of graph surfaces,
  * a minimality-and-roundness test for space-form immersions, which
    reach flat R4 through the stereographic charts of geometry.Ambient,
  * classification of the complex square <<G, G>> of a pair, which decides
    which of the transformation pictures applies.

Conventions.  The ambient complex structure on R4 pairs coordinates as
(x1 + i x2, x3 + i x4).  The Lorentzian inner product on R5 is
x1 y1 + ... + x4 y4 - x5 y5, and the Lorentzian inversion carries a minus
sign on the radius-squared factor.  The conjugate member of a transformed
pair is only determined up to one global sign; checks that compare against
closed forms score both conventions and report the winner.  Vectors,
curve values (HolomorphicCurve.eval) among them, are (dim, n) batches, the
jets' layout.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .construct import SIGNS, build_phi_pair, extract_minimal_pair, phi_value
from .errors import (DualitySingularError, EvaluationError,
                     FrameUndefinedError, InversionSingularError,
                     NotNullCurveError, PreconditionError, ProjectionError,
                     SingularSampleError)
from .expr import Bin, Curve, CurveExpr, Pow, const_node
from .geometry import (CIRCULAR_TOL, INV_FLOOR, R4, Ambient, _blas_dot,
                       _coord_shape, _largest, _normal_parts, _vec_norm,
                       ellipse_descriptor, fundamental_data)
from .jets import (Jet2, _im_part, _re_part, fail_rows, graph_surface,
                   row_failures)
from .minimal import HolomorphicCurve

SIGNATURES = ("euclidean", "lorentzian")

# multiplication by i on R4 = C2 with coordinates paired (x1+ix2, x3+ix4)
J_AMB = np.array([[0.0, -1.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0],
                  [0.0, 0.0, 1.0, 0.0]])

_HYPERBOLIC = Ambient("hyperbolic")


@dataclass(frozen=True)
class Inversion:
    """Inversion of flat space in the sphere of given center and radius.

    The euclidean signature inverts R4 or R5 in a round sphere.  The
    lorentzian signature inverts R5 carrying the (+,+,+,+,-) product; there
    the denominator <x - c, x - c> vanishes on a whole cone through the
    center, and the transformed point picks up a minus sign.
    """

    center: np.ndarray
    radius: float = 1.0
    signature: str = "euclidean"

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.ndim != 1 or len(self.center) not in (4, 5):
            raise PreconditionError("inversion center must be a 4- or 5-vector")
        # Python floats, whose products overflow to inf without a warning
        if not np.isfinite(sum(c * c for c in self.center.tolist())):
            raise PreconditionError(
                "inversion center must have a finite squared norm")
        if not self.radius > 0:
            raise PreconditionError("inversion radius must be positive")
        if not 0.0 < float(self.radius) * float(self.radius) < np.inf:
            raise PreconditionError(
                "inversion radius must have a finite positive square")
        if self.signature not in SIGNATURES:
            raise PreconditionError(
                f"unknown signature {self.signature!r}; expected one of "
                f"{SIGNATURES}")
        if self.signature == "lorentzian" and len(self.center) != 5:
            raise PreconditionError("lorentzian inversions live in R5")

    @property
    def dim(self):
        return len(self.center)

    def sig(self):
        s = np.ones(self.dim)
        if self.signature == "lorentzian":
            s[-1] = -1.0
        return s

    @property
    def orientation(self):
        """Sign on the radius-squared factor: -1 in the Lorentzian case."""
        return 1.0 if self.signature == "euclidean" else -1.0


def _check_denominator(q, d):
    """Fail the points where q = <d, d>, d a (dim, n) batch, is at its
    floor relative to the euclidean square of d."""
    scale = R4.dot(d, d)
    fail_rows(abs(q) <= INV_FLOOR * np.maximum(scale, 1e-300),
              lambda k: InversionSingularError(
                  f"point lies on the singular set of the inversion "
                  f"(<x - c, x - c> = {q[k]:.3e})"))


def _dot(inv):
    """The inner product of the inversion's signature along the leading
    component axis: R4's, whose all-ones signature fits any dimension, or
    the hyperbolic space's."""
    return R4.dot if inv.signature == "euclidean" else _HYPERBOLIC.dot


def invert(x, inv):
    """Image of a surface sample x (a vector Jet2) under the inversion.

    Samples are transported with their full second-order jets, so the
    image can be fed straight back into curvature computations.  The rows
    on the singular set are recorded in the innermost jets.row_failures()
    sink (without one, the first raises)."""
    if len(x.v) != inv.dim:
        raise PreconditionError("sample and inversion dimensions disagree")
    center = Jet2.stack(inv.center)
    d = x - center
    q = d.dot(d, signature=inv.sig())
    _check_denominator(q.v, d.v)
    return center + d * ((inv.orientation * inv.radius ** 2) / q)


def normal_transform_check(sample, xi, inv):
    """How a unit normal and its shape operator move through an inversion,
    at every point of a sample, with xi (dim, n) the normals there.

    The reflected normal xi - 2 <xi, x - c> (x - c) / <x - c, x - c> must be
    a unit normal of the inverted sample ("unit", "normal" residuals), and
    the shape operator of the image must equal
    (<x-c, x-c> A_xi + 2 <x-c, xi> Id) / (s radius^2) with s the signature
    orientation ("shape" residual, max entry).  Returns the dict of the
    residuals per row, with their "max".  A row with a tangential or
    non-unit xi fails with PreconditionError (jets.fail_rows)."""
    x = sample.v
    xi = np.asarray(xi, dtype=float)
    if len(sample.v) != inv.dim or xi.shape != x.shape:
        raise PreconditionError(
            "sample, normal, and inversion dimensions disagree")
    dot = _dot(inv)

    Xu, Xv = sample.du, sample.dv
    xx = dot(xi, xi)
    fail_rows(abs(xx - 1.0) > 1e-8, lambda k: PreconditionError(
        f"xi must be a unit spacelike vector; <xi, xi> = {xx[k]:.6f}"))
    tang = np.maximum(abs(dot(xi, Xu)) / _vec_norm(Xu),
                      abs(dot(xi, Xv)) / _vec_norm(Xv))
    fail_rows(tang > 1e-6, lambda k: PreconditionError(
        f"xi is not normal to the sample (tangential part {tang[k]:.3e})"))

    d = x - inv.center[:, None]
    q = dot(d, d)
    _check_denominator(q, d)
    pxi = xi - (2.0 * dot(xi, d) / q) * d
    image = invert(sample, inv)
    iu, iv = image.du, image.dv
    res_unit = abs(dot(pxi, pxi) - 1.0)
    res_normal = np.maximum(abs(dot(pxi, iu)) / _vec_norm(iu),
                            abs(dot(pxi, iv)) / _vec_norm(iv))
    A = _coord_shape(Xu, Xv, sample.slots[3:], xi, dot)
    A_img = _coord_shape(iu, iv, image.slots[3:], pxi, dot)
    rhs = (q[:, None, None] * A
           + (2.0 * dot(d, xi))[:, None, None] * np.eye(2)) / (
        inv.orientation * inv.radius ** 2)
    res_shape = np.abs(A_img - rhs).max(axis=(-2, -1))
    return {"unit": res_unit, "normal": res_normal, "shape": res_shape,
            "max": _largest(res_unit, res_normal, res_shape)}


def transformed_curve(curve, radius, center):
    """Holomorphic curve of an inverted pair: r^2 (G - c) / <<G - c, G - c>>.

    The composition is assembled on the expression tree, so the result is an
    ordinary named curve that can be split, certified, and constructed from.
    The center may be complex: its real part shifts the minimal surface and
    its imaginary part the conjugate one.  Points where the shifted curve
    meets the null quadric become poles of the result."""
    comps = curve.expr.ast.components
    center = np.asarray(center, dtype=complex)
    if center.shape != (len(comps),):
        raise PreconditionError("center arity does not match the curve")
    shifted = [c if ck == 0 else Bin("-", c, const_node(ck))
               for c, ck in zip(comps, center)]
    quad = reduce(lambda a, b: Bin("+", a, b), [Pow(s, 2) for s in shifted])
    r2 = float(radius) ** 2

    def component(s):
        num = s if r2 == 1.0 else Bin("*", const_node(r2), s)
        return Bin("/", num, quad)

    new = CurveExpr(Curve(tuple(component(s) for s in shifted),
                          declared_arity=curve.expr.ast.declared_arity))
    return HolomorphicCurve(f"{curve.name}-inverted", new, curve.domain)


# -- duality of graph surfaces ------------------------------------------------


def _graph_fields(curve, z):
    """Position and coordinate-derivative fields of the R4 graph of a
    two-component holomorphic map; third-order coefficients of the curve
    feed the second-order jets of the derivative fields."""
    if curve.expr.ast.declared_arity != 2:
        raise PreconditionError(
            f"graph surfaces take two-component curves; {curve.name} "
            f"declares {curve.expr.ast.declared_arity}")
    jets = curve.eval_jets(z)[:2]
    fu, fv = [], []
    for j in jets:
        re, im = _re_part(j.c1, j.c2, j.c3), _im_part(j.c1, j.c2, j.c3)
        fu += [re, im]
        fv += [-im, re]
    return graph_surface(jets), Jet2.stack(fu), Jet2.stack(fv)


@dataclass(frozen=True)
class DualityReport:
    z: np.ndarray
    value: np.ndarray
    antiholo: np.ndarray
    involution: np.ndarray
    conformality: np.ndarray


def duality(curve, z):
    """Normal-component dual f^N / (2 ||f^N||^2) of a graph surface.

    The curve must have two components; its R4 graph is dualized at the
    points z (one point is a batch of one) and the defining properties are
    measured per point: the dual is anti-holomorphic for the paired ambient
    complex structure, applying it twice returns the original point, and
    its induced metric is conformal.  Undefined where the position vector
    is tangential: those rows fail with DualitySingularError
    (jets.fail_rows)."""
    z = np.atleast_1d(np.asarray(z, complex))
    pos, fu, fv = _graph_fields(curve, z)
    [fN] = _normal_parts([pos], fu, fv, Jet2.dot)
    n2 = fN.dot(fN)
    scale = pos.dot(pos).v + fu.dot(fu).v
    fail_rows(n2.v <= 1e-24 * np.maximum(scale, 1e-300),
              lambda k: DualitySingularError(
                  f"position vector of {curve.name} is tangential at "
                  f"z = {complex(z[k])}; the dual is undefined"))
    fstar = fN * (0.5 / n2)
    Fu, Fv = fstar.du, fstar.dv
    E, F, G = _blas_dot(Fu, Fu), _blas_dot(Fu, Fv), _blas_dot(Fv, Fv)
    sc = _largest(np.sqrt(E), np.sqrt(G), 1e-300)
    # J_AMB's entries are 0 and +-1, so these products are exact
    r1 = Fv + J_AMB @ Fu
    r2 = -Fu + J_AMB @ Fv
    antiholo = np.maximum(np.abs(r1).max(axis=0), np.abs(r2).max(axis=0)) / sc
    conformality = (np.maximum(abs(E - G), 2.0 * abs(F))
                    / _largest(E, G, 1e-300))
    value = fstar.v
    [FN] = _normal_parts([value], Fu, Fv, _blas_dot)
    nn = _blas_dot(FN, FN)
    fail_rows(nn <= 1e-24 * np.maximum(_blas_dot(value, value), 1e-300),
              lambda k: DualitySingularError(
                  f"dual of {curve.name} is itself tangential at "
                  f"z = {complex(z[k])}"))
    second = FN / (2.0 * nn)
    involution = _vec_norm(second - pos.v)
    return DualityReport(z=z, value=value, antiholo=antiholo,
                         involution=involution, conformality=conformality)


# -- pair transformation ------------------------------------------------------


def _complex_square(g, h):
    """<<G, G>> = |g|^2 - |h|^2 + 2i <g, h> of G = g + i h at every point,
    and its scale |g|^2 + |h|^2 there."""
    gg, hh = _blas_dot(g, g), _blas_dot(h, h)
    return (gg - hh) + 2j * _blas_dot(g, h), gg + hh


@dataclass(frozen=True)
class PairTransformReport:
    sup_g: float
    sup_h: float
    h_convention: str
    n_points: int
    skipped: dict   # "flagged" or exception class name -> samples skipped

    @property
    def sup(self):
        return max(self.sup_g, self.sup_h)

    @property
    def n_skipped(self):
        return sum(self.skipped.values())


def pair_transform_check(pair, inv, points):
    """Dual-route check that inversion acts on pairs through their curve.

    Route one builds the constructed surfaces of the pair, inverts each
    sample with full jets, and extracts the dual pair of the image.  Route
    two splits the quadratic inversion of the curve itself.  Both routes
    must produce the same pair.  The extracted conjugate member flips with
    the orientation of the image's adapted frame, so it is normalized by
    the recorded orientation first; the one remaining global sign is scored
    both ways and the better convention reported.  Pairs whose shifted
    curve lies on the null quadric at the built samples are rejected (the
    collapse picture applies to them instead).  Skipped samples are counted
    by reason: "flagged", or the class of the error the sample raises
    alone where the pair cannot be built there (as construct flags it), the
    transformed curve cannot be evaluated, or an image lies on the
    inversion's singular set, is singular or has no adapted frame; any
    other error of the images propagates."""
    if inv.signature != "euclidean" or inv.dim != 4:
        raise PreconditionError("pair transformation works in euclidean R4")
    z = np.array(list(points), dtype=complex)
    if not z.size:
        raise PreconditionError("no sample points given")

    # only phi and its flags are kept, so the field context is freed before
    # the images are built
    with np.errstate(all="ignore"), row_failures(z.size) as failed:
        built = [(ps.phi, ps.flags) for ps in build_phi_pair(pair, z)]
    skipped = Counter(failed.counts())
    ok = ~failed.rows()
    if not ok.any():
        raise PreconditionError("every sample point was degenerate")

    center_eff = inv.center.astype(complex) - 1j * pair.h_offset
    w = pair.curve.eval(z[ok]) - center_eff[:, None]
    q, scale = _complex_square(w.real, w.imag)
    if abs(q).max() <= 1e-8 * scale.max():
        raise PreconditionError(
            f"curve of {pair.name} shifted by the center lies on the null "
            "quadric; the quadratic inversion degenerates there")
    tcurve = transformed_curve(pair.curve, inv.radius, center_eff)
    route_two = np.zeros((4, z.size), complex)
    with np.errstate(all="ignore"), row_failures(ok.sum()) as unevaluated:
        route_two[:, ok] = tcurve.eval(z[ok])
    skipped.update(unevaluated.counts())
    ok[ok] = ~unevaluated.rows()
    g_curve, h_curve = inv.center[:, None] + route_two.real, route_two.imag
    sup_g, d_plus, d_minus, used = 0.0, 0.0, 0.0, 0
    for phi, flags in built:
        flagged = ok & (flags != 0)
        skipped["flagged"] += int(np.count_nonzero(flagged))
        rows = np.flatnonzero(ok & ~flagged)
        if not rows.size:
            continue
        with np.errstate(all="ignore"), row_failures(rows.size) as bad:
            ext = extract_minimal_pair(invert(phi.rows(rows), inv))
        bad.raise_unless((InversionSingularError, FrameUndefinedError,
                          SingularSampleError))
        skipped.update(bad.counts())
        good = ~bad.rows()
        rows = rows[good]
        used += rows.size
        h_ext = ext.zeta_orientation[good] * ext.h[:, good]
        sup_g = _vec_norm(ext.g[:, good] - g_curve[:, rows]).max(
            initial=sup_g)
        d_plus = _vec_norm(h_ext - h_curve[:, rows]).max(initial=d_plus)
        d_minus = _vec_norm(h_ext + h_curve[:, rows]).max(initial=d_minus)
    if used == 0:
        raise PreconditionError("every sample point was degenerate")
    if d_minus <= d_plus:
        convention, sup_h = "-", d_minus
    else:
        convention, sup_h = "+", d_plus
    return PairTransformReport(sup_g=float(sup_g), sup_h=float(sup_h),
                               h_convention=convention,
                               n_points=used, skipped=dict(+skipped))


# -- complex structure of null-quadric pairs ----------------------------------


@dataclass(frozen=True)
class ComplexStructureReport:
    matrix: np.ndarray
    rank: int
    square_residual: float
    orthogonality_residual: float
    fit_residual: float
    constancy_residual: float


def recover_complex_structure(pair, points):
    """Constant complex structure J with J g = h and J g_* = g_* i.

    Only pairs whose curve lies on the null quadric admit one; others raise
    NotNullCurveError.  J is found by least squares over the sampled data
    span; when that span is only two-dimensional the structure on the
    orthogonal complement is completed canonically (the two trailing right
    singular vectors, sign-normalized, are rotated into each other), so the
    returned matrix is always a genuine orthogonal complex structure.

    fit_residual is the root-mean-square equation misfit; the constancy
    residual is the worst single-point misfit, certifying that one constant
    matrix serves the whole grid."""
    z = np.array(list(points), dtype=complex)
    if not z.size:
        raise PreconditionError("no sample points given")
    s = pair.samples_at(z)
    g, h, gu, gv = s.g.v, s.h.v, s.g_u.v, s.g_v.v
    q, scale = _complex_square(g, h)
    qmax = abs(q).max(initial=0.0)
    if qmax > 1e-8 * scale.max(initial=1.0):
        raise NotNullCurveError(
            f"curve of {pair.name} leaves the null quadric "
            f"(max |<<G, G>>| = {qmax:.3e}); no constant complex structure "
            "pairs g with h")

    # three equations J x = y per point, in point order: the design's rows
    X = np.stack((g, gu, gv), axis=1).T.reshape(-1, 4)
    Y = np.stack((h, -gv, gu), axis=1).T.reshape(-1, 4)
    A = np.zeros((len(X), 4, 16))
    for i in range(4):
        A[:, i, 4 * i:4 * i + 4] = X
    m, *_ = np.linalg.lstsq(A.reshape(-1, 16), Y.reshape(-1), rcond=None)
    J = m.reshape(4, 4)

    data = np.concatenate((X, Y))
    sv = np.linalg.svd(data, compute_uv=False)
    rank = int(np.sum(sv > 1e-9 * max(sv[0], 1e-300)))
    if rank == 2:
        _, _, vt = np.linalg.svd(data)
        w1, w2 = vt[2], vt[3]
        # sign-normalize so the completion does not depend on SVD phase
        if w1[np.argmax(np.abs(w1))] < 0:
            w1 = -w1
        if w2[np.argmax(np.abs(w2))] < 0:
            w2 = -w2
        J = J + np.outer(w2, w1) - np.outer(w1, w2)

    xscale = max(np.sqrt(_blas_dot(X.T, X.T).max()), 1e-300)
    misfits = _vec_norm((np.matmul(J, X[..., None])[..., 0] - Y).T) / xscale
    return ComplexStructureReport(
        matrix=J,
        rank=rank,
        square_residual=float(np.max(np.abs(J @ J + np.eye(4)))),
        orthogonality_residual=float(np.max(np.abs(J.T @ J - np.eye(4)))),
        fit_residual=float(np.sqrt(np.mean(np.square(misfits)))),
        constancy_residual=float(misfits.max()))


@dataclass(frozen=True)
class CollapseReport:
    collapsed_sign: str
    center: np.ndarray
    variation: float
    companion_residual: float


def degenerate_collapse_check(pair, points):
    """For a null-quadric pair: one constructed surface sits at a point and
    the other doubles the normal component of the minimal surface.

    Requires the constant complex structure to exist (same precondition as
    recover_complex_structure).  Reports which sign collapsed, the constant
    value with its variation across the grid, and the worst distance of the
    companion surface from 2 g^N."""
    z = np.array(list(points), dtype=complex)
    recover_complex_structure(pair, z)
    built = build_phi_pair(pair, z)
    fd = built[0].ctx.fd_g
    fail_rows(~fd.regular, lambda k: SingularSampleError(
        "g is singular at a sample point"))
    g = built[0].ctx.sample.g
    [gN] = _normal_parts([g.v], g.du, g.dv, _blas_dot)
    vals = {ps.sign: ps.phi.v for ps in built}
    companion = {s: _vec_norm(v - 2.0 * gN).max(initial=0.0)
                 for s, v in vals.items()}
    variation = {s: _vec_norm(v - v[:, :1]).max() for s, v in vals.items()}
    collapsed = "+" if variation["+"] <= variation["-"] else "-"
    other = "-" if collapsed == "+" else "+"
    # the points summed one after another, as np.mean sums rows
    center = np.add.accumulate(vals[collapsed], axis=1)[:, -1] / len(z)
    return CollapseReport(collapsed_sign=collapsed, center=center,
                          variation=float(variation[collapsed]),
                          companion_residual=float(companion[other]))


# -- space-form minimality ----------------------------------------------------


@dataclass(frozen=True)
class SpaceFormReport:
    max_mean_curvature: float
    max_circularity: float
    max_mu: float
    min_mu: float
    degenerate: bool
    verdict: str
    n_points: int


def superminimal_test(sample, ambient):
    """Minimality plus curvature-circle roundness for a space-form immersion.

    sample is the immersion's 5-component vector Jet2 over a batch of
    points, whose values must lie on the space form; an off-manifold point
    raises ProjectionError.  The immersion is minimal where |H| <= 1e-9 at
    every point, and round where the circularity residuals are at most
    CIRCULAR_TOL.  Totally umbilic immersions carry a point circle at every
    point; they pass vacuously and the verdict says so."""
    if not np.size(sample.v):
        raise PreconditionError("no sample points given")
    res = ambient.on_manifold_residual(sample.v)
    off = np.flatnonzero(res > 1e-9 * max(1.0, ambient.radius ** 2))
    if off.size:
        k = off[0]
        raise ProjectionError(
            f"sample point {k} is off the {ambient.kind} space form "
            f"(residual {res[k]:.3e})")
    fd = fundamental_data(sample, ambient)
    fail_rows(~fd.regular, lambda k: SingularSampleError(
        "rank-deficient sample"))
    ed = ellipse_descriptor(fd)
    worst_H = float(fd.lam.max())
    worst_circ = float(np.maximum(abs(ed.res_orth), abs(ed.res_len)).max())
    mus = ed.mu.tolist()
    degenerate = max(mus) <= 1e-9 * (1.0 + worst_H)
    minimal = worst_H <= 1e-9
    if minimal and degenerate:
        verdict = "superminimal-degenerate"
    elif minimal and worst_circ <= CIRCULAR_TOL:
        verdict = "superminimal"
    elif minimal:
        verdict = "minimal-not-superminimal"
    else:
        verdict = "not-minimal"
    return SpaceFormReport(max_mean_curvature=worst_H,
                           max_circularity=worst_circ,
                           max_mu=max(mus), min_mu=min(mus),
                           degenerate=degenerate, verdict=verdict,
                           n_points=len(mus))


# -- quadric classification ---------------------------------------------------


@dataclass(frozen=True)
class QuadricClassification:
    kind: str
    mean: complex
    max_deviation: float
    k: float | None = None
    radius: float | None = None
    sign: int | None = None
    cross_validation: dict | None = None


def quadric_classification(pair_like, points, immersion=None, ambient=None):
    """Classify the complex square <<G, G>> of a conjugate pair on a grid.

    Kinds: "non-constant"; "null" (identically zero, the collapse picture);
    "constant-real" (the pair belongs to a space form of radius
    sqrt(|k|) / 2, and the sign of k is kept in the report); and
    "constant-complex".  pair_like needs samples_at(z) with the samples g
    and h; closed-form sample pairs qualify alongside split curves.

    For the constant-real kind a space-form immersion over the same chart
    may be supplied.  It is then run through the minimality-and-roundness
    test, and the surfaces constructed from the pair are compared against
    the stereographic image of the immersion (best of the two signs).  Where
    <<G, G>> overflows, EvaluationError names the point."""
    z = np.array(list(points), dtype=complex)
    if not z.size:
        raise PreconditionError("no sample points given")
    sample = pair_like.samples_at(z)
    g, h = sample.g, sample.h
    vals, scale = _complex_square(g.v, h.v)
    # nan or overflow would fall through every comparison below; 4 times the
    # scales' sum bounds the sums and differences of the squares
    bad = ~(np.isfinite(vals) & np.isfinite(scale))
    if bad.any() or not np.isfinite(4.0 * scale.sum()):
        at = complex(z[np.argmax(bad if bad.any() else scale)])
        raise EvaluationError(f"<<G, G>> overflows at z={at}",
                              reason="overflow", z=at)
    scale = scale.max(initial=1.0)
    mean = complex(vals.mean())
    dev = float(np.max(np.abs(vals - mean)))
    if dev > 1e-8 * (1.0 + abs(mean)):
        return QuadricClassification("non-constant", mean, dev)
    if abs(mean) <= 1e-8 * scale:
        return QuadricClassification("null", mean, dev)
    if abs(mean.imag) > 1e-8 * (1.0 + abs(mean)):
        return QuadricClassification("constant-complex", mean, dev)

    k = float(mean.real)
    radius = float(np.sqrt(abs(k)) / 2.0)
    sign = 1 if k > 0 else -1
    cross = None
    if immersion is not None:
        amb = ambient if ambient is not None else Ambient("sphere",
                                                          radius=radius)
        smp = immersion(z.real, z.imag)
        form = superminimal_test(smp, amb)
        proj = amb.to_R4(smp.v)
        sup = {s: float(_vec_norm(phi_value(g, h, s) - proj).max())
               for s in SIGNS}
        best = "+" if sup["+"] <= sup["-"] else "-"
        cross = {"space_form": form,
                 "surface_residual": sup[best],
                 "surface_sign": best,
                 "radius_matches": abs(amb.radius - radius)
                 <= 1e-8 * (1.0 + radius)}
    return QuadricClassification("constant-real", mean, dev, k=k,
                                 radius=radius, sign=sign,
                                 cross_validation=cross)
