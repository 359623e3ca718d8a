"""Pointwise surface geometry from jet samples.

Input is a vector Jet2 sample (jets.Jet2.stack) of 4 components (ambient
R4) or 5 components with a space-form flag (round sphere in R5, hyperbolic
space in L5 with the (+,+,+,+,-) product).  The kernel computes on the
sample's own (dim, n) slots, component axis first and batch axis last, and
every vector field it returns has that layout.  An inner product sums the
component rows of a product in order from 0.0, 0.0 + p[0] + p[1] + ...,
which rounds as a sum along a trailing axis of fewer than 8 entries;
_blas_dot and _vec_norm, which round as BLAS does, take (dim, n) batches
too and make the (n, dim) rows of their BLAS call themselves.  Outputs:
fundamental forms, curvature invariants, the ellipse of curvature with
its circularity residuals and Wintgen defect (one record), and the adapted
tangent/normal frame in which both shape operators take their normal
form.  A space form also carries its stereographic chart onto (part of)
flat R4 (Ambient.to_R4, Ambient.from_R4).

Conventions fixed here and relied on everywhere else:
  - the orthonormal tangent basis is Gram-Schmidt of (X_u, X_v) in that order;
  - the normal frame projects ambient basis vectors, keeps the two largest
    projections (ties to the lower index), orthonormalizes in index order
    (taking the next largest projection where those two are parallel), then
    flips n2 if the ambient frame is negatively oriented;
  - K_N is computed in that oriented frame and is frame-dependent up to sign;
    cross-module checks use its absolute value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (
    FrameUndefinedError,
    PreconditionError,
    ProjectionError,
    SingularSampleError,
)
from .jets import Jet2, fail_rows

REGULARITY_FLOOR = 1e-12
FRAME_FLOOR = 1e-10
CIRCULAR_TOL = 1e-8
PATTERN_TOL = 1e-6
# relative floor below which an inversion denominator counts as zero
INV_FLOOR = 1e-13


# inner-product signature per ambient kind; shared, so made read-only
_SIGNATURES = {"r4": np.ones(4), "sphere": np.ones(5),
               "hyperbolic": np.array([1.0, 1.0, 1.0, 1.0, -1.0])}
for _sig in _SIGNATURES.values():
    _sig.flags.writeable = False
_E5 = np.eye(5)[4]


@dataclass(frozen=True)
class Ambient:
    """Where the surface lives: flat R4, a round sphere in R5, or the
    hyperbolic space inside Lorentzian R5.

    The space forms map stereographically onto flat R4.  The round sphere
    of radius r centered at r e5 maps by restricting the R5 inversion
    centered at 2 r e5 with radius 2 r; the origin is a fixed point.  The
    hyperbolic space (the sheet through the origin of the Lorentzian
    hyperboloid centered at -r e5) maps along straight lines through
    -2 r e5 onto the open ball of radius 2 r."""

    kind: str = "r4"
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in _SIGNATURES:
            raise ValueError(f"unknown ambient kind {self.kind!r}")
        if self.kind != "r4" and not self.radius > 0:
            raise ValueError("space-form radius must be positive")

    @property
    def dim(self):
        return 4 if self.kind == "r4" else 5

    @property
    def curvature(self):
        if self.kind == "sphere":
            return 1.0 / self.radius ** 2
        if self.kind == "hyperbolic":
            return -1.0 / self.radius ** 2
        return 0.0

    def center_vec(self):
        if self.kind == "sphere":
            return self.radius * _E5
        if self.kind == "hyperbolic":
            return -self.radius * _E5
        return np.zeros(4)

    def dot(self, a, b):
        """The inner product of two vectors, or of every column of two
        batches whose leading axis is the component axis: the products
        summed over that axis in component order from 0.0 (a @ b rounds
        otherwise); R4's all-ones signature is skipped."""
        if self.kind != "r4":    # the signature along the leading axis
            a = (_SIGNATURES[self.kind] * a.T).T
        return np.add.reduce(a * b, 0, initial=0.0)

    def on_manifold_residual(self, x):
        """Zero where the points of x, a (dim, n) batch, lie on the space
        form; position-norm residual."""
        if self.kind == "r4":
            return 0.0
        d = np.asarray(x) - self.center_vec()[:, None]
        q = self.dot(d, d)
        target = self.radius ** 2 if self.kind == "sphere" else -self.radius ** 2
        return abs(q - target)

    def _chart(self, x, dim, what):
        """x as a (dim, n) float array, one dim-vector as a batch of one,
        for the stereographic chart, which flat R4 does not have."""
        if self.kind == "r4":
            raise PreconditionError("flat R4 has no stereographic chart")
        x = np.asarray(x, dtype=float)
        x = x[:, None] if x.ndim == 1 else x
        if x.ndim != 2 or len(x) != dim:
            raise PreconditionError(f"{what} are {dim}-vectors")
        return x

    def to_R4(self, P):
        """R4 images, (4, n), of the space-form points P, (5, n) or one
        5-vector as a batch of one; points off the space form or without an
        image fail with ProjectionError (jets.fail_rows)."""
        P = self._chart(P, 5, "space-form points")
        d = P - self.center_vec()[:, None]
        res = self.on_manifold_residual(P)
        fail_rows(res > 1e-9 * np.maximum(1.0, _blas_dot(d, d)),
                  lambda k: ProjectionError(
                      f"point is off the {self.kind} space form "
                      f"(residual {res[k]:.3e})"))
        r = self.radius
        if self.kind == "sphere":
            c = 2.0 * r * _E5[:, None]
            d = P - c
            q = _blas_dot(d, d)
            fail_rows(q <= INV_FLOOR * max(1.0, r * r),
                      lambda k: ProjectionError(
                          "the point opposite the image plane has no image"))
            return (c + 4.0 * r * r / q * d)[:4]
        den = P[4] + 2.0 * r
        fail_rows(den <= INV_FLOOR * max(1.0, r), lambda k: ProjectionError(
            "point sits on the wrong sheet of the hyperboloid"))
        return 2.0 * r / den * P[:4]

    def from_R4(self, x):
        """Space-form points, (5, n), of the R4 points x, (4, n) or one
        4-vector as a batch of one; points outside the hyperbolic model fail
        with ProjectionError (jets.fail_rows)."""
        x = self._chart(x, 4, "flat points")
        r = self.radius
        if self.kind == "sphere":
            c = 2.0 * r * _E5[:, None]
            d = np.concatenate((x, np.zeros((1, x.shape[1])))) - c
            return c + 4.0 * r * r / _blas_dot(d, d) * d
        n2 = _blas_dot(x, x)
        fail_rows(n2 >= 4.0 * r * r, lambda k: ProjectionError(
            f"the hyperbolic model fills the open ball of radius "
            f"{2.0 * r:g}; |x| = {np.sqrt(n2[k]):.6g} falls outside"))
        s = 4.0 * r * r / (4.0 * r * r - n2)
        return np.concatenate((s * x, [2.0 * r * (s - 1.0)]))


R4 = Ambient("r4")


@dataclass(frozen=True)
class FundamentalData:
    ambient: Ambient
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    det1: np.ndarray
    scale: np.ndarray
    Xu: np.ndarray
    Xv: np.ndarray
    Y1: np.ndarray
    Y2: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    Buu: np.ndarray
    Buv: np.ndarray
    Bvv: np.ndarray
    alpha11: np.ndarray
    alpha12: np.ndarray
    alpha22: np.ndarray
    H: np.ndarray
    lam: np.ndarray
    K: np.ndarray
    K_N: np.ndarray
    position: np.ndarray = field(repr=False, default=None)
    regular: np.ndarray = None


@dataclass(frozen=True)
class EllipseDescriptor:
    center: np.ndarray
    semi_major: np.ndarray
    semi_minor: np.ndarray
    res_orth: np.ndarray
    res_len: np.ndarray
    mu: np.ndarray
    wintgen_defect: np.ndarray
    wintgen_defect_rel: np.ndarray


@dataclass(frozen=True)
class AdaptedFrame:
    Y1: np.ndarray
    Y2: np.ndarray
    eta: np.ndarray
    zeta: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    A_eta: np.ndarray
    A_zeta: np.ndarray
    sffa_residual: np.ndarray
    ambient_det: np.ndarray
    zeta_oriented: np.ndarray


def _normal_parts(ws, Xu, Xv, dot, gram=None):
    """Each w of ws minus its projection onto span{Xu, Xv} under the inner
    product dot; the Gram system is solved in closed form, so entries may be
    vector Jet2 (scaled vector first, as its components would be), or
    arrays with a dot whose result broadcasts against them.  gram, if
    given, is (E, F, G, EG - F^2) of Xu, Xv already computed."""
    if gram is None:
        E, F, G = dot(Xu, Xu), dot(Xu, Xv), dot(Xv, Xv)
        gram = E, F, G, E * G - F * F
    E, F, G, det1 = gram
    out = []
    for w in ws:
        rhs_u = dot(w, Xu)
        rhs_v = dot(w, Xv)
        a = (rhs_u * G - rhs_v * F) / det1
        b = (rhs_v * E - rhs_u * F) / det1
        out.append(w - (Xu * a + Xv * b))
    return out


def _pypow(x, n):
    """x ** n entry by entry over an array, as Python computes it for a
    float (C pow): numpy's power differs in the last bit on about 0.1% of
    squares.  Where the power overflows, inf, as C pow gives; Python
    raises there."""
    flat = x.ravel().tolist()
    try:
        out = [t ** n for t in flat]
    except OverflowError:
        out = [_pow_or_inf(t, n) for t in flat]
    return np.array(out).reshape(x.shape)


def _pow_or_inf(t, n):
    try:
        return t ** n
    except OverflowError:
        return math.copysign(math.inf, t) if n % 2 else math.inf


def _largest(*xs):
    """The elementwise maximum of arrays (numbers broadcast)."""
    return reduce(np.maximum, xs)


def _sqrt0(x):
    """sqrt(max(x, 0)) over an array of squared norms."""
    return np.sqrt(np.maximum(x, 0.0))


def _blas_dot(a, b):
    """The inner product of every column of two (dim, n) batches of
    vectors, either one a broadcast (dim, 1) constant: the BLAS dot numpy
    makes for one pair of vectors, on their C-contiguous (n, dim) rows, which
    rounds differently from a sum along the component axis."""
    rows_a = _rows(a)
    rows_b = rows_a if b is a else _rows(b)
    return np.matmul(rows_a[:, None, :], rows_b[:, :, None])[:, 0, 0]


def _vec_norm(x):
    """np.linalg.norm of every column of a (dim, n) batch, rounded as
    np.linalg.norm rounds one vector."""
    return np.sqrt(_blas_dot(x, x))


def _rows(x):
    """A (dim, n) batch of vectors as C-contiguous (n, dim) rows, the
    layout of _blas_dot's BLAS call."""
    return np.ascontiguousarray(x.T)


def _rank_deficient(fd):
    """The error of row k of fd where its first form is degenerate."""
    return lambda k: SingularSampleError(
        f"rank-deficient sample: EG - F^2 = {fd.det1[k]:.3e}",
        det=float(fd.det1[k]))


@np.errstate(divide="ignore", invalid="ignore")
def fundamental_data(sample, ambient=R4):
    """First/second fundamental data, curvatures, and the deterministic normal
    frame of a surface sample.

    Every vector field is (dim, n), the layout of the sample's slots, and
    every number field (n,); .regular marks the points whose first form is
    nondegenerate, and the other points hold meaningless values, computed
    without numpy's floating-point warnings (_rank_deficient gives the
    error such a point stands for)."""
    if not isinstance(sample, Jet2) or np.ndim(sample.v) != 2:
        raise TypeError("fundamental_data wants a vector Jet2 sample")
    if len(sample.v) != ambient.dim:
        raise PreconditionError(
            f"sample has {len(sample.v)} components, ambient wants "
            f"{ambient.dim}")
    # a slot that is constant in every component broadcasts over the batch
    x, Xu, Xv, Xuu, Xuv, Xvv = np.broadcast_arrays(*sample.slots)
    dot = ambient.dot
    E, F, G = dot(Xu, Xu), dot(Xu, Xv), dot(Xv, Xv)
    det1 = E * G - F * F
    scale = np.abs(np.concatenate((Xu, Xv))).max(axis=0)
    singular = det1 <= REGULARITY_FLOOR * _pypow(np.maximum(scale, 1e-150), 4)

    # the second partials and the ambient basis vectors, stacked on a
    # second axis, (dim, 3 + dim, n), are projected in one pass
    dim, n = x.shape
    ws = np.empty((dim, 3 + dim, n))
    ws[:, 0], ws[:, 1], ws[:, 2] = Xuu, Xuv, Xvv
    ws[:, 3:] = np.eye(dim)[..., None]
    [normal] = _normal_parts([ws], Xu[:, None], Xv[:, None], dot,
                             (E, F, G, det1))
    B, P = normal[:, :3], normal[:, 3:]
    radial = None
    if ambient.kind != "r4":
        radial = (x - ambient.center_vec()[:, None]) / ambient.radius
        R = radial[:, None]
        s = 1.0 if ambient.kind == "sphere" else -1.0
        B = B + s * np.array((E, F, G)) * R / ambient.radius
    Buu, Buv, Bvv = B[:, 0], B[:, 1], B[:, 2]

    Y1 = Xu / np.sqrt(E)
    w2 = Xv - (F / E) * Xu
    n2w = _sqrt0(dot(w2, w2))
    Y2 = w2 / n2w

    fe = F / E
    alpha11 = Buu / E
    alpha12 = (Buv - fe * Buu) / (np.sqrt(E) * n2w)
    alpha22 = (Bvv - 2 * fe * Buv + fe * fe * Buu) / (n2w * n2w)
    H = 0.5 * (alpha11 + alpha22)
    lam = _sqrt0(dot(H, H))
    K = ambient.curvature + dot(alpha11, alpha22) - dot(alpha12, alpha12)

    # deterministic normal frame from projected ambient basis vectors, the
    # columns of P
    if radial is not None:
        P = P - (dot(P, R) / dot(R, R)) * R
    norms = _sqrt0(dot(P, P))
    at = np.arange(n)
    # stable: ties go to the lower index
    order = np.argsort(-norms, axis=0, kind="stable")
    i1 = np.minimum(order[0], order[1])
    n1 = P[:, i1, at] / norms[i1, at]
    # where the two largest projections are parallel, the next largest one
    # supplies the second normal; if none is independent, the last one does
    pending = None
    for j in range(1, dim):
        k = np.maximum(order[0], order[1]) if j == 1 else order[j]
        pk = P[:, k, at]
        p2 = pk - (dot(pk, n1) / dot(n1, n1)) * n1
        len2 = _sqrt0(dot(p2, p2))
        found = len2 > FRAME_FLOOR * norms[k, at]
        if j + 1 < dim and not found.all():
            # only rows that keep this candidate divide by its length
            len2 = np.where(found, len2, 1.0)
        if pending is None:
            n2, pending = p2 / len2, ~found
        else:
            n2 = np.where(pending, p2 / len2, n2)
            pending = pending & ~found
        if not pending.any():
            break
    # the (n, dim, dim) matrices whose columns are the frame's vectors
    cols = [Y1, Y2, n1, n2] + ([radial] if radial is not None else [])
    flip = np.linalg.det(np.stack(cols).T) < 0
    n2 = np.where(flip, -n2, n2)

    # shape operators of n1 and n2, entries (alpha11, alpha12, alpha12,
    # alpha22) . n, as (n, 2, 2, 2) C-contiguous matrices for the products
    alphas = np.stack((alpha11, alpha12, alpha12, alpha22), axis=1)[:, None]
    c = dot(alphas, np.stack((n1, n2), axis=1)[:, :, None])
    A = np.ascontiguousarray(np.moveaxis(c, -1, 0)).reshape(-1, 2, 2, 2)
    A1, A2 = A[:, 0], A[:, 1]
    K_N = (A1 @ A2 - A2 @ A1)[:, 1, 0]

    return FundamentalData(
        ambient=ambient, E=E, F=F, G=G, det1=det1,
        scale=scale, Xu=Xu, Xv=Xv, Y1=Y1, Y2=Y2, n1=n1, n2=n2,
        Buu=Buu, Buv=Buv, Bvv=Bvv,
        alpha11=alpha11, alpha12=alpha12, alpha22=alpha22,
        H=H, lam=lam, K=K, K_N=K_N, position=x,
        regular=~singular)


def _sym2(a, b, c):
    """The symmetric 2x2 matrices [[a, b], [b, c]] over a batch (numbers
    broadcast)."""
    a, b, c = np.broadcast_arrays(a, b, c)
    return np.stack((np.stack((a, b), -1), np.stack((b, c), -1)), -2)


def shape_matrix(fd, nu):
    """Shape operator of the normal direction nu on the orthonormal tangent
    basis, as a symmetric 2x2 matrix per row."""
    dot = fd.ambient.dot
    return _sym2(dot(fd.alpha11, nu), dot(fd.alpha12, nu),
                 dot(fd.alpha22, nu))


def _coord_shape(Xu, Xv, seconds, nu, dot):
    """Shape operator of the normal nu on the coordinate basis, per point,
    from the first and the (uu, uv, vv) second partials, (dim, n) each,
    under the inner product dot, which reduces along the component axis."""
    E, F, G = dot(Xu, Xu), dot(Xu, Xv), dot(Xv, Xv)
    fail_rows(~(E * G - F * F > 1e-12 * np.maximum(abs(E * G), 1e-300)),
              lambda k: SingularSampleError(
                  "sample is not a spacelike immersion; induced metric "
                  "degenerates"))
    return np.linalg.solve(_sym2(E, F, G),
                           _sym2(*(dot(w, nu) for w in seconds)))


def _ellipse_axes(fd):
    """The vectors d = (alpha11 - alpha22)/2 and m = alpha12 that span the
    curvature ellipse, and its circularity residuals res_orth and res_len."""
    dot = fd.ambient.dot
    d = 0.5 * (fd.alpha11 - fd.alpha22)
    m = fd.alpha12
    # the norms of d, m, alpha11, alpha22 and alpha12 in one pass
    five = np.stack((d, m, fd.alpha11, fd.alpha22, fd.alpha12), axis=1)
    norms = _sqrt0(dot(five, five))
    len_d, len_m = 2.0 * norms[0], 2.0 * norms[1]
    amax = norms[2:].max(axis=0)
    M = np.maximum(len_d, len_m)
    # point ellipse: circular by convention
    point = M <= 1e-9 * (1.0 + amax)
    M = np.where(point, 1.0, M)
    res_orth = np.where(point, 0.0, dot(m, 2.0 * d) / (M * M))
    res_len = np.where(point, 0.0, (len_d - len_m) / M)
    return d, m, res_orth, res_len


def ellipse_descriptor(fd):
    """Semi-axes and circularity residuals of the curvature ellipse
    theta -> H + cos(2 theta) (alpha11 - alpha22)/2 + sin(2 theta) alpha12,
    and the Wintgen defect |H|^2 + c - K - |K_N| (nonnegative in general,
    zero exactly at circular points) with its ratio to |H|^2 (inf where
    H = 0).  The ellipse is a circle where both residuals are below
    CIRCULAR_TOL.

    Rows with non-finite data get nan semi-axes."""
    dot = fd.ambient.dot
    d, m, res_orth, res_len = _ellipse_axes(fd)
    gen = np.array([dot(d, fd.n1), dot(m, fd.n1),
                    dot(d, fd.n2), dot(m, fd.n2)]).T.reshape(-1, 2, 2)
    try:
        sv = np.linalg.svd(gen, compute_uv=False)
    except np.linalg.LinAlgError:     # rows of a batch with non-finite data
        finite = np.isfinite(gen).all(axis=(1, 2))
        sv = np.linalg.svd(np.where(finite[:, None, None], gen, 0.0),
                           compute_uv=False)
        sv[~finite] = np.nan
    semi_major, semi_minor = sv.T
    lam2 = _pypow(fd.lam, 2)
    defect = lam2 + fd.ambient.curvature - fd.K - abs(fd.K_N)
    positive = fd.lam > 0
    rel = np.where(positive, defect / np.where(positive, lam2, 1.0),
                   float("inf"))
    return EllipseDescriptor(
        center=fd.H, semi_major=semi_major, semi_minor=semi_minor,
        res_orth=res_orth, res_len=res_len,
        mu=0.5 * (semi_major + semi_minor),
        wintgen_defect=defect, wintgen_defect_rel=rel)


def adapted_frame(fd):
    """Rotate the tangent basis and pick the normal pair (eta, zeta) so the
    two shape operators take the coupled normal form
    [[lam, mu], [mu, lam]] and [[mu, 0], [0, -mu]] with lam = |H|, mu > 0.

    The pattern pins det[Y1, Y2, eta, zeta] up to the geometry; when that
    determinant is negative the positively oriented partner is exposed as
    zeta_oriented = ambient_det * zeta while the returned zeta keeps the
    pattern.

    The rows without a frame, the irregular ones included, are recorded as
    failed rows (jets.fail_rows), as are the rows that miss the pattern by
    more than PATTERN_TOL relative to max(lam, mu) (PreconditionError).
    """
    dot = fd.ambient.dot
    fail_rows(np.logical_not(fd.regular), _rank_deficient(fd))
    amax = _largest(*(_sqrt0(dot(a, a))
                      for a in (fd.alpha11, fd.alpha22, fd.alpha12)), 1e-300)
    floor = FRAME_FLOOR * _largest(amax, 1.0)
    lam = fd.lam
    fail_rows(lam <= floor, lambda k: FrameUndefinedError(
        f"adapted frame undefined at a minimal point (|H| = {lam[k]:.3e})"))
    eta = fd.H / lam
    c1, c2 = dot(eta, fd.n1), dot(eta, fd.n2)
    zeta0 = -c2 * fd.n1 + c1 * fd.n2

    A_eta = shape_matrix(fd, eta)
    x = 0.5 * (A_eta[..., 0, 0] - A_eta[..., 1, 1])
    y = A_eta[..., 0, 1]
    mu = np.hypot(x, y)
    fail_rows(mu <= floor, lambda k: FrameUndefinedError(
        f"adapted frame undefined at an umbilic point (mu = {mu[k]:.3e})"))

    # traceless parts rotate by -2t under a tangent rotation by t, so this
    # t turns A_eta's off-diagonal entry into y cos 2t - x sin 2t = mu,
    # which the floor above keeps positive through roundoff
    t = -0.5 * np.arctan2(x, y)
    ct, st = np.cos(t), np.sin(t)
    R = np.stack((np.stack((ct, -st), -1), np.stack((st, ct), -1)), -2)
    Rt = np.swapaxes(R, -1, -2)
    Ae = Rt @ A_eta @ R
    Y1 = ct * fd.Y1 + st * fd.Y2
    Y2 = -st * fd.Y1 + ct * fd.Y2

    A_z0 = Rt @ shape_matrix(fd, zeta0) @ R
    flip = np.logical_not(A_z0[..., 0, 0] >= 0)
    zeta = np.where(flip, -zeta0, zeta0)
    A_z = np.where(flip[..., None, None], -A_z0, A_z0)

    off, a_z = Ae[..., 0, 1], A_z[..., 0, 0]
    target_eta = _sym2(lam, off, lam)
    target_zeta = _sym2(a_z, 0.0, -a_z)
    sffa_residual = _largest(np.abs(Ae - target_eta).max(axis=(-2, -1)),
                             np.abs(A_z - target_zeta).max(axis=(-2, -1)),
                             np.abs(off - a_z))
    fail_rows(sffa_residual > PATTERN_TOL * _largest(lam, mu),
              lambda k: PreconditionError(
                  f"sample is not superconformal: shape operators miss the "
                  f"normal-form pattern by {sffa_residual[k]:.3e}"))

    mu_adapted = 0.5 * (off + a_z)
    cols = [Y1, Y2, eta, zeta]
    if fd.ambient.kind != "r4":
        cols.append((fd.position - fd.ambient.center_vec()[:, None])
                    / fd.ambient.radius)
    ambient_det = np.sign(np.linalg.det(np.stack(cols).T))
    return AdaptedFrame(
        Y1=Y1, Y2=Y2, eta=eta, zeta=zeta, lam=lam, mu=mu_adapted,
        A_eta=Ae, A_zeta=A_z, sffa_residual=sffa_residual,
        ambient_det=ambient_det, zeta_oriented=ambient_det * zeta)
