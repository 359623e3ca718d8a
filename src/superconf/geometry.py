"""Pointwise surface geometry from jet samples.

Input is a vector Jet2 sample (jets.Jet2.stack) of 4 components (ambient
R4) or 5 components with a space-form flag (round sphere in R5, hyperbolic
space in L5 with the (+,+,+,+,-) product).  The kernel computes on the
sample's own (dim, n) slots, component axis first and batch axis last, and
every vector field it returns has that layout.  An inner product sums the
component rows of a product in order from 0.0, 0.0 + p[0] + p[1] + ...,
which rounds as a sum along a trailing axis of fewer than 8 entries.
That is Ambient.dot, the package's one inner product, for float batches
and vector jets alike: no product goes through BLAS, so no bit depends on
which BLAS kernel the machine runs.  Outputs:
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

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (
    FrameUndefinedError,
    PreconditionError,
    ProjectionError,
    SingularSampleError,
)
from .jets import DIV_FLOOR, Jet2, fail_rows

# The scale rule: a quantity of length dimension d meets a floor in its
# point's units, times 2^(-k d) for unit_scale's 2^k, which is exact, so no
# verdict depends on the curve's units.  Each constant bounds a ratio:
REGULARITY_FLOOR = 1e-12   # EG - F^2 against scale^4
FRAME_FLOOR = 1e-10        # a frame vector against its projection; |H|, mu, a
CIRCULAR_TOL = 1e-8        # circularity residuals; K_N of a point ellipse
PATTERN_TOL = 1e-6         # the normal-form residual against max(|H|, mu)
A_SMALL = 0.05             # a, for the FLAG_A_SMALL bit
CONFORMAL_A_FLOOR = 1e-3   # a, below which the conformal factor fails its row
# and jets.DIV_FLOOR: an inversion's denominator against its square scale


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
        """The inner product of two vectors, of every column of two batches
        whose leading axis is the component axis, or of two vector Jet2s,
        slot by slot: the product, each component times its signature
        entry (R4's all-ones one is skipped), summed over that axis in
        component order from 0.0 (a @ b rounds otherwise)."""
        p = a * b
        if isinstance(p, Jet2):
            return Jet2(*map(self._component_sum, p.slots))
        return self._component_sum(p)

    def _component_sum(self, p):
        if self.kind != "r4":    # the signature along the leading axis
            p = (_SIGNATURES[self.kind] * p.T).T
        return np.add.reduce(p, 0, initial=0.0)

    def on_manifold_residual(self, x):
        """Zero where the points of x, a (dim, n) batch, lie on the space
        form; position-norm residual."""
        if self.kind == "r4":
            return 0.0
        d = np.asarray(x) - self.center_vec()[:, None]
        q = self.dot(d, d)
        target = self.radius ** 2 if self.kind == "sphere" else -self.radius ** 2
        return abs(q - target)

    def check_on(self, x):
        """Record the points of x, a (dim, n) batch, that are off the space
        form as failed rows of ProjectionError (jets.fail_rows): those whose
        residual exceeds 1e-9 of their squared euclidean distance from the
        center, which bounds what rounding leaves in a norm that far out."""
        res = self.on_manifold_residual(x)
        d = x - self.center_vec()[:, None]
        fail_rows(res > 1e-9 * R4.dot(d, d),
                  lambda k: ProjectionError(
                      f"point is off the {self.kind} space form "
                      f"(residual {res[k]:.3e})"))

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
        self.check_on(P)
        r = self.radius
        if self.kind == "sphere":
            c = 2.0 * r * _E5[:, None]
            d = P - c
            q = R4.dot(d, d)
            fail_rows(q <= DIV_FLOOR * r * r,
                      lambda k: ProjectionError(
                          "the point opposite the image plane has no image"))
            return (c + 4.0 * r * r / q * d)[:4]
        den = P[4] + 2.0 * r
        fail_rows(den <= DIV_FLOOR * r, lambda k: ProjectionError(
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
            return c + 4.0 * r * r / R4.dot(d, d) * d
        n2 = R4.dot(x, x)
        fail_rows(n2 >= 4.0 * r * r, lambda k: ProjectionError(
            f"the hyperbolic model fills the open ball of radius "
            f"{2.0 * r:g}; |x| = {np.sqrt(n2[k]):.6g} falls outside"))
        s = 4.0 * r * r / (4.0 * r * r - n2)
        return np.concatenate((s * x, [2.0 * r * (s - 1.0)]))


R4 = Ambient("r4")


class _FrameField:
    """A field of the normal frame, n1, n2 or K_N, on a FundamentalData:
    computed with the other two by _normal_frame on first read and kept in
    the record's own dict, which later reads find first."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, fd, owner=None):
        if fd is None:
            return self
        vars(fd).update(zip(("n1", "n2", "K_N"), _normal_frame(fd)))
        return vars(fd)[self.name]


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
    Buu: np.ndarray
    Buv: np.ndarray
    Bvv: np.ndarray
    alpha11: np.ndarray
    alpha12: np.ndarray
    alpha22: np.ndarray
    H: np.ndarray
    lam: np.ndarray
    K: np.ndarray
    position: np.ndarray = field(repr=False, default=None)
    regular: np.ndarray = None
    n1 = _FrameField()
    n2 = _FrameField()
    K_N = _FrameField()


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


def _gram(Xu, Xv, dot):
    """(E, F, G, EG - F^2) of Xu, Xv under the inner product dot."""
    E, F, G = dot(Xu, Xu), dot(Xu, Xv), dot(Xv, Xv)
    return E, F, G, E * G - F * F


def _gram_solve(rhs_u, rhs_v, gram):
    """The coefficients (a, b) with [[E, F], [F, G]] (a, b) = (rhs_u,
    rhs_v), gram being (E, F, G, EG - F^2), by Cramer's rule."""
    E, F, G, det1 = gram
    return (rhs_u * G - rhs_v * F) / det1, (rhs_v * E - rhs_u * F) / det1


def _normal_part(w, Xu, Xv, dot, gram=None):
    """w minus its projection onto span{Xu, Xv} under the inner product
    dot; the Gram system is solved in closed form, so w may be a vector
    Jet2 (scaled vector first, as its components would be), or an array
    with a dot whose result broadcasts against it.  gram, if given, is
    _gram of Xu, Xv already computed."""
    if gram is None:
        gram = _gram(Xu, Xv, dot)
    a, b = _gram_solve(dot(w, Xu), dot(w, Xv), gram)
    return w - (Xu * a + Xv * b)


@np.errstate(over="ignore")
def _pypow(x, n):
    """x ** n over an array as Python computes it for a float: C pow, which
    np.float_power calls (np.power differs in the last bit on about 0.1% of
    squares), and inf where the power overflows, where Python raises."""
    return np.float_power(x, float(n))


def _largest(*xs):
    """The elementwise maximum of arrays (numbers broadcast)."""
    return reduce(np.maximum, xs)


def unit_scale(*lengths):
    """The scale rule's unit: per point, 2^k with k the binary exponent of
    the largest of the lengths, (n,) arrays, which puts it in [1/2, 1) in
    that unit; 1 where it is 0 or not finite."""
    return np.ldexp(1.0, np.frexp(_largest(*lengths))[1])


def _sqrt0(x):
    """sqrt(max(x, 0)) over an array of squared norms."""
    return np.sqrt(np.maximum(x, 0.0))


def _vec_norm(x):
    """The Euclidean norm of every column of a (dim, n) batch, or of one
    vector: the square root of R4.dot's component sum."""
    return np.sqrt(R4.dot(x, x))


def _matvec(M, x):
    """M x for a matrix M, (m, dim), and every column of x, (dim, n), each
    entry the component sum of R4.dot."""
    return R4.dot(M.T[:, :, None], x[:, None])


# index pairs (i, j), i < j, of the six components of a 2-form on R4
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_I, _J = (np.array(ix, np.intp) for ix in zip(*_PAIRS))
# *A for a 2-form A on _PAIRS: its components reversed, two of them negated
_STAR = np.array([5, 4, 3, 2, 1, 0], np.intp)
_STAR_SIGN = np.array([1.0, -1, 1, 1, -1, 1])[:, None]
# column m: the rows of R5 but m, the minor of e_m in det[a, b, c, d, e]
_MINORS = np.array([[i for i in range(5) if i != m] for m in range(5)]).T
_MINOR_SIGN = np.array([1.0, -1, 1, -1, 1])[:, None]


def _radial(ambient, x):
    """The unit radial vectors of a space form at the points x, (dim, n)."""
    return (x - ambient.center_vec()[:, None]) / ambient.radius


def _orientation(a, b, c, d, ambient=R4, x=None):
    """det[a, b, c, d] per column of four (4, n) batches of vectors, <a^b,
    *(c^d)> on the signed pair table; in a space form det[a, b, c, d, e] of
    (5, n) ones with e the unit radial vector at the points x, expanded
    along e into such minors.  Its sign orients an orthonormal frame."""
    if ambient.kind != "r4":
        e = _radial(ambient, x)
        m = _orientation(*(v[_MINORS].reshape(4, -1) for v in (a, b, c, d)))
        return np.add.reduce(m.reshape(5, -1) * _MINOR_SIGN * e, 0)
    ab = a[_I] * b[_J] - a[_J] * b[_I]
    cd = c[_I] * d[_J] - c[_J] * d[_I]
    return np.add.reduce(ab * cd[_STAR] * _STAR_SIGN, 0)


def _rank_deficient(fd):
    """The error of row k of fd where its first form is degenerate."""
    return lambda k: SingularSampleError(
        f"rank-deficient sample: EG - F^2 = {fd.det1[k]:.3e}",
        det=float(fd.det1[k]))


@np.errstate(divide="ignore", invalid="ignore")
def fundamental_data(sample, ambient=R4):
    """First/second fundamental data and curvatures of a surface sample,
    and its deterministic normal frame (n1, n2) with the normal curvature
    K_N in it, which are computed on first read (_normal_frame).

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
    gram = E, F, G, det1 = _gram(Xu, Xv, dot)
    scale = np.abs(np.concatenate((Xu, Xv))).max(axis=0)
    singular = det1 <= REGULARITY_FLOOR * _pypow(scale, 4)

    # the second partials, stacked on a second axis, (dim, 3, n), are
    # projected in one pass
    B = _normal_part(np.stack((Xuu, Xuv, Xvv), axis=1), Xu[:, None],
                     Xv[:, None], dot, gram)
    if ambient.kind != "r4":
        R = _radial(ambient, x)[:, None]
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

    return FundamentalData(
        ambient=ambient, E=E, F=F, G=G, det1=det1,
        scale=scale, Xu=Xu, Xv=Xv, Y1=Y1, Y2=Y2,
        Buu=Buu, Buv=Buv, Bvv=Bvv,
        alpha11=alpha11, alpha12=alpha12, alpha22=alpha22,
        H=H, lam=lam, K=K, position=x, regular=~singular)


@np.errstate(divide="ignore", invalid="ignore")
def _normal_frame(fd):
    """(n1, n2, K_N) of the fundamental data fd: the deterministic normal
    frame from the ambient basis vectors projected onto the normal space,
    and the normal curvature in it."""
    ambient, x = fd.ambient, fd.position
    dot = ambient.dot
    dim, n = x.shape
    # the ambient basis vectors on a second axis, (dim, dim, n), projected
    # in one pass: the columns of P
    basis = np.broadcast_to(np.eye(dim)[..., None], (dim, dim, n))
    P = _normal_part(basis, fd.Xu[:, None], fd.Xv[:, None], dot,
                     (fd.E, fd.F, fd.G, fd.det1))
    if ambient.kind != "r4":
        R = _radial(ambient, x)[:, None]
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
    flip = _orientation(fd.Y1, fd.Y2, n1, n2, ambient, x) < 0
    n2 = np.where(flip, -n2, n2)

    # the commutator entry [A_n1, A_n2]_21 of the two shape operators,
    # <alpha12, n1> <alpha11 - alpha22, n2> - <alpha12, n2> <alpha11 -
    # alpha22, n1>, its four products in one pass
    c = dot(np.stack((fd.alpha12, fd.alpha11 - fd.alpha22),
                     axis=1)[:, :, None], np.stack((n1, n2), axis=1)[:, None])
    return n1, n2, c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]


def _sym2(a, b, c):
    """The symmetric 2x2 matrices [[a, b], [b, c]] over a batch (numbers
    broadcast)."""
    a, b, c = np.broadcast_arrays(a, b, c)
    return np.stack((np.stack((a, b), -1), np.stack((b, c), -1)), -2)


def _mat2(A, B):
    """The products A B of two batches of 2x2 matrices, (..., 2, 2) each,
    entry (i, j) the terms 0.0 + A_i0 B_0j + A_i1 B_1j in that order."""
    return 0.0 + A[..., :, :1] * B[..., :1, :] + A[..., :, 1:] * B[..., 1:, :]


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
    gram = E, F, G, det1 = _gram(Xu, Xv, dot)
    fail_rows(~(det1 > REGULARITY_FLOOR * abs(E * G)),
              lambda k: SingularSampleError(
                  "sample is not a spacelike immersion; induced metric "
                  "degenerates"))
    p, q, r = (dot(w, nu) for w in seconds)
    # [[E, F], [F, G]]^-1 [[p, q], [q, r]], one column per solve, transposed
    return np.array([_gram_solve(p, q, gram), _gram_solve(q, r, gram)]).T


def _ellipse_axes(fd):
    """The vectors d = (alpha11 - alpha22)/2 and m = alpha12 that span the
    curvature ellipse, and its circularity residuals res_orth and res_len."""
    dot = fd.ambient.dot
    d = 0.5 * (fd.alpha11 - fd.alpha22)
    m = fd.alpha12
    # the norms of d and m in one pass
    two = np.stack((d, m), axis=1)
    len_d, len_m = 2.0 * _sqrt0(dot(two, two))
    M = np.maximum(len_d, len_m)
    # point ellipse, in the sample's units: circular by convention
    point = M * unit_scale(fd.scale) <= 1e-9
    M = np.where(point, 1.0, M)
    res_orth = np.where(point, 0.0, dot(m, 2.0 * d) / (M * M))
    res_len = np.where(point, 0.0, (len_d - len_m) / M)
    return d, m, res_orth, res_len


@np.errstate(invalid="ignore")
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
    # singular values of [[d.n1, m.n1], [d.n2, m.n2]], stable near a circle
    gen = a, b, c, e = (dot(d, fd.n1), dot(m, fd.n1),
                        dot(d, fd.n2), dot(m, fd.n2))
    s, t = np.hypot(a + e, c - b), np.hypot(a - e, b + c)
    semi_major, semi_minor = 0.5 * np.where(np.isfinite(gen).all(axis=0),
                                            (s + t, abs(s - t)), np.nan)
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
    lam and mu are undefined at FRAME_FLOOR in the sample's units.
    """
    dot = fd.ambient.dot
    fail_rows(np.logical_not(fd.regular), _rank_deficient(fd))
    floor = FRAME_FLOOR / unit_scale(fd.scale)
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
    Ae = _mat2(_mat2(Rt, A_eta), R)
    Y1 = ct * fd.Y1 + st * fd.Y2
    Y2 = -st * fd.Y1 + ct * fd.Y2

    A_z0 = _mat2(_mat2(Rt, shape_matrix(fd, zeta0)), R)
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
    ambient_det = np.sign(_orientation(Y1, Y2, eta, zeta, fd.ambient,
                                       fd.position))
    return AdaptedFrame(
        Y1=Y1, Y2=Y2, eta=eta, zeta=zeta, lam=lam, mu=mu_adapted,
        A_eta=Ae, A_zeta=A_z, sffa_residual=sffa_residual,
        ambient_det=ambient_det, zeta_oriented=ambient_det * zeta)
