"""Pointwise surface geometry from jet samples.

Input is a Vec of 4 components (ambient R4) or 5 components with a space-form
flag (round sphere in R5, hyperbolic space in L5 with the (+,+,+,+,-) product).
Outputs: fundamental forms, curvature invariants, the ellipse of curvature,
and the adapted tangent/normal frame in which both shape operators take their
normal form.

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

import numpy as np

from .errors import (
    FrameUndefinedError,
    PreconditionError,
    SingularSampleError,
)
from .jets import Vec

REGULARITY_FLOOR = 1e-12
FRAME_FLOOR = 1e-10


# inner-product signature per ambient kind; shared, so made read-only
_SIGNATURES = {"r4": np.ones(4), "sphere": np.ones(5),
               "hyperbolic": np.array([1.0, 1.0, 1.0, 1.0, -1.0])}
for _sig in _SIGNATURES.values():
    _sig.flags.writeable = False


@dataclass(frozen=True)
class Ambient:
    """Where the surface lives: flat R4, a round sphere in R5, or the
    hyperbolic space inside Lorentzian R5."""

    kind: str = "r4"
    radius: float = 1.0
    center: tuple | None = None

    def __post_init__(self):
        if self.kind not in _SIGNATURES:
            raise ValueError(f"unknown ambient kind {self.kind!r}")
        if self.kind != "r4" and self.radius <= 0:
            raise ValueError("space-form radius must be positive")

    @property
    def dim(self):
        return 4 if self.kind == "r4" else 5

    @property
    def signature(self):
        return _SIGNATURES[self.kind]

    @property
    def curvature(self):
        if self.kind == "sphere":
            return 1.0 / self.radius ** 2
        if self.kind == "hyperbolic":
            return -1.0 / self.radius ** 2
        return 0.0

    def center_vec(self):
        if self.center is not None:
            return np.asarray(self.center, dtype=float)
        if self.kind == "sphere":
            return self.radius * np.eye(5)[4]
        if self.kind == "hyperbolic":
            return -self.radius * np.eye(5)[4]
        return np.zeros(4)

    def dot(self, a, b):
        # np.sum's own reduction without its dispatch; a @ b rounds otherwise
        return float(np.add.reduce(_SIGNATURES[self.kind] * a * b))

    def norm(self, a):
        return float(np.sqrt(max(self.dot(a, a), 0.0)))

    def on_manifold_residual(self, x):
        """Zero when x lies on the space form; position-norm residual."""
        if self.kind == "r4":
            return 0.0
        d = np.asarray(x) - self.center_vec()
        q = self.dot(d, d)
        target = self.radius ** 2 if self.kind == "sphere" else -self.radius ** 2
        return abs(q - target)


R4 = Ambient("r4")


@dataclass(frozen=True)
class FundamentalData:
    ambient: Ambient
    E: float
    F: float
    G: float
    det1: float
    scale: float
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
    lam: float
    K: float
    K_N: float
    position: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class EllipseDescriptor:
    center: np.ndarray
    semi_major: float
    semi_minor: float
    res_orth: float
    res_len: float
    mu: float

    def is_circular(self, tol=1e-8):
        return max(abs(self.res_orth), abs(self.res_len)) < tol


@dataclass(frozen=True)
class AdaptedFrame:
    Y1: np.ndarray
    Y2: np.ndarray
    eta: np.ndarray
    zeta: np.ndarray
    lam: float
    mu: float
    A_eta: np.ndarray
    A_zeta: np.ndarray
    sffa_residual: float
    ambient_det: float
    zeta_oriented: np.ndarray


def _normal_parts(ws, Xu, Xv, dot):
    """Each w of ws minus its projection onto span{Xu, Xv} under the inner
    product dot; the Gram system is solved in closed form, so entries may be
    Jet2."""
    E, F, G = dot(Xu, Xu), dot(Xu, Xv), dot(Xv, Xv)
    det1 = E * G - F * F
    out = []
    for w in ws:
        rhs_u = dot(w, Xu)
        rhs_v = dot(w, Xv)
        a = (rhs_u * G - rhs_v * F) / det1
        b = (rhs_v * E - rhs_u * F) / det1
        out.append(w - (a * Xu + b * Xv))
    return out


def fundamental_data(sample, ambient=R4):
    """First/second fundamental data, curvatures, and the deterministic normal
    frame of a surface sample."""
    if not isinstance(sample, Vec):
        raise TypeError("fundamental_data wants a Vec sample")
    if len(sample) != ambient.dim:
        raise PreconditionError(
            f"sample has {len(sample)} components, ambient wants {ambient.dim}")
    dot = ambient.dot
    x = sample.values()
    Xu, Xv = sample.du(), sample.dv()
    E, F, G = dot(Xu, Xu), dot(Xu, Xv), dot(Xv, Xv)
    det1 = E * G - F * F
    scale = max(np.max(np.abs(Xu)), np.max(np.abs(Xv)))
    if det1 <= REGULARITY_FLOOR * max(scale, 1e-150) ** 4:
        raise SingularSampleError(
            f"rank-deficient sample: EG - F^2 = {det1:.3e}", det=det1)

    seconds = (sample.duu(), sample.duv(), sample.dvv())
    B = dict(zip(("uu", "uv", "vv"), _normal_parts(seconds, Xu, Xv, dot)))
    radial = None
    if ambient.kind != "r4":
        radial = (x - ambient.center_vec()) / ambient.radius
        s = 1.0 if ambient.kind == "sphere" else -1.0
        for key, m in zip(B, (E, F, G)):
            B[key] = B[key] + s * m * radial / ambient.radius

    Y1 = Xu / np.sqrt(E)
    w2 = Xv - (F / E) * Xu
    n2w = np.sqrt(max(dot(w2, w2), 0.0))
    Y2 = w2 / n2w

    fe = F / E
    alpha11 = B["uu"] / E
    alpha12 = (B["uv"] - fe * B["uu"]) / (np.sqrt(E) * n2w)
    alpha22 = (B["vv"] - 2 * fe * B["uv"] + fe * fe * B["uu"]) / (n2w * n2w)
    H = 0.5 * (alpha11 + alpha22)
    lam = ambient.norm(H)
    K = ambient.curvature + dot(alpha11, alpha22) - dot(alpha12, alpha12)

    # deterministic normal frame from projected ambient basis vectors
    projs = _normal_parts(np.eye(ambient.dim), Xu, Xv, dot)
    if radial is not None:
        rr = dot(radial, radial)
        projs = [p - (dot(p, radial) / rr) * radial for p in projs]
    norms = [ambient.norm(p) for p in projs]
    order = sorted(range(ambient.dim), key=lambda k: (-norms[k], k))
    i1, i2 = sorted(order[:2])
    n1 = projs[i1] / norms[i1]
    # where the two largest projections are parallel, the next largest one
    # supplies the second normal
    for k in [i2] + order[2:]:
        p2 = projs[k] - (dot(projs[k], n1) / dot(n1, n1)) * n1
        len2 = ambient.norm(p2)
        if len2 > FRAME_FLOOR * norms[k]:
            break
    n2 = p2 / len2
    cols = [Y1, Y2, n1, n2] + ([radial] if radial is not None else [])
    if np.linalg.det(np.column_stack(cols)) < 0:
        n2 = -n2

    A1 = shape_matrix_on(alpha11, alpha12, alpha22, n1, dot)
    A2 = shape_matrix_on(alpha11, alpha12, alpha22, n2, dot)
    comm = A1 @ A2 - A2 @ A1
    K_N = float(comm[1, 0])

    return FundamentalData(
        ambient=ambient, E=E, F=F, G=G, det1=det1, scale=scale,
        Xu=Xu, Xv=Xv, Y1=Y1, Y2=Y2, n1=n1, n2=n2,
        Buu=B["uu"], Buv=B["uv"], Bvv=B["vv"],
        alpha11=alpha11, alpha12=alpha12, alpha22=alpha22,
        H=H, lam=lam, K=K, K_N=K_N, position=x)


def shape_matrix_on(alpha11, alpha12, alpha22, nu, dot):
    """Shape operator of the normal direction nu on the orthonormal tangent
    basis, as a symmetric 2x2 matrix."""
    a = dot(alpha11, nu)
    b = dot(alpha12, nu)
    c = dot(alpha22, nu)
    return np.array([[a, b], [b, c]])


def shape_matrix(fd, nu):
    return shape_matrix_on(fd.alpha11, fd.alpha12, fd.alpha22, nu, fd.ambient.dot)


def shape_matrix_coords(fd, nu):
    """Shape operator of nu on the coordinate basis (d/du, d/dv)."""
    return _coord_shape(fd.Xu, fd.Xv, (fd.Buu, fd.Buv, fd.Bvv), nu,
                        fd.ambient.dot)


def _coord_shape(Xu, Xv, seconds, nu, dot):
    """Shape operator of the normal nu on the coordinate basis, from the
    first and the (uu, uv, vv) second partials under the inner product dot."""
    E, F, G = dot(Xu, Xu), dot(Xu, Xv), dot(Xv, Xv)
    if not E * G - F * F > 1e-12 * max(abs(E * G), 1e-300):
        raise SingularSampleError(
            "sample is not a spacelike immersion; induced metric degenerates")
    buu, buv, bvv = (dot(w, nu) for w in seconds)
    return np.linalg.solve(np.array([[E, F], [F, G]]),
                           np.array([[buu, buv], [buv, bvv]]))


def ellipse_descriptor(fd):
    """Semi-axes and circularity residuals of the curvature ellipse
    theta -> H + cos(2 theta) (alpha11 - alpha22)/2 + sin(2 theta) alpha12."""
    dot = fd.ambient.dot
    d = 0.5 * (fd.alpha11 - fd.alpha22)
    m = fd.alpha12
    gen = np.array([[dot(d, fd.n1), dot(m, fd.n1)],
                    [dot(d, fd.n2), dot(m, fd.n2)]])
    sv = np.linalg.svd(gen, compute_uv=False)
    semi_major, semi_minor = float(sv[0]), float(sv[1])
    len_d = 2.0 * ambient_norm(fd, d)
    len_m = 2.0 * ambient_norm(fd, m)
    amax = max(ambient_norm(fd, fd.alpha11), ambient_norm(fd, fd.alpha22),
               ambient_norm(fd, fd.alpha12))
    M = max(len_d, len_m)
    if M <= 1e-9 * (1.0 + amax):
        # point ellipse: circular by convention
        res_orth = res_len = 0.0
    else:
        res_orth = dot(m, 2.0 * d) / (M * M)
        res_len = (len_d - len_m) / M
    return EllipseDescriptor(
        center=fd.H, semi_major=semi_major, semi_minor=semi_minor,
        res_orth=float(res_orth), res_len=float(res_len),
        mu=0.5 * (semi_major + semi_minor))


def ambient_norm(fd, w):
    return fd.ambient.norm(w)


def superconformality_test(fd, tol=1e-8):
    """Circularity residuals plus the curvature-equality defect
    |H|^2 + c - K - |K_N| (nonnegative in general, zero exactly at circular
    points)."""
    ed = ellipse_descriptor(fd)
    defect = fd.lam ** 2 + fd.ambient.curvature - fd.K - abs(fd.K_N)
    rel = defect / fd.lam ** 2 if fd.lam > 0 else float("inf")
    return {
        "res_orth": ed.res_orth,
        "res_len": ed.res_len,
        "wintgen_defect": float(defect),
        "wintgen_defect_rel": float(rel),
        "mu": ed.mu,
        "is_superconformal": ed.is_circular(tol),
    }


def adapted_frame(fd, pattern_tol=1e-6):
    """Rotate the tangent basis and pick the normal pair (eta, zeta) so the
    two shape operators take the coupled normal form
    [[lam, mu], [mu, lam]] and [[mu, 0], [0, -mu]] with lam = |H|, mu > 0.

    The pattern pins det[Y1, Y2, eta, zeta] up to the geometry; when that
    determinant is negative the positively oriented partner is exposed as
    zeta_oriented = ambient_det * zeta while the returned zeta keeps the
    pattern.
    """
    dot = fd.ambient.dot
    amax = max(ambient_norm(fd, fd.alpha11), ambient_norm(fd, fd.alpha22),
               ambient_norm(fd, fd.alpha12), 1e-300)
    lam = fd.lam
    if lam <= FRAME_FLOOR * max(amax, 1.0):
        raise FrameUndefinedError(
            f"adapted frame undefined at a minimal point (|H| = {lam:.3e})")
    eta = fd.H / lam
    c1, c2 = dot(eta, fd.n1), dot(eta, fd.n2)
    zeta0 = -c2 * fd.n1 + c1 * fd.n2

    A_eta = shape_matrix(fd, eta)
    x = 0.5 * (A_eta[0, 0] - A_eta[1, 1])
    y = A_eta[0, 1]
    mu = float(np.hypot(x, y))
    if mu <= FRAME_FLOOR * max(amax, 1.0):
        raise FrameUndefinedError(
            f"adapted frame undefined at an umbilic point (mu = {mu:.3e})")

    # traceless parts rotate by -2t under a tangent rotation by t
    t = -0.5 * np.arctan2(x, y)
    for _ in range(2):
        ct, st = np.cos(t), np.sin(t)
        R = np.array([[ct, -st], [st, ct]])
        Ae = R.T @ A_eta @ R
        if Ae[0, 1] >= 0:
            break
        t += 0.5 * np.pi
    Y1 = ct * fd.Y1 + st * fd.Y2
    Y2 = -st * fd.Y1 + ct * fd.Y2

    A_z0 = R.T @ shape_matrix(fd, zeta0) @ R
    zeta = zeta0 if A_z0[0, 0] >= 0 else -zeta0
    A_z = A_z0 if A_z0[0, 0] >= 0 else -A_z0

    target_eta = np.array([[lam, Ae[0, 1]], [Ae[0, 1], lam]])
    target_zeta = np.array([[A_z[0, 0], 0.0], [0.0, -A_z[0, 0]]])
    sffa_residual = max(np.max(np.abs(Ae - target_eta)),
                        np.max(np.abs(A_z - target_zeta)),
                        abs(Ae[0, 1] - A_z[0, 0]))
    if sffa_residual > pattern_tol * max(lam, mu):
        raise PreconditionError(
            f"sample is not superconformal: shape operators miss the "
            f"normal-form pattern by {sffa_residual:.3e}")

    mu = float(0.5 * (Ae[0, 1] + A_z[0, 0]))
    cols = [Y1, Y2, eta, zeta]
    if fd.ambient.kind != "r4":
        cols.append((fd.position - fd.ambient.center_vec()) / fd.ambient.radius)
    ambient_det = float(np.sign(np.linalg.det(np.column_stack(cols))))
    return AdaptedFrame(
        Y1=Y1, Y2=Y2, eta=eta, zeta=zeta, lam=lam, mu=mu,
        A_eta=Ae, A_zeta=A_z, sffa_residual=float(sffa_residual),
        ambient_det=ambient_det, zeta_oriented=ambient_det * zeta)
