"""The (dim, n) geometry kernel against the (n, dim) kernel it replaced.

The oracle below is that kernel as it stood: every slot copied into an
(n, dim) transpose and every inner product a reduction over the trailing
component axis.  The kernel must give its bits in every field, signed
zeros, nan and inf included, on every kind of input it meets."""

from functools import partial

import numpy as np
import pytest

from superconf import catalog
from superconf.construct import build_phi_pair
from superconf.errors import PreconditionError
from superconf.geometry import (
    CIRCULAR_TOL, FRAME_FLOOR, PATTERN_TOL, R4, REGULARITY_FLOOR, Ambient,
    _blas_dot, _largest, _normal_parts, _pypow, _rank_deficient, _sqrt0,
    _sym2, _vec_norm, adapted_frame, ellipse_descriptor, fundamental_data)
from superconf.jets import Jet2, fail_rows, row_failures
from test_geometry import clifford_s4, flat_torus_h4, great_sphere_s4

_SIGNATURES = {"r4": np.ones(4), "sphere": np.ones(5),
               "hyperbolic": np.array([1.0, 1.0, 1.0, 1.0, -1.0])}


# ----- the oracle: the (n, dim) kernel -----

def rows_dot(ambient, a, b, keepdims=False):
    if ambient.kind != "r4":
        a = _SIGNATURES[ambient.kind] * a
    return np.add.reduce(a * b, axis=-1, keepdims=keepdims)


def _col(x):
    return np.asarray(x)[..., None]


def _values(slot):
    return np.ascontiguousarray(slot.T)


class RowsData:
    """fundamental_data's fields, (n, dim) vectors."""

    def __init__(self, **fields):
        vars(self).update(fields)


@np.errstate(divide="ignore", invalid="ignore")
def oracle_fundamental_data(sample, ambient=R4):
    x, Xu, Xv, Xuu, Xuv, Xvv = np.broadcast_arrays(
        *(_values(slot) for slot in sample.slots))
    dot = partial(rows_dot, ambient, keepdims=True)
    E, F, G = dot(Xu, Xu), dot(Xu, Xv), dot(Xv, Xv)
    det1 = E * G - F * F
    scale = np.abs(np.concatenate((Xu, Xv), axis=-1)).max(axis=-1)
    singular = det1[:, 0] <= REGULARITY_FLOOR * _pypow(
        np.maximum(scale, 1e-150), 4)

    dim = ambient.dim
    ws = np.empty((len(x), 3 + dim, dim))
    ws[:, 0], ws[:, 1], ws[:, 2], ws[:, 3:] = Xuu, Xuv, Xvv, np.eye(dim)
    [normal] = _normal_parts([ws], Xu[:, None], Xv[:, None], dot,
                             [m[..., None] for m in (E, F, G, det1)])
    B, P = normal[:, :3], normal[:, 3:]
    radial = None
    if ambient.kind != "r4":
        radial = (x - ambient.center_vec()) / ambient.radius
        R = radial[:, None]
        s = 1.0 if ambient.kind == "sphere" else -1.0
        EFG = np.concatenate((E, F, G), axis=1)[..., None]
        B = B + s * EFG * R / ambient.radius
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

    if radial is not None:
        P = P - (dot(P, R) / dot(R, R)) * R
    norms = _sqrt0(dot(P, P))[..., 0]
    rows = np.arange(len(P))
    order = np.argsort(-norms, axis=-1, kind="stable")
    i1 = np.minimum(order[:, 0], order[:, 1])
    n1 = P[rows, i1] / norms[rows, i1, None]
    pending = None
    for j in range(1, dim):
        k = np.maximum(order[:, 0], order[:, 1]) if j == 1 else order[:, j]
        pk = P[rows, k]
        p2 = pk - (dot(pk, n1) / dot(n1, n1)) * n1
        len2 = _sqrt0(dot(p2, p2))
        found = len2[:, 0] > FRAME_FLOOR * norms[rows, k]
        if j + 1 < dim and not found.all():
            len2 = np.where(found[:, None], len2, 1.0)
        if pending is None:
            n2, pending = p2 / len2, ~found
        else:
            n2 = np.where(pending[:, None], p2 / len2, n2)
            pending = pending & ~found
        if not pending.any():
            break
    cols = [Y1, Y2, n1, n2] + ([radial] if radial is not None else [])
    frame = np.empty((len(x), dim, dim))
    for j, col in enumerate(cols):
        frame[:, :, j] = col
    flip = np.linalg.det(frame) < 0
    n2 = np.where(flip[:, None], -n2, n2)

    alphas = np.concatenate((alpha11[:, None], alpha12[:, None],
                             alpha22[:, None]), axis=1)[:, None]
    c = dot(alphas, np.concatenate((n1[:, None, None], n2[:, None, None]),
                                   axis=1))[..., 0]
    A = c[..., [0, 1, 1, 2]].reshape(-1, 2, 2, 2)
    A1, A2 = A[:, 0], A[:, 1]
    K_N = (A1 @ A2 - A2 @ A1)[:, 1, 0]

    return RowsData(
        ambient=ambient, E=E[:, 0], F=F[:, 0], G=G[:, 0], det1=det1[:, 0],
        scale=scale, Xu=Xu, Xv=Xv, Y1=Y1, Y2=Y2, n1=n1, n2=n2,
        Buu=Buu, Buv=Buv, Bvv=Bvv,
        alpha11=alpha11, alpha12=alpha12, alpha22=alpha22,
        H=H, lam=lam[:, 0], K=K[:, 0], K_N=K_N, position=x,
        regular=~singular)


def oracle_shape_matrix(fd, nu):
    dot = partial(rows_dot, fd.ambient)
    return _sym2(dot(fd.alpha11, nu), dot(fd.alpha12, nu),
                 dot(fd.alpha22, nu))


def oracle_ellipse_axes(fd):
    dot = partial(rows_dot, fd.ambient)
    d = 0.5 * (fd.alpha11 - fd.alpha22)
    m = fd.alpha12
    five = np.array([d, m, fd.alpha11, fd.alpha22, fd.alpha12])
    norms = _sqrt0(dot(five, five))
    len_d, len_m = 2.0 * norms[0], 2.0 * norms[1]
    amax = norms[2:].max(axis=0)
    M = np.maximum(len_d, len_m)
    point = M <= 1e-9 * (1.0 + amax)
    M = np.where(point, 1.0, M)
    res_orth = np.where(point, 0.0, dot(m, 2.0 * d) / (M * M))
    res_len = np.where(point, 0.0, (len_d - len_m) / M)
    return d, m, res_orth, res_len


def oracle_ellipse_descriptor(fd):
    dot = partial(rows_dot, fd.ambient)
    d, m, res_orth, res_len = oracle_ellipse_axes(fd)
    gen = np.array([dot(d, fd.n1), dot(m, fd.n1),
                    dot(d, fd.n2), dot(m, fd.n2)]).T.reshape(-1, 2, 2)
    try:
        sv = np.linalg.svd(gen, compute_uv=False)
    except np.linalg.LinAlgError:
        finite = np.isfinite(gen).all(axis=(1, 2))
        sv = np.linalg.svd(np.where(finite[:, None, None], gen, 0.0),
                           compute_uv=False)
        sv[~finite] = np.nan
    semi_major, semi_minor = sv.reshape(d.shape[:-1] + (2,)).T
    return dict(center=fd.H, semi_major=semi_major, semi_minor=semi_minor,
                res_orth=res_orth, res_len=res_len,
                mu=0.5 * (semi_major + semi_minor))


def oracle_superconformality_test(fd):
    ed = oracle_ellipse_descriptor(fd)
    lam2 = _pypow(fd.lam, 2)
    defect = lam2 + fd.ambient.curvature - fd.K - abs(fd.K_N)
    positive = fd.lam > 0
    rel = np.where(positive, defect / np.where(positive, lam2, 1.0),
                   float("inf"))
    return {
        "res_orth": ed["res_orth"],
        "res_len": ed["res_len"],
        "wintgen_defect": defect,
        "wintgen_defect_rel": rel,
        "mu": ed["mu"],
        "is_superconformal": np.maximum(abs(ed["res_orth"]),
                                        abs(ed["res_len"])) < CIRCULAR_TOL,
    }


def oracle_adapted_frame(fd):
    dot = partial(rows_dot, fd.ambient)
    fail_rows(np.logical_not(fd.regular), _rank_deficient(fd))
    amax = _largest(*(_sqrt0(dot(a, a))
                      for a in (fd.alpha11, fd.alpha22, fd.alpha12)), 1e-300)
    floor = FRAME_FLOOR * _largest(amax, 1.0)
    lam = fd.lam
    fail_rows(lam <= floor, lambda k: PreconditionError("minimal point"))
    eta = fd.H / _col(lam)
    c1, c2 = dot(eta, fd.n1), dot(eta, fd.n2)
    zeta0 = -_col(c2) * fd.n1 + _col(c1) * fd.n2

    A_eta = oracle_shape_matrix(fd, eta)
    x = 0.5 * (A_eta[..., 0, 0] - A_eta[..., 1, 1])
    y = A_eta[..., 0, 1]
    mu = np.hypot(x, y)
    fail_rows(mu <= floor, lambda k: PreconditionError("umbilic point"))

    t = -0.5 * np.arctan2(x, y)
    ct, st = np.cos(t), np.sin(t)
    R = np.stack((np.stack((ct, -st), -1), np.stack((st, ct), -1)), -2)
    Rt = np.swapaxes(R, -1, -2)
    Ae = Rt @ A_eta @ R
    ct, st = _col(ct), _col(st)
    Y1 = ct * fd.Y1 + st * fd.Y2
    Y2 = -st * fd.Y1 + ct * fd.Y2

    A_z0 = Rt @ oracle_shape_matrix(fd, zeta0) @ R
    flip = np.logical_not(A_z0[..., 0, 0] >= 0)
    zeta = np.where(_col(flip), -zeta0, zeta0)
    A_z = np.where(flip[..., None, None], -A_z0, A_z0)

    off, a_z = Ae[..., 0, 1], A_z[..., 0, 0]
    target_eta = _sym2(lam, off, lam)
    target_zeta = _sym2(a_z, 0.0, -a_z)
    sffa_residual = _largest(np.abs(Ae - target_eta).max(axis=(-2, -1)),
                             np.abs(A_z - target_zeta).max(axis=(-2, -1)),
                             np.abs(off - a_z))
    fail_rows(sffa_residual > PATTERN_TOL * _largest(lam, mu),
              lambda k: PreconditionError("pattern"))

    mu_adapted = 0.5 * (off + a_z)
    cols = [Y1, Y2, eta, zeta]
    if fd.ambient.kind != "r4":
        cols.append((fd.position - fd.ambient.center_vec()) / fd.ambient.radius)
    ambient_det = np.sign(np.linalg.det(np.stack(cols, axis=-1)))
    return dict(
        Y1=Y1, Y2=Y2, eta=eta, zeta=zeta, lam=lam, mu=mu_adapted,
        A_eta=Ae, A_zeta=A_z, sffa_residual=sffa_residual,
        ambient_det=ambient_det, zeta_oriented=_col(ambient_det) * zeta)


# ----- comparison -----

def as_rows(x):
    """A kernel field in the oracle's layout: a (dim, n) vector field as
    (n, dim) rows; number fields and 2x2 matrices as they are."""
    return x.T if np.ndim(x) == 2 else x


def bits(x):
    """dtype, shape and bytes of x, every nan as numpy's own: a nan's sign
    and payload depend on which operand of a product the machine returns,
    and no output reads them."""
    x = np.asarray(x)
    if x.dtype.kind == "f":
        x = np.where(np.isnan(x), np.nan, x)
    return x.dtype, x.shape, x.tobytes()


def assert_same_bits(got, want, where):
    """Every field of got, read in the oracle's layout, has the bytes of
    the oracle's field of that name."""
    assert got.keys() == want.keys(), where
    for name, w in want.items():
        if name == "ambient":
            continue
        assert bits(as_rows(got[name])) == bits(w), (where, name)


def fields(obj):
    """The fields of a kernel or oracle result by name."""
    return dict(vars(obj)) if not isinstance(obj, dict) else obj


@np.errstate(all="ignore")
def check_sample(sample, ambient=R4, where=""):
    """The kernel against the oracle on one sample: fundamental data, the
    ellipse record (the oracle's ellipse and superconformality test in one),
    and the adapted frame with its failed rows."""
    fd = fundamental_data(sample, ambient)
    ofd = oracle_fundamental_data(sample, ambient)
    assert_same_bits(fields(fd), fields(ofd), f"{where} fd")
    ed = fields(ellipse_descriptor(fd))
    test = oracle_superconformality_test(ofd)
    circular = test.pop("is_superconformal")
    assert_same_bits(ed, {**oracle_ellipse_descriptor(ofd), **test},
                     f"{where} ellipse")
    assert bits(np.maximum(abs(ed["res_orth"]), abs(ed["res_len"]))
                < CIRCULAR_TOL) == bits(circular), where
    n = len(fd.E)
    with row_failures(n) as failed:
        fr = adapted_frame(fd)
    with row_failures(n) as oracle_failed:
        ofr = oracle_adapted_frame(ofd)
    assert bits(failed.rows()) == bits(oracle_failed.rows()), where
    assert_same_bits(fields(fr), ofr, f"{where} frame")


CURVE_PAIRS = [name for name in catalog.names()
               if catalog.get(name).kind == "minimal-pair"]


@pytest.mark.parametrize("name", CURVE_PAIRS)
def test_kernel_is_the_oracle_on_every_catalog_pair(name):
    pair = catalog.get(name).pair
    us, vs = pair.domain.linspace(23, 23)
    z = np.array([complex(u, v) for u in us for v in vs])
    with np.errstate(all="ignore"), row_failures(z.size):
        s = pair.samples_at(z)
        built = build_phi_pair(pair, z)
    check_sample(s.g, where=f"{name} g")
    for ps in built:
        check_sample(ps.phi, where=f"{name} {ps.sign}")


def test_kernel_is_the_oracle_on_the_closed_form_pair():
    entry = catalog.get("veronese")
    us, vs = entry.domain.linspace(23, 23, margin=0.02)
    s = entry.aux["pair"].samples_at(np.add.outer(us, 1j * vs).ravel())
    check_sample(s.g, where="veronese g")
    check_sample(s.h, where="veronese h")


def test_kernel_is_the_oracle_on_the_space_forms():
    u = np.linspace(0.1, 2.9, 23)
    u, v = np.repeat(u, 23), np.tile(u, 23) - 1.3
    for surface, ambient in ((clifford_s4, Ambient("sphere")),
                             (great_sphere_s4, Ambient("sphere")),
                             (flat_torus_h4, Ambient("hyperbolic"))):
        check_sample(surface(u, v), ambient, surface.__name__)
    for name in ("veronese", "h4-flat-torus"):
        entry = catalog.get(name)
        us, vs = entry.domain.linspace(23, 23, margin=0.02)
        check_sample(entry.sample(np.repeat(us, 23), np.tile(vs, 23)),
                     entry.ambient, name)


def stereographic_lift(phi, ambient):
    """The space-form sample over a flat one, in vector-jet arithmetic with
    Ambient.from_R4's conventions: X = c + 4 r^2 d / |d|^2, d = (phi, 0) -
    2 r e5 on the sphere, and (4 r^2 phi, r (4 r^2 + |phi|^2)) /
    (4 r^2 - |phi|^2) - r e5 on the hyperboloid."""
    r = ambient.radius
    comps = [phi[i] for i in range(4)]
    if ambient.kind == "sphere":
        d = Jet2.stack(comps + [-2.0 * r])
        c = Jet2.stack([0.0, 0.0, 0.0, 0.0, 2.0 * r])
        return c + d * ((4.0 * r * r) / d.dot(d))
    n2 = phi.dot(phi)
    den = (n2 - 4.0 * r * r) * -1.0
    return Jet2.stack([x * (4.0 * r * r) / den for x in comps]
                      + [(n2 + 4.0 * r * r) * r / den - r])


def test_kernel_is_the_oracle_on_the_stereographic_lifts():
    pair = catalog.get("catenoid-helicoid").pair
    us, vs = pair.domain.linspace(9, 9)
    z = np.array([complex(u, v) for u in us for v in vs])
    with np.errstate(all="ignore"), row_failures(z.size):
        built = build_phi_pair(pair, z)
    for ps in built:
        for ambient in (Ambient("sphere", 2.0), Ambient("hyperbolic", 5.0)):
            lift = stereographic_lift(ps.phi, ambient)
            np.testing.assert_allclose(
                lift.v, ambient.from_R4(ps.phi.v), rtol=1e-12)
            assert np.all(ambient.on_manifold_residual(lift.v) < 1e-9)
            check_sample(lift, ambient, f"{ps.sign} {ambient.kind}")


def random_sample(rng, n, dim=4):
    slots = rng.standard_normal((6, dim, n))
    slots *= 10.0 ** rng.integers(-3, 4, (6, dim, n))
    return slots


@pytest.mark.parametrize("n", [1, 513])
@pytest.mark.parametrize("kind", ["r4", "sphere", "hyperbolic"])
def test_kernel_is_the_oracle_on_degenerate_and_non_finite_points(n, kind):
    ambient = Ambient(kind)
    rng = np.random.default_rng(n + ambient.dim)
    slots = random_sample(rng, n, ambient.dim)
    if n > 1:
        du, dv = slots[1], slots[2]
        dv[:, 1::7] = 2.0 * du[:, 1::7]       # rank-deficient points
        du[:, 2::7] = 0.0
        slots[:, :, 3::7] = -0.0              # every slot -0.0
        du[:, 10::17], dv[:, 10::17] = -0.0, abs(dv[:, 10::17])
        slots[0, 1, 4::7] = np.nan
        slots[3, 2, 5::7] = np.inf
        slots[1, 0, 6::11] = -np.inf
        slots[4, :, 8::13] = 1e300            # overflowing products
    check_sample(Jet2(*slots), ambient, f"{kind} {n}")


@pytest.mark.parametrize("n", [1, 513])
def test_kernel_is_the_oracle_on_constant_slots(n):
    # a slot constant over the batch is (dim, 1) and broadcasts
    rng = np.random.default_rng(n)
    U, V = (Jet2.coordinate_u(rng.uniform(-2, 2, n)),
            Jet2.coordinate_v(rng.uniform(-2, 2, n)))
    v, du, dv, duu, duv, dvv = random_sample(rng, n)
    for sample in (Jet2.stack([U, V, U * 0.5, 1.0]),
                   Jet2(v, du[:, :1], dv[:, :1], duu, duv[:, :1], dvv),
                   Jet2(*(x[:, :1] for x in (v, du, dv, duu, duv, dvv)))):
        assert any(np.shape(x)[1] == 1 for x in sample.slots)
        check_sample(sample, where=f"constant slots {n}")


# ----- the inner product -----

@pytest.mark.parametrize("dim", [4, 5])
@np.errstate(all="ignore")
def test_component_row_sum_is_the_trailing_axis_reduce(dim):
    rng = np.random.default_rng(dim)
    a, b = rng.standard_normal((2, 4096, dim))
    a *= 10.0 ** rng.integers(-30, 30, a.shape)
    a[::9], b[::9] = -0.0, abs(b[::9])         # every product -0.0
    a[1::9, 0] = np.nan
    a[2::9, -1] = np.inf
    b[3::9, 1] = -np.inf
    b[4::9, :2] = np.inf                       # inf - inf
    a[5::9] = 1e300                            # overflow
    want = np.add.reduce(a * b, axis=-1)
    got = R4.dot(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
    p = a.T * b.T
    row_sum = 0.0 + p[0]
    for row in p[1:]:
        row_sum = row_sum + row
    assert bits(got) == bits(want) == bits(row_sum)
    assert np.all(np.signbit(got[::9]) == 0)   # -0.0 rows sum to +0.0
    # one point is a batch of one, and a single vector its own column
    for k in (0, 1):
        assert bits(R4.dot(a[k:k + 1].T, b[k:k + 1].T)) == bits(want[k:k + 1])
    assert bits(R4.dot(a[7], b[7])) == bits(want[7])
    if dim == 5:
        sig = _SIGNATURES["hyperbolic"]
        assert bits(Ambient("hyperbolic").dot(a.T, b.T)) == bits(
            np.add.reduce(sig * a * b, axis=-1))


def test_fundamental_data_checks_its_input_before_broadcasting():
    class Slots(Jet2):
        """A vector jet whose slots must not be read."""

        @property
        def slots(self):
            raise AssertionError("slots read before the input checks")

    rows = np.zeros((5, 3))
    for bad in (rows, [Jet2.coordinate_u([0.0])] * 4, Jet2(np.zeros(3))):
        with pytest.raises(TypeError):
            fundamental_data(bad)
    with pytest.raises(PreconditionError, match="5 components"):
        fundamental_data(Slots(*[np.zeros((5, 3))] * 6))
    with pytest.raises(PreconditionError, match="4 components"):
        fundamental_data(Slots(*[np.zeros((4, 3))] * 6), Ambient("sphere"))


# ----- the BLAS dots: (dim, n) batches against the row versions -----

def rows_blas_dot(a, b):
    """_blas_dot as it stood: a @ b for every row of two (n, dim)
    C-contiguous batches of vectors."""
    n = a.shape[-1]
    return np.matmul(a[:, None, :], b.reshape(-1, n, 1))[:, 0, 0]


def rows_vec_norm(x):
    return np.sqrt(rows_blas_dot(x, x))


@pytest.mark.parametrize("dim", [4, 5])
def test_blas_dot_and_vec_norm_are_the_row_versions(dim):
    rng = np.random.default_rng(40 + dim)
    n = 257
    a, b = rng.standard_normal((2, dim, n)) * 10.0 ** rng.integers(
        -150, 150, (2, dim, n))
    a[:, 3::11] = -0.0
    b[:, 5::13] = -0.0
    a[1, 4::17], b[dim - 1, 6::19] = np.nan, -np.nan
    a[0, 7::23], b[2, 8::29] = np.inf, -np.inf
    one = b[:, 9:10]         # a broadcast (dim, 1) constant
    with np.errstate(all="ignore"):
        for x, y in ((a, b), (a, a), (a, one), (one, b), (one, one)):
            xs, ys = (_values(v) for v in np.broadcast_arrays(x, y))
            assert bits(_blas_dot(x, y)) == bits(rows_blas_dot(xs, ys))
        for x in (a, b, one):
            assert bits(_vec_norm(x)) == bits(rows_vec_norm(_values(x)))
