"""Curvature, ellipse, and adapted-frame checks against closed forms.

Closed-form expectations below are derived by hand for each fixture surface
(flat tori in R4, S4, H4; round spheres; the catenoid) and the synthetic
quadratic jets whose shape operators are prescribed directly.
"""

import numpy as np
import pytest

from superconf.errors import (
    FrameUndefinedError,
    PreconditionError,
    SingularSampleError,
)
from superconf.geometry import (
    CIRCULAR_TOL,
    Ambient,
    R4,
    adapted_frame,
    ellipse_descriptor,
    fundamental_data,
    _coord_shape,
    _pypow,
    shape_matrix,
)
from superconf.jets import Jet2, row_failures
from superconf.minimal import Domain, HolomorphicCurve, MinimalPair
from test_jets import reparam_rot, transform


def circular(ed):
    """Where the curvature ellipse is a circle: both residuals below
    CIRCULAR_TOL."""
    return np.maximum(abs(ed.res_orth), abs(ed.res_len)) < CIRCULAR_TOL


def U(u):
    return Jet2.coordinate_u(u)


def V(v):
    return Jet2.coordinate_v(v)


def torus_r4(u, v, a=1.0, b=0.6):
    return Jet2.stack([a * U(u).cos(), a * U(u).sin(), b * V(v).cos(),
                       b * V(v).sin()])


def sphere_r4(u, v, rho=1.0):
    cu, su = U(u).cos(), U(u).sin()
    cv, sv = V(v).cos(), V(v).sin()
    return Jet2.stack([rho * cv * cu, rho * cv * su, rho * sv,
                       Jet2.constant(0.0)])


def catenoid_r4(u, v):
    cu, su = U(u).cos(), U(u).sin()
    ch = V(v).cosh()
    return Jet2.stack([ch * cu, ch * su, V(v), Jet2.constant(0.0)])


def clifford_s4(u, v, alpha=0.8, beta=0.6):
    # lies on the unit sphere centered at e5
    return Jet2.stack([alpha * U(u).cos(), alpha * U(u).sin(),
                       beta * V(v).cos(), beta * V(v).sin(),
                       Jet2.constant(1.0)])


def great_sphere_s4(u, v):
    cu, su = U(u).cos(), U(u).sin()
    cv, sv = V(v).cos(), V(v).sin()
    return Jet2.stack([cv * cu, cv * su, sv, Jet2.constant(0.0),
                       Jet2.constant(1.0)])


def flat_torus_h4(u, v, a=0.6, b=0.8):
    # spatial radii a, b force the time slot to sqrt(1 + a^2 + b^2);
    # the center convention puts the hyperboloid vertex at the origin
    t = np.sqrt(1.0 + a * a + b * b)
    return Jet2.stack([a * U(u).cos(), a * U(u).sin(),
                       b * V(v).cos(), b * V(v).sin(), Jet2.constant(t - 1.0)])


def quadratic_jet(lam, mu, flip=False):
    """Hand-built 2-jet whose shape operators are exactly
    A_n1 = [[lam, mu], [mu, lam]], A_n2 = +-[[mu, 0], [0, -mu]]."""
    s = -1.0 if flip else 1.0
    comps = [Jet2(0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
             Jet2(0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
             Jet2(0.0, 0.0, 0.0, lam, mu, lam),
             Jet2(0.0, 0.0, 0.0, s * mu, 0.0, -s * mu)]
    return Jet2.stack(comps)


def q0_pair():
    dom = Domain(-1.0, 1.0, -1.0, 1.0)
    return MinimalPair(HolomorphicCurve(
        "trig", "(sin(z), i*sin(z), cos(z), i*cos(z))", dom))


def random_so4(rng):
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestFlatTorus:
    def test_metric_and_curvatures(self):
        fd = fundamental_data(torus_r4(0.4, 1.1))
        assert fd.E == pytest.approx(1.0, abs=1e-12)
        assert fd.F == pytest.approx(0.0, abs=1e-12)
        assert fd.G == pytest.approx(0.36, abs=1e-12)
        assert fd.K == pytest.approx(0.0, abs=1e-12)
        assert fd.K_N == pytest.approx(0.0, abs=1e-12)
        assert fd.lam ** 2 == pytest.approx(0.25 * (1.0 + 1.0 / 0.36), rel=1e-12)

    def test_ellipse_degenerate_segment(self):
        fd = fundamental_data(torus_r4(-0.3, 0.7))
        ed = ellipse_descriptor(fd)
        assert ed.res_len == pytest.approx(1.0, abs=1e-12)
        assert not circular(ed)
        assert ed.semi_minor == pytest.approx(0.0, abs=1e-12)

    def test_not_superconformal(self):
        ed = ellipse_descriptor(fundamental_data(torus_r4(0.0, 0.0)))
        assert not circular(ed)
        assert ed.wintgen_defect > 0.1

    def test_adapted_frame_rejects(self):
        with pytest.raises(PreconditionError):
            adapted_frame(fundamental_data(torus_r4(0.2, -0.5)))


class TestRoundSphereR4:
    def test_curvatures(self):
        fd = fundamental_data(sphere_r4(0.4, 0.3, rho=2.0))
        assert fd.K == pytest.approx(0.25, rel=1e-10)
        assert fd.K_N == pytest.approx(0.0, abs=1e-12)
        assert fd.lam == pytest.approx(0.5, rel=1e-10)

    def test_umbilic_ellipse_is_a_point(self):
        ed = ellipse_descriptor(fundamental_data(sphere_r4(-0.2, 0.5)))
        assert ed.semi_major == pytest.approx(0.0, abs=1e-10)
        assert circular(ed)

    def test_frame_undefined_at_umbilic(self):
        with pytest.raises(FrameUndefinedError):
            adapted_frame(fundamental_data(sphere_r4(0.1, 0.2)))


class TestCatenoid:
    def test_minimal_with_planar_normal_bundle(self):
        fd = fundamental_data(catenoid_r4(0.3, 0.5))
        assert fd.lam == pytest.approx(0.0, abs=1e-12)
        assert fd.K == pytest.approx(-1.0 / np.cosh(0.5) ** 4, rel=1e-10)
        assert fd.K_N == pytest.approx(0.0, abs=1e-12)

    def test_frame_undefined_at_minimal_point(self):
        with pytest.raises(FrameUndefinedError):
            adapted_frame(fundamental_data(catenoid_r4(0.3, 0.5)))


def test_rank_deficient_sample_raises():
    # the row is marked irregular, and the frame it lacks raises with det
    w = U(0.1) + V(0.2)
    fd = fundamental_data(Jet2.stack([w, 2.0 * w, Jet2.constant(1.0),
                                      Jet2.constant(2.0)]))
    assert not fd.regular[0]
    with pytest.raises(SingularSampleError) as exc:
        adapted_frame(fd)
    assert exc.value.det == fd.det1[0]


def test_normal_frame_when_largest_projections_are_parallel():
    # every basis vector projects to length 1/sqrt(2); e1 and e2 project to
    # opposite vectors, so the second normal must come from e3 or e4
    xu, xv = (0.0, 0.0, 1.0, 1.0), (-1.0, -1.0, -1.0, -1.0)
    seconds = ((0.3, -0.2, 0.5), (0.1, 0.4, -0.7), (-0.6, 0.2, 0.1),
               (0.25, -0.5, 0.3))
    fd = fundamental_data(Jet2.stack([Jet2(0.0, xu[i], xv[i], *seconds[i])
                                      for i in range(4)]))
    frame = np.column_stack([fd.Y1[:, 0], fd.Y2[:, 0], fd.n1[:, 0],
                             fd.n2[:, 0]])
    assert np.all(np.isfinite(frame))
    assert np.allclose(frame.T @ frame, np.eye(4), atol=1e-12)
    assert np.linalg.det(frame) > 0.0
    ed = ellipse_descriptor(fd)
    assert ed.semi_major >= ed.semi_minor > 0.0


class TestSphereAmbient:
    def test_clifford_torus_in_s4(self):
        amb = Ambient("sphere", radius=1.0)
        fd = fundamental_data(clifford_s4(0.7, -0.4), amb)
        assert amb.on_manifold_residual(fd.position) < 1e-12
        assert fd.K == pytest.approx(0.0, abs=1e-10)
        assert fd.K_N == pytest.approx(0.0, abs=1e-10)
        assert fd.lam == pytest.approx(7.0 / 24.0, rel=1e-10)

    def test_second_form_tangent_to_sphere(self):
        amb = Ambient("sphere", radius=1.0)
        fd = fundamental_data(clifford_s4(0.2, 0.9), amb)
        radial = fd.position - amb.center_vec()[:, None]
        for b in (fd.Buu, fd.Buv, fd.Bvv):
            assert abs(amb.dot(b, radial)) < 1e-12

    def test_great_sphere_is_totally_geodesic(self):
        amb = Ambient("sphere", radius=1.0)
        fd = fundamental_data(great_sphere_s4(0.3, 0.4), amb)
        assert fd.lam == pytest.approx(0.0, abs=1e-10)
        assert fd.K == pytest.approx(1.0, rel=1e-10)
        for b in (fd.Buu, fd.Buv, fd.Bvv):
            assert np.max(np.abs(b)) < 1e-10


class TestHyperbolicAmbient:
    def test_flat_torus_in_h4(self):
        a, b = 0.6, 0.8
        amb = Ambient("hyperbolic", radius=1.0)
        fd = fundamental_data(flat_torus_h4(0.5, -0.3, a, b), amb)
        assert amb.on_manifold_residual(fd.position) < 1e-12
        assert fd.K == pytest.approx(0.0, abs=1e-10)
        t2 = 1.0 + a * a + b * b
        lam2 = (0.25 * ((1 + 2 * a * a) / a) ** 2
                + 0.25 * ((1 + 2 * b * b) / b) ** 2 - t2)
        assert fd.lam ** 2 == pytest.approx(lam2, rel=1e-10)

    def test_second_form_tangent_to_hyperboloid(self):
        amb = Ambient("hyperbolic", radius=1.0)
        fd = fundamental_data(flat_torus_h4(1.1, 0.4), amb)
        radial = fd.position - amb.center_vec()[:, None]
        for b in (fd.Buu, fd.Buv, fd.Bvv):
            assert abs(amb.dot(b, radial)) < 1e-12
        for nu in (fd.n1, fd.n2):
            assert amb.dot(nu, nu) == pytest.approx(1.0, rel=1e-12)


class TestAdaptedFrame:
    def test_normal_form_recovered_in_place(self):
        fr = adapted_frame(fundamental_data(quadratic_jet(0.9, 0.35)))
        assert fr.lam == pytest.approx(0.9, rel=1e-12)
        assert fr.mu == pytest.approx(0.35, rel=1e-12)
        assert fr.sffa_residual < 1e-12
        assert fr.ambient_det == 1.0
        np.testing.assert_allclose(fr.eta[:, 0], [0, 0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(fr.A_zeta[0], [[0.35, 0], [0, -0.35]],
                                   atol=1e-12)

    def test_pattern_beats_orientation(self):
        fr = adapted_frame(fundamental_data(quadratic_jet(0.9, 0.35, flip=True)))
        assert fr.ambient_det == -1.0
        np.testing.assert_allclose(fr.A_zeta[0], [[0.35, 0], [0, -0.35]],
                                   atol=1e-12)
        np.testing.assert_allclose(fr.zeta_oriented, -fr.zeta, atol=1e-15)

    def test_commutator_in_adapted_frame(self):
        # the adapted pattern forces K_N = 2 mu^2 up to the frame sign
        fd = fundamental_data(quadratic_jet(1.2, 0.4))
        fr = adapted_frame(fd)
        [comm] = fr.A_eta @ fr.A_zeta - fr.A_zeta @ fr.A_eta
        assert comm[1, 0] == pytest.approx(2 * fr.mu ** 2, rel=1e-12)
        assert abs(fd.K_N) == pytest.approx(2 * fr.mu ** 2, rel=1e-12)

    def test_frame_invariance_under_rotations(self):
        rng = np.random.default_rng(20240817)
        base = quadratic_jet(0.8, 0.3)
        for _ in range(6):
            q = random_so4(rng)
            t = rng.uniform(0, 2 * np.pi)
            moved = reparam_rot(transform(base, q), np.cos(t), np.sin(t))
            fr = adapted_frame(fundamental_data(moved))
            assert fr.lam == pytest.approx(0.8, rel=1e-9)
            assert fr.mu == pytest.approx(0.3, rel=1e-9)
            assert fr.sffa_residual < 1e-9
            np.testing.assert_allclose(fr.eta[:, 0], q @ [0, 0, 1, 0],
                                       atol=1e-9)


class TestInvariance:
    def test_curvatures_under_ambient_and_parameter_rotation(self):
        pair = q0_pair()
        base = pair.samples_at(complex(0.3, 0.2)).g
        fd0 = fundamental_data(base)
        rng = np.random.default_rng(7)
        for _ in range(5):
            q = random_so4(rng)
            t = rng.uniform(0, 2 * np.pi)
            fd = fundamental_data(
                reparam_rot(transform(base, q), np.cos(t), np.sin(t)))
            assert fd.K == pytest.approx(fd0.K, rel=1e-9, abs=1e-12)
            assert fd.K_N == pytest.approx(fd0.K_N, rel=1e-9, abs=1e-12)
            assert fd.lam == pytest.approx(fd0.lam, rel=1e-9, abs=1e-12)
            e0 = ellipse_descriptor(fd0)
            e1 = ellipse_descriptor(fd)
            assert e1.semi_major == pytest.approx(e0.semi_major, rel=1e-9)
            assert e1.semi_minor == pytest.approx(e0.semi_minor, rel=1e-9)


def sheared_torus(u, v):
    # non-orthogonal parametrization so F != 0 exercises the basis change
    uu = Jet2(u + 0.3 * v, 1.0, 0.3, 0.0, 0.0, 0.0)
    vv = Jet2.coordinate_v(v)
    return Jet2.stack([uu.cos(), uu.sin(), 0.6 * vv.cos(), 0.6 * vv.sin()])


def shape_matrix_coords(fd, nu):
    """Shape operator of nu on the coordinate basis (d/du, d/dv)."""
    return _coord_shape(fd.Xu, fd.Xv, (fd.Buu, fd.Buv, fd.Bvv), nu,
                        fd.ambient.dot)


def test_shape_matrix_bases_agree():
    fd = fundamental_data(sheared_torus(0.4, 1.1))
    [E], [F], [G] = fd.E, fd.F, fd.G
    assert abs(F) > 1e-3
    w = np.sqrt(G - F ** 2 / E)
    M = np.array([[np.sqrt(E), F / np.sqrt(E)], [0.0, w]])
    for nu in (fd.n1, fd.n2):
        [a_on] = shape_matrix(fd, nu)
        [a_co] = shape_matrix_coords(fd, nu)
        np.testing.assert_allclose(M @ a_co @ np.linalg.inv(M), a_on,
                                   atol=1e-10)


@np.errstate(divide="ignore", invalid="ignore")
def test_coord_shape_records_a_singular_row_and_solves_the_rest():
    # row 1 has Xu = Xv = 0: its failure is recorded in the sink, and the
    # batch still gives row 0's shape operator
    Xu = np.array([[2.0, 0.0], [0, 0], [0, 0], [0, 0]])
    Xv = np.array([[1.0, 0.0], [1, 0], [0, 0], [0, 0]])
    nu = np.array([[0.0, 0.0], [0, 0], [1, 1], [0, 0]])
    seconds = [np.full((4, 2), k) for k in (1.0, 2.0, 3.0)]
    with row_failures(2) as failed:
        A = _coord_shape(Xu, Xv, seconds, nu, R4.dot)
    assert failed.rows(SingularSampleError).tolist() == [False, True]
    E, F, G = 4.0, 2.0, 2.0
    np.testing.assert_allclose(
        A[0], np.linalg.solve([[E, F], [F, G]], [[1.0, 2.0], [2.0, 3.0]]),
        rtol=1e-15)


def test_pypow_is_python_pow_and_inf_past_the_float_range():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((50, 2)) * 10.0 ** rng.uniform(-70, 70, (50, 1))
    for n in (2, 3, 4):
        y = _pypow(x, n)
        assert y.shape == x.shape
        assert y.view(np.uint64).tolist() == np.array(
            [[a ** n for a in row] for row in x.tolist()]).view(
                np.uint64).tolist()
    big = np.array([1e200, -1e200, 3.0, np.nan, -np.inf])
    assert _pypow(big, 2).tolist()[:3] == [np.inf, np.inf, 9.0]
    assert _pypow(big, 3).tolist()[:3] == [np.inf, -np.inf, 27.0]
    assert np.isnan(_pypow(big, 2)[3]) and _pypow(big, 3)[4] == -np.inf


def test_ambient_validation():
    with pytest.raises(ValueError):
        Ambient("plane")
    with pytest.raises(ValueError):
        Ambient("sphere", radius=0.0)
    with pytest.raises(PreconditionError):
        fundamental_data(torus_r4(0, 0), Ambient("sphere", radius=1.0))
