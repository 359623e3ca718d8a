import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from superconf import catalog, construct
from superconf.construct import (A_FLOOR, FLAG_A_SMALL, FLAG_G_HOLOMORPHIC,
                                 FLAG_RANK_DEFICIENT, _assemble, _jhat_parts,
                                 build_phi_pair, check_sign, dual_pair_report,
                                 extract_minimal_pair, phi_value,
                                 reflection_pair_check, translation_check)
from superconf.errors import (FrameDegenerateError, FrameUndefinedError,
                              PreconditionError, SingularSampleError)
from superconf.geometry import (_blas_dot, _normal_parts, _sqrt0, _sym2,
                                ellipse_descriptor, fundamental_data)
from superconf.jets import Jet2, fd_crosscheck, row_failures
from superconf.minimal import Domain, HolomorphicCurve, MinimalPair
from test_cli import count_calls

_JMAT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _col(x):
    """A batch of numbers as a column, to scale (n, dim) rows by."""
    return np.asarray(x)[..., None]


def _row_dot(a, b):
    """_blas_dot of two batches given as (n, dim) rows."""
    return _blas_dot(a.T, b.T)


def construction_frame(pair, z):
    """Oracle: the frame quantities of the decomposition
    h = -r (g_* grad r + a xi) at z, one point or a 1-d array of points.

    Where a is below floor (h tangent to g) the xi/delta normals fall back
    to g's first normal; bxi_residual, the defect of the identity
    a r B_xi = (r Hess r - S) J, is nan there."""
    s = pair.samples_at(z)
    ctx = _assemble(s)
    g, r, E = s.g, ctx.r, ctx.E
    gu_val, gv_val = s.g_u.values(), s.g_v.values()

    grad_u = ctx.ru / E
    grad_v = ctx.rv / E
    a_val = ctx.a

    # J(p du + q dv) = (q, -p) in coefficients, so Z = -J grad r = (-q, p)
    Z_amb = _col(-grad_v.v) * gu_val + _col(grad_u.v) * gv_val
    Tvec = np.stack((r.v * grad_v.v, -r.v * grad_u.v), -1)

    fallback = a_val <= A_FLOOR
    [hN] = _normal_parts([s.h.values()], gu_val, gv_val,
                         lambda a, b: _col(_row_dot(a, b)))
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = -hN / _col(a_val * r.v)
    if np.any(fallback):
        xi = np.where(_col(fallback), ctx.fd_g.n1.T, xi)
    xt, xn = scalar_jhat_parts(gu_val.T, gv_val.T, xi.T)
    # = Jhat(-) xi
    inv_w = 1.0 / (E * ctx.G - ctx.F * ctx.F).sqrt()
    delta_minus = (np.stack(xt, -1) - np.stack(xn, -1)) * _col(inv_w.v)

    # Hessian of r w.r.t. the conformal metric E(du^2 + dv^2), expressed in
    # the orthonormal tangent frame; Christoffels in closed form from E
    Eu, Ev = E.du, E.dv
    iE = 1.0 / E.v
    huu = r.duu - 0.5 * iE * (Eu * r.du - Ev * r.dv)
    huv = r.duv - 0.5 * iE * (Ev * r.du + Eu * r.dv)
    hvv = r.dvv - 0.5 * iE * (-Eu * r.du + Ev * r.dv)
    rho = np.stack((r.du, r.dv), -1) / _col(np.sqrt(E.v))
    S = np.eye(2) - rho[..., :, None] * rho[..., None, :]

    # a r B_xi = (r hess - S) J, entry by entry
    ar = a_val * r.v
    lhs = _sym2(*(ar * (_row_dot(w, xi) * iE)
                  for w in (g.duu.T, g.duv.T, g.dvv.T)))
    rhs = (_sym2(*(r.v * (h * iE) for h in (huu, huv, hvv))) - S) @ _JMAT
    lhs_max, rhs_max = (np.abs(m).max(axis=(-2, -1)) for m in (lhs, rhs))
    bxi_scale = np.where(fallback, np.nan,
                         np.maximum(np.maximum(1.0, lhs_max), rhs_max))[()]
    bxi_res = np.where(fallback, np.nan,
                       np.abs(lhs - rhs).max(axis=(-2, -1)))[()]

    ng2 = (ctx.ru * ctx.ru + ctx.rv * ctx.rv) / E
    return SimpleNamespace(
        z=s.z, r=r, grad_r=(grad_u, grad_v), norm_grad_r=_sqrt0(ng2.v),
        a=a_val, Z_ambient=Z_amb, Tvec=Tvec, xi=xi, xi_fallback=fallback,
        delta_plus=-delta_minus, delta_minus=delta_minus,
        bxi_residual=bxi_res, bxi_scale=bxi_scale, ctx=ctx)


def phi_route_direct(frame, sign):
    """Value of phi by the closed decomposition g - r g_* grad r + s a r
    delta; agrees with the field route wherever a is away from zero."""
    s = check_sign(sign)
    smp = frame.ctx.sample
    grad_amb = (frame.grad_r[0].v * smp.g_u.values()
                + frame.grad_r[1].v * smp.g_v.values())
    return (smp.g.values() - frame.r.v * grad_amb
            + s * frame.a * frame.r.v * frame.delta_minus)


@pytest.fixture(scope="module")
def catenoid():
    return catalog.get("catenoid-helicoid").pair


@pytest.fixture(scope="module")
def perturbed():
    return catalog.get("q0-trig-perturbed").pair


GENERIC = [complex(1.0, 0.5), complex(1.0, 1.0), complex(2.5, -1.2),
           complex(4.0, 0.8)]


# ----- construction frame (the decomposition oracle above) -----

def test_r_at_1_1_is_cosh_1(catenoid):
    fr = construction_frame(catenoid, 1.0 + 1.0j)
    assert fr.r.v == pytest.approx(np.cosh(1.0), abs=1e-14)


def test_catenoid_frame_closed_forms(catenoid):
    # r^2 = sinh^2 v + u^2 and a = u |tanh v| / r
    for z in GENERIC:
        u, v = z.real, z.imag
        fr = construction_frame(catenoid, z)
        assert fr.r.v == pytest.approx(np.hypot(np.sinh(v), u), abs=1e-12)
        expect_a = abs(u * np.tanh(v)) / fr.r.v
        assert fr.a == pytest.approx(expect_a, abs=1e-12)


def test_gradient_jets_consistent(catenoid):
    fr = construction_frame(catenoid, 1.3 + 0.7j)
    E = fr.ctx.E
    # the gradient coefficients times E are the raw partials of r
    assert fr.grad_r[0].v * E.v == pytest.approx(fr.r.du, abs=1e-12)
    assert fr.grad_r[1].v * E.v == pytest.approx(fr.r.dv, abs=1e-12)
    # the conjugate-field route carries its own derivatives
    assert fr.ctx.ru.v == pytest.approx(fr.r.du, abs=1e-12)
    assert fr.ctx.ru.du == pytest.approx(fr.r.duu, abs=1e-10)
    assert fr.ctx.rv.dv == pytest.approx(fr.r.dvv, abs=1e-10)


def test_gradient_bound_never_exceeded():
    for name in ("catenoid-helicoid", "whitney", "enneper-r3",
                 "q0-trig", "q0-trig-perturbed"):
        pair = catalog.get(name).pair
        z = pair.curve.domain.grid(8, 8, margin=0.05)
        with np.errstate(all="ignore"), row_failures(z.size) as failed:
            fr = construction_frame(pair, z)
        # the points where h vanishes have no frame and are skipped
        assert set(failed.counts()) <= {"FrameDegenerateError"}
        assert (fr.norm_grad_r[~failed.rows()] <= 1.0 + 1e-10).all()


def test_h_decomposition_identity(catenoid):
    # h = r g_*(J grad r) - a r xi; equivalently zeta_c := g_* Z + a xi
    # satisfies zeta_c = -h / r
    for z in GENERIC:
        fr = construction_frame(catenoid, z)
        s = fr.ctx.sample
        gu, gv = s.g_u.values(), s.g_v.values()
        jgrad = fr.grad_r[1].v * gu - fr.grad_r[0].v * gv
        h_rebuilt = fr.r.v * jgrad - fr.a * fr.r.v * fr.xi
        assert np.linalg.norm(h_rebuilt - s.h.values()) < 1e-9 * fr.r.v
        zeta_c = fr.Z_ambient + fr.a * fr.xi
        assert np.allclose(zeta_c, -s.h.values() / fr.r.v, atol=1e-12)


def test_tangential_coefficients_match_Tvec(catenoid):
    fr = construction_frame(catenoid, 1.7 - 0.9j)
    s = fr.ctx.sample
    [gu], [gv], [h] = s.g_u.values(), s.g_v.values(), s.h.values()
    h1, h2 = np.linalg.solve([[gu @ gu, gu @ gv], [gu @ gv, gv @ gv]],
                             [h @ gu, h @ gv])
    [(t1, t2)] = fr.Tvec
    assert h1 == pytest.approx(t1, abs=1e-12)
    assert h2 == pytest.approx(t2, abs=1e-12)


def test_frame_normals_unit_and_orthogonal(catenoid):
    fr = construction_frame(catenoid, 1.0 + 0.5j)
    [xi], [delta_plus], [delta_minus] = fr.xi, fr.delta_plus, fr.delta_minus
    assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(delta_plus) == pytest.approx(1.0, abs=1e-12)
    assert xi @ delta_minus == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(delta_plus, -delta_minus)
    s = fr.ctx.sample
    [gu], [gv] = s.g_u.values(), s.g_v.values()
    for n in (xi, delta_minus):
        assert abs(n @ gu) < 1e-12
        assert abs(n @ gv) < 1e-12


def test_bxi_identity(catenoid):
    for z in GENERIC:
        fr = construction_frame(catenoid, z)
        assert fr.bxi_residual < 1e-7 * fr.bxi_scale
    pair = catalog.get("enneper-r3").pair
    fr = construction_frame(pair, 0.8 + 0.4j)
    assert fr.bxi_residual < 1e-7 * fr.bxi_scale


def test_a_zero_line_uses_fallback_frame(catenoid):
    # h(0, v) is tangent to g there: ||grad r|| = 1, a = 0, no error
    fr = construction_frame(catenoid, 1.0j)
    assert fr.a < 1e-12
    assert fr.norm_grad_r == pytest.approx(1.0, abs=1e-12)
    assert fr.xi_fallback
    assert np.isnan(fr.bxi_residual)


def test_h_zero_is_frame_degenerate(catenoid):
    with pytest.raises(FrameDegenerateError):
        construction_frame(catenoid, 0.0j)
    with pytest.raises(FrameDegenerateError):
        build_phi_pair(catenoid, 0.0j)


def test_h_at_the_sqrt_floor_fails_alike_alone_and_in_a_batch(catenoid):
    # ||h||^2 = 1e-14 at z = 1e-7: above the relative floor, at the sqrt floor
    z = np.array([1e-7 + 0j, 0.5 + 0.5j])
    with pytest.raises(FrameDegenerateError):
        build_phi_pair(catenoid, z[0])
    with row_failures(len(z)) as failed:
        build_phi_pair(catenoid, z)
    assert failed.counts() == {"FrameDegenerateError": 1}
    assert failed.rows(FrameDegenerateError).tolist() == [True, False]


def test_bad_sign_rejected(catenoid):
    s = catenoid.samples_at(1.0 + 0.5j)
    with pytest.raises(PreconditionError):
        phi_value(s.g, s.h, "plus")


# ----- build_phi_pair against the closed-form reference -----

def test_phi_matches_reference_with_global_swap(catenoid):
    # frozen outcome: the built "+" surface carries the reference's "-"
    # label and vice versa (one global swap, constant across the domain)
    entry = catalog.get("catenoid-helicoid")
    for z in GENERIC:
        u, v = z.real, z.imag
        plus, minus = build_phi_pair(catenoid, z)
        ref_plus = catalog.expected_eval(entry, "phi", "+", u, v)
        ref_minus = catalog.expected_eval(entry, "phi", "-", u, v)
        assert np.abs(plus.phi.v - ref_minus).max() < 1e-12
        assert np.abs(minus.phi.v - ref_plus).max() < 1e-12


def test_phi_value_on_a_zero_line(catenoid):
    # (0, 1): third coordinate is e^{-1}/cosh 1, fourth vanishes
    ps, _ = build_phi_pair(catenoid, 1.0j)
    expect = np.array([1.0 / np.cosh(1.0), 0.0,
                       np.exp(-1.0) / np.cosh(1.0), 0.0])
    assert np.abs(ps.phi.values() - expect).max() < 1e-14


def test_phi_superconformal_on_catalog_pairs():
    for name in ("catenoid-helicoid", "whitney", "q0-trig-perturbed"):
        pair = catalog.get(name).pair
        us, vs = pair.curve.domain.linspace(5, 5, margin=0.1)
        for u in us:
            for v in vs:
                z = complex(u, v)
                if not pair.curve.domain.contains(z):
                    continue
                try:
                    samples = build_phi_pair(pair, z)
                except FrameDegenerateError:
                    continue
                for ps in samples:
                    if ps.flags != 0:
                        continue
                    ed = ellipse_descriptor(fundamental_data(ps.phi))
                    assert abs(ed.res_orth) < 1e-10, (name, z, ps.sign)
                    assert abs(ed.res_len) < 1e-10, (name, z, ps.sign)
                    assert abs(ed.wintgen_defect_rel) < 1e-10


def test_two_routes_agree(catenoid, perturbed):
    for pair in (catenoid, perturbed):
        for z in (0.9 + 0.6j, 0.5 - 0.4j):
            frame = construction_frame(pair, z)
            if frame.a <= 0.05:
                continue
            for ps in build_phi_pair(pair, z):
                direct = phi_route_direct(frame, ps.sign)
                assert np.abs(direct - ps.phi.values()).max() < 1e-10


def test_phi_jets_match_finite_differences(catenoid):
    def surf(u, v):
        return build_phi_pair(catenoid, u + 1j * v)[0].phi
    rep = fd_crosscheck(surf, (1.1, 0.6))
    assert rep["max"] < 1e-6


def test_phi_jets_match_sympy_closed_form(catenoid):
    # exact oracle: every Jet2 slot of both built surfaces against sympy
    # derivatives of the catalog's closed-form phi, up to one global swap
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v", real=True)
    entry = catalog.get("catenoid-helicoid")
    points = ((1.0, 0.5), (2.0, -0.8), (3.5, 1.2), (-4.5, -0.3), (0.7, 1.4),
              (5.5, 0.9))

    def closed_form(s):
        ch = sp.cosh(v)
        comps = ((sp.cos(u) + u * sp.sin(u)) / ch,
                 (sp.sin(u) - u * sp.cos(u)) / ch,
                 (v * ch - sp.sinh(v)) / ch,
                 s * u * sp.sinh(v) / ch)
        return [[f, sp.diff(f, u), sp.diff(f, v), sp.diff(f, u, 2),
                 sp.diff(f, u, v), sp.diff(f, v, 2)] for f in comps]

    def evaluate(slots, p):
        at = {u: p[0], v: p[1]}
        return np.array([[float(e.evalf(30, subs=at)) for e in comp]
                         for comp in slots])

    exact = {sign: closed_form(1 if sign == "+" else -1) for sign in "+-"}
    errors = {False: 0.0, True: 0.0}
    for p in points:
        for sign in "+-":
            want = catalog.expected_eval(entry, "phi", sign, *p)[:, 0]
            assert np.abs(evaluate(exact[sign], p)[:, 0] - want).max() < 1e-14
        for ps in build_phi_pair(catenoid, complex(*p)):
            jets = np.array([c.slots for c in ps.phi])[..., 0]
            for swapped in (False, True):
                label = ps.sign if not swapped else {"+": "-", "-": "+"}[ps.sign]
                want = evaluate(exact[label], p)
                rel = np.abs(jets - want).max() / max(1.0, np.abs(want).max())
                errors[swapped] = max(errors[swapped], rel)
    assert min(errors.values()) < 1e-12


def test_phi_value_route_agrees_with_field_route(catenoid):
    for z in (1.0 + 0.5j, 2.0 - 1.0j):
        s = catenoid.samples_at(z)
        for ps in build_phi_pair(catenoid, z):
            val = phi_value(s.g, s.h, ps.sign)
            assert np.abs(val - ps.phi.v).max() < 1e-12


# ----- Jhat as one vector-jet pass, against the scalar loop -----

def scalar_act(form, h):
    """Oracle: (A h)_i = sum_j A_ij h_j, term by term in _PAIRS order, one
    component of A and of h at a time."""
    out = [0.0] * 4
    for (i, j), w in zip(construct._PAIRS, form):
        out[i] = out[i] + w * h[j]
        out[j] = out[j] - w * h[i]
    return out


def scalar_jhat_parts(gu, gv, h):
    """Oracle: (W h, *W h) as lists of four components."""
    W = [gu[i] * gv[j] - gu[j] * gv[i] for i, j in construct._PAIRS]
    star = (W[5], -W[4], W[3], W[2], -W[1], W[0])
    return scalar_act(W, h), scalar_act(star, h)


def random_vector_jet(rng, n, integers):
    """A 4-component vector Jet2 over n points with zeros of both signs and
    about a third of its slots constant, (4, 1); small integers make the
    sums cancel exactly."""
    slots = []
    for _ in range(6):
        shape = (4, 1) if rng.random() < 1 / 3 else (4, n)
        if integers:
            x = rng.integers(-2, 3, shape).astype(float)
        else:
            x = rng.normal(size=shape) * np.exp(rng.uniform(-5, 5, shape))
            x[rng.random(shape) < 0.2] = 0.0
        slots.append(x * rng.choice([-1.0, 1.0], shape))
    return Jet2(*slots)


def slot_bytes(jet, n):
    return [np.broadcast_to(x, (4, n)).tobytes() for x in jet.slots]


def value_jet(x):
    """x, (4, n), as a vector jet whose derivatives vanish."""
    return Jet2(x, *[np.zeros((4, 1))] * 5)


@pytest.mark.parametrize("integers", [False, True])
def test_jhat_vector_pass_matches_the_scalar_loop(integers):
    rng = np.random.default_rng(16 + integers)
    n = 9
    zeros = 0
    for _ in range(40):
        gu, gv, h = (random_vector_jet(rng, n, integers) for _ in range(3))
        for got, want in zip(_jhat_parts(gu, gv, h),
                             scalar_jhat_parts(gu, gv, h), strict=True):
            want = Jet2.stack(want)
            assert slot_bytes(got, n) == slot_bytes(want, n)
            zeros += sum(np.count_nonzero(np.signbit(x) & (x == 0))
                         for x in want.slots)
        # the values alone, as phi_value passes them: vector jets whose
        # derivatives vanish, against the scalar loop on float arrays
        values = [np.broadcast_to(x.v, (4, n)) for x in (gu, gv, h)]
        for got, want in zip(_jhat_parts(*map(value_jet, values)),
                             scalar_jhat_parts(*values), strict=True):
            assert got.v.tobytes() == np.array(want).tobytes()
    assert zeros > 0


def test_phi_value_matches_the_scalar_loop(catenoid, monkeypatch):
    # phi_value before the vector pass: the scalar loop on the float arrays
    rng = np.random.default_rng(5)
    z = rng.uniform(0.2, 6.0, 40) + 1j * rng.uniform(-1.5, 1.5, 40)
    s = catenoid.samples_at(z)
    got = [phi_value(s.g, s.h, sign).tobytes() for sign in "+-"]
    monkeypatch.setattr(construct, "_jhat_parts", lambda *jets: tuple(
        value_jet(np.array(part))
        for part in scalar_jhat_parts(*(j.v for j in jets))))
    assert got == [phi_value(s.g, s.h, sign).tobytes() for sign in "+-"]


# ----- regularity flags -----

def test_flags_generic_point_all_clear(catenoid):
    ps, _ = build_phi_pair(catenoid, 1.0 + 0.5j)
    assert ps.flags == 0


def test_flags_a_small_on_axis(catenoid):
    ps, _ = build_phi_pair(catenoid, 1.0j)
    assert ps.flags & FLAG_A_SMALL
    assert not ps.flags & FLAG_RANK_DEFICIENT
    assert ps.flags == 1


def test_flags_holomorphic_pair_one_sign_degenerates():
    pair = catalog.get("q0-trig").pair
    z = 0.4 + 0.3j
    plus, minus = build_phi_pair(pair, z)
    assert plus.flags & FLAG_G_HOLOMORPHIC
    assert plus.flags & FLAG_RANK_DEFICIENT
    assert plus.flags == 6
    assert not minus.flags & FLAG_G_HOLOMORPHIC
    assert not minus.flags & FLAG_RANK_DEFICIENT
    # the collapsed sign is constant: compare two far-apart points
    other, _ = build_phi_pair(pair, -0.8 - 0.6j)
    assert np.abs(plus.phi.values() - other.phi.values()).max() < 1e-12


def test_flags_plane_pair_both_signs_degenerate():
    pair = catalog.get("q0-line").pair
    for ps in build_phi_pair(pair, 0.5 + 0.4j):
        assert ps.flags & FLAG_G_HOLOMORPHIC
        assert ps.flags & FLAG_RANK_DEFICIENT


# pairs whose built surfaces degenerate, wholly or in part, and curves scaled
# far from unit size
SCALED = ("(1e-80*z, 1e-80*i*z, 0, 0)", "(1e120*z, 1e120*i*z, 0, 0)",
          "(1e-80*cos(z), 1e-80*sin(z), -1e-80*i*z, 0)",
          "(1e120*sin(z), 1e120*i*sin(z), 1e120*cos(z), 1e120*i*cos(z))")
RANK_FIXTURES = {
    **{name: catalog.get(name).pair
       for name in ("whitney", "q0-line", "q0-trig", "catenoid-helicoid")},
    **{text: MinimalPair(HolomorphicCurve(
        "scaled", text, Domain(-1.0, 1.0, -1.0, 1.0))) for text in SCALED},
}


def test_irregular_phi_is_flagged_rank_deficient():
    """Every row fundamental_data(phi) calls irregular carries the rank
    flag, for both signs: flags and fundamental data read one rounding of
    phi's first form."""
    irregular = 0
    for (name, pair), jitter in itertools.product(RANK_FIXTURES.items(),
                                                  (0.0, 1e-9)):
        z = pair.domain.grid(12, 12)
        z = z + jitter * np.random.default_rng(7).uniform(-1, 1, z.size)
        z = z[pair.domain.contains(z)]
        with np.errstate(all="ignore"), row_failures(z.size):
            for ps in build_phi_pair(pair, z):
                bad = ~fundamental_data(ps.phi).regular
                assert (ps.flags[bad] & FLAG_RANK_DEFICIENT).all(), name
                irregular += np.count_nonzero(bad)
    # the collapsed q0-line surfaces alone give hundreds
    assert irregular > 100


def test_nondegenerate_sign_equals_twice_normal_part():
    pair = catalog.get("q0-trig").pair
    z = 0.4 + 0.3j
    _, ps = build_phi_pair(pair, z)
    s = pair.samples_at(z)
    fd = fundamental_data(s.g)
    [gval], [Xu], [Xv] = s.g.values(), fd.Xu.T, fd.Xv.T
    [E], [F], [G] = fd.E, fd.F, fd.G
    al, be = np.linalg.solve([[E, F], [F, G]], [gval @ Xu, gval @ Xv])
    gN = gval - al * Xu - be * Xv
    assert np.abs(ps.phi.values() - 2.0 * gN).max() < 1e-12


# ----- dual pair report -----

def test_dual_pair_report_catenoid(catenoid):
    for z in GENERIC:
        rep = dual_pair_report(catenoid, z)
        for sign in ("+", "-"):
            assert rep.center_residual[sign] < 1e-9
            assert rep.conformal_residual[sign] < 1e-9
            assert rep.tangency_residual[sign] < 1e-9
        assert rep.metric_relation_residual < 1e-9


def test_dual_pair_report_generic_pair(perturbed):
    rep = dual_pair_report(perturbed, 0.5 + 0.3j)
    for sign in ("+", "-"):
        assert rep.center_residual[sign] < 1e-9
        assert rep.tangency_residual[sign] < 1e-9
    assert rep.metric_relation_residual < 1e-9


def test_dual_pair_report_rejects_collapsed_sign():
    pair = catalog.get("q0-trig").pair
    with pytest.raises(PreconditionError):
        dual_pair_report(pair, 0.4 + 0.3j)


def test_translation_moves_phi_by_offset_norm(catenoid, perturbed):
    offset = (0.3, -0.2, 0.5, 0.1)
    worst = translation_check(catenoid, offset, GENERIC)
    assert worst < 1e-9
    worst = translation_check(perturbed, offset, [0.5 + 0.3j, -0.2 - 0.6j])
    assert worst < 1e-9


def test_build_phi_pair_builds_no_decomposition_frame(monkeypatch, catenoid):
    # phi and its flags for both signs read only one field context, at one
    # point and over an array alike
    contexts = count_calls(monkeypatch, construct, "_assemble")
    build_phi_pair(catenoid, 1.0 + 0.5j)
    build_phi_pair(catenoid, np.array(GENERIC))
    assert [np.size(s.z) for (s,) in contexts] == [1, len(GENERIC)]


def test_dual_pair_report_matches_the_decomposition_oracle(catenoid):
    # the report's g_* Z + a xi is the oracle's, and -h / r by the identity
    for z in GENERIC:
        fr = construction_frame(catenoid, z)
        rep = dual_pair_report(catenoid, z)
        assert (rep.z, rep.r, rep.a) == (fr.z, fr.r.v, fr.a)
        [zeta_c] = fr.Z_ambient + _col(fr.a) * fr.xi
        for ps in build_phi_pair(catenoid, z):
            fd = fundamental_data(ps.phi)
            want = max(abs(zeta_c @ w) / np.linalg.norm(w)
                       for [w] in (fd.Xu.T, fd.Xv.T, fd.H.T))
            assert rep.tangency_residual[ps.sign] == pytest.approx(
                want, rel=1e-12, abs=1e-300)


def test_translation_check_evaluates_each_curve_once(monkeypatch, catenoid):
    from superconf.expr import CurveExpr
    evals = count_calls(monkeypatch, CurveExpr, "eval_jets")
    translation_check(catenoid, (0.3, -0.2, 0.5, 0.1), GENERIC)
    # one array call for the pair and one for its translate
    assert [z.size for _, z in evals] == [len(GENERIC)] * 2


# ----- reflection symmetry for pairs in R3 -----

def test_reflection_for_r3_pairs(catenoid):
    res = reflection_pair_check(catenoid, GENERIC)
    assert res < 1e-10
    enneper = catalog.get("enneper-r3").pair
    res = reflection_pair_check(enneper, [0.8 + 0.4j, -0.5 + 0.9j])
    assert res < 1e-10


def test_reflection_rejects_non_r3_pair():
    whitney = catalog.get("whitney").pair
    with pytest.raises(PreconditionError):
        reflection_pair_check(whitney, [1.0 + 0.5j])


# ----- extraction (converse direction) -----

def test_extraction_round_trip(catenoid):
    z = 1.0 + 0.5j
    s = catenoid.samples_at(z)
    for ps in build_phi_pair(catenoid, z):
        ex = extract_minimal_pair(ps.phi)
        assert np.abs(ex.g - s.g.v).max() < 1e-8
        # h is recovered up to one global sign; the orientation that was
        # used is part of the result
        d_plus = np.abs(ex.h - s.h.v).max()
        d_minus = np.abs(ex.h + s.h.v).max()
        assert min(d_plus, d_minus) < 1e-8
        assert ex.zeta_orientation in (-1.0, 1.0)


def test_extraction_rejects_minimal_surface(catenoid):
    # a minimal surface has ||H|| = 0: no central sphere to extract
    s = catenoid.samples_at(1.0 + 0.5j)
    with pytest.raises(FrameUndefinedError):
        extract_minimal_pair(s.g)


def test_extraction_rejects_constant_map():
    const = Jet2.stack([Jet2(1.0), Jet2(0.0), Jet2(0.0), Jet2(0.0)])
    with pytest.raises(SingularSampleError):
        extract_minimal_pair(const)
