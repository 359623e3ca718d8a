"""Inversions, duality, stereographic bridges, quadric classification."""

import tracemalloc

import numpy as np
import pytest

from superconf import catalog
from superconf.construct import build_phi_pair, extract_minimal_pair
from superconf.errors import (DualitySingularError, FrameUndefinedError,
                              InversionSingularError, NotNullCurveError,
                              PreconditionError, ProjectionError,
                              SuperconfError)
from superconf.geometry import (DIV_FLOOR, Ambient, _normal_part,
                                fundamental_data)
from superconf.jets import Jet2, fail_rows, row_failures
from superconf.minimal import Domain, HolomorphicCurve, MinimalPair, certify
from superconf.moebius import (_J_INDEX, _J_SIGN, Inversion,
                               PairTransformReport,
                               _check_denominator, _graph_fields,
                               degenerate_collapse_check,
                               duality, invert, normal_transform_check,
                               pair_transform_check, quadric_classification,
                               recover_complex_structure, superminimal_test,
                               transformed_curve)

GENERIC = [1.0 + 1.0j, 2.0 - 0.5j, 4.0 + 0.8j]
# multiplication by i on R4 = C2 with coordinates paired (x1+ix2, x3+ix4)
J_AMB = np.array([[0.0, -1.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0],
                  [0.0, 0.0, 1.0, 0.0]])


@pytest.fixture(scope="module")
def catenoid():
    return catalog.get("catenoid-helicoid").pair


@pytest.fixture(scope="module")
def shifted_inversion():
    return Inversion(center=(0.0, 0.0, 0.0, 5.0), radius=1.0)


# -- closed-form oracles ------------------------------------------------------


def signature(inv):
    """The inversion's inner-product signature, one entry per component."""
    s = np.ones(inv.dim)
    if inv.signature == "lorentzian":
        s[-1] = -1.0
    return s


def jet_dot(a, b):
    """The euclidean inner product of two vector jets, written out here so
    the oracles do not lean on geometry.Ambient.dot: the components'
    products summed in component order from 0.0, slot by slot."""
    return Jet2(*(np.add.reduce(x, 0, initial=0.0) for x in (a * b).slots))


def invert_points(x, inv):
    """invert on plain points, (n, dim) or one dim-vector as a batch of
    one, through their constant jets; (n, dim) rows."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return invert(Jet2.stack([Jet2(c) for c in x.T]), inv).v.T


def inversion_point(x, inv):
    """The inversion of one point in closed form:
    c + s r^2 (x - c) / <x - c, x - c>, s the signature orientation."""
    d = np.asarray(x, dtype=float) - inv.center
    q = float(np.sum(signature(inv) * d * d))
    return inv.center + inv.orientation * (inv.radius ** 2 / q) * d


def inversion_differential(x, w, inv):
    """Tangent vector w at x pushed forward through the inversion.

    The differential is the reflection in the hyperplane orthogonal to
    x - c, scaled by the conformal factor radius^2 / <x - c, x - c>."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    sig = signature(inv)
    d = x - inv.center
    q = float(np.sum(sig * d * d))
    _check_denominator(q, d)
    refl = w - (2.0 * float(np.sum(sig * w * d)) / q) * d
    return inv.orientation * (inv.radius ** 2 / q) * refl


class NullQuadricError(SuperconfError):
    """holomorphic_inversion evaluated on the null quadric."""


def holomorphic_inversion(Z, radius=1.0):
    """radius^2 Z / <<Z, Z>> with the complex-bilinear square downstairs.

    Sends the quadric of constant level k to the one of level radius^4 / k;
    undefined on the null quadric."""
    Z = np.asarray(Z, dtype=complex)
    k = complex(np.sum(Z * Z))
    scale = float(np.sum(np.abs(Z) ** 2))
    if abs(k) <= DIV_FLOOR * max(scale, 1e-300):
        raise NullQuadricError(
            f"<<Z, Z>> = {k:.3e} vanishes; the quadratic inversion is "
            "undefined on the null quadric")
    return (radius ** 2) * Z / k


def inversion_pair_of_holomorphic(curve, inv, z):
    """Conjugate pair of an inverted graph surface, in closed form.

    For a two-component holomorphic curve with graph f, the minimal pair
    attached to the inversion of f is
    g = c + r^2 (f-c)^N / (2 ||(f-c)^N||^2) and h = J g-part, where the
    normal plane is rotated by the ambient complex structure.  The
    orientation of that rotation is fixed so the recovered pair matches the
    catalog closed forms for the Whitney-type graph; the opposite choice
    merely flips h.  Returns (g, h) values."""
    if inv.signature != "euclidean" or inv.dim != 4:
        raise PreconditionError("pair inversion works in euclidean R4")
    pos, fu, fv = _graph_fields(curve, z)
    d = pos - Jet2.stack(inv.center)
    dN = _normal_part(d, fu, fv, jet_dot)
    [n2] = jet_dot(dN, dN).v
    [scale] = jet_dot(d, d).v + jet_dot(fu, fu).v
    if n2 <= 1e-24 * max(scale, 1e-300):
        raise InversionSingularError(
            f"normal component of f - c vanishes at z = {z}; the inverted "
            "pair is undefined")
    r2 = inv.radius ** 2
    [dN] = dN.v.T
    g = inv.center + r2 * dN / (2.0 * n2)
    h = r2 * (J_AMB @ dN) / (2.0 * n2)
    return g, h


# -- inversions of flat space -------------------------------------------------


def test_inversion_validation():
    with pytest.raises(PreconditionError):
        Inversion(center=np.zeros(4), radius=0.0)
    with pytest.raises(PreconditionError):
        Inversion(center=np.zeros(4), signature="riemannian")
    with pytest.raises(PreconditionError):
        Inversion(center=np.zeros(3))
    # the lorentzian product needs the fifth coordinate
    with pytest.raises(PreconditionError):
        Inversion(center=np.zeros(4), signature="lorentzian")


def test_invert_is_involutive_and_fixes_the_sphere():
    rng = np.random.default_rng(3)
    inv = Inversion(center=(0.5, -1.0, 2.0, 0.0), radius=1.7)
    for _ in range(20):
        x = rng.normal(size=4) * 3.0
        assert np.linalg.norm(
            invert_points(invert_points(x, inv), inv) - x) < 1e-12
    d = rng.normal(size=4)
    on_sphere = inv.center + inv.radius * d / np.linalg.norm(d)
    assert np.linalg.norm(invert_points(on_sphere, inv) - on_sphere) < 1e-12


def test_invert_lorentzian_involutive():
    inv = Inversion(center=np.zeros(5), radius=1.3, signature="lorentzian")
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.normal(size=5)
        q = x[:4] @ x[:4] - x[4] ** 2
        if abs(q) < 0.3:
            continue
        assert np.linalg.norm(
            invert_points(invert_points(x, inv), inv) - x) < 1e-10


def test_invert_singular_at_center_and_cone():
    inv = Inversion(center=np.zeros(4), radius=1.0)
    with pytest.raises(InversionSingularError):
        invert_points(np.zeros(4), inv)
    linv = Inversion(center=np.zeros(5), radius=1.0, signature="lorentzian")
    with pytest.raises(InversionSingularError):
        invert_points(np.array([1.0, 0.0, 0.0, 0.0, 1.0]), linv)


def test_invert_vec_matches_points_and_chain_rule(catenoid, shifted_inversion):
    for z in GENERIC:
        smp = build_phi_pair(catenoid, z)[0].phi
        image = invert(smp, shifted_inversion)
        [x] = smp.v.T
        assert np.linalg.norm(
            image.v.T - inversion_point(x, shifted_inversion)) < 1e-12
        # jets transform by the differential of the point map
        for w, got in ((smp.du.T, image.du.T), (smp.dv.T, image.dv.T)):
            want = inversion_differential(smp.v.T, w, shifted_inversion)
            assert np.linalg.norm(got - want) < 1e-10


def test_inversion_is_conformal():
    rng = np.random.default_rng(11)
    inv = Inversion(center=(1.0, 0.0, -2.0, 0.5), radius=2.0)
    for _ in range(25):
        x = rng.normal(size=4) * 2.5
        w1, w2 = rng.normal(size=4), rng.normal(size=4)
        p1 = inversion_differential(x, w1, inv)
        p2 = inversion_differential(x, w2, inv)
        before = (w1 @ w2) / (np.linalg.norm(w1) * np.linalg.norm(w2))
        after = (p1 @ p2) / (np.linalg.norm(p1) * np.linalg.norm(p2))
        assert abs(after - before) < 1e-10


# -- normal and shape-operator transport --------------------------------------


def test_normal_transform_euclidean(catenoid, shifted_inversion):
    for z in GENERIC:
        smp = build_phi_pair(catenoid, z)[0].phi
        fd = fundamental_data(smp)
        for xi in (fd.n1, fd.n2):
            rep = normal_transform_check(smp, xi, shifted_inversion)
            assert rep["max"] < 1e-7


def test_normal_transform_lorentzian():
    entry = catalog.get("h4-flat-torus")
    sig = np.array([1.0, 1.0, 1.0, 1.0, -1.0])
    for center in (np.zeros(5), np.array([0.0, 0.0, 0.0, 0.0, -1.0])):
        inv = Inversion(center=center, radius=1.0, signature="lorentzian")
        for (u, v) in ((0.7, 1.3), (2.1, 0.4)):
            smp = entry.surface(u, v)
            Xu, Xv = smp.du.T, smp.dv.T
            E = np.sum(sig * Xu * Xu)
            F = np.sum(sig * Xu * Xv)
            G = np.sum(sig * Xv * Xv)
            seed = np.eye(5)[0]
            a, b = np.linalg.solve(
                [[E, F], [F, G]],
                [np.sum(sig * seed * Xu), np.sum(sig * seed * Xv)])
            n = seed - a * Xu - b * Xv
            n = n / np.sqrt(np.sum(sig * n * n))
            rep = normal_transform_check(smp, n.T, inv)
            assert rep["max"] < 1e-7


def test_normal_transform_rejects_bad_normals(catenoid, shifted_inversion):
    smp = build_phi_pair(catenoid, 1.0 + 1.0j)[0].phi
    Xu = smp.du.T
    tangent = Xu / np.linalg.norm(Xu)
    with pytest.raises(PreconditionError):
        normal_transform_check(smp, tangent.T, shifted_inversion)
    fd = fundamental_data(smp)
    with pytest.raises(PreconditionError):
        normal_transform_check(smp, 2.0 * fd.n1, shifted_inversion)


# -- quadratic inversion of curves --------------------------------------------


def test_holomorphic_inversion_maps_quadric_levels(catenoid):
    curves = [catenoid.curve,
              catalog.get("enneper-r3").pair.curve,
              catalog.get("q0-trig-perturbed").pair.curve]
    rng = np.random.default_rng(5)
    for curve in curves:
        for radius in (1.0, 2.0):
            for _ in range(5):
                z = complex(rng.uniform(0.3, 1.2), rng.uniform(-0.4, 0.4))
                if not curve.domain.contains(z):
                    continue
                Z = curve.eval(z)
                k = complex(np.sum(Z * Z))
                if abs(k) < 1e-6:
                    continue
                W = holomorphic_inversion(Z, radius)
                target = radius ** 4 / k
                assert abs(complex(np.sum(W * W)) - target) < 1e-10 * abs(target)


def test_holomorphic_inversion_rejects_null_vectors():
    with pytest.raises(NullQuadricError):
        holomorphic_inversion(np.array([1.0, 1.0j, 0.0, 0.0]))


def test_transformed_curve_matches_hand_composition(catenoid):
    tc = transformed_curve(catenoid.curve, 1.0, center=(0, 0, 0, 5j))
    fixture = HolomorphicCurve(
        "hand",
        "(cos(z)/(-24 - z^2), sin(z)/(-24 - z^2), -i*z/(-24 - z^2), "
        "-5*i/(-24 - z^2))",
        catenoid.domain)
    for z in GENERIC:
        assert np.max(np.abs(tc.eval(z) - fixture.eval(z))) < 1e-14
    # over an array of points: one column of values per point
    cols = tc.eval(np.array(GENERIC))
    assert cols.shape == (4, len(GENERIC)) and cols.dtype == complex
    for col, z in zip(cols.T, GENERIC):
        assert np.array_equal(col, tc.eval(z)[:, 0])


def test_transformed_curve_is_involutive(catenoid):
    back = transformed_curve(
        transformed_curve(catenoid.curve, 1.0, np.zeros(4)), 1.0, np.zeros(4))
    for z in GENERIC:
        assert np.max(np.abs(back.eval(z) - catenoid.curve.eval(z))) < 1e-12


def test_transformed_pairs_recertify():
    # pairs off the null quadric stay conjugate minimal pairs after the
    # quadratic inversion; q0-* entries sit on the quadric and are excluded
    for name in ("catenoid-helicoid", "enneper-r3"):
        pair = catalog.get(name).pair
        tc = transformed_curve(pair.curve, 1.0, np.zeros(4))
        rep = certify(MinimalPair(tc), tc.domain.grid(7, 7, 0.05))
        assert rep["isotropy_max"] < 1e-8
        assert rep["minimality_max"] < 1e-8
        assert rep["regularity_min"] > 1e-10


# -- duality of graph surfaces ------------------------------------------------


def test_duality_closed_form_value():
    graph = catalog.get("whitney").aux["graph_curve"]
    rep = duality(graph, 1.0 + 0j)
    assert rep.value[:, 0] == pytest.approx(
        np.array([0.25, 0.0, 0.25, 0.0]), abs=1e-12)


def test_duality_residuals_on_three_curves():
    dom = Domain(-3.0, 3.0, -3.0, 3.0, excluded=(((0.0 + 0.0j), 0.05),))
    for text in ("(z, 1/z)", "(z, z^2)", "(z, exp(z))"):
        curve = HolomorphicCurve("probe", text, dom)
        for z in (0.8 + 0.4j, -1.1 + 0.9j, 1.6 - 1.2j):
            rep = duality(curve, z)
            assert rep.antiholo < 1e-9
            assert rep.involution < 1e-9
            assert rep.conformality < 1e-9


def test_duality_singular_and_arity_errors():
    dom = Domain(-2.0, 2.0, -2.0, 2.0)
    flat = HolomorphicCurve("flat", "(z, 0)", dom)
    with pytest.raises(DualitySingularError):
        duality(flat, 0.5 + 0.3j)
    four = HolomorphicCurve("four", "(z, z, z, z)", dom)
    with pytest.raises(PreconditionError):
        duality(four, 0.5 + 0.3j)


# -- closed-form pair of an inverted graph ------------------------------------


def test_inverted_pair_matches_catalog_closed_forms():
    graph = catalog.get("whitney").aux["graph_curve"]
    wpair = catalog.get("whitney").pair
    inv = Inversion(center=np.zeros(4), radius=1.0)
    for z in (1.0 + 0j, 0.7 + 0.5j, -1.2 + 0.8j):
        g, h = inversion_pair_of_holomorphic(graph, inv, z)
        assert np.linalg.norm(g - wpair.samples_at(z).g.v.T) < 1e-12
        assert np.linalg.norm(h - wpair.samples_at(z).h.v.T) < 1e-12


def test_inverted_pair_cross_route_extraction():
    graph = catalog.get("whitney").aux["graph_curve"]
    sample = catalog.get("whitney").aux["graph_sample"]
    inv = Inversion(center=np.zeros(4), radius=1.0)
    for z in (1.0 + 0j, 0.7 + 0.5j):
        g, h = inversion_pair_of_holomorphic(graph, inv, z)
        ext = extract_minimal_pair(invert(sample(z), inv))
        [ext_g], [ext_h] = ext.g.T, ext.h.T
        assert np.linalg.norm(ext_g - g) < 1e-6
        assert min(np.linalg.norm(ext_h - h), np.linalg.norm(ext_h + h)) < 1e-6


def test_inverted_graph_is_the_surviving_envelope():
    # the whitney pair sits on the null quadric: one constructed surface
    # collapses and the other reproduces the inverted graph pointwise
    wpair = catalog.get("whitney").pair
    sample = catalog.get("whitney").aux["graph_sample"]
    inv = Inversion(center=np.zeros(4), radius=1.0)
    for z in (1.0 + 0j, 0.7 + 0.5j, -1.2 + 0.8j):
        image = invert(sample(z), inv).v.T
        survivors = [ps for ps in build_phi_pair(wpair, z)
                     if not ps.flags]
        assert [ps.sign for ps in survivors] == ["-"]
        assert np.linalg.norm(survivors[0].phi.v.T - image) < 1e-8


def test_inverted_pair_radius_scaling():
    graph = catalog.get("whitney").aux["graph_curve"]
    z = 0.7 + 0.5j
    g1, h1 = inversion_pair_of_holomorphic(
        graph, Inversion(center=np.zeros(4), radius=1.0), z)
    g2, h2 = inversion_pair_of_holomorphic(
        graph, Inversion(center=np.zeros(4), radius=2.0), z)
    assert np.linalg.norm(g2 - 4.0 * g1) < 1e-12
    assert np.linalg.norm(h2 - 4.0 * h1) < 1e-12


# -- dual-route pair transformation -------------------------------------------


def test_pair_transform_dual_routes(catenoid, shifted_inversion):
    points = catenoid.domain.grid(20, 20, margin=0.0)
    rep = pair_transform_check(catenoid, shifted_inversion, points)
    assert rep.sup < 1e-9
    assert rep.h_convention in ("+", "-")
    assert rep.n_points == 2 * len(points)
    assert rep.n_skipped == 0 and rep.skipped == {}


def test_pair_transform_counts_skips_by_reason():
    # a circular ellipse of g collapses the Whitney pair's "+" surface at
    # every point (flags 2 and 4), so each of the 36 points skips one sample
    wpair = catalog.get("whitney").pair
    inv = Inversion(center=(0.0, 0.0, 0.0, 5.0), radius=1.0)
    points = wpair.domain.grid(6, 6)
    rep = pair_transform_check(wpair, inv, points)
    assert rep.skipped == {"flagged": 36}
    assert rep.n_skipped == sum(rep.skipped.values()) == len(points) == 36
    assert rep.n_points == 36


@pytest.mark.parametrize("cls, propagates", [(FrameUndefinedError, False),
                                              (PreconditionError, True)])
def test_pair_transform_counts_or_propagates_row_failures(
        catenoid, shifted_inversion, monkeypatch, cls, propagates):
    # one extracted row of each sign fails: an undefined adapted frame is a
    # skip, and a pattern miss propagates, as each does for the point alone
    from superconf import moebius
    points = catenoid.domain.grid(4, 4, margin=0.05)

    def extract_failing_one_row(image):
        # the images of both signs are one batch, the plus rows first
        assert len(image.v[0]) == 2 * len(points)
        ext = extract_minimal_pair(image)
        fail_rows(np.arange(len(ext.lam)) % len(points) == 3,
                  lambda k: cls("row 3"))
        return ext

    monkeypatch.setattr(moebius, "extract_minimal_pair",
                        extract_failing_one_row)
    if propagates:
        with pytest.raises(cls):
            pair_transform_check(catenoid, shifted_inversion, points)
        return
    rep = pair_transform_check(catenoid, shifted_inversion, points)
    assert rep.skipped == {cls.__name__: 2}     # row 3 of either sign
    assert rep.n_points == 2 * len(points) - 2


@pytest.mark.parametrize("name", ["catenoid-helicoid", "whitney",
                                  "enneper-r3"])
@pytest.mark.parametrize("offset", [None, (0.1, -0.3, 0.2, 0.4)])
def test_pair_transform_reads_the_shifted_curve_off_the_sample(name, offset):
    # the null-quadric guard takes G - c + i h_offset as the built sample's
    # (g - c) + i h: the bits of the curve's own values shifted by
    # c - i h_offset
    pair = catalog.get(name).pair
    if offset is not None:
        pair = pair.translated(offset)
    z = pair.domain.grid(7, 5, margin=0.05)
    center = np.array([0.3, -0.2, 0.1, 2.0])
    w = pair.curve.eval(z) - (center - 1j * pair.h_offset)[:, None]
    sample = pair.samples_at(z)
    for got, want in ((sample.g.v - center[:, None], w.real),
                      (sample.h.v, w.imag)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_pair_transform_sup_is_nan_where_either_sup_is():
    for sup_g, sup_h in ((1e-15, np.nan), (np.nan, 1e-15)):
        rep = PairTransformReport(sup_g=sup_g, sup_h=sup_h, h_convention="+",
                                  n_points=1, skipped={})
        assert np.isnan(rep.sup)


def test_pair_transform_huge_radius(catenoid):
    inv = Inversion(center=(0.0, 0.0, 0.0, 5.0), radius=1e3)
    points = catenoid.domain.grid(6, 6, margin=0.05)
    rep = pair_transform_check(catenoid, inv, points)
    assert rep.sup < 1e-6


def test_pair_transform_rejects_null_quadric_pairs():
    wpair = catalog.get("whitney").pair
    inv = Inversion(center=np.zeros(4), radius=1.0)
    with pytest.raises(PreconditionError):
        pair_transform_check(wpair, inv, wpair.domain.grid(4, 4, margin=0.1))


# -- complex structure recovery -----------------------------------------------


def test_complex_structure_table_is_the_matrix():
    # duality applies J as a signed permutation of the components
    assert np.array_equal(_J_SIGN * np.eye(4)[_J_INDEX], J_AMB)


def test_recover_structure_plane_pair():
    line = catalog.get("q0-line").pair
    points = line.domain.grid(5, 5, margin=0.1)
    rep = recover_complex_structure(line, points)
    assert rep.rank == 2
    assert np.allclose(rep.matrix, J_AMB, atol=1e-9)
    assert rep.square_residual < 1e-9
    assert rep.orthogonality_residual < 1e-9
    assert rep.fit_residual < 1e-9
    assert rep.constancy_residual < 1e-9


def test_recover_structure_fits_with_the_thin_svd():
    # the full SVD's U of the (6n, 4) data held (6n)^2 doubles: a 227.5 MB
    # peak at these 900 points
    line = catalog.get("q0-line").pair
    points = line.domain.grid(30, 30, margin=0.1)
    tracemalloc.start()
    try:
        rep = recover_complex_structure(line, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.rank == 2
    assert np.allclose(rep.matrix, J_AMB, atol=1e-9)
    assert peak < 10e6


def test_recover_structure_full_rank_pair():
    trig = catalog.get("q0-trig").pair
    points = trig.domain.grid(5, 5, margin=0.1)
    rep = recover_complex_structure(trig, points)
    assert rep.rank == 4
    assert rep.square_residual < 1e-9
    assert rep.orthogonality_residual < 1e-9
    assert rep.fit_residual < 1e-9
    assert rep.constancy_residual < 1e-9


def test_recover_structure_is_deterministic():
    trig = catalog.get("q0-trig").pair
    points = trig.domain.grid(4, 4, margin=0.1)
    a = recover_complex_structure(trig, points).matrix
    b = recover_complex_structure(trig, points).matrix
    assert np.array_equal(a, b)


def test_recover_structure_rejects_non_null_curves(catenoid):
    with pytest.raises(NotNullCurveError):
        recover_complex_structure(catenoid,
                                  catenoid.domain.grid(3, 3, margin=0.2))


def test_degenerate_collapse(catenoid):
    trig = catalog.get("q0-trig").pair
    points = trig.domain.grid(5, 5, margin=0.1)
    rep = degenerate_collapse_check(trig, points)
    assert rep.collapsed_sign == "+"
    assert rep.variation < 1e-9
    assert np.linalg.norm(rep.center) < 1e-9
    assert rep.companion_residual < 1e-9
    with pytest.raises(NotNullCurveError):
        degenerate_collapse_check(catenoid,
                                  catenoid.domain.grid(3, 3, margin=0.2))


def test_degenerate_collapse_plane():
    line = catalog.get("q0-line").pair
    rep = degenerate_collapse_check(line, line.domain.grid(4, 4, margin=0.1))
    assert rep.variation < 1e-12
    assert rep.companion_residual < 1e-12


# -- stereographic bridges ----------------------------------------------------


def test_sphere_bridge_known_points():
    st = Ambient("sphere", 1.0)
    assert st.to_R4(np.array([1.0, 0, 0, 0, 1.0]))[:, 0] == pytest.approx(
        np.array([2.0, 0, 0, 0]), abs=1e-12)
    assert st.to_R4(np.zeros(5))[:, 0] == pytest.approx(np.zeros(4),
                                                        abs=1e-12)
    assert st.from_R4(np.zeros(4))[:, 0] == pytest.approx(np.zeros(5),
                                                          abs=1e-12)


def test_sphere_bridge_round_trip():
    rng = np.random.default_rng(7)
    for radius in (1.0, 2.5):
        st = Ambient("sphere", radius)
        for _ in range(25):
            x = rng.normal(size=4) * 3.0
            assert np.linalg.norm(st.to_R4(st.from_R4(x))[:, 0] - x) < 1e-11
            P = st.from_R4(x)
            assert st.on_manifold_residual(P) < 1e-11


def test_hyperbolic_bridge_round_trip_and_ball():
    rng = np.random.default_rng(9)
    st = Ambient("hyperbolic", 1.0)
    [P] = st.from_R4(np.array([1.99, 0.0, 0.0, 0.0])).T
    q = P[:4] @ P[:4] - (P[4] + 1.0) ** 2
    assert abs(q + 1.0) < 1e-10
    for _ in range(25):
        d = rng.normal(size=4)
        x = d / np.linalg.norm(d) * 1.95 * rng.random()
        assert np.linalg.norm(st.to_R4(st.from_R4(x))[:, 0] - x) < 1e-11
    with pytest.raises(ProjectionError):
        st.from_R4(np.array([2.0, 0.0, 0.0, 0.2]))


def test_bridge_rejects_bad_points():
    st = Ambient("sphere", 1.0)
    with pytest.raises(ProjectionError):
        st.to_R4(np.array([0.5, 0, 0, 0, 1.0]))   # off the sphere
    with pytest.raises(ProjectionError):
        st.to_R4(np.array([0.0, 0, 0, 0, 2.0]))   # opposite pole
    hy = Ambient("hyperbolic", 1.0)
    lower = np.array([0.5, 0.0, 0.0, 0.0, -1.0 - np.sqrt(1.25)])
    with pytest.raises(ProjectionError):
        hy.to_R4(lower)                            # wrong sheet


def test_flat_space_has_no_stereographic_chart():
    with pytest.raises(PreconditionError):
        Ambient("r4").to_R4(np.zeros(5))
    with pytest.raises(PreconditionError):
        Ambient("r4").from_R4(np.zeros(4))
    # the chart takes 5-vectors to 4-vectors
    with pytest.raises(PreconditionError):
        Ambient("sphere").to_R4(np.zeros(4))
    with pytest.raises(PreconditionError):
        Ambient("hyperbolic").from_R4(np.zeros(5))


# -- space-form minimality ----------------------------------------------------


def _grid(entry, nu=6, nv=6, margin=0.08):
    """The (u, v) arrays of a nu x nv grid of the entry's chart."""
    z = entry.domain.lattice(nu, nv, margin)
    return z.real.ravel(), z.imag.ravel()


def test_superminimal_veronese():
    entry = catalog.get("veronese")
    rep = superminimal_test(entry.sample(*_grid(entry)), entry.ambient)
    assert rep.verdict == "superminimal"
    assert rep.max_mean_curvature < 1e-9
    assert rep.max_circularity < 1e-8
    assert not rep.degenerate


def test_superminimal_degenerate_great_sphere():
    entry = catalog.get("great-sphere-s4")
    rep = superminimal_test(entry.sample(*_grid(entry)), entry.ambient)
    assert rep.verdict == "superminimal-degenerate"
    assert rep.degenerate


def test_superminimal_rejects_torus():
    entry = catalog.get("clifford-torus-s4")
    rep = superminimal_test(entry.sample(*_grid(entry)), entry.ambient)
    assert rep.verdict == "not-minimal"
    assert rep.max_mean_curvature == pytest.approx(7.0 / 24.0, abs=1e-9)


def test_far_out_hyperbolic_points_are_on_the_space_form():
    # the flat torus (s cos u, s sin u, s cos v, s sin v, sqrt(1 + 2 s^2) - 1)
    # in H4 of radius 1: the Lorentz norm of a point at |x| = s loses about
    # eps s^2 to rounding, which the per-point rule allows for
    s = 1e4
    hy = Ambient("hyperbolic", 1.0)
    u, v = (Jet2.coordinate_u(np.linspace(0.1, 6.0, 5)),
            Jet2.coordinate_v(np.linspace(0.3, 5.0, 5)))
    torus = Jet2.stack([s * u.cos(), s * u.sin(), s * v.cos(), s * v.sin(),
                        Jet2.constant(np.sqrt(1.0 + 2.0 * s * s) - 1.0)])
    rep = superminimal_test(torus, hy)
    assert rep.verdict == "not-minimal"
    assert rep.max_mean_curvature == pytest.approx(1.0, rel=1e-6)
    assert np.isfinite(hy.to_R4(torus.v)).all()
    # random points as far out, on the sheet through the origin
    d = np.random.default_rng(3).normal(size=(4, 50))
    x = s * d / np.sqrt((d * d).sum(axis=0))
    points = np.concatenate((x, [np.sqrt(1.0 + (x * x).sum(axis=0)) - 1.0]))
    with row_failures(50) as failed:
        hy.check_on(points)
    assert not failed.rows().any()


def test_superminimal_off_manifold_errors():
    entry = catalog.get("veronese")

    def shifted(u, v):
        smp = entry.surface(u, v)
        from superconf.jets import Jet2
        return Jet2.stack([smp[0] + Jet2(0.1)] + list(smp)[1:])

    with pytest.raises(ProjectionError):
        superminimal_test(shifted(*_grid(entry, 2, 2)), entry.ambient)


def test_superminimal_reports_only_the_rows_left_in_a_sink():
    # one point 0.1 off S4: inside a row_failures sink it is counted there
    # and left out of the report, whose verdict the other eight make
    entry = catalog.get("veronese")
    smp = entry.sample(*_grid(entry, 3, 3))
    smp.v[0, 4] += 0.1
    with row_failures(9) as failed:
        rep = superminimal_test(smp, entry.ambient)
    assert failed.counts() == {"ProjectionError": 1}
    assert np.flatnonzero(failed.rows()).tolist() == [4]
    assert rep.verdict == "superminimal" and rep.n_points == 8
    assert rep.max_mean_curvature < 1e-9
    # without a sink the off point raises; with every point off, nothing is
    # left to report on
    with pytest.raises(ProjectionError):
        superminimal_test(smp, entry.ambient)
    smp.v[0] += 0.1
    with row_failures(9) as failed, pytest.raises(PreconditionError):
        superminimal_test(smp, entry.ambient)
    assert failed.counts() == {"ProjectionError": 9}


# -- quadric classification ---------------------------------------------------


def test_quadric_kinds(catenoid):
    assert quadric_classification(
        catenoid, catenoid.domain.grid(4, 4, margin=0.2)).kind == "non-constant"
    trig = catalog.get("q0-trig").pair
    assert quadric_classification(
        trig, trig.domain.grid(4, 4, margin=0.2)).kind == "null"
    line = catalog.get("q0-line").pair
    assert quadric_classification(
        line, line.domain.grid(4, 4, margin=0.2)).kind == "null"
    dom = Domain(-1.0, 1.0, -1.0, 1.0)
    skew = MinimalPair(HolomorphicCurve("skew", "(1 + i, 2, z, i*z)", dom))
    assert quadric_classification(
        skew, dom.grid(4, 4, margin=0.2)).kind == "constant-complex"


def test_quadric_veronese_with_cross_validation():
    entry = catalog.get("veronese")
    pair = entry.aux["pair"]
    points = entry.domain.lattice(6, 6, margin=0.08).ravel()
    rep = quadric_classification(pair, points, immersion=entry.surface,
                                 ambient=entry.ambient)
    assert rep.kind == "constant-real"
    assert abs(rep.k) == pytest.approx(4.0, abs=1e-9)
    assert rep.sign == -1            # measured orientation of the constant
    assert rep.radius == pytest.approx(1.0, abs=1e-9)
    cv = rep.cross_validation
    assert cv["radius_matches"]
    assert cv["space_form"].verdict == "superminimal"
    assert cv["surface_residual"] < 1e-8
    assert cv["surface_sign"] in ("+", "-")
