import collections

import numpy as np
import pytest

from superconf import catalog, jets
from superconf.errors import PreconditionError, UnknownEntryError
from superconf.expr import CurveExpr
from superconf.geometry import (adapted_frame, ellipse_descriptor,
                                fundamental_data)
from superconf.minimal import certify
from test_geometry import circular


ALL_NAMES = [
    "catenoid-helicoid", "clifford-torus-s4", "enneper-r3", "great-sphere-s4",
    "h4-flat-torus", "q0-line", "q0-trig", "q0-trig-perturbed", "sphere",
    "torus", "veronese", "whitney",
]


def test_names_sorted_and_complete():
    assert catalog.names() == ALL_NAMES


def test_unknown_entry_raises():
    with pytest.raises(UnknownEntryError) as exc:
        catalog.get("moebius-strip")
    assert "moebius-strip" in str(exc.value)
    assert isinstance(exc.value, KeyError)


def test_get_caches():
    a = catalog.get("torus")
    assert catalog.get("torus") is a


def test_every_entry_loads_and_certifies():
    # minimal pairs run their numeric certificate on first fetch
    for name in ALL_NAMES:
        entry = catalog.get(name)
        assert entry.name == name


def test_catenoid_pair_certificate_values():
    entry = catalog.get("catenoid-helicoid")
    rep = certify(entry.pair, entry.domain.grid(7, 7, 0.05))
    assert rep["isotropy_max"] < 1e-13
    assert rep["minimality_max"] < 1e-12
    assert rep["regularity_min"] > 1e-3


def test_catenoid_expected_phi_values():
    entry = catalog.get("catenoid-helicoid")
    [p] = catalog.expected_eval(entry, "phi", "+", 0.0, 0.0).T
    assert np.allclose(p, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    [p] = catalog.expected_eval(entry, "phi", "+", 0.0, 1.0).T
    assert np.allclose(p, [0.648054, 0.0, 0.238406, 0.0], atol=5e-7)
    [p] = catalog.expected_eval(entry, "phi", "+", np.pi / 2, 0.0).T
    assert np.allclose(p, [np.pi / 2, 1.0, 0.0, 0.0], atol=1e-15)
    [minus] = catalog.expected_eval(entry, "phi", "-", 1.0, 1.0).T
    [plus] = catalog.expected_eval(entry, "phi", "+", 1.0, 1.0).T
    assert np.allclose(minus[:3], plus[:3])
    assert minus[3] == -plus[3] != 0.0


def test_missing_expected_evaluator_raises():
    entry = catalog.get("torus")
    with pytest.raises(PreconditionError):
        catalog.expected_eval(entry, "phi", "+", 0.0, 0.0)


def test_whitney_display_basepoints():
    entry = catalog.get("whitney")
    # z = 1 maps to the equator point (1, 0, 0) and then to (1, 0, 0, 0)
    [d] = catalog.expected_eval(entry, "display", 1.0 + 0.0j).T
    assert np.allclose(d, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    # poles x = y = 0 collapse to the double point at the origin
    d = catalog.expected_eval(entry, "display", 1e-8 + 0.0j)
    assert np.linalg.norm(d) < 1e-7


def test_whitney_graph_sample():
    entry = catalog.get("whitney")
    s = entry.aux["graph_sample"](1.0 + 0.0j)
    assert np.allclose(s.v.T, [1.0, 0.0, 1.0, 0.0], atol=1e-15)
    # graph of (z, 1/z): derivative of the second slot at z=1 is -1
    assert np.allclose(s.du[:, 0], [1.0, 0.0, -1.0, 0.0], atol=1e-15)
    assert np.allclose(s.dv[:, 0], [0.0, 1.0, 0.0, -1.0], atol=1e-15)


def test_whitney_pair_matches_graph_normal_component():
    # the pair's g doubles as the normal-bundle half of the graph embedding:
    # at z = 1 the recorded closed forms give g = (1/4, 0, 1/4, 0) and
    # h = (0, 1/4, 0, 1/4)
    entry = catalog.get("whitney")
    s = entry.pair.samples_at(1.0 + 0.0j)
    assert np.allclose(s.g.v.T, [0.25, 0.0, 0.25, 0.0], atol=1e-15)
    assert np.allclose(s.h.v.T, [0.0, 0.25, 0.0, 0.25], atol=1e-15)


def test_torus_control_is_not_superconformal():
    entry = catalog.get("torus")
    fd = fundamental_data(entry.sample(0.7, 1.3))
    ed = ellipse_descriptor(fd)
    assert ed.wintgen_defect > 0.1
    assert not circular(ed)


def test_sphere_control_is_umbilic():
    # the round unit sphere: its curvature ellipse is the point H at every
    # point, so the Wintgen defect vanishes and no adapted frame exists
    entry = catalog.get("sphere")
    z = entry.domain.lattice(7, 7, margin=0.02)
    fd = fundamental_data(entry.sample(z.real.ravel(), z.imag.ravel()))
    assert fd.regular.all()
    ed = ellipse_descriptor(fd)
    assert (ed.semi_major <= 1e-10).all() and (ed.semi_minor <= 1e-10).all()
    assert not ed.res_orth.any() and not ed.res_len.any()
    assert np.abs(ed.wintgen_defect).max() < 1e-12
    with jets.row_failures(fd.E.size) as failed:
        adapted_frame(fd)
    assert failed.counts() == {"FrameUndefinedError": fd.E.size}


def test_q0_trig_perturbed_quadric_value_varies():
    entry = catalog.get("q0-trig-perturbed")
    vals = []
    for z in (0.2 + 0.1j, 0.7 - 0.4j):
        jets = entry.pair.curve.eval_jets(z)
        vals.append(sum(j.c0 * j.c0 for j in jets))
    assert abs(vals[0] - vals[1]) > 0.01


def test_q0_trig_quadric_value_is_zero():
    entry = catalog.get("q0-trig")
    jets = entry.pair.curve.eval_jets(0.3 - 0.8j)
    q = sum(j.c0 * j.c0 for j in jets)
    assert abs(q) < 1e-14


def test_space_form_entries_sit_on_their_manifolds():
    for name in ("clifford-torus-s4", "great-sphere-s4", "h4-flat-torus",
                 "veronese"):
        entry = catalog.get(name)
        for z in entry.domain.lattice(4, 4, margin=0.05).ravel().tolist():
            x = entry.sample(z.real, z.imag).v
            assert entry.ambient.on_manifold_residual(x) < 1e-12


def test_veronese_g_at_equator():
    g = catalog.veronese_g(0.0, np.pi / 2)
    assert np.allclose(g.v.T, [0.0, 0.0, 0.0, 2.0 / np.sqrt(3.0)],
                       atol=1e-15)


def test_veronese_certificate():
    rep = catalog.certify_veronese()
    assert rep["metric_mismatch"] < 1e-12
    assert rep["minimality_max"] < 1e-12
    # the recorded metric display disagrees with the pair by the exact
    # global factor 4/3; the raw comparison sees a 1/4 relative gap and
    # the rescaled comparison closes to machine precision
    assert rep["metric_vs_expected"] == pytest.approx(0.25, abs=1e-9)
    assert rep["metric_vs_expected_scaled"] < 1e-12


def test_veronese_pair_normal_projection_route():
    # independent construction of the pair: project f - 2 e5 onto the
    # normal bundle of the immersion inside the sphere, scale by
    # 2/||.||^2, and rotate by 90 degrees for the conjugate member
    e5 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    for (u, v) in ((0.7, 1.1), (1.9, 2.0), (4.1, 0.6)):
        f = catalog.veronese_immersion(u, v)
        [fval], [fu], [fv] = f.v.T, f.du.T, f.dv.T
        P = fval - 2.0 * e5
        gram = np.array([[fu @ fu, fu @ fv], [fv @ fu, fv @ fv]])
        al, be = np.linalg.solve(gram, [P @ fu, P @ fv])
        rad = fval - e5
        PN = P - al * fu - be * fv
        PN -= (PN @ rad) * rad
        n2 = PN @ PN
        g5 = 2.0 * e5 + 2.0 * PN / n2
        [g] = catalog.veronese_g(u, v).v.T
        assert np.allclose(g5, np.append(g, 0.0), atol=1e-12)


def test_expression_text_round_trips():
    for name in ("catenoid-helicoid", "whitney", "enneper-r3", "q0-trig"):
        entry = catalog.get(name)
        text = entry.expression_text()
        reparsed = CurveExpr.parse(text)
        z = 0.37 + 0.21j
        a = [j.c0.z for j in entry.pair.curve.expr.eval_jets(z)]
        b = [j.c0.z for j in reparsed.eval_jets(z)]
        assert np.allclose(a, b, atol=0.0, rtol=0.0)


def test_surface_entry_has_no_expression():
    with pytest.raises(PreconditionError):
        catalog.get("sphere").expression_text()


def test_pair_entry_has_no_surface_sampler():
    with pytest.raises(PreconditionError):
        catalog.get("q0-line").sample(0.5, 0.5)


@pytest.fixture
def real_math_calls(monkeypatch):
    """A Counter of the calls of each real elementary function."""
    calls = collections.Counter()
    table = jets._REAL_BATCH_MATH
    for name, fn in vars(table).copy().items():
        def counting(x, name=name, fn=fn):
            calls[name] += 1
            return fn(x)
        monkeypatch.setattr(table, name, counting)
    return calls


@pytest.mark.parametrize("sampler, bases", [
    (catalog.get("torus").surface, 2),
    (catalog.get("h4-flat-torus").surface, 2),
    (catalog.veronese_immersion, 2),
    (catalog.veronese_g, 3),
    (catalog.veronese_h, 3),
])
def test_each_sin_cos_pair_of_a_sampler_is_computed_once(real_math_calls,
                                                         sampler, bases):
    u, v = np.linspace(0.4, 2.0, 7), np.linspace(0.5, 2.5, 7)
    sampler(u, v)
    assert real_math_calls == {"sin": bases, "cos": bases}
