"""Conjugate-pair splitting, domains, certification, associated family."""

import numpy as np
import pytest

from superconf.construct import reflection_pair_check, translation_check
from superconf.errors import DomainError, PreconditionError
from superconf.expr import CurveExpr
from superconf.geometry import R4
from superconf.jets import Jet2
from superconf.minimal import (
    Domain,
    HolomorphicCurve,
    MinimalPair,
    SplitSample,
    associated_family,
    certify,
    point_set,
)
from superconf.moebius import (
    Inversion,
    _graph_fields,
    degenerate_collapse_check,
    duality,
    pair_transform_check,
    quadric_classification,
    recover_complex_structure,
)

CAT_DOM = Domain(-2.0, 2.0, -1.5, 1.5)


def catenoid_pair():
    return MinimalPair(HolomorphicCurve(
        "catenoid-helicoid", "(cos(z), sin(z), -i*z, 0)", CAT_DOM))


# The split one component at a time, each component's Jet2 stacked after:
# the reference the vector split must match.  g_v is Re(iF'), split from i
# times the window of F'.

def reference_re_part(w0, w1, w2):
    return Jet2(w0.real, w1.real, -w1.imag, w2.real, -w2.imag, -w2.real)


def reference_im_part(w0, w1, w2):
    return Jet2(w0.imag, w1.imag, w1.real, w2.imag, w2.real, -w2.imag)


def reference_pair_fields(jet):
    """(g, h, g_u, g_v) of the components of a curve's vector jet."""
    comps = [jet[i] for i in range(4)]
    g = Jet2.stack([reference_re_part(j.c0, j.c1, j.c2) for j in comps])
    h = Jet2.stack([reference_im_part(j.c0, j.c1, j.c2) for j in comps])
    g_u = Jet2.stack([reference_re_part(j.c1, j.c2, j.c3) for j in comps])
    g_v = Jet2.stack([reference_re_part(j.c1 * 1j, j.c2 * 1j, j.c3 * 1j)
                      for j in comps])
    return g, h, g_u, g_v


def reference_graph_fields(jet):
    """Position and coordinate fields of the R4 graph of the first two
    components of a curve's vector jet."""
    comps = [jet[0], jet[1]]
    pos = Jet2.stack([f(j.c0, j.c1, j.c2) for j in comps
                      for f in (reference_re_part, reference_im_part)])
    fu, fv = [], []
    for j in comps:
        re = reference_re_part(j.c1, j.c2, j.c3)
        im = reference_im_part(j.c1, j.c2, j.c3)
        fu += [re, im]
        fv += [-im, re]
    return pos, Jet2.stack(fu), Jet2.stack(fv)


# components of random curves: constant, linear and polynomial ones among
# them, so that whole slots of the curve's jet are constant
COMPONENTS = ["{a}", "0", "{a}*z + {b}", "{a}*z^2 - {b}*z", "z^3*{a} + z",
              "exp({a}*z)", "sin(z)*{a}", "{a}/(z + 3)", "cosh(z) - z*{b}",
              "sqrt(z + 4)", "log(z + 5)*{a}"]


def random_curve(rng, arity):
    def coefficient():
        x, y = rng.uniform(-2, 2, 2).round(3).tolist()
        return f"({x!r} + {y!r}*i)"

    comps = [rng.choice(COMPONENTS).format(a=coefficient(), b=coefficient())
             for _ in range(arity)]
    return HolomorphicCurve("random", f"({', '.join(comps)})",
                            Domain(-1.0, 1.0, -1.0, 1.0))


def assert_same_bits(got, want):
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(got.slots, want.slots, strict=True))


class TestDomain:
    def test_rectangle_membership(self):
        d = Domain(-1, 1, 0, 2)
        assert d.contains(complex(0.5, 1.0))
        assert not d.contains(complex(1.5, 1.0))
        assert not d.contains(complex(0.0, -0.1))

    def test_excluded_disc(self):
        d = Domain(-1, 1, -1, 1, excluded=((0j, 0.25),))
        assert not d.contains(0.2 + 0.1j)
        assert d.contains(0.3 + 0.2j)

    def test_lattice_is_inset_with_u_varying_slowest(self):
        z = Domain(0, 4, -2, 2, excluded=((0j, 9.0),)).lattice(3, 2, 0.25)
        assert z.shape == (3, 2)
        assert z.ravel().tolist() == [1 - 1j, 1 + 1j, 2 - 1j, 2 + 1j,
                                      3 - 1j, 3 + 1j]

    def test_grid_skips_exclusions(self):
        d = Domain(-1, 1, -1, 1, excluded=((0j, 0.25),))
        pts = d.grid(5, 5)
        assert 0j not in pts
        assert len(pts) == 24

    def test_empty_rectangle_rejected(self):
        with pytest.raises(ValueError):
            Domain(1, 1, 0, 2)

    @pytest.mark.parametrize("bounds", [
        (-1e308, 1e308, -1, 1), (-1, 1, -1e308, 1e308),
        (0, float("inf"), 0, 1), (float("-inf"), 0, 0, 1)])
    def test_unbounded_width_rejected(self, bounds):
        # the lattice's inset would be 0 * inf, a nan lattice
        with pytest.raises(ValueError, match="finite width"):
            Domain(*bounds)


class TestSplit:
    def test_catenoid_and_helicoid_values(self):
        s = catenoid_pair().samples_at(complex(0.7, -0.4))
        u, v = 0.7, -0.4
        np.testing.assert_allclose(
            s.g.v.T[0],
            [np.cos(u) * np.cosh(v), np.sin(u) * np.cosh(v), v, 0.0],
            atol=1e-15)
        np.testing.assert_allclose(
            s.h.v.T[0],
            [-np.sin(u) * np.sinh(v), np.cos(u) * np.sinh(v), -u, 0.0],
            atol=1e-15)

    def test_conjugate_norm_at_1_1(self):
        s = catenoid_pair().samples_at(complex(1.0, 1.0))
        assert R4.dot(s.h, s.h).sqrt().v == pytest.approx(np.cosh(1.0),
                                                          rel=1e-14)

    def test_conjugacy_is_slot_exact(self):
        # h = Im F, so h_u = Im F' and h_v = Im(i F'), each split from the
        # window of F', F'' and F''' in the curve's own jets: -g_v and g_u
        pair = catenoid_pair()
        z = complex(0.3, 0.8)
        s = pair.samples_at(z)
        jet = pair.curve.eval_jets(z)
        h_u = reference_im_part(jet.c1, jet.c2, jet.c3)
        h_v = reference_im_part(1j * jet.c1, 1j * jet.c2, 1j * jet.c3)
        for a, b in zip((-s.g_v).slots, h_u.slots, strict=True):
            assert np.array_equal(a, b)
        for a, b in zip(s.g_u.slots, h_v.slots, strict=True):
            assert np.array_equal(a, b)

    def test_derivative_fields_match_position_jets(self):
        s = catenoid_pair().samples_at(complex(-0.6, 0.2))
        np.testing.assert_allclose(s.g_u.v, s.g.du, atol=1e-15)
        np.testing.assert_allclose(s.g_v.v, s.g.dv, atol=1e-15)
        np.testing.assert_allclose(s.g_u.dv, s.g_v.du, atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_vector_split_is_the_per_component_split(self, seed):
        # g, h, g_u and the graph's position and fields are the reference's
        # bits, every slot (4, n); g_v = -Im F' is the reference's Re(iF')
        # but for the signs of exact zeros
        rng = np.random.default_rng(seed)
        z = rng.uniform(-0.9, 0.9, 17) + 1j * rng.uniform(-0.9, 0.9, 17)
        curves = [random_curve(rng, 4) for _ in range(8)]
        curves.append(HolomorphicCurve("line", "(z, i*z, 0, 0)", CAT_DOM))
        for curve in curves:
            s = MinimalPair(curve).samples_at(z)
            g, h, g_u, g_v = reference_pair_fields(curve.eval_jets(z))
            for got, want in ((s.g, g), (s.h, h), (s.g_u, g_u)):
                assert_same_bits(got, want)
            for a, b in zip(s.g_v.slots, g_v.slots, strict=True):
                assert a.shape == b.shape == (4, z.size)
                assert np.array_equal(a, b)
                assert ((np.signbit(a) == np.signbit(b)) | (a == 0)).all()
        for curve in [random_curve(rng, 2) for _ in range(8)]:
            want = reference_graph_fields(curve.eval_jets(z))
            for got, w in zip(_graph_fields(curve, z), want, strict=True):
                assert_same_bits(got, w)

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            catenoid_pair().samples_at(complex(3.0, 0.0))

    def test_h_offset_translates_conjugate_only(self):
        pair = catenoid_pair()
        moved = pair.translated([0.0, 1.0, -2.0, 0.5])
        z = complex(0.4, 0.6)
        s0, s1 = pair.samples_at(z), moved.samples_at(z)
        np.testing.assert_allclose(s1.g.v.T, s0.g.v.T, atol=1e-15)
        np.testing.assert_allclose(
            (s1.h.v.T - s0.h.v.T)[0], [0.0, 1.0, -2.0, 0.5],
            atol=1e-15)
        np.testing.assert_allclose(s1.h.du, s0.h.du, atol=1e-15)


class TestJoin:
    def test_one_sample_is_its_own_join(self):
        s = catenoid_pair().samples_at([0.4 + 0.6j, -1.0 + 0.2j])
        assert SplitSample.join([s]) is s

    def test_joined_rows_are_each_samples_bits(self):
        # two curves, the second with a translated h
        plane = MinimalPair(HolomorphicCurve(
            "plane", "(z, i*z, 0, 0)", CAT_DOM)).translated([1.0, -2.0, 0, 3])
        parts = [catenoid_pair().samples_at([0.4 + 0.6j, -1.0 + 0.2j, 1.5j]),
                 plane.samples_at([0.1 - 0.3j, 1.2 + 1.0j])]
        joined = SplitSample.join(parts)
        assert joined.z.tolist() == parts[0].z.tolist() + parts[1].z.tolist()
        for field in ("g", "h", "g_u", "g_v"):
            slots = [getattr(s, field).slots for s in parts]
            for k, slot in enumerate(getattr(joined, field).slots):
                assert slot.shape == (4, 5)
                for rows, part in ((slot[:, :3], slots[0][k]),
                                   (slot[:, 3:], slots[1][k])):
                    assert (rows.view(np.uint64).tolist()
                            == part.view(np.uint64).tolist()), (field, k)


class TestCertify:
    def test_catenoid_certificate(self):
        pair = catenoid_pair()
        rep = certify(pair, pair.domain.grid(9, 9, 0.05))
        assert rep["isotropy_max"] < 1e-14
        assert rep["minimality_max"] < 1e-12
        assert rep["regularity_min"] > 1e-3

    def test_flat_plane_certificate(self):
        dom = Domain(-1, 1, -1, 1)
        rep = certify(MinimalPair(HolomorphicCurve("line", "(z, i*z, 0, 0)",
                                                   dom)), dom.grid(9, 9, 0.05))
        assert rep["isotropy_max"] < 1e-15
        assert rep["minimality_max"] < 1e-14

    def test_non_isotropic_curve_flagged(self):
        dom = Domain(-1, 1, -1, 1)
        rep = certify(MinimalPair(HolomorphicCurve("skew", "(z, 2*i*z, 0, 0)",
                                                   dom)), dom.grid(9, 9, 0.05))
        assert rep["isotropy_max"] > 0.5

    def test_empty_grid_rejected(self):
        with pytest.raises(PreconditionError):
            certify(catenoid_pair(), grid=[])


class TestAssociatedFamily:
    def test_quarter_turn_swaps_the_pair(self):
        pair = catenoid_pair()
        rot = associated_family(pair, np.pi / 2)
        z = complex(0.5, -0.3)
        s0, s1 = pair.samples_at(z), rot.samples_at(z)
        np.testing.assert_allclose(s1.g.v.T, s0.h.v.T, atol=1e-12)
        np.testing.assert_allclose(s1.h.v.T, -s0.g.v.T, atol=1e-12)

    def test_metric_is_preserved(self):
        pair = catenoid_pair()
        z = complex(0.4, 0.7)
        s0 = pair.samples_at(z)
        for theta in (np.pi / 8, 3 * np.pi / 8):
            s = associated_family(pair, theta).samples_at(z)
            assert R4.dot(s.g_u, s.g_u).v == pytest.approx(
                R4.dot(s0.g_u, s0.g_u).v, rel=1e-12)

    def test_family_member_still_isotropic(self):
        member = associated_family(catenoid_pair(), 0.37)
        rep = certify(member, member.domain.grid(5, 5, 0.05))
        assert rep["isotropy_max"] < 1e-13
        assert rep["minimality_max"] < 1e-12


class TestPointSet:
    def test_a_point_a_sequence_and_an_array_are_one_dimensional(self):
        for points, n in ((0.5 + 1j, 1), ([1, 2j, 3.0], 3),
                          (CAT_DOM.lattice(3, 4), 12)):
            z = point_set(points)
            assert z.dtype == complex and z.shape == (n,)
        np.testing.assert_array_equal(point_set((1, 2j)), [1, 2j])

    @pytest.mark.parametrize("check", [
        lambda pair, z: certify(pair, z),
        lambda pair, z: translation_check(pair, (0.3, 0.0, 0.0, 0.0), z),
        lambda pair, z: reflection_pair_check(pair, z),
        lambda pair, z: pair_transform_check(
            pair, Inversion(center=(0.0, 0.0, 0.0, 5.0)), z),
        lambda pair, z: recover_complex_structure(pair, z),
        lambda pair, z: degenerate_collapse_check(pair, z),
        lambda pair, z: quadric_classification(pair, z),
        lambda pair, z: duality(HolomorphicCurve(
            "graph", "(z, z^2)", CAT_DOM), z),
    ], ids=["certify", "translation_check", "reflection_pair_check",
            "pair_transform_check", "recover_complex_structure",
            "degenerate_collapse_check", "quadric_classification",
            "duality"])
    @pytest.mark.parametrize("empty", [[], np.array([], complex)],
                             ids=["list", "array"])
    def test_every_check_refuses_an_empty_point_set(self, check, empty):
        with pytest.raises(PreconditionError, match="no sample points"):
            check(catenoid_pair(), empty)


def test_curve_text_round_trip():
    c = HolomorphicCurve("t", "(cos(z), sin(z), -i*z, 0)", CAT_DOM)
    assert c.to_text() == CurveExpr.parse(c.to_text()).to_text()


def test_programmatic_expression_accepted():
    expr = CurveExpr.parse("(z, i*z, 0, 0)")
    c = HolomorphicCurve("prog", expr, Domain(-1, 1, -1, 1))
    np.testing.assert_allclose(
        c.eval(0.5 + 0.5j)[:, 0],
        [0.5 + 0.5j, -0.5 + 0.5j, 0, 0], atol=1e-15)
