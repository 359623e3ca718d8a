"""Built-in acceptance suite: every check the package certifies itself with.

Each criterion function measures one published property of the construction
at its stated tolerance and returns a result object; run_all executes the
whole list.  The suite is honest: two known discrepancies between the
recorded closed-form displays and the actual geometry are asserted at face
value and fail, each with a companion measurement pinning down the exact
mismatch.  See the test suite for the same checks run under pytest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog
from .construct import (SIGNS, build_phi_pair, dual_pair_report,
                        reflection_pair_check, translation_check)
from .errors import ExpressionError
from .expr import parse_curve, print_node
from .export import (canonical_json, csv_text, mesh_text, obj_text,
                     sample_grid, stereo_projector, summarize)
from .geometry import (Ambient, _normal_parts, _vec_norm,
                       ellipse_descriptor, fundamental_data)
from .jets import fd_crosscheck
from .minimal import (Domain, HolomorphicCurve, MinimalPair,
                      associated_family, certify)
from .moebius import (Inversion, degenerate_collapse_check, duality, invert,
                      normal_transform_check, pair_transform_check,
                      quadric_classification, recover_complex_structure,
                      superminimal_test, transformed_curve)

CAT_GRID_U = (0.2, 2.0 * np.pi - 0.2, 64)
CAT_GRID_V = (-1.5, 1.5, 64)


@dataclass(frozen=True)
class CriterionResult:
    key: str
    title: str
    passed: bool
    detail: str


def _cat_grid():
    (u0, u1, nu), (v0, v1, nv) = CAT_GRID_U, CAT_GRID_V
    return Domain(u0, u1, v0, v1).grid(nu, nv)


def _inset(dom, margin):
    """dom with its rectangle shrunk as dom.linspace(..., margin) shrinks it,
    so that sample_grid covers the points of dom.grid(..., margin)."""
    (u0, u1), (v0, v1) = dom.linspace(2, 2, margin)
    return Domain(u0, u1, v0, v1, dom.excluded)


def _clear_worst(rows):
    """(worst residual, count) over the unflagged rows of sample_grid runs."""
    worst = []
    for sign_rows in rows:
        clear = sign_rows.clear_floats
        worst += map(max, map(abs, clear("res_orth")),
                     map(abs, clear("res_len")), clear("wintgen_rel"))
    return max(worst, default=0.0), len(worst)


def criterion_1() -> CriterionResult:
    """Constructed catenoid/helicoid surfaces equal the closed form."""
    entry = catalog.get("catenoid-helicoid")
    pair = entry.pair
    grid = _cat_grid()

    built = {ps.sign: ps.phi.v for ps in build_phi_pair(pair, grid)}
    want = {s: catalog.expected_eval(entry, "phi", s, grid.real, grid.imag)
            for s in SIGNS}
    swapped = (np.linalg.norm(built["+"][:, 0] - want["+"][:, 0])
               > np.linalg.norm(built["-"][:, 0] - want["+"][:, 0]))
    label = {"+": "-", "-": "+"} if swapped else {"+": "+", "-": "-"}

    sup = max(float(_vec_norm(values - want[label[sign]]).max())
              for sign, values in built.items())
    # the global label swap is part of the frozen convention
    passed = bool(sup < 1e-9 and swapped)
    return CriterionResult(
        "1", "catenoid/helicoid closed form on a 64x64 grid", passed,
        f"sup {sup:.3e} (tol 1e-9), labels swapped globally: "
        f"{'yes' if swapped else 'no'} (recorded: yes)")


def criterion_2() -> CriterionResult:
    """Both constructed surfaces are superconformal; product torus is not."""
    worst = 0.0
    counts = {}
    for name in ("catenoid-helicoid", "whitney", "q0-trig-perturbed"):
        pair = catalog.get(name).pair
        rows = sample_grid(pair, _inset(pair.domain, 0.02), 16, 16, SIGNS)
        pair_worst, counts[name] = _clear_worst(rows)
        worst = max(worst, pair_worst)
        if counts[name] == 0:
            return CriterionResult(
                "2", "superconformality of the constructed surfaces", False,
                f"no unflagged samples for {name}")

    torus = catalog.get("torus")
    us, vs = torus.domain.linspace(12, 12, margin=0.02)
    control = torus.sample(np.repeat(us, len(vs)), np.tile(vs, len(us)))
    min_defect = float(ellipse_descriptor(fundamental_data(control))
                       .wintgen_defect.min())

    passed = worst < 1e-8 and min_defect > 0.1
    return CriterionResult(
        "2", "superconformality of the constructed surfaces", passed,
        f"worst residual {worst:.3e} (tol 1e-8) over "
        f"{sum(counts.values())} samples; torus control min defect "
        f"{min_defect:.3f} (> 0.1)")


def criterion_3() -> CriterionResult:
    """Shared central sphere, conformal factor, metric relation, and rigid
    translation of the conjugate member."""
    pair = catalog.get("catenoid-helicoid").pair
    grid = _cat_grid()
    rep = dual_pair_report(pair, grid)
    # a nan entry (conformal factor undefined) fails the criterion
    worst = {"center": max(c.max() for c in rep.center_residual.values()),
             "conformal": max(np.where(np.isfinite(c), c, np.inf).max()
                              for c in rep.conformal_residual.values()),
             "metric": rep.metric_relation_residual.max()}
    offset = np.array([0.3, -0.2, 0.5, 0.1])
    shift = translation_check(pair, offset, grid)
    passed = (max(worst.values()) < 1e-7 and shift < 1e-9)
    return CriterionResult(
        "3", "shared geometry of the two constructed surfaces", passed,
        f"center {worst['center']:.2e}, conformal {worst['conformal']:.2e}, "
        f"metric {worst['metric']:.2e} (tol 1e-7); translation defect "
        f"{shift:.2e} (tol 1e-9)")


def criterion_4() -> CriterionResult:
    """Sphere inversion of the built surfaces matches the transformed
    holomorphic curve, both routes."""
    pair = catalog.get("catenoid-helicoid").pair
    inv = Inversion(center=(0.0, 0.0, 0.0, 5.0), radius=1.0)
    rep = pair_transform_check(pair, inv, pair.domain.grid(20, 20))
    passed = rep.sup < 1e-5
    return CriterionResult(
        "4", "inversion transform of a conjugate pair, dual routes", passed,
        f"sup {rep.sup:.3e} (tol 1e-5) over {rep.n_points} samples; "
        f"matched conjugate-member convention: {rep.h_convention!r}")


def criterion_5() -> CriterionResult:
    """The transformed curve is again an isotropic conjugate pair."""
    pair = catalog.get("catenoid-helicoid").pair
    tc = transformed_curve(pair.curve, 1.0, center=(0, 0, 0, 5j))
    tpair = MinimalPair(tc)
    grid = tc.domain.grid(12, 12, margin=0.02)
    rep = certify(tpair, grid=grid)
    s = tpair.samples_at(grid)
    gu, gv = s.g_u.v, s.g_v.v
    scale = np.maximum(np.maximum(_vec_norm(gu), _vec_norm(gv)), 1e-300)
    conj = max((_vec_norm(s.h.du + gv) / scale).max(),
               (_vec_norm(s.h.dv - gu) / scale).max())
    passed = (rep["isotropy_max"] < 1e-8 and conj < 1e-8
              and rep["minimality_max"] < 1e-8)
    return CriterionResult(
        "5", "transformed curve re-certifies as a conjugate pair", passed,
        f"isotropy {rep['isotropy_max']:.2e}, conjugacy {conj:.2e}, "
        f"minimality {rep['minimality_max']:.2e} (tol 1e-8)")


def criterion_6() -> CriterionResult:
    """Duality of graph surfaces: anti-holomorphic, involutive, conformal."""
    fixtures = [
        ("(z, 1/z)", Domain(-2.0, 2.0, -2.0, 2.0, excluded=((0j, 0.4),))),
        ("(z, z^2)", Domain(-2.0, 2.0, -2.0, 2.0)),
        ("(z, exp(z))", Domain(-2.0, 2.0, -2.0, 2.0)),
    ]
    worst = {"antiholo": 0.0, "involution": 0.0, "conformality": 0.0}
    for text, dom in fixtures:
        curve = HolomorphicCurve("probe", text, dom)
        # even grid counts keep the origin (dual undefined there) off the
        # lattice
        rep = duality(curve, dom.grid(8, 8, margin=0.05))
        for key in worst:
            worst[key] = max(worst[key], float(getattr(rep, key).max()))
    graph = catalog.get("whitney").aux["graph_curve"]
    value = duality(graph, 1.0 + 0j).value[:, 0]
    value_err = float(np.max(np.abs(value - np.array([0.25, 0.0, 0.25, 0.0]))))
    passed = (worst["antiholo"] < 1e-8 and worst["involution"] < 1e-9
              and worst["conformality"] < 1e-8 and value_err < 1e-12)
    return CriterionResult(
        "6", "duality of graph surfaces", passed,
        f"anti-holo {worst['antiholo']:.2e} (1e-8), involution "
        f"{worst['involution']:.2e} (1e-9), conformality "
        f"{worst['conformality']:.2e} (1e-8); dual value at 1: err "
        f"{value_err:.1e}")


def criterion_7() -> CriterionResult:
    """On the null quadric the recovered rotation is an orthogonal complex
    structure and one surface collapses to the constant it should."""
    details = []
    passed = True
    for name in ("q0-line", "q0-trig"):
        pair = catalog.get(name).pair
        points = pair.domain.grid(6, 6, margin=0.05)
        rec = recover_complex_structure(pair, points)
        col = degenerate_collapse_check(pair, points)
        res = max(rec.square_residual, rec.orthogonality_residual,
                  rec.fit_residual, rec.constancy_residual)
        passed = passed and res < 1e-9 and col.variation < 1e-9 \
            and col.companion_residual < 1e-9
        details.append(f"{name}: structure {res:.1e}, collapse "
                       f"{col.variation:.1e}/{col.companion_residual:.1e} "
                       f"(sign {col.collapsed_sign})")
    return CriterionResult(
        "7", "complex-structure recovery and degenerate collapse", passed,
        "; ".join(details) + " (tol 1e-9)")


def criterion_8a() -> CriterionResult:
    """The surviving surface of the reciprocal-graph pair equals the
    inverted graph pointwise."""
    entry = catalog.get("whitney")
    pair = entry.pair
    sample = entry.aux["graph_sample"]
    inv = Inversion(center=np.zeros(4), radius=1.0)
    grid = pair.domain.grid(12, 12, margin=0.02)
    plus, minus = build_phi_pair(pair, grid)
    odd = np.flatnonzero((plus.flags == 0) | (minus.flags != 0))
    if odd.size:
        return CriterionResult(
            "8a", "inverted graph equals the built surface", False,
            f"unexpected surviving signs at {grid[odd[0]]}")
    image = invert(sample(grid), inv).v
    sup = float(_vec_norm(minus.phi.v - image).max())
    passed = sup < 1e-8
    return CriterionResult(
        "8a", "inverted graph equals the built surface", passed,
        f"sup {sup:.3e} (tol 1e-8) over {len(grid)} points")


def _whitney_display_pair():
    """(X, Y) on criterion 8b's grid: X the inversion of the Whitney graph,
    Y the recorded compact-sphere display, (4, n) each."""
    entry = catalog.get("whitney")
    inv = Inversion(center=np.zeros(4), radius=1.0)
    grid = entry.pair.domain.grid(12, 12, margin=0.02)
    X = invert(entry.aux["graph_sample"](grid), inv).v
    return X, catalog.expected_eval(entry, "display", grid)


def criterion_8b() -> CriterionResult:
    """Inverted graph vs the recorded compact-sphere display (known red).

    The recorded display is the inverted graph scaled by sqrt(2) and
    turned by an orthogonal map (criterion 8b-companion): a similarity, so
    the recorded identification fails at any tolerance.
    """
    X, Y = _whitney_display_pair()
    sup = float(np.max(np.linalg.norm(X - Y, axis=0)))
    passed = sup < 1e-8
    return CriterionResult(
        "8b", "inverted graph vs compact-sphere display", passed,
        f"direct sup {sup:.3e} (tol 1e-8); the display is sqrt(2) times "
        "an orthogonal image of the inverted graph (companion check)")


# the orthogonal map Q of criterion 8b-companion: display = sqrt(2) Q X
WHITNEY_DISPLAY_MAP = np.array([[1, 0, 1, 0], [1, 0, -1, 0], [0, 1, 0, -1],
                                [0, 1, 0, 1]]) / np.sqrt(2.0)


def criterion_8b_companion() -> CriterionResult:
    """The 8b mismatch is exactly the similarity sqrt(2) Q."""
    X, Y = _whitney_display_pair()
    err = float(np.abs(Y - WHITNEY_DISPLAY_MAP @ (np.sqrt(2.0) * X)).max())
    passed = err < 1e-12
    return CriterionResult(
        "8b-companion", "display equals sqrt(2) x Q x inverted graph",
        passed, f"largest component error {err:.3e} (tol 1e-12)")


def criterion_9a() -> CriterionResult:
    """The degree-2 sphere is superminimal in the round 4-sphere."""
    entry = catalog.get("veronese")
    us, vs = entry.domain.linspace(10, 10, margin=0.05)
    rep = superminimal_test(entry.sample(np.repeat(us, 10), np.tile(vs, 10)),
                            entry.ambient)
    passed = rep.verdict == "superminimal"
    return CriterionResult(
        "9a", "degree-2 sphere superminimality", passed,
        f"|H| {rep.max_mean_curvature:.2e} (1e-9), circularity "
        f"{rep.max_circularity:.2e} (1e-8), verdict {rep.verdict}")


def criterion_9b() -> CriterionResult:
    """Pair metric vs the recorded display (known red: factor 4/3)."""
    rep = catalog.certify_veronese()
    passed = rep["metric_vs_expected"] < 1e-9
    return CriterionResult(
        "9b", "degree-2 pair metric vs recorded display", passed,
        f"relative deviation {rep['metric_vs_expected']:.3e} (tol 1e-9); "
        f"measured metric = 4/3 x display exactly (companion check)")


def criterion_9b_companion() -> CriterionResult:
    """The 9b mismatch is exactly the squared prefactor 4/3."""
    rep = catalog.certify_veronese()
    passed = rep["metric_vs_expected_scaled"] < 1e-9
    return CriterionResult(
        "9b-companion", "metric equals 4/3 x recorded display", passed,
        f"relative deviation after restoring the factor: "
        f"{rep['metric_vs_expected_scaled']:.3e} (tol 1e-9)")


def criterion_9c() -> CriterionResult:
    """The degree-2 pair's curve invariant is a real constant of size 4."""
    entry = catalog.get("veronese")
    pair = entry.aux["pair"]
    points = entry.domain.grid(8, 8, margin=0.05)
    rep = quadric_classification(pair, points)
    passed = (rep.kind == "constant-real"
              and rep.max_deviation < 1e-8 * (1.0 + abs(rep.mean))
              and abs(abs(rep.k) - 4.0) < 1e-8)
    return CriterionResult(
        "9c", "degree-2 pair lies on a real quadric of size 4", passed,
        f"kind {rep.kind}, |k| = {abs(rep.k):.12f} (tol 1e-8), measured "
        f"sign {rep.sign:+d} (recorded, not asserted)")


def criterion_10() -> CriterionResult:
    """Inversion transport of unit normals and shape operators, both
    signatures, and stereographic round trips."""
    pair = catalog.get("catenoid-helicoid").pair
    inv = Inversion(center=(0.0, 0.0, 0.0, 5.0), radius=1.0)
    smp = build_phi_pair(pair, np.array([1.0 + 1.0j, 2.0 - 0.5j,
                                         4.0 + 0.8j]))[0].phi
    fd = fundamental_data(smp)
    worst_e = max(float(normal_transform_check(smp, xi, inv)["max"].max())
                  for xi in (fd.n1, fd.n2))

    entry = catalog.get("h4-flat-torus")
    lorentz = Ambient("hyperbolic").dot
    smp = entry.sample(np.array([0.7, 2.1]), np.array([1.3, 0.4]))
    [n] = _normal_parts([np.eye(5)[:, :1]], smp.du, smp.dv, lorentz)
    n = n / np.sqrt(lorentz(n, n))
    worst_l = max(float(normal_transform_check(smp, n, Inversion(
        center=center, radius=1.0, signature="lorentzian"))["max"].max())
        for center in (np.zeros(5), np.array([0.0, 0.0, 0.0, 0.0, -1.0])))

    # the random points in the order of their draws
    rng = np.random.default_rng(17)
    flat, ball = [], []
    for _ in range(30):
        flat.append(rng.normal(size=4) * 2.5)
        d = rng.normal(size=4)
        ball.append(d / np.linalg.norm(d) * 1.9 * rng.random())
    round_trip = max(
        float(_vec_norm(amb.to_R4(amb.from_R4(x)) - x).max())
        for amb, x in ((Ambient("sphere"), np.stack(flat, axis=1)),
                       (Ambient("hyperbolic"), np.stack(ball, axis=1))))

    passed = worst_e < 1e-7 and worst_l < 1e-7 and round_trip < 1e-11
    return CriterionResult(
        "10", "normal transport under inversion and stereographic bridges",
        passed,
        f"transport residual {worst_e:.2e} euclidean / {worst_l:.2e} "
        f"lorentzian (tol 1e-7); stereo round trip {round_trip:.2e} "
        f"(tol 1e-11)")


def criterion_11() -> CriterionResult:
    """For pairs inside a hyperplane the two surfaces are mirror images."""
    details = []
    passed = True
    for name in ("catenoid-helicoid", "enneper-r3"):
        pair = catalog.get(name).pair
        res = reflection_pair_check(pair, pair.domain.grid(10, 10, margin=0.05))
        passed = passed and res < 1e-10
        details.append(f"{name} {res:.2e}")
    return CriterionResult(
        "11", "reflection symmetry of the constructed surfaces", passed,
        ", ".join(details) + " (tol 1e-10)")


def criterion_12() -> CriterionResult:
    """Every member of the associated family builds superconformal
    surfaces."""
    pair = catalog.get("catenoid-helicoid").pair
    dom = Domain(0.2, 2.0 * np.pi - 0.2, -1.5, 1.5)
    worst, n_clear = 0.0, 0
    for k in range(8):
        fam = associated_family(pair, k * np.pi / 8.0)
        fam_worst, n = _clear_worst(sample_grid(fam, dom, 8, 8, SIGNS))
        worst, n_clear = max(worst, fam_worst), n_clear + n
    passed = worst < 1e-8 and n_clear > 0
    return CriterionResult(
        "12", "associated family stays superconformal", passed,
        f"worst residual {worst:.3e} (tol 1e-8) over {n_clear} samples, "
        f"8 phases")


GOLDEN_EXPRESSIONS = (
    "(cos(z), sin(z), -i*z, 0)",
    "(z, 1/z)",
    "(z - z^3/3, i*(z + z^3/3), z^2, 0)",
    "(1/(4*z), i/(4*z), z/4, i*z/4)",
    "(sin(z), i*sin(z), cos(z), i*cos(z))",
    "(z, i*z, 0, 0)",
    "(exp(z), log(z + 3), sqrt(z + 2), sinh(z))",
    "(cosh(z), z^-2, 2.5*z, 0.125)",
    "(z^2^3, -z^2, (-z)^2, -(z + 1))",
    "(1e-3*z, 0)",
    "(z*(z + 1)*(z - 1), z/(z*z), 0, 0)",
    "(i, -i, 2*i, -2*i)",
    "(z - 1 - 2, z - (1 - 2), 0, 0)",
    "(z/2/3, z/(2/3), 0, 0)",
    "(5*i/(-24 - z^2), cos(2*z), 0.25*z, 1)",
    "(sqrt(z + 5), log(exp(z)), 0, 0)",
    "(z + i*z + 3, 1 + 2*i, 0, 0)",
    "(-z^-3, z^10, 0, 0)",
    "(sin(z)*cos(z), sin(z)/cos(z), 0, 0)",
    "(0.5, .25*z, 1.25e2, 0)",
)

MALFORMED_EXPRESSIONS = (
    ("(z, ", 1, 5),
    ("(z", 1, 3),
    ("z", 1, 1),
    ("(z, w)", 1, 5),
    ("(z, 1/)", 1, 7),
    ("(z, z, z)", 1, 1),
    ("(z^z, 0)", 1, 4),
    ("(z^1.5, 0)", 1, 4),
    ("(z + , 0)", 1, 6),
    ("(z, 0) extra", 1, 8),
)


def criterion_13() -> CriterionResult:
    """Finite-difference cross-check of the jets, byte determinism of grid
    output across two runs, and the parser golden suite."""
    pair = catalog.get("catenoid-helicoid").pair
    torus = catalog.get("torus")
    veronese = catalog.get("veronese")

    def phi_plus(u, v):
        return build_phi_pair(pair, u + 1j * v)[0].phi

    fd_worst = max(fd_crosscheck(surface, pts)["max"] for surface, pts in (
        (phi_plus, ((1.0, 1.0), (2.0, -0.5), (4.5, 0.8))),
        (torus.surface, ((0.7, 1.9), (3.0, 4.0))),
        (veronese.surface, ((1.0, 1.2), (2.5, 0.8)))))

    [seq] = sample_grid(pair, pair.domain, 5, 5, ("+",))
    [par] = sample_grid(pair, pair.domain, 5, 5, ("+",))
    stereo = stereo_projector()
    deterministic = (csv_text(seq, 5, 5) == csv_text(par, 5, 5)
                     and mesh_text(seq, 5, 5) == mesh_text(par, 5, 5)
                     and obj_text(seq, 5, 5, stereo)
                     == obj_text(par, 5, 5, stereo)
                     and canonical_json(summarize(seq))
                     == canonical_json(summarize(par)))

    parser_ok = True
    for text in GOLDEN_EXPRESSIONS:
        printed = print_node(parse_curve(text))
        parser_ok = parser_ok and parse_curve(printed) == parse_curve(text)
    for text, line, col in MALFORMED_EXPRESSIONS:
        try:
            parse_curve(text)
            parser_ok = False
        except ExpressionError as exc:
            parser_ok = parser_ok and (exc.line, exc.col) == (line, col)

    passed = fd_worst < 1e-6 and deterministic and parser_ok
    return CriterionResult(
        "13", "jet cross-check, output determinism, parser goldens", passed,
        f"fd deviation {fd_worst:.2e} (tol 1e-6); deterministic: "
        f"{deterministic}; parser goldens: "
        f"{'green' if parser_ok else 'RED'}")


CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8a, criterion_8b,
    criterion_8b_companion, criterion_9a, criterion_9b,
    criterion_9b_companion, criterion_9c, criterion_10, criterion_11,
    criterion_12, criterion_13,
)


def run_all() -> list:
    """Run every criterion; unexpected exceptions become failed results."""
    out = []
    for fn in CRITERIA:
        try:
            out.append(fn())
        except Exception as exc:     # an acceptance run must always report
            key = fn.__name__.replace("criterion_", "").replace("_", "-")
            out.append(CriterionResult(
                key, fn.__doc__.strip().split("\n")[0] if fn.__doc__ else key,
                False, f"raised {type(exc).__name__}: {exc}"))
    return out
