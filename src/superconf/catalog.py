"""Named reference surfaces and curve fixtures.

Three entry kinds:
  minimal-pair          a holomorphic curve with its conjugate pair (g, h)
  space-form-immersion  a parametric surface into S4 or H4 (5 coordinates)
  surface               a parametric control surface in R4

Minimal-pair entries are certified numerically the first time they are
fetched.  Some entries carry closed-form reference evaluators under
`expected`, the values independent checks compare against; their vectors
are (4, n) batches over the points, the layout of the jets' slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import PreconditionError, SingularSampleError, UnknownEntryError
from .geometry import Ambient, R4, _gram, _pypow, fundamental_data
from .jets import Jet2, fail_rows, graph_surface
from .minimal import Domain, HolomorphicCurve, MinimalPair, certify

SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str
    description: str
    ambient: Ambient = R4
    pair: MinimalPair | None = None
    surface: object = None       # (u, v) -> vector Jet2, for surface kinds
    domain: Domain | None = None
    expected: dict = field(default_factory=dict)
    aux: dict = field(default_factory=dict)

    def sample(self, u, v):
        if self.surface is None:
            raise PreconditionError(f"entry {self.name} has no surface sampler")
        return self.surface(u, v)

    def expression_text(self):
        if self.pair is None:
            raise PreconditionError(f"entry {self.name} has no curve expression")
        return self.pair.curve.to_text()


def _catenoid_expected_phi(sign, u, v):
    """Closed-form reference for the constructed surfaces of the
    catenoid/helicoid pair, (4, n) over the points (u, v) (sign is the label
    of one member of the dual pair; the build labels may match this up to
    one global swap)."""
    s = 1.0 if sign == "+" else -1.0
    u, v = np.atleast_1d(u, v)
    ch = np.cosh(v)
    return np.stack((
        (np.cos(u) + u * np.sin(u)) / ch,
        (np.sin(u) - u * np.cos(u)) / ch,
        (v * ch - np.sinh(v)) / ch,
        s * u * np.sinh(v) / ch,
    ))


def _whitney_display(z):
    """Classical compact Whitney-sphere parameterization, (4, n) over the
    points z, under the chart C -> S^2 by stereographic projection from the
    north pole: w(x, y, Z) = (x(1 + iZ), y(1 + iZ)) / (1 + Z^2), read into
    R4 as (Re w1, Im w1, Re w2, Im w2).  Written in real arithmetic that
    rounds as Python's complex arithmetic of the formula does, up to the
    sign of a zero."""
    z = np.atleast_1d(z)
    # |z| ** 2 as Python's abs and float power round it
    r2 = _pypow(np.hypot(z.real, z.imag), 2)
    d = 1.0 + r2
    x, y = 2.0 * z.real / d, 2.0 * z.imag / d
    Z = (r2 - 1.0) / d
    # (1 + iZ) / (1 + Z^2), by CPython's complex quotient
    q = 1.0 + Z * Z
    fr, fi = 1.0 / q, Z / q
    return np.stack((x * fr, x * fi, y * fr, y * fi))


def _whitney_graph_sample(pair_curve):
    def sample(z):
        jets = pair_curve.eval_jets(z)
        return graph_surface(jets)
    return sample


def _cos_sin(x):
    """(cos x, sin x) of a jet, both from one pair of base values."""
    pair = {}
    return x.paired("cos", pair, None), x.paired("sin", pair, None)


def _angles(u, v):
    """(cos u, sin u, cos v, sin v) as jets in the chart (u, v)."""
    return (*_cos_sin(Jet2.coordinate_u(u)), *_cos_sin(Jet2.coordinate_v(v)))


def _torus_surface(u, v):
    cu, su, cv, sv = _angles(u, v)
    return Jet2.stack([cu, su, 0.6 * cv, 0.6 * sv])


def _sphere_surface(u, v):
    cu, su, cv, sv = _angles(u, v)
    return Jet2.stack([cv * cu, cv * su, sv, Jet2.constant(0.0)])


def _clifford_s4_surface(u, v):
    cu, su, cv, sv = _angles(u, v)
    return Jet2.stack([0.8 * cu, 0.8 * su, 0.6 * cv, 0.6 * sv,
                       Jet2.constant(1.0)])


def _great_sphere_s4_surface(u, v):
    cu, su, cv, sv = _angles(u, v)
    return Jet2.stack([cv * cu, cv * su, sv, Jet2.constant(0.0),
                       Jet2.constant(1.0)])


def _h4_torus_surface(u, v):
    cu, su, cv, sv = _angles(u, v)
    t = np.sqrt(1.0 + 0.6 * 0.6 + 0.8 * 0.8)
    return Jet2.stack([0.6 * cu, 0.6 * su, 0.8 * cv, 0.8 * sv,
                       Jet2.constant(t - 1.0)])


# Veronese-type superminimal sphere in S4: immersion in R5 coordinates and
# its conjugate pair in R4 coordinates, all in the chart u = theta, v = phi.

def _veronese_xyz(u, v):
    th, ph = Jet2.coordinate_u(u), Jet2.coordinate_v(v)
    cp, sp = _cos_sin(ph)
    ct, st = _cos_sin(th)
    x = SQRT3 * sp * ct
    y = SQRT3 * sp * st
    z = SQRT3 * cp
    return x, y, z


def veronese_immersion(u, v):
    """Degree-2 spherical immersion into the unit sphere centered at e5."""
    x, y, z = _veronese_xyz(u, v)
    k = 1.0 / (2.0 * SQRT3)
    return Jet2.stack([
        k * 2.0 * x * y,
        k * 2.0 * x * z,
        k * 2.0 * y * z,
        k * (x * x - y * y),
        k * (x * x + y * y - 2.0 * z * z) / SQRT3 + 1.0,
    ])


def _veronese_frames(u, v):
    th, ph = Jet2.coordinate_u(u), Jet2.coordinate_v(v)
    c2t, s2t = _cos_sin(2.0 * th)
    ct, st = _cos_sin(th)
    zero = Jet2.constant(0.0)
    X1 = [s2t, zero, zero, c2t]
    X2 = [zero, ct, st, zero]
    X3 = [c2t, zero, zero, -s2t]
    X4 = [zero, -st, ct, zero]
    return ph, X1, X2, X3, X4


def veronese_g(u, v):
    ph, X1, X2, _, _ = _veronese_frames(u, v)
    cp, sp = _cos_sin(ph)
    f = 2.0 / (SQRT3 * sp * sp)
    w1 = 1.0 + cp * cp
    w2 = 2.0 * sp * cp
    return Jet2.stack([f * (w1 * a - w2 * b) for a, b in zip(X1, X2)])


def veronese_h(u, v):
    ph, _, _, X3, X4 = _veronese_frames(u, v)
    cp, sp = _cos_sin(ph)
    f = 4.0 / (SQRT3 * sp * sp)
    return Jet2.stack([f * (cp * a - sp * b) for a, b in zip(X3, X4)])


def veronese_metric_expected(u, v):
    """(E, F, G) metric oracle for the conjugate pair in the (theta, phi)
    chart, (n, 3) over the points (u, v), kept as recorded with the catalog
    entry.

    Measurement shows the closed-form pair's actual metric equals exactly
    4/3 times this oracle at every chart point: the oracle corresponds to
    the pair with its 2/sqrt(3) prefactor dropped, since (2/sqrt(3))^2 =
    4/3.  certify_veronese reports both the raw comparison and the
    comparison after restoring the factor."""
    v = np.atleast_1d(v)
    c = np.cos(v)
    s = np.sin(v)
    w = 4.0 * (1.0 + 3.0 * c * c)
    # s ** 4 and s ** 6 as the recorded scalar formula rounds them
    return np.column_stack((w / _pypow(s, 4), np.zeros_like(w),
                            w / _pypow(s, 6)))


# the exact mismatch factor between the pair's measured metric and the
# recorded display; see veronese_metric_expected
VERONESE_METRIC_FACTOR = 4.0 / 3.0


class VeronesePair:
    """Conjugate pair given by closed-form evaluators on a non-isothermal
    chart; quacks like MinimalPair where only samples are needed."""

    name = "veronese"

    def __init__(self, domain):
        self.domain = domain

    def samples_at(self, z):
        """The samples g and h at the points z, as attributes."""
        u, v = np.real(z), np.imag(z)
        return SimpleNamespace(g=veronese_g(u, v), h=veronese_h(u, v))


_CAT_DOMAIN = Domain(-7.0, 7.0, -1.6, 1.6)
_WHI_DOMAIN = Domain(-2.2, 2.2, -2.2, 2.2, excluded=((0j, 0.3),))
_VER_DOMAIN = Domain(0.3, 2.0 * np.pi - 0.3, 0.3, np.pi - 0.3)


def _pair_entry(name, text, domain, description, expected=None, aux=None):
    pair = MinimalPair(HolomorphicCurve(name, text, domain))
    return CatalogEntry(name=name, kind="minimal-pair",
                        description=description, pair=pair, domain=domain,
                        expected=expected or {}, aux=aux or {})


def _build_whitney():
    entry = _pair_entry(
        "whitney",
        "(1/(4*z), i/(4*z), z/4, i*z/4)",
        _WHI_DOMAIN,
        "pair whose nondegenerate combination inverts onto a compact "
        "Whitney-type sphere",
        expected={"display": _whitney_display},
    )
    graph = HolomorphicCurve("whitney-graph", "(z, 1/z)", _WHI_DOMAIN)
    entry.aux["graph_curve"] = graph
    entry.aux["graph_sample"] = _whitney_graph_sample(graph)
    return entry


def _build_veronese():
    return CatalogEntry(
        name="veronese",
        kind="space-form-immersion",
        description="degree-2 superminimal sphere in S4 with its conjugate "
                    "pair in closed form",
        ambient=Ambient("sphere", radius=1.0),
        surface=veronese_immersion,
        domain=_VER_DOMAIN,
        expected={"metric": veronese_metric_expected},
        aux={"pair": VeronesePair(_VER_DOMAIN)},
    )


_BUILDERS = {
    "catenoid-helicoid": lambda: _pair_entry(
        "catenoid-helicoid", "(cos(z), sin(z), -i*z, 0)", _CAT_DOMAIN,
        "catenoid and helicoid as one conjugate pair",
        expected={"phi": _catenoid_expected_phi}),
    "whitney": _build_whitney,
    "enneper-r3": lambda: _pair_entry(
        "enneper-r3", "(z - z^3/3, i*(z + z^3/3), z^2, 0)",
        Domain(-1.2, 1.2, -1.2, 1.2, excluded=((0j, 0.25),)),
        "classical R3 minimal pair, fourth coordinate identically zero"),
    "q0-line": lambda: _pair_entry(
        "q0-line", "(z, i*z, 0, 0)",
        Domain(-1.5, 1.5, -1.5, 1.5, excluded=((0j, 0.2),)),
        "null-quadric plane pair; both constructed surfaces degenerate"),
    "q0-trig": lambda: _pair_entry(
        "q0-trig", "(sin(z), i*sin(z), cos(z), i*cos(z))",
        Domain(-1.2, 1.2, -1.2, 1.2),
        "null-quadric trigonometric pair"),
    "q0-trig-perturbed": lambda: _pair_entry(
        "q0-trig-perturbed",
        "(sin(z) - 0.125*cos(2*z), -i*(sin(z) + 0.125*cos(2*z)), "
        "-cos(z) - 0.25*z - 0.125*sin(2*z), "
        "i*(cos(z) - 0.25*z - 0.125*sin(2*z)))",
        Domain(-1.0, 1.0, -1.0, 1.0),
        "isotropic perturbation off the null quadric; generic test pair"),
    "torus": lambda: CatalogEntry(
        name="torus", kind="surface",
        description="product torus in R4, non-superconformal control",
        surface=_torus_surface, domain=Domain(0.0, 2 * np.pi, 0.0, 2 * np.pi)),
    "sphere": lambda: CatalogEntry(
        name="sphere", kind="surface",
        description="round 2-sphere in R4, umbilic control",
        surface=_sphere_surface, domain=Domain(-3.1, 3.1, -1.2, 1.2)),
    "clifford-torus-s4": lambda: CatalogEntry(
        name="clifford-torus-s4", kind="space-form-immersion",
        description="flat torus in the unit S4, non-minimal control",
        ambient=Ambient("sphere", radius=1.0),
        surface=_clifford_s4_surface,
        domain=Domain(0.0, 2 * np.pi, 0.0, 2 * np.pi)),
    "great-sphere-s4": lambda: CatalogEntry(
        name="great-sphere-s4", kind="space-form-immersion",
        description="totally geodesic 2-sphere in the unit S4",
        ambient=Ambient("sphere", radius=1.0),
        surface=_great_sphere_s4_surface,
        domain=Domain(-3.1, 3.1, -1.2, 1.2)),
    "h4-flat-torus": lambda: CatalogEntry(
        name="h4-flat-torus", kind="space-form-immersion",
        description="flat torus in hyperbolic 4-space (Lorentzian model)",
        ambient=Ambient("hyperbolic", radius=1.0),
        surface=_h4_torus_surface,
        domain=Domain(0.0, 2 * np.pi, 0.0, 2 * np.pi)),
    "veronese": _build_veronese,
}

_CACHE = {}     # name -> entry, built and, for a minimal pair, certified


def names():
    return sorted(_BUILDERS)


def get(name):
    """Fetch a catalog entry, built on first fetch; a minimal pair is cached
    only once it passes load certification, so a failing one raises
    PreconditionError on every fetch."""
    if name not in _BUILDERS:
        known = ", ".join(names())
        raise UnknownEntryError(f"unknown catalog entry {name!r} (known: {known})")
    if name not in _CACHE:
        entry = _BUILDERS[name]()
        if entry.kind == "minimal-pair":
            rep = certify(entry.pair, entry.domain.grid(7, 7, 0.05))
            if not rep["ok"]:
                raise PreconditionError(
                    f"catalog entry {name} failed load certification: {rep}")
        _CACHE[name] = entry
    return _CACHE[name]


def expected_eval(entry, key, *args):
    """Evaluate a stored closed-form reference; raises if absent."""
    if key not in entry.expected:
        raise PreconditionError(
            f"entry {entry.name} has no expected evaluator {key!r}")
    return entry.expected[key](*args)


def certify_veronese():
    """Metric-level certificate for the closed-form pair on a 10 x 10 grid of
    its chart: the two surfaces are isometric (E, F, G agree), the first is
    minimal in R4, and both metrics match the closed-form display."""
    entry = get("veronese")
    z = entry.domain.lattice(10, 10, margin=0.02)
    u, v = z.real.ravel(), z.imag.ravel()
    g, h = veronese_g(u, v), veronese_h(u, v)
    (Eg, Fg, Gg, _), (Eh, Fh, Gh, _) = (_gram(s.du, s.dv, R4.dot)
                                        for s in (g, h))
    scale = np.maximum(Eg, Gg)

    def worst(E, F, G):
        """The largest first-form deviation over the grid, relative to
        max(Eg, Gg) at its point."""
        dev = np.maximum(np.maximum(abs(Eg - E), abs(Fg - F)), abs(Gg - G))
        return float((dev / scale).max())

    expected = veronese_metric_expected(u, v).T
    fd = fundamental_data(g)
    fail_rows(~fd.regular, lambda k: SingularSampleError(
        "rank-deficient sample of the veronese pair"))
    return {"metric_mismatch": worst(Eh, Fh, Gh),
            "metric_vs_expected": worst(*expected),
            "metric_vs_expected_scaled": worst(
                *(VERONESE_METRIC_FACTOR * e for e in expected)),
            "minimality_max": float(fd.lam.max())}
