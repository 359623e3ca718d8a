"""Minimal surfaces in R4 presented as conjugate pairs.

A holomorphic curve G on a plane domain splits into g = Re G and h = Im G.
Both are (branched) minimal surfaces whenever G' is isotropic for the bilinear
complex product, and they satisfy the conjugacy relations h_u = -g_v,
h_v = g_u.  Everything downstream consumes the pair through SplitSample, which
carries exact second-order jets of g, h and of the first-derivative fields.

The complex structure convention is fixed once: rotating the parameter plane
by +90 degrees sends d/du to -d/dv and d/dv to d/du on the g surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DomainError, PreconditionError, SingularSampleError
from .expr import Bin, Curve, CurveExpr, const_node
from .jets import Jet2, fail_rows, seed_first_derivative_fields, split


@dataclass(frozen=True)
class Domain:
    """Open parameter rectangle with optional excluded closed discs."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    excluded: tuple = ()

    def __post_init__(self):
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError("domain rectangle is empty")
        # a width that overflows (a bound that is not finite included)
        # would make the lattice's inset 0 * inf
        if not np.isfinite([self.u_max - self.u_min,
                            self.v_max - self.v_min]).all():
            raise ValueError("domain rectangle is not of finite width")

    def contains(self, z):
        """Whether z lies in the domain; a mask for an array of points."""
        inside = ((self.u_min <= z.real) & (z.real <= self.u_max)
                  & (self.v_min <= z.imag) & (z.imag <= self.v_max))
        for center, radius in self.excluded:
            inside = inside & (abs(z - complex(center)) > radius)
        return inside

    def lattice(self, nu, nv, margin=0.0):
        """The inclusive nu x nv lattice of the rectangle, inset by margin
        times its width and height at each end, as a complex (nu, nv) array:
        u varies along the first axis, so slowest once raveled."""
        du = margin * (self.u_max - self.u_min)
        dv = margin * (self.v_max - self.v_min)
        z = np.empty((nu, nv), complex)
        z.real = np.linspace(self.u_min + du, self.u_max - du, nu)[:, None]
        z.imag = np.linspace(self.v_min + dv, self.v_max - dv, nv)
        return z

    def grid(self, nu, nv, margin=0.0):
        """The contained points of the lattice, raveled."""
        z = self.lattice(nu, nv, margin).ravel()
        return z[self.contains(z)]


class HolomorphicCurve:
    """Named holomorphic curve restricted to a parameter domain."""

    __slots__ = ("name", "expr", "domain")

    def __init__(self, name, expr, domain):
        if isinstance(expr, str):
            expr = CurveExpr.parse(expr)
        self.name = name
        self.expr = expr
        self.domain = domain

    def to_text(self):
        return self.expr.to_text()

    def check_domain(self, z):
        """Record the points of the array z outside the domain as failed
        rows of DomainError (see jets.fail_rows)."""
        fail_rows(~self.domain.contains(z), lambda k: DomainError(
            f"point ({z[k].real:g}, {z[k].imag:g}) is outside the domain of "
            f"{self.name}", reason="domain", where=self.name, z=complex(z[k])))

    def eval_jets(self, z):
        """The curve's vector ComplexJet at the points z (CurveExpr.eval_jets);
        one point is a batch of one."""
        z = np.atleast_1d(np.asarray(z, complex))
        self.check_domain(z)
        return self.expr.eval_jets(z)

    def eval(self, z):
        """Component values, (4, n) over the n points z."""
        return self.eval_jets(z).c0.z

    def __repr__(self):
        return f"HolomorphicCurve({self.name!r}, {self.to_text()!r})"


@dataclass(frozen=True)
class SplitSample:
    """Second-order data of the conjugate pair at an array of parameter
    points, z (the jets hold arrays over them).

    g, h hold position jets; g_u, g_v hold full jets of the first-derivative
    fields (their own derivatives use third holomorphic order).  h's
    derivative fields come for free from conjugacy: h_u = -g_v, h_v = g_u.
    """

    z: np.ndarray
    g: Jet2
    h: Jet2
    g_u: Jet2
    g_v: Jet2

    @staticmethod
    def join(samples):
        """One sample over the points of samples in turn, each slot
        concatenated along the points; a single sample comes back as is,
        with no copy."""
        if len(samples) == 1:
            return samples[0]
        return SplitSample(np.concatenate([s.z for s in samples]), *(
            Jet2.join([getattr(s, field) for s in samples])
            for field in ("g", "h", "g_u", "g_v")))


class MinimalPair:
    """Conjugate minimal pair split off a holomorphic curve.

    h_offset translates the conjugate surface; the split is only defined up to
    that translation and some identities care about the representative.
    """

    __slots__ = ("curve", "h_offset")

    def __init__(self, curve, h_offset=None):
        self.curve = curve
        self.h_offset = (np.zeros(4) if h_offset is None
                         else np.asarray(h_offset, dtype=float))
        if self.h_offset.shape != (4,):
            raise ValueError("h_offset must be a 4-vector")

    @property
    def name(self):
        return self.curve.name

    @property
    def domain(self):
        return self.curve.domain

    def translated(self, v):
        return MinimalPair(self.curve, self.h_offset + np.asarray(v, dtype=float))

    def samples_at(self, z):
        z = np.atleast_1d(np.asarray(z, complex))
        jet = self.curve.eval_jets(z)
        g, h = split(jet)
        if np.any(self.h_offset):
            h = h + Jet2.stack(self.h_offset)
        g_u, g_v = seed_first_derivative_fields(jet)
        return SplitSample(z=z, g=g, h=h, g_u=g_u, g_v=g_v)

    def __repr__(self):
        return f"MinimalPair({self.curve!r})"


def associated_family(pair, theta):
    """Rotate the pair through its associated family: every component of the
    underlying curve is multiplied by exp(-i theta), trading g for a mix of
    g and h while keeping the induced metric."""
    c = complex(np.cos(theta), -np.sin(theta))
    src = pair.curve.expr.ast
    comps = tuple(Bin("*", const_node(c), comp) for comp in src.components)
    expr = CurveExpr(Curve(comps, declared_arity=src.declared_arity))
    curve = HolomorphicCurve(
        f"{pair.curve.name}@{theta:.6g}", expr, pair.curve.domain)
    return MinimalPair(curve, pair.h_offset)


def point_set(points):
    """The points a check is made at, one complex number, a sequence or an
    array of them, as a new 1-d complex array; PreconditionError if there
    are none."""
    z = np.array(points, dtype=complex).ravel()
    if not z.size:
        raise PreconditionError("no sample points given")
    return z


def certify(pair, grid):
    """Numeric certificate that the MinimalPair is a regular conjugate
    minimal pair at the points of grid (point_set); certify_sample over the
    pair's sample there."""
    return certify_sample(pair, pair.samples_at(point_set(grid)))


def certify_sample(pair, sample):
    """The certificate of the pair at the points of its SplitSample.

    Returns max/min statistics over the points:
      isotropy_max    |sum G_k'^2| relative to sum |G_k'|^2
      regularity_min  (E G - F^2) / scale^4 of the g surface
      minimality_max  |mean curvature vector| of the g surface in its units
                      (geometry.unit_scale of the scale)
    and the verdict "ok": both maxima below 1e-8 and the minimum above
    1e-10.
    """
    # G' = g_u + i h_u = g_u - i g_v
    d = sample.g_u.v - 1j * sample.g_v.v
    herm = np.sum(np.abs(d) ** 2, axis=0)
    sq = d * d    # summed as numpy sums a row of four complex numbers
    iso = (sq[0] + sq[1]) + (sq[2] + sq[3])
    iso = np.hypot(iso.real, iso.imag) / np.where(herm > 0, herm, 1.0)

    fd = geometry.fundamental_data(sample.g)
    fail_rows(~fd.regular, lambda k: SingularSampleError(
        f"{pair.name} is singular at a certification point"))
    reg = fd.det1 / geometry._pypow(fd.scale, 4)
    rep = {
        "isotropy_max": float(iso.max()),
        "regularity_min": float(reg.min()),
        "minimality_max": float((fd.lam * geometry.unit_scale(fd.scale))
                                .max()),
        "points": int(sample.z.size),
    }
    rep["ok"] = (rep["isotropy_max"] < 1e-8 and rep["minimality_max"] < 1e-8
                 and rep["regularity_min"] > 1e-10)
    return rep
