"""Grid runs and file output: diagnostics CSV, 4d meshes, projected OBJ.

The JSON mesh keeps all four coordinates and is the authoritative container;
OBJ is a lossy 3d projection for viewers and says so in its header.  All
writers format floats by repr, which is the shortest decimal that round-trips,
so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .construct import RegularityFlags, build_phi_pair, check_sign
from .errors import (BranchCutError, DegenerateJetError, DomainError,
                     EvaluationError, FrameDegenerateError, PreconditionError,
                     SingularSampleError)
from .geometry import fundamental_data, superconformality_test
from .jets import row_failures

CSV_HEADER = "u,v,x0,x1,x2,x3,K,KN_abs,Hnorm,mu,res_orth,res_len,wintgen,a,flags"
STAT_KEYS = ("K", "KN_abs", "Hnorm", "mu", "res_orth", "res_len", "wintgen", "a")
# the keys of GridSample.stats, in the order _fill_rows writes them
_STAT_NAMES = ("K", "KN_abs", "Hnorm", "mu", "res_orth", "res_len", "wintgen",
               "wintgen_rel", "a")

FLAG_OUT_OF_DOMAIN = RegularityFlags.FLAG_OUT_OF_DOMAIN
# sampling failed outright (h vanished, jets blew up); beyond the per-sample
# regularity bits
FLAG_DEGENERATE_SAMPLE = 16
# grid points per array pass of sample_grid; bounds the pass's working set
BLOCK_POINTS = 256


@dataclass
class GridSample:
    """One grid point of a construction run.

    position and stats are None where sampling failed; flags is the regularity
    bitmask, extended by the out-of-domain and failed-sample bits.  Rows with
    flags != 0 are written to files but excluded from residual aggregation.
    """

    u: float
    v: float
    position: np.ndarray | None
    stats: dict | None
    flags: int


def sample_grid(pair, domain, nu, nv, signs):
    """Sample the surfaces of the given signs over an inclusive nu x nv grid;
    one row list per sign, in the order of signs.

    Rows come back in row-major order, u varying slowest.  Points outside the
    pair's domain and points where the construction fails become flagged rows
    rather than errors.  The grid is built in array passes over blocks of
    BLOCK_POINTS points, each pass evaluating the curve once for all signs;
    every row is bit-identical to the same point built alone.
    """
    if nu < 2 or nv < 2:
        raise PreconditionError("grid needs at least 2 points per axis")
    for sign in signs:
        check_sign(sign)
    us, vs = domain.linspace(nu, nv)
    u, v = np.repeat(us, nv), np.tile(vs, nu)
    rows = [[] for _ in signs]
    for start in range(0, u.size, BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        for out, got in zip(rows, _sample_block(pair, signs, u[block],
                                                 v[block])):
            out.extend(got)
    return rows


def _sample_block(pair, signs, u, v):
    """The rows of every sign for one block of grid points."""
    z = np.empty(u.size, complex)
    z.real, z.imag = u, v
    rows = [[GridSample(u=uk, v=vk, position=None, stats=None,
                        flags=FLAG_OUT_OF_DOMAIN) for uk, vk in zip(u, v)]
            for _ in signs]
    inside = np.flatnonzero(pair.domain.contains(z))
    if not inside.size:
        return rows
    with np.errstate(all="ignore"), row_failures(inside.size) as failed:
        try:
            built = {ps.sign: ps for ps in build_phi_pair(pair, z[inside])}
        except DomainError:
            return rows
        except (FrameDegenerateError, SingularSampleError, EvaluationError,
                DegenerateJetError, BranchCutError):
            # raised for every point alike, by a constant subexpression
            for sign_rows in rows:
                for k in inside.tolist():
                    sign_rows[k].flags = FLAG_DEGENERATE_SAMPLE
            return rows
        for sign, sign_rows in zip(signs, rows):
            _fill_rows(sign_rows, inside, built[sign], failed)
    return rows


def _fill_rows(rows, inside, ps, failed):
    """Flags, positions and stats of one sign at the block's points inside
    the domain (rows[k] for k in inside) from the block's built surface."""
    phi = ps.phi
    fd = fundamental_data(phi)
    sc = superconformality_test(fd)
    flags = ps.flags.bitmask | np.where(
        fd.regular, 0, RegularityFlags.FLAG_RANK_DEFICIENT)
    flags = np.where(failed.rows(), FLAG_DEGENERATE_SAMPLE, flags)
    flags = np.where(failed.rows(DomainError), FLAG_OUT_OF_DOMAIN, flags)
    columns = (fd.K, abs(fd.K_N), fd.lam, sc["mu"], sc["res_orth"],
               sc["res_len"], sc["wintgen_defect"], sc["wintgen_defect_rel"],
               ps.ctx.a)
    positions = phi.values()
    for j, (k, bits, regular, values) in enumerate(zip(
            inside.tolist(), flags.tolist(), fd.regular.tolist(),
            zip(*(c.tolist() for c in columns)))):
        row = rows[k]
        row.flags = bits
        if bits < FLAG_OUT_OF_DOMAIN:
            row.position = positions[j]
            if regular:
                row.stats = dict(zip(_STAT_NAMES, values))


def summarize(samples) -> dict:
    """Aggregate residuals over the unflagged rows of a grid run."""
    clear = [s for s in samples if s.flags == 0 and s.stats is not None]
    out = {
        "n_points": len(samples),
        "n_clear": len(clear),
        "n_flagged": len(samples) - len(clear),
    }
    if not clear:
        out.update(max_res_orth=None, max_res_len=None, max_wintgen=None,
                   max_wintgen_rel=None, mu_min=None, mu_max=None,
                   Hnorm_max=None)
        return out
    out["max_res_orth"] = max(abs(s.stats["res_orth"]) for s in clear)
    out["max_res_len"] = max(abs(s.stats["res_len"]) for s in clear)
    out["max_wintgen"] = max(abs(s.stats["wintgen"]) for s in clear)
    out["max_wintgen_rel"] = max(abs(s.stats["wintgen_rel"]) for s in clear)
    out["mu_min"] = min(s.stats["mu"] for s in clear)
    out["mu_max"] = max(s.stats["mu"] for s in clear)
    out["Hnorm_max"] = max(s.stats["Hnorm"] for s in clear)
    return out


def _cell(x) -> str:
    return repr(float(x))


def csv_text(samples) -> str:
    nan = repr(float("nan"))
    lines = [CSV_HEADER]
    for s in samples:
        cells = [_cell(s.u), _cell(s.v)]
        if s.position is None:
            cells += [nan] * 4
        else:
            cells += [_cell(x) for x in s.position]
        if s.stats is None:
            cells += [nan] * len(STAT_KEYS)
        else:
            cells += [_cell(s.stats[k]) for k in STAT_KEYS]
        cells.append(str(s.flags))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(samples, path) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(csv_text(samples))


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free, strict (no NaN) serialization.

    Canonical form makes byte identity meaningful: dump(load(text)) == text.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_json(obj, path) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(canonical_json(obj))


def mesh_dict(samples, nu, nv) -> dict:
    """4d mesh container: vertex list (null where sampling failed) plus quads
    whose four corners all exist, wound consistently."""
    if nu * nv != len(samples):
        raise PreconditionError(
            f"grid shape {nu}x{nv} does not match {len(samples)} samples")
    vertices = [None if s.position is None else [float(x) for x in s.position]
                for s in samples]
    quads = []
    for iu in range(nu - 1):
        for iv in range(nv - 1):
            a = iu * nv + iv
            b = (iu + 1) * nv + iv
            c = (iu + 1) * nv + iv + 1
            d = iu * nv + iv + 1
            if all(vertices[k] is not None for k in (a, b, c, d)):
                quads.append([a, b, c, d])
    return {"kind": "grid-mesh-r4", "nu": nu, "nv": nv,
            "vertices": vertices, "quads": quads}


def drop_projector(k: int):
    """R4 -> R3 by deleting coordinate k."""
    if not 0 <= k <= 3:
        raise PreconditionError(f"coordinate index out of range: {k}")
    keep = [i for i in range(4) if i != k]

    def project(x):
        return np.asarray(x, dtype=float)[keep]

    return project


def stereo_projector(pole=(0.0, 0.0, 0.0, 1.0)):
    """R4 -> R3 stereographic chart with the given pole.

    The pole's direction is the axis, its length the projection height R:
    x maps to R/(R - <x, p>) times the component of x orthogonal to the unit
    axis p, written in a deterministic basis of the orthogonal complement.
    Points on the horizon hyperplane <x, p> = R project to None.  The default
    pole reduces to (x0, x1, x2) * R/(R - x3).
    """
    p = np.asarray(pole, dtype=float)
    if p.shape != (4,):
        raise PreconditionError("pole must be a 4-vector")
    R = float(np.linalg.norm(p))
    if R <= 0.0:
        raise PreconditionError("pole must be nonzero")
    axis = p / R
    basis = []
    for e in np.eye(4):
        w = e - (e @ axis) * axis
        for b in basis:
            w = w - (w @ b) * b
        nw = np.linalg.norm(w)
        if nw > 1e-12:
            basis.append(w / nw)
    B = np.array(basis[:3])

    def project(x):
        x = np.asarray(x, dtype=float)
        den = R - x @ axis
        if abs(den) <= 1e-12 * max(R, float(np.abs(x).max())):
            return None
        return (R / den) * (B @ x)

    return project


def obj_text(samples, nu, nv, projector, note="") -> str:
    """Triangulated OBJ of the projected grid.

    Every grid point contributes a vertex line (nan coordinates where the
    sample or the projection failed) so face indices stay grid-addressable;
    faces touching a bad vertex are dropped.  Quads split into two triangles
    with matching winding.
    """
    mesh = mesh_dict(samples, nu, nv)
    lines = ["# lossy 3d projection of a 4d grid surface"
             + (f" ({note})" if note else ""),
             f"# grid {nu} x {nv}, row-major, u varying slowest"]
    ok = []
    for vert in mesh["vertices"]:
        y = None if vert is None else projector(vert)
        ok.append(y is not None)
        if y is None:
            lines.append("v nan nan nan")
        else:
            lines.append("v " + " ".join(_cell(c) for c in y))
    for (a, b, c, d) in mesh["quads"]:
        if ok[a] and ok[b] and ok[c] and ok[d]:
            lines.append(f"f {a + 1} {b + 1} {c + 1}")
            lines.append(f"f {a + 1} {c + 1} {d + 1}")
    return "\n".join(lines) + "\n"


def write_obj(samples, nu, nv, path, projector, note="") -> None:
    with open(path, "w", newline="\n") as f:
        f.write(obj_text(samples, nu, nv, projector, note))
