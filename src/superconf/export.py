"""Grid runs and file output: diagnostics CSV, 4d meshes, projected OBJ.

The JSON mesh keeps all four coordinates and is the authoritative container;
OBJ is a lossy 3d projection for viewers and says so in its header.  All
writers format floats by repr, which is the shortest decimal that round-trips,
so identical runs produce byte-identical files, and write their text one
block of rows at a time.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import chain

import numpy as np

from .construct import (FLAG_DEGENERATE_SAMPLE, FLAG_OUT_OF_DOMAIN,
                        build_phi_pair, check_sign)
from .errors import PreconditionError
from .geometry import ellipse_descriptor, fundamental_data
from .jets import row_failures

CSV_HEADER = "u,v,x0,x1,x2,x3,K,KN_abs,Hnorm,mu,res_orth,res_len,wintgen,a,flags"
STAT_KEYS = ("K", "KN_abs", "Hnorm", "mu", "res_orth", "res_len", "wintgen", "a")
# the columns of GridRows.stats, in the order _fill_rows writes them
_STAT_NAMES = ("K", "KN_abs", "Hnorm", "mu", "res_orth", "res_len", "wintgen",
               "wintgen_rel", "a")
_CSV_STATS = [_STAT_NAMES.index(k) for k in STAT_KEYS]

# grid points per array pass of sample_grid, and rows per chunk of text the
# writers format; bounds the working set, while each pass pays a few
# milliseconds of fixed numpy overhead
BLOCK_POINTS = 512


def _block_starts(n):
    return range(0, n, BLOCK_POINTS)


# one row of a GridRows, copied out of its columns
GridSample = namedtuple("GridSample", "u v position stats flags")


class GridRows:
    """The rows of one sign of a grid run, held as columns: u, v (n,);
    position (n, 4), set where flags < FLAG_OUT_OF_DOMAIN; stats (n, 9) in
    _STAT_NAMES order, set where has_stats; nan where unset.  flags holds
    the FLAG_* bits of construct, the out-of-domain and failed-sample ones
    included; rows with flags != 0 are written out but not aggregated.
    Indexing and iteration give GridSample rows, None for what a row
    lacks."""

    def __init__(self, u, v):
        self.u, self.v = u, v
        self.position = np.full((u.size, 4), np.nan)
        self.stats = np.full((u.size, len(_STAT_NAMES)), np.nan)
        self.has_stats = np.zeros(u.size, bool)
        self.flags = np.full(u.size, FLAG_OUT_OF_DOMAIN)

    def __len__(self):
        return self.u.size

    def __getitem__(self, k):
        flags = int(self.flags[k])
        stats = (dict(zip(_STAT_NAMES, self.stats[k].tolist()))
                 if self.has_stats[k] else None)
        return GridSample(float(self.u[k]), float(self.v[k]),
                          self.position[k].copy() if flags < FLAG_OUT_OF_DOMAIN
                          else None, stats, flags)

    def clear(self):
        """Mask of the unflagged rows, the ones aggregated."""
        return (self.flags == 0) & self.has_stats

    def clear_floats(self, name):
        """The floats of stat name over the unflagged rows, in row order,
        made into Python floats one block of rows at a time."""
        clear = self.clear()
        column = self.stats[:, _STAT_NAMES.index(name)]
        return chain.from_iterable(
            column[lo:lo + BLOCK_POINTS][clear[lo:lo + BLOCK_POINTS]].tolist()
            for lo in _block_starts(len(self)))


def sample_grid(pair, domain, nu, nv, signs):
    """Sample the surfaces of the given signs over an inclusive nu x nv grid;
    one GridRows per sign, in the order of signs.

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
    z = np.empty(u.size, complex)
    z.real, z.imag = u, v
    rows = [GridRows(u, v) for _ in signs]
    index = np.arange(z.size)
    for start in _block_starts(z.size):
        _sample_block(pair, signs, rows, z, index[start:start + BLOCK_POINTS])
    return rows


def _sample_block(pair, signs, rows, z, block):
    """Fill the rows of every sign at the grid points z[block]."""
    at = block[pair.domain.contains(z[block])]
    if not at.size:
        return
    with np.errstate(all="ignore"), row_failures(at.size) as failed:
        built = {ps.sign: ps for ps in build_phi_pair(pair, z[at])}
        for sign, sign_rows in zip(signs, rows):
            _fill_rows(sign_rows, at, built[sign], failed)


def _fill_rows(rows, at, ps, failed):
    """Flags, positions and stats of one sign at the rows at, a block's
    points inside the domain, from their built surface ps."""
    phi = ps.phi
    fd = fundamental_data(phi)
    ed = ellipse_descriptor(fd)
    position = phi.values()
    # a position past the float range has no values to write either
    flags = np.where(failed.rows() | ~np.isfinite(position).all(axis=1),
                     FLAG_DEGENERATE_SAMPLE, ps.flags)
    placed = flags < FLAG_OUT_OF_DOMAIN
    stated = placed & fd.regular
    rows.flags[at] = flags
    rows.position[at[placed]] = position[placed]
    rows.has_stats[at] = stated
    rows.stats[at[stated]] = np.column_stack((
        fd.K, abs(fd.K_N), fd.lam, ed.mu, ed.res_orth, ed.res_len,
        ed.wintgen_defect, ed.wintgen_defect_rel, ps.ctx.a))[stated]


def summarize(samples) -> dict:
    """Aggregate residuals over the unflagged rows of a grid run.

    The extremes are the builtin max and min over the rows in order, so a
    nan among them counts only where it comes first.
    """
    clear = samples.clear_floats
    n_clear = int(samples.clear().sum())
    out = {
        "n_points": len(samples),
        "n_clear": n_clear,
        "n_flagged": len(samples) - n_clear,
    }
    if not n_clear:
        out.update(max_res_orth=None, max_res_len=None, max_wintgen=None,
                   max_wintgen_rel=None, mu_min=None, mu_max=None,
                   Hnorm_max=None)
        return out
    out["max_res_orth"] = max(map(abs, clear("res_orth")))
    out["max_res_len"] = max(map(abs, clear("res_len")))
    out["max_wintgen"] = max(map(abs, clear("wintgen")))
    out["max_wintgen_rel"] = max(map(abs, clear("wintgen_rel")))
    out["mu_min"] = min(clear("mu"))
    out["mu_max"] = max(clear("mu"))
    out["Hnorm_max"] = max(clear("Hnorm"))
    return out


def _groups(strings, k):
    """Consecutive k-tuples of an iterable."""
    it = iter(strings)
    return zip(*[it] * k)


def _csv_mesh_chunks(samples, nu, nv):
    """The diagnostics CSV and the 4d mesh JSON of one grid as (csv, mesh)
    pairs of text chunks, one block of rows or quads at a time.

    Every float goes through repr once: u and v once per grid axis, the mesh
    vertices are the CSV's x0..x3 cells.  The mesh is canonical_json's text
    of its dict, keys in sorted order; callers check that its vertices are
    finite.
    """
    placed = samples.flags < FLAG_OUT_OF_DOMAIN
    quads = _quads(placed, nu, nv)
    yield (CSV_HEADER + "\n",
           f'{{"kind":"grid-mesh-r4","nu":{nu},"nv":{nv},"quads":[')
    for lo in _block_starts(len(quads)):
        yield "", ("," if lo else "") + ",".join(
            f"[{a},{b},{c},{d}]"
            for a, b, c, d in quads[lo:lo + BLOCK_POINTS].tolist())
    yield "", '],"vertices":['
    us = list(map(repr, samples.u[::nv].tolist()))
    vs = list(map(repr, samples.v[:nv].tolist()))
    for lo in _block_starts(len(samples)):
        hi = lo + BLOCK_POINTS
        xs = list(map(",".join, _groups(
            map(repr, samples.position[lo:hi].ravel().tolist()), 4)))
        stats = map(",".join, _groups(map(repr, samples.stats[
            lo:hi, _CSV_STATS].ravel().tolist()), len(_CSV_STATS)))
        csv = "".join(
            f"{us[k // nv]},{vs[k % nv]},{x},{st},{bits}\n"
            for k, x, st, bits in zip(range(lo, hi), xs, stats,
                                      samples.flags[lo:hi].tolist()))
        mesh = ",".join(f"[{x}]" if ok else "null"
                        for x, ok in zip(xs, placed[lo:hi].tolist()))
        yield csv, ("," if lo else "") + mesh
    yield "", "]}\n"


def _check_vertices(samples):
    """JSON has no nan or inf: refuse a placed row whose position is not
    finite, as canonical_json would."""
    placed = samples.flags < FLAG_OUT_OF_DOMAIN
    if not np.isfinite(samples.position[placed]).all():
        raise ValueError("Out of range float values are not JSON compliant")


def csv_text(samples, nu, nv) -> str:
    return "".join(c for c, _ in _csv_mesh_chunks(samples, nu, nv))


def mesh_text(samples, nu, nv) -> str:
    """4d mesh container: vertex list (null where sampling failed) plus quads
    whose four corners all exist, wound consistently; canonical JSON."""
    _check_vertices(samples)
    return "".join(m for _, m in _csv_mesh_chunks(samples, nu, nv))


def write_csv(samples, nu, nv, path, mesh_path) -> None:
    """Write the diagnostics CSV to path and the mesh JSON to mesh_path,
    block by block, from the same formatted cells."""
    _check_vertices(samples)
    chunks = _csv_mesh_chunks(samples, nu, nv)
    first = next(chunks)        # checks the grid shape before a file opens
    with (open(path, "w", newline="\n") as fc,
          open(mesh_path, "w", newline="\n") as fm):
        for c, m in chain([first], chunks):
            fc.write(c)
            fm.write(m)


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free, strict (no NaN) serialization.

    Canonical form makes byte identity meaningful: dump(load(text)) == text.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_json(obj, path) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(canonical_json(obj))


def _quads(valid, nu, nv):
    """Row-major (q, 4) corners of the quads whose four corners are valid."""
    if nu * nv != valid.size:
        raise PreconditionError(
            f"grid shape {nu}x{nv} does not match {valid.size} samples")
    m = valid.reshape(nu, nv)
    iu, iv = np.nonzero(m[:-1, :-1] & m[1:, :-1] & m[1:, 1:] & m[:-1, 1:])
    a = iu * nv + iv
    return np.column_stack((a, a + nv, a + nv + 1, a + 1))


def drop_projector(k: int):
    """R4 -> R3 by deleting coordinate k; every row projects (ok True)."""
    if not 0 <= k <= 3:
        raise PreconditionError(f"coordinate index out of range: {k}")
    keep = [i for i in range(4) if i != k]

    def project(x):
        return x[:, keep], np.ones(len(x), bool)

    return project


def stereo_projector(pole=(0.0, 0.0, 0.0, 1.0)):
    """R4 -> R3 stereographic chart with the given pole.

    The pole's direction is the axis, its length the projection height R:
    x maps to R/(R - <x, p>) times the component of x orthogonal to the unit
    axis p, written in a deterministic basis of the orthogonal complement.
    It maps (n, 4) rows to (Y, ok), ok False on the horizon <x, p> = R.  The
    default pole reduces to (x0, x1, x2) * R/(R - x3).
    """
    p = np.asarray(pole, dtype=float)
    if p.shape != (4,):
        raise PreconditionError("pole must be a 4-vector")
    if not np.isfinite(p).all():
        raise PreconditionError("pole must be finite")
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
        # stacked matmul sums each row as the one-vector x @ axis and B @ x
        # do, bit for bit; X @ axis and X @ B.T do not
        den = R - np.matmul(x[:, None, :], axis[:, None])[:, 0, 0]
        ok = ~(abs(den) <= 1e-12 * np.fmax(R, np.abs(x).max(axis=1)))
        with np.errstate(divide="ignore", invalid="ignore"):
            y = (R / den)[:, None] * np.matmul(B, x[:, :, None])[:, :, 0]
        return y, ok

    return project


def _obj_chunks(samples, nu, nv, projector, note):
    """Triangulated OBJ of the projected grid, one block of vertex or face
    lines at a time.

    Every grid point contributes a vertex line (nan coordinates where the
    sample or the projection failed) so face indices stay grid-addressable;
    faces touching a bad vertex are dropped.  Quads split into two triangles
    with matching winding.
    """
    placed = samples.flags < FLAG_OUT_OF_DOMAIN
    y = np.full((len(samples), 3), np.nan)
    ok = np.zeros(len(samples), bool)
    y[placed], ok[placed] = projector(samples.position[placed])
    y[~ok] = np.nan
    faces = _quads(ok, nu, nv) + 1
    yield ("# lossy 3d projection of a 4d grid surface"
           + (f" ({note})" if note else "")
           + f"\n# grid {nu} x {nv}, row-major, u varying slowest\n")
    for lo in _block_starts(len(y)):
        yield "".join(f"v {a} {b} {c}\n" for a, b, c in _groups(
            map(repr, y[lo:lo + BLOCK_POINTS].ravel().tolist()), 3))
    for lo in _block_starts(len(faces)):
        yield "".join(f"f {a} {b} {c}\nf {a} {c} {d}\n"
                      for a, b, c, d in faces[lo:lo + BLOCK_POINTS].tolist())


def obj_text(samples, nu, nv, projector, note="") -> str:
    return "".join(_obj_chunks(samples, nu, nv, projector, note))


def write_obj(samples, nu, nv, path, projector, note="") -> None:
    chunks = _obj_chunks(samples, nu, nv, projector, note)
    first = next(chunks)        # projects and checks before the file opens
    with open(path, "w", newline="\n") as f:
        f.writelines(chain([first], chunks))
