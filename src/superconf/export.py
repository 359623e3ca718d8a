"""Grid runs and file output: diagnostics CSV, 4d meshes, projected OBJ.

The JSON mesh keeps all four coordinates and is the authoritative container;
OBJ is a lossy 3d projection for viewers and says so in its header.  Every
float is written as repr writes it, the shortest decimal that round-trips,
so identical runs produce byte-identical files.  One writer, write_grids,
streams every file of a grid run, all signs together, one block of rows at
a time in array passes: Schubfach's shortest digits for all the block's
floats of every sign at once, each number laid out in a fixed-width byte
cell, and each file's text its cells' bytes with the padding dropped.
"""

from __future__ import annotations

import functools
import json
from collections import namedtuple
from contextlib import ExitStack
from itertools import accumulate, chain

import numpy as np

from .construct import (FLAG_DEGENERATE_SAMPLE, FLAG_OUT_OF_DOMAIN,
                        check_sign, phi_pair)
from .errors import PreconditionError
from .geometry import (R4, _matvec, _vec_norm, ellipse_descriptor,
                       fundamental_data)
from .jets import row_failures
from .minimal import SplitSample

CSV_HEADER = "u,v,x0,x1,x2,x3,K,KN_abs,Hnorm,mu,res_orth,res_len,wintgen,a,flags"
STAT_KEYS = ("K", "KN_abs", "Hnorm", "mu", "res_orth", "res_len", "wintgen", "a")
# the columns of GridRows.stats, in the order _fill_rows writes them
_STAT_NAMES = ("K", "KN_abs", "Hnorm", "mu", "res_orth", "res_len", "wintgen",
               "wintgen_rel", "a")
_CSV_STATS = [_STAT_NAMES.index(k) for k in STAT_KEYS]

# grid points per array pass of sample_grids, and rows per chunk of text the
# writers format; bounds the working set, while each pass pays a few
# milliseconds of fixed numpy overhead
BLOCK_POINTS = 512


def _block_starts(n):
    return range(0, n, BLOCK_POINTS)


# one row of a GridRows, copied out of its columns
GridSample = namedtuple("GridSample", "u v position stats flags")


class GridRows:
    """The rows of one sign of a grid run over a complex (nu, nv) lattice
    (minimal.Domain.lattice), held as columns in its raveled order: shape
    (nu, nv); u, v (n,), its axes repeated; position (4, n), set where flags <
    FLAG_OUT_OF_DOMAIN; stats (n, 9) in _STAT_NAMES order, set where
    has_stats; nan where unset.  flags holds the FLAG_* bits of construct,
    the out-of-domain and failed-sample ones included; rows with flags != 0
    are written out but not aggregated.  Indexing and iteration give
    GridSample rows, None for what a row lacks."""

    def __init__(self, lattice):
        self.shape = lattice.shape
        self.u, self.v = lattice.real.ravel(), lattice.imag.ravel()
        self.position = np.full((4, lattice.size), np.nan)
        self.stats = np.full((lattice.size, len(_STAT_NAMES)), np.nan)
        self.has_stats = np.zeros(lattice.size, bool)
        self.flags = np.full(lattice.size, FLAG_OUT_OF_DOMAIN)

    def __len__(self):
        return self.u.size

    def __getitem__(self, k):
        flags = int(self.flags[k])
        stats = (dict(zip(_STAT_NAMES, self.stats[k].tolist()))
                 if self.has_stats[k] else None)
        return GridSample(float(self.u[k]), float(self.v[k]),
                          self.position[:, k].copy()
                          if flags < FLAG_OUT_OF_DOMAIN
                          else None, stats, flags)

    def clear(self):
        """Mask of the unflagged rows, the ones aggregated."""
        return (self.flags == 0) & self.has_stats

    def clear_stat(self, name):
        """The values of stat name over the unflagged rows, in row order."""
        return self.stats[self.clear(), _STAT_NAMES.index(name)]


def sample_grid(pair, lattice, signs):
    """Sample the surfaces of the given signs over a complex (nu, nv)
    lattice (minimal.Domain.lattice); one GridRows per sign, in the order of
    signs.  The one job of sample_grids."""
    return sample_grids([(pair, lattice)], signs)[0]


def sample_grids(jobs, signs):
    """Sample the surfaces of the given signs for each job, a (pair,
    lattice) with the lattice as in sample_grid; per job, one GridRows per
    sign, in the order of signs.

    Rows come back in row-major order, u varying slowest.  Points outside a
    pair's domain and points where the construction fails become flagged
    rows rather than errors.  The jobs' points are walked in order, in
    blocks of at most BLOCK_POINTS points that may span several jobs: each
    job's part of a block is evaluated and split once for all signs, and
    the block's joined sample is assembled and filled in one pass.  Every
    row is bit-identical to the same point built alone.
    """
    for _, lattice in jobs:
        if min(lattice.shape) < 2:
            raise PreconditionError("grid needs at least 2 points per axis")
    for sign in signs:
        check_sign(sign)
    rows = [[GridRows(lattice) for _ in signs] for _, lattice in jobs]
    points = [(pair, lattice.ravel()) for pair, lattice in jobs]
    for block in _job_blocks([z.size for _, z in points]):
        _sample_block(points, rows, signs, block)
    return rows


def _job_blocks(sizes):
    """The walk through the points of jobs of the given sizes, in order, in
    blocks of at most BLOCK_POINTS points: each block a list of (job, lo,
    hi), the job's points lo..hi - 1 that it holds."""
    ends = list(accumulate(sizes))
    starts = [0] + ends[:-1]
    for lo in _block_starts(sum(sizes)):
        hi = lo + BLOCK_POINTS
        yield [(job, max(lo, a) - a, min(hi, b) - a)
               for job, (a, b) in enumerate(zip(starts, ends))
               if max(lo, a) < min(hi, b)]


def _sample_block(points, rows, signs, block):
    """Fill the rows of every sign at the points of a block, each job's
    points inside its pair's domain sampled under its own row_failures()
    sink, then joined for one construction pass."""
    parts, part_failures, targets = [], [], []
    with np.errstate(all="ignore"):
        for job, lo, hi in block:
            pair, z = points[job]
            at = np.arange(lo, hi)
            at = at[pair.domain.contains(z[at])]
            if at.size:
                with row_failures(at.size) as sampled:
                    parts.append(pair.samples_at(z[at]))
                part_failures.append(sampled.rows())
                targets.append((rows[job], at))
        if not parts:
            return
        sample = SplitSample.join(parts)
        del parts
        with row_failures(sample.z.size) as built_failures:
            built = {ps.sign: ps for ps in phi_pair(sample)}
        failed = np.concatenate(part_failures) | built_failures.rows()
        for k, sign in enumerate(signs):
            _fill_rows([(job_rows[k], at) for job_rows, at in targets],
                       built[sign], failed)


def _fill_rows(targets, ps, failed):
    """Flags, positions and stats of one sign from its built surface ps
    over a block's joined sample; targets are the (GridRows, rows) of the
    sample's points in turn, the points inside the domain of each job."""
    phi = ps.phi
    fd = fundamental_data(phi)
    ed = ellipse_descriptor(fd)
    position = phi.v
    # a position past the float range has no values to write either
    flags = np.where(failed | ~np.isfinite(position).all(axis=0),
                     FLAG_DEGENERATE_SAMPLE, ps.flags)
    placed = flags < FLAG_OUT_OF_DOMAIN
    stated = placed & fd.regular
    stats = np.column_stack((
        fd.K, abs(fd.K_N), fd.lam, ed.mu, ed.res_orth, ed.res_len,
        ed.wintgen_defect, ed.wintgen_defect_rel, ps.ctx.a))
    lo = 0
    for rows, at in targets:
        part = slice(lo, lo + at.size)
        lo += at.size
        rows.flags[at] = flags[part]
        keep = placed[part]
        rows.position[:, at[keep]] = position[:, part][:, keep]
        rows.has_stats[at] = stated[part]
        rows.stats[at[stated[part]]] = stats[part][stated[part]]


def _first_extreme(x, reduce):
    """The builtin max (reduce np.fmax) or min (np.fmin) of the floats of
    x, a nonempty 1-d array, in order, as a Python float: nan where x[0] is
    nan, otherwise the first entry equal to the reduction, which skips nan,
    so of tied zeros the first one."""
    if np.isnan(x[0]):
        return float(x[0])
    return float(x[np.argmax(x == reduce.reduce(x))])


def summarize(samples) -> dict:
    """Aggregate residuals over the unflagged rows of a grid run.

    The extremes are the builtin max and min over the rows in order
    (_first_extreme), so a nan among them counts only where it comes first.
    """
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
    stat = samples.clear_stat
    out["max_res_orth"] = _first_extreme(abs(stat("res_orth")), np.fmax)
    out["max_res_len"] = _first_extreme(abs(stat("res_len")), np.fmax)
    out["max_wintgen"] = _first_extreme(abs(stat("wintgen")), np.fmax)
    out["max_wintgen_rel"] = _first_extreme(abs(stat("wintgen_rel")),
                                            np.fmax)
    mu = stat("mu")
    out["mu_min"] = _first_extreme(mu, np.fmin)
    out["mu_max"] = _first_extreme(mu, np.fmax)
    out["Hnorm_max"] = _first_extreme(stat("Hnorm"), np.fmax)
    return out


# Text is assembled as bytes.  Every number of a block becomes one cell of
# _CELL bytes, NUL where it holds no character: two lead bytes, the sign,
# the "0." and up to three zeros of a positional number below 0.1, 18 bytes
# of digits and point, the exponent, and last a separator.  A block's text
# is its cells' bytes with the NULs dropped.
_CELL = 32
_INT_CELL = 24      # an integer's cell: a float's first 24 bytes
_K_MIN = -324       # the least k = floor(log10(2^q)) over the doubles
# floats per pass: a pass holds about 250 bytes a float, and larger passes
# measured slower
_RUN = 2048
_NAN, _INF = (int.from_bytes(w, "little") for w in (b"nan", b"inf"))


@functools.cache
def _U(value):
    """value as a 0-d uint64 array, which numpy's operators take faster
    than a scalar."""
    return np.array(value, np.uint64)


_Tables = namedtuple("_Tables", "kh g digits pow10 layout body zeros exp")


@functools.cache
def _tables():
    """The formatter's tables, built exactly from Python ints on first use.

    kh: Schubfach's k - _K_MIN and h at 2 be + i, for biased exponent be
    and i = 1 where the spacing below is irregular; g: the 63-bit limbs of
    g = floor(10^-k 2^-r) + 1 in [2^125, 2^126) for each k; digits: ASCII
    of 0000..9999; layout: at 18 (E + 330) + nd, for nd significant digits
    and exponent E, the body index 19 pt + L (point at body byte pt, 18 for
    none; L bytes kept), "0.000" bytes << 9 and 1 << 12 for an exponent;
    body: the masks, at 19 pt + L, of the digits before and after the point
    and of the point; zeros and exp: the "0.000" and "e+dd(d)" words.
    """
    q = np.arange(4096) // 2 - 1075
    k = (q * 661971961083 - np.arange(4096) % 2 * 274743187321) >> 41
    kh = np.array([k - _K_MIN, q + ((-k * 913124641741) >> 38) + 2],
                  np.uint16)
    g = []
    for e in range(-_K_MIN, -k.max() - 1, -1):      # 10^e = 10^-k
        p = 10 ** abs(e)
        g.append((p << 126 >> p.bit_length() if e >= 0
                  else (1 << p.bit_length() + 125) // p) + 1)
    n = np.arange(10000, dtype=np.uint32)
    digits = (n // 1000 | n // 100 % 10 << 8 | n // 10 % 10 << 16
              | n % 10 << 24) + 0x30303030
    # repr's layout: positional for -4 <= E < 16, with ".0" after an
    # integral value; else d.ddd and the exponent, with no point for one
    # digit
    E, nd = np.ix_(np.arange(-330, 331, dtype=np.int16),
                   np.arange(18, dtype=np.int16))
    sci = (E < -4) | (E > 15)
    small = ~sci & (E < 0)
    pt = np.where(small, 18, np.where(sci, 1, E + 1))
    L = np.where(sci, np.where(nd > 1, nd + 1, 1),
                 np.where(small, nd, np.maximum(nd + 1, E + 3)))
    j, at, keep = np.arange(24), np.arange(19)[:, None, None], np.arange(19)
    kept = j < keep[:, None]
    body = np.stack([(j < at) & kept, (j > at) & kept, (j == at) & kept])
    body = (body * np.array([255, 255, 46], np.uint8)[:, None, None, None]
            ).reshape(3, 361, 3, 8).view("<u8")[..., 0]

    def words(texts, at):
        return np.array([int.from_bytes(b"\0" * at + t, "little")
                         for t in texts], np.uint64)

    return _Tables(
        kh, np.array([[x >> 63 for x in g], [x & (1 << 63) - 1 for x in g]],
                     np.uint64),
        digits.astype(np.uint64),
        np.array([10 ** j for j in range(18)], np.uint64),
        (19 * pt + L | np.where(small, 1 - E, 0) << 9
         | sci * np.int16(1 << 12)).astype(np.uint16).ravel(),
        body.transpose(0, 2, 1).copy(),
        words([b"0.000"[:z] for z in range(6)], 3),
        words([b"e%+03d" % e for e in range(-330, 331)], 2))


def _mul(a, b):
    """The (high, low) words of a b for a < 2^63, b < 2^60, from 32-bit
    halves whose partial sums do not overflow."""
    ah, al = a >> _U(32), a & _U(0xFFFFFFFF)
    bh, bl = b >> _U(32), b & _U(0xFFFFFFFF)
    return (ah * bh + (al * bh + ah * bl + (al * bl >> _U(32)) >> _U(32)),
            a * b)


def _scaled(bits):
    """Schubfach's (vbl, vb, vbr) and k for the normal doubles of bits: the
    double and the ends of its rounding interval times 4 10^-k, rounded to
    odd.  They are g c / 2^127 for g = g1 2^63 + g0 and c = cp = cb 2^h
    (cb = 4 c), cl = cp - 2^sl (cb - 2, or cb - 1 where the spacing below
    is irregular) and cr = cp + 2^sr (cb + 2); a cl and a cr follow from the
    128-bit products a cp of the limbs a of g."""
    tables = _tables()
    be, t = bits >> _U(52) & _U(0x7FF), bits & _U((1 << 52) - 1)
    irregular = (t == _U(0)) & (be > _U(1))
    k, h = tables.kh.take((be << _U(1)) | irregular, axis=1)
    a = tables.g.take(k, axis=1)
    cp = (t | _U(1 << 52)) << (h + 2)
    sl, sr = h + 1 - irregular, h + 1
    hi, lo = _mul(a, cp)
    lol, lor = lo - (a << sl), lo + (a << sr)
    y1, x1 = np.array([hi - (a >> (_U(64) - sl)) - (lol > lo), hi,
                       hi + (a >> (_U(64) - sr)) + (lor < lo)]).swapaxes(0, 1)
    z = (np.array([lol[0], lo[0], lor[0]]) >> _U(1)) + x1
    return ((y1 + (z >> _U(63))) | np.minimum(z << _U(1), _U(1)),
            k.view(np.int16) + _K_MIN)


def _schubfach(bits):
    """(f, k): f 10^k is the shortest decimal that rounds to the normal
    double of bits, and of those the nearest to it; 10^15 < f < 10^17.
    Giulietti, The Schubfach way to render doubles (2020), figures 7 to 9."""
    (vbl, vb, vbr), k = _scaled(bits)
    # the interval is closed where c is even
    lo, hi = vbl + (bits & _U(1)), vbr - (bits & _U(1))
    s = vb >> _U(2)
    sp = s // _U(10) * _U(10)
    s4, sp4 = s << _U(2), sp << _U(2)
    upin, wpin = lo <= sp4, sp4 + _U(40) <= hi
    uin, win = lo <= s4, s4 + _U(4) <= hi
    # of s and s + 1, the nearer, and the even one on a tie
    up = (vb & _U(3)) + (s & _U(1)) > _U(2)
    return (np.where(upin != wpin, sp + _U(10) * wpin,
                     s + np.where(uin != win, win, up)), k)


def _digit_words(f):
    """The 17 ASCII digits of f < 10^17, zeros first, as the rows of three
    words."""
    a = f // _U(10 ** 16)
    f = f - a * _U(10 ** 16)
    hi = f // _U(10 ** 8)
    f -= hi * _U(10 ** 8)
    h4, l4 = hi // _U(10000), f // _U(10000)
    hi -= h4 * _U(10000)
    f -= l4 * _U(10000)
    d = _tables().digits.take([h4, hi, l4, f])
    return np.array([(a + _U(48)) | (d[0] << _U(8)) | (d[1] << _U(40)),
                     (d[1] >> _U(24)) | (d[2] << _U(8)) | (d[3] << _U(40)),
                     d[3] >> _U(24)])


def _cells(x):
    """repr's text of each float of x, from its shortest round-trip digits,
    as cells of shape x.shape + (_CELL,)."""
    x = np.asarray(x, np.float64)
    bits = x.ravel().view(np.uint64)
    out = np.empty((bits.size, _CELL), np.uint8)
    for lo in range(0, bits.size, _RUN):
        _emit(bits[lo:lo + _RUN], out[lo:lo + _RUN])
    return out.reshape(x.shape + (_CELL,))


def _emit(bits, out):
    """Write the cells of the floats of bits to the rows of out."""
    tables = _tables()
    f, k = _schubfach(bits)
    exponent = bits >> _U(52) & _U(0x7FF)
    zero, big = exponent == _U(0), f >= _U(10 ** 16)
    w = _digit_words(np.where(zero, _U(0), np.where(big, f, f * _U(10))))
    E = np.where(zero, 0, k + 15 + big)
    # the significant digits: those up to the last byte not '0'
    t = w ^ _U(0x3030303030303030)
    used = (np.frexp(t.astype(np.float64))[1] + 7) // 8
    code = tables.layout.take((E + 330) * 18 + np.where(
        w[2] != _U(48), 17,
        np.where(t[1] != _U(0), 8 + used[1], np.maximum(used[0], 1))))
    special = exponent == _U(0x7FF)
    nan = special & (bits << _U(12) != _U(0))
    if special.any():           # written "nan" or "inf", three bytes kept
        w[0, special] = np.where(nan[special], _U(_NAN), _U(_INF))
        code[special] = 19 * 18 + 3
    words = out.view("<u8")
    words[:, 0] = tables.zeros.take(code >> 9 & 7) | (
        ((bits >> _U(63)) & ~nan) << _U(16)) * _U(ord("-"))
    body = code & 511
    shifted = w << _U(8)            # each digit one byte later
    shifted[1:] |= w[:-1] >> _U(56)
    shifted &= tables.body[1].take(body, axis=1)
    w &= tables.body[0].take(body, axis=1)
    w |= shifted
    w |= tables.body[2].take(body, axis=1)
    w[2] |= tables.exp.take(E + 330) * (code >> 12)
    words[:, 1:] = w.T
    sub = zero & (bits << _U(1) != _U(0))
    if sub.any():
        out[sub, 2:31] = _subnormal_cells(bits[sub].view(np.float64))


def _subnormal_cells(x):
    """Bytes 2..30 of the cells of subnormal floats, through repr one by
    one; no catalog run writes one."""
    return np.array([repr(v).encode() for v in x.tolist()],
                    "S29").view(np.uint8).reshape(-1, 29)


def _int_cells(i):
    """The decimal text of each integer 0 <= i < 10^15 of i, as cells of
    shape i.shape + (_INT_CELL,)."""
    i = np.asarray(i)
    f = i.ravel().astype(np.uint64)
    tables = _tables()
    out = np.zeros((f.size, 3), "<u8")
    for lo in range(0, f.size, _RUN):
        run = f[lo:lo + _RUN]
        n = np.maximum(tables.pow10.searchsorted(run, side="right"), 1)
        out[lo:lo + _RUN, 1:] = (
            _digit_words(run * tables.pow10.take(17 - n))[:2]
            & tables.body[0, :2].take(19 * 18 + n, axis=1)).T
    return out.view(np.uint8).reshape(i.shape + (_INT_CELL,))


def _lines(cells, lead, seps):
    """Frame (rows, k, _CELL) cells as lines: lead (up to two bytes) before
    each row's first cell and seps[j] after its cell j."""
    cells[:, 0, :len(lead)] = np.frombuffer(lead, np.uint8)
    cells[:, :, -1] = np.frombuffer(seps, np.uint8)
    return cells


def _text(cells):
    """The bytes of cells, NULs dropped."""
    return cells.tobytes().translate(None, b"\0")


def _items(cells, lo):
    """The text of a block of framed cells; the first row of a JSON array,
    at lo == 0, drops the comma that leads it."""
    if lo == 0 and cells[0, 0, 0] == ord(","):
        cells[0, 0, 0] = 0
    return _text(cells)


# a null mesh vertex: its first cell written ',null', the others empty
_NULL_VERTEX = np.zeros((4, _CELL), np.uint8)
_NULL_VERTEX[0, :5] = np.frombuffer(b",null", np.uint8)


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free, strict (no NaN) serialization.

    Canonical form makes byte identity meaningful: dump(load(text)) == text.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_json(obj, path) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(canonical_json(obj))


def _quads(m):
    """Row-major (q, 4) corners, as raveled indices, of the quads of the
    (nu, nv) mask m whose four corners are set."""
    nv = m.shape[1]
    iu, iv = np.nonzero(m[:-1, :-1] & m[1:, :-1] & m[1:, 1:] & m[:-1, 1:])
    a = iu * nv + iv
    return np.column_stack((a, a + nv, a + nv + 1, a + 1))


def drop_projector(k: int):
    """R4 -> R3 by deleting coordinate k; every row projects (ok True)."""
    if not 0 <= k <= 3:
        raise PreconditionError(f"coordinate index out of range: {k}")
    keep = [i for i in range(4) if i != k]

    def project(x):
        return x[keep], np.ones(x.shape[1], bool)

    return project


def stereo_projector(pole=(0.0, 0.0, 0.0, 1.0)):
    """R4 -> R3 stereographic chart with the given pole.

    The pole's direction is the axis, its length the projection height R:
    x maps to R/(R - <x, p>) times the component of x orthogonal to the unit
    axis p, written in a deterministic basis of the orthogonal complement.
    It maps a (4, n) batch to (Y, ok), Y (3, n) and ok False on the horizon
    <x, p> = R.  The default pole reduces to (x0, x1, x2) * R/(R - x3).
    """
    p = np.asarray(pole, dtype=float)
    if p.shape != (4,):
        raise PreconditionError("pole must be a 4-vector")
    if not np.isfinite(p).all():
        raise PreconditionError("pole must be finite")
    R = float(_vec_norm(p))
    if R <= 0.0:
        raise PreconditionError("pole must be nonzero")
    axis = p / R
    basis = []
    for e in np.eye(4):
        w = e - R4.dot(e, axis) * axis
        for b in basis:
            w = w - R4.dot(w, b) * b
        nw = _vec_norm(w)
        if nw > 1e-12:
            basis.append(w / nw)
    B = np.array(basis[:3])

    def project(x):
        den = R - R4.dot(x, axis[:, None])
        ok = ~(abs(den) <= 1e-12 * np.fmax(R, np.abs(x).max(axis=0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            y = (R / den) * _matvec(B, x)
        return y, ok

    return project


# the files of each sign of a grid run: the diagnostics CSV, the 4d mesh
# JSON and, with a projector, the OBJ
_SUFFIXES = (".csv", ".mesh.json", ".obj")


def write_grids(rows, bases, projector, note) -> list:
    """Write the files of one grid run, rows the GridRows of its signs over
    one lattice, to each sign's base path in bases plus _SUFFIXES, block by
    block from _grid_chunks, checked and projected before a file opens; the
    paths written, in order."""
    paths = [base + suffix for base in bases
             for suffix in _SUFFIXES[:2 + (projector is not None)]]
    chunks = _grid_chunks(rows, projector, note)
    first = next(chunks)
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path in paths]
        for f, chunk in chain([first], chunks):
            files[f].write(chunk)
    return paths


def grid_texts(rows, projector, note) -> list:
    """The text of each file write_grids writes for rows, in its order."""
    texts = {}
    for f, chunk in _grid_chunks(rows, projector, note):
        texts.setdefault(f, []).append(chunk)
    return [b"".join(texts[f]).decode("ascii") for f in sorted(texts)]


def _grid_chunks(rows, projector, note):
    """The text of the files of one grid run, rows the GridRows of its signs
    over one lattice, as (file, bytes) chunks in each file's order: file
    m s + j is rows[s]'s file of suffix _SUFFIXES[j], of the m files a sign
    has.  Every check runs before the first chunk: a placed row whose
    position is not finite fails with ValueError, as canonical_json would.

    A block's floats, of every sign, are formatted in one _cells pass; the
    u and v cells are the lattice's axes' (rows.u[::nv], rows.v[:nv]), the
    flags and corners from one table of integer cells.  The mesh vertices
    (null where sampling failed) are the CSV's x0..x3 cells, its quads those
    whose four corners all exist, wound consistently.  Every grid point has
    an OBJ vertex line, nan where the sample or the projection failed, so
    face indices stay grid-addressable; the OBJ splits each quad of
    projected corners into two triangles with matching winding.
    """
    m = 2 + (projector is not None)
    nu, nv = rows[0].shape
    n = nu * nv
    for r in rows:
        if not np.isfinite(r.position[:, r.flags < FLAG_OUT_OF_DOMAIN]).all():
            raise ValueError("Out of range float values are not JSON compliant")
    obj = [_obj_vertices(r, projector) for r in rows]
    # the flags reach FLAG_DEGENERATE_SAMPLE, which may pass n
    table = _int_cells(np.arange(max(n, *(int(r.flags.max())
                                          for r in rows)) + 1))
    axes = _cells(np.concatenate((rows[0].u[::nv], rows[0].v[:nv])))
    for s, r in enumerate(rows):
        yield m * s, CSV_HEADER.encode() + b"\n"
        yield (m * s + 1,
               b'{"kind":"grid-mesh-r4","nu":%d,"nv":%d,"quads":[' % (nu, nv))
        quads = _quads((r.flags < FLAG_OUT_OF_DOMAIN).reshape(nu, nv))
        for text in _corner_chunks(quads, table, b",[", b",,,]"):
            yield m * s + 1, text
        yield m * s + 1, b'],"vertices":['
        if projector is not None:
            yield m * s + 2, ("# lossy 3d projection of a 4d grid surface%s\n"
                              "# grid %d x %d, row-major, u varying slowest\n"
                              % (f" ({note})" if note else "", nu, nv)).encode()
    for lo in _block_starts(n):
        cells = _cells(np.stack([_block_floats(r, y, lo)
                                 for r, (y, _) in zip(rows, obj)]))
        for s, r in enumerate(rows):
            for j, text in enumerate(_block_text(cells[s], r, axes, table, lo)):
                yield m * s + j, text
    for s, (_, ok) in enumerate(obj):
        yield m * s + 1, b"]}\n"
        if projector is not None:
            # each quad's corners a b c d make the lines f a b c and f a c d
            faces = (_quads(ok.reshape(nu, nv)) + 1)[:, [0, 1, 2, 0, 2, 3]]
            for text in _corner_chunks(faces.reshape(-1, 3), table, b"f ",
                                       b"  \n"):
                yield m * s + 2, text


def _obj_vertices(rows, projector):
    """The OBJ vertices of rows, (3, n) and nan where the sample or the
    projection failed, and the mask of the projected rows; (0, n) and None
    without a projector."""
    if projector is None:
        return np.empty((0, len(rows))), None
    ok = rows.flags < FLAG_OUT_OF_DOMAIN        # placed, then projected
    y = np.full((3, len(rows)), np.nan)
    y[:, ok], ok[ok] = projector(rows.position[:, ok])
    y[:, ~ok] = np.nan
    return y, ok


def _block_floats(rows, y, lo):
    """The floats of the block of rows from lo, laid out here a row each:
    x0..x3, the CSV stats and the OBJ vertex of y."""
    hi = lo + BLOCK_POINTS
    return np.column_stack((rows.position[:, lo:hi].T,
                            rows.stats[lo:hi, _CSV_STATS], y[:, lo:hi].T))


def _block_text(cells, rows, axes, table, lo):
    """The CSV, mesh JSON and, where cells hold OBJ vertices, OBJ text of
    the block of rows from lo: cells those of its _block_floats, axes the
    lattice's axis cells and table the integer cells."""
    nu, nv = rows.shape
    k = np.arange(lo, lo + len(cells))
    flags = rows.flags[lo:lo + len(cells)]
    csv = np.empty((len(cells), 15, _CELL), np.uint8)
    csv[:, 0] = axes[k // nv]
    csv[:, 1] = axes[nu + k % nv]
    csv[:, 2:14] = cells[:, :12]
    csv[:, 14, :_INT_CELL] = table[flags]
    csv[:, 14, _INT_CELL:] = 0
    vertices = _lines(cells[:, :4], b",[", b",,,]")
    vertices[flags >= FLAG_OUT_OF_DOMAIN] = _NULL_VERTEX
    texts = [_text(_lines(csv, b"", b",,,,,,,,,,,,,,\n")),
             _items(vertices, lo)]
    if cells.shape[1] > 12:
        texts.append(_text(_lines(cells[:, 12:], b"v ", b"  \n")))
    return texts


def _corner_chunks(corners, table, lead, seps):
    """The text of rows of grid point indices, a block of rows at a time,
    each index's cell from table, the integer cells of 0, 1, ..., and each
    row framed by _lines and _items."""
    for lo in _block_starts(len(corners)):
        yield _items(_lines(table[corners[lo:lo + BLOCK_POINTS]], lead, seps),
                     lo)
