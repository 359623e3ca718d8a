"""Grid sampling, CSV/JSON/OBJ writers, byte determinism of the output."""

import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from superconf import catalog, cli, export
from superconf.construct import SIGNS, build_phi_pair
from superconf.errors import (BranchCutError, DegenerateJetError,
                              EvaluationError, FrameDegenerateError,
                              PreconditionError, SingularSampleError,
                              SuperconfError)
from superconf.acceptance import _grid_worst
from superconf.export import (_CSV_STATS, _K_MIN, _STAT_NAMES, BLOCK_POINTS,
                              CSV_HEADER, FLAG_DEGENERATE_SAMPLE,
                              FLAG_OUT_OF_DOMAIN, GridRows, _block_starts,
                              _cells, _int_cells, _lines, _quads, _tables,
                              _text, canonical_json, drop_projector,
                              grid_texts, sample_grid, sample_grids,
                              stereo_projector, summarize, write_grids)
from superconf.geometry import ellipse_descriptor, fundamental_data
from superconf.jets import row_failures
from superconf.minimal import Domain, HolomorphicCurve, MinimalPair


@pytest.fixture(scope="module")
def catenoid():
    return catalog.get("catenoid-helicoid").pair


def holed_pair():
    # the rectangle stays off v = 0, where this pair's h turns tangential
    dom = Domain(0.3, 1.3, 0.3, 1.3, excluded=((0.3 + 0.3j, 0.2),))
    return MinimalPair(HolomorphicCurve(
        "holed", "(cos(z), sin(z), -i*z, 0)", dom))


def test_sample_grid_row_major(catenoid):
    [samples] = sample_grid(catenoid, catenoid.domain.lattice(4, 4), ("+",))
    assert len(samples) == 16
    us = [s.u for s in samples]
    vs = [s.v for s in samples]
    assert us == sorted(us)                      # u varies slowest
    assert vs[:4] == sorted(vs[:4]) and vs[0] < vs[3]
    assert all(s.flags == 0 for s in samples)
    for s in samples:
        ps, _ = build_phi_pair(catenoid, complex(s.u, s.v))
        assert np.array_equal(s.position, ps.phi.v.T[0])


def test_sample_grid_flags_domain_and_degenerate_points():
    pair = holed_pair()
    [samples] = sample_grid(pair, pair.domain.lattice(3, 3), ("+",))
    by_uv = {(s.u, s.v): s for s in samples}
    corner = by_uv[(0.3, 0.3)]
    assert corner.flags == FLAG_OUT_OF_DOMAIN     # inside the excluded disc
    assert corner.position is None

    # h vanishes at the origin of this curve; the frame cannot be built there
    dom = Domain(-1.0, 1.0, -1.0, 1.0)
    pair2 = MinimalPair(HolomorphicCurve("cat", "(cos(z), sin(z), -i*z, 0)", dom))
    [samples2] = sample_grid(pair2, dom.lattice(3, 3), ("+",))
    center = {(s.u, s.v): s for s in samples2}[(0.0, 0.0)]
    assert center.flags == FLAG_DEGENERATE_SAMPLE
    assert center.position is None


def point_rows(pair, u, v):
    """The rows of both signs at one grid point, built alone as a batch of
    one: the construction the grid pass must reproduce bit for bit."""
    z = complex(u, v)
    if not pair.domain.contains(z):
        return [(FLAG_OUT_OF_DOMAIN, None, None)] * 2
    try:
        built = build_phi_pair(pair, z)
    except (FrameDegenerateError, SingularSampleError, EvaluationError,
            DegenerateJetError, BranchCutError):
        return [(FLAG_DEGENERATE_SAMPLE, None, None)] * 2
    rows = []
    for ps in built:
        [flags], stats = ps.flags, None
        fd = fundamental_data(ps.phi)
        if not fd.regular[0]:
            flags |= 4
        else:
            ed = ellipse_descriptor(fd)
            stats = {"K": fd.K, "KN_abs": abs(fd.K_N), "Hnorm": fd.lam,
                     "mu": ed.mu, "res_orth": ed.res_orth,
                     "res_len": ed.res_len,
                     "wintgen": ed.wintgen_defect,
                     "wintgen_rel": ed.wintgen_defect_rel,
                     "a": ps.ctx.a}
            stats = {key: value[0] for key, value in stats.items()}
        rows.append((flags, ps.phi.v.T[0], stats))
    return rows


def as_bits(x):
    return None if x is None else np.asarray(x, float).view(np.uint64).tolist()


JET_FLOOR_PAIR = MinimalPair(HolomorphicCurve(
    "jet-floor", "(z^2/2 - z^4/4, i*(z^2/2 + z^4/4), 2*z^3/3, i)",
    Domain(-1.0, 1.0, -1.0, 1.0)))


@pytest.mark.parametrize("name", ["catenoid-helicoid", "enneper-r3", "q0-line",
                                  "q0-trig", "q0-trig-perturbed", "whitney",
                                  "holed", "jet-floor"])
def test_grid_rows_are_bit_identical_to_points_built_alone(name):
    pair = {"holed": holed_pair(), "jet-floor": JET_FLOOR_PAIR}.get(name)
    pair = pair or catalog.get(name).pair
    grid = sample_grid(pair, pair.domain.lattice(7, 5), ("+", "-"))
    flags_seen = set()
    for k, (plus, minus) in enumerate(zip(*grid)):
        for row, (flags, position, stats) in zip(
                (plus, minus), point_rows(pair, plus.u, plus.v)):
            assert row.flags == flags, (name, row.u, row.v)
            assert as_bits(row.position) == as_bits(position)
            assert (row.stats is None) == (stats is None)
            if stats is not None:
                assert row.stats.keys() == stats.keys()
                assert as_bits(list(row.stats.values())) == as_bits(
                    list(stats.values())), (name, row.u, row.v)
            flags_seen.add(flags)
    if name in ("whitney", "q0-trig", "holed", "jet-floor"):
        assert flags_seen - {0}, name    # flagged rows are covered too

    # build_phi_pair over all the grid's points as one array: the full phi
    # jets and the flags of every row are those of the point built alone,
    # and the failed rows are the points that raise alone
    z = np.array([complex(row.u, row.v) for row in grid[0]])
    with np.errstate(all="ignore"), row_failures(z.size) as failed:
        batch = build_phi_pair(pair, z)
    bad = failed.rows()
    for k, zk in enumerate(z.tolist()):
        try:
            alone = build_phi_pair(pair, zk)
        except SuperconfError:
            assert bad[k], (name, zk)
            continue
        assert not bad[k], (name, zk)
        for b, a in zip(batch, alone, strict=True):
            assert b.flags[k] == a.flags[0], (name, zk)
            assert ([as_bits([slot[k] for slot in c.slots]) for c in b.phi]
                    == [as_bits([slot[0] for slot in c.slots])
                        for c in a.phi]), (name, zk)


POLE_PAIR = MinimalPair(HolomorphicCurve(
    "pole", "(1/(4*z), i/(4*z), z/4, i*z/4)", Domain(-1.0, 1.0, -1.0, 1.0)))


def test_sample_grids_rows_are_each_jobs_own(monkeypatch):
    # blocks of 16 points cut through the jobs of 35, 35, 9, 9 and 35
    # points; every job's rows are those of its own sample_grid run, bit
    # for bit
    jobs = [(pair, pair.domain.lattice(*shape)) for pair, shape in (
        (catalog.get("catenoid-helicoid").pair, (7, 5)), (holed_pair(), (7, 5)),
        (POLE_PAIR, (3, 3)), (JET_FLOOR_PAIR, (3, 3)),
        (catalog.get("whitney").pair, (7, 5)))]
    alone = [sample_grid(pair, lattice, SIGNS) for pair, lattice in jobs]
    monkeypatch.setattr(export, "BLOCK_POINTS", 16)
    joint = sample_grids(jobs, SIGNS)
    assert len(joint) == len(jobs)
    for want, got in zip(alone, joint, strict=True):
        for w, g in zip(want, got, strict=True):
            assert g.shape == w.shape
            assert g.flags.tolist() == w.flags.tolist()
            assert g.has_stats.tolist() == w.has_stats.tolist()
            assert as_bits(g.position) == as_bits(w.position)
            assert as_bits(g.stats) == as_bits(w.stats)

    # the pole pair fails its sampling, and the jet-floor pair its
    # construction, at their lattices' centers, points 74 and 83 of the
    # walk; their blocks, points 64-79 and 80-95, also hold the holed
    # pair's last six rows and whitney's first eight, which keep their own
    # flags
    for rows in joint[2] + joint[3]:
        assert rows.flags[4] == FLAG_DEGENERATE_SAMPLE
    for rows in joint[1]:
        assert (rows.flags[29:] == 0).all() and rows.has_stats[29:].all()
    for rows in joint[4]:
        assert not (rows.flags[:8] & FLAG_DEGENERATE_SAMPLE).any()


def test_sample_grid_validation(catenoid):
    with pytest.raises(PreconditionError):
        sample_grid(catenoid, catenoid.domain.lattice(1, 3), ("+",))
    with pytest.raises(PreconditionError):
        sample_grid(catenoid, catenoid.domain.lattice(3, 3), ("+", "plus"))


def test_summarize_skips_flagged_rows():
    pair = holed_pair()
    [samples] = sample_grid(pair, pair.domain.lattice(3, 3), ("+",))
    agg = summarize(samples)
    assert agg["n_points"] == 9
    assert agg["n_flagged"] == 1
    assert agg["n_clear"] == 8
    assert agg["max_res_orth"] < 1e-12
    assert agg["max_wintgen_rel"] < 1e-12


def test_csv_shape_and_round_trip():
    pair = holed_pair()
    [samples] = sample_grid(pair, pair.domain.lattice(3, 3), ("+",))
    text, _ = grid_texts([samples], None, None)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10                       # header + 9 data rows
    for line, s in zip(lines[1:], samples):
        cells = line.split(",")
        assert len(cells) == 15
        # repr cells round-trip bit for bit
        assert float(cells[0]) == s.u and float(cells[1]) == s.v
        if s.flags == 0:
            back = np.array([float(c) for c in cells[2:6]])
            assert np.array_equal(back, s.position)
            assert cells[-1] == "0"


def test_csv_nan_rows_for_flagged_points():
    pair = holed_pair()
    [samples] = sample_grid(pair, pair.domain.lattice(3, 3), ("+",))
    csv, _ = grid_texts([samples], None, None)
    row = csv.strip().split("\n")[1]                      # (0.3, 0.3) is first
    cells = row.split(",")
    assert cells[0] == "0.3" and cells[-1] == "8"
    assert all(c == "nan" for c in cells[2:14])


def test_mesh_quads_skip_missing_corners():
    pair = holed_pair()
    [samples] = sample_grid(pair, pair.domain.lattice(3, 3), ("+",))
    mesh = json.loads(grid_texts([samples], None, None)[1])
    assert mesh["vertices"][0] is None
    assert len([v for v in mesh["vertices"] if v is not None]) == 8
    # of the 4 quads only the one at the excluded corner is dropped
    assert len(mesh["quads"]) == 3
    assert [0, 3, 4, 1] not in mesh["quads"]


def test_mesh_json_round_trips_bit_exactly(tmp_path, catenoid):
    [samples] = sample_grid(catenoid, catenoid.domain.lattice(3, 3), ("+",))
    path = tmp_path / "m.mesh.json"
    write_grids([samples], [str(tmp_path / "m")], None, None)
    text = path.read_text()
    with open(path) as f:
        loaded = json.load(f)
    assert loaded == reference_mesh_dict(list(samples), 3, 3)
    assert canonical_json(loaded) == text


def test_obj_two_by_two(catenoid):
    [samples] = sample_grid(catenoid, catenoid.domain.lattice(2, 2), ("+",))
    text = grid_texts([samples], drop_projector(3), "drop coordinate 3")[2]
    lines = text.strip().split("\n")
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 4 and len(faces) == 2
    assert faces == ["f 1 3 4", "f 1 4 2"]       # shared diagonal, same winding
    assert lines[0].startswith("#") and "projection" in lines[0]


def test_obj_drops_faces_at_bad_vertices():
    pair = holed_pair()
    [samples] = sample_grid(pair, pair.domain.lattice(3, 3), ("+",))
    text = grid_texts([samples], drop_projector(0), "")[2]
    lines = text.strip().split("\n")
    assert sum(l.startswith("v ") for l in lines) == 9
    assert "v nan nan nan" in lines
    assert sum(l.startswith("f ") for l in lines) == 6   # 3 quads * 2


def test_projectors():
    with pytest.raises(PreconditionError):
        drop_projector(4)
    # the projectors take and return column batches: (4, n) to (3, n)
    y, ok = drop_projector(1)(np.array([[1.0, 2.0, 3.0, 4.0]]).T)
    assert np.array_equal(y, [[1.0], [3.0], [4.0]]) and ok.tolist() == [True]

    proj = stereo_projector()
    y, ok = proj(np.array([[1.0, 2.0, 3.0, 0.5], [0.0, 0.0, 0.0, 1.0],
                           [np.nan, 0.0, 0.0, 0.0]]).T)
    assert np.allclose(y[:, 0], [2.0, 4.0, 6.0])
    # the horizon point fails; a nan point is no horizon point and passes
    assert ok.tolist() == [True, False, True]
    # doubling the pole length rescales the chart, not the axis
    far = stereo_projector((0.0, 0.0, 0.0, 2.0))
    y, ok = far(np.array([[1.0, 0.0, 0.0, 0.0]]).T)
    assert np.allclose(y, [[1.0], [0.0], [0.0]]) and ok.tolist() == [True]
    with pytest.raises(PreconditionError):
        stereo_projector((0.0, 0.0, 0.0, 0.0))
    assert proj(np.empty((4, 0)))[0].shape == (3, 0)


@pytest.mark.parametrize("pole", [(0.0, 0.0, 0.0, 1.0), (0.3, 0.1, -0.2, 1.7)])
def test_stereo_rows_are_bit_identical_to_one_vector_projections(pole):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4000, 4)) * 10.0 ** rng.uniform(-3, 3, (4000, 1))
    y, ok = stereo_projector(pole)(x.T)
    ref = reference_stereo(pole)
    assert ok.all()
    for k, xk in enumerate(x):
        assert as_bits(y[:, k]) == as_bits(ref(xk)), (pole, k)


def test_two_runs_of_one_grid_write_the_same_bytes(catenoid):
    lattice = catenoid.domain.lattice(5, 4)
    [first] = sample_grid(catenoid, lattice, ("+",))
    [second] = sample_grid(catenoid, lattice, ("+",))
    assert (grid_texts([first], stereo_projector(), "stereo")
            == grid_texts([second], stereo_projector(), "stereo"))
    assert (canonical_json(summarize(first))
            == canonical_json(summarize(second)))


def test_write_csv_and_obj_files(tmp_path, catenoid):
    # each sign's CSV, mesh JSON and OBJ, in the order write_grids names
    # them, hold the text of grid_texts
    grid = sample_grid(catenoid, catenoid.domain.lattice(2, 2), ("+", "-"))
    bases = [str(tmp_path / "p"), str(tmp_path / "m")]
    paths = write_grids(grid, bases, stereo_projector(), "stereo")
    assert paths == [base + suffix for base in bases
                     for suffix in (".csv", ".mesh.json", ".obj")]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.rsplit("/", 1)[1] for p in paths)
    texts = [open(path).read() for path in paths]
    assert texts[2].startswith("# lossy 3d projection")
    assert texts == grid_texts(grid, stereo_projector(), "stereo")
    assert write_grids(grid[1:], bases[1:], None, None) == paths[3:5]


# The per-row writers, projectors and reducers that the columnar ones
# replaced, kept as the reference those must match byte for byte.  They take
# lists of GridSample rows and project one vertex at a time.

def reference_summarize(samples):
    clear = [s for s in samples if s.flags == 0 and s.stats is not None]
    out = {"n_points": len(samples), "n_clear": len(clear),
           "n_flagged": len(samples) - len(clear)}
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


def reference_grid_worst(grids):
    """verify's residual rule on the per-row summaries: the largest
    max_res_orth, max_res_len and max_wintgen_rel of the grids with clear
    rows, nan if one is nan, 0.0 for none."""
    aggs = [reference_summarize(list(rows)) for rows in grids]
    aggs = [agg for agg in aggs if agg["n_clear"]]
    worst = 0.0
    for agg in aggs:
        for key in ("max_res_orth", "max_res_len", "max_wintgen_rel"):
            if not worst > agg[key] and not math.isnan(worst):
                worst = agg[key]
    return worst, sum(agg["n_clear"] for agg in aggs)


def _cell(x):
    return repr(float(x))


def reference_csv_text(samples):
    nan = repr(float("nan"))
    lines = [CSV_HEADER]
    for s in samples:
        cells = [_cell(s.u), _cell(s.v)]
        if s.position is None:
            cells += [nan] * 4
        else:
            cells += [_cell(x) for x in s.position]
        if s.stats is None:
            cells += [nan] * 8
        else:
            cells += [_cell(s.stats[k]) for k in CSV_HEADER.split(",")[6:14]]
        cells.append(str(s.flags))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_mesh_dict(samples, nu, nv):
    vertices = [None if s.position is None else [float(x) for x in s.position]
                for s in samples]
    quads = []
    for iu in range(nu - 1):
        for iv in range(nv - 1):
            a, b = iu * nv + iv, (iu + 1) * nv + iv
            c, d = (iu + 1) * nv + iv + 1, iu * nv + iv + 1
            if all(vertices[k] is not None for k in (a, b, c, d)):
                quads.append([a, b, c, d])
    return {"kind": "grid-mesh-r4", "nu": nu, "nv": nv,
            "vertices": vertices, "quads": quads}


def left_fold_dot(a, b):
    """The inner product of two vectors as Python floats, 0.0 + a0 b0 +
    a1 b1 + ... in component order."""
    total = 0.0
    for x, y in zip(*(np.asarray(v, float).tolist() for v in (a, b))):
        total = total + x * y
    return total


def reference_stereo(pole):
    """One vertex at a time; None on the horizon."""
    p = np.asarray(pole, dtype=float)
    R = math.sqrt(left_fold_dot(p, p))
    axis = p / R
    basis = []
    for e in np.eye(4):
        w = e - left_fold_dot(e, axis) * axis
        for b in basis:
            w = w - left_fold_dot(w, b) * b
        nw = math.sqrt(left_fold_dot(w, w))
        if nw > 1e-12:
            basis.append(w / nw)

    def project(x):
        x = np.asarray(x, dtype=float)
        den = R - left_fold_dot(x, axis)
        if abs(den) <= 1e-12 * max(R, float(np.abs(x).max())):
            return None
        return (R / den) * np.array([left_fold_dot(b, x) for b in basis[:3]])

    return project


def reference_drop(k):
    keep = [i for i in range(4) if i != k]
    return lambda x: np.asarray(x, dtype=float)[keep]


def reference_obj_text(samples, nu, nv, projector, note=""):
    mesh = reference_mesh_dict(samples, nu, nv)
    lines = ["# lossy 3d projection of a 4d grid surface"
             + (f" ({note})" if note else ""),
             f"# grid {nu} x {nv}, row-major, u varying slowest"]
    ok = []
    for vert in mesh["vertices"]:
        y = None if vert is None else projector(vert)
        ok.append(y is not None)
        lines.append("v nan nan nan" if y is None
                     else "v " + " ".join(_cell(c) for c in y))
    for (a, b, c, d) in mesh["quads"]:
        if ok[a] and ok[b] and ok[c] and ok[d]:
            lines.append(f"f {a + 1} {b + 1} {c + 1}")
            lines.append(f"f {a + 1} {c + 1} {d + 1}")
    return "\n".join(lines) + "\n"


# the --project choices of construct: (array projector, reference, note)
PROJECTIONS = [
    (stereo_projector(), reference_stereo((0.0, 0.0, 0.0, 1.0)), "stereo"),
    (stereo_projector((0.3, 0.1, -0.2, 1.7)),
     reference_stereo((0.3, 0.1, -0.2, 1.7)), "stereo:0.3,0.1,-0.2,1.7"),
    (drop_projector(2), reference_drop(2), "drop:2"),
]


@pytest.mark.parametrize("proj, ref, note", PROJECTIONS,
                         ids=[note for _, _, note in PROJECTIONS])
def test_projectors_map_columns_as_the_reference_maps_points(proj, ref, note):
    # a (4, n) batch of columns in, (3, n) columns and an (n,) mask out,
    # every column the bits of the one-vector reference
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 300)) * 10.0 ** rng.uniform(-3, 3, 300)
    x[:, :3] = -0.0
    y, ok = proj(x)
    assert y.shape == (3, 300) and ok.shape == (300,) and ok.all()
    for k in range(300):
        assert as_bits(y[:, k]) == as_bits(ref(x[:, k])), (note, k)


def assert_writers_match_reference(grid, nu, nv):
    """The text grid_texts writes for the signs' rows of one grid, all at
    once, with no projection and under each of PROJECTIONS, is the per-row
    reference's for each sign alone."""
    listed = [list(rows) for rows in grid]
    for rows, rows_listed in zip(grid, listed):
        assert repr(summarize(rows)) == repr(reference_summarize(rows_listed))
    try:
        meshes = [canonical_json(reference_mesh_dict(rows, nu, nv))
                  for rows in listed]
    except ValueError:          # JSON has no nan: both refuse the rows
        for proj, _, note in [(None, None, None)] + PROJECTIONS:
            with pytest.raises(ValueError):
                grid_texts(grid, proj, note)
        return
    for proj, ref, note in [(None, None, None)] + PROJECTIONS:
        want = []
        for rows, mesh in zip(listed, meshes):
            want += [reference_csv_text(rows), mesh]
            if proj is not None:
                want.append(reference_obj_text(rows, nu, nv, ref, note))
        assert grid_texts(grid, proj, note) == want, note


@pytest.mark.parametrize("name", ["catenoid-helicoid", "enneper-r3", "q0-line",
                                  "q0-trig", "q0-trig-perturbed", "whitney",
                                  "holed", "jet-floor"])
def test_writers_match_the_per_row_reference(name):
    pair = {"holed": holed_pair(), "jet-floor": JET_FLOOR_PAIR}.get(name)
    pair = pair or catalog.get(name).pair
    grid = sample_grid(pair, pair.domain.lattice(9, 7), ("+", "-"))
    assert_writers_match_reference(grid, 9, 7)
    assert_writers_match_reference(grid[1:], 9, 7)
    for rows in grid:
        assert (canonical_json(summarize(rows))
                == canonical_json(reference_summarize(list(rows))))


# grids of fewer rows than a block of written text, one block, one block and
# a row, and two blocks and a row
BLOCK_EDGE_GRIDS = [(9, 7), (16, 32), (27, 19), (25, 41)]


@pytest.mark.parametrize("nu, nv", BLOCK_EDGE_GRIDS)
def test_writers_match_the_per_row_reference_at_block_edges(nu, nv):
    assert nu * nv < BLOCK_POINTS or nu * nv % BLOCK_POINTS in (0, 1)
    pair = catalog.get("whitney").pair
    plus, minus = sample_grid(pair, pair.domain.lattice(nu, nv), ("+", "-"))
    # whitney's plus surface is flagged everywhere, with positions but no
    # stats; both signs have out-of-domain rows around the excluded disc
    assert set(plus.flags.tolist()) == {6, FLAG_OUT_OF_DOMAIN}
    assert set(minus.flags.tolist()) == {0, FLAG_OUT_OF_DOMAIN}
    # both signs at once, whose flags differ, and a block of rows that ends
    # mid-row at 27 x 19 and 25 x 41
    assert_writers_match_reference([plus, minus], nu, nv)


@pytest.mark.parametrize("sign", ["plus", "both"])
def test_construct_files_match_the_per_row_reference(tmp_path, capsys, sign):
    nu, nv = 27, 19
    code = cli.main(["construct", "--curve", "whitney", "--grid", f"{nu},{nv}",
                     "--sign", sign, "--project", "stereo",
                     "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 3                # the plus surface has no clear row
    signs = {"plus": ("+",), "both": ("+", "-")}[sign]
    pair = catalog.get("whitney").pair
    names = {"whitney-summary.json"}
    lattice = pair.domain.lattice(nu, nv)
    for s, rows in zip(signs, sample_grid(pair, lattice, signs)):
        listed = list(rows)
        stem = f"whitney-{cli.SIGN_WORDS[s]}"
        names |= {stem + ".csv", stem + ".mesh.json", stem + ".obj"}
        assert (tmp_path / f"{stem}.csv").read_text() == reference_csv_text(
            listed)
        assert ((tmp_path / f"{stem}.mesh.json").read_text()
                == canonical_json(reference_mesh_dict(listed, nu, nv)))
        assert ((tmp_path / f"{stem}.obj").read_text() == reference_obj_text(
            listed, nu, nv, reference_stereo((0.0, 0.0, 0.0, 1.0)),
            "stereo from pole (0,0,0,1)"))
    assert {p.name for p in tmp_path.iterdir()} == names


def random_rows(nu, nv, seed):
    """Made-up rows over a random nu x nv lattice: clear, flagged 4 with no
    stats, and out of the domain."""
    rng = np.random.default_rng(seed)
    rows = GridRows(rng.standard_normal(nu)[:, None]
                    + 1j * rng.standard_normal(nv))
    rows.flags[:] = rng.choice([0, 0, 0, 4, FLAG_OUT_OF_DOMAIN], nu * nv)
    placed = rows.flags < FLAG_OUT_OF_DOMAIN
    rows.position[:, placed] = rng.standard_normal((4, placed.sum()))
    rows.has_stats[:] = rows.flags == 0
    rows.stats[rows.has_stats] = rng.standard_normal(
        (rows.has_stats.sum(), len(_STAT_NAMES)))
    return rows


def test_writers_hold_one_block_of_text(tmp_path):
    # writing a 128 x 128 grid holds the columns plus one block of text:
    # the whole text of one sign held at once peaked at 22.1 MB for the CSV
    # and the mesh and at 7.1 MB for the OBJ
    grid = [random_rows(128, 128, seed) for seed in (5, 6)]
    tracemalloc.start()
    try:
        for signs, projector in ((1, None), (1, stereo_projector()),
                                 (2, stereo_projector())):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_grids(grid[:signs], [str(tmp_path / "p"),
                                       str(tmp_path / "m")][:signs],
                        projector, "stereo")
            assert tracemalloc.get_traced_memory()[1] - held < 4e6, signs
    finally:
        tracemalloc.stop()
    # more text than the bound was written
    assert sum(p.stat().st_size for p in tmp_path.iterdir()) > 8e6


def test_obj_pole_at_a_vertex_drops_its_faces(catenoid):
    [rows] = sample_grid(catenoid, catenoid.domain.lattice(5, 4), ("+",))
    k = 6                                   # interior: 4 quads touch it
    pole = rows.position[:, k].tolist()
    text = grid_texts([rows], stereo_projector(pole), "")[2]
    assert text == reference_obj_text(list(rows), 5, 4, reference_stereo(pole))
    lines = text.split("\n")
    assert lines[2 + k] == "v nan nan nan"
    faces = [l.split()[1:] for l in lines if l.startswith("f ")]
    assert len(faces) == 2 * (4 * 3 - 4)
    assert all(str(k + 1) not in f for f in faces)


def hand_rows(nan_at):
    """A 3 x 2 grid of made-up clear rows but the last, with a nan res_orth
    in row nan_at and a nan position in row 1."""
    rng = np.random.default_rng(3)
    rows = GridRows(Domain(0.0, 1.0, 0.0, 1.0).lattice(3, 2))
    rows.flags[:] = [0, 0, 0, 0, 0, 1]
    rows.position[:] = rng.standard_normal((6, 4)).T
    rows.position[2, 1] = np.nan
    rows.stats[:] = rng.standard_normal((6, len(_STAT_NAMES)))
    rows.has_stats[:] = True
    rows.stats[nan_at, _STAT_NAMES.index("res_orth")] = np.nan
    return rows


@pytest.mark.parametrize("nan_at", [0, 2])
def test_reducers_keep_the_builtin_max_nan_semantics(nan_at, tmp_path):
    # builtin max keeps a nan only when it comes first; np.max always would
    rows = hand_rows(nan_at)
    agg = summarize(rows)
    assert repr(agg) == repr(reference_summarize(list(rows)))
    assert np.isnan(agg["max_res_orth"]) == (nan_at == 0)
    worst = _grid_worst([rows, rows])
    assert repr(worst) == repr(reference_grid_worst([rows, rows]))
    assert np.isnan(worst[0]) == (nan_at == 0) and worst[1] == 10
    # the mesh JSON has no nan position, so the run is refused
    assert_writers_match_reference([rows], 3, 2)


@pytest.mark.parametrize("bad_sign", [0, 1])
@pytest.mark.parametrize("projector", [None, stereo_projector()])
def test_a_non_finite_position_refuses_the_run_before_a_file_opens(
        tmp_path, bad_sign, projector):
    # JSON has no nan or inf: a placed row with either in either sign stops
    # every file of the run, the other sign's too
    good = hand_rows(2)
    good.position[2, 1] = 0.5
    grid = [good, good]
    grid[bad_sign] = hand_rows(2)
    with pytest.raises(ValueError):
        write_grids(grid, [str(tmp_path / "p"), str(tmp_path / "m")],
                    projector, "stereo")
    assert not any(tmp_path.iterdir())
    grid[bad_sign].position[2, 1] = np.inf
    with pytest.raises(ValueError):
        grid_texts(grid, projector, "stereo")


NAN, INF = float("nan"), float("inf")
# clear-row sequences of one stat column: a nan first and a nan later, tied
# zeros in either order (the first one wins, so -0.0 can be a maximum or a
# minimum; numpy's own reductions pick another tie from 16 entries on), and
# infinities
EXTREME_CASES = [
    [NAN, 1.0, -2.0, 3.0, 0.5],
    [1.0, -2.0, NAN, 3.0, 0.5],
    [2.0, NAN, NAN, NAN, NAN],
    [-0.0, 0.0, -1.0, -0.0, -2.0],
    [0.0, -0.0, -1.0, -3.0, -0.0],
    [-0.0, 0.0, 1.0, 2.0, 0.0],
    [0.0, -0.0, 1.0, -0.0, 2.0],
    [0.0] + [-0.0] * 19,
    [-0.0] + [0.0] * 19,
    [-INF, 1.0, INF, -INF, INF],
    [INF, NAN, -INF, 1.0, 0.0],
]


def stat_rows(name, values):
    """Made-up rows over a (len(values) + 1) x 1 grid, all clear but the
    last, with the given values of stat name in the clear rows and inf in
    the flagged one."""
    rng = np.random.default_rng(5)
    rows = GridRows(Domain(0.0, 1.0, 0.0, 1.0).lattice(len(values) + 1, 1))
    rows.flags[:] = 0
    rows.flags[-1] = 1
    rows.position[:] = rng.standard_normal((len(rows), 4)).T
    rows.stats[:] = rng.standard_normal((len(rows), len(_STAT_NAMES)))
    rows.stats[:, _STAT_NAMES.index(name)] = values + [INF]
    rows.has_stats[:] = True
    return rows


@pytest.mark.parametrize("name", ["res_orth", "res_len", "wintgen",
                                  "wintgen_rel", "mu", "Hnorm"])
def test_reducers_keep_the_builtin_rule_on_ties_infinities_and_nan(name):
    # the companion of the test above, over every stat that summarize or
    # _grid_worst reads: each case in turn fills the clear rows of one column
    for values in EXTREME_CASES:
        rows = stat_rows(name, values)
        where = (name, values)
        assert repr(summarize(rows)) == repr(
            reference_summarize(list(rows))), where
        assert repr(_grid_worst([rows, rows])) == repr(
            reference_grid_worst([rows, rows])), where
    if name == "wintgen_rel":
        # the ratio counts unsigned: -0.0 is 0.0, and -1e-6 is 1e-6
        for value, want in ((-0.0, "(0.0, 5)"), (-1e-6, "(1e-06, 5)")):
            rows = stat_rows(name, [value] * 5)
            rows.stats[:, [_STAT_NAMES.index("res_orth"),
                           _STAT_NAMES.index("res_len")]] = 0.0
            assert repr(_grid_worst([rows])) == repr(
                reference_grid_worst([rows])) == want
    if name in ("mu", "Hnorm"):
        maximum = summarize(stat_rows(name, EXTREME_CASES[3]))[f"{name}_max"]
        assert repr(maximum) == "-0.0"
    if name == "mu":
        assert repr(summarize(stat_rows(name, EXTREME_CASES[5]))["mu_min"]
                    ) == "-0.0"


# The repr-based writers that the array formatter replaced, kept as the
# reference whose text it must match byte for byte.

def _groups(strings, k):
    """Consecutive k-tuples of an iterable."""
    it = iter(strings)
    return zip(*[it] * k)


def reference_csv_mesh_chunks(samples, nu, nv):
    placed = samples.flags < FLAG_OUT_OF_DOMAIN
    quads = _quads(placed.reshape(nu, nv))
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
            map(repr, samples.position[:, lo:hi].T.ravel().tolist()), 4)))
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


def reference_obj_chunks(samples, nu, nv, projector, note):
    placed = samples.flags < FLAG_OUT_OF_DOMAIN
    y = np.full((3, len(samples)), np.nan)
    ok = np.zeros(len(samples), bool)
    y[:, placed], ok[placed] = projector(samples.position[:, placed])
    y[:, ~ok] = np.nan
    y = y.T
    faces = _quads(ok.reshape(nu, nv)) + 1
    yield ("# lossy 3d projection of a 4d grid surface"
           + (f" ({note})" if note else "")
           + f"\n# grid {nu} x {nv}, row-major, u varying slowest\n")
    for lo in _block_starts(len(y)):
        yield "".join(f"v {a} {b} {c}\n" for a, b, c in _groups(
            map(repr, y[lo:lo + BLOCK_POINTS].ravel().tolist()), 3))
    for lo in _block_starts(len(faces)):
        yield "".join(f"f {a} {b} {c}\nf {a} {c} {d}\n"
                      for a, b, c, d in faces[lo:lo + BLOCK_POINTS].tolist())


def assert_writers_match_repr_writers(grid, nu, nv, projector, note):
    """The text grid_texts writes for the signs' rows of one grid, all at
    once, is the repr writers' for each sign alone."""
    want = []
    for rows in grid:
        placed = rows.flags < FLAG_OUT_OF_DOMAIN
        assert np.isfinite(rows.position[:, placed]).all()
        want += map("".join, zip(*reference_csv_mesh_chunks(rows, nu, nv)))
        if projector is not None:
            want.append("".join(
                reference_obj_chunks(rows, nu, nv, projector, note)))
    assert grid_texts(grid, projector, note) == want


# a curve whose exp(z^3) overflows over part of the square: those points are
# flagged 16, with no position
EXP_CUBE_PAIR = MinimalPair(HolomorphicCurve(
    "exp-cube", "(exp(z^3), i*exp(z^3), z, 0)", Domain(-6.0, 6.0, -6.0, 6.0)))


@pytest.mark.parametrize("name, nu, nv, shows", [
    # two blocks of rows, the second of one row, which cuts a lattice row
    ("catenoid-helicoid", 27, 19,
     lambda rows, csv, obj: len(rows) > BLOCK_POINTS),
    # plus flagged 6 with nan stats, both signs flagged 8 with nan cells;
    # whitney's own grids have no flag-16 row, which exp-cube has
    ("whitney", 9, 7, lambda rows, csv, obj: set(rows.flags.tolist()) & {6, 8}
     and ",nan," in csv),
    # the stereographic projection writes -0.0 cells
    ("enneper-r3", 9, 7,
     lambda rows, csv, obj: re.search(r"(?<= )-0\.0(?=[ \n])", obj)),
    ("exp-cube", 13, 13,
     lambda rows, csv, obj: FLAG_DEGENERATE_SAMPLE in rows.flags.tolist()),
    # fewer points than the largest flag, which the integer cells cover
    ("exp-cube", 5, 4,
     lambda rows, csv, obj: FLAG_DEGENERATE_SAMPLE in rows.flags.tolist()),
    ("catenoid-helicoid", 2, 2, lambda rows, csv, obj: len(rows) == 4),
], ids=["catenoid-helicoid", "whitney", "enneper-r3", "exp-cube",
        "exp-cube-5x4", "catenoid-helicoid-2x2"])
def test_writers_match_the_repr_writers(name, nu, nv, shows):
    pair = EXP_CUBE_PAIR if name == "exp-cube" else catalog.get(name).pair
    grid = sample_grid(pair, pair.domain.lattice(nu, nv), ("+", "-"))
    for rows in grid:
        csv, _, obj = grid_texts([rows], stereo_projector(), "")
        assert shows(rows, csv, obj)
    # both signs at once and the minus sign alone, with no projection and
    # under each of the projections
    for signs in (grid, grid[1:]):
        for proj, _, note in [(None, None, None)] + PROJECTIONS:
            assert_writers_match_repr_writers(signs, nu, nv, proj, note)


def test_writers_match_the_repr_writers_on_the_stereo_horizon(catenoid):
    [rows] = sample_grid(catenoid, catenoid.domain.lattice(5, 4), ("+",))
    pole = stereo_projector(rows.position[:, 6].tolist())
    assert "\nv nan nan nan\n" in grid_texts([rows], pole, "pole")[2]
    assert_writers_match_repr_writers([rows], 5, 4, pole, "pole")


@pytest.mark.parametrize("signs", [1, 2])
def test_integer_cells_cover_the_flags_past_the_grid_size(signs):
    # a 2 x 2 grid's corner indices reach 4, its flags 16: the one table of
    # integer cells holds both, for the rows of every sign
    grid = [GridRows(Domain(0.0, 1.0, 0.0, 1.0).lattice(2, 2))
            for _ in range(signs)]
    for rows, flags in zip(grid, ([FLAG_OUT_OF_DOMAIN, 0, 4, 0],
                                  [0, FLAG_DEGENERATE_SAMPLE, 0, 0])):
        rows.flags[:] = flags
        placed = rows.flags < FLAG_OUT_OF_DOMAIN
        rows.position[:, placed] = np.arange(4.0 * placed.sum()).reshape(4, -1)
        rows.has_stats[:] = rows.flags == 0
        rows.stats[rows.has_stats] = 0.25
    for proj, _, note in [(None, None, None)] + PROJECTIONS:
        assert_writers_match_repr_writers(grid, 2, 2, proj, note)
    assert_writers_match_reference(grid, 2, 2)


def formatter_lines(x):
    """The array formatter's text of the floats x, one a line."""
    return _text(_lines(_cells(np.reshape(x, (-1, 1))), b"", b"\n"))


def assert_formatter_is_repr(x):
    got = formatter_lines(x)
    want = "\n".join(map(repr, np.asarray(x).tolist())).encode() + b"\n"
    if got != want:
        pairs = zip(got.split(b"\n"), want.split(b"\n"))
        raise AssertionError(next((g, w) for g, w in pairs if g != w))


EDGE_FLOATS = np.array(
    [0.0, np.nan, np.inf, 5e-324, np.nextafter(sys.float_info.min, 0.0),
     sys.float_info.min, sys.float_info.max,
     1e-4, 1e-5, 1e16, 9999999999999998.0]
    + [2.0 ** e for e in range(-1074, 1024)]
    + [float(f"1e{e}") for e in range(-323, 309)])


def test_formatter_writes_the_bytes_of_repr():
    rng = np.random.default_rng(22)
    # every bit pattern is as likely: all exponents, signs, nan payloads
    assert_formatter_is_repr(rng.integers(
        0, 2 ** 64, 10 ** 6, dtype=np.uint64).view(np.float64))
    edges = np.concatenate((EDGE_FLOATS, -EDGE_FLOATS))
    assert_formatter_is_repr(edges)
    with np.errstate(over="ignore"):    # past the largest float
        assert_formatter_is_repr(np.concatenate((
            np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf))))
    assert_formatter_is_repr(np.concatenate((
        np.arange(10 ** 5), rng.integers(0, 2 ** 53, 10 ** 5, endpoint=True),
        [2 ** 53])).astype(float))


def test_int_formatter_writes_decimal_integers():
    rng = np.random.default_rng(7)
    ints = np.concatenate((np.arange(10 ** 5),
                           rng.integers(0, 10 ** 15, 10 ** 4)))
    text = _text(_lines(_int_cells(ints[:, None]), b"", b"\n"))
    assert text == "".join(f"{i}\n" for i in ints.tolist()).encode()


def test_formatter_tables_are_exact():
    """Schubfach's k, h and g from the multiply-shift logarithms and the
    table of g, against exact rational arithmetic."""
    tables = _tables()
    for index in range(2 * 1, 2 * 2047):
        q, irregular = index // 2 - 1075, index % 2
        k = int(tables.kh[0, index]) + _K_MIN
        x = Fraction(2) ** q * (Fraction(3, 4) if irregular else 1)
        assert Fraction(10) ** k <= x < Fraction(10) ** (k + 1)
        # h = q + floor(log2(10^-k)) + 2
        lg = int(tables.kh[1, index]) - q - 2
        power = Fraction(10) ** -k
        assert Fraction(2) ** lg <= power < Fraction(2) ** (lg + 1)
        g1, g0 = (int(limb) for limb in tables.g[:, k - _K_MIN])
        assert ((g1 << 63) + g0
                == math.floor(power * Fraction(2) ** (125 - lg)) + 1)
