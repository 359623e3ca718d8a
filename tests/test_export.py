"""Grid sampling, CSV/JSON/OBJ writers, byte determinism of the output."""

import json
import tracemalloc

import numpy as np
import pytest

from superconf import catalog, cli
from superconf.construct import build_phi_pair
from superconf.errors import (BranchCutError, DegenerateJetError,
                              EvaluationError, FrameDegenerateError,
                              PreconditionError, SingularSampleError,
                              SuperconfError)
from superconf.acceptance import _clear_worst
from superconf.export import (_STAT_NAMES, BLOCK_POINTS, CSV_HEADER,
                              FLAG_DEGENERATE_SAMPLE, FLAG_OUT_OF_DOMAIN,
                              GridRows, canonical_json, csv_text,
                              drop_projector, mesh_text, obj_text,
                              sample_grid, stereo_projector, summarize,
                              write_csv, write_obj)
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
    [samples] = sample_grid(catenoid, catenoid.domain, 4, 4, ("+",))
    assert len(samples) == 16
    us = [s.u for s in samples]
    vs = [s.v for s in samples]
    assert us == sorted(us)                      # u varies slowest
    assert vs[:4] == sorted(vs[:4]) and vs[0] < vs[3]
    assert all(s.flags == 0 for s in samples)
    for s in samples:
        ps, _ = build_phi_pair(catenoid, complex(s.u, s.v))
        assert np.array_equal(s.position, ps.phi.values()[0])


def test_sample_grid_flags_domain_and_degenerate_points():
    pair = holed_pair()
    [samples] = sample_grid(pair, pair.domain, 3, 3, ("+",))
    by_uv = {(s.u, s.v): s for s in samples}
    corner = by_uv[(0.3, 0.3)]
    assert corner.flags == FLAG_OUT_OF_DOMAIN     # inside the excluded disc
    assert corner.position is None

    # h vanishes at the origin of this curve; the frame cannot be built there
    dom = Domain(-1.0, 1.0, -1.0, 1.0)
    pair2 = MinimalPair(HolomorphicCurve("cat", "(cos(z), sin(z), -i*z, 0)", dom))
    [samples2] = sample_grid(pair2, dom, 3, 3, ("+",))
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
        rows.append((flags, ps.phi.values()[0], stats))
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
    grid = sample_grid(pair, pair.domain, 7, 5, ("+", "-"))
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


def test_sample_grid_validation(catenoid):
    with pytest.raises(PreconditionError):
        sample_grid(catenoid, catenoid.domain, 1, 3, ("+",))
    with pytest.raises(PreconditionError):
        sample_grid(catenoid, catenoid.domain, 3, 3, ("+", "plus"))


def test_summarize_skips_flagged_rows():
    pair = holed_pair()
    [samples] = sample_grid(pair, pair.domain, 3, 3, ("+",))
    agg = summarize(samples)
    assert agg["n_points"] == 9
    assert agg["n_flagged"] == 1
    assert agg["n_clear"] == 8
    assert agg["max_res_orth"] < 1e-12
    assert agg["max_wintgen_rel"] < 1e-12


def test_csv_shape_and_round_trip():
    pair = holed_pair()
    [samples] = sample_grid(pair, pair.domain, 3, 3, ("+",))
    text = csv_text(samples, 3, 3)
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
    [samples] = sample_grid(pair, pair.domain, 3, 3, ("+",))
    row = csv_text(samples, 3, 3).strip().split("\n")[1]   # (0.3, 0.3) is first
    cells = row.split(",")
    assert cells[0] == "0.3" and cells[-1] == "8"
    assert all(c == "nan" for c in cells[2:14])


def test_mesh_quads_skip_missing_corners():
    pair = holed_pair()
    [samples] = sample_grid(pair, pair.domain, 3, 3, ("+",))
    mesh = json.loads(mesh_text(samples, 3, 3))
    assert mesh["vertices"][0] is None
    assert len([v for v in mesh["vertices"] if v is not None]) == 8
    # of the 4 quads only the one at the excluded corner is dropped
    assert len(mesh["quads"]) == 3
    assert [0, 3, 4, 1] not in mesh["quads"]


def test_mesh_json_round_trips_bit_exactly(tmp_path, catenoid):
    [samples] = sample_grid(catenoid, catenoid.domain, 3, 3, ("+",))
    path = tmp_path / "m.json"
    write_csv(samples, 3, 3, tmp_path / "m.csv", path)
    text = path.read_text()
    with open(path) as f:
        loaded = json.load(f)
    assert loaded == reference_mesh_dict(list(samples), 3, 3)
    assert canonical_json(loaded) == text


def test_obj_two_by_two(catenoid):
    [samples] = sample_grid(catenoid, catenoid.domain, 2, 2, ("+",))
    text = obj_text(samples, 2, 2, drop_projector(3), "drop coordinate 3")
    lines = text.strip().split("\n")
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 4 and len(faces) == 2
    assert faces == ["f 1 3 4", "f 1 4 2"]       # shared diagonal, same winding
    assert lines[0].startswith("#") and "projection" in lines[0]


def test_obj_drops_faces_at_bad_vertices():
    pair = holed_pair()
    [samples] = sample_grid(pair, pair.domain, 3, 3, ("+",))
    text = obj_text(samples, 3, 3, drop_projector(0))
    lines = text.strip().split("\n")
    assert sum(l.startswith("v ") for l in lines) == 9
    assert "v nan nan nan" in lines
    assert sum(l.startswith("f ") for l in lines) == 6   # 3 quads * 2


def test_projectors():
    with pytest.raises(PreconditionError):
        drop_projector(4)
    y, ok = drop_projector(1)(np.array([[1.0, 2.0, 3.0, 4.0]]))
    assert np.array_equal(y, [[1.0, 3.0, 4.0]]) and ok.tolist() == [True]

    proj = stereo_projector()
    y, ok = proj(np.array([[1.0, 2.0, 3.0, 0.5], [0.0, 0.0, 0.0, 1.0],
                           [np.nan, 0.0, 0.0, 0.0]]))
    assert np.allclose(y[0], [2.0, 4.0, 6.0])
    # the horizon point fails; a nan point is no horizon point and passes
    assert ok.tolist() == [True, False, True]
    # doubling the pole length rescales the chart, not the axis
    far = stereo_projector((0.0, 0.0, 0.0, 2.0))
    y, ok = far(np.array([[1.0, 0.0, 0.0, 0.0]]))
    assert np.allclose(y, [[1.0, 0.0, 0.0]]) and ok.tolist() == [True]
    with pytest.raises(PreconditionError):
        stereo_projector((0.0, 0.0, 0.0, 0.0))
    assert proj(np.empty((0, 4)))[0].shape == (0, 3)


@pytest.mark.parametrize("pole", [(0.0, 0.0, 0.0, 1.0), (0.3, 0.1, -0.2, 1.7)])
def test_stereo_rows_are_bit_identical_to_one_vector_projections(pole):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4000, 4)) * 10.0 ** rng.uniform(-3, 3, (4000, 1))
    y, ok = stereo_projector(pole)(x)
    ref = reference_stereo(pole)
    assert ok.all()
    for k, xk in enumerate(x):
        assert as_bits(y[k]) == as_bits(ref(xk)), (pole, k)


def test_two_runs_of_one_grid_write_the_same_bytes(catenoid):
    [seq] = sample_grid(catenoid, catenoid.domain, 5, 4, ("+",))
    [par] = sample_grid(catenoid, catenoid.domain, 5, 4, ("+",))
    assert csv_text(par, 5, 4) == csv_text(seq, 5, 4)
    assert mesh_text(par, 5, 4) == mesh_text(seq, 5, 4)
    assert canonical_json(summarize(par)) == canonical_json(summarize(seq))


def test_write_csv_and_obj_files(tmp_path, catenoid):
    [samples] = sample_grid(catenoid, catenoid.domain, 2, 2, ("+",))
    cpath, mpath = tmp_path / "g.csv", tmp_path / "g.mesh.json"
    write_csv(samples, 2, 2, cpath, mpath)
    assert cpath.read_text() == csv_text(samples, 2, 2)
    assert mpath.read_text() == mesh_text(samples, 2, 2)
    opath = tmp_path / "g.obj"
    write_obj(samples, 2, 2, opath, stereo_projector(), "stereo")
    assert opath.read_text().startswith("# lossy 3d projection")
    assert opath.read_text() == obj_text(samples, 2, 2, stereo_projector(),
                                         "stereo")


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


def reference_clear_worst(rows):
    stats = [r.stats for sign_rows in rows for r in sign_rows if r.flags == 0]
    worst = max((max(abs(st["res_orth"]), abs(st["res_len"]),
                     st["wintgen_rel"]) for st in stats), default=0.0)
    return worst, len(stats)


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


def reference_stereo(pole):
    """One vertex at a time; None on the horizon."""
    p = np.asarray(pole, dtype=float)
    R = float(np.linalg.norm(p))
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


def assert_writers_match_reference(rows, nu, nv):
    listed = list(rows)
    assert csv_text(rows, nu, nv) == reference_csv_text(listed)
    try:
        mesh = canonical_json(reference_mesh_dict(listed, nu, nv))
    except ValueError:          # JSON has no nan: both refuse the rows
        with pytest.raises(ValueError):
            mesh_text(rows, nu, nv)
    else:
        assert mesh_text(rows, nu, nv) == mesh
    assert repr(summarize(rows)) == repr(reference_summarize(listed))
    for proj, ref, note in PROJECTIONS:
        assert (obj_text(rows, nu, nv, proj, note)
                == reference_obj_text(listed, nu, nv, ref, note)), note


@pytest.mark.parametrize("name", ["catenoid-helicoid", "enneper-r3", "q0-line",
                                  "q0-trig", "q0-trig-perturbed", "whitney",
                                  "holed", "jet-floor"])
def test_writers_match_the_per_row_reference(name):
    pair = {"holed": holed_pair(), "jet-floor": JET_FLOOR_PAIR}.get(name)
    pair = pair or catalog.get(name).pair
    for rows in sample_grid(pair, pair.domain, 9, 7, ("+", "-")):
        assert_writers_match_reference(rows, 9, 7)
        assert (canonical_json(summarize(rows))
                == canonical_json(reference_summarize(list(rows))))


# grids of fewer rows than a block of written text, one block, one block and
# a row, and two blocks and a row
BLOCK_EDGE_GRIDS = [(9, 7), (16, 32), (27, 19), (25, 41)]


@pytest.mark.parametrize("nu, nv", BLOCK_EDGE_GRIDS)
def test_writers_match_the_per_row_reference_at_block_edges(nu, nv):
    assert nu * nv < BLOCK_POINTS or nu * nv % BLOCK_POINTS in (0, 1)
    pair = catalog.get("whitney").pair
    plus, minus = sample_grid(pair, pair.domain, nu, nv, ("+", "-"))
    # whitney's plus surface is flagged everywhere, with positions but no
    # stats; both signs have out-of-domain rows around the excluded disc
    assert set(plus.flags.tolist()) == {6, FLAG_OUT_OF_DOMAIN}
    assert set(minus.flags.tolist()) == {0, FLAG_OUT_OF_DOMAIN}
    for rows in (plus, minus):
        assert_writers_match_reference(rows, nu, nv)


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
    for s, rows in zip(signs, sample_grid(pair, pair.domain, nu, nv, signs)):
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


def test_writers_hold_one_block_of_text(tmp_path):
    # writing one sign of a 128 x 128 grid holds the columns plus one block
    # of text: the whole text held at once peaked at 22.1 MB for the CSV and
    # the mesh and at 7.1 MB for the OBJ
    nu = nv = 128
    rng = np.random.default_rng(5)
    rows = GridRows(np.repeat(rng.standard_normal(nu), nv),
                    np.tile(rng.standard_normal(nv), nu))
    rows.flags[:] = rng.choice([0, 0, 0, 4, FLAG_OUT_OF_DOMAIN], nu * nv)
    placed = rows.flags < FLAG_OUT_OF_DOMAIN
    rows.position[placed] = rng.standard_normal((placed.sum(), 4))
    rows.has_stats[:] = rows.flags == 0
    rows.stats[rows.has_stats] = rng.standard_normal(
        (rows.has_stats.sum(), len(_STAT_NAMES)))
    writers = [
        lambda: write_csv(rows, nu, nv, tmp_path / "g.csv",
                          tmp_path / "g.mesh.json"),
        lambda: write_obj(rows, nu, nv, tmp_path / "g.obj",
                          stereo_projector())]
    tracemalloc.start()
    try:
        for write in writers:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write()
            assert tracemalloc.get_traced_memory()[1] - held < 4e6
    finally:
        tracemalloc.stop()
    # more text than the bound was written
    assert sum(p.stat().st_size for p in tmp_path.iterdir()) > 4e6


def test_obj_pole_at_a_vertex_drops_its_faces(catenoid):
    [rows] = sample_grid(catenoid, catenoid.domain, 5, 4, ("+",))
    k = 6                                   # interior: 4 quads touch it
    pole = rows.position[k].tolist()
    text = obj_text(rows, 5, 4, stereo_projector(pole))
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
    rows = GridRows(np.repeat([0.0, 0.5, 1.0], 2), np.tile([0.0, 1.0], 3))
    rows.flags[:] = [0, 0, 0, 0, 0, 1]
    rows.position[:] = rng.standard_normal((6, 4))
    rows.position[1, 2] = np.nan
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
    worst = _clear_worst([rows, rows])
    assert repr(worst) == repr(reference_clear_worst([list(rows)] * 2))
    assert np.isnan(worst[0]) == (nan_at == 0) and worst[1] == 10
    # a nan position is written as it is to the CSV and the OBJ, where its
    # faces stay; the mesh JSON refuses it before a file is opened
    assert_writers_match_reference(rows, 3, 2)
    assert obj_text(rows, 3, 2, stereo_projector()).count("\nf ") == 4
    with pytest.raises(ValueError):
        write_csv(rows, 3, 2, tmp_path / "g.csv", tmp_path / "g.mesh.json")
    assert not any(tmp_path.iterdir())
