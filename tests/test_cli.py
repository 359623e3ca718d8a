"""Driver subcommands, exit codes, error JSON, output determinism."""

import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from superconf import catalog, cli
from superconf.errors import PreconditionError
from superconf.export import canonical_json
from superconf.minimal import Domain
from test_expr import BAD_NUMBERS, DEEP


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_catalog_list(capsys):
    code, rep = run_json(capsys, "catalog", "list")
    assert code == 0
    names = [e["name"] for e in rep["entries"]]
    assert "catenoid-helicoid" in names and "veronese" in names


def test_catalog_show(capsys):
    code, rep = run_json(capsys, "catalog", "show", "catenoid-helicoid")
    assert code == 0
    assert rep["kind"] == "minimal-pair"
    assert rep["expression"] == "(cos(z), sin(z), -i*z, 0)"
    assert rep["domain"]["v"] == [-1.6, 1.6]


def test_catalog_unknown_entry(capsys):
    code, rep = run_json(capsys, "catalog", "show", "nonsense")
    assert code == 2
    assert rep["error"]["type"] == "UnknownEntryError"
    code, rep = run_json(capsys, "catalog", "show")
    assert code == 2


def test_certify_pass_and_reject(capsys):
    code, rep = run_json(capsys, "certify", "--curve", "catenoid-helicoid",
                         "--grid", "6,6")
    assert code == 0 and rep["ok"]
    assert rep["isotropy_max"] < 1e-12
    # surface-only entries carry no pair to certify
    code, rep = run_json(capsys, "certify", "--curve", "torus")
    assert code == 2 and rep["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize("command", ["certify", "construct", "verify",
                                     "invert"])
def test_closed_form_pair_is_a_usage_error(command, tmp_path, capsys):
    # the veronese pair has closed-form samplers but no holomorphic curve;
    # only quadric reads it
    extra = {"construct": ["--out", str(tmp_path / "out")],
             "invert": ["--center", "0,0,0,5"]}.get(command, [])
    code, rep = run_json(capsys, command, "--curve", "veronese", *extra)
    assert code == 2
    assert rep["error"]["type"] == "PreconditionError"
    assert "veronese" in rep["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_load_certification_and_certify_give_one_verdict(monkeypatch,
                                                        capsys):
    # a regular pair that is not isotropic: G' = (1, 2i, 0, 0)
    text, domain = "(z, 2*i*z, 0, 0)", Domain(-1.0, 1.0, -1.0, 1.0)
    monkeypatch.setitem(catalog._BUILDERS, "skew", lambda: catalog._pair_entry(
        "skew", text, domain, "non-isotropic control"))
    monkeypatch.setattr(catalog, "_CACHE", dict(catalog._CACHE))
    with pytest.raises(PreconditionError, match="failed load certification"):
        catalog.get("skew")
    assert "skew" not in catalog._CERTIFIED
    code, rep = run_json(capsys, "certify", "--curve", text,
                         "--domain=-1,1,-1,1")
    assert code == 3 and rep["ok"] is False
    assert rep["isotropy_max"] > 0.5


def run_process(*argv):
    """The CLI run as its own process, stdout and stderr captured."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "superconf.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_certify_singular_batch_prints_no_warnings():
    # every row of the batch is singular; the command fails cleanly, with
    # nothing on stderr
    proc = run_process("certify", "--curve", "(z, 0)", "--grid", "3,3")
    assert proc.returncode == 3
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {"error": {
        "message": "inline is singular at a certification point",
        "type": "SingularSampleError"}}


# curves whose values or squares overflow over the default domain
OVERFLOWING = ["(exp(800*z), i*exp(800*z), 0, 0)",
               "(cosh(800*z), i*cosh(800*z), 0, 0)",
               "(1e300*z, i*1e300*z, 0, 0)", "(z^99999999999999999999, 0)"]


@pytest.mark.parametrize("curve", OVERFLOWING)
@pytest.mark.parametrize("argv", [["certify"], ["quadric"],
                                  ["invert", "--center", "0,0,0,5"]],
                         ids=["certify", "quadric", "invert"])
def test_overflowing_curves_print_no_warnings(argv, curve):
    proc = run_process(*argv, "--curve", curve, "--grid", "3,3")
    assert proc.stderr == ""
    assert proc.returncode in (2, 3)
    json.loads(proc.stdout)


@pytest.mark.parametrize("curve", ["(1e160*z, i*1e160*z, 0, 0)",
                                   "(exp(800*z), i*exp(800*z), 0, 0)",
                                   "(1e154*z, 0, 0, 0)"],
                         ids=["squares-overflow", "values-overflow",
                              "mean-overflows"])
def test_quadric_rejects_overflowing_curves(capsys, curve):
    # a nan <<G, G>> used to fall through to "Q_k with k = nan", exit 0
    code, rep = run_json(capsys, "quadric", "--curve", curve, "--grid", "3,3")
    assert code == 3
    assert rep["error"]["type"] == "EvaluationError"
    assert rep["error"]["message"].startswith("<<G, G>> overflows at z=")


@pytest.mark.parametrize("argv", [
    ["construct", "--project", "stereo:nan,0,0,1"],
    ["construct", "--project", "stereo:inf,0,0,1"],
    ["invert", "--center", "0,0,0,5", "--radius", "inf"],
    ["invert", "--center", "nan,0,0,5"],
    ["invert", "--center", "0,0,0,5", "--radius", "1e160"],
    ["invert", "--center", "0,0,0,1e200"],
], ids=["pole-nan", "pole-inf", "radius-inf", "center-nan",
        "radius-square-overflows", "center-norm-overflows"])
def test_non_finite_numbers_are_usage_errors(argv, tmp_path, capsys):
    # rejected before any work: exit 2, no file, nothing on stderr
    out = tmp_path / "out"
    extra = ["--out", str(out)] if argv[0] == "construct" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([argv[0], "--curve", "catenoid-helicoid", "--grid",
                         "3,3", *argv[1:], *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["type"] == "PreconditionError"
    assert captured.err == "" and caught == []
    assert not out.exists()


def test_quadric_labels(capsys):
    code, rep = run_json(capsys, "quadric", "--curve", "(z, i*z, 0, 0)")
    assert code == 0
    assert rep["kind"] == "null" and rep["label"] == "Q_0"

    code, rep = run_json(capsys, "quadric", "--curve", "veronese")
    assert code == 0
    assert rep["kind"] == "constant-real"
    assert rep["label"] == "Q_k with k = -4"
    assert rep["sign"] == -1 and rep["radius"] == pytest.approx(1.0, abs=1e-9)

    code, rep = run_json(capsys, "quadric", "--curve", "catenoid-helicoid")
    assert code == 0 and rep["kind"] == "non-constant"


def test_dual_command(capsys):
    code, rep = run_json(capsys, "dual", "--curve", "(z, 1/z)",
                         "--points", "1,0")
    assert code == 0 and rep["ok"]
    assert rep["value_at_first"] == pytest.approx([0.25, 0.0, 0.25, 0.0])
    code, rep = run_json(capsys, "dual", "--curve", "(z, z^2)")
    assert code == 0 and rep["antiholo"] < 1e-9


def test_invert_command(capsys):
    code, rep = run_json(capsys, "invert", "--curve", "catenoid-helicoid",
                         "--center", "0,0,0,5", "--radius", "1",
                         "--grid", "6,6")
    assert code == 0 and rep["ok"]
    assert rep["sup"] < 1e-9
    assert rep["h_convention"] == "+"

    code, rep = run_json(capsys, "invert", "--curve", "whitney",
                         "--center", "0,0,0,0", "--grid", "5,5")
    assert code == 2 and rep["error"]["type"] == "PreconditionError"


def test_invert_skips_a_point_where_h_is_at_the_sqrt_floor(capsys):
    # ||h|| = 1e-7 at the corner z = 1e-7: the frame is degenerate there
    code, rep = run_json(capsys, "invert", "--curve",
                         "(cos(z), sin(z), -i*z, 0)", "--domain=1e-7,1,0,1",
                         "--grid", "2,2", "--center", "0,0,0,5")
    assert code == 0 and rep["ok"]
    assert rep["skipped"]["FrameDegenerateError"] == 1


def test_verify_command(capsys):
    code, rep = run_json(capsys, "verify", "--curve", "catenoid-helicoid",
                         "--domain", "0.2,6.08,-1.5,1.5", "--grid", "8,8")
    assert code == 0 and rep["ok"]
    assert rep["signs"]["plus"]["max_res_orth"] < 1e-10
    assert rep["dual_pair"]["center"] < 1e-7
    assert rep["dual_pair"]["metric"] < 1e-7


def test_project_command(capsys):
    code, rep = run_json(capsys, "project", "--entry", "veronese",
                         "--grid", "6,6")
    assert code == 0 and rep["ok"]
    assert rep["verdict"] == "superminimal"
    assert rep["stereo_round_trip"] < 1e-11

    code, rep = run_json(capsys, "project", "--entry", "clifford-torus-s4",
                         "--grid", "5,5")
    assert code == 3 and not rep["ok"]
    assert rep["verdict"] == "not-minimal"

    code, rep = run_json(capsys, "project", "--entry", "torus", "--grid", "4,4")
    assert code == 2


def test_construct_writes_files(tmp_path, capsys):
    code, rep = run_json(
        capsys, "construct", "--curve", "catenoid-helicoid",
        "--domain", "0.2,6.08,-1.5,1.5", "--grid", "6,6", "--sign", "both",
        "--out", str(tmp_path), "--project", "drop:3")
    assert code == 0 and rep["ok"]
    for stem in ("catenoid-helicoid-plus", "catenoid-helicoid-minus"):
        assert (tmp_path / f"{stem}.csv").exists()
        assert (tmp_path / f"{stem}.mesh.json").exists()
        assert (tmp_path / f"{stem}.obj").exists()
    mesh = json.loads((tmp_path / "catenoid-helicoid-plus.mesh.json").read_text())
    assert len(mesh["vertices"]) == 36
    assert len(mesh["quads"]) == 25
    summary = json.loads((tmp_path / "catenoid-helicoid-summary.json").read_text())
    assert summary["signs"]["plus"]["max_res_orth"] < 1e-8


def test_construct_twice_writes_the_same_bytes(tmp_path, capsys):
    # two runs of the same command write the same bytes
    texts = {}
    for n in ("1", "3"):
        out = tmp_path / f"t{n}"
        code, _ = run(capsys, "construct", "--curve", "catenoid-helicoid",
                      "--grid", "5,5", "--sign", "plus", "--out", str(out))
        assert code == 0
        texts[n] = tuple(sorted(
            (p.name, p.read_bytes()) for p in out.iterdir()))
    assert texts["1"] == texts["3"]


def count_calls(monkeypatch, owner, name):
    """Record the arguments of every call of owner.name."""
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_construct_builds_one_field_context_per_block(tmp_path, capsys,
                                                     monkeypatch):
    # the grid pass evaluates the curve and assembles the field context once
    # per block of points, for both signs together, and never per point;
    # the grid is one full block and a remainder
    from superconf import construct
    from superconf.export import BLOCK_POINTS
    from superconf.expr import CurveExpr
    evals = count_calls(monkeypatch, CurveExpr, "eval_jets")
    contexts = count_calls(monkeypatch, construct, "_assemble")
    nu = BLOCK_POINTS // 16 + 1
    code, _ = run(capsys, "construct", "--curve", "catenoid-helicoid",
                  "--domain", "0.2,6.08,-1.5,1.5", "--grid", f"{nu},16",
                  "--sign", "both", "--out", str(tmp_path))
    assert code == 0
    blocks = [BLOCK_POINTS, nu * 16 - BLOCK_POINTS]
    assert 0 < blocks[1] < BLOCK_POINTS
    assert [z.size for _, z in evals] == blocks
    assert [s.z.size for (s,) in contexts] == blocks


def test_construct_both_signs_match_single_sign_runs(tmp_path, capsys):
    for word in ("both", "plus", "minus"):
        code, _ = run(capsys, "construct", "--curve", "catenoid-helicoid",
                      "--grid", "5,5", "--sign", word, "--project", "drop:3",
                      "--out", str(tmp_path / word))
        assert code == 0
    for word in ("plus", "minus"):
        for ext in (".csv", ".mesh.json", ".obj"):
            name = f"catenoid-helicoid-{word}{ext}"
            assert ((tmp_path / "both" / name).read_bytes()
                    == (tmp_path / word / name).read_bytes())


# at z = 0 the metric factor E of g vanishes while h does not, so the frame's
# division by E hits the jet floor there
JET_FLOOR_CURVE = "(z^2/2 - z^4/4, i*(z^2/2 + z^4/4), 2*z^3/3, i)"


def test_construct_flags_jet_floor_point(tmp_path, capsys):
    code, rep = run_json(capsys, "construct", "--curve", JET_FLOOR_CURVE,
                         "--domain=-1,1,-1,1", "--grid", "3,3",
                         "--out", str(tmp_path))
    assert code == 0 and rep["ok"]
    for word in ("plus", "minus"):
        rows = (tmp_path / f"inline-{word}.csv").read_text().splitlines()[1:]
        flags = {tuple(r.split(",")[:2]): r.split(",")[-1] for r in rows}
        assert flags.pop(("0.0", "0.0")) == "16"
        assert set(flags.values()) == {"0"}


# exp(z^3) overflows on these domains: squares of its derivatives pass the
# float range on the first, its values themselves on the second
OVERFLOW_CURVE = "(exp(z^3), i*exp(z^3), z, 0)"


@pytest.mark.parametrize("domain", ["-6,6,-6,6", "-30,30,-30,30"])
def test_overflowing_curve_gives_flagged_rows(tmp_path, capsys, domain):
    code, rep = run_json(capsys, "construct", "--curve", OVERFLOW_CURVE,
                         f"--domain={domain}", "--grid", "9,9", "--sign",
                         "both", "--project", "stereo", "--out", str(tmp_path))
    assert code == 0
    assert len(rep["files"]) == len(set(rep["files"])) == 7
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        os.path.basename(f) for f in rep["files"])
    for word in ("plus", "minus"):
        path = tmp_path / f"inline-{word}.mesh.json"
        with open(path) as f:
            assert canonical_json(json.load(f)) == path.read_text()
        rows = (tmp_path / f"inline-{word}.csv").read_text().splitlines()[1:]
        assert {r.split(",")[-1] for r in rows} >= {"0", "16"}
    code, rep = run_json(capsys, "verify", "--curve", OVERFLOW_CURVE,
                         f"--domain={domain}", "--grid", "9,9")
    assert code in (0, 3) and rep["signs"]["plus"]["n_clear"] > 0


def test_verify_flags_jet_floor_point(capsys):
    code, rep = run_json(capsys, "verify", "--curve", JET_FLOOR_CURVE,
                         "--domain=-1,1,-1,1", "--grid", "5,5")
    assert code == 0 and rep["ok"]
    assert rep["signs"]["plus"]["n_flagged"] == 1
    assert rep["signs"]["minus"]["n_flagged"] == 1


@pytest.mark.parametrize("curve, domain, center, skipped", [
    ("(1/(4*z), i/(4*z), z/4, i*z/4)", [], "0,0,0,5",
     {"EvaluationError": 1, "flagged": 24}),
    (JET_FLOOR_CURVE, [], "0,0,0,5", {"DegenerateJetError": 1}),
    ("whitney", ["--domain=-1,1,-1,1"], "0,0,0,5",
     {"DomainError": 1, "flagged": 24}),
    ("catenoid-helicoid", ["--domain=-1,1,-1,1"], "0,0,0,0",
     {"EvaluationError": 2, "FrameDegenerateError": 1, "flagged": 12}),
], ids=["pole", "jet-floor", "outside-domain", "transformed-pole"])
def test_invert_counts_the_points_construct_flags(curve, domain, center,
                                                  skipped, capsys):
    # z = 0 is a grid point where the curve has a pole, the jets hit their
    # floor, or whitney's domain excludes it: construct flags that point,
    # and invert counts it by class instead of aborting; the same holds
    # at z = -1 and z = 1, where <<G, G>> = 1 - z^2 of the catenoid pair
    # vanishes and so the transformed curve about the origin has a pole
    code, rep = run_json(capsys, "invert", "--curve", curve, *domain,
                         "--grid", "5,5", "--center", center)
    assert code == 0 and rep["ok"]
    assert rep["skipped"] == skipped


def test_verify_counts_dual_sample_skips_by_class(capsys):
    # all 25 points are dual samples; at z = 0 the division by E hits the
    # jet floor, and that point is counted instead of silently dropped
    code, rep = run_json(capsys, "verify", "--curve", JET_FLOOR_CURVE,
                         "--domain=-1,1,-1,1", "--grid", "5,5")
    assert code == 0
    assert rep["dual_pair"]["skipped"] == {"DegenerateJetError": 1}
    assert rep["dual_pair"]["n_points"] == 24


def test_verify_dual_samples_check_only_the_requested_sign(capsys):
    # the Whitney pair's "+" surface collapses everywhere; "-" alone is a
    # regular superconformal surface and its dual samples all count
    code, rep = run_json(capsys, "verify", "--curve", "whitney",
                         "--sign", "minus")
    assert code == 0 and rep["ok"]
    dual = rep["dual_pair"]
    assert dual["n_points"] == 17 and dual["skipped"] == {}
    assert dual["metric"] is None      # the relation needs both signs
    assert max(dual["center"], dual["conformal"], dual["tangency"]) < 1e-14


def test_usage_errors(capsys):
    code, rep = run_json(capsys, "certify", "--curve", "catenoid-helicoid",
                         "--grid", "1,5")
    assert code == 2
    code, rep = run_json(capsys, "verify", "--curve", "catenoid-helicoid",
                         "--domain", "1,1,0,1", "--grid", "4,4")
    assert code == 2 and "degenerate" in rep["error"]["message"]
    code, rep = run_json(capsys, "invert", "--curve", "catenoid-helicoid",
                         "--center", "0,0,5", "--grid", "4,4")
    assert code == 2
    code, rep = run_json(capsys, "construct", "--curve", "catenoid-helicoid",
                         "--grid", "4,4", "--project", "squash")
    assert code == 2


def test_verify_rejects_too_few_dual_samples(capsys):
    for n in ("0", "-3"):
        code, rep = run_json(capsys, "verify", "--curve", "catenoid-helicoid",
                             "--grid", "4,4", "--dual-samples", n)
        assert code == 2
        assert rep["error"]["type"] == "PreconditionError"
        assert "--dual-samples" in rep["error"]["message"]


def test_parse_grid_caps_the_point_count():
    assert cli._parse_grid("512,512") == (512, 512)
    with pytest.raises(PreconditionError, match="exceeds 262144 points"):
        cli._parse_grid("513,512")


def test_construct_rejects_oversized_grid_before_sampling(tmp_path, capsys,
                                                          monkeypatch):
    from superconf import construct
    from superconf.expr import CurveExpr
    evals = count_calls(monkeypatch, CurveExpr, "eval_jets")
    contexts = count_calls(monkeypatch, construct, "_assemble")
    out = tmp_path / "out"
    code, rep = run_json(capsys, "construct", "--curve", "catenoid-helicoid",
                         "--grid", "513,512", "--out", str(out))
    assert code == 2
    assert rep["error"]["type"] == "PreconditionError"
    assert evals == [] and contexts == []
    assert not out.exists()


def test_verify_builds_each_dual_sample_point_once(capsys, monkeypatch):
    # the grid, one full block and a remainder, takes one array pass per
    # block for both signs; its 16 dual-sample points are built once more,
    # together, as one array
    from superconf import construct
    from superconf.export import BLOCK_POINTS
    contexts = count_calls(monkeypatch, construct, "_assemble")
    nv = BLOCK_POINTS // 16 + 1
    code, rep = run_json(capsys, "verify", "--curve", "catenoid-helicoid",
                         "--grid", f"16,{nv}")
    assert code == 0
    assert rep["dual_pair"]["n_points"] == 16
    assert rep["dual_pair"]["skipped"] == {}
    assert [s.z.size for (s,) in contexts] == [
        BLOCK_POINTS, 16 * nv - BLOCK_POINTS, 16]


def test_io_error_exit(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code, rep = run_json(capsys, "construct", "--curve", "catenoid-helicoid",
                         "--grid", "4,4", "--out", str(blocker / "sub"))
    assert code == 4
    assert "Error" in rep["error"]["type"]


def test_expression_error_exit(capsys):
    code, rep = run_json(capsys, "quadric", "--curve", "(z, ")
    assert code == 2
    assert rep["error"]["type"] == "ExpressionError"
    assert "column 5" in rep["error"]["message"]


@pytest.mark.parametrize("text", [t for t, _, _ in BAD_NUMBERS]
                         + [t for t, _ in DEEP.values()],
                         ids=["superscript", "arabic-digit", "infinite-exponent",
                              "infinite-number", *DEEP])
def test_bad_numbers_and_deep_expressions_are_usage_errors(text, capsys):
    code = cli.main(["certify", "--curve", text])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"]["type"] == "ExpressionError"


@pytest.mark.parametrize("deep", [
    lambda k: "(cos(z), sin(z), -i*z, 0" + " + 0" * (k - 1) + ")",
    lambda k: "(cos(z), sin(z), -i*z, " + "(" * k + "0" + ")" * k + ")"],
    ids=["tree", "parentheses"])
def test_expression_depth_bound(deep, capsys):
    from superconf.expr import MAX_DEPTH

    code, rep = run_json(capsys, "certify", "--curve", deep(MAX_DEPTH))
    assert code == 0 and rep["ok"]
    code, rep = run_json(capsys, "certify", "--curve", deep(MAX_DEPTH + 1))
    assert code == 2 and rep["error"]["type"] == "ExpressionError"


def test_selftest_report_format(capsys, monkeypatch):
    from superconf import acceptance
    from superconf.acceptance import CriterionResult

    fake = [
        CriterionResult("1", "first check", True, "sup 1e-12"),
        CriterionResult("2", "second check", False, "residual 0.3"),
    ]
    monkeypatch.setattr(acceptance, "run_all", lambda: fake)
    code = cli.main(["selftest"])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "PASS criterion 1: first check [sup 1e-12]"
    assert out[1] == "FAIL criterion 2: second check [residual 0.3]"
    assert out[2] == "1/2 criteria passed"
    assert code == 3

    monkeypatch.setattr(acceptance, "run_all", lambda: fake[:1])
    assert cli.main(["selftest"]) == 0
