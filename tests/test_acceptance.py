"""One test per built-in acceptance criterion.

`superconf selftest`'s own run, acceptance.run_all, runs once per session;
each test asserts the verdict of its criterion in that shared result, so a
red here is a red in `superconf selftest` and vice versa.  Two checks
compare against recorded closed-form displays that disagree with the
measured geometry by a documented amount; they are asserted at face value
and fail, with the companion checks pinning the discrepancy.
"""

import dataclasses

import numpy as np
import pytest

from superconf import acceptance, catalog, cli, construct, export
from superconf.construct import FLAG_RANK_DEFICIENT
from superconf.errors import UnknownEntryError
from superconf.expr import CurveExpr
from superconf.minimal import Domain, MinimalPair
from test_cli import count_calls


@pytest.fixture(scope="session")
def results():
    return acceptance.run_all()


@pytest.fixture
def check(results):
    by_key = {r.key: r for r in results}

    def check(fn):
        r = by_key[fn.__name__.replace("criterion_", "").replace("_", "-")]
        assert r.passed, f"criterion {r.key}: {r.detail}"
        return r

    return check


def test_catenoid_closed_form_grid(check):
    check(acceptance.criterion_1)


def test_constructed_surfaces_superconformal_with_torus_control(check):
    check(acceptance.criterion_2)


def test_shared_sphere_conformal_factor_metric_translation(check):
    check(acceptance.criterion_3)


def test_pair_inversion_dual_routes(check):
    check(acceptance.criterion_4)


def test_transformed_curve_recertifies(check):
    check(acceptance.criterion_5)


def test_graph_duality_properties(check):
    check(acceptance.criterion_6)


def test_complex_structure_recovery_and_collapse(check):
    check(acceptance.criterion_7)


def test_inverted_graph_equals_built_surface(check):
    check(acceptance.criterion_8a)


def test_inverted_graph_vs_compact_display(check):
    # known red: the display is sqrt(2) times an orthogonal image of the
    # inverted graph, a similarity rather than an isometry
    check(acceptance.criterion_8b)


def test_display_is_a_similarity_of_the_inverted_graph(check):
    check(acceptance.criterion_8b_companion)


def test_degree2_sphere_superminimal(check):
    check(acceptance.criterion_9a)


def test_degree2_metric_vs_recorded_display(check):
    # known red: measured metric is exactly 4/3 x the recorded display
    check(acceptance.criterion_9b)


def test_degree2_metric_matches_display_after_factor(check):
    check(acceptance.criterion_9b_companion)


def test_degree2_pair_quadric_invariant(check):
    check(acceptance.criterion_9c)


def test_normal_transport_and_stereographic_bridges(check):
    check(acceptance.criterion_10)


def test_reflection_symmetry_of_pairs(check):
    check(acceptance.criterion_11)


def test_associated_family_superconformal(check):
    check(acceptance.criterion_12)


def test_jets_determinism_parser_goldens(check):
    check(acceptance.criterion_13)


def test_run_all_covers_every_criterion(results):
    keys = [r.key for r in results]
    assert keys == ["1", "2", "3", "4", "5", "6", "7", "8a", "8b",
                    "8b-companion", "9a", "9b", "9b-companion", "9c", "10",
                    "11", "12", "13"]
    assert all(r.detail for r in results)
    assert all(type(r.passed) is bool for r in results)


def test_a_raised_criterion_keeps_its_title(monkeypatch, capsys):
    # the selftest line of a criterion that raises names it by the title
    # its own result has, not by its docstring
    real = catalog.get

    def get(name):
        if name == "q0-trig-perturbed":
            raise UnknownEntryError(f"no entry {name!r}")
        return real(name)

    monkeypatch.setattr(catalog, "get", get)
    monkeypatch.setattr(acceptance, "CRITERIA", (acceptance.criterion_2,))
    assert cli.main(["selftest"]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "FAIL criterion 2: superconformality of the constructed surfaces "
        "[raised UnknownEntryError: no entry 'q0-trig-perturbed']",
        "0/1 criteria passed"]


@pytest.mark.parametrize("key", ["center_residual", "conformal_residual"])
def test_criterion_3_fails_on_a_nan_of_one_sign(monkeypatch, key):
    # one nan entry of the "-" surface is the worst value, whatever the
    # "+" surface's entries
    real = acceptance.dual_pair_report

    def nan_minus(*args):
        rep = real(*args)
        entries = dict(getattr(rep, key))
        entries["-"] = entries["-"].copy()
        entries["-"][5] = np.nan
        return dataclasses.replace(rep, **{key: entries})

    monkeypatch.setattr(acceptance, "dual_pair_report", nan_minus)
    r = acceptance.criterion_3()
    assert not r.passed
    assert f"{key.split('_')[0]} nan," in r.detail


# the calls a criterion makes, counted on the call; the entries it reads
# are loaded (and load-certified) before counting
def test_associated_family_is_one_construction_pass(monkeypatch):
    # the eight members' samples are joined into one 512-point pass
    catalog.get("catenoid-helicoid")
    contexts = count_calls(monkeypatch, construct, "_assemble")
    assert acceptance.criterion_12().passed
    assert [s.z.size for (s,) in contexts] == [512]


def test_collapse_check_samples_and_fits_each_pair_once(monkeypatch):
    # degenerate_collapse_check recovers the structure from the sample it
    # builds the surfaces from, and criterion 7 reads it off the report
    for name in ("q0-line", "q0-trig"):
        catalog.get(name)
    samples = count_calls(monkeypatch, MinimalPair, "samples_at")
    fits = count_calls(monkeypatch, np.linalg, "lstsq")
    assert acceptance.criterion_7().passed
    assert [pair.name for pair, _ in samples] == ["q0-line", "q0-trig"]
    assert len(fits) == 2


def test_transformed_curve_is_evaluated_once(monkeypatch):
    # certify_sample and the conjugacy check read one sample
    catalog.get("catenoid-helicoid")
    evals = count_calls(monkeypatch, CurveExpr, "eval_jets")
    assert acceptance.criterion_5().passed
    assert len(evals) == 1


def test_criteria_2_and_12_hold_the_unsigned_wintgen_ratio(monkeypatch):
    # one clear row whose Wintgen ratio is -1e-6 and whose circularity
    # residuals vanish: verify and the benchmark gate read |wintgen_rel|, a
    # residual 100 times the 1e-8 tolerance, and so do the two criteria
    rows = export.GridRows(Domain(0.0, 1.0, 0.0, 1.0).lattice(2, 1))
    rows.flags[:] = [0, FLAG_RANK_DEFICIENT]
    rows.position[:] = 0.0
    rows.stats[0] = 0.0
    rows.stats[0, export._STAT_NAMES.index("wintgen_rel")] = -1e-6
    rows.has_stats[0] = True
    monkeypatch.setattr(acceptance, "sample_grids", lambda jobs, signs: [
        [rows for _ in signs] for _ in jobs])
    for criterion, n_clear in ((acceptance.criterion_2, 6),
                               (acceptance.criterion_12, 16)):
        r = criterion()
        assert not r.passed
        assert r.detail.startswith(
            f"worst residual 1.000e-06 (tol 1e-8) over {n_clear} samples")
