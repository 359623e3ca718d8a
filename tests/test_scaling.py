"""Verdicts that do not depend on units.

Scaling the curve, G -> lambda G, scales g, h and phi by lambda, so every
flag, residual ratio, verdict and exit code stays that of lambda = 1, and
each dimensional CSV column scales by its power of lambda.  A power of two
scales exactly, so there the ratio columns keep their bytes and the
dimensional ones are lambda = 1's times lambda^d, bit for bit."""

import contextlib
import csv
import io
import json

import pytest

from superconf import cli

# the length dimension of each dimensional CSV column; u and v are the
# dimensionless parameter
DIMENSION = {"x0": 1, "x1": 1, "x2": 1, "x3": 1, "Hnorm": -1, "mu": -1,
             "K": -2, "KN_abs": -2, "wintgen": -2}
RATIOS = ("res_orth", "res_len", "a")
DOMAIN = "--domain=-1,1,-1,1"


def catenoid(lam):
    return f"({lam!r}*cos(z), {lam!r}*sin(z), -i*{lam!r}*z, 0)"


def run(*argv):
    """The exit code and the JSON report of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, json.loads(out.getvalue())


def runs(lam, out_dir):
    """The verdicts of construct, certify, quadric and verify on the scaled
    catenoid over a 9 x 9 grid, and the construct CSV columns per sign."""
    curve = catenoid(lam)
    grid = ("--grid", "9,9")
    verdicts, columns = {}, {}
    code, rep = run("construct", "--curve", curve, DOMAIN, *grid,
                    "--out", str(out_dir))
    verdicts["construct"] = code, rep["ok"], {
        word: (agg["n_clear"], agg["n_flagged"])
        for word, agg in rep["signs"].items()}
    for word in rep["signs"]:
        with open(out_dir / f"inline-{word}.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        columns[word] = {name: [row[name] for row in rows] for name in rows[0]}
    code, rep = run("certify", "--curve", curve, DOMAIN, *grid)
    verdicts["certify"] = code, rep["ok"]
    code, rep = run("quadric", "--curve", curve, DOMAIN, *grid)
    verdicts["quadric"] = code, rep["kind"]
    code, rep = run("verify", "--curve", curve, DOMAIN, *grid)
    verdicts["verify"] = code, rep["ok"], rep["dual_pair"]["n_points"], {
        word: (agg["n_clear"], agg["n_flagged"])
        for word, agg in rep["signs"].items()}
    return verdicts, columns


@pytest.fixture(scope="module")
def unscaled(tmp_path_factory):
    verdicts, columns = runs(1.0, tmp_path_factory.mktemp("unscaled"))
    assert verdicts["construct"][0] == 0 and verdicts["verify"][0] == 0
    assert verdicts["certify"] == (0, True)
    return verdicts, columns


@pytest.mark.parametrize("k", [-100, -50, -20, -10, 10, 20, 50, 100])
def test_a_power_of_two_scales_every_column_exactly(k, unscaled, tmp_path):
    lam = 2.0 ** k
    verdicts, columns = runs(lam, tmp_path)
    assert verdicts == unscaled[0]
    for word, cols in columns.items():
        base = unscaled[1][word]
        for name in ("u", "v", "flags") + RATIOS:
            assert cols[name] == base[name], (word, name)
        for name, d in DIMENSION.items():
            for got, want in zip(cols[name], base[name], strict=True):
                if want == "nan":
                    assert got == "nan", (word, name)
                else:
                    assert float(got) == float(want) * lam ** d, (word, name)


@pytest.mark.parametrize("k", [-30, -8, -4, 4, 8, 30])
def test_a_power_of_ten_keeps_every_verdict(k, unscaled, tmp_path):
    verdicts, columns = runs(10.0 ** k, tmp_path)
    assert verdicts == unscaled[0]
    for word, cols in columns.items():
        base = unscaled[1][word]
        assert cols["flags"] == base["flags"], word
        # the ratios are at most of order one, so 1e-12 is relative to 1
        for name in RATIOS:
            for got, want in zip(cols[name], base[name], strict=True):
                assert (got == want == "nan"
                        or abs(float(got) - float(want)) <= 1e-12), name


def test_a_scaled_null_line_is_null():
    """q0-line's curve and the same line scaled by 1e20, whose <<G, G>>
    rounds to about 1e24 against |g|^2 + |h|^2 of about 1e40."""
    for curve in ("(z, i*z, 0, 0)", "(1e20*z, i*1e20*z, 0, 0)"):
        code, rep = run("quadric", "--curve", curve, DOMAIN, "--grid", "9,9")
        assert (code, rep["kind"]) == (0, "null"), curve
