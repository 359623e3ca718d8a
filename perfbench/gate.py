"""Correctness gate: decides, outside the timed region, whether one
operation's outputs are right.  Each check returns a list of problems; an
empty list means the operation passes.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

import workloads

VERIFY_TOL = 1e-8          # the `superconf verify` default
CATENOID_TOL = 1e-9        # acceptance criterion 1
INVERTED_GRAPH_TOL = 1e-8  # acceptance criterion 8a
RESIDUAL_KEYS = ("max_res_orth", "max_res_len", "max_wintgen_rel")
_WORST = re.compile(r"worst residual ([-+0-9.eE]+) \(tol 1e-8\)")


def _margin(worst):
    return math.log10(VERIFY_TOL / max(worst, 1e-300))


def _load_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2:6], data[:, -1].astype(int)


def catenoid_phi(sign, u, v):
    """Closed form of the catenoid/helicoid surfaces, the same formula the
    catalog entry stores as its `phi` reference, vectorised over points."""
    s = 1.0 if sign == "+" else -1.0
    ch = np.cosh(v)
    return np.stack([(np.cos(u) + u * np.sin(u)) / ch,
                     (np.sin(u) - u * np.cos(u)) / ch,
                     (v * ch - np.sinh(v)) / ch,
                     s * u * np.sinh(v) / ch], axis=1)


def inverted_whitney_graph(u, v):
    """Unit inversion about the origin of the graph of z -> 1/z, the oracle
    of acceptance criterion 8a."""
    r2 = u * u + v * v
    x = np.stack([u, v, u / r2, -v / r2], axis=1)
    return x / np.sum(x * x, axis=1, keepdims=True)


def _sup(a, b):
    return float(np.max(np.linalg.norm(a - b, axis=1))) if len(a) else 0.0


def check_construct(name, out_dir, exit_code):
    """(problems, margin_decades) for one construct operation."""
    spec = workloads.CONSTRUCT[name]
    stem = spec["curve"]
    problems = []
    if exit_code != spec["expected_exit"]:
        problems.append(f"exit code {exit_code}, expected "
                        f"{spec['expected_exit']}")
    try:
        with open(os.path.join(out_dir, f"{stem}-summary.json")) as f:
            summary = json.load(f)
        plus = _load_csv(os.path.join(out_dir, f"{stem}-plus.csv"))
        minus = _load_csv(os.path.join(out_dir, f"{stem}-minus.csv"))
    except (OSError, ValueError) as exc:
        return problems + [f"unreadable output: {exc}"], None

    margins = []
    for word, agg in sorted(summary["signs"].items()):
        worst = [agg[k] for k in RESIDUAL_KEYS if agg.get(k) is not None]
        if not worst:
            continue
        if max(worst) > VERIFY_TOL:
            problems.append(f"{word}: residual {max(worst):.3e} above "
                            f"{VERIFY_TOL:g}")
        if agg["n_clear"] > 0:
            margins.append(_margin(max(worst)))
    if not margins:
        problems.append("no sign has clear rows")

    if stem == "catenoid-helicoid":
        u, v, xp, _ = plus
        _, _, xm, _ = minus
        if not (np.all(np.isfinite(xp)) and np.all(np.isfinite(xm))):
            problems.append("catenoid rows without a position")
        else:
            ep, em = catenoid_phi("+", u, v), catenoid_phi("-", u, v)
            # one global swap of the labels is allowed, as in criterion 1
            sup = min(max(_sup(xp, ep), _sup(xm, em)),
                      max(_sup(xp, em), _sup(xm, ep)))
            if sup > CATENOID_TOL:
                problems.append(f"catenoid closed form off by {sup:.3e}")
    elif stem == "whitney":
        u, v, xm, flags = minus
        clear = flags == 0
        if not clear.any():
            problems.append("whitney '-' has no clear rows")
        sup = _sup(xm[clear], inverted_whitney_graph(u[clear], v[clear]))
        if sup > INVERTED_GRAPH_TOL:
            problems.append(f"whitney '-' off the inverted graph by "
                            f"{sup:.3e}")
    return problems, (min(margins) if margins else None)


def check_selftest(exit_code, criteria):
    """(problems, margin_decades): the failing keys must be exactly the
    known reds; the margin is that of the superconformality residuals the
    criteria 2 and 12 report against the 1e-8 tolerance."""
    problems = []
    if exit_code != workloads.SELFTEST_EXPECTED_EXIT:
        problems.append(f"exit code {exit_code}, expected "
                        f"{workloads.SELFTEST_EXPECTED_EXIT}")
    failing = {c["key"] for c in criteria if not c["passed"]}
    if failing != workloads.SELFTEST_KNOWN_RED:
        problems.append(f"failing criteria {sorted(failing)}, expected "
                        f"{sorted(workloads.SELFTEST_KNOWN_RED)}")
    margins = []
    for c in criteria:
        if c["key"] in ("2", "12"):
            m = _WORST.search(c["detail"])
            if m is None:
                problems.append(f"criterion {c['key']} reports no residual")
            else:
                margins.append(_margin(float(m.group(1))))
    return problems, (min(margins) if margins else None)
