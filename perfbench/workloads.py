"""Workload definitions shared by the harness and its child processes.

Each construct operation runs one `superconf construct` call on a
sub-rectangle of its catalog domain.  The sub-rectangle has a fixed size
(FRACTION of each side); the seed and the operation's index pick where it
sits, so every operation does the same amount of work on slightly different
points, and the same seed gives the same sequence of inputs.

The selftest workloads call fixed lists of acceptance criteria; they have
no input, so the seed is ignored.
"""

from __future__ import annotations

import random

FRACTION = 0.9
GRID = (32, 32)
WARMUP_GRID = (6, 6)

CONSTRUCT = {
    "construct": {
        "curve": "catenoid-helicoid",
        "domain": (-7.0, 7.0, -1.6, 1.6),
        "project": "stereo",
        "expected_exit": 0,
    },
    "construct-degenerate": {
        "curve": "whitney",
        "domain": (-2.2, 2.2, -2.2, 2.2),
        "project": None,
        "expected_exit": 3,
    },
}

# the acceptance criteria present when this benchmark was written, fixed so
# that a criterion added later does not move the selftest figures
SELFTEST_KEYS = ("1", "2", "3", "4", "5", "6", "7", "8a", "8b", "9a", "9b",
                 "9b-companion", "9c", "10", "11", "12", "13")
# criteria 1 and 3 take about 55 of the 65 s of the full list; the rest
# still reach moebius, the catalog oracles and fd_crosscheck
SLOW_KEYS = frozenset({"1", "3"})
SELFTEST = {
    "selftest": SELFTEST_KEYS,
    "selftest-quick": tuple(k for k in SELFTEST_KEYS if k not in SLOW_KEYS),
}
WARMUP_KEYS = ("5", "6", "9c", "10")
SELFTEST_KNOWN_RED = frozenset({"8b", "9b"})
SELFTEST_ENTRIES = ("catenoid-helicoid", "whitney", "q0-trig-perturbed",
                    "q0-line", "q0-trig", "enneper-r3", "torus", "veronese",
                    "h4-flat-torus")
SELFTEST_EXPECTED_EXIT = 3

NAMES = ("construct", "construct-degenerate", "selftest", "selftest-quick")


def is_selftest(name):
    return name in SELFTEST


def criterion_function_name(key):
    return "criterion_" + key.replace("-", "_")


def sub_domain(name, seed, index):
    """(u_min, u_max, v_min, v_max) of operation <index>'s sub-rectangle."""
    a, b, c, d = CONSTRUCT[name]["domain"]
    rng = random.Random(f"{name}:{seed}:{index}")
    du = (1.0 - FRACTION) * (b - a)
    dv = (1.0 - FRACTION) * (d - c)
    u0 = a + rng.uniform(0.0, du)
    v0 = c + rng.uniform(0.0, dv)
    return (u0, u0 + FRACTION * (b - a), v0, v0 + FRACTION * (d - c))


def entries(name):
    if is_selftest(name):
        return SELFTEST_ENTRIES
    return (CONSTRUCT[name]["curve"],)


def construct_argv(name, seed, index, out_dir, grid=GRID):
    spec = CONSTRUCT[name]
    dom = ",".join(repr(x) for x in sub_domain(name, seed, index))
    # "=" keeps argparse from reading a leading minus sign as an option
    argv = ["construct", "--curve", spec["curve"], f"--domain={dom}",
            "--grid", f"{grid[0]},{grid[1]}", "--sign", "both",
            "--out", out_dir]
    if spec["project"]:
        argv += ["--project", spec["project"]]
    return argv


def describe(name, seed, index):
    """Text that names one operation's inputs completely."""
    if is_selftest(name):
        return "selftest " + ",".join(SELFTEST[name])
    return " ".join(construct_argv(name, seed, index, "-"))
