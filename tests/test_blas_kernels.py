"""The golden digests of tests/test_outputs.py under other BLAS kernels.

No sum that reaches an output goes through BLAS (tests/test_imports.py
guards it), so the pinned files and reports must not depend on the kernel
OpenBLAS picks at run time.  For each kernel of KERNELS a child process,
whose environment alone sets OPENBLAS_CORETYPE, reruns every pinned command;
its files and reports must have the golden digests.  The one exception is
criterion 7 of `selftest`: its two `structure` residuals come from
moebius.recover_complex_structure, whose least-squares fit and SVD are
LAPACK's and round as the kernel does, so those two numbers are masked and
the rest of that report is compared with the default kernel's."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

from superconf import cli
from test_outputs import CONSTRUCT_FILES, REPORTS

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
# OPENBLAS_CORETYPE values and the CPU flags (/proc/cpuinfo names) their
# code needs: AVX2 with FMA, AVX without FMA, and SSE3
KERNELS = {"Haswell": ("avx2", "fma"), "SandyBridge": ("avx",),
           "Prescott": ("pni",)}
# criterion 7's LAPACK-rounded residuals
STRUCTURE = re.compile(r"structure \d\.\de[+-]\d\d")
CHILD = ("import json, sys\n"
         "from test_blas_kernels import run_pinned\n"
         "json.dump(run_pinned(sys.argv[1]), sys.stdout)\n")


def sha(data):
    return hashlib.sha256(data).hexdigest()


def blas_probe():
    """The digest of BLAS products of fixed random 2x2 matrices, which
    round as the kernel's fused or unfused multiply-adds do."""
    a, b = np.random.default_rng(5).standard_normal((2, 4096, 2, 2))
    return sha(np.matmul(a, b).tobytes())


def run_pinned(out_dir):
    """In this process: the exit code and file digests of every pinned
    construct run (files under out_dir), the exit code and stdout of every
    pinned report, and blas_probe."""
    construct = []
    for k, (curve, *rest) in enumerate(CONSTRUCT_FILES):
        out = pathlib.Path(out_dir, str(k))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["construct", "--curve", curve, *rest,
                             "--out", str(out)])
        construct.append([code, {p.name: sha(p.read_bytes())
                                 for p in out.iterdir()}])
    reports = []
    for argv in REPORTS:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(list(argv))
        reports.append([code, text.getvalue()])
    return {"construct": construct, "reports": reports,
            "probe": blas_probe()}


def openblas_skip_reason():
    """Why this numpy cannot switch its BLAS kernel, or None."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return (f"OPENBLAS_CORETYPE names x86-64 kernels; this machine "
                f"is {platform.machine()}")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS"
    if "openblas" not in blas.get("name", "").lower():
        return f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS"
    return None


def cpu_flags():
    """The CPU's feature flags, or None where /proc/cpuinfo is unreadable."""
    try:
        text = pathlib.Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    return set(re.search(r"^flags\s*:(.*)$", text, re.M).group(1).split())


def masked(report):
    """selftest's stdout with criterion 7's two structure residuals masked."""
    text, n = STRUCTURE.subn("structure <LAPACK>", report)
    assert n == 2, report
    return text


@pytest.fixture(scope="module")
def kernel_runs(tmp_path_factory):
    """kernel -> run_pinned in a child process under that kernel, for the
    kernels this CPU can run; the children run at once."""
    reason = openblas_skip_reason()
    if reason:
        pytest.skip(reason)
    flags = cpu_flags()
    if flags is None:
        pytest.skip("the CPU's feature flags are unknown")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")]))
    children = {
        kernel: subprocess.Popen(
            [sys.executable, "-c", CHILD,
             str(tmp_path_factory.mktemp(kernel))],
            env=dict(env, OPENBLAS_CORETYPE=kernel), cwd=TESTS,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for kernel, needs in KERNELS.items() if flags.issuperset(needs)}
    runs = {}
    for kernel, child in children.items():
        out, err = child.communicate(timeout=600)
        assert child.returncode == 0, (kernel, err)
        runs[kernel] = json.loads(out)
    return runs


@pytest.fixture(scope="module")
def default_selftest():
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli.main(["selftest"])
    return text.getvalue()


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_golden_digests_under_another_kernel(kernel, kernel_runs,
                                             default_selftest):
    if kernel not in kernel_runs:
        pytest.skip(f"this CPU lacks the features of the {kernel} kernel")
    run = kernel_runs[kernel]
    assert [tuple(c) for c in run["construct"]] == list(
        CONSTRUCT_FILES.values())
    for argv, (code, text) in zip(REPORTS, run["reports"]):
        if argv == ("selftest",):
            assert (code, masked(text)) == (REPORTS[argv][0],
                                            masked(default_selftest))
        else:
            assert (code, sha(text.encode())) == REPORTS[argv], argv


def test_the_children_ran_other_kernels(kernel_runs):
    """A fused (Haswell) and an unfused (SandyBridge) kernel round the
    probe apart, so the variable reached OpenBLAS and the digests above
    were made by those kernels."""
    if not {"Haswell", "SandyBridge"} <= kernel_runs.keys():
        pytest.skip("this CPU cannot run both the Haswell and SandyBridge "
                    "kernels")
    assert (kernel_runs["Haswell"]["probe"]
            != kernel_runs["SandyBridge"]["probe"])
