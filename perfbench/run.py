"""superconf benchmark harness.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 45 --trace 0

Runs one workload as a closed loop with one client: one process with
SUPERCONF_THREADS=1 sets up, runs one small warm-up operation and then runs
operations one after another until --seconds have passed (at least one
operation).  Before each operation, SETUPS_PER_OP fresh processes only set
up, so that set-up is sampled across the whole run, and the operations'
process times the reference kernel (reference.py); it times the kernel
once more after the last operation.  Each operation's time is reported in
units of the two kernel timings around it.  The reported values are
medians.  Every operation's outputs go through the correctness gate and
the determinism check outside the timed region.  The last line of standard
output is one JSON object; the lines before it print every metric by name
with its unit, the gate verdict and the environment record.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import gate
import reference
import workloads
from tracer import FLAG_BITS, LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
STATE = os.path.join(HERE, ".state", "digests.json")

SETUPS_PER_OP = 2          # set-up-only processes before each operation
RUN_LIMIT_S = 170.0        # the whole run must end well inside 180 s

CHILD_ENV = {**os.environ, "SUPERCONF_THREADS": "1"}

ERROR_CLASSES = (
    "SuperconfError", "ExpressionError", "EvaluationError", "DomainError",
    "DegenerateJetError", "BranchCutError", "SingularSampleError",
    "FrameUndefinedError", "FrameDegenerateError", "PreconditionError",
    "NotNullCurveError", "UnknownEntryError", "InversionSingularError",
    "QuadricSingularError", "DualitySingularError", "ProjectionError",
)

# (metric, unit, better), in the order BENCHMARK.json lists them
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_ref", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("margin_decades", "decades", "higher"),
    ("ok_rate", "ratio", "higher"),
)

# per-call self time; metric name -> span name
SELF_US = (
    ("construct.construction_frame", "construct.construction_frame"),
    ("construct.regularity_flags", "construct.regularity_flags"),
    ("construct.build_phi", "construct.build_phi"),
    ("geometry.fundamental_data", "geometry.fundamental_data"),
    ("geometry.ellipse_descriptor", "geometry.ellipse_descriptor"),
    ("expr.eval_jets", "expr.CurveExpr.eval_jets"),
    ("minimal.samples_at", "minimal.MinimalPair.samples_at"),
    ("construct.dual_pair_report", "construct.dual_pair_report"),
    ("geometry.adapted_frame", "geometry.adapted_frame"),
    ("catalog.expected_eval", "catalog.expected_eval"),
)
CALLS_PER_SAMPLE = (
    ("construct.construction_frame", "construct.construction_frame"),
    ("geometry.fundamental_data", "geometry.fundamental_data"),
    ("expr.eval_jets", "expr.CurveExpr.eval_jets"),
)


def per_layer_spec():
    """(metric, unit, better) of every per-layer metric."""
    spec = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    spec += [(f"{m}.calls_per_sample", "calls/sample", "lower")
             for m, _ in CALLS_PER_SAMPLE]
    spec += [(f"{m}.self_us", "us", "lower") for m, _ in SELF_US]
    spec.append(("catalog.get.total_s", "s", "lower"))
    spec += [(f"export.{tag}.self_us_per_row", "us/row", "lower")
             for tag in ("csv", "mesh_json", "obj")]
    spec.append(("export.bytes_written", "bytes", "lower"))
    spec += [(f"export.rows_flagged.bit{b}", "count", "lower")
             for b in FLAG_BITS]
    spec.append(("export.clear_ratio", "ratio", "higher"))
    spec.append(("geometry.fundamental_data.singular", "count", "lower"))
    spec += [(f"construct.raised.{c}", "count", "lower")
             for c in ERROR_CLASSES + ("other",)]
    spec += [(f"acceptance.criterion.{k}.wall_s", "s", "lower")
             for k in workloads.SELFTEST_KEYS]
    spec.append(("trace.overhead_pct", "%", "lower"))
    spec.append(("trace.unattributed_pct", "%", "lower"))
    return spec


def src_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment(src_hash):
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    import numpy
    return {
        "commit": commit,
        "src_sha256": src_hash,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "SUPERCONF_THREADS": "1",
        "loop": "closed, one client, one operation at a time",
        "machine_settings": "untouched: no cache dropping, no CPU pinning, "
                            "no cgroup or huge-page changes",
    }


def _tail(path):
    try:
        with open(path) as f:
            return " ".join(f.read().strip().splitlines()[-1:])
    except OSError:
        return ""


def _child_cmd(args, *extra):
    return [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
            "--workload", args.workload, "--seed", str(args.seed), *extra]


def setup_once(args, deadline):
    """Set-up time of one fresh set-up-only process, or None."""
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(_child_cmd(args, "--setup-only"), env=CHILD_ENV,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.splitlines()[-1])["t_setup_end"] - t_spawn


class Server:
    """The process that runs the operations, one after another; talks to
    child.py over its stdin and stdout, one JSON line per answer."""

    def __init__(self, args, deadline):
        self.deadline = deadline
        self.stderr_path = os.path.join(WORK, "server.stderr")
        warm = os.path.join(WORK, "warmup")
        os.makedirs(warm)
        extra = ["--warmup-dir", warm] + (["--trace"] if args.trace else [])
        self.t_spawn = time.perf_counter()
        with open(self.stderr_path, "w") as err:
            self.proc = subprocess.Popen(
                _child_cmd(args, *extra), env=CHILD_ENV, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err, text=True)

    def read(self):
        """The next answer, or None with the reason in self.error."""
        left = self.deadline - time.perf_counter()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0.0))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.error = ("timed out" if not ready else
                          f"exited: {_tail(self.stderr_path)}")
            return None
        return json.loads(line)

    def ask(self, command):
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except OSError:
            self.error = f"exited: {_tail(self.stderr_path)}"
            return None
        return self.read()

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()


def file_digests(out_dir):
    out = {}
    for fn in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fn), "rb") as f:
            out[fn] = hashlib.sha256(f.read()).hexdigest()
    return out


class DigestStore:
    """Output digests by source tree and operation.  Any two operations
    with the same key, in one run or across runs in this checkout, must
    produce identical bytes."""

    def __init__(self, path, src_hash):
        self.path = path
        self.src_hash = src_hash
        try:
            with open(path) as f:
                self.known = json.load(f)
        except (OSError, ValueError):
            self.known = {}

    def check(self, key, digests):
        prev = self.known.setdefault(key, digests)
        changed = sorted(k for k in set(prev) | set(digests)
                         if prev.get(k) != digests.get(k))
        if not changed:
            return []
        return [f"output differs from an earlier run with the same seed: "
                f"{changed}"]

    def save(self):
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.known, f, sort_keys=True)
        os.replace(tmp, self.path)


def ask_ref(server):
    """Time the reference kernel in the operations' process, which the
    scheduler most likely keeps on the same CPU as the operations."""
    res = server.ask("ref")
    return None if res is None else res["ref_s"]


def run_operation(args, index, server, store):
    """One timed operation plus its gate; returns a record dict."""
    out_dir = os.path.join(WORK, f"op{index}")
    os.makedirs(out_dir)
    # a traced run repeats the inputs of operation 0, so that its counts
    # per operation do not depend on how many operations fit in the run
    if args.trace:
        index = 0
    res = server.ask(f"run {index} {out_dir}")
    if res is None:
        return {"problems": [f"operation process failed: {server.error}"]}
    if "error" in res:
        shutil.rmtree(out_dir)
        return {"problems": [f"operation failed: {res['error']}"]}
    rec = {"wall_s": res["wall_s"], "rss_mb": res["rss_mb"]}
    refs = res.get("criterion_ref_s")
    if refs:
        # each criterion against the mean of the short reference timings
        # just before and just after it, scaled to the full kernel
        scale = reference.SHORT_ROUNDS / reference.ROUNDS
        rec["wall_ref"] = sum(scale * t / (0.5 * (a + b)) for t, a, b
                              in zip(res["criterion_s"], refs, refs[1:]))
    if workloads.is_selftest(args.workload):
        problems, margin = gate.check_selftest(res["exit_code"],
                                               res["criteria"])
        digests = {"criteria": hashlib.sha256(json.dumps(
            [[c["key"], c["passed"], c["detail"]] for c in res["criteria"]]
        ).encode()).hexdigest()}
    else:
        problems, margin = gate.check_construct(args.workload, out_dir,
                                                res["exit_code"])
        digests = file_digests(out_dir)
    problems += store.check(
        f"{store.src_hash}:{workloads.describe(args.workload, args.seed, index)}",
        digests)
    shutil.rmtree(out_dir)
    rec.update(problems=problems, margin=margin)
    return rec


def layer_metrics(workload, t, n_ops):
    """Per-layer metric values from the trace of n_ops operations with the
    same inputs; times and counts are per operation."""
    calls, self_s, total_s = t["calls"], t["self_s"], t["total_s"]

    def n(name):
        return calls.get(name, 0)

    if workloads.is_selftest(workload):
        samples = n("construct.build_phi") + 2 * n("construct.build_phi_pair")
    else:
        samples = workloads.GRID[0] * workloads.GRID[1] * 2 * n_ops
    v = {}
    for layer in LAYERS:
        v[f"{layer}.self_s"] = sum(s for name, s in self_s.items()
                                   if name.startswith(layer + ".")) / n_ops
    for metric, span in CALLS_PER_SAMPLE:
        v[f"{metric}.calls_per_sample"] = n(span) / samples if samples else 0.0
    for metric, span in SELF_US:
        v[f"{metric}.self_us"] = (1e6 * self_s[span] / n(span)
                                  if n(span) else 0.0)
    # get's own code is trivial; the parse and load certification it
    # triggers are spans of expr and minimal, so report its total time
    v["catalog.get.total_s"] = total_s.get("catalog.get", 0.0)
    for tag, metric in (("csv", "csv"), ("mesh", "mesh_json"), ("obj", "obj")):
        rows = t["tag_rows"][tag]
        v[f"export.{metric}.self_us_per_row"] = (
            1e6 * t["tag_self_s"][tag] / rows if rows else 0.0)
    v["export.bytes_written"] = t["bytes_written"] / n_ops
    for b in FLAG_BITS:
        v[f"export.rows_flagged.bit{b}"] = t["flag_rows"][str(b)] / n_ops
    csv_rows = t["tag_rows"]["csv"]
    v["export.clear_ratio"] = t["clear_rows"] / csv_rows if csv_rows else 0.0
    v["geometry.fundamental_data.singular"] = sum(
        c for name, exc, c in t["raised"]
        if name == "geometry.fundamental_data" and exc == "SingularSampleError"
    ) / n_ops
    for cls in ERROR_CLASSES + ("other",):
        v[f"construct.raised.{cls}"] = 0
    for layer, exc, c in t["boundary_raised"]:
        if layer == "construct":
            cls = exc if exc in ERROR_CLASSES else "other"
            v[f"construct.raised.{cls}"] += c / n_ops
    for key in workloads.SELFTEST_KEYS:
        span = "acceptance." + workloads.criterion_function_name(key)
        v[f"acceptance.criterion.{key}.wall_s"] = total_s.get(span, 0.0) / n_ops
    # wrapped calls times the per-call wrapper cost, against the untraced
    # time that leaves
    cost = t["wrapped_calls"] * t["wrapper_cost_s"]
    wall = t["traced_wall_s"]
    v["trace.overhead_pct"] = 100.0 * cost / max(wall - cost, 1e-9)
    v["trace.unattributed_pct"] = 100.0 * max(
        0.0, 1.0 - t["root_s"] / t["traced_wall_s"])
    return v


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "superconf", "cli.py")):
        print(f"no superconf sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    src_hash = src_digest()
    store = DigestStore(STATE, src_hash)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    server = None
    selftest = workloads.is_selftest(args.workload)
    setups, records, refs, trace = [], [], [], None
    try:
        server = Server(args, deadline)
        ready = server.read()
        if ready is None:
            print(f"operation process failed: {server.error}", file=sys.stderr)
            return 1
        setups.append(ready["t_setup_end"] - server.t_spawn)
        t_loop = time.perf_counter()
        while True:
            t_op = time.perf_counter()
            # set-up processes alternate with operations, so both sample
            # the same stretch of the machine's time
            if not args.trace:
                for _ in range(SETUPS_PER_OP):
                    setups.append(setup_once(args, deadline))
                if not selftest:
                    refs.append(ask_ref(server))
            records.append(run_operation(args, len(records), server, store))
            now = time.perf_counter()
            # stop at --seconds, or before an operation that could not end
            # inside the run limit
            if (now - t_loop >= args.seconds
                    or deadline - now < 1.5 * (now - t_op)
                    or server.proc.poll() is not None):
                break
        if args.trace and server.proc.poll() is None:
            trace = server.ask("trace")
        elif not args.trace and not selftest:
            refs.append(ask_ref(server))
        store.save()
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(WORK, ignore_errors=True)
    if None in setups:
        print("a set-up process failed", file=sys.stderr)
        return 1
    if None in refs:
        print(f"the reference kernel failed: {server.error}", file=sys.stderr)
        return 1

    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    good = [r for r in records if "wall_s" in r]
    margins = [r["margin"] for r in good if r["margin"] is not None]
    for i, r in enumerate(records):
        for problem in r["problems"]:
            print(f"gate: operation {i}: {problem}")
    if not margins:
        print("no operation produced measurable output", file=sys.stderr)
        return 1

    print("env " + json.dumps(environment(src_hash), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {attempted} "
          f"operation(s) in {time.perf_counter() - t_loop:.1f} s, "
          f"trace {'on' if args.trace else 'off'}")
    if args.trace:
        spec = per_layer_spec()
        if trace is None:
            print("the traced process gave no trace", file=sys.stderr)
            return 1
        for name, s in sorted(trace["self_s"].items(), key=lambda kv: -kv[1]):
            if trace["calls"][name]:
                print(f"span {name} calls {trace['calls'][name]} self "
                      f"{s:.6f} s total {trace['total_s'][name]:.6f} s")
        values = layer_metrics(args.workload, trace, len(good))
    else:
        spec = END_TO_END
        # a construct operation against the mean of the reference timings
        # just before and just after it; selftest operations bring their own
        rel = [r["wall_ref"] if selftest
               else r["wall_s"] / (0.5 * (refs[i] + refs[i + 1]))
               for i, r in enumerate(records) if "wall_s" in r]
        # raw times drift with the host's speed, so they are reported here
        # but gated only through wall_ref
        print(f"info wall_s = {statistics.median(r['wall_s'] for r in good):.6g}"
              f" s (median of {len(good)} operations)")
        values = {
            "setup_s": statistics.median(setups),
            "wall_ref": statistics.median(rel),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in good),
            "margin_decades": statistics.median(margins),
            "ok_rate": (attempted - failed) / attempted,
        }
    metrics = {}
    for name, unit, better in spec:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"metric {name} = {values[name]:.6g} {unit} "
              f"({better} is better)")
    print(f"gate: {'PASS' if failed == 0 else 'FAIL'}, error_rate = "
          f"{failed / attempted:g} ({failed} of {attempted} operations "
          f"rejected)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
