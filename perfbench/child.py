"""One benchmark process: set up, then serve operations until told to quit.

Started by perfbench/run.py, never by hand.  Set-up is everything a user
pays before the first result: interpreter start, `import superconf` (with
the CLI and, for the selftest workloads, the acceptance module) and the
first `catalog.get` of each entry the workload uses, which parses the curve
and load-certifies it.  The parent takes the set-up time as the gap between
spawning this process and the timestamp reported here; both read the
system-wide monotonic clock.

Protocol: one JSON object per line.  This process writes {"t_setup_end"}
once it is set up and warmed up (with --setup-only it writes that and
exits).  Then it reads commands from stdin, one per line, and answers each
with one line:

    run <index> <out_dir>   run operation <index>; answer with its wall
                            time, exit code, peak RSS (and the criteria
                            verdicts for the selftest workloads)
    ref                     run the reference kernel (reference.py) and
                            answer with its wall time
    trace                   answer with the tracer's aggregate (--trace)
    quit                    exit
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import reference
import workloads


def _load_package(root, with_acceptance):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import superconf
    import superconf.cli
    if with_acceptance:
        import superconf.acceptance
    here = os.path.realpath(superconf.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"superconf imported from {here}, not from {src}")
    return superconf


def _run_construct(superconf, name, seed, index, out_dir, grid):
    argv = workloads.construct_argv(name, seed, index, out_dir, grid)
    # the one-line JSON report on stdout is not an output the gate reads
    with contextlib.redirect_stdout(io.StringIO()):
        code = superconf.cli.main(argv)
    return code, {}


def _run_selftest(superconf, keys, with_ref):
    """Runs the criteria one by one.  With with_ref, a short reference
    timing goes before each criterion and after the last, outside the
    criteria's own times, so that each criterion can be set against the
    machine's speed around it."""
    acc = superconf.acceptance
    criteria, times, refs = [], [], []
    for key in keys:
        fn = getattr(acc, workloads.criterion_function_name(key))
        if with_ref:
            refs.append(reference.seconds(reference.SHORT_ROUNDS))
        t0 = time.perf_counter()
        # mirrors acceptance.run_all: a criterion that raises has failed
        try:
            res = fn()
            passed, detail = bool(res.passed), res.detail
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        criteria.append({"key": key, "passed": passed, "detail": detail})
    if with_ref:
        refs.append(reference.seconds(reference.SHORT_ROUNDS))
    code = 0 if all(c["passed"] for c in criteria) else 3
    return code, {"criteria": criteria, "criterion_s": times,
                  "criterion_ref_s": refs}


def _operation(superconf, args, index, out_dir, warmup=False):
    if workloads.is_selftest(args.workload):
        keys = (workloads.WARMUP_KEYS if warmup
                else workloads.SELFTEST[args.workload])
        return _run_selftest(superconf, keys, not args.trace)
    grid = workloads.WARMUP_GRID if warmup else workloads.GRID
    return _run_construct(superconf, args.workload, args.seed, index, out_dir,
                          grid)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--warmup-dir")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    proto = sys.stdout

    def reply(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    superconf = _load_package(args.root,
                              workloads.is_selftest(args.workload)
                              or args.trace)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    t_traced = time.perf_counter()
    for entry in workloads.entries(args.workload):
        superconf.catalog.get(entry)
    t_setup_end = time.perf_counter()
    if args.setup_only:
        reply({"t_setup_end": t_setup_end})
        return
    # a traced run counts every call, so it runs no warm-up operation
    if tracer is None:
        _operation(superconf, args, -1, args.warmup_dir, warmup=True)
    reply({"t_setup_end": t_setup_end})

    traced_s = t_setup_end - t_traced
    for line in sys.stdin:
        cmd = line.split()
        if not cmd or cmd[0] == "quit":
            break
        if cmd[0] == "ref":
            reply({"ref_s": reference.seconds()})
            continue
        if cmd[0] == "trace":
            snap = tracer.snapshot()
            snap["traced_wall_s"] = traced_s
            snap["wrapper_cost_s"] = tracing.wrapper_cost_s()
            reply(snap)
            continue
        index, out_dir = int(cmd[1]), cmd[2]
        t0 = time.perf_counter()
        try:
            code, extra = _operation(superconf, args, index, out_dir)
        except Exception as exc:
            # `superconf construct` would end with this traceback
            traceback.print_exc()
            reply({"error": f"raised {type(exc).__name__}: {exc}"})
            continue
        wall = time.perf_counter() - t0
        if "criterion_s" in extra:
            # without the reference timings between the criteria
            wall = sum(extra["criterion_s"])
        traced_s += wall
        reply({**extra, "wall_s": wall, "exit_code": code,
               "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               / 1024.0})


if __name__ == "__main__":
    main()
