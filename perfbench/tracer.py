"""Runtime spans at the package's module boundaries.

The tracer wraps every public function and public method of the ten
package modules, rebinding each wrapped function at every name a package
module imports it under.  Spans are aggregated in memory per name (calls,
total and self time), because one operation opens up to hundreds of
thousands of them; the aggregate is written out when the operation ends.
Self time is a span's duration minus the durations of its direct child
spans.

Jet arithmetic runs through dunder methods, which are not wrapped, and the
names in SKIP_CLASSES and SKIP are left unwrapped too: their cost lands in
the self time of the caller.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = ("cli", "catalog", "expr", "jets", "minimal", "construct",
          "geometry", "moebius", "export", "acceptance")

# The jet algebra is not wrapped: the value classes' methods, the inner
# products and the per-node expression walkers run millions of times per
# operation, each for a few microseconds, so a wrapper would cost as much as
# the work.  Their time is billed to the caller's self time, like the jet
# arithmetic operators.
SKIP_CLASSES = frozenset({"jets.ComplexJet", "jets.Jet2", "jets.Vec"})
SKIP = frozenset({
    "expr.eval_node",
    "expr.print_node",
    "jets.split_re",
    "jets.split_im",
    "geometry.Ambient.dot",
    "geometry.Ambient.norm",
    "geometry.ambient_norm",
    "minimal.Domain.contains",
})

FLAG_BITS = (1, 2, 4, 8, 16)

# export functions whose first argument is the list of grid rows
_ROW_WRITERS = {"write_csv": "csv", "csv_text": "csv", "mesh_dict": "mesh",
                "write_obj": "obj", "obj_text": "obj"}


class Tracer:
    """Span aggregator; one instance per traced process."""

    def __init__(self):
        self.stack = []          # open spans: [child_time, layer, tag]
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.raised = {}         # (name, exception class) -> count
        self.boundary_raised = {}  # (layer, exception class) -> count
        self.tag_self = {"csv": 0.0, "mesh": 0.0, "obj": 0.0}
        self.tag_rows = {"csv": 0, "mesh": 0, "obj": 0}
        self.flag_rows = dict.fromkeys(FLAG_BITS, 0)
        self.clear_rows = 0
        self.bytes_written = 0
        self.root_time = 0.0

    # export accounting: the outermost export writer span fixes the tag
    # (csv, mesh or obj) that all its descendants' self time is billed to;
    # rows are counted once, at that outermost span
    def _export_tag(self, fname, args):
        if fname == "write_json":
            obj = args[0]
            is_mesh = isinstance(obj, dict) and obj.get("kind") == "grid-mesh-r4"
            return "mesh" if is_mesh else None
        tag = _ROW_WRITERS.get(fname)
        if tag is not None:
            self.tag_rows[tag] += len(args[0])
            if tag == "csv":
                self._count_flags(args[0])
        return tag

    def _count_flags(self, samples):
        for s in samples:
            if s.flags == 0 and s.stats is not None:
                self.clear_rows += 1
            for b in FLAG_BITS:
                if s.flags & b:
                    self.flag_rows[b] += 1

    def wrap(self, layer, qualname, fn):
        name = f"{layer}.{qualname}"
        fname = qualname.rsplit(".", 1)[-1]
        self.calls[name] = 0
        self.total[name] = 0.0
        self.self_time[name] = 0.0
        stack = self.stack
        clock = time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time
        tag_self = self.tag_self
        is_export = layer == "export"
        is_writer = is_export and fname.startswith("write_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            tag = parent[2] if parent is not None else None
            if is_export and tag is None and args:
                tag = self._export_tag(fname, args)
            frame = [0.0, layer, tag]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                key = (name, type(exc).__name__)
                self.raised[key] = self.raised.get(key, 0) + 1
                if parent is None or parent[1] != layer:
                    bkey = (layer, type(exc).__name__)
                    self.boundary_raised[bkey] = (
                        self.boundary_raised.get(bkey, 0) + 1)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[0] += dt
                else:
                    self.root_time += dt
                calls[name] += 1
                total[name] += dt
                own = dt - frame[0]
                self_time[name] += own
                if tag is not None:
                    tag_self[tag] += own
                if is_writer:
                    # the path is the first string argument of every writer
                    path = next((a for a in args[1:] if isinstance(a, str)),
                                None)
                    if path is not None and os.path.exists(path):
                        self.bytes_written += os.path.getsize(path)

        return traced

    def install(self):
        """Wrap the public names of every layer module of superconf."""
        modules = {layer: sys.modules[f"superconf.{layer}"] for layer in LAYERS}
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "superconf"
                                            or n.startswith("superconf."))]
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if f"{layer}.{attr}" in SKIP:
                        continue
                    replaced[id(obj)] = (obj, self.wrap(layer, attr, obj))
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and f"{layer}.{attr}" not in SKIP_CLASSES):
                    self._wrap_class(layer, obj)
        for ns in namespaces:
            d = vars(ns)
            for attr, obj in list(d.items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    d[attr] = hit[1]

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{cls.__name__}.{attr}"
            if f"{layer}.{qual}" in SKIP:
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(
                    self.wrap(layer, qual, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(layer, qual, raw))

    def snapshot(self):
        """Plain-data copy of the aggregate, for writing out."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "raised": [[n, e, c] for (n, e), c in sorted(self.raised.items())],
            "boundary_raised": [[l, e, c] for (l, e), c
                                in sorted(self.boundary_raised.items())],
            "tag_self_s": dict(self.tag_self),
            "tag_rows": dict(self.tag_rows),
            "flag_rows": {str(b): n for b, n in self.flag_rows.items()},
            "clear_rows": self.clear_rows,
            "bytes_written": self.bytes_written,
            "root_s": self.root_time,
            "wrapped_calls": sum(self.calls.values()),
        }



def wrapper_cost_s(n=200_000):
    """Seconds one traced call adds to a bare call, timed on a no-op.

    Inside real code the wrapper also disturbs the interpreter's caches, so
    this underestimates: with every public name wrapped, traced selftest
    ran 12-21 s slower than untraced while this estimate gave 6.5 s.
    """
    def noop(a, b):
        return a

    traced = Tracer().wrap("probe", "noop", noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        for i in range(n):
            noop(i, n)
        bare = clock() - t0
        t0 = clock()
        for i in range(n):
            traced(i, n)
        best = min(best, (clock() - t0 - bare) / n)
    return max(best, 0.0)
