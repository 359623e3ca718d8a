"""Fixed reference work that gauges how fast the machine is running now.

The host this benchmark was written on drifts by ±20% over minutes, and
set-up and operation times drift together, so the harness times this
kernel before and after every operation, in its own process, and reports
the operation time in units of it.  The kernel mixes the kinds of
work superconf's per-point path does: arithmetic on small slotted Python
objects, complex scalar math, and numpy calls on 4-vectors and 2×4
matrices.  It imports nothing from superconf and must never change: a new
kernel makes the metrics it normalises incomparable with earlier runs.
"""

from __future__ import annotations

import cmath
import gc
import time

import numpy as np

ROUNDS = 10000        # about 0.45 s on the machine it was written on
SHORT_ROUNDS = 2000   # for timings between acceptance criteria


class _Jet:
    __slots__ = ("v", "du", "dv", "duu", "duv", "dvv")

    def __init__(self, v, du=0.0, dv=0.0, duu=0.0, duv=0.0, dvv=0.0):
        self.v = float(v)
        self.du = float(du)
        self.dv = float(dv)
        self.duu = float(duu)
        self.duv = float(duv)
        self.dvv = float(dvv)

    def __add__(self, o):
        return _Jet(self.v + o.v, self.du + o.du, self.dv + o.dv,
                    self.duu + o.duu, self.duv + o.duv, self.dvv + o.dvv)

    def __mul__(self, o):
        return _Jet(self.v * o.v,
                    self.du * o.v + self.v * o.du,
                    self.dv * o.v + self.v * o.dv,
                    self.duu * o.v + 2.0 * self.du * o.du + self.v * o.duu,
                    self.duv * o.v + self.du * o.dv + self.dv * o.du
                    + self.v * o.duv,
                    self.dvv * o.v + 2.0 * self.dv * o.dv + self.v * o.dvv)


def work(rounds=ROUNDS):
    """The kernel; returns a checksum so that no step can be skipped."""
    acc = 0.0
    for i in range(rounds):
        t = 1e-4 * i
        u = _Jet(0.3 + t, 1.0)
        v = _Jet(-0.2 + t, 0.0, 1.0)
        w = u * v + u * u
        for _ in range(6):
            w = w * u + v
        z = cmath.exp(complex(w.v, w.du) * 1e-3) * cmath.cosh(complex(t, 0.5))
        x = np.array([w.v, w.du, w.dv, z.real])
        y = np.array([w.duu, w.duv, w.dvv, z.imag])
        m = np.stack([x, y])
        s = np.linalg.svd(m, compute_uv=False)
        acc += float(np.dot(x, y)) * 1e-9 + float(s[0]) * 1e-12
        acc += float(np.linalg.norm(x - y)) * 1e-12
    return acc


def seconds(rounds=ROUNDS):
    """Wall time of one run of the kernel.  The cyclic garbage collector is
    paused while it runs: the kernel makes no cycles, and a collection
    would walk the caller's whole heap, which made single timings spread
    by 17% instead of 3%."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work(rounds)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
