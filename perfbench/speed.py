"""Machine-speed probe taken during a run.

The benchmark runs on shared machines whose speed drifts by up to 2x over
a few seconds, with CPU time equal to wall time (no steal), so a wall time
alone says as much about the neighbours as about the program.  The probe
times a fixed piece of pure-Python work (about 4 ms) every ``INTERVAL``
seconds, and each operation's time, less the probes taken during it, is
scaled by ``(REFERENCE_S / probe) ** exponent``, the probes during it and
the one on either side averaged.

The probe work is the kind of work the program does, written here so that
no change to the program changes the probe: a scan of 6000 vertex objects
through a dict, one method call each (the dynamic structure's history
walk), and polygon clipping on fresh tuples (the geometry booleans).

How much an operation slows when the probe slows depends on the code it
runs, so each workload has its own ``exponent`` (``SPEED_EXPONENT``): the
log-log slope of operation time against probe time, measured on a 2-vCPU
machine over a minute of operations whose work does not change.  The
visible deletes of dynamic-churn (operation counts within 1 % from round
to round) gave 1.35 and 1.45 in two runs (correlation 0.91 and 0.97),
and 1.35 between the medians of seven whole runs: pointer chasing
through the history slows more than the probe.  ``build-map`` on
one 512-transmitter scenario, repeated, gave 0.95 (correlation 0.97);
``optimize rhc`` and ``nm``, repeated, 0.65 and 0.76 (0.93 and 0.97):
numpy slows less.  Over ten seeds of 25-second dynamic-churn runs whose
unscaled round times spread 0.17 (IQR over median), the scaled ones
spread 0.05.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import random
import signal
import time

REFERENCE_S = 0.004
INTERVAL = 0.2

_rng = random.Random(7)
# 400 half-planes a*x + b*y <= c with unit normals; each clip pass cuts a
# 100-gon of radius 2 by 40 of them
PLANES = [(math.cos(t), math.sin(t), _rng.uniform(0.3, 1.0))
          for t in [_rng.uniform(0.0, 2.0 * math.pi) for _ in range(400)]]
PASSES = 2


class _Vertex:
    def __init__(self, nid: int, x: float, y: float) -> None:
        self.nid, self.x, self.y = nid, x, y
        self.z = x * x + y * y + 1.0
        self.incident: set[int] = set()


class _Plane:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float) -> None:
        self.a, self.b, self.c = a, b, c

    def height(self, x: float, y: float) -> float:
        return self.a * x + self.b * y + self.c


VERTICES = {i: _Vertex(i, _rng.uniform(0.0, 100.0), _rng.uniform(0.0, 100.0))
            for i in range(6000)}
_order = list(VERTICES)
_rng.shuffle(_order)
CELLS = {k: [(0.0, 0.0, _order[6 * k + j]) for j in range(6)] for k in range(1000)}
BELOW = _Plane(0.0, 0.0, -1.0)  # every vertex lies above it: a full scan


def _clip(poly: list[tuple[float, float]], a: float, b: float,
          c: float) -> list[tuple[float, float]]:
    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        fp, fq = a * p[0] + b * p[1] - c, a * q[0] + b * q[1] - c
        if fp <= 0.0:
            out.append(p)
        if (fp < 0.0) != (fq < 0.0) and fp != fq:
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _above(v: _Vertex, hs: _Plane) -> bool:
    f = hs.height(v.x, v.y)
    return v.z > f + 1e-12 * (1.0 + abs(f) + abs(v.z))


def probe_work() -> float:
    """Seconds taken by the fixed probe work."""
    t0 = time.perf_counter()
    above = 0
    for k in sorted(CELLS):
        for (_, _, nid) in CELLS[k]:
            above += _above(VERTICES[nid], BELOW)
    for k in range(PASSES):
        poly = [(2.0 * math.cos(i * 0.0628), 2.0 * math.sin(i * 0.0628))
                for i in range(100)]
        first = 40 * (k % 10)
        for a, b, c in PLANES[first:first + 40]:
            poly = _clip(poly, a, b, c)
            if len(poly) < 3:
                break
    assert above == 6 * len(CELLS)
    return time.perf_counter() - t0


class SpeedProbe:
    """Probe times on a timeline.  While ``running``, an interval timer
    takes a probe every ``INTERVAL`` seconds, also in the middle of an
    operation (between two bytecodes of the one benchmark thread), so a
    long operation is scaled by the machine speed during it; ``busy``
    sums the time the probes took, which the caller takes off the
    operation's time."""

    def __init__(self) -> None:
        self.stamps: list[float] = []  # end time of each probe
        self.times: list[float] = []
        self.busy = 0.0
        self._inside = False

    def take(self, *_signal) -> None:
        if self._inside:
            return
        self._inside = True
        t0 = time.perf_counter()
        self.times.append(probe_work())
        self.stamps.append(time.perf_counter())
        self.busy += self.stamps[-1] - t0
        self._inside = False

    @contextlib.contextmanager
    def running(self):
        self.take()
        old = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)
            self.take()

    def scale(self, start: float, end: float, exponent: float = 1.0) -> float:
        """REFERENCE_S over the mean of the probes taken during
        [start, end] and the one on either side, to the power
        ``exponent``: how much the scaled work slows for a slower probe."""
        i = bisect.bisect_right(self.stamps, start)  # probes ending by start
        j = bisect.bisect_left(self.stamps, end)  # first probe ending after end
        around = self.times[max(i - 1, 0):j + 1]
        if not around:
            return 1.0
        return (REFERENCE_S / (sum(around) / len(around))) ** exponent
