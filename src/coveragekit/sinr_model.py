"""SINR evaluation, capture/coverage predicates, and the geometric structure
checks behind them (Voronoi capture regions, ray star-convexity, distance
ratio quasi-convexity).

Model: receive power from site t at x is ``P_t / d(x,t)^alpha``; the SINR of
t at x is that power over the sum of every other site's receive power plus
ambient noise.  A point is covered when its best SINR reaches the receive
threshold beta (non-strict, matching the area-estimation convention).

Everything operates on immutable scenarios and is safe to parallelise over
sample points.  A bound ``SinrEvaluator`` owns its scratch buffers, so each
caller needs its own.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidArgument, Singularity
from .geometry import Point2, Rect, geom_eps

SiteId = int


@dataclass(frozen=True)
class PowerVector:
    """Per-site transmit powers, indexed by SiteId."""
    values: tuple[float, ...]

    def __post_init__(self):
        if any(v < 0 or not math.isfinite(v) for v in self.values):
            raise ValueError("powers must be finite and non-negative")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def total(self) -> float:
        return float(sum(self.values))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @staticmethod
    def of(values) -> "PowerVector":
        return PowerVector(tuple(float(v) for v in values))


@dataclass(frozen=True)
class SinrScenario:
    """Transmitter layout plus propagation constants on a unit-area window.
    Each refusal is an ``InvalidArgument`` naming the argument it rejects."""
    sites: tuple[Point2, ...]
    powers: PowerVector
    alpha: float
    beta: float
    noise: float
    window: Rect

    def __post_init__(self):
        if not self.sites:
            raise InvalidArgument("sites", "need at least one transmitter")
        if len(self.powers) != len(self.sites):
            raise InvalidArgument("powers", "power vector length must match site count")
        if self.alpha < 2.0:
            raise InvalidArgument("alpha", "path-loss exponent must be >= 2")
        if self.beta <= 0.0:
            raise InvalidArgument("beta", "receive threshold must be positive")
        if self.noise < 0.0:
            raise InvalidArgument("noise", "noise power must be >= 0")
        if self.noise == 0.0 and len(self.sites) < 2:
            raise InvalidArgument("noise", "zero noise needs at least two transmitters")
        if abs(self.window.area() - 1.0) > 1e-9:
            raise InvalidArgument("window", "evaluation window must have unit area")

    def with_powers(self, powers: PowerVector) -> "SinrScenario":
        return SinrScenario(self.sites, powers, self.alpha, self.beta,
                            self.noise, self.window)

    def eps(self) -> float:
        return geom_eps(self.window.diameter())


def _receive_powers(s: SinrScenario, x: Point2) -> list[float]:
    p = s.powers
    out = []
    for i, site in enumerate(s.sites):
        d = math.hypot(x.x - site.x, x.y - site.y)
        if d == 0.0:
            if p[i] > 0.0:
                out.append(math.inf)
            else:
                out.append(0.0)
            continue
        out.append(p[i] / d ** s.alpha)
    return out


def capture_transmitter(s: SinrScenario, x: Point2) -> SiteId:
    """SINR-maximizing transmitter at x (smallest id on ties).

    The SINR order at a fixed point equals the receive-power order, so the
    argmax is taken over receive powers directly; this stays finite even
    when interference vanishes.
    """
    for i, site in enumerate(s.sites):
        if math.hypot(x.x - site.x, x.y - site.y) <= s.eps() and s.powers[i] > 0:
            return i
    rx = _receive_powers(s, x)
    return rx.index(max(rx))


def is_covered(s: SinrScenario, x: Point2) -> bool:
    """True when some transmitter's SINR at x reaches beta (non-strict).

    Points within the coincidence tolerance of a powered transmitter count
    as covered: the SINR limit there is +infinity.  An unpowered transmitter
    there adds nothing, so the other transmitters decide.
    """
    eps = s.eps()
    for i, site in enumerate(s.sites):
        if s.powers[i] > 0.0 and math.hypot(x.x - site.x, x.y - site.y) <= eps:
            return True
    rx = _receive_powers(s, x)
    total = sum(rx) + s.noise
    t = rx.index(max(rx))  # capture_transmitter(s, x): no powered site is this close
    if rx[t] <= 0.0:
        return False
    denom = total - rx[t]
    if denom <= 0.0:
        return True  # no interference, no noise, positive signal
    return rx[t] >= s.beta * denom


def _cell_centers(window: Rect, nx: int, ny: int) -> np.ndarray:
    """(nx*ny, 2) cell centres of an nx-by-ny raster of the window, row-major."""
    xs = window.x0 + (np.arange(nx) + 0.5) * window.width / nx
    ys = window.y0 + (np.arange(ny) + 0.5) * window.height / ny
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def _path_loss(sites, alpha: float, pts: np.ndarray) -> np.ndarray:
    """Site-major ``d**alpha``, shape (n_sites, N), for (N,2) points."""
    sx = np.array([q.x for q in sites])[:, None]
    sy = np.array([q.y for q in sites])[:, None]
    d2 = (pts[:, 0] - sx) ** 2 + (pts[:, 1] - sy) ** 2
    return d2 ** (alpha / 2.0)


class SinrEvaluator:
    """Coverage of a fixed sample of N points (``d**alpha`` rows ``dpow``)
    under any power vector, a float tuple or an ndarray: the powered sites
    are folded in index order into scratch rows, ``r = p_i / d_i``, ``acc +=
    r``, ``rmax = max(rmax, r)``.  For N >= 2 that is numpy's axis-0 sum order,
    so results equal a site-major reduction bit for bit; for N = 1 it is
    ``is_covered``'s.  Unpowered sites are skipped: they would add +0.0."""

    def __init__(self, s: SinrScenario, dpow: np.ndarray):
        self.rows, self.beta, self.noise = list(dpow), s.beta, s.noise
        self.size = dpow.shape[1]
        self._quiet = contextlib.nullcontext if dpow.all() else \
            lambda: np.errstate(divide="ignore", invalid="ignore")  # a sample on a site
        self._f = list(np.zeros((7, self.size)))  # 0, r, acc, rmax, last site's acc, rmax, tail
        self._b = list(np.empty((2, self.size), dtype=bool))

    def _fold(self, p, first: int = 0, state=None, out=(2, 3)):
        """Fold sites first, first + 1, ... at powers p into ``state`` (acc,
        rmax), zero rows by default, writing the scratch rows ``out``."""
        f = self._f
        acc, rmax = state or (f[0], f[0])
        r, out_acc, out_max = f[1], f[out[0]], f[out[1]]
        for v, row in zip(p, self.rows[first:]):
            if v != 0.0:
                np.divide(v, row, out=r)
                acc = np.add(acc, r, out=out_acc)
                rmax = np.maximum(rmax, r, out=out_max)
        return acc, rmax

    def _covered(self, acc, rmax) -> np.ndarray:
        # no denom <= 0 test: denom >= 0 as acc >= rmax, and rmax >= beta * 0
        cov, tmp = self._b
        t = np.subtract(acc, rmax, out=self._f[6])  # inf - inf where rmax is infinite
        t += self.noise
        t *= self.beta
        np.greater_equal(rmax, t, out=cov)
        cov &= np.greater(rmax, 0.0, out=tmp)
        cov |= np.isinf(rmax, out=tmp)
        return cov

    def mask(self, p) -> np.ndarray:
        """Coverage mask of the sample under powers p (a scratch row)."""
        if len(p) != len(self.rows):
            raise ValueError("power vector length must match site count")
        with self._quiet():
            return self._covered(*self._fold(p))

    def __call__(self, p) -> float:
        """Covered fraction of the sample under powers p."""
        return np.count_nonzero(self.mask(p)) / self.size

    def product(self, axes) -> list[float]:
        """``[self(v) for v in itertools.product(*axes)]``, folding each
        prefix once and finishing it with every level of the last site."""
        *head, last = axes
        if len(axes) != len(self.rows):
            raise ValueError("one level list per site")
        out = []
        with self._quiet():
            for prefix in itertools.product(*head):
                state = self._fold(prefix)
                for v in last:
                    cov = self._covered(*self._fold((v,), len(head), state, (4, 5)))
                    out.append(np.count_nonzero(cov) / self.size)
        return out

    def capture(self, p) -> np.ndarray:
        """Per sample, the first site of largest receive power (``argmax``):
        site 0 unless a powered site beats 0, as an unpowered one cannot."""
        r, best, up = self._f[1], np.zeros(self.size), self._b[0]
        ids = np.zeros(self.size, dtype=np.intp)
        with self._quiet():
            for i, v in enumerate(p):
                if v != 0.0:
                    np.divide(v, self.rows[i], out=r)
                    ids[np.greater(r, best, out=up)] = i
                    np.maximum(best, r, out=best)
        return ids


def capture_grid(s: SinrScenario, nx: int, ny: int) -> np.ndarray:
    """Capture-transmitter ids (smallest on ties) on an (ny, nx) raster."""
    dpow = _path_loss(s.sites, s.alpha, _cell_centers(s.window, nx, ny))
    return SinrEvaluator(s, dpow).capture(s.powers.values).reshape(ny, nx)


def _ray_exit_distance(window: Rect, origin: Point2, dx: float, dy: float) -> float:
    tmax = math.inf
    if dx > 0:
        tmax = min(tmax, (window.x1 - origin.x) / dx)
    elif dx < 0:
        tmax = min(tmax, (window.x0 - origin.x) / dx)
    if dy > 0:
        tmax = min(tmax, (window.y1 - origin.y) / dy)
    elif dy < 0:
        tmax = min(tmax, (window.y0 - origin.y) / dy)
    return tmax


def ray_coverage_profile(s: SinrScenario, t: SiteId, direction: tuple[float, float],
                         samples: int) -> list[bool]:
    """Membership bits for transmitter t's coverage region along a ray from t.

    A point belongs to t's coverage region when t is its capture transmitter
    and SINR(x, t) reaches beta.  That set is star-convex around t (the
    per-transmitter SINR alone is not: beyond t's capture cell the ratio
    terms may fall again), so for equal powers the bits along any such ray
    form a prefix.  Sampling starts one coincidence tolerance away from the
    transmitter and ends on the window boundary; the bits are a
    ``SinrEvaluator``'s ``capture`` and ``mask`` on those samples.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    dx, dy = direction
    nn = math.hypot(dx, dy)
    if nn == 0.0:
        raise ValueError("direction must be nonzero")
    dx, dy = dx / nn, dy / nn
    origin = s.sites[t]
    tmax = _ray_exit_distance(s.window, origin, dx, dy)
    if not math.isfinite(tmax) or tmax <= 0.0:
        raise ValueError("ray does not leave the transmitter toward the window")
    t0 = s.eps()
    dist = t0 + (tmax - t0) * np.arange(samples) / (samples - 1)
    pts = np.column_stack([origin.x + dist * dx, origin.y + dist * dy])
    ev = SinrEvaluator(s, _path_loss(s.sites, s.alpha, pts))
    mine = ev.capture(s.powers.values) == t  # first: capture reuses mask's scratch row
    return (ev.mask(s.powers.values) & mine).tolist()


def ratio_profile(t: Point2, u: Point2, line: tuple[Point2, tuple[float, float]],
                  samples: int, span: Optional[float] = None) -> list[float]:
    """Samples of d(.,t)^2 / d(.,u)^2 on the closer-to-t part of a line.

    The returned sequence is quasi-convex: along any line the ratio is
    monotone or falls then rises, so its discrete differences change sign at
    most once (minus to plus).  If the line misses the closer-to-t half-plane
    entirely, the whole line is sampled.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    origin, (dx, dy) = line
    nn = math.hypot(dx, dy)
    if nn == 0.0:
        raise ValueError("line direction must be nonzero")
    dx, dy = dx / nn, dy / nn
    # signed comparison g(s) = |x-t|^2 - |x-u|^2, linear in s
    gx = 2.0 * (u.x - t.x)
    gy = 2.0 * (u.y - t.y)
    g0 = (origin.x - t.x) ** 2 + (origin.y - t.y) ** 2 \
        - (origin.x - u.x) ** 2 - (origin.y - u.y) ** 2
    slope = gx * dx + gy * dy
    base = math.hypot(t.x - u.x, t.y - u.y) + 1.0
    length = span if span is not None else 8.0 * base
    if abs(slope) < 1e-12 * base:
        if g0 > 0.0:
            lo, hi = -length / 2, length / 2  # entire line on u's side
        else:
            s_t = (t.x - origin.x) * dx + (t.y - origin.y) * dy
            lo, hi = s_t - length / 2, s_t + length / 2
    else:
        s0 = -g0 / slope  # bisector crossing
        if slope < 0:
            lo, hi = s0, s0 + length
        else:
            lo, hi = s0 - length, s0
    out = []
    for k in range(samples):
        sk = lo + (hi - lo) * k / (samples - 1)
        x = Point2(origin.x + sk * dx, origin.y + sk * dy)
        du2 = (x.x - u.x) ** 2 + (x.y - u.y) ** 2
        if du2 == 0.0:
            raise Singularity(f"sample point coincides with {u}")
        dt2 = (x.x - t.x) ** 2 + (x.y - t.y) ** 2
        out.append(dt2 / du2)
    return out
