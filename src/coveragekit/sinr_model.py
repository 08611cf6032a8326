"""SINR evaluation, capture/coverage predicates, and the geometric structure
checks behind them (Voronoi capture regions, ray star-convexity, distance
ratio quasi-convexity).

Model: receive power from site t at x is ``P_t / d(x,t)^alpha``; the SINR of
t at x is that power over the sum of every other site's receive power plus
ambient noise.  A point is covered when its best SINR reaches the receive
threshold beta (non-strict, matching the area-estimation convention).

Everything operates on immutable scenarios and is safe to parallelise over
sample points.  A bound ``SinrEvaluator`` owns its scratch buffers, its
gain rows and its filter counts, so each caller needs its own.  Its masks
come from a float32 filter that decides a sample only when the margin
``(1+beta) rmax - beta (acc + noise)`` clears a band of relative width ``k
= 2 (n + 16) 2**-24`` for n sites, derived in the class docstring from the
float32 and float64 unit roundoffs; samples in the band, samples on a site,
and every sample of a vector outside the filter's float32 range take the
exact float64 fold, so every mask is the fold's bit for bit.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InvalidArgument, Singularity, require_transmitters
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
        require_transmitters(self.sites)
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


# Most sites x sample points one sample may hold; larger requests raise
# BudgetExceeded before any sample is allocated.  Each pair holds 8 bytes,
# a float64 ``d**alpha``.  Each evaluator's float32 filter rows, reserved up
# front and touched only once it runs, add 4 for the gain and 4 for the
# product: 80 MB at the bound for a one-shot estimate, 160 MB for a search
# or a post-process, whose evaluators live one after the other, each with
# its own rows.
MAX_SAMPLE_PAIRS = 10 ** 7


def check_sample_budget(sites: int, points: int) -> None:
    """Refuse ``sites`` x ``points`` pairs beyond ``MAX_SAMPLE_PAIRS``."""
    if sites * points > MAX_SAMPLE_PAIRS:
        raise BudgetExceeded(f"{sites} sites x {points} samples exceed {MAX_SAMPLE_PAIRS}")


# The filter's range: every power, gain and receive power it forms, and
# each sum of receive powers plus noise, lies in [2**-100, 2**100], deep
# inside float32's normal range, so each of its roundings is relative.
_LO, _HI = 2.0 ** -100, 2.0 ** 100
_U32 = 2.0 ** -24  # float32 unit roundoff


def _path_loss(sites, alpha: float, pts: np.ndarray) -> np.ndarray:
    """Site-major ``d**alpha``, shape (n_sites, N), for (N,2) points: one
    read-only array, built in place."""
    out, t = np.empty((len(sites), len(pts))), np.empty(len(pts))
    for q, row in zip(sites, out):
        np.square(np.subtract(pts[:, 0], q.x, out=row), out=row)
        row += np.square(np.subtract(pts[:, 1], q.y, out=t), out=t)
    out **= alpha / 2.0
    out.flags.writeable = False
    return out


class SinrEvaluator:
    """Coverage of a fixed sample of N points (its read-only ``_path_loss``
    rows ``dpow``) under any power vector, a float tuple or an ndarray.

    The exact fold folds the powered sites in index order into scratch rows,
    ``r = p_i / d_i``, ``acc += r``, ``rmax = max(rmax, r)``, and a sample
    is covered when ``rmax >= beta * (acc - rmax + noise)``.  For N >= 2
    that is numpy's axis-0 sum order, so results equal a site-major
    reduction bit for bit; for N = 1 it is ``is_covered``'s order, but not
    its floats: ``_path_loss`` raises ``(dx*dx + dy*dy) ** (alpha/2)`` where
    ``is_covered`` raises ``hypot(dx, dy) ** alpha``, and the two differ in
    the last bits for many points.  Unpowered sites are skipped: they would
    add +0.0.  ``capture`` uses it alone.

    ``mask`` first runs a float32 filter with no division: ``r = g_i * p_i``
    over the float32 gain rows ``1/d**alpha`` (both rounded to float32; NaN
    on a site or beyond float32), ``acc = sum r``, ``rmax = max r``.  The
    margin ``(1+beta) rmax - beta (acc + noise)`` has the sign of the exact
    test; the filter decides a sample covered when ``rmax > (1+k) h (acc +
    noise)`` and uncovered when ``rmax < (1-k) h (acc + noise)``, with ``h =
    beta/(1+beta)``, which is ``|margin| > k' * ((1+beta) rmax + beta (acc +
    noise))`` for ``k'`` about ``k/2``.  Every other sample takes the exact
    fold on its own columns, with the fold's operations in its order: those
    in the band, those on a site or with a gain beyond float32 (NaN gains),
    and every sample of a vector whose powered sites' powers, gains or
    receive powers, or whose sum plus noise, leave [2**-100, 2**100] (the
    range check).  So every mask equals the exact fold's bit for bit.

    The band.  Take ``u = 2**-24`` and ``u64 = 2**-53``, n sites, the exact
    receive powers ``x_i = p_i / d_i**alpha``, ``M = max x_i``, ``X = sum
    x_i`` and ``W = (1+beta) M + beta (X + noise)``.  The fold rounds ``r``,
    its n - 1 sums, ``acc - rmax``, ``+ noise`` and ``* beta`` once each,
    so it decides as ``E = (1+beta) M - beta (X + noise)`` does whenever
    ``|E| > (n + 6) u64 W``.  In the filter each ``r`` carries four
    roundings (``d**alpha`` and its reciprocal to float32, ``p_i``, the
    product), so ``rmax`` is within 4u of M; ``acc + noise`` adds n - 1
    sums, noise's rounding and one sum, within (n + 5)u of ``X + noise``;
    the threshold adds its constant's and its product's, (n + 7)u.  A
    decided sample thus has M beyond ``(1 ± k) h (X + noise)`` times ``1 ∓
    (n + 11)u``, and ``k = 2 (n + 16) u`` exceeds ``(n + 11)u + 2 (n + 6)
    u64`` with room for the second-order terms while n < 2**12: its sign
    is E's and the fold's.  (With no site powered, ``rmax`` is 0, and the
    filter can only call a sample uncovered, as the fold does.)  Larger
    layouts, and beta below 2**-20 (whose thresholds would leave the range),
    always take the fold.

    The evaluator's gain rows are filled on its second call, so a one-shot
    estimate costs only the fold; they and the filter's scratch are reserved
    up front and touched only when the filter runs, so no evaluation after
    the first allocates more than its band's columns.  ``counts`` are its own:
    samples the filter ``decided``, samples in its ``band``, and evaluations
    the exact fold made ``whole``, the first and the ``range_fallbacks``.
    """

    def __init__(self, s: SinrScenario, dpow: np.ndarray):
        self.rows, self.beta, self.noise = list(dpow), s.beta, s.noise
        self.size = dpow.shape[1]
        self.counts = {"decided": 0, "band": 0, "whole": 0, "range_fallbacks": 0}
        self._seen, self._ranges = False, None
        self._quiet = contextlib.nullcontext if dpow.all() else \
            lambda: np.errstate(divide="ignore", invalid="ignore")  # a sample on a site
        self._f = list(np.zeros((5, self.size)))  # 0, r, acc, rmax, tail
        self._b = list(np.empty((2, self.size), dtype=bool))
        n = len(self.rows)
        h, k = s.beta / (1.0 + s.beta), 2 * (n + 16) * _U32
        self._filter = None  # float32 thresholds (1+k) h and (1-k) h, and the noise
        if n < 2 ** 12 and h >= 2.0 ** -20:
            self._filter = tuple(np.float32(v) for v in (h * (1 + k), h * (1 - k), min(s.noise, _HI)))
            rows = np.empty((2 * n + 3, self.size), dtype=np.float32)  # touched only by the filter
            self._g, prod = rows[:n], rows[n:2 * n]
            self._scratch = (prod, list(prod), *rows[2 * n:],
                             *np.empty((2, self.size), dtype=bool))

    def _fold(self, p, f=None, cols=None):
        """Fold the powered sites at powers p from zero into the scratch rows
        (acc, rmax) of ``f`` (the evaluator's own by default), on the sample
        columns ``cols`` (all by default)."""
        f = f or self._f
        acc = rmax = f[0]
        for v, row in zip(p, self.rows):
            if v != 0.0:
                np.divide(v, row if cols is None else np.take(row, cols, out=f[4]), out=f[1])
                acc = np.add(acc, f[1], out=f[2])
                rmax = np.maximum(rmax, f[1], out=f[3])
        return acc, rmax

    def _covered(self, acc, rmax, f=None, b=None) -> np.ndarray:
        # no denom <= 0 test: denom >= 0 as acc >= rmax, and rmax >= beta * 0
        cov, tmp = b or self._b
        t = np.subtract(acc, rmax, out=(f or self._f)[4])  # inf - inf where rmax is infinite
        t += self.noise
        t *= self.beta
        np.greater_equal(rmax, t, out=cov)
        cov &= np.greater(rmax, 0.0, out=tmp)
        cov |= np.isinf(rmax, out=tmp)
        return cov

    def _exact(self, p, cols=None) -> np.ndarray:
        """The exact fold's mask of p on the sample columns ``cols`` (all
        by default), in views of the scratch rows."""
        if cols is None:
            return self._covered(*self._fold(p))
        f, b = ([row[:len(cols)] for row in rows] for rows in (self._f, self._b))
        return self._covered(*self._fold(p, f=f, cols=cols), f, b)

    def _in_range(self, p) -> bool:
        """The range check, on the powered sites of p; the first fills the gain
        rows and each row's least and largest gain (0 and inf out of range)."""
        if self._ranges is None:
            lo, hi = [], []
            with np.errstate(divide="ignore", over="ignore"):
                for row, out in zip(self.rows, self._g):
                    np.copyto(out, row, casting="same_kind")
                    np.divide(np.float32(1.0), out, out=out)
                    out[np.isinf(out)] = np.nan
                    a, b = float(np.fmin.reduce(out)), float(np.fmax.reduce(out))
                    ok = _LO <= a and b <= _HI  # False for a row of NaNs
                    lo.append(a if ok else 0.0)
                    hi.append(b if ok else math.inf)
            self._ranges = lo, hi
        lo, hi = self._ranges
        total = self.noise
        for v, a, b in zip(p, lo, hi):
            if v != 0.0:
                if not (_LO <= v <= _HI and v * a >= _LO):
                    return False
                total += v * b
        return total <= _HI

    def _filtered(self, p) -> np.ndarray:
        """The filter's mask of p, its band decided by the exact fold."""
        prod, prod_rows, acc, rmax, t, cov, decided = self._scratch
        hi, lo, noise = self._filter
        for g, out, v in zip(self._g, prod_rows, np.array(p, dtype=np.float32)):
            np.multiply(g, v, out=out)
        np.add.reduce(prod, axis=0, out=acc)
        np.maximum.reduce(prod, axis=0, out=rmax)  # NaN where a gain is NaN
        np.add(acc, noise, out=t)
        np.greater(rmax, np.multiply(t, hi, out=acc), out=cov)
        np.less(rmax, np.multiply(t, lo, out=acc), out=decided)
        decided |= cov
        band = self.size - int(np.count_nonzero(decided))
        if band:
            cols = np.flatnonzero(np.logical_not(decided, out=decided))
            cov[cols] = self._exact(p, cols)
        self.counts["decided"] += self.size - band
        self.counts["band"] += band
        return cov

    def mask(self, p) -> np.ndarray:
        """Coverage mask of the sample under powers p (a scratch row)."""
        if len(p) != len(self.rows):
            raise ValueError("power vector length must match site count")
        p = p.tolist() if isinstance(p, np.ndarray) else p  # floats for the range check
        seen, self._seen = self._seen, True
        with self._quiet():
            if seen:
                if self._filter is not None and self._in_range(p):
                    return self._filtered(p)
                self.counts["range_fallbacks"] += 1
            self.counts["whole"] += 1
            return self._exact(p)

    def __call__(self, p) -> float:
        """Covered fraction of the sample under powers p."""
        return np.count_nonzero(self.mask(p)) / self.size

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
    """Capture-transmitter ids (smallest on ties) on an (ny, nx) raster;
    ``check_sample_budget`` refuses an oversized one before it allocates."""
    check_sample_budget(len(s.sites), nx * ny)
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
    check_sample_budget(len(s.sites), samples)
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
                  samples: int) -> list[float]:
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
    length = 8.0 * base
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
