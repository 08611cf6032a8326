"""SINR evaluation, capture/coverage predicates, and the geometric structure
checks behind them (Voronoi capture regions, ray star-convexity, distance
ratio quasi-convexity).

Model: receive power from site t at x is ``P_t / d(x,t)^alpha``; the SINR of
t at x is that power over the sum of every other site's receive power plus
ambient noise.  A point is covered when its best SINR reaches the receive
threshold beta (non-strict, matching the area-estimation convention).

Everything operates on immutable scenarios and is safe to parallelise over
sample points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Singularity
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
    """Transmitter layout plus propagation constants on a unit-area window."""
    sites: tuple[Point2, ...]
    powers: PowerVector
    alpha: float
    beta: float
    noise: float
    window: Rect

    def __post_init__(self):
        if not self.sites:
            raise ValueError("need at least one transmitter")
        if len(self.powers) != len(self.sites):
            raise ValueError("power vector length must match site count")
        if self.alpha < 2.0:
            raise ValueError("path-loss exponent must be >= 2")
        if self.beta <= 0.0:
            raise ValueError("receive threshold must be positive")
        if self.noise < 0.0:
            raise ValueError("noise power must be >= 0")
        if self.noise == 0.0 and len(self.sites) < 2:
            raise ValueError("zero noise needs at least two transmitters")
        if abs(self.window.area() - 1.0) > 1e-9:
            raise ValueError("evaluation window must have unit area")

    def with_powers(self, powers: PowerVector) -> "SinrScenario":
        return SinrScenario(self.sites, powers, self.alpha, self.beta,
                            self.noise, self.window)

    def eps(self) -> float:
        return geom_eps(self.window.diameter())


def _receive_powers(s: SinrScenario, x: Point2,
                    powers: Optional[PowerVector] = None) -> list[float]:
    p = powers if powers is not None else s.powers
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


def sinr_at(s: SinrScenario, x: Point2, t: SiteId) -> float:
    """SINR of transmitter t at point x.

    Raises Singularity when x sits on transmitter t, or when the denominator
    is exactly zero (single transmitter with zero noise is rejected already
    at scenario construction; zero interference with zero noise can still
    occur when every other power is zero).
    """
    site = s.sites[t]
    if math.hypot(x.x - site.x, x.y - site.y) <= s.eps():
        raise Singularity(f"point {x} coincides with transmitter {t}")
    rx = _receive_powers(s, x)
    denom = sum(r for i, r in enumerate(rx) if i != t) + s.noise
    if denom == 0.0:
        raise Singularity("zero interference and zero noise")
    return rx[t] / denom


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
    best = max(rx)
    for i, r in enumerate(rx):
        if r == best:
            return i
    return 0


def is_covered(s: SinrScenario, x: Point2) -> bool:
    """True when some transmitter's SINR at x reaches beta (non-strict).

    Points within the coincidence tolerance of a powered transmitter count
    as covered: the SINR limit there is +infinity.
    """
    for i, site in enumerate(s.sites):
        if math.hypot(x.x - site.x, x.y - site.y) <= s.eps():
            return s.powers[i] > 0.0
    rx = _receive_powers(s, x)
    total = sum(rx) + s.noise
    t = capture_transmitter(s, x)
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


def _path_loss(sites, alpha: float, pts: np.ndarray) -> tuple:
    """Site-major ``d**alpha``, shape (n_sites, N), for (N,2) points, and the
    mask of zero distances (None when no point sits on a site)."""
    sx = np.array([q.x for q in sites])[:, None]
    sy = np.array([q.y for q in sites])[:, None]
    d2 = (pts[:, 0] - sx) ** 2 + (pts[:, 1] - sy) ** 2
    zero = d2 == 0.0
    return d2 ** (alpha / 2.0), (zero if zero.any() else None)


def _site_major_rx(p: np.ndarray, denom: np.ndarray, zero) -> np.ndarray:
    """Receive powers, shape (n_sites, N); on a site: +inf if powered, else 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rx = p[:, None] / denom
    if zero is not None:
        rx = np.where(zero, np.where(p[:, None] > 0.0, np.inf, 0.0), rx)
    return rx


def _covered_samples(rx: np.ndarray, beta: float, noise: float) -> np.ndarray:
    """Coverage mask over the columns of site-major receive powers."""
    rmax = rx.max(axis=0)
    with np.errstate(invalid="ignore"):  # inf - inf where rmax is infinite
        denom = rx.sum(axis=0) - rmax + noise
        return np.isinf(rmax) | ((rmax > 0.0) & ((denom <= 0.0) | (rmax >= beta * denom)))


def sinr_max_covered_mask(s: SinrScenario, pts: np.ndarray,
                          powers: Optional[PowerVector] = None) -> np.ndarray:
    """Vectorized coverage mask for an (N,2) array of sample points."""
    p = (powers if powers is not None else s.powers).as_array()
    rx = _site_major_rx(p, *_path_loss(s.sites, s.alpha, pts))
    return _covered_samples(rx, s.beta, s.noise)


def capture_grid(s: SinrScenario, nx: int, ny: int) -> np.ndarray:
    """Capture-transmitter ids (smallest on ties) on an (ny, nx) raster."""
    pts = _cell_centers(s.window, nx, ny)
    rx = _site_major_rx(s.powers.as_array(), *_path_loss(s.sites, s.alpha, pts))
    return rx.argmax(axis=0).reshape(ny, nx)


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
    transmitter and ends on the window boundary.
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
    out = []
    for k in range(samples):
        dist_k = t0 + (tmax - t0) * k / (samples - 1)
        x = Point2(origin.x + dist_k * dx, origin.y + dist_k * dy)
        if math.hypot(x.x - origin.x, x.y - origin.y) <= s.eps():
            out.append(s.powers[t] > 0.0)
            continue
        rx = _receive_powers(s, x)
        if rx[t] < max(rx):
            out.append(False)  # captured by another transmitter
            continue
        denom = sum(r for i, r in enumerate(rx) if i != t) + s.noise
        out.append(math.isinf(rx[t]) or (denom > 0.0 and rx[t] >= s.beta * denom)
                   or (denom == 0.0 and rx[t] > 0.0))
    return out


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


def weighted_capture_oracle(s: SinrScenario, x: Point2) -> SiteId:
    """Reference capture rule: argmin of d(x,t) * P_t^(-1/alpha).

    Zero-power sites never capture (unless every power is zero).
    """
    best, best_v = 0, math.inf
    for i, site in enumerate(s.sites):
        if s.powers[i] <= 0.0:
            continue
        v = math.hypot(x.x - site.x, x.y - site.y) * s.powers[i] ** (-1.0 / s.alpha)
        if v < best_v:
            best, best_v = i, v
    return best
