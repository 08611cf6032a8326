"""The site-major SINR kernel as it read before the site fold: the reference
that ``sinr_model.SinrEvaluator`` must equal exactly, sample for sample.

``_path_loss``, ``_site_major_rx`` and ``_covered_samples`` are the earlier
library code, kept as they were; ``reference_mask`` and ``reference_capture``
are the earlier ``sinr_max_covered_mask`` and ``capture_grid`` bodies.

``sinr_at``, ``sinr_max_covered_mask`` and ``weighted_capture_oracle`` left
``coveragekit.sinr_model``: no output of the library depends on them, and
the tests keep them as references.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from coveragekit import sinr_model
from coveragekit.errors import Singularity
from coveragekit.geometry import Point2
from coveragekit.sinr_model import PowerVector, SinrEvaluator, SinrScenario, SiteId


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


def reference_mask(s, pts: np.ndarray, powers) -> np.ndarray:
    rx = _site_major_rx(np.asarray(powers, dtype=float), *_path_loss(s.sites, s.alpha, pts))
    return _covered_samples(rx, s.beta, s.noise)


def reference_capture(s, pts: np.ndarray, powers) -> np.ndarray:
    rx = _site_major_rx(np.asarray(powers, dtype=float), *_path_loss(s.sites, s.alpha, pts))
    return rx.argmax(axis=0)


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
    rx = sinr_model._receive_powers(s, x)
    denom = sum(r for i, r in enumerate(rx) if i != t) + s.noise
    if denom == 0.0:
        raise Singularity("zero interference and zero noise")
    return rx[t] / denom


def sinr_max_covered_mask(s: SinrScenario, pts: np.ndarray,
                          powers: Optional[PowerVector] = None) -> np.ndarray:
    """Vectorized coverage mask for an (N,2) array of sample points."""
    p = powers if powers is not None else s.powers
    return SinrEvaluator(s, sinr_model._path_loss(s.sites, s.alpha, pts)).mask(p.values)


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
