"""The site-major SINR kernel as it read before the site fold: the reference
that ``sinr_model.SinrEvaluator`` must equal exactly, sample for sample.

``_path_loss``, ``_site_major_rx`` and ``_covered_samples`` are the earlier
library code, kept as they were; ``reference_mask`` and ``reference_capture``
are the earlier ``sinr_max_covered_mask`` and ``capture_grid`` bodies.
"""

from __future__ import annotations

import numpy as np


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
