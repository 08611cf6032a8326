"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the library's own geometric pipeline:
areas come from dense grid membership counting and closed-form circle
formulas, so a library bug cannot hide in its own oracle.
"""

from __future__ import annotations

import math

import numpy as np

from coveragekit.geometry import ConvexPolygon, Disk, Point2, Rect
from coveragekit.protocol_coverage import ProtocolTransmitter


def lens_area(r1: float, r2: float, d: float) -> float:
    """Area of the intersection of two circles with center distance d."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        r = min(r1, r2)
        return math.pi * r * r
    a1 = math.acos((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))
    a2 = math.acos((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))
    tri = 0.5 * math.sqrt(max(0.0, (-d + r1 + r2) * (d + r1 - r2)
                              * (d - r1 + r2) * (d + r1 + r2)))
    return r1 * r1 * a1 + r2 * r2 * a2 - tri


def grid_points(window: Rect, nx: int, ny: int) -> np.ndarray:
    """Cell-center sample grid over a window, shape (nx*ny, 2)."""
    xs = window.x0 + (np.arange(nx) + 0.5) * window.width / nx
    ys = window.y0 + (np.arange(ny) + 0.5) * window.height / ny
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def grid_boolean_area(region: ConvexPolygon, include: Disk, excludes: list[Disk],
                      window: Rect, n: int = 1000) -> float:
    """Membership-count area of (region ∩ include) minus every exclude."""
    pts = grid_points(window, n, n)
    mask = np.ones(len(pts), dtype=bool)
    verts = region.vertices
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        cross = ((b.x - a.x) * (pts[:, 1] - a.y) - (b.y - a.y) * (pts[:, 0] - a.x))
        mask &= cross >= 0.0
    d_inc = np.hypot(pts[:, 0] - include.center.x, pts[:, 1] - include.center.y)
    mask &= d_inc <= include.radius
    for exclude in excludes:
        d_exc = np.hypot(pts[:, 0] - exclude.center.x, pts[:, 1] - exclude.center.y)
        mask &= d_exc >= exclude.radius
    return mask.sum() * window.area() / len(pts)


def grid_protocol_areas(txs: list[ProtocolTransmitter], window: Rect,
                        n: int = 1000,
                        active: list[int] | None = None) -> tuple[float, np.ndarray]:
    """(total covered area, per-site areas) by grid membership counting.

    A point is covered by site p iff it is inside p's transmission disk and
    outside every other active site's interference disk.  ``active`` lists
    the transmitters that participate (default: all); the coverage-map
    algorithm removes empty-power-region sites from the network before
    computing, so equivalence tests pass the kept set here.
    """
    pts = grid_points(window, n, n).astype(np.float32)
    m = len(txs)
    act = list(range(m)) if active is None else list(active)
    xs = pts[:, 0]
    ys = pts[:, 1]
    in_tx = []
    in_int = []
    int_count = np.zeros(len(pts), dtype=np.int16)
    for i in act:
        dx = xs - np.float32(txs[i].location.x)
        dy = ys - np.float32(txs[i].location.y)
        d2 = dx * dx + dy * dy
        in_tx.append(d2 < np.float32(txs[i].tx_radius ** 2))
        hit = d2 < np.float32(txs[i].int_radius ** 2)
        in_int.append(hit)
        int_count += hit
    per_site = np.zeros(m)
    covered_any = np.zeros(len(pts), dtype=bool)
    cell = window.area() / len(pts)
    for k, p in enumerate(act):
        cov_p = in_tx[k] & (int_count == in_int[k])
        per_site[p] = cov_p.sum() * cell
        covered_any |= cov_p
    return covered_any.sum() * cell, per_site


def pairwise_interference_exists(txs: list[ProtocolTransmitter]) -> bool:
    """O(n^2) oracle: does some transmission disk overlap another's
    interference disk (positive-area overlap)?"""
    for i, a in enumerate(txs):
        for j, b in enumerate(txs):
            if i == j:
                continue
            d = math.hypot(a.location.x - b.location.x, a.location.y - b.location.y)
            if d < a.tx_radius + b.int_radius:
                return True
    return False


def polygon_grid_area(poly: ConvexPolygon, window: Rect, n: int = 500) -> float:
    pts = grid_points(window, n, n)
    mask = np.ones(len(pts), dtype=bool)
    verts = poly.vertices
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        cross = ((b.x - a.x) * (pts[:, 1] - a.y) - (b.y - a.y) * (pts[:, 0] - a.x))
        mask &= cross >= 0.0
    return mask.sum() * window.area() / len(pts)


def grid_power_cell_areas(disks: list[Disk], window: Rect, n: int = 1000) -> np.ndarray:
    """Per-disk area of the power diagram's cells in ``window`` by grid
    membership counting: each sample goes to its power-nearest disk."""
    pts = grid_points(window, n, n)
    best = np.full(len(pts), np.inf)
    owner = np.zeros(len(pts), dtype=np.int64)
    for i, d in enumerate(disks):
        power = (pts[:, 0] - d.center.x) ** 2 + (pts[:, 1] - d.center.y) ** 2 - d.radius ** 2
        nearer = power < best
        best[nearer] = power[nearer]
        owner[nearer] = i
    return np.bincount(owner, minlength=len(disks)) * window.area() / len(pts)


def planes_above_lattice(dc, planes) -> np.ndarray:
    """For each lifted plane, whether it passes above some current vertex of
    a ``DynamicCoverage`` lattice (the half-space is then not redundant), by
    a scan of every vertex with the structure's own test (``_side``,
    evaluated in the same order of floating-point operations).  Every plane
    passes above an empty structure."""
    ids = sorted({u for ring in dc.cells.values() for u in ring})
    if not ids:
        return np.ones(len(planes), dtype=bool)
    x, y, z = (np.array(getattr(dc, k))[ids] for k in "xyz")
    p = np.array([(h.a, h.b, h.c) for h in planes], dtype=float).reshape(-1, 3)
    f = p[:, :1] * x + p[:, 1:2] * y + p[:, 2:]
    tol = 1e-12 * (1.0 + np.abs(f) + np.abs(z))
    return (z < f - tol).any(axis=1)
