"""Output checks for the benchmark, independent of the program's pipelines
where that is cheap enough: areas from membership grids, hidden sites from a
lifted lower hull, SINR areas from the scalar ``is_covered`` predicate.
All of them run after the timed region."""

from __future__ import annotations

import numpy as np


def hidden_sites(txs: list[dict]) -> set[int]:
    """Sites whose interference disk has an empty power region: their lifted
    point (x, y, x^2 + y^2 - r^2) is not a vertex of the lower convex hull."""
    from scipy.spatial import ConvexHull

    pts = np.array([[t["x"], t["y"], t["x"] ** 2 + t["y"] ** 2 - t["int_radius"] ** 2]
                    for t in txs])
    hull = ConvexHull(pts, qhull_options="Qt")
    on_lower = set()
    for simplex, eq in zip(hull.simplices, hull.equations):
        if eq[2] < -1e-12:
            on_lower.update(int(v) for v in simplex)
    return set(range(len(txs))) - on_lower


def grid_covered_area(txs: list[dict], window: dict, active: list[int],
                      cells: int) -> float:
    """Protocol-model covered area by membership counting on a cells x cells
    grid of cell centres: a point is covered when it lies inside some active
    transmission disk and inside no other active interference disk."""
    x0, y0, x1, y1 = window["x0"], window["y0"], window["x1"], window["y1"]
    hx = (x1 - x0) / cells
    hy = (y1 - y0) / cells
    xs = x0 + (np.arange(cells) + 0.5) * hx
    ys = y0 + (np.arange(cells) + 0.5) * hy
    n_int = np.zeros((cells, cells), dtype=np.int16)

    def box(t, r):
        i0 = max(0, int((t["x"] - r - x0) / hx))
        i1 = min(cells, int((t["x"] + r - x0) / hx) + 2)
        j0 = max(0, int((t["y"] - r - y0) / hy))
        j1 = min(cells, int((t["y"] + r - y0) / hy) + 2)
        dx = xs[i0:i1] - t["x"]
        dy = ys[j0:j1] - t["y"]
        return (slice(j0, j1), slice(i0, i1)), dy[:, None] ** 2 + dx[None, :] ** 2

    tx_hits = np.zeros((cells, cells), dtype=np.int16)
    for k in active:
        t = txs[k]
        sl, d2 = box(t, t["int_radius"])
        n_int[sl] += d2 < t["int_radius"] ** 2
        sl, d2 = box(t, t["tx_radius"])
        tx_hits[sl] += d2 < t["tx_radius"] ** 2
    # Covered by p: inside tx_p and no other interference disk; the own
    # interference disk contains tx_p, so exactly one interference hit.
    covered = (tx_hits >= 1) & (n_int == 1)
    return float(covered.sum()) * hx * hy


def scalar_sinr_area(scenario, powers, nx: int, ny: int) -> float:
    """Grid area fraction from the scalar per-point predicate."""
    from coveragekit.geometry import Point2
    from coveragekit.sinr_model import is_covered

    s = scenario.with_powers(powers)
    w = s.window
    hits = 0
    for j in range(ny):
        y = w.y0 + (j + 0.5) * w.height / ny
        for i in range(nx):
            if is_covered(s, Point2(w.x0 + (i + 0.5) * w.width / nx, y)):
                hits += 1
    return hits / (nx * ny)
