"""Power diagrams (weighted Voronoi partitions) of disk sets.

Cells are clipped to a rectangular window.  Site adjacency and empty-region
(hidden) detection are computed in the unbounded plane, because a disk whose
shared boundary lies outside the window still constrains its neighbors'
coverage inside it.

Construction routes:

* small or degenerate inputs: direct clipping of every bisector half-plane,
  exact and dependency-free;
* larger inputs: lift each disk to a plane in 3-D and read the regular
  triangulation off the lower convex hull (scipy/Qhull), then clip each cell
  against its triangulation neighbors only.  This keeps the build close to
  O(n log n) in practice.

Diagrams are immutable after construction; concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import ConcentricDisks, DuplicateSite, HiddenSite
from .geometry import (ConvexPolygon, Disk, Point2, Rect, bisector_line, clip_coords,
                       geom_eps, power_bisector, power_distance)

SiteId = int

# Inputs at or below this size always use the direct construction.
_DIRECT_MAX = 32

# Half-side multiple of the auxiliary square used for unbounded-plane queries.
_MEGA_FACTOR = 1.0e6


@dataclass(frozen=True)
class PowerDiagram:
    """Convex-cell partition of a window, plus unbounded-plane adjacency."""
    window: Rect
    sites: tuple[Disk, ...]
    cells: dict[SiteId, Optional[ConvexPolygon]]
    neighbors: dict[SiteId, frozenset[SiteId]]
    hidden: frozenset[SiteId]

    def edge_count(self) -> int:
        return sum(len(v) for v in self.neighbors.values()) // 2


@dataclass(frozen=True)
class PowerFrame:
    """Per-neighbor partition of one site's cell.

    ``partitions[q]`` is the part of the owner's cell where ``q`` is
    power-nearest among the owner's neighbors, cut from the cell by the
    neighbors' bisectors; the pieces tile the cell.
    """
    owner: SiteId
    partitions: dict[SiteId, ConvexPolygon]


def _validate(disks: Sequence[Disk], window: Rect) -> float:
    if not disks:
        raise ValueError("need at least one disk")
    seen = {}
    for i, d in enumerate(disks):
        key = (d.center.x, d.center.y, d.radius)
        if key in seen:
            raise DuplicateSite(f"disks {seen[key]} and {i} are identical")
        seen[key] = i
        if not window.contains(d.center):
            raise ValueError(f"disk {i} center {d.center} outside window")
    return max(window.diameter(), max(d.radius for d in disks))


def build(disks: Sequence[Disk], window: Rect) -> PowerDiagram:
    """Power diagram of ``disks`` clipped to ``window``.

    Deterministic given input order.  Sites whose power region is empty in
    the unbounded plane are reported in ``hidden`` and get a None cell.
    """
    scale = _validate(disks, window)
    n = len(disks)
    if n <= _DIRECT_MAX:
        return _build_direct(disks, window, scale)
    from scipy.spatial import QhullError
    try:
        return _build_lifted(disks, window, scale)
    except QhullError:
        # degenerate lift (e.g. all centers collinear): fall back to exact path
        return _build_direct(disks, window, scale)


def _clip_cell(poly: ConvexPolygon, sites: Sequence[Disk] | Mapping[SiteId, Disk],
               i: SiteId, others: Iterable[SiteId], eps: float) -> Optional[ConvexPolygon]:
    """``poly`` clipped to where ``sites[i]`` beats every ``sites[j]``,
    ``j`` in ``others`` (``i`` itself is skipped); None if empty.  The
    coordinates are cut by ``clip_coords`` on each ``bisector_line`` and
    wrapped once at the end (``poly`` itself if nothing was cut).  ``eps``
    only tells concentric disks, the larger of which wins, from a line."""
    di = sites[i]
    start = pts = [(p.x, p.y) for p in poly.vertices]
    for j in others:
        if j == i:
            continue
        dj = sites[j]
        if math.hypot(di.center.x - dj.center.x, di.center.y - dj.center.y) <= eps:
            if di.radius > dj.radius:
                continue
            return None
        pts = clip_coords(pts, *bisector_line(di, dj))
        if pts is None:
            return None
    return poly if pts is start else ConvexPolygon(tuple(Point2(x, y) for x, y in pts))


def _mega_square(window: Rect, scale: float) -> Rect:
    half = _MEGA_FACTOR * max(scale, 1.0)
    c = window.center()
    return Rect(c.x - half, c.y - half, c.x + half, c.y + half)


def _adjacency_exact(disks: Sequence[Disk], skip: frozenset[int],
                     scale: float) -> dict[int, set[int]]:
    """Unbounded-plane power adjacency by 1-D feasibility.

    Sites i, j share a power edge iff some point on their bisector line has
    power distance to i (= to j) no larger than to every other site; that is
    a linear constraint per third site along the line parameter.
    """
    n = len(disks)
    eps = geom_eps(scale)
    cx = np.array([d.center.x for d in disks])
    cy = np.array([d.center.y for d in disks])
    w = cx * cx + cy * cy - np.array([d.radius for d in disks]) ** 2
    tol_flat = 1e-14 * max(scale, 1.0)
    tol_len = 1e-7 * max(scale, 1.0)
    out: dict[int, set[int]] = {i: set() for i in range(n)}
    for i in range(n):
        if i in skip:
            continue
        for j in range(i + 1, n):
            if j in skip:
                continue
            try:
                h = power_bisector(disks[i], disks[j], eps)
            except ConcentricDisks:
                continue
            nn = math.hypot(h.nx, h.ny)
            p0x = h.nx * h.offset / (nn * nn)
            p0y = h.ny * h.offset / (nn * nn)
            dx, dy = -h.ny / nn, h.nx / nn
            ax = cx[i] - cx
            ay = cy[i] - cy
            A = -2.0 * (dx * ax + dy * ay)
            B = -2.0 * (p0x * ax + p0y * ay) + w[i] - w
            A[i] = A[j] = 0.0
            B[i] = B[j] = -1.0
            flat = np.abs(A) <= tol_flat
            if np.any(B[flat] > eps * max(scale, 1.0)):
                continue
            lo, hi = -math.inf, math.inf
            pos = A > tol_flat
            neg = A < -tol_flat
            if pos.any():
                hi = np.min(-B[pos] / A[pos])
            if neg.any():
                lo = np.max(-B[neg] / A[neg])
            if hi - lo > tol_len:
                out[i].add(j)
                out[j].add(i)
    return out


def _build_direct(disks: Sequence[Disk], window: Rect, scale: float) -> PowerDiagram:
    n = len(disks)
    eps = geom_eps(scale)
    mega = _mega_square(window, scale).to_polygon()
    wpoly = window.to_polygon()

    mega_cells: list[Optional[ConvexPolygon]] = []
    cells: dict[SiteId, Optional[ConvexPolygon]] = {}
    for i in range(n):
        mc = _clip_cell(mega, disks, i, range(n), eps)
        mega_cells.append(mc)
        cells[i] = None if mc is None else _clip_cell(wpoly, disks, i, range(n), eps)

    hidden = frozenset(i for i in range(n) if mega_cells[i] is None)
    neighbors = _adjacency_exact(disks, hidden, scale)
    return PowerDiagram(window=window, sites=tuple(disks), cells=cells,
                        neighbors={i: frozenset(s) for i, s in neighbors.items()},
                        hidden=hidden)


def _build_lifted(disks: Sequence[Disk], window: Rect, scale: float) -> PowerDiagram:
    from scipy.spatial import ConvexHull

    n = len(disks)
    pts = np.empty((n, 3))
    for i, d in enumerate(disks):
        pts[i, 0] = d.center.x
        pts[i, 1] = d.center.y
        pts[i, 2] = d.center.x ** 2 + d.center.y ** 2 - d.radius ** 2
    hull = ConvexHull(pts, qhull_options="Qt")

    lower = hull.equations[:, 2] < -1e-12
    visible: set[int] = set()
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for simplex, is_lower in zip(hull.simplices, lower):
        if not is_lower:
            continue
        a, b, c = int(simplex[0]), int(simplex[1]), int(simplex[2])
        visible.update((a, b, c))
        adj[a].update((b, c))
        adj[b].update((a, c))
        adj[c].update((a, b))

    hidden = frozenset(i for i in range(n) if i not in visible)
    wpoly = window.to_polygon()
    eps = geom_eps(scale)
    cells: dict[SiteId, Optional[ConvexPolygon]] = {}
    for i in range(n):
        if i in hidden:
            cells[i] = None
            continue
        cells[i] = _clip_cell(wpoly, disks, i, sorted(adj[i]), eps)

    neighbors = {i: frozenset(adj[i]) - {i} for i in range(n)}
    return PowerDiagram(window=window, sites=tuple(disks), cells=cells,
                        neighbors=neighbors, hidden=hidden)


def frame_partitions(cell: ConvexPolygon, sites: Sequence[Disk] | Mapping[SiteId, Disk],
                     gamma: Sequence[SiteId], eps: float) -> dict[SiteId, ConvexPolygon]:
    """Split ``cell`` by the power diagram of the sites in ``gamma``.

    The piece of ``q`` is ``cell`` clipped by the half-planes where ``q``
    beats every other ``r`` in ``gamma``, in the order of ``gamma``, on the
    coordinate kernel of ``_clip_cell``: vertex for vertex the polygon that
    ``clip_convex`` with each ``power_bisector`` would give.  Pieces come
    in the order of ``gamma``; empty ones are left out.
    """
    partitions: dict[SiteId, ConvexPolygon] = {}
    for q in gamma:
        piece = _clip_cell(cell, sites, q, gamma, eps)
        if piece is not None:
            partitions[q] = piece
    return partitions


def power_frame(pd: PowerDiagram, p: SiteId) -> PowerFrame:
    """Partition of cell(p) among p's neighbors, by local clipping.

    The piece labeled ``q`` is cell(p) clipped by the bisectors between q and
    each other neighbor, so q is power-nearest among the neighbors on it.
    """
    cell = pd.cells.get(p)
    if cell is None:
        raise HiddenSite(f"site {p} has an empty power region")
    gamma = sorted(pd.neighbors.get(p, frozenset()))
    eps = geom_eps(pd.window.diameter())
    return PowerFrame(owner=p, partitions=frame_partitions(cell, pd.sites, gamma, eps))


def remove_redundant(disks: Sequence[Disk], window: Rect) -> tuple[list[SiteId], list[SiteId]]:
    """Split sites into (kept, removed) by empty-power-region status.

    A removed disk is provably contained in the union of the other disks, so
    it contributes interference but no coverage.
    """
    pd = build(disks, window)
    removed = sorted(pd.hidden)
    kept = [i for i in range(len(disks)) if i not in pd.hidden]
    return kept, removed


def nearest_site(pd: PowerDiagram, x: Point2) -> SiteId:
    """Site of minimum power distance at ``x`` (smallest id wins ties)."""
    best, best_v = 0, math.inf
    for i, d in enumerate(pd.sites):
        v = power_distance(x, d)
        if v < best_v:
            best, best_v = i, v
    return best
