"""Power diagrams (weighted Voronoi partitions) of disk sets.

Cells are clipped to a rectangular window.  Site adjacency and empty-region
(hidden) detection are computed in the unbounded plane, because a disk whose
shared boundary lies outside the window still constrains its neighbors'
coverage inside it.

``build`` moves the disks into the window's frame (``window_frame``), so
rounding scales with the window wherever it lies, and returns the diagram
in that frame.  Construction (Aurenhammer 1987): lift each disk to the
point (x, y, x^2 + y^2 - r^2).  The visible sites and their neighbors are
the vertices and edges of the lower convex hull of the lifted points, and
each visible site's cell is the window clipped against its neighbors only,
close to O(n log n).  All cells are cut in one ``clip_rows`` call, and so
are the power frames of a block of owners (``frame_partitions``): one
numpy step per cut for every polygon, with the arithmetic of the scalar
``clip_coords``.  ``_clip_cell`` is the same recipe for one polygon that
stops at its first empty cut, the dynamic structure's one cell builder.
Rows are independent, so a row's vertices do not depend on the block it
was cut in.  A face of four or more cocircular sites comes back from Qhull
split into triangles on one plane; the edges inside it touch the diagram
in a point and are no neighbor pairs.
The neighbors are read off a flat lift first, in O(n log n) too, and Qhull
(scipy) gets the lift only when no flat route explains it; the diagram's
``route`` names the route.  Their one rounding test is ``side``, at the
magnitude of the coordinates they run on (also to tell the split faces),
with a slack for the rounding of the given coordinates, which bends a far
road or ring into a sliver that Qhull would accept:

* centers on one line: at parameter s along it the power distance is
  s^2 - 2 s t_i + t_i^2 - r_i^2, so the visible sites are the lower chain
  (Andrew 1979) of the points (t_i, t_i^2 - r_i^2), counting only the largest
  of the disks sharing a center, and neighbors are consecutive on the chain;
* a coplanar lift, z = a x + b y + c: the power distance is
  |x|^2 + c - c_i . (2x - (a, b)), so the visible sites are the corners of
  the centers' convex hull, each cell a wedge, and neighbors are adjacent
  corners.  Every lifted point besides the three the plane is fitted
  through must lie on it (any three do); if one does not, Qhull decides.

Diagrams are immutable after construction; concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import DiagramRejected, DuplicateSite, require_transmitters
from .geometry import (ClippedRows, ConvexPolygon, Disk, Point2, Rect, bisector_line,
                       clip_coords, clip_rows, geom_eps, padded, side)

SiteId = int


@dataclass(frozen=True)
class PowerDiagram:
    """Convex-cell partition of a window, plus unbounded-plane adjacency,
    in the window's frame."""
    window: Rect
    sites: tuple[Disk, ...]
    # the window's centre: ``window``, ``sites`` and the cells are less it
    origin: Point2
    cells: dict[SiteId, Optional[ConvexPolygon]]
    neighbors: dict[SiteId, frozenset[SiteId]]
    hidden: frozenset[SiteId]
    # geom_eps(window.diameter()): the cells', frames' and boolean's tolerance
    eps: float
    # how the neighbours were found: "line" (centres on one line), "plane"
    # (a coplanar lift) or "hull" (Qhull's lower hull)
    route: str

    def edge_count(self) -> int:
        return sum(len(v) for v in self.neighbors.values()) // 2


def admit(sites: dict[tuple[float, float, float], SiteId], sid: SiteId, d: Disk,
          window: Rect) -> None:
    """Record ``d`` as site ``sid`` in ``sites`` (keyed by ``d.xyr``), the
    one admission rule of both engines: its centre lies in ``window``
    (else ValueError) and it repeats no recorded disk (else DuplicateSite)."""
    if not window.contains(d.center):
        raise ValueError(f"site {sid} center lies outside the window")
    if d.xyr in sites:
        raise DuplicateSite(f"site {sid} repeats the disk of site {sites[d.xyr]}")
    sites[d.xyr] = sid


def window_frame(window: Rect) -> tuple[Point2, Rect, Callable[[Point2], Point2]]:
    """The frame both engines compute in: its origin, ``window``'s centre
    (cx, cy); the window in it; and the map (x, y) -> (x - cx, y - cy) into
    it.  Rounding, relative to the magnitude of the coordinates (which
    lifting squares), then scales with the window as the tolerance does."""
    cx, cy = origin = window.center()
    return (origin, Rect(window.x0 - cx, window.y0 - cy, window.x1 - cx, window.y1 - cy),
            lambda p: Point2(p.x - cx, p.y - cy))


def build(disks: Sequence[Disk], window: Rect) -> PowerDiagram:
    """Power diagram of ``disks`` clipped to ``window``, in the window's frame.

    Deterministic given input order.  The disks are moved into the frame
    (``window_frame``) and ``admit``ted there, and the diagram comes back
    in it: its ``window``, ``sites`` and cells are less ``origin``, the
    window's centre.  The cells are cut with ``eps =
    geom_eps(window.diameter())`` of the frame's window.  Sites whose power
    region is empty in the unbounded plane are reported in ``hidden`` and
    get a None cell.  The flat routes are tried before Qhull, allowing for
    the rounding of the given coordinates (``_flat_neighbors``); a lift
    that Qhull rejects then raises ``DiagramRejected``.
    """
    from scipy.spatial import QhullError

    origin, window, local = window_frame(window)
    sites = [Disk(local(d.center), d.radius) for d in disks]
    require_transmitters(sites)
    seen: dict[tuple[float, float, float], SiteId] = {}
    for i, d in enumerate(sites):
        admit(seen, i, d, window)
    eps = geom_eps(window.diameter())
    n = len(sites)
    try:
        adj, route = _neighbors(sites, max(abs(origin.x), abs(origin.y)))
    except QhullError as err:
        reason = next((line for line in str(err).splitlines() if line.strip()), "no reason given")
        raise DiagramRejected(f"Qhull rejected the sites: {reason.strip()}") from err
    visible = sorted(adj)
    cuts, _ = padded([sorted(adj[i]) for i in visible], -1)
    rows = clip_rows([window.to_polygon()], np.array([d.xyr for d in sites]),
                     np.zeros(len(visible), int), np.array(visible), cuts, eps)
    cells: dict[SiteId, Optional[ConvexPolygon]] = dict.fromkeys(range(n))
    cells.update(zip(visible, _polygons(rows)))
    return PowerDiagram(window=window, sites=tuple(sites), origin=origin, cells=cells,
                        neighbors={i: frozenset(adj.get(i, ())) for i in range(n)},
                        hidden=frozenset(i for i in range(n) if i not in adj), eps=eps,
                        route=route)


def _clip_cell(poly: ConvexPolygon, sites: Mapping[int, Disk], i: int,
               others: Iterable[int], eps: float) -> Optional[ConvexPolygon]:
    """``poly`` clipped to where ``sites[i]`` beats every ``sites[j]``,
    ``j`` in ``others`` (``i`` itself is skipped); None if empty.  The
    coordinates are cut by ``clip_coords`` on each ``bisector_line`` of the
    disks' ``xyr`` floats and wrapped once at the end (``poly`` itself if
    nothing was cut).  ``eps`` only tells concentric disks, the larger of
    which wins, from a line.  The cell recipe of ``build`` for one polygon
    that stops at its first empty cut: with the window, the site's sorted
    neighbours and ``build``'s eps it equals that ``clip_rows`` row bit for
    bit.  The dynamic structure's only cell builder."""
    xi, yi, ri = c = sites[i].xyr
    start = pts = [(p.x, p.y) for p in poly.vertices]
    for j in others:
        if j == i:
            continue
        o = sites[j].xyr
        if math.hypot(xi - o[0], yi - o[1]) <= eps:
            if ri > o[2]:
                continue
            return None
        pts = clip_coords(pts, *bisector_line(c, o))
        if pts is None:
            return None
    return poly if pts is start else ConvexPolygon(tuple(Point2(x, y) for x, y in pts))


def _neighbors(disks: Sequence[Disk], far: float) -> tuple[dict[SiteId, set[SiteId]], str]:
    """Unbounded-plane neighbors of every visible site (hidden sites are
    absent), and the route that found them (``PowerDiagram.route``): the
    flat routes for ``disks`` moved from coordinates of magnitude ``far``,
    else Qhull's lower hull (QhullError if Qhull rejects the lift)."""
    from scipy.spatial import ConvexHull

    lift = [(d.center.x, d.center.y, d.center.x ** 2 + d.center.y ** 2 - d.radius ** 2)
            for d in disks]
    if flat := _flat_neighbors(disks, lift, far):
        return flat
    hull = ConvexHull(np.array(lift), qhull_options="Qt")
    tris, across, planes = (hull.simplices.tolist(), hull.neighbors.tolist(),
                            hull.equations.tolist())
    lower = [nz < -1e-12 for _, _, nz, _ in planes]
    adj: dict[SiteId, set[SiteId]] = {}
    for f, tri in enumerate(tris):
        if not lower[f]:
            continue
        for v in tri:
            adj.setdefault(v, set())
        a, b, c = tri
        for u, v, g in ((b, c, across[f][0]), (c, a, across[f][1]), (a, b, across[f][2])):
            if lower[g]:
                if g < f:
                    continue  # decided from g
                # an edge inside a split face: g's far vertex lies on f's plane
                nx, ny, nz, off = planes[f]
                x, y, z = lift[tris[g][across[g].index(f)]]
                if side(nx * x + ny * y + nz * z, -off) == 0:
                    continue
            adj[u].add(v)
            adj[v].add(u)
    return adj, "hull"


def _lower_chain(pts: Sequence[tuple[float, float]], order: Iterable[int]) -> list[int]:
    """Andrew's monotone chain: the corners of the lower chain of ``pts``
    taken in ``order`` (by x, then y; the reverse order gives the upper
    chain).  A point stays only at a strict left turn, decided by ``side``."""
    chain: list[int] = []
    for k in order:
        bx, by = pts[k]
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = pts[chain[-2]], pts[chain[-1]]
            if side((ax - ox) * (by - oy), (ay - oy) * (bx - ox)) == 1:
                break
            chain.pop()
        chain.append(k)
    return chain


def _flat_neighbors(disks: Sequence[Disk], lift: Sequence[tuple[float, float, float]],
                    far: float) -> Optional[tuple[dict[SiteId, set[SiteId]], str]]:
    """``_neighbors`` of the lifted points ``lift`` if their centers lie on
    a line (route "line") or ``lift`` on a plane ("plane"), else None.
    Centers are taken relative to site 0.  Besides ``side``'s rounding, a
    point may miss the line or plane by ``1e-12 * far`` per unit of the
    centers' extent: ``side``'s rounding at the magnitude ``far`` of the
    coordinates they were moved from, which a far road or ring carries."""
    n = len(disks)
    x0, y0, z0 = lift[0]
    xy = [(x - x0, y - y0) for x, y, _ in lift]
    f = max(range(n), key=lambda i: xy[i][0] ** 2 + xy[i][1] ** 2)
    ux, uy = xy[f]
    slack = 1e-12 * far * math.hypot(ux, uy)
    on = lambda a, b: side(a, b) == 0 or abs(a - b) <= slack
    if all(on(ux * y - uy * x, ux * y0 - uy * x0) for x, y, _ in lift):
        norm = math.hypot(ux, uy) or 1.0
        t = [(x * ux + y * uy) / norm for x, y in xy]
        tw = [(ti, ti * ti - d.radius ** 2) for ti, d in zip(t, disks)]
        order = sorted(range(n), key=lambda i: tw[i])
        # of the disks sharing a center only the largest, first here, counts
        order = [i for k, i in enumerate(order) if k == 0 or t[order[k - 1]] != t[i]]
        chain = _lower_chain(tw, order)
        edges, route = zip(chain, chain[1:]), "line"
    else:
        # the plane through site 0, the center farthest from it and the
        # center farthest from their line, checked at every other lifted
        # point (the three it was fitted to carry only the fit's rounding)
        g = max(range(n), key=lambda i: abs(ux * xy[i][1] - uy * xy[i][0]))
        vx, vy = xy[g]
        det = ux * vy - uy * vx
        zu, zv = lift[f][2] - z0, lift[g][2] - z0
        a, b = (zu * vy - uy * zv) / det, (ux * zv - vx * zu) / det
        if not all(on(p[2], z0 + a * x + b * y)
                   for i, ((x, y), p) in enumerate(zip(xy, lift)) if i not in (0, f, g)):
            return None
        order = sorted(range(n), key=lambda i: xy[i])
        chain = _lower_chain(xy, order)[:-1] + _lower_chain(xy, reversed(order))[:-1]
        edges, route = zip(chain, chain[1:] + chain[:1]), "plane"
    adj: dict[SiteId, set[SiteId]] = {i: set() for i in chain}
    for p, q in edges:
        adj[p].add(q)
        adj[q].add(p)
    return adj, route


def frame_partitions(pd: PowerDiagram, owners: Sequence[SiteId]) -> ClippedRows:
    """The power frames of the visible sites ``owners``, by one ``clip_rows``
    call: a row for each owner p, in turn, and each neighbour q of p,
    ascending.  Row (p, q) is cell(p) cut by the bisector of q and each other
    neighbour r, ascending, so q is power-nearest among the neighbours on
    it; vertex for vertex what chained ``clip_coords`` on each
    ``bisector_line`` would give (the tests' ``clip_convex`` and
    ``power_bisector`` references).  An empty row is a piece left out."""
    gammas, g = padded([sorted(pd.neighbors[p]) for p in owners], np.int32(-1))
    o = np.repeat(np.arange(len(owners)), g)
    k = (np.arange(len(o)) - np.repeat(np.cumsum(g) - g, g)).astype(np.int32)  # q's place
    j = np.arange(max(gammas.shape[1] - 1, 0), dtype=np.int32)
    cuts = gammas[o[:, None], j + (j >= k[:, None])]  # gamma without q
    return clip_rows([pd.cells[p] for p in owners], np.array([d.xyr for d in pd.sites]), o,
                     gammas[o, k], cuts, pd.eps)


def _polygons(rows: ClippedRows) -> Iterator[Optional[ConvexPolygon]]:
    """Each row of ``rows`` as a polygon, None if empty."""
    pts, a = list(map(Point2, *rows.xy.T.tolist())), 0
    for size in rows.sizes.tolist():
        yield ConvexPolygon(tuple(pts[a:a + size])) if size else None
        a += size
