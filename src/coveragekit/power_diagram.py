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
each visible site's cell is the window clipped against its neighbors only.
All cells are cut in one ``clip_rows`` call, and so are the power frames of
a block of owners (``frame_partitions``): one numpy step per cut for every
polygon, with the arithmetic of the scalar ``clip_coords``.  ``_clip_cell``
is the same recipe for one polygon that stops at its first empty cut, the
dynamic structure's one cell builder.  Rows are independent, so a row's
vertices do not depend on the block it was cut in.

The neighbors are read off a flat lift first, in O(n log n), and the
candidate pass (route "hull") reads them otherwise.  The flat routes' one
rounding test is ``side``, at the magnitude of the coordinates they run on,
with a slack for the rounding of the given coordinates, which bends a far
road or ring into a sliver:

* centers on one line: at parameter s along it the power distance is
  s^2 - 2 s t_i + t_i^2 - r_i^2, so the visible sites are the lower chain
  (Andrew 1979) of the points (t_i, t_i^2 - r_i^2), counting only the largest
  of the disks sharing a center, and neighbors are consecutive on the chain;
* a coplanar lift, z = a x + b y + c: the power distance is
  |x|^2 + c - c_i . (2x - (a, b)), so the visible sites are the corners of
  the centers' convex hull, each cell a wedge, and neighbors are adjacent
  corners.  Every lifted point besides the three the plane is fitted
  through must lie on it (any three do); if one does not, the candidate
  pass decides.

The candidate pass (``_neighbors``) decides each site p on its own, in p's
frame (the centres less p's), so the squares of far coordinates never
cancel.  The centres are bucketed in a uniform grid, its cells halved while
one holds 8 times the mean (a dense cluster), and p's 48 nearest in the
5 x 5 cells about it ordered by how close to p their bisectors pass.  A
site whose cell is empty already with the first ``_FIRST`` (8), which needs
one of them to beat it at its centre, is hidden and leaves every list; a
site left with 16 or fewer (at the rim of the layout or beside a dense
cluster) takes the 48 nearest of all the sites not found hidden.  p cuts
the plane with the first ``_NEAREST`` (16, the candidate cap) and the extra
candidates earlier rounds found for it, and keeps q as a neighbour where
the interval of their bisector left by every other candidate's half-plane
is longer than ``side``'s rounding (inside a face of four or more
cocircular sites the edges have length 0 and are no neighbor pairs).  Every
end v of an interval is then certified.  The rest of the 48 beat p at v
only if the first of their bisectors passes within |v| of p.  A site of
radius r beyond them beats p there only if its centre lies within
sqrt(pow_p(v) + r^2) of v, r at most the largest radius within k grid cells
of p's for a site that close (k up to 8), else the largest of all; when
that reach leaves the 48, v is checked against the site whose cell holds
it, which lies in the 5 x 5 grid cells about v or has a cell reaching
beyond 2 cells.  An unbounded edge holds only if no site lies beyond p
along it.  A site beaten somewhere takes its beaters (for an unbounded
edge, the next corner of the centres' hull) as extra candidates and is
decided again; a site left with no edge is hidden.  A step of the interval
kernel holds at most ``_PAIRS`` candidate pairs (or one row), however many
extras its rows have gathered.
Diagrams are immutable after construction; concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import DuplicateSite, require_transmitters
from .geometry import (ClippedRows, ConvexPolygon, Disk, Point2, Rect, bisector_line,
                       clip_coords, clip_rows, geom_eps, padded, side)

SiteId = int

_NEAREST = 16  # the candidate cap: a site cuts with 16 of its nearest, plus its extras
_CHECKED = 48  # the nearest sites a cell is certified against
_FIRST = 8  # a site whose cell its first 8 candidates leave empty is hidden
_PER_CELL = 2.5  # sites per grid cell: a 5 x 5 block of cells holds about 60
_CHUNK = 256  # sites per step of the candidate pass
_STEP = 128  # points per step of a far check
_PAIRS = 2 ** 14  # pairs per step of the interval kernel and of a search of all sites


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
    # (a coplanar lift) or "hull" (the certified candidate pass)
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
    get a None cell.  The flat routes are tried before the candidate
    pass, allowing for the rounding of the given coordinates
    (``_flat_neighbors``).
    """
    origin, window, local = window_frame(window)
    sites = [Disk(local(d.center), d.radius) for d in disks]
    require_transmitters(sites)
    seen: dict[tuple[float, float, float], SiteId] = {}
    for i, d in enumerate(sites):
        admit(seen, i, d, window)
    eps = geom_eps(window.diameter())
    n = len(sites)
    adj, route = _neighbors(sites, max(abs(origin.x), abs(origin.y)))
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
    else the candidate pass (route "hull")."""
    lift = [(d.center.x, d.center.y, d.center.x ** 2 + d.center.y ** 2 - d.radius ** 2)
            for d in disks]
    if flat := _flat_neighbors(disks, lift, far):
        return flat
    xyr = np.array([d.xyr for d in disks])
    # of the disks sharing a centre only the largest, first here, can be visible
    order = np.lexsort((-xyr[:, 2], xyr[:, 1], xyr[:, 0]))
    ids = order[np.r_[True, (np.diff(xyr[order, :2], axis=0) != 0).any(1)]]
    (x, y, r), xy, n = xyr[ids].T, xyr[ids, :2], len(ids)
    # the centres in a uniform grid of about _PER_CELL a cell; cells -3 and
    # g + 2 have none about them
    lo, ext = xy.min(0), np.ptp(xy, 0)
    h = max(math.sqrt(_PER_CELL * ext.prod() / n), _PER_CELL * ext.max() / n)
    while True:  # halved while a cell holds 8 times that (a dense cluster)
        g = (ext // h).astype(int) + 1
        key = ((xy - lo) // h).astype(int) @ [g[1], 1]
        if np.bincount(key).max() <= 8 * _PER_CELL or g.prod() > 64 * n:
            break
        h /= 2
    cell_of = lambda a: ((a - lo) // h).clip(-3, g + 2).astype(int)
    cell = cell_of(xy)
    by_cell = np.argsort(key, kind="stable")
    start = np.searchsorted(key[by_cell], np.arange(g.prod() + 1))  # cell c: by_cell[start[c]:]

    def block(c: np.ndarray) -> np.ndarray:
        """The sites in the 5 x 5 cells about each cell c[i], -1 after."""
        col = c[:, :1] + np.arange(-2, 3)
        a, z = (np.where((col >= 0) & (col < g[0]),
                         start[col.clip(0, g[0] - 1) * g[1] + (c[:, 1:] + d).clip(0, g[1])], 0)
                for d in (-2, 3))
        i = a[:, :, None] + np.arange((z - a).max(initial=1))
        return np.where(i < z[:, :, None], by_cell[i.clip(0, n - 1)], -1).reshape(len(c), -1)

    # each site's _CHECKED nearest, those whose bisectors pass closest first;
    # rho: every site nearer is among them; lead and gap: twice how close the
    # first bisector and the first not cut with pass (lead <= 0: p's centre
    # is not in p's cell)
    near, rho = np.empty((n, _CHECKED), np.int32), np.empty(n)
    lead, gap = np.empty(n), np.empty(n)

    def nearest(ps: np.ndarray, b: np.ndarray, edge: np.ndarray | float) -> None:
        """near, lead, gap and rho of the sites ps from the sites b[i] about
        ps[i] (-1 for none), every site within ``edge`` of ps[i] among them."""
        b = np.pad(b, ((0, 0), (0, max(0, _CHECKED + 1 - b.shape[1]))), constant_values=-1)
        d2 = np.where((b >= 0) & (b != ps[:, None]),
                      (x[b] - x[ps, None]) ** 2 + (y[b] - y[ps, None]) ** 2, np.inf)
        by = np.argpartition(d2, _CHECKED, 1)[:, :_CHECKED + 1]
        b, d2 = np.take_along_axis(b, by[:, :-1], 1), np.take_along_axis(d2, by, 1)
        with np.errstate(invalid="ignore"):
            key = (d2[:, :-1] - r[b] ** 2 + r[ps, None] ** 2) / np.sqrt(d2[:, :-1])
        by = np.argsort(key, 1)
        key, b = np.take_along_axis(key, by, 1), np.take_along_axis(b, by, 1)
        near[ps], lead[ps], gap[ps] = np.where(key < np.inf, b, -1), key[:, 0], key[:, _NEAREST]
        rho[ps] = np.minimum(np.sqrt(d2[:, -1]), edge)

    for ps in np.array_split(by_cell, -(-n // _CHUNK)):
        c = cell[ps]
        edge = np.minimum(np.where(c > 2, xy[ps] - lo - (c - 2) * h, np.inf),
                          np.where(c < g - 3, lo + (c + 3) * h - xy[ps], np.inf))
        nearest(ps, block(c), edge.min(1))
    # reach2[p, j]: the largest squared radius of the sites within j + 2 cells
    # of p's (as many cells as the largest radius spans, plus 2, at most 8),
    # and of all sites last; a site outside k cells of p's lies at least k h
    # from p (floor), so a cluster of small disks is not held to the reach of
    # a large disk some cells away
    rings, top, cols = min(8, int(r.max() / h) + 2), np.zeros(g), []
    np.maximum.at(top, tuple(cell.T), r)
    for _ in range(rings):  # top: the largest radius within len(cols) + 1 cells
        t = np.pad(top, 1)
        t = np.maximum(np.maximum(t[:-2], t[1:-1]), t[2:])
        top = np.maximum(np.maximum(t[:, :-2], t[:, 1:-1]), t[:, 2:])
        cols.append(top[tuple(cell.T)])
    reach2 = np.c_[np.stack(cols[1:], 1), np.full(n, r.max())] ** 2
    floor = h * np.r_[0, 2:rings + 1]

    def cut(ps: np.ndarray, nb: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
        """Each p's candidates nb in its frame (dx, dy, b as in ``_intervals``)
        and the edges (s, q) of the cell the first k leave it, with the ends
        of their intervals."""
        dx, dy = x[nb] - x[ps, None], y[nb] - y[ps, None]
        b = dx * dx + dy * dy - r[nb] ** 2 + r[ps, None] ** 2
        ok = nb[:, :k] >= 0
        lo_t, hi_t = _intervals(dx[:, :k] * ok, dy[:, :k] * ok, np.where(ok, b[:, :k], 1.0))
        with np.errstate(invalid="ignore"):
            s, q = np.nonzero(ok & np.where(np.isfinite(hi_t - lo_t), side(hi_t, lo_t) > 0,
                                            hi_t > lo_t))
        return dx, dy, b, s, q, lo_t[s, q], hi_t[s, q]

    # a hidden site cuts no cell: those the first _FIRST find leave every
    # list (which leaves gap short of the first bisector then not cut with);
    # a site whose centre beats all its nearest (lead > 0) keeps the points
    # about its centre
    gone = lead <= 0
    for ps in np.array_split(np.flatnonzero(gone), max(1, -(-gone.sum() // _CHUNK))):
        gone[ps[cut(ps, near[ps, :_FIRST], _FIRST)[3]]] = False
    keep = (near >= 0) & ~gone[near]
    near = np.take_along_axis(np.where(keep, near, -1), np.argsort(~keep, 1, kind="stable"), 1)
    # a site left with _NEAREST or fewer (at the rim of the layout, beside a
    # dense cluster or among hidden sites) takes the nearest of all others
    # not hidden: a hidden site beats p only where one of those does
    few, seen = np.flatnonzero((near[:, _NEAREST] < 0) & ~gone), np.flatnonzero(~gone)
    for ps in np.array_split(few, max(1, len(few) * len(seen) // _PAIRS)):
        nearest(ps, np.broadcast_to(seen, (len(ps), len(seen))), np.inf)

    def beater(p: np.ndarray, v: np.ndarray, e: Optional[np.ndarray]) -> np.ndarray:
        """``_beater`` at the points v[i] of p[i]'s frame, of the 5 x 5 cells
        about v[i] and the far-reaching sites; with ``e``, for the ray along
        v[i] of p[i]'s edge with the site e[i] from p[i], of the far-reaching
        sites beyond p[i] along v[i] (by 1e-12 |v| |d|, above the rounding),
        the one whose line from p[i] turns farthest from e[i] (gift wrapping)."""
        cs = [np.broadcast_to(wide, (len(p), len(wide)))]
        c = np.concatenate((cs if e is not None else [block(cell_of(v + xy[p]))]) + cs, 1)
        dx, dy = x[c] - x[p, None], y[c] - y[p, None]
        a = 2 * (v[:, :1] * dx + v[:, 1:] * dy)
        if e is None:
            return _beater(a, dx * dx + dy * dy - r[c] ** 2 + r[p, None] ** 2, c)
        with np.errstate(divide="ignore", invalid="ignore"):
            return _beater(a, 1e-12 * np.hypot(dx, dy) * np.hypot(*v.T)[:, None], c,
                           -(e[:, :1] * dx + e[:, 1:] * dy) / a)

    extra: list[set[int]] = [set() for _ in range(n)]
    todo, pairs = np.flatnonzero(~gone), []
    reach = np.where(gone, -np.inf, np.inf)  # how far from its centre a cell may reach
    while len(todo):
        found, hits, points, rays = [], [], [], []
        for ps in np.array_split(todo, -(-len(todo) // _CHUNK)):
            # p cuts with its extras and the first _NEAREST of its nearest, in
            # its own frame
            more = padded([sorted(extra[p]) for p in ps.tolist()], -1)[0].reshape(len(ps), -1)
            nb, k = np.concatenate([more, near[ps]], 1), _NEAREST + more.shape[1]
            dx, dy, b, s, q, lt, t = cut(ps, nb, k)
            # a point of each edge, its hi end, else its lo end, else t = 0,
            # and its rays, along -+ d_q turned a quarter (t runs anticlockwise)
            qx, qy = dx[s, q], dy[s, q]
            up, down = np.isinf(t), np.isinf(lt)
            t = np.where(~up, t, np.where(~down, lt, 0.0))
            bq = b[s, q] / (qx * qx + qy * qy)
            v = np.stack([bq * qx - t * qy, bq * qy + t * qx], 1) / 2
            pv = (v * v).sum(1)
            reach[ps] = -np.inf
            np.maximum.at(reach, ps[s], np.where(up | down, np.inf, np.sqrt(pv)))
            wide = (np.sqrt(pv)[:, None] + np.sqrt(((pv - r[ps[s]] ** 2)[:, None]
                                                    + reach2[ps[s]]).clip(0))
                    >= np.maximum(rho[ps[s], None], floor)).any(1)
            # the rest of the nearest beat p at a point v only if the first
            # bisector of them passes within |v| of p
            span = np.zeros(len(ps))
            np.maximum.at(span, s[~wide], np.sqrt(pv[~wide]))
            i = np.flatnonzero(~wide & (gap[ps[s]] < 2.000001 * span[s]))
            a = 2 * (v[i, :1] * dx[s[i], k:] + v[i, 1:] * dy[s[i], k:])
            hits.append((ps[s[i]], _beater(a, b[s[i], k:], nb[s[i], k:])))
            d, turned = np.stack([qx, qy], 1), np.stack([-qy, qx], 1)
            points.append((ps[s[wide]], v[wide]))
            rays.append((np.r_[ps[s[up]], ps[s[down]]], np.r_[turned[up], -turned[down]],
                         np.r_[d[up], d[down]]))
            found.append((ps[s], nb[s, q]))
        # the far checks, once every cell of the round is bounded: the site
        # whose cell holds a point beats p there if any does, and only one
        # whose cell reaches beyond 2 h (every one with a ray) can hold a
        # point beyond the 5 x 5 cells about it
        wide = np.flatnonzero(reach > 2 * h)
        for p, v, *e in ([*map(np.concatenate, zip(*c))] for c in (points, rays)):
            for j in (slice(i, i + _STEP) for i in range(0, len(p), _STEP)):
                hits.append((p[j], beater(p[j], v[j], e[0][j] if e else None)))
        p, k = (np.concatenate(a).astype(int) for a in zip(*hits))
        bad = {p for p, k in zip(p[k >= 0].tolist(), k[k >= 0].tolist())
               if k not in extra[p] and not extra[p].add(k)}
        p, q = (np.concatenate(a) for a in zip(*found))
        keep = ~np.isin(p, list(bad))
        pairs.append((p[keep], q[keep]))
        todo = np.array(sorted(bad), dtype=int)
    p, q = (ids[np.concatenate(a)] for a in zip(*pairs))
    key = np.unique(np.concatenate([p * len(disks) + q, q * len(disks) + p]))
    heads = np.flatnonzero(np.diff(key // len(disks), prepend=-1)).tolist()
    to = (key % len(disks)).tolist()
    return {to_p: set(to[a:z]) for to_p, a, z in zip((key[heads] // len(disks)).tolist(), heads,
                                                     heads[1:] + [len(to)])}, "hull"


def _intervals(dx: np.ndarray, dy: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row p and each q of its candidates, given in p's frame (the
    centres less p's, and b, twice each bisector's offset: p keeps the x
    with 2 x . d <= b): the parameters [lo, hi] of the part of the bisector
    of p and q, x = (b_q d_q / |d_q|^2 + t d_q turned a quarter) / 2, where
    p and q beat every other candidate k; lo > hi if there is none."""
    lo, hi = np.empty_like(b), np.empty_like(b)
    beta = (b / (dx * dx + dy * dy).clip(1e-300)).T
    X, Y, B = dx.T, dy.T, b.T  # candidates first, rows last
    step = max(1, _PAIRS // b.shape[1] ** 2)
    for i in range(0, len(b), step):
        x, y, kb, c = (X[:, i:i + step], Y[:, i:i + step], B[:, None, i:i + step],
                       beta[:, i:i + step])
        kx, ky = x[:, None], y[:, None]  # (k, q, rows)
        cross = x * ky - y * kx
        along = c * (x * kx + y * ky)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (kb - along) / cross
        lo[i:i + step] = np.where(cross < 0, t, -np.inf).max(0).T
        hi[i:i + step] = np.where(cross > 0, t, np.inf).min(0).T
        # a parallel candidate that leaves p no point of the line
        k, q, row = np.nonzero(cross == 0)
        cut = side(kb[k, 0, row], along[k, q, row]) < 0
        hi[i + row[cut], q[cut]] = -np.inf
    return lo, hi


def _beater(a: np.ndarray, b: np.ndarray | float, c: np.ndarray,
            gain: Optional[np.ndarray] = None) -> np.ndarray:
    """For each row i, the site c[i, j] (-1 for none) with a[i, j] above
    b[i, j] by more than ``side``'s rounding and the largest ``gain`` (by
    default a - b); -1 where there is none."""
    gain = np.where((c >= 0) & (side(a, b) > 0), a - b if gain is None else gain, -np.inf)
    j = gain.argmax(1, keepdims=True)
    return np.where(np.take_along_axis(gain, j, 1)[:, 0] > -np.inf,
                    np.take_along_axis(c, j, 1)[:, 0], -1)


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
