"""The keyed boolean as it read over ``Point2`` objects before it moved
onto float tuples: the reference that ``geometry.boolean_rows``, one row at
a time, must equal exactly, piece for piece and float for float.

The code is the earlier ``boolean_chains`` with the helpers it needs, kept
as it was; only ``Disk.angle_of``, ``ConvexPolygon.edges`` and
``ConvexPolygon.contains``, which the library no longer has, are spelled as
the helpers ``_angle_of``, ``_edges`` and ``polygon_contains``.  Stitching (``_coalesce``, ``_canonical``, ``_attach_holes``) is
the library's own, unchanged.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from coveragekit.errors import InvalidChain
from coveragekit.geometry import (INWARD, OUTWARD, TWO_PI, ArcEdge, ArcPolygon,
                                  CircularArc, ConvexPolygon, Disk, Point2, Segment,
                                  _attach_holes, _canonical, _chain_signed_area,
                                  _coalesce, dist, power_distance)
from geometry_reference import polygon_contains


def _angle_of(d: Disk, p: Point2) -> float:
    return math.atan2(p.y - d.center.y, p.x - d.center.x) % TWO_PI


def _edges(region: ConvexPolygon):
    pts = region.vertices
    for i in range(len(pts)):
        yield pts[i], pts[(i + 1) % len(pts)]


def segment_circle_params(a: Point2, b: Point2, d: Disk, reach: float = -1e-14,
                          touch: float = 0.0) -> list[float]:
    """Parameters t in (-reach, 1 + reach) where line a+t(b-a) crosses the
    circle rim; the default keeps crossings inside the segment only.  A line
    whose distance from the centre is within ``touch`` of the radius is
    tangent: its one touching parameter is returned.

    The roots are taken around the foot of the perpendicular from the
    centre, so a segment that starts far from the circle loses no digits to
    cancellation in its squared length.
    """
    dx, dy = b.x - a.x, b.y - a.y
    A = dx * dx + dy * dy
    if A == 0.0:
        return []
    fx, fy = a.x - d.center.x, a.y - d.center.y
    t0 = -(fx * dx + fy * dy) / A
    px, py = fx + t0 * dx, fy + t0 * dy  # centre to foot
    h2 = d.radius * d.radius - (px * px + py * py)  # ~ 2r(r - distance)
    if touch > 0.0 and abs(h2) <= 2.0 * d.radius * touch:
        roots: tuple[float, ...] = (t0,)
    elif h2 > 0.0:
        s = math.sqrt(h2 / A)
        roots = (t0 - s, t0 + s)
    else:
        return []
    return [t for t in roots if -reach < t < 1.0 + reach]


def circle_circle_points(d1: Disk, d2: Disk, touch: float = 0.0) -> list[Point2]:
    """Proper intersection points of two circle rims.  Tangency yields none,
    unless ``touch`` is positive: rims within ``touch`` of tangency, crossing
    or not, then yield their one touching point."""
    dx = d2.center.x - d1.center.x
    dy = d2.center.y - d1.center.y
    d = math.hypot(dx, dy)
    if d == 0.0:
        return []
    r1, r2 = d1.radius, d2.radius
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a  # ~ -2 r1 times the gap between the rims
    mx = d1.center.x + a * dx / d
    my = d1.center.y + a * dy / d
    if touch > 0.0 and abs(h2) <= 2.0 * r1 * touch:
        return [Point2(mx, my)]
    if abs(r1 - r2) < d < r1 + r2 and h2 > 0.0:
        h = math.sqrt(h2)
        ox, oy = -dy / d * h, dx / d * h
        return [Point2(mx + ox, my + oy), Point2(mx - ox, my - oy)]
    return []


# Probe angles (radians) for a circle no other curve crosses: no lattice
# favours them, and a majority of three outvotes one tangency point.
_PROBES = (1.0, 3.0, 5.0)

# ``boolean_chains`` skips work only where a point is this many eps clear of a rim.
_MARGIN = 64.0


def boolean_chains_reference(region: ConvexPolygon, include: Disk, excludes: Sequence[Disk],
                   eps: float) -> list[ArcPolygon]:
    """Closed boundary chains of (region ∩ include) \\ ∪ excludes.

    The curves are the region's edges, the include circle (traversed
    counterclockwise) and the circles of the excludes that meet the include
    disk (traversed clockwise).  Every crossing of two curves is computed
    once and keyed by the curves that make it: ``("e", i, k, j)`` for edge i
    and circle k, ``("c", k, l, j)`` for circles k < l, ``("v", i)`` for
    region vertex i; j tells the two crossings of one pair apart, and curves
    within ``eps`` of tangency have one touching crossing.  Each curve is cut
    at its crossings and a piece is boundary when its midpoint lies in the
    region, in the include disk and outside every exclude, its own curve
    aside.  A piece no longer than ``eps``, kept or not, merges its two end
    keys (union-find), so crossings that coincide along a curve become one
    node.  Chains are stitched by looking end keys up, never by comparing
    coordinates; chains of negative area are holes.

    Three shortcuts skip work whose answer is known, each only beyond a
    margin of ``_MARGIN`` eps:
    - when the include disk, or every region vertex, lies that deep in one
      exclude, so does every piece's midpoint: the result is [] at once;
    - ``keep`` tests the disks before the region, an ``and`` of pure tests;
    - a crossing of an exclude circle with another one or with an edge,
      lying that far outside the include disk, is no event, and an edge
      that stays that far outside crosses no circle.  The pieces beside
      such a crossing lie outside the include disk, between two of its
      crossings, and are rejected whether cut there or not.
    """
    if include.radius <= eps:
        return []
    verts = region.vertices
    m = len(verts)
    circles = [include] + [d for d in excludes if d.radius > eps and
                           dist(d.center, include.center) < d.radius + include.radius]
    margin = _MARGIN * eps
    for d in circles[1:]:
        deep = d.radius - margin
        if (dist(include.center, d.center) + include.radius < deep
                or all(dist(v, d.center) < deep for v in verts)):
            return []
    reach_out = include.radius + margin

    def keep(p: Point2, on: Optional[int]) -> bool:
        # ``on`` is the circle the point lies on, None for a region edge.
        # Rim points are outside the include disk, as in ``Disk.contains``,
        # and outside every exclude.  Cheapest test first.
        return ((on == 0 or power_distance(p, include) < 0.0)
                and all(power_distance(p, circles[l]) >= 0.0
                        for l in range(1, len(circles)) if l != on)
                and (on is None or polygon_contains(region, p)))

    edge_events = [[(0.0, ("v", i)), (1.0, ("v", (i + 1) % m))] for i in range(m)]
    circle_events: list[list] = [[] for _ in circles]
    for i, (a, b) in enumerate(_edges(region)):
        reach = eps / max(dist(a, b), eps)  # a crossing at a vertex counts on both edges
        near = dist(_lerp(a, b, _foot(a, b, include.center)), include.center) <= reach_out
        for k, d in enumerate(circles if near else ()):
            for j, t in enumerate(segment_circle_params(a, b, d, reach, eps)):
                t = min(max(t, 0.0), 1.0)
                p = _lerp(a, b, t)
                if k and dist(p, include.center) > reach_out:
                    continue
                edge_events[i].append((t, ("e", i, k, j)))
                circle_events[k].append((_angle_of(d, p), ("e", i, k, j)))
    for k in range(len(circles)):
        for l in range(k + 1, len(circles)):
            for j, p in enumerate(circle_circle_points(circles[k], circles[l], eps)):
                if k and dist(p, include.center) > reach_out:
                    continue
                circle_events[k].append((_angle_of(circles[k], p), ("c", k, l, j)))
                circle_events[l].append((_angle_of(circles[l], p), ("c", k, l, j)))

    root: dict[tuple, tuple] = {}

    def find(key: tuple) -> tuple:
        while key in root:
            key = root[key]
        return key

    def contract(k0: tuple, k1: tuple) -> None:
        k0, k1 = find(k0), find(k1)
        if k0 != k1:
            root[k0] = k1

    # (edge, curve, start key, end key); curves are edges 0..m-1, circles m+k
    pieces: list[tuple[ArcEdge, int, tuple, tuple]] = []
    chains: list[list[tuple[ArcEdge, int, bool]]] = []
    for i, (a, b) in enumerate(_edges(region)):
        events = sorted(edge_events[i])
        length = dist(a, b)
        for (t0, k0), (t1, k1) in zip(events, events[1:]):
            if (t1 - t0) * length <= eps:
                contract(k0, k1)
            elif keep(_lerp(a, b, 0.5 * (t0 + t1)), None):
                pieces.append((Segment(_lerp(a, b, t0), _lerp(a, b, t1)), i, k0, k1))
    for k, d in enumerate(circles):
        orient = OUTWARD if k == 0 else INWARD
        events = sorted(circle_events[k])
        if not events:
            if sum(keep(d.point_at(a), k) for a in _PROBES) >= 2:
                chains.append([(CircularArc(d, 0.0, 0.0, orient), m + k, True)])
            continue
        for n, (a0, k0) in enumerate(events):
            a1, k1 = events[(n + 1) % len(events)]
            # the last piece wraps past angle 0 (the whole circle if every
            # event is at one angle)
            extent = a1 - a0 if n + 1 < len(events) else a1 + TWO_PI - a0
            if extent * d.radius <= eps:
                contract(k0, k1)
            elif keep(d.point_at(a0 + 0.5 * extent), k):
                if k == 0:
                    pieces.append((CircularArc(d, a0, a1, OUTWARD), m, k0, k1))
                else:
                    pieces.append((CircularArc(d, a1, a0, INWARD), m + k, k1, k0))

    leaving: dict[tuple, list[int]] = {}
    for n in reversed(range(len(pieces))):
        leaving.setdefault(find(pieces[n][2]), []).append(n)
    # a piece may join the one before it only through a node it alone leaves
    alone = [len(leaving[find(start)]) == 1 for _, _, start, _ in pieces]
    used = [False] * len(pieces)
    for n, (edge, curve, start, end) in enumerate(pieces):
        if used[n]:
            continue
        used[n] = True
        chain = [(edge, curve, alone[n])]
        head, node = find(start), find(end)
        while node != head:
            out = leaving.get(node, [])
            while out and used[out[-1]]:
                out.pop()
            if not out:
                raise InvalidChain(f"no boundary piece leaves crossing {node}")
            nxt = out.pop()
            used[nxt] = True
            chain.append((*pieces[nxt][:2], alone[nxt]))
            node = find(pieces[nxt][3])
        chains.append(chain)

    outers: list[ArcPolygon] = []
    holes: list[ArcPolygon] = []
    for chain in chains:
        edges = tuple(_canonical(_coalesce(chain)))
        (outers if _chain_signed_area(edges) >= 0.0 else holes).append(ArcPolygon(edges))
    return _attach_holes(outers, holes) if holes else outers


def _foot(a: Point2, b: Point2, c: Point2) -> float:
    """Parameter of the point of segment ab nearest to ``c``."""
    dx, dy = b.x - a.x, b.y - a.y
    l2 = dx * dx + dy * dy
    return 0.0 if l2 == 0.0 else min(max(((c.x - a.x) * dx + (c.y - a.y) * dy) / l2, 0.0), 1.0)


def _lerp(a: Point2, b: Point2, t: float) -> Point2:
    if t == 0.0:
        return a
    if t == 1.0:
        return b
    return Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
