"""Helpers that left ``coveragekit.geometry``: no output of the library
depends on them, and the tests keep them as references."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from coveragekit.errors import CoverageKitError, InvalidChain
from coveragekit.geometry import (EPS_REL, OUTWARD, TWO_PI, ArcEdge, ArcPolygon, CircularArc,
                                  ConvexPolygon, Disk, Point2, Segment, _angle, _cross,
                                  bisector_line, boolean_rows, circle_circle_points,
                                  clip_coords, geom_eps, segment_circle_params)


class ConcentricDisks(CoverageKitError):
    """Two disks share a center, so no power bisector line exists."""


@dataclass(frozen=True)
class HalfPlane:
    """The closed set {p : nx*px + ny*py <= offset}."""
    nx: float
    ny: float
    offset: float

    def __post_init__(self):
        if self.nx == 0.0 and self.ny == 0.0:
            raise ValueError("half-plane normal must be nonzero")

    def value(self, p: Point2) -> float:
        """Signed excess; <= 0 inside, boundary at 0."""
        return self.nx * p.x + self.ny * p.y - self.offset


def polygon_contains(poly: ConvexPolygon, p: Point2, tol: float = 0.0) -> bool:
    """Whether ``p`` lies left of every edge of the CCW ``poly``, each
    cross product allowed down to ``-tol`` (a negative ``tol`` asks for a
    margin inside)."""
    pts = poly.vertices
    for a, b in zip(pts, pts[1:] + pts[:1]):
        if _cross(a.x, a.y, b.x, b.y, p.x, p.y) < -tol:
            return False
    return True


def polygon_area(poly: ConvexPolygon) -> float:
    """Shoelace area of the CCW ``poly``."""
    pts = poly.vertices
    return 0.5 * sum(a.x * b.y - b.x * a.y for a, b in zip(pts, pts[1:] + pts[:1]))


def polygon_diameter(poly: ConvexPolygon) -> float:
    """Diagonal of the polygon's bounding box."""
    xs = [p.x for p in poly.vertices]
    ys = [p.y for p in poly.vertices]
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


def clip_convex(poly: Optional[ConvexPolygon], h: HalfPlane) -> Optional[ConvexPolygon]:
    """Intersection of a convex polygon with a half-plane (None if empty),
    by ``clip_coords``: ``poly`` itself when no vertex is outside, and the
    uncut vertices keep their ``Point2`` objects."""
    if poly is None:
        return None
    pts = [(p.x, p.y) for p in poly.vertices]
    out = clip_coords(pts, h.nx, h.ny, h.offset)
    if out is None or out is pts:
        return None if out is None else poly
    kept = dict(zip(pts, poly.vertices))
    return ConvexPolygon(tuple(kept.get(v) or Point2(*v) for v in out))


def convex_polygon_intersection(a: Optional[ConvexPolygon],
                                b: Optional[ConvexPolygon]) -> Optional[ConvexPolygon]:
    """Intersection of two convex polygons (None if empty).

    Implemented by clipping ``a`` against each edge half-plane of ``b``.
    """
    if a is None or b is None:
        return None
    out = a
    for p, q in zip(b.vertices, b.vertices[1:] + b.vertices[:1]):
        # Inward normal of CCW edge (p -> q) points left; inside is left side.
        nx, ny = q.y - p.y, -(q.x - p.x)
        out = clip_convex(out, HalfPlane(nx, ny, nx * p.x + ny * p.y))
        if out is None:
            return None
    return out


def boolean_chains(region: ConvexPolygon, include: Disk, excludes: Sequence[Disk],
                   eps: float) -> list[ArcPolygon]:
    """The ``boolean_rows`` of one row."""
    return boolean_rows([region], [include], [excludes], eps).chains[0]


def signed_distance(x: Point2, d: Disk) -> float:
    """Distance to the disk center minus the radius: negative strictly inside."""
    return dist(x, d.center) - d.radius


def power_bisector(d1: Disk, d2: Disk, eps: float = 0.0) -> HalfPlane:
    """Half-plane {x : power_distance(x, d1) <= power_distance(x, d2)}.

    The quadratic terms cancel, so the boundary locus is always a straight
    line.  Raises ConcentricDisks when the centers coincide.
    """
    nx, ny, off = bisector_line(d1.xyr, d2.xyr)
    if math.hypot(nx, ny) <= 2.0 * eps:
        raise ConcentricDisks(f"disks centered at {d1.center} and {d2.center} "
                              f"have no bisector line")
    return HalfPlane(nx, ny, off)


def region_disk_boolean(region: ConvexPolygon, include: Disk,
                        exclude: Disk) -> list[ArcPolygon]:
    """Disjoint arc polygons covering (region ∩ include) \\ exclude.

    Each boundary edge is a polygon-edge fragment, an outward arc of
    ``include``, or an inward arc of ``exclude``.  When ``exclude`` sits
    strictly inside the intersection the region is split along a chord rather
    than emitting an annulus.
    """
    scale = max(polygon_diameter(region), include.radius + exclude.radius,
                abs(include.center.x), abs(include.center.y))
    eps = geom_eps(scale)
    out = boolean_chains(region, include, [exclude], eps)
    if any(ap.holes for ap in out):
        # hole: cut the region through the exclude center and redo both halves
        cy = exclude.center.y
        out = []
        for part in (clip_convex(region, HalfPlane(0.0, 1.0, cy)),
                     clip_convex(region, HalfPlane(0.0, -1.0, -cy))):
            if part is not None:
                out.extend(region_disk_boolean(part, include, exclude))
    return out


def arc_polygon_contains_ray(poly: ArcPolygon, p: Point2, eps: float) -> bool:
    """Crossing-parity containment test for the outer chain (holes ignored),
    as ``arc_polygon_contains`` read before it became a winding number.

    Rays within ``eps`` (the chain's map tolerance) of a tangency or an end
    point are retried with a nudged y to stay in general position.
    """
    for attempt in range(6):
        py = p.y + attempt * 7.3 * eps
        hits = [_ray_hits(e, p.x, py, eps) for e in poly.edges]
        if None not in hits:
            return sum(hits) % 2 == 1
    return False


def _ray_hits(e: ArcEdge, px: float, py: float, eps: float) -> Optional[int]:
    """Crossings of the ray {(x, py): x > px} with one edge; None = degenerate."""
    n = 0
    if isinstance(e, Segment):
        y0, y1 = e.start.y, e.end.y
        if abs(y0 - py) <= eps * 0.5 or abs(y1 - py) <= eps * 0.5:
            return None
        if (y0 < py) != (y1 < py):
            t = (py - y0) / (y1 - y0)
            x = e.start.x + t * (e.end.x - e.start.x)
            if x > px:
                n += 1
        return n
    d = e.supporting_disk
    dy = py - d.center.y
    if abs(abs(dy) - d.radius) <= eps * 0.5:
        return None
    if abs(dy) >= d.radius:
        return 0
    h = math.sqrt(d.radius * d.radius - dy * dy)
    ang_tol = eps / max(d.radius, eps)
    for x in (d.center.x + h, d.center.x - h):
        ang = _angle(d.xyr, x, py)
        a0, extent = angular_interval(e)
        rel = (ang - a0) % TWO_PI
        if min(rel, TWO_PI - rel) <= ang_tol or abs(extent - rel) <= ang_tol:
            return None  # crossing grazes an arc endpoint: retry nudged
        if rel < extent and x > px:
            n += 1
    return n


# --- Chain validation: the metric check of a map's chains -----------------

def dist(a: Point2, b: Point2) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def edge_length(e: ArcEdge) -> float:
    if isinstance(e, Segment):
        return dist(e.start, e.end)
    return abs(e.sweep()) * e.supporting_disk.radius


def angular_interval(arc: CircularArc) -> tuple[float, float]:
    """Geometric span as (ccw start angle, extent), independent of direction."""
    return (arc.start_angle if arc.orientation == OUTWARD else arc.end_angle), abs(arc.sweep())


def validate(ap: ArcPolygon, eps: float) -> None:
    """Raise InvalidChain unless the chain ``ap``, and each hole, is closed
    and simple at a map's ``eps``: each edge ends within ``eps`` of where
    the next starts, is longer than ``eps``, and crosses no other edge away
    from their ends."""
    if not ap.edges:
        raise InvalidChain("empty chain")
    k = len(ap.edges)  # a lone segment is open or degenerate
    for i, e in enumerate(ap.edges):
        nxt = ap.edges[(i + 1) % k]
        if dist(e.end_point, nxt.start_point) > eps:
            raise InvalidChain(
                f"edge {i} ends at {e.end_point}, edge {(i + 1) % k} starts at "
                f"{nxt.start_point}")
        if edge_length(e) <= eps:
            raise InvalidChain(f"degenerate edge {i}")
    if _chain_self_intersects(ap.edges, eps):
        raise InvalidChain("chain self-intersects")
    for h in ap.holes:
        validate(h, eps)


def _chain_self_intersects(edges: tuple[ArcEdge, ...], tol: float) -> bool:
    """Pairwise proper-crossing test between non-adjacent chain edges."""
    k = len(edges)
    for i in range(k):
        for j in range(i + 2, k - (i == 0)):  # edges k - 1 and 0 are adjacent too
            if _edges_cross(edges[i], edges[j], tol):
                return True
    return False


def _edges_cross(e1: ArcEdge, e2: ArcEdge, tol: float) -> bool:
    pts: list[Point2] = []
    if isinstance(e1, Segment) and isinstance(e2, Segment):
        p = _segment_segment_point(e1, e2)
        if p is not None:
            pts.append(p)
    elif isinstance(e1, Segment):
        pts.extend(_segment_arc_points(e1, e2))
    elif isinstance(e2, Segment):
        pts.extend(_segment_arc_points(e2, e1))
    else:
        pts.extend(_arc_arc_points(e1, e2))
    for p in pts:
        # Endpoint contacts are chain joints, not crossings.
        if (dist(p, e1.start_point) > tol and dist(p, e1.end_point) > tol
                and dist(p, e2.start_point) > tol and dist(p, e2.end_point) > tol):
            return True
    return False


def _segment_segment_point(s1: Segment, s2: Segment) -> Optional[Point2]:
    ax, ay = s1.start.x, s1.start.y
    dx1, dy1 = s1.end.x - ax, s1.end.y - ay
    bx, by = s2.start.x, s2.start.y
    dx2, dy2 = s2.end.x - bx, s2.end.y - by
    den = dx1 * dy2 - dy1 * dx2
    # parallel up to rounding: the cross product of the directions is noise
    if abs(den) <= EPS_REL * math.hypot(dx1, dy1) * math.hypot(dx2, dy2):
        return None
    t = ((bx - ax) * dy2 - (by - ay) * dx2) / den
    u = ((bx - ax) * dy1 - (by - ay) * dx1) / den
    if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
        return Point2(ax + t * dx1, ay + t * dy1)
    return None


def _segment_arc_points(seg: Segment, arc: CircularArc) -> list[Point2]:
    out = []
    a, b = seg.start, seg.end
    t0, s, n = segment_circle_params(a.x, a.y, b.x, b.y, *arc.supporting_disk.xyr)
    for t in (t0 - s, t0 + s)[:n]:  # proper crossings inside the segment
        if 1e-14 < t < 1.0 - 1e-14:
            p = Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
            if _angle_on_arc(arc, _angle(arc.supporting_disk.xyr, p.x, p.y)):
                out.append(p)
    return out


def _arc_arc_points(a1: CircularArc, a2: CircularArc) -> list[Point2]:
    (x1, y1, r1), (x2, y2, r2) = c1, c2 = a1.supporting_disk.xyr, a2.supporting_disk.xyr
    d = math.hypot(x2 - x1, y2 - y1)
    if d == 0.0:
        return []
    mx, my, ox, oy, n = circle_circle_points(x1, y1, r1, x2, y2, r2, d)
    return [Point2(x, y) for x, y in ((mx + ox, my + oy), (mx - ox, my - oy))[:n]
            if _angle_on_arc(a1, _angle(c1, x, y)) and _angle_on_arc(a2, _angle(c2, x, y))]


def _angle_on_arc(arc: CircularArc, angle: float) -> bool:
    a0, extent = angular_interval(arc)
    return (angle - a0) % TWO_PI <= extent
