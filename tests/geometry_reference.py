"""Helpers that left ``coveragekit.geometry``: no output of the library
depends on them, and the tests keep them as references."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from coveragekit.errors import CoverageKitError
from coveragekit.geometry import (TWO_PI, ArcEdge, ArcPolygon, ConvexPolygon, Disk, Point2,
                                  Segment, _angle, _cross, bisector_line, boolean_rows,
                                  clip_coords, dist, geom_eps)


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


def arc_polygon_contains_ray(poly: ArcPolygon, p: Point2, eps: float = 0.0) -> bool:
    """Crossing-parity containment test for the outer chain (holes ignored),
    as ``arc_polygon_contains`` read before it became a winding number.

    Near-tangent rays are retried with a nudged y to stay in general position.
    """
    if eps == 0.0:
        eps = geom_eps(poly._scale())
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
        a0, extent = e.angular_interval()
        rel = (ang - a0) % TWO_PI
        if min(rel, TWO_PI - rel) <= ang_tol or abs(extent - rel) <= ang_tol:
            return None  # crossing grazes an arc endpoint: retry nudged
        if rel < extent and x > px:
            n += 1
    return n
