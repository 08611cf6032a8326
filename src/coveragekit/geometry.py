"""2-D geometric primitives: points, disks, distance measures, bisectors,
convex clipping, and the restricted circular-arc polygon boolean
``(convex region ∩ disk) \\ disk`` that coverage computation is built on.

All types are immutable values and all operations are pure functions, so
everything here is safe to call concurrently.

Numerical policy: a single relative tolerance ``EPS_REL`` scaled by the scene
diameter governs point coincidence, chain stitching, and degenerate-piece
removal.  Tangencies (single-point contacts) are treated as non-intersections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .errors import ConcentricDisks, InvalidChain

TWO_PI = 2.0 * math.pi

# Relative tolerance: absolute epsilons are EPS_REL * scene scale.
EPS_REL = 1e-9


def geom_eps(scale: float) -> float:
    """Absolute coincidence tolerance for a scene of the given diameter."""
    return EPS_REL * max(scale, 1.0)


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y


def dist(a: Point2, b: Point2) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class Disk:
    center: Point2
    radius: float

    def __post_init__(self):
        if not (self.radius >= 0.0) or not math.isfinite(self.radius):
            raise ValueError(f"disk radius must be finite and >= 0, got {self.radius}")

    def point_at(self, angle: float) -> Point2:
        return Point2(self.center.x + self.radius * math.cos(angle),
                      self.center.y + self.radius * math.sin(angle))

    def angle_of(self, p: Point2) -> float:
        return math.atan2(p.y - self.center.y, p.x - self.center.x) % TWO_PI

    def contains(self, p: Point2) -> bool:
        """Strict interior test (rim points are outside; open-set semantics)."""
        return dist(p, self.center) < self.radius


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


def signed_distance(x: Point2, d: Disk) -> float:
    """Euclidean distance to the disk center minus the radius.

    Negative exactly when ``x`` lies strictly inside the disk.
    """
    return dist(x, d.center) - d.radius


def power_distance(x: Point2, d: Disk) -> float:
    """Squared center distance minus squared radius.

    Negative inside the disk; for outside points this equals the squared
    length of the tangent from ``x`` to the disk rim.
    """
    dx = x.x - d.center.x
    dy = x.y - d.center.y
    return dx * dx + dy * dy - d.radius * d.radius


def power_bisector(d1: Disk, d2: Disk, eps: float = 0.0) -> HalfPlane:
    """Half-plane {x : power_distance(x, d1) <= power_distance(x, d2)}.

    The quadratic terms cancel, so the boundary locus is always a straight
    line.  Raises ConcentricDisks when the centers coincide.
    """
    c1, c2 = d1.center, d2.center
    nx = 2.0 * (c2.x - c1.x)
    ny = 2.0 * (c2.y - c1.y)
    if math.hypot(nx, ny) <= 2.0 * eps:
        raise ConcentricDisks(f"disks centered at {c1} and {c2} have no bisector line")
    off = (c2.x * c2.x + c2.y * c2.y) - (c1.x * c1.x + c1.y * c1.y) \
        - d2.radius * d2.radius + d1.radius * d1.radius
    return HalfPlane(nx, ny, off)


# ---------------------------------------------------------------------------
# Convex polygons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexPolygon:
    """Counterclockwise simple convex polygon."""
    vertices: tuple[Point2, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("convex polygon needs at least 3 vertices")

    def area(self) -> float:
        s = 0.0
        pts = self.vertices
        for i in range(len(pts)):
            a, b = pts[i], pts[(i + 1) % len(pts)]
            s += a.x * b.y - b.x * a.y
        return 0.5 * s

    def centroid(self) -> Point2:
        xs = sum(p.x for p in self.vertices) / len(self.vertices)
        ys = sum(p.y for p in self.vertices) / len(self.vertices)
        return Point2(xs, ys)

    def contains(self, p: Point2, tol: float = 0.0) -> bool:
        pts = self.vertices
        for i in range(len(pts)):
            a, b = pts[i], pts[(i + 1) % len(pts)]
            # CCW edge: inside is to the left.
            cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
            if cross < -tol:
                return False
        return True

    def edges(self) -> Iterable[tuple[Point2, Point2]]:
        pts = self.vertices
        for i in range(len(pts)):
            yield pts[i], pts[(i + 1) % len(pts)]

    def diameter(self) -> float:
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


@dataclass(frozen=True)
class Rect:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("rectangle must have positive extent")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def area(self) -> float:
        return self.width * self.height

    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    def center(self) -> Point2:
        return Point2(0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))

    def contains(self, p: Point2, tol: float = 0.0) -> bool:
        return (self.x0 - tol <= p.x <= self.x1 + tol
                and self.y0 - tol <= p.y <= self.y1 + tol)

    def to_polygon(self) -> ConvexPolygon:
        return ConvexPolygon((Point2(self.x0, self.y0), Point2(self.x1, self.y0),
                              Point2(self.x1, self.y1), Point2(self.x0, self.y1)))


def clip_convex(poly: Optional[ConvexPolygon], h: HalfPlane,
                eps: float = 0.0) -> Optional[ConvexPolygon]:
    """Intersection of a convex polygon with a half-plane (None if empty).

    Sutherland-Hodgman against a single clip line; output vertices stay in
    CCW order.  Results of zero area collapse to None.
    """
    if poly is None:
        return None
    pts = poly.vertices
    vals = [h.value(p) for p in pts]
    if all(v <= eps for v in vals):
        return poly
    out: list[Point2] = []
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        va, vb = vals[i], vals[(i + 1) % n]
        if va <= 0.0:
            out.append(a)
            if vb > 0.0:
                t = va / (va - vb)
                out.append(Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
        elif vb < 0.0:
            t = va / (va - vb)
            out.append(Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    return _polygon_or_none(out, eps)


def _polygon_or_none(pts: list[Point2], eps: float) -> Optional[ConvexPolygon]:
    """Deduplicate near-coincident consecutive vertices; None for degenerate."""
    if len(pts) < 3:
        return None
    scale = max(max(abs(p.x), abs(p.y)) for p in pts)
    tol = geom_eps(scale) if eps == 0.0 else eps
    cleaned: list[Point2] = []
    for p in pts:
        if not cleaned or dist(cleaned[-1], p) > tol:
            cleaned.append(p)
    if len(cleaned) >= 2 and dist(cleaned[0], cleaned[-1]) <= tol:
        cleaned.pop()
    if len(cleaned) < 3:
        return None
    poly = ConvexPolygon(tuple(cleaned))
    if poly.area() <= tol * tol:
        return None
    return poly


def convex_polygon_intersection(a: Optional[ConvexPolygon],
                                b: Optional[ConvexPolygon]) -> Optional[ConvexPolygon]:
    """Intersection of two convex polygons (None if empty).

    Implemented by clipping ``a`` against each edge half-plane of ``b``.
    """
    if a is None or b is None:
        return None
    out = a
    for p, q in b.edges():
        # Inward normal of CCW edge (p -> q) points left; inside is left side.
        nx, ny = q.y - p.y, -(q.x - p.x)
        out = clip_convex(out, HalfPlane(nx, ny, nx * p.x + ny * p.y))
        if out is None:
            return None
    return out


# ---------------------------------------------------------------------------
# Arcs, segments, chains
# ---------------------------------------------------------------------------

OUTWARD = "outward"   # region lies inside the supporting disk; CCW traversal
INWARD = "inward"     # region lies outside the supporting disk; CW traversal


@dataclass(frozen=True)
class CircularArc:
    """Directed arc on the rim of ``supporting_disk``.

    Traversal runs from ``start_angle`` to ``end_angle``: counterclockwise for
    outward arcs, clockwise for inward arcs, so that the bounded region is
    always to the left of the traversal.  ``start_angle == end_angle`` denotes
    a full circle; zero-length arcs are forbidden.
    """
    supporting_disk: Disk
    start_angle: float
    end_angle: float
    orientation: str = OUTWARD

    def __post_init__(self):
        if self.orientation not in (OUTWARD, INWARD):
            raise ValueError(f"bad orientation {self.orientation!r}")
        object.__setattr__(self, "start_angle", self.start_angle % TWO_PI)
        object.__setattr__(self, "end_angle", self.end_angle % TWO_PI)

    @property
    def start_point(self) -> Point2:
        return self.supporting_disk.point_at(self.start_angle)

    @property
    def end_point(self) -> Point2:
        return self.supporting_disk.point_at(self.end_angle)

    def sweep(self) -> float:
        """Signed traversal sweep: positive CCW (outward), negative CW (inward)."""
        if self.orientation == OUTWARD:
            s = (self.end_angle - self.start_angle) % TWO_PI
            return TWO_PI if s == 0.0 else s
        s = (self.start_angle - self.end_angle) % TWO_PI
        return -TWO_PI if s == 0.0 else -s

    def angular_interval(self) -> tuple[float, float]:
        """Geometric span as (ccw start angle, extent), independent of direction."""
        if self.orientation == OUTWARD:
            return self.start_angle, abs(self.sweep())
        return self.end_angle, abs(self.sweep())

    def length(self) -> float:
        return abs(self.sweep()) * self.supporting_disk.radius


@dataclass(frozen=True)
class Segment:
    start: Point2
    end: Point2

    @property
    def start_point(self) -> Point2:
        return self.start

    @property
    def end_point(self) -> Point2:
        return self.end

    def length(self) -> float:
        return dist(self.start, self.end)


ArcEdge = Union[CircularArc, Segment]


@dataclass(frozen=True)
class ArcPolygon:
    """Closed chain of arcs and straight segments bounding one region.

    Edges are traversed counterclockwise (positive enclosed area).  ``holes``
    holds inner boundary chains traversed clockwise (negative signed area);
    they arise only when an interference disk sits strictly inside a covered
    region.
    """
    edges: tuple[ArcEdge, ...]
    holes: tuple["ArcPolygon", ...] = field(default=())

    def validate(self, eps: Optional[float] = None) -> None:
        """Raise InvalidChain for open, degenerate or self-intersecting chains."""
        if not self.edges:
            raise InvalidChain("empty chain")
        scale = self._scale()
        tol = geom_eps(scale) * 64.0 if eps is None else eps
        k = len(self.edges)
        if k == 1 and isinstance(self.edges[0], Segment):
            raise InvalidChain("single straight segment cannot close")
        for i, e in enumerate(self.edges):
            nxt = self.edges[(i + 1) % k]
            if dist(e.end_point, nxt.start_point) > tol:
                raise InvalidChain(
                    f"edge {i} ends at {e.end_point}, edge {(i + 1) % k} starts at "
                    f"{nxt.start_point}")
            if e.length() <= geom_eps(scale):
                raise InvalidChain(f"degenerate edge {i}")
        if _chain_self_intersects(self.edges, tol):
            raise InvalidChain("chain self-intersects")
        for h in self.holes:
            h.validate(eps)

    def signed_area(self) -> float:
        return _chain_signed_area(self.edges)

    def _scale(self) -> float:
        best = 1.0
        for e in self.edges:
            p = e.start_point
            best = max(best, abs(p.x), abs(p.y))
            if isinstance(e, CircularArc):
                best = max(best, e.supporting_disk.radius)
        return best


def _chain_signed_area(edges: tuple[ArcEdge, ...]) -> float:
    """Green's theorem over segments and circular arcs."""
    s = 0.0
    for e in edges:
        if isinstance(e, Segment):
            a, b = e.start, e.end
            s += 0.5 * (a.x * b.y - b.x * a.y)
        else:
            c = e.supporting_disk.center
            r = e.supporting_disk.radius
            a0 = e.start_angle
            sweep = e.sweep()
            a1 = a0 + sweep
            s += 0.5 * (r * r * sweep
                        + c.x * r * (math.sin(a1) - math.sin(a0))
                        - c.y * r * (math.cos(a1) - math.cos(a0)))
    return s


def arc_polygon_area(p: ArcPolygon) -> float:
    """Enclosed area of a validated chain; holes subtract.

    Raises InvalidChain for open or self-intersecting input and for chains
    whose net signed area is negative (wrong orientation).
    """
    p.validate()
    outer = p.signed_area()
    total = outer + sum(h.signed_area() for h in p.holes)
    tol = geom_eps(p._scale()) ** 0.5  # generous: area tolerance
    if total < -tol:
        raise InvalidChain(f"negative enclosed area {total}")
    return max(total, 0.0)


def _chain_self_intersects(edges: tuple[ArcEdge, ...], tol: float) -> bool:
    """Pairwise proper-crossing test between non-adjacent chain edges."""
    k = len(edges)
    if k <= 2:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            if j == i or (j == (i + 1) % k) or (i == (j + 1) % k):
                continue
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
    if den == 0.0:
        return None
    t = ((bx - ax) * dy2 - (by - ay) * dx2) / den
    u = ((bx - ax) * dy1 - (by - ay) * dx1) / den
    if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
        return Point2(ax + t * dx1, ay + t * dy1)
    return None


def _segment_arc_points(seg: Segment, arc: CircularArc) -> list[Point2]:
    out = []
    for t in segment_circle_params(seg.start, seg.end, arc.supporting_disk):
        p = Point2(seg.start.x + t * (seg.end.x - seg.start.x),
                   seg.start.y + t * (seg.end.y - seg.start.y))
        if _angle_on_arc(arc, arc.supporting_disk.angle_of(p)):
            out.append(p)
    return out


def _arc_arc_points(a1: CircularArc, a2: CircularArc) -> list[Point2]:
    out = []
    for p in circle_circle_points(a1.supporting_disk, a2.supporting_disk):
        if (_angle_on_arc(a1, a1.supporting_disk.angle_of(p))
                and _angle_on_arc(a2, a2.supporting_disk.angle_of(p))):
            out.append(p)
    return out


def _angle_on_arc(arc: CircularArc, angle: float) -> bool:
    a0, extent = arc.angular_interval()
    return (angle - a0) % TWO_PI <= extent


# ---------------------------------------------------------------------------
# Circle intersections
# ---------------------------------------------------------------------------

def segment_circle_params(a: Point2, b: Point2, d: Disk) -> list[float]:
    """Parameters t in (0,1) where segment a+t(b-a) crosses the circle rim.

    Stable quadratic: the root nearer cancellation is recovered from the
    product of roots (sign-aware formulation).
    """
    dx, dy = b.x - a.x, b.y - a.y
    fx, fy = a.x - d.center.x, a.y - d.center.y
    A = dx * dx + dy * dy
    if A == 0.0:
        return []
    B = 2.0 * (fx * dx + fy * dy)
    C = fx * fx + fy * fy - d.radius * d.radius
    disc = B * B - 4.0 * A * C
    if disc <= 0.0:
        return []
    sq = math.sqrt(disc)
    q = -0.5 * (B + math.copysign(sq, B)) if B != 0.0 else 0.5 * sq
    roots = []
    if q != 0.0:
        roots.append(q / A)
        roots.append(C / q)
    else:
        roots.extend([0.0, 0.0])
    lo = 1e-14
    return sorted(t for t in roots if lo < t < 1.0 - lo)


def circle_circle_points(d1: Disk, d2: Disk) -> list[Point2]:
    """Proper intersection points of two circle rims (tangency yields none)."""
    dx = d2.center.x - d1.center.x
    dy = d2.center.y - d1.center.y
    d = math.hypot(dx, dy)
    if d == 0.0:
        return []
    r1, r2 = d1.radius, d2.radius
    if d >= r1 + r2 or d <= abs(r1 - r2):
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    if h2 <= 0.0:
        return []
    h = math.sqrt(h2)
    mx = d1.center.x + a * dx / d
    my = d1.center.y + a * dy / d
    ox, oy = -dy / d * h, dx / d * h
    return [Point2(mx + ox, my + oy), Point2(mx - ox, my - oy)]


# ---------------------------------------------------------------------------
# Restricted boolean: (region ∩ include) \ exclude
# ---------------------------------------------------------------------------

def _boolean_pieces(region: ConvexPolygon, include: Disk,
                    exclude: Optional[Disk], eps: float) -> list[ArcEdge]:
    """Directed boundary pieces of (region ∩ include) \\ exclude.

    Pieces are emitted unordered; callers stitch them into closed chains.
    A full inward circle piece signals a hole (exclude strictly interior).
    """
    pieces: list[ArcEdge] = []
    exc = exclude if (exclude is not None and exclude.radius > eps) else None

    def keep(p: Point2) -> bool:
        # Edge midpoints are on the region boundary by construction, so only
        # the disk memberships decide; a region test here would be noise.
        # Rim points are outside the include disk, as in ``Disk.contains``.
        if power_distance(p, include) >= 0.0:
            return False
        return exc is None or power_distance(p, exc) >= 0.0

    # 1. polygon edges, CCW
    for a, b in region.edges():
        cuts = {0.0, 1.0}
        cuts.update(segment_circle_params(a, b, include))
        if exc is not None:
            cuts.update(segment_circle_params(a, b, exc))
        ts = sorted(cuts)
        seg_len = dist(a, b)
        for t0, t1 in zip(ts, ts[1:]):
            if (t1 - t0) * seg_len <= eps:
                continue
            tm = 0.5 * (t0 + t1)
            mid = Point2(a.x + tm * (b.x - a.x), a.y + tm * (b.y - a.y))
            if keep(mid):
                pieces.append(Segment(Point2(a.x + t0 * (b.x - a.x), a.y + t0 * (b.y - a.y)),
                                      Point2(a.x + t1 * (b.x - a.x), a.y + t1 * (b.y - a.y))))

    # 2. include circle, outward (CCW)
    if include.radius > eps:
        events = _circle_events(include, region, exc)
        pieces.extend(_circle_arcs(include, events, OUTWARD, region, exc, include, eps))

    # 3. exclude circle, inward (CW)
    if exc is not None:
        events = _circle_events(exc, region, include)
        pieces.extend(_circle_arcs(exc, events, INWARD, region, None, include, eps))
    return pieces


def _circle_events(disk: Disk, region: ConvexPolygon, other: Optional[Disk]) -> list[float]:
    angles = []
    for a, b in region.edges():
        for t in segment_circle_params(a, b, disk):
            p = Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
            angles.append(disk.angle_of(p))
    if other is not None:
        for p in circle_circle_points(disk, other):
            angles.append(disk.angle_of(p))
    return sorted(angles)


def _circle_arcs(disk: Disk, events: list[float], orientation: str,
                 region: ConvexPolygon, exclude: Optional[Disk],
                 include: Disk, eps: float) -> list[CircularArc]:
    """Arcs of ``disk`` whose midpoints satisfy the membership predicate.

    For the outward circle the predicate is in-region and not-in-exclude; for
    an inward circle it is in-region and inside ``include``.
    """
    def keep_mid(angle: float) -> bool:
        p = disk.point_at(angle)
        if not region.contains(p):
            return False
        if orientation == OUTWARD:
            return exclude is None or power_distance(p, exclude) >= 0.0
        return power_distance(p, include) < 0.0

    arcs: list[CircularArc] = []
    if not events:
        if keep_mid(0.0) and keep_mid(2.0):  # two probes guard near-tangency
            if orientation == OUTWARD:
                arcs.append(CircularArc(disk, 0.0, 0.0, OUTWARD))
            else:
                arcs.append(CircularArc(disk, 0.0, 0.0, INWARD))
        return arcs
    k = len(events)
    for i in range(k):
        a0 = events[i]
        a1 = events[(i + 1) % k]
        extent = (a1 - a0) % TWO_PI
        if i == k - 1 and extent == 0.0:
            extent = TWO_PI  # single event: remaining full sweep
        if extent * disk.radius <= eps:
            continue
        mid = (a0 + 0.5 * extent) % TWO_PI
        if keep_mid(mid):
            if orientation == OUTWARD:
                arcs.append(CircularArc(disk, a0, a1, OUTWARD))
            else:
                arcs.append(CircularArc(disk, a1, a0, INWARD))
    return arcs


def stitch_chains(pieces: list[ArcEdge], eps: float) -> list[ArcPolygon]:
    """Assemble directed pieces into closed chains (endpoint matching).

    Chains with positive signed area become outer boundaries; negative chains
    are holes and get attached to the smallest enclosing positive chain.
    """
    pieces = [p for p in pieces if p.length() > eps]
    closed: list[list[ArcEdge]] = []
    open_pieces: list[ArcEdge] = []
    for p in pieces:
        if isinstance(p, CircularArc) and abs(p.sweep()) >= TWO_PI:
            closed.append([p])
        else:
            open_pieces.append(p)

    if open_pieces:
        reps: list[Point2] = []

        def node(pt: Point2) -> int:
            for i, r in enumerate(reps):
                if dist(r, pt) <= eps * 64.0:
                    return i
            reps.append(pt)
            return len(reps) - 1

        starts = [node(p.start_point) for p in open_pieces]
        ends = [node(p.end_point) for p in open_pieces]
        by_start: dict[int, list[int]] = {}
        for i, s in enumerate(starts):
            by_start.setdefault(s, []).append(i)
        used = [False] * len(open_pieces)
        for i in range(len(open_pieces)):
            if used[i]:
                continue
            chain = [open_pieces[i]]
            used[i] = True
            head = starts[i]
            cur = ends[i]
            guard = 0
            while cur != head:
                guard += 1
                if guard > len(open_pieces) + 2:
                    raise InvalidChain("unable to close boundary chain")
                cand = [j for j in by_start.get(cur, []) if not used[j]]
                if not cand:
                    raise InvalidChain(f"dangling boundary endpoint near {reps[cur]}")
                j = cand[0]
                used[j] = True
                chain.append(open_pieces[j])
                cur = ends[j]
            closed.append(chain)

    outers: list[list[ArcEdge]] = []
    holes: list[list[ArcEdge]] = []
    for chain in closed:
        merged = _coalesce(chain, eps)
        if _chain_signed_area(tuple(merged)) >= 0.0:
            outers.append(merged)
        else:
            holes.append(merged)

    polys = [ArcPolygon(tuple(_canonical(ch))) for ch in outers]
    if holes:
        polys = _attach_holes(polys, [ArcPolygon(tuple(_canonical(h))) for h in holes], eps)
    return polys


def _coalesce(chain: list[ArcEdge], eps: float) -> list[ArcEdge]:
    """Merge adjacent arcs of the same circle and orientation."""
    if len(chain) < 2:
        return chain
    out: list[ArcEdge] = []
    for e in chain:
        if (out and isinstance(e, CircularArc) and isinstance(out[-1], CircularArc)
                and e.orientation == out[-1].orientation
                and e.supporting_disk == out[-1].supporting_disk
                and dist(out[-1].end_point, e.start_point) <= eps * 64.0):
            prev = out[-1]
            total = abs(prev.sweep()) + abs(e.sweep())
            if total >= TWO_PI - EPS_REL:
                out[-1] = CircularArc(prev.supporting_disk, prev.start_angle,
                                      prev.start_angle, prev.orientation)
            else:
                out[-1] = CircularArc(prev.supporting_disk, prev.start_angle,
                                      e.end_angle, prev.orientation)
        else:
            out.append(e)
    # wraparound merge
    if (len(out) > 1 and isinstance(out[0], CircularArc) and isinstance(out[-1], CircularArc)
            and out[0].orientation == out[-1].orientation
            and out[0].supporting_disk == out[-1].supporting_disk
            and dist(out[-1].end_point, out[0].start_point) <= eps * 64.0):
        last, first = out[-1], out[0]
        total = abs(last.sweep()) + abs(first.sweep())
        if total >= TWO_PI - EPS_REL:
            out = [CircularArc(first.supporting_disk, first.start_angle,
                               first.start_angle, first.orientation)] + out[1:-1]
        else:
            out = [CircularArc(first.supporting_disk, last.start_angle,
                               first.end_angle, first.orientation)] + out[1:-1]
    return out


def _canonical(chain: list[ArcEdge]) -> list[ArcEdge]:
    """Rotate the chain so it starts at the lexicographically smallest endpoint."""
    if len(chain) <= 1:
        return chain
    best = min(range(len(chain)),
               key=lambda i: (chain[i].start_point.x, chain[i].start_point.y))
    return chain[best:] + chain[:best]


def _attach_holes(outers: list[ArcPolygon], holes: list[ArcPolygon],
                  eps: float) -> list[ArcPolygon]:
    assigned: dict[int, list[ArcPolygon]] = {i: [] for i in range(len(outers))}
    for hole in holes:
        probe = hole.edges[0].start_point
        best = None
        best_area = math.inf
        for i, outer in enumerate(outers):
            a = outer.signed_area()
            if a < best_area and arc_polygon_contains(outer, probe, eps):
                best, best_area = i, a
        if best is None:
            raise InvalidChain("hole chain not contained in any outer chain")
        assigned[best].append(hole)
    return [ArcPolygon(outers[i].edges, tuple(assigned[i])) for i in range(len(outers))]


def arc_polygon_contains(poly: ArcPolygon, p: Point2, eps: float = 0.0) -> bool:
    """Crossing-parity containment test for the outer chain (holes ignored).

    Near-tangent rays are retried with a nudged y to stay in general position.
    """
    if eps == 0.0:
        eps = geom_eps(poly._scale())
    for attempt in range(6):
        py = p.y + attempt * 7.3 * eps
        parity = 0
        ok = True
        for e in poly.edges:
            hits = _ray_hits(e, p.x, py, eps)
            if hits is None:
                ok = False
                break
            parity ^= hits & 1
        if ok:
            return parity == 1
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
        ang = d.angle_of(Point2(x, py))
        a0, extent = e.angular_interval()
        rel = (ang - a0) % TWO_PI
        if min(rel, TWO_PI - rel) <= ang_tol or abs(extent - rel) <= ang_tol:
            return None  # crossing grazes an arc endpoint: retry nudged
        if rel < extent and x > px:
            n += 1
    return n


def region_disk_boolean(region: ConvexPolygon, include: Disk,
                        exclude: Disk) -> list[ArcPolygon]:
    """Disjoint arc polygons covering (region ∩ include) \\ exclude.

    Each boundary edge is a polygon-edge fragment, an outward arc of
    ``include``, or an inward arc of ``exclude``.  When ``exclude`` sits
    strictly inside the intersection the region is split along a chord rather
    than emitting an annulus.
    """
    scale = max(region.diameter(), include.radius + exclude.radius,
                abs(include.center.x), abs(include.center.y))
    eps = geom_eps(scale)
    # quick reject: include disk nowhere near the region
    if not _disk_touches_polygon(include, region, eps):
        return []
    pieces = _boolean_pieces(region, include, exclude, eps)
    if any(isinstance(p, CircularArc) and p.orientation == INWARD
           and abs(p.sweep()) >= TWO_PI for p in pieces):
        # hole: cut the region through the exclude center and redo both halves
        cy = exclude.center.y
        lower = clip_convex(region, HalfPlane(0.0, 1.0, cy))
        upper = clip_convex(region, HalfPlane(0.0, -1.0, -cy))
        out: list[ArcPolygon] = []
        for part in (lower, upper):
            if part is not None:
                out.extend(region_disk_boolean(part, include, exclude))
        return out
    return stitch_chains(pieces, eps)


def _disk_touches_polygon(d: Disk, poly: ConvexPolygon, eps: float) -> bool:
    if poly.contains(d.center, eps):
        return True
    pts = poly.vertices
    for i in range(len(pts)):
        a, b = pts[i], pts[(i + 1) % len(pts)]
        if _point_segment_distance(d.center, a, b) <= d.radius + eps:
            return True
    return False


def _point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    dx, dy = b.x - a.x, b.y - a.y
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return dist(p, a)
    t = max(0.0, min(1.0, ((p.x - a.x) * dx + (p.y - a.y) * dy) / L2))
    return math.hypot(p.x - (a.x + t * dx), p.y - (a.y + t * dy))
