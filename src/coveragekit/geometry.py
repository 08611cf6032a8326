"""2-D geometric primitives: points, disks, distance measures, bisectors,
convex clipping, and the circular-arc polygon boolean
``(convex region ∩ disk) \\ ∪ disks`` that coverage computation is built on.

All types are immutable values and all operations are pure functions, so
everything here is safe to call concurrently.

Numerical policy: cells are decided by the side test, chains by keys.  A
convex cell is cut by deciding each vertex once, with ``side``, as outside,
on or inside the cutting line (a relative rounding test); the clipper never
merges, moves or drops vertices by distance afterwards.  A single relative
tolerance ``EPS_REL`` scaled by the scene diameter (``eps``) governs the
boolean.  Two curves whose distance is within ``eps`` of tangency touch at
one point; a piece of a curve no longer than ``eps`` contracts to a point.
Chains are stitched by the names of the curves that cross at each piece end,
never by the distance between end points, so coincident crossings merge
transitively along the curves.  Chain validation treats tangencies
(single-point contacts) as non-intersections.  The boolean skips only work
whose answer is known, where a point is ``_MARGIN`` eps clear of a rim: a
margin that covers the touch rule and chains of contracted pieces.  Its
events, keys and midpoint tests are floats (circles as ``(x, y, r)``); only
kept pieces become ``Segment`` and ``CircularArc`` objects, from the same
floats, and a midpoint becomes a ``Point2`` only to ask the region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ConcentricDisks, InvalidChain

TWO_PI = 2.0 * math.pi

# Relative tolerance: absolute epsilons are EPS_REL * scene scale.
EPS_REL = 1e-9

XY = tuple[float, float]
Circle = tuple[float, float, float]  # (x, y, r): the form the hot kernels read


def geom_eps(scale: float) -> float:
    """Absolute coincidence tolerance for a scene of the given diameter."""
    return EPS_REL * max(scale, 1.0)


def side(a, b):
    """+1 if ``a`` lies above ``b``, -1 if below, 0 if they agree up to
    rounding: within 1e-12 * (1 + |a| + |b|).  The one decision every cell
    vertex gets against a cutting line or plane; on floats an int, on
    arrays the same decision elementwise (0 where either is NaN)."""
    tol = 1e-12 * (1.0 + abs(a) + abs(b))
    return (b < a - tol) * 1 - (b > a + tol) * 1


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
    xyr: Circle = field(init=False, repr=False, compare=False)  # read by the hot kernels

    def __post_init__(self):
        if not (self.radius >= 0.0) or not math.isfinite(self.radius):
            raise ValueError(f"disk radius must be finite and >= 0, got {self.radius}")
        object.__setattr__(self, "xyr", (self.center.x, self.center.y, self.radius))

    def point_at(self, angle: float) -> Point2:
        return Point2(self.center.x + self.radius * math.cos(angle),
                      self.center.y + self.radius * math.sin(angle))


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
    """Distance to the disk center minus the radius: negative strictly inside."""
    return dist(x, d.center) - d.radius


def power_distance(x: Point2, d: Disk) -> float:
    """Squared center distance minus squared radius: negative inside the disk,
    outside it the squared length of the tangent from ``x`` to the rim."""
    dx = x.x - d.center.x
    dy = x.y - d.center.y
    return dx * dx + dy * dy - d.radius * d.radius


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


def bisector_line(c1: Circle, c2: Circle) -> tuple[float, float, float]:
    """Coefficients ``(nx, ny, offset)`` of ``power_bisector``, unchecked;
    elementwise on arrays."""
    (x1, y1, r1), (x2, y2, r2) = c1, c2
    return (2.0 * (x2 - x1), 2.0 * (y2 - y1),
            (x2 * x2 + y2 * y2) - (x1 * x1 + y1 * y1) - r2 * r2 + r1 * r1)


# --- Convex polygons -------------------------------------------------------

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

    def contains(self, p: Point2, tol: float = 0.0) -> bool:
        pts = self.vertices
        for i in range(len(pts)):
            a, b = pts[i], pts[(i + 1) % len(pts)]
            # CCW edge: inside is to the left.
            cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
            if cross < -tol:
                return False
        return True

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


def clip_coords(pts: list, nx: float, ny: float, offset: float) -> Optional[list]:
    """Convex CCW vertices ``pts``, (x, y) tuples, clipped to nx*x + ny*y <= offset.

    Each vertex is decided once, by ``side``, as outside, on or inside the
    clip line, in the pass that builds the output.  With none outside ``pts``
    itself is returned, with none inside None.  Otherwise the inside and on
    vertices are kept (the same tuples), in CCW order, and a new vertex is
    made only on an edge that runs strictly from inside to outside or back.
    Nothing is merged or dropped afterwards.  When no value nx*x + ny*y
    exceeds ``offset``, ``pts`` is returned before any ``side`` call, and
    exactly so: for a <= b, fl(a - tol) <= a <= b, so ``side(a, b)`` is not +1.
    The kernel for one polygon (``clip_convex``, and cells that stop at their
    first empty cut); ``clip_rows`` cuts whole diagrams with its arithmetic.
    """
    vals = [nx * x + ny * y for x, y in pts]
    if max(vals) <= offset:
        return pts
    out, sides = [], []
    n = len(pts)
    sj = side(vals[0], offset)
    for i in range(n):
        si = sj
        sides.append(si)
        j = (i + 1) % n
        sj = side(vals[j], offset) if j else sides[0]
        if si <= 0:
            out.append(pts[i])
        if si * sj < 0:
            (ax, ay), (bx, by) = pts[i], pts[j]
            va, vb = vals[i] - offset, vals[j] - offset
            t = va / (va - vb)
            out.append((ax + t * (bx - ax), ay + t * (by - ay)))
    if 1 not in sides:
        return pts
    return out if -1 in sides else None


def padded(rows: Sequence[Sequence], fill) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` left-aligned in one array, ``fill`` after each; and their lengths."""
    sizes = np.array([len(r) for r in rows], dtype=int)
    flat = np.array([v for r in rows for v in r])
    out = np.full((len(rows), sizes.max(initial=0)) + flat.shape[1:], fill)
    out[np.arange(out.shape[1]) < sizes[:, None]] = flat
    return out, sizes


class ClippedRows(NamedTuple):
    """``clip_rows``' output: each row's vertices, row after row."""
    xy: np.ndarray  # (vertices, 2)
    sizes: np.ndarray  # vertices per row, 0 for an empty row
    cuts: int  # cuts applied to non-empty rows
    unchanged: int  # of those, the cuts that left the row as it was


_CHUNK = 512  # rows per pass of ``clip_rows``: bounds its working arrays


def clip_rows(polys: Sequence[ConvexPolygon], circles: np.ndarray, poly: np.ndarray,
              own: np.ndarray, cuts: np.ndarray, eps: float) -> ClippedRows:
    """Row r is ``polys[poly[r]]`` cut in turn by ``bisector_line(circles[own[r]],
    circles[k])`` for each k in ``cuts[r]`` up to its first -1: bit for bit
    chained ``clip_coords`` (the same values, ``side`` decisions, exits and
    new vertices), with one numpy step per cut for every row of a diagram.
    Centres within ``eps`` have no line: the larger circle skips the cut,
    else the row empties.  Rows run in chunks, longest cut list first, so
    the rows still cutting are a prefix, trimmed to its longest row."""
    px, pn = padded([[v.x for v in p.vertices] for p in polys], 0.0)
    pxy = np.stack([px, padded([[v.y for v in p.vertices] for p in polys], 0.0)[0]], 2)
    ncut = (cuts >= 0).sum(1)
    out, sizes, made, unchanged = [np.zeros((0, 2))], [np.zeros(0, int)], 0, 0
    for lo in range(0, len(own), _CHUNK):
        order = lo + np.argsort(-ncut[lo:lo + _CHUNK], kind="stable")
        xy, n = pxy[poly[order]], pn[poly[order]]
        c1, c2 = circles[own[order]].T[:, None], circles[cuts[order]].T  # (3, 1 or C, rows)
        lines = np.array(bisector_line(c1, c2))
        dx, dy = c1[0] - c2[0], c1[1] - c2[1]
        for s, i in zip(*np.nonzero((abs(dx) <= eps) & (abs(dy) <= eps))):
            if math.hypot(dx[s, i], dy[s, i]) <= eps:  # no line: the larger keeps all
                lines[:, s, i] = 0.0, 0.0, (1.0 if c1[2, 0, i] > c2[2, s, i] else -1.0)
        for s in range(ncut[order[0]]):
            k = np.count_nonzero(ncut[order] > s)
            nx, ny, off = lines[:, s, :k]
            w = n[:k].max()
            col = np.arange(w)
            vals = nx[:, None] * xy[:k, :w, 0] + ny[:, None] * xy[:k, :w, 1]
            sides = side(vals, off[:, None]) * (col < n[:k, None])
            above, below = (sides > 0).any(1), (sides < 0).any(1)
            made += np.count_nonzero(n[:k])
            unchanged += np.count_nonzero(n[:k] * ~above)
            n[:k][above & ~below] = 0
            r = np.flatnonzero(above & below)
            sr, vr, xr, m = sides[r], vals[r], xy[r, :w], n[r]
            nxt = np.where(col + 1 < m[:, None], col + 1, 0)
            keep = (sr <= 0) & (col < m[:, None])
            cross = sr * np.take_along_axis(sr, nxt, 1) < 0
            cnt = keep * 1 + cross
            end = np.cumsum(cnt, 1)
            n[r] = cnt.sum(1)
            if n[:k].max() > xy.shape[1]:
                xy = np.concatenate([xy, np.zeros((len(xy), n[:k].max() - xy.shape[1], 2))], 1)
            a, i = np.nonzero(keep)
            xy[r[a], end[a, i] - cnt[a, i]] = xr[a, i]
            a, i = np.nonzero(cross)
            j = nxt[a, i]
            va, vb = vr[a, i] - off[r[a]], vr[a, j] - off[r[a]]
            t = (va / (va - vb))[:, None]
            xy[r[a], end[a, i] - 1] = xr[a, i] + t * (xr[a, j] - xr[a, i])
        back = np.argsort(order)
        out.append(xy[back][np.arange(xy.shape[1]) < n[back, None]])
        sizes.append(n[back])
    return ClippedRows(np.concatenate(out), np.concatenate(sizes), int(made), int(unchanged))


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


# --- Arcs, segments, chains ------------------------------------------------

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
    for t in segment_circle_params((a.x, a.y), (b.x, b.y), arc.supporting_disk.xyr):
        p = Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        if _angle_on_arc(arc, _angle(arc.supporting_disk.xyr, p.x, p.y)):
            out.append(p)
    return out


def _arc_arc_points(a1: CircularArc, a2: CircularArc) -> list[Point2]:
    out = []
    c1, c2 = a1.supporting_disk.xyr, a2.supporting_disk.xyr
    for x, y in circle_circle_points(c1, c2):
        if _angle_on_arc(a1, _angle(c1, x, y)) and _angle_on_arc(a2, _angle(c2, x, y)):
            out.append(Point2(x, y))
    return out


def _angle_on_arc(arc: CircularArc, angle: float) -> bool:
    a0, extent = arc.angular_interval()
    return (angle - a0) % TWO_PI <= extent


# --- Circle intersections --------------------------------------------------

def segment_circle_params(a: XY, b: XY, c: Circle, reach: float = -1e-14,
                          touch: float = 0.0) -> list[float]:
    """Parameters t in (-reach, 1 + reach) where line a+t(b-a) crosses the
    rim of circle c; the default keeps crossings inside the segment only.  A
    line whose distance from the centre is within ``touch`` of the radius is
    tangent: its one touching parameter is returned.  The roots are taken
    around the foot of the perpendicular from the centre, so a segment that
    starts far from the circle loses no digits to cancellation in its
    squared length."""
    (ax, ay), (bx, by), (cx, cy, r) = a, b, c
    dx, dy = bx - ax, by - ay
    A = dx * dx + dy * dy
    if A == 0.0:
        return []
    fx, fy = ax - cx, ay - cy
    t0 = -(fx * dx + fy * dy) / A
    px, py = fx + t0 * dx, fy + t0 * dy  # centre to foot
    h2 = r * r - (px * px + py * py)  # ~ 2r(r - distance)
    if touch > 0.0 and abs(h2) <= 2.0 * r * touch:
        roots: tuple[float, ...] = (t0,)
    elif h2 > 0.0:
        s = math.sqrt(h2 / A)
        roots = (t0 - s, t0 + s)
    else:
        return []
    return [t for t in roots if -reach < t < 1.0 + reach]


def circle_circle_points(c1: Circle, c2: Circle, touch: float = 0.0) -> list[XY]:
    """Proper intersection points of two circle rims.  Tangency yields none,
    unless ``touch`` is positive: rims within ``touch`` of tangency, crossing
    or not, then yield their one touching point."""
    (x1, y1, r1), (x2, y2, r2) = c1, c2
    dx, dy = x2 - x1, y2 - y1
    d = math.hypot(dx, dy)
    if d == 0.0:
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a  # ~ -2 r1 times the gap between the rims
    mx = x1 + a * dx / d
    my = y1 + a * dy / d
    if touch > 0.0 and abs(h2) <= 2.0 * r1 * touch:
        return [(mx, my)]
    if abs(r1 - r2) < d < r1 + r2 and h2 > 0.0:
        h = math.sqrt(h2)
        ox, oy = -dy / d * h, dx / d * h
        return [(mx + ox, my + oy), (mx - ox, my - oy)]
    return []


# --- Keyed boolean: (region ∩ include) \ ∪ excludes ------------------------

# Probe angles (radians) for a circle no other curve crosses: no lattice
# favours them, and a majority of three outvotes one tangency point.
_PROBES = (1.0, 3.0, 5.0)

# ``boolean_chains`` skips work only where a point is this many eps clear of a rim.
_MARGIN = 64.0


def boolean_chains(region: ConvexPolygon, include: Disk, excludes: Sequence[Disk],
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
    - ``keep`` tests the disks before the region, all of them pure tests;
    - a crossing of an exclude circle with another one or with an edge,
      lying that far outside the include disk, is no event, and an edge
      that stays that far outside crosses no circle.  The pieces beside
      such a crossing lie outside the include disk, between two of its
      crossings, and are rejected whether cut there or not.
    """
    if include.radius <= eps:
        return []
    verts = [(v.x, v.y) for v in region.vertices]
    m = len(verts)
    ix, iy, ir = include.xyr
    circles = [include] + [d for d in excludes if d.radius > eps and
                           math.hypot(d.center.x - ix, d.center.y - iy) < d.radius + ir]
    xyr = [d.xyr for d in circles]
    margin = _MARGIN * eps
    for cx, cy, r in xyr[1:]:
        deep = r - margin
        if (math.hypot(ix - cx, iy - cy) + ir < deep
                or all(math.hypot(x - cx, y - cy) < deep for x, y in verts)):
            return []
    reach_out = ir + margin
    # the excludes a point on circle k must lie outside; [0] also serves edges
    others = [xyr[1:]] + [xyr[1:k] + xyr[k + 1:] for k in range(1, len(xyr))]

    def keep(x: float, y: float, on: Optional[int]) -> bool:
        # ``on`` is the circle the point lies on, None for a region edge.  Rim
        # points are outside every disk, by ``power_distance``'s arithmetic.
        # Cheapest test first: the region, with a ``Point2``, goes last.
        if on != 0:
            dx, dy = x - ix, y - iy
            if not dx * dx + dy * dy - ir * ir < 0.0:
                return False
        for cx, cy, r in others[on or 0]:
            dx, dy = x - cx, y - cy
            if not dx * dx + dy * dy - r * r >= 0.0:
                return False
        return on is None or region.contains(Point2(x, y))

    edge_events = [[(0.0, ("v", i)), (1.0, ("v", (i + 1) % m))] for i in range(m)]
    circle_events: list[list] = [[] for _ in circles]
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        # a crossing at a vertex counts on both edges
        reach = eps / max(math.hypot(a[0] - b[0], a[1] - b[1]), eps)
        fx, fy = _lerp(a, b, _foot(a, b, ix, iy))
        near = math.hypot(fx - ix, fy - iy) <= reach_out
        for k, c in enumerate(xyr if near else ()):
            for j, t in enumerate(segment_circle_params(a, b, c, reach, eps)):
                t = min(max(t, 0.0), 1.0)
                px, py = _lerp(a, b, t)
                if k and math.hypot(px - ix, py - iy) > reach_out:
                    continue
                edge_events[i].append((t, ("e", i, k, j)))
                circle_events[k].append((_angle(c, px, py), ("e", i, k, j)))
    for k in range(len(circles)):
        for l in range(k + 1, len(circles)):
            for j, (px, py) in enumerate(circle_circle_points(xyr[k], xyr[l], eps)):
                if k and math.hypot(px - ix, py - iy) > reach_out:
                    continue
                circle_events[k].append((_angle(xyr[k], px, py), ("c", k, l, j)))
                circle_events[l].append((_angle(xyr[l], px, py), ("c", k, l, j)))

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
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        events = sorted(edge_events[i])
        length = math.hypot(a[0] - b[0], a[1] - b[1])
        for (t0, k0), (t1, k1) in zip(events, events[1:]):
            if (t1 - t0) * length <= eps:
                contract(k0, k1)
            elif keep(*_lerp(a, b, 0.5 * (t0 + t1)), None):
                pieces.append((Segment(Point2(*_lerp(a, b, t0)), Point2(*_lerp(a, b, t1))),
                               i, k0, k1))
    for k, (d, (cx, cy, r)) in enumerate(zip(circles, xyr)):
        events = sorted(circle_events[k])
        if not events:
            if sum(keep(cx + r * math.cos(a), cy + r * math.sin(a), k) for a in _PROBES) >= 2:
                chains.append([(CircularArc(d, 0.0, 0.0, INWARD if k else OUTWARD), m + k, True)])
            continue
        last = len(events) - 1
        for n, ((a0, k0), (a1, k1)) in enumerate(zip(events, events[1:] + events[:1])):
            # the last piece wraps past angle 0 (the whole circle if every
            # event is at one angle)
            extent = a1 - a0 if n < last else a1 + TWO_PI - a0
            if extent * r <= eps:
                contract(k0, k1)
                continue
            mid = a0 + 0.5 * extent
            if keep(cx + r * math.cos(mid), cy + r * math.sin(mid), k):
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
    return _attach_holes(outers, holes, eps) if holes else outers


def _foot(a: XY, b: XY, cx: float, cy: float) -> float:
    """Parameter of the point of segment ab nearest to (cx, cy)."""
    (ax, ay), (bx, by) = a, b
    dx, dy = bx - ax, by - ay
    l2 = dx * dx + dy * dy
    return 0.0 if l2 == 0.0 else min(max(((cx - ax) * dx + (cy - ay) * dy) / l2, 0.0), 1.0)


def _lerp(a: XY, b: XY, t: float) -> XY:
    if t == 0.0:
        return a
    if t == 1.0:
        return b
    (ax, ay), (bx, by) = a, b
    return ax + t * (bx - ax), ay + t * (by - ay)


def _angle(c: Circle, x: float, y: float) -> float:
    """Angle of the point (x, y) seen from the centre of circle c, in [0, 2 pi)."""
    return math.atan2(y - c[1], x - c[0]) % TWO_PI


def _coalesce(chain: list[tuple[ArcEdge, int, bool]]) -> list[ArcEdge]:
    """Join consecutive pieces of one curve that meet at a node no other
    piece leaves (a crossing of two other curves cut them), wrapping
    around; a chain left with one arc is its whole circle."""
    out: list[tuple[ArcEdge, int, bool]] = []
    for e, curve, alone in chain:
        if out and alone and out[-1][1] == curve:
            out[-1] = (_joined(out[-1][0], e), curve, out[-1][2])
        else:
            out.append((e, curve, alone))
    if len(out) > 1 and out[0][2] and out[0][1] == out[-1][1]:
        last = out.pop()
        out[0] = (_joined(last[0], out[0][0]), last[1], last[2])
    edges = [e for e, _, _ in out]
    if len(edges) == 1 and isinstance(edges[0], CircularArc):
        a = edges[0]
        return [CircularArc(a.supporting_disk, a.start_angle, a.start_angle, a.orientation)]
    return edges


def _joined(first: ArcEdge, then: ArcEdge) -> ArcEdge:
    if isinstance(first, Segment):
        return Segment(first.start, then.end)
    return CircularArc(first.supporting_disk, first.start_angle, then.end_angle,
                       first.orientation)


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
        # the middle of an edge, not a joint: a hole may touch its outer
        # chain where two of its edges meet or where its circle is tangent
        # at angle 0
        e = hole.edges[0]
        probe = (e.supporting_disk.point_at(e.start_angle + 0.5 * e.sweep())
                 if isinstance(e, CircularArc)
                 else Point2(*_lerp((e.start.x, e.start.y), (e.end.x, e.end.y), 0.5)))
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
