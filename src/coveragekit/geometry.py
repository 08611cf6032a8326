"""2-D geometric primitives: points, disks, distance measures, bisectors,
convex clipping, and the circular-arc polygon boolean
``(convex region ∩ disk) \\ ∪ disks`` that coverage computation is built on.

All types are immutable values and all operations are pure functions, so
everything here is safe to call concurrently.

Numerical policy: cells are decided by the side test, chains by keys.  A
convex cell is cut by deciding each vertex once, with ``side``, as outside,
on or inside the cutting line (a relative rounding test); the clipper never
merges, moves or drops vertices by distance afterwards.  One tolerance,
``eps = geom_eps(window.diameter())``, decided once per map by both
protocol engines, governs the boolean (and tells concentric disks in the
cells).  Two curves whose distance is within ``eps`` of tangency touch at
one point; a piece of a curve no longer than ``eps`` contracts to a point.
Chains are stitched by the names of the curves that cross at each piece end,
never by the distance between end points, so coincident crossings merge
transitively along the curves.  Chain validation treats tangencies
(single-point contacts) as non-intersections.  The boolean skips only work
whose answer is known, where a point is ``_MARGIN`` eps clear of a rim: a
margin that covers the touch rule and chains of contracted pieces.  A
circle that no other curve meets is decided by one probe point (the touch
rule leaves every other curve more than eps clear of it), and a point lies
in a chain by its winding number, with no tolerance.

The boolean runs on numpy arrays, every site of a map in lockstep
(``boolean_rows``), and gives the bits its formulas give on floats, since
each formula is written once for both.  So only correctly rounded
operations run in numpy: + - * /, ``sqrt``, ``%`` (``np.remainder`` rounds
as Python's ``%`` does) and comparisons.  ``atan2``, ``hypot``, ``cos`` and
``sin`` stay ``math`` calls, mapped over an array's elements: on 10^6
random inputs numpy's ``arctan2`` differed from ``math.atan2`` on 7.8 % of
them and its ``hypot`` from ``math.hypot`` on 0.62 %; its ``cos`` and
``sin`` matched, which numpy does not promise.  A distance that is only
compared with a bound is sqrt(dx * dx + dy * dy) where that lies more than
1e-9 (relative) from the bound, and so on the same side as ``math.hypot``.
Only kept pieces become ``Segment`` and ``CircularArc`` objects, from the
same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import InvalidChain

TWO_PI = 2.0 * math.pi

# Relative tolerance: absolute epsilons are EPS_REL * scene scale.
EPS_REL = 1e-9

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


def power_distance(x: Point2, d: Disk) -> float:
    """Squared center distance minus squared radius: negative inside the disk,
    outside it the squared length of the tangent from ``x`` to the rim."""
    return _power(x.x, x.y, *d.xyr)


def bisector_line(c1: Circle, c2: Circle) -> tuple[float, float, float]:
    """Coefficients ``(nx, ny, offset)`` of the half-plane {x :
    power_distance(x, c1) <= power_distance(x, c2)}, whose boundary is a
    straight line as the quadratic terms cancel; elementwise on arrays."""
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

    def contains(self, p: Point2) -> bool:
        return self.x0 <= p.x <= self.x1 and self.y0 <= p.y <= self.y1

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
    The kernel of ``power_diagram._clip_cell``, the cell builder for one
    polygon that stops at its first empty cut (every cell the dynamic
    structure reads); ``clip_rows`` cuts whole diagrams with its arithmetic.
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
# Owners per power-frame call when a whole map's frames are drawn: about six
# ``_CHUNK``s of rows, so a block costs what one call for the map would, while
# a drawing holds one block's vertices at a time.
FRAME_BLOCK = 512


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
        self._validate(self._scale(), eps)

    def _validate(self, scale: float, eps: Optional[float]) -> None:
        """``validate``, given this chain's ``_scale()``."""
        if not self.edges:
            raise InvalidChain("empty chain")
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
    scale = p._scale()  # one walk of the chain, for the validation and the tolerance
    p._validate(scale, None)
    outer = p.signed_area()
    total = outer + sum(h.signed_area() for h in p.holes)
    tol = geom_eps(scale) ** 0.5  # generous: area tolerance
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
    a0, extent = arc.angular_interval()
    return (angle - a0) % TWO_PI <= extent


# --- Elementwise arithmetic ------------------------------------------------
#
# Written once for floats (chain validation) and arrays (``boolean_rows``),
# with the same bits: numpy's + - * /, sqrt and % round as Python's do, and
# ``math`` functions are mapped over an array's elements.

def _math(f, *args):
    """``f`` from ``math`` on floats, or mapped over the elements of 1-D arrays."""
    if not isinstance(args[0], np.ndarray):
        return f(*args)
    return np.fromiter(map(f, *(a.tolist() for a in args)), float, len(args[0]))


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _hypot_to(dx: np.ndarray, dy: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """``math.hypot(dx, dy)`` within 1e-9 (relative) of ``bound``, elsewhere
    sqrt(dx * dx + dy * dy), which is within 5e-16 of it: on the same side
    of ``bound``, so only for comparing with it."""
    h = np.sqrt(dx * dx + dy * dy)
    t = np.flatnonzero(~(abs(h - bound) > 1e-9 * abs(bound)) | ~(h > 1e-150) | (h > 1e150))
    h[t] = _math(math.hypot, dx[t], dy[t])
    return h


def _power(x, y, cx, cy, r):
    """``power_distance`` of (x, y) from circle (cx, cy, r)."""
    dx, dy = x - cx, y - cy
    return dx * dx + dy * dy - r * r


def _cross(ax, ay, bx, by, px, py):
    """Positive when p lies left of the line from a to b."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _lerp(ax, ay, bx, by, t):
    """The point a + t(b - a): exactly a at t = 0 and b at t = 1."""
    x, y = ax + t * (bx - ax), ay + t * (by - ay)
    if not isinstance(t, np.ndarray):
        return (ax, ay) if t == 0.0 else (bx, by) if t == 1.0 else (x, y)
    at_a, at_b = t == 0.0, t == 1.0
    return np.where(at_a, ax, np.where(at_b, bx, x)), np.where(at_a, ay, np.where(at_b, by, y))


def _angle(c, x, y):
    """Angle of the point (x, y) seen from the centre (c[0], c[1]), in [0, 2 pi)."""
    return _math(math.atan2, y - c[1], x - c[0]) % TWO_PI


# --- Circle intersections --------------------------------------------------

def segment_circle_params(ax, ay, bx, by, cx, cy, r, touch=0.0):
    """Where the line a + t(b - a), a != b, meets the rim of circle (cx, cy,
    r): ``(t0, s, n)``, n roots.  n = 1: the line's distance from the centre
    is within ``touch`` of the radius, and it touches at t0; n = 2: it
    crosses at t0 - s and t0 + s.  The roots are taken around the foot t0 of
    the perpendicular from the centre, so a segment that starts far from
    the circle loses no digits to cancellation in its squared length."""
    dx, dy = bx - ax, by - ay
    A = dx * dx + dy * dy
    fx, fy = ax - cx, ay - cy
    t0 = -(fx * dx + fy * dy) / A
    px, py = fx + t0 * dx, fy + t0 * dy  # centre to foot
    h2 = r * r - (px * px + py * py)  # ~ 2r(r - distance)
    tangent = (touch > 0.0) * (abs(h2) <= 2.0 * r * touch)
    crossing = (h2 > 0.0) * (tangent == 0)
    return t0, _sqrt(h2 * crossing / A), tangent + 2 * crossing


def circle_circle_points(x1, y1, r1, x2, y2, r2, d, touch=0.0):
    """Where two circle rims with centres d = ``math.hypot`` > 0 apart meet:
    ``(mx, my, ox, oy, n)``, n points.  n = 1: the rims are within ``touch``
    of tangency, crossing or not, and touch at (mx, my); n = 2: they cross
    at (mx ± ox, my ± oy)."""
    dx, dy = x2 - x1, y2 - y1
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a  # ~ -2 r1 times the gap between the rims
    tangent = (touch > 0.0) * (abs(h2) <= 2.0 * r1 * touch)
    crossing = (abs(r1 - r2) < d) * (d < r1 + r2) * (h2 > 0.0) * (tangent == 0)
    h = _sqrt(h2 * crossing)
    return x1 + a * dx / d, y1 + a * dy / d, -dy / d * h, dx / d * h, tangent + 2 * crossing


# --- Keyed boolean: (cell ∩ include) \ ∪ excludes, every row at once --------

# The probe direction, at 1 radian, for a circle no other curve meets: no
# lattice favours it.  One probe decides the circle, as every other curve
# lies more than eps clear of it, on one side; a nearer one touches it.
_PROBE = (math.cos(1.0), math.sin(1.0))

# ``boolean_rows`` skips work only where a point is this many eps clear of a rim.
_MARGIN = 64.0

# Rows per pass of ``boolean_rows``: bounds its arrays (on a 2048-site map
# passes of 512 rows peaked at 9.8 MB of them, of 128 rows at 2.9 MB, and
# took no longer).
_BOOLEAN_CHUNK = 128


class BooleanRows(NamedTuple):
    """``boolean_rows``' output: each row's chains, and what the pass did."""
    chains: list  # one list of ArcPolygon per row, in input order
    empty: int  # rows found empty before any Python work
    pieces: int  # boundary pieces kept, a whole circle counting as one


def boolean_rows(cells: Sequence[ConvexPolygon], includes: Sequence[Disk],
                 excludes: Sequence[Sequence[Disk]], eps: float) -> BooleanRows:
    """Row r is the closed boundary chains of (cells[r] ∩ includes[r]) \\
    ∪ excludes[r], with tolerance ``eps`` (a map's ``geom_eps`` of its
    window diameter).

    The curves of a row are its cell's edges, the include circle (traversed
    counterclockwise) and the circles of the excludes that meet the include
    disk (traversed clockwise).  Every crossing of two curves is computed
    once and keyed by the curves that make it: ``("e", i, k, j)`` for edge i
    and circle k, ``("c", k, l, j)`` for circles k < l, ``("v", i)`` for
    vertex i; j tells the two crossings of one pair apart, and curves within
    ``eps`` of tangency have one touching crossing.  Each curve is cut at
    its crossings, in the order of (position, key), and a piece is boundary
    when its midpoint lies in the cell, in the include disk and outside
    every exclude, its own curve aside; a circle that no other curve meets
    is a chain of its own when one probe point on it passes that test.  A
    piece no longer than ``eps``, kept or not, merges its end crossings, so
    crossings that coincide along a curve become one node.  Chains are
    stitched by their nodes, never by comparing coordinates; chains of
    negative area are holes.

    Two shortcuts skip work whose answer is known, each only beyond a margin
    of ``_MARGIN`` eps: when the include disk, or every vertex, lies that
    deep in one exclude, the row is empty at once; and a crossing of an
    exclude circle with an edge or another exclude, that far outside the
    include disk, is no event (the pieces beside it lie outside the include
    disk, between two of its crossings, rejected whether cut there or not),
    and an edge that stays that far outside crosses no circle.

    All of this runs in lockstep over chunks of rows; a row that keeps no
    piece is empty before any Python work, and only kept pieces become
    ``Segment`` and ``CircularArc`` objects (``_stitch``).
    """
    out = BooleanRows([], 0, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(cells), _BOOLEAN_CHUNK):
            part = _boolean_chunk(*(a[lo:lo + _BOOLEAN_CHUNK]
                                    for a in (cells, includes, excludes)), eps)
            out = BooleanRows(out.chains + part.chains, out.empty + part.empty,
                              out.pieces + part.pieces)
    return out


def _by_row(rows: np.ndarray, of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with rows[i] == of[j], ``of`` ascending."""
    lo = np.searchsorted(of, rows)
    reps = np.searchsorted(of, rows, "right") - lo
    i = np.repeat(np.arange(len(rows)), reps)
    return i, np.arange(len(i)) - np.repeat(np.cumsum(reps) - reps - lo, reps)


def _boolean_chunk(cells, includes, excludes, eps: float) -> BooleanRows:
    """``boolean_rows`` of at most ``_BOOLEAN_CHUNK`` rows, on flat arrays:
    one entry per vertex (each starts an edge), circle, crossing, event,
    piece or midpoint, with the row it belongs to."""
    R = len(cells)
    inc = np.array([d.xyr for d in includes], dtype=float).reshape(R, 3)
    ix, iy, ir = inc.T
    margin = _MARGIN * eps
    reach_out = ir + margin

    def beyond(x, y, rows):  # farther than reach_out from the include centre
        return _hypot_to(x - ix[rows], y - iy[rows], reach_out[rows]) > reach_out[rows]

    # the circles: each row's include (k = 0), then its excludes that meet it
    pool = [d for row in excludes for d in row]
    xrow = np.repeat(np.arange(R), [len(row) for row in excludes])
    xyr = np.array([d.xyr for d in pool], dtype=float).reshape(-1, 3)
    s = np.flatnonzero((ir > eps)[xrow] & (xyr[:, 2] > eps))
    gap = _math(math.hypot, xyr[s, 0] - ix[xrow[s]], xyr[s, 1] - iy[xrow[s]])
    met = gap < xyr[s, 2] + ir[xrow[s]]
    s, gap = s[met], gap[met]
    crow = np.concatenate([np.arange(R), xrow[s]])
    o = np.argsort(crow, kind="stable")
    pool = list(includes) + [pool[i] for i in s.tolist()]
    cdisk = [pool[i] for i in o.tolist()]
    crow, cgap = crow[o], np.concatenate([np.zeros(R), gap])[o]
    cx, cy, cr = np.concatenate([inc, xyr[s]])[o].T
    ck = np.arange(len(crow)) - np.searchsorted(crow, crow)
    m = np.array([len(c.vertices) for c in cells])
    vx, vy = np.array([(v.x, v.y) for c in cells for v in c.vertices], dtype=float).reshape(-1, 2).T
    vrow = np.repeat(np.arange(R), m)
    vi = np.arange(len(vrow)) - np.searchsorted(vrow, vrow)

    # rows whose include disk, or every vertex, lies deep in one exclude
    deep = cr - margin
    c = np.flatnonzero(ck > 0)
    i, v = _by_row(crow[c], vrow)
    c = c[i]
    inside = _hypot_to(vx[v] - cx[c], vy[v] - cy[c], deep[c]) < deep[c]
    fired = (ck > 0) & ((np.bincount(c[inside], minlength=len(crow)) == m[crow])
                        | (cgap + ir[crow] < deep))
    live = (ir > eps) & (np.bincount(crow[fired], minlength=R) == 0)
    cid = np.flatnonzero(live[crow])  # into ``cdisk``
    crow, cx, cy, cr, ck = crow[cid], cx[cid], cy[cid], cr[cid], ck[cid]
    lv = live[vrow]
    vrow, vx, vy, vi, m = vrow[lv], vx[lv], vy[lv], vi[lv], m * live

    # the edges, from vertex g to vertex nv[g], and those near the include disk
    V = len(vx)
    nv = np.where(vi + 1 < m[vrow], np.arange(V) + 1, np.arange(V) - vi)
    bx, by = vx[nv], vy[nv]
    length = _math(math.hypot, vx - bx, vy - by)
    reach = eps / np.maximum(length, eps)  # a crossing at a vertex counts on both edges
    dx, dy = bx - vx, by - vy
    l2 = dx * dx + dy * dy
    foot = np.where(l2 == 0.0, 0.0, np.clip(((ix[vrow] - vx) * dx + (iy[vrow] - vy) * dy) / l2,
                                            0.0, 1.0))
    g = np.flatnonzero(~beyond(*_lerp(vx, vy, bx, by, foot), vrow))

    # edge x circle crossings; j counts the roots inside the reach
    i, c = _by_row(vrow[g], crow)
    g = g[i]
    t0, s, n = segment_circle_params(vx[g], vy[g], bx[g], by[g], cx[c], cy[c], cr[c], eps)
    n *= l2[g] != 0.0
    r0, r1 = np.where(n == 1, t0, t0 - s), t0 + s
    ok0 = (n > 0) & (-reach[g] < r0) & (r0 < 1.0 + reach[g])
    ok1 = (n == 2) & (-reach[g] < r1) & (r1 < 1.0 + reach[g])
    xg, xc = np.concatenate([g[ok0], g[ok1]]), np.concatenate([c[ok0], c[ok1]])
    xj = np.concatenate([0 * g[ok0], ok0[ok1] * 1])
    xt = np.clip(np.concatenate([r0[ok0], r1[ok1]]), 0.0, 1.0)
    px, py = _lerp(vx[xg], vy[xg], bx[xg], by[xg], xt)
    t = ~((ck[xc] > 0) & beyond(px, py, crow[xc]))
    xg, xc, xj, xt, px, py = xg[t], xc[t], xj[t], xt[t], px[t], py[t]
    xa = _angle((cx[xc], cy[xc]), px, py)

    # circle x circle crossings
    p, q = _by_row(crow, crow)
    p, q = p[ck[p] < ck[q]], q[ck[p] < ck[q]]
    d = _math(math.hypot, cx[q] - cx[p], cy[q] - cy[p])
    mx, my, ox, oy, n = circle_circle_points(cx[p], cy[p], cr[p], cx[q], cy[q], cr[q], d, eps)
    n *= d != 0.0
    one, two = n > 0, n == 2
    yp, yq = np.concatenate([p[one], p[two]]), np.concatenate([q[one], q[two]])
    yj = np.concatenate([0 * p[one], 1 + 0 * p[two]])
    px = np.concatenate([np.where(n == 1, mx, mx + ox)[one], (mx - ox)[two]])
    py = np.concatenate([np.where(n == 1, my, my + oy)[one], (my - oy)[two]])
    t = ~((ck[yp] > 0) & beyond(px, py, crow[yp]))
    yp, yq, yj, px, py = yp[t], yq[t], yj[t], px[t], py[t]

    # events on each curve, a row's edges (curve W row + i) then its
    # circles (W row + m + k), sorted by position, then as their keys
    # ("c", k, l, j) < ("e", i, k, j) < ("v", i) compare: by kind 0, 1, 2,
    # then (k, l), (i, k) or (i, 0), then j.  Columns: curve, position,
    # kind, key, key, j, node, edge or circle, length or radius
    W = m.max(initial=0) + ck.max(initial=0) + 1
    X, Y = len(xg), len(yp)
    ecurve, ccurve = vrow * W + vi, crow * W + m[crow] + ck
    ev, xn, yn = np.arange(V), V + np.arange(X), V + X + np.arange(Y)
    cols = [(ecurve, 0.0, 2, vi, 0, 0, ev, ev, length),  # ("v", i) at t = 0
            (ecurve, 1.0, 2, vi[nv], 0, 0, nv, ev, length),  # ("v", i + 1) at t = 1
            (ecurve[xg], xt, 1, vi[xg], ck[xc], xj, xn, xg, length[xg]),
            (ccurve[xc], xa, 1, vi[xg], ck[xc], xj, xn, xc, cr[xc]),
            (ccurve[yp], _angle((cx[yp], cy[yp]), px, py), 0, ck[yp], ck[yq], yj, yn, yp, cr[yp]),
            (ccurve[yq], _angle((cx[yq], cy[yq]), px, py), 0, ck[yp], ck[yq], yj, yn, yq, cr[yq])]
    curve, pos, node, obj, size = _sorted_events(cols, W)
    del cols
    row, local = np.divmod(curve, W)
    circ = local >= m[row]

    # pieces: each event to the next on its curve, a circle's last to its first
    N = len(curve)
    tail = np.ones(N, bool)
    tail[:-1] = curve[1:] != curve[:-1]
    first = np.maximum.accumulate(np.where(np.roll(tail, 1), np.arange(N), 0))
    a = np.flatnonzero(~tail | circ)
    b = np.where(tail, first, np.arange(N) + 1)[a]
    p0, p1 = pos[a], pos[b]
    extent = np.where(circ[a] & tail[a], p1 + TWO_PI - p0, p1 - p0)
    short = extent * size[a] <= eps
    pe, pc = np.flatnonzero(~short & ~circ[a]), np.flatnonzero(~short & circ[a])
    e, c = obj[a[pe]], obj[a[pc]]
    mid = p0[pc] + 0.5 * extent[pc]
    lone = np.flatnonzero(np.bincount(obj[circ], minlength=len(crow)) == 0)  # probe these
    mx, my = _lerp(vx[e], vy[e], bx[e], by[e], 0.5 * (p0[pe] + p1[pe]))
    x = np.concatenate([mx, cx[c] + cr[c] * _math(math.cos, mid), cx[lone] + cr[lone] * _PROBE[0]])
    y = np.concatenate([my, cy[c] + cr[c] * _math(math.sin, mid), cy[lone] + cr[lone] * _PROBE[1]])
    rows = np.concatenate([vrow[e], crow[c], crow[lone]])
    on = np.concatenate([-1 + 0 * e, ck[c], ck[lone]])  # the circle it lies on

    # the midpoint tests: the include disk unless on its rim, the other
    # excludes one at a time, then the cell's edges unless on one, each over
    # the points still kept; rim points are outside every disk, by
    # ``_power``'s arithmetic
    ok = np.ones(len(x), bool)
    t = np.flatnonzero(on != 0)
    ok[t] = _power(x[t], y[t], ix[rows[t]], iy[rows[t]], ir[rows[t]]) < 0.0
    csize = np.bincount(crow, minlength=R)
    t = np.flatnonzero(ok)
    for k in range(1, csize.max(initial=0)):
        t = t[csize[rows[t]] > k]
        c = np.searchsorted(crow, rows[t]) + k
        out = ~(_power(x[t], y[t], cx[c], cy[c], cr[c]) >= 0.0) & (on[t] != k)
        ok[t[out]], t = False, t[~out]
    t = np.flatnonzero(ok & (on >= 0))
    for i in range(m.max(initial=0)):
        t = t[m[rows[t]] > i]
        v = np.searchsorted(vrow, rows[t]) + i
        out = _cross(vx[v], vy[v], bx[v], by[v], x[t], y[t]) < 0.0
        ok[t[out]], t = False, t[~out]
    kept = np.zeros(len(a), bool)
    kept[np.concatenate([pe, pc])] = ok[:len(pe) + len(pc)]
    whole = lone[ok[len(pe) + len(pc):]]

    # only rows that keep a piece reach Python: an edge's piece becomes a
    # segment, the include circle's an arc from p0 to p1, an exclude's an
    # arc from p1 to p0 (clockwise), and a whole circle a chain of its own
    k, h = a[kept], b[kept]
    turn = local[k] - m[row[k]]  # < 0 on an edge, 0 on the include circle
    g, ci = obj[k] * (turn < 0), cid[obj[k] * (turn >= 0)]  # the edge, or the circle's disk
    x0, y0 = _lerp(vx[g], vy[g], bx[g], by[g], pos[k])
    x1, y1 = _lerp(vx[g], vy[g], bx[g], by[g], pos[h])
    edges = [Segment(Point2(*e0), Point2(*e1)) if u < 0 else
             CircularArc(cdisk[i], a0, a1, OUTWARD) if u == 0 else
             CircularArc(cdisk[i], a1, a0, INWARD)
             for u, e0, e1, i, a0, a1 in zip(turn.tolist(), zip(x0.tolist(), y0.tolist()),
                                             zip(x1.tolist(), y1.tolist()), ci.tolist(),
                                             pos[k].tolist(), pos[h].tolist())]
    pieces = _split(row[k], R, zip(edges, local[k].tolist(),
                                   np.where(turn > 0, node[h], node[k]).tolist(),
                                   np.where(turn > 0, node[k], node[h]).tolist()))
    merged = _split(row[a[short]], R, zip(node[a[short]].tolist(), node[b[short]].tolist()))
    arcs = [CircularArc(cdisk[i], 0.0, 0.0, INWARD if kw else OUTWARD)
            for i, kw in zip(cid[whole].tolist(), ck[whole].tolist())]
    wholes = _split(crow[whole], R, zip(arcs, (m[crow[whole]] + ck[whole]).tolist()))
    busy = np.flatnonzero(np.bincount(np.concatenate([row[k], crow[whole]]), minlength=R))
    busy = busy.tolist()
    chains: list[list[ArcPolygon]] = [[] for _ in range(R)]
    for r in busy:
        chains[r] = _stitch(pieces[r], merged[r], wholes[r])
    return BooleanRows(chains, R - len(busy), len(k) + len(whole))


def _sorted_events(cols: list, W: int) -> tuple[np.ndarray, ...]:
    """The columns curve, position, node, edge or circle, and length or
    radius of the events ``cols``, sorted by curve, position and key: by one
    integer that packs the three, positions replaced by their rank (ties,
    -0.0 and 0.0 among them, share one), unless it could overflow."""
    curve, pos, kind, ka, kb, kj, node, obj, size = (
        np.concatenate([c[f] if isinstance(c[f], np.ndarray) else np.full(len(c[0]), c[f])
                        for c in cols]) for f in range(9))
    key = ((kind * W + ka) * W + kb) * 2 + kj
    _, rank = np.unique(pos, return_inverse=True)
    span = (int(rank.max(initial=0)) + 1, int(key.max(initial=0)) + 1)
    if (int(curve.max(initial=0)) + 1) * span[0] * span[1] < 2 ** 62:
        o = np.argsort((curve * span[0] + rank) * span[1] + key)
    else:
        o = np.lexsort((key, pos, curve))
    return curve[o], pos[o], node[o], obj[o], size[o]


def _split(rows: np.ndarray, R: int, items) -> list[list]:
    """``items``, one per entry of the ascending ``rows``, as R lists by row."""
    out: list[list] = [[] for _ in range(R)]
    for r, item in zip(rows.tolist(), items):
        out[r].append(item)
    return out


def _stitch(pieces: list, merged: list, whole: list) -> list[ArcPolygon]:
    """One row's chains: its ``whole`` circles (arc, curve), each a chain,
    then its ``pieces`` (edge, curve, start node, end node) in curve order,
    stitched by end nodes once the node pairs ``merged`` by short pieces are
    joined (union-find).  Chains of negative area are holes."""
    root: dict[int, int] = {}

    def find(key: int) -> int:
        while key in root:
            key = root[key]
        return key

    for k0, k1 in merged:
        k0, k1 = find(k0), find(k1)
        if k0 != k1:
            root[k0] = k1
    leaving: dict[int, list[int]] = {}
    for n in reversed(range(len(pieces))):
        leaving.setdefault(find(pieces[n][2]), []).append(n)
    # a piece may join the one before it only through a node it alone leaves
    alone = [len(leaving[find(start)]) == 1 for _, _, start, _ in pieces]
    used = [False] * len(pieces)
    chains = [[(arc, curve, True)] for arc, curve in whole]
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
    starts = [(p.x, p.y) for p in (e.start_point for e in chain)]
    best = min(range(len(chain)), key=starts.__getitem__)
    return chain[best:] + chain[:best]


def _attach_holes(outers: list[ArcPolygon], holes: list[ArcPolygon]) -> list[ArcPolygon]:
    assigned: dict[int, list[ArcPolygon]] = {i: [] for i in range(len(outers))}
    for hole in holes:
        # the middle of an edge, not a joint: a hole may touch its outer
        # chain where two of its edges meet or where its circle is tangent
        # at angle 0
        e = hole.edges[0]
        probe = (e.supporting_disk.point_at(e.start_angle + 0.5 * e.sweep())
                 if isinstance(e, CircularArc)
                 else Point2(*_lerp(e.start.x, e.start.y, e.end.x, e.end.y, 0.5)))
        best = None
        best_area = math.inf
        for i, outer in enumerate(outers):
            a = outer.signed_area()
            if a < best_area and arc_polygon_contains(outer, probe):
                best, best_area = i, a
        if best is None:
            raise InvalidChain("hole chain not contained in any outer chain")
        assigned[best].append(hole)
    return [ArcPolygon(outers[i].edges, tuple(assigned[i])) for i in range(len(outers))]


def arc_polygon_contains(poly: ArcPolygon, p: Point2) -> bool:
    """Whether the outer chain (holes ignored) winds an odd number of times
    around ``p``.  A segment, or an arc whose disk does not hold ``p``,
    turns by the angle its chord subtends at ``p``, in (-pi, pi]; an arc
    whose disk holds ``p`` by that angle taken in (0, 2 pi] when it runs
    counterclockwise and in [-2 pi, 0) when clockwise, as a point running
    along the rim turns monotonically around an inner point.  A point on
    the chain may get either answer."""
    total = 0.0
    for e in poly.edges:
        a, b = e.start_point, e.end_point
        ax, ay, bx, by = a.x - p.x, a.y - p.y, b.x - p.x, b.y - p.y
        turn = math.atan2(ax * by - ay * bx, ax * bx + ay * by)
        if isinstance(e, CircularArc) and _power(p.x, p.y, *e.supporting_disk.xyr) < 0.0:
            s = 1.0 if e.orientation == OUTWARD else -1.0
            turn = s * (s * turn % TWO_PI or TWO_PI)
        total += turn
    return round(total / TWO_PI) % 2 == 1
