"""Geometry primitives: distances, bisectors, clipping, arc booleans."""

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coveragekit import geometry
from coveragekit.errors import InvalidChain
from coveragekit.geometry import (INWARD, ArcPolygon, CircularArc, ConvexPolygon, Disk,
                                  Point2, Rect, Segment, TWO_PI,
                                  _edges_cross, arc_polygon_area,
                                  arc_polygon_contains, boolean_rows,
                                  bisector_line, circle_circle_points,
                                  clip_coords, clip_rows,
                                  dist, geom_eps, power_distance)
from coveragekit.dynamic_coverage import DynamicCoverage
from coveragekit.power_diagram import build
from coveragekit.protocol_coverage import ProtocolTransmitter, compute_coverage_map, region_area
from boolean_reference import boolean_chains_reference
from geometry_reference import (ConcentricDisks, HalfPlane, _ray_hits,
                                arc_polygon_contains_ray, boolean_chains, clip_convex,
                                convex_polygon_intersection, polygon_area, power_bisector,
                                region_disk_boolean, signed_distance)
from oracles import grid_boolean_area, lens_area
from test_power_diagram import COCIRCULAR, GRID6

UNIT_SQUARE = ConvexPolygon((Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)))


def test_signed_distance_values():
    d = Disk(Point2(0, 0), 3.0)
    assert signed_distance(Point2(5, 0), d) == pytest.approx(2.0)
    assert signed_distance(Point2(3, 0), d) == pytest.approx(0.0)
    assert signed_distance(Point2(0, 0), d) == pytest.approx(-3.0)


def test_power_distance_values():
    d = Disk(Point2(0, 0), 3.0)
    assert power_distance(Point2(5, 0), d) == pytest.approx(16.0)
    assert power_distance(Point2(3, 0), d) == pytest.approx(0.0)
    assert power_distance(Point2(0, 0), d) == pytest.approx(-9.0)


def test_signed_distance_order_matches_euclidean_for_equal_radii():
    rng = random.Random(7)
    d1 = Disk(Point2(1.0, 2.0), 1.5)
    d2 = Disk(Point2(-2.0, 0.5), 1.5)
    for _ in range(500):
        x = Point2(rng.uniform(-5, 5), rng.uniform(-5, 5))
        lhs = signed_distance(x, d1) < signed_distance(x, d2)
        rhs = math.dist((x.x, x.y), (1.0, 2.0)) < math.dist((x.x, x.y), (-2.0, 0.5))
        assert lhs == rhs


def test_power_bisector_equal_radii_is_perpendicular_bisector():
    h = power_bisector(Disk(Point2(0, 0), 1), Disk(Point2(4, 0), 1))
    # boundary x = 2
    assert h.value(Point2(2, 17)) == pytest.approx(0.0)
    assert h.value(Point2(1, 0)) < 0 < h.value(Point2(3, 0))


def test_power_bisector_unequal_radii():
    h = power_bisector(Disk(Point2(0, 0), 2), Disk(Point2(4, 0), 0))
    assert h.value(Point2(2.5, -3)) == pytest.approx(0.0)
    assert h.value(Point2(2.4, 0)) < 0 < h.value(Point2(2.6, 0))


def test_power_bisector_vertical_symmetry():
    h = power_bisector(Disk(Point2(0, 0), 1), Disk(Point2(0, 6), 1))
    assert h.value(Point2(100, 3)) == pytest.approx(0.0)


def test_power_bisector_concentric_raises():
    with pytest.raises(ConcentricDisks):
        power_bisector(Disk(Point2(1, 1), 1), Disk(Point2(1, 1), 2))


def test_power_bisector_boundary_residual_property():
    rng = random.Random(3)
    for _ in range(20):
        d1 = Disk(Point2(rng.uniform(-10, 10), rng.uniform(-10, 10)), rng.uniform(0, 5))
        d2 = Disk(Point2(rng.uniform(-10, 10), rng.uniform(-10, 10)), rng.uniform(0, 5))
        if math.dist((d1.center.x, d1.center.y), (d2.center.x, d2.center.y)) < 1e-6:
            continue
        h = power_bisector(d1, d2)
        nn = math.hypot(h.nx, h.ny)
        p0x, p0y = h.nx * h.offset / nn**2, h.ny * h.offset / nn**2
        dx, dy = -h.ny / nn, h.nx / nn
        for _ in range(50):
            t = rng.uniform(-30, 30)
            x = Point2(p0x + t * dx, p0y + t * dy)
            scale = 30.0
            assert abs(power_distance(x, d1) - power_distance(x, d2)) <= 1e-9 * scale**2


def test_clip_convex_basic():
    r = clip_convex(UNIT_SQUARE, HalfPlane(1, 0, 0.5))
    assert r is not None
    assert polygon_area(r) == pytest.approx(0.5)
    # no vertex outside, up to rounding: the polygon itself
    for offset in (2.0, 1.0, 1 - 1e-15):
        assert clip_convex(UNIT_SQUARE, HalfPlane(1, 0, offset)) is UNIT_SQUARE
    # no vertex inside: empty, also when the line touches an edge
    for offset in (-1.0, 0.0, 1e-15):
        assert clip_convex(UNIT_SQUARE, HalfPlane(1, 0, offset)) is None


def _repeats(poly: ConvexPolygon) -> bool:
    pts = poly.vertices
    return any(a == b for a, b in zip(pts, pts[1:] + pts[:1]))


def _line_through(p: Point2, angle: float, s: float) -> HalfPlane:
    """The half-plane with outward normal at ``angle`` whose line passes
    through ``p`` up to rounding: its offset is taken at a point ``s`` along
    the line from ``p``."""
    nx, ny = math.cos(angle), math.sin(angle)
    q = Point2(p.x - s * ny, p.y + s * nx)
    return HalfPlane(nx, ny, nx * q.x + ny * q.y)


def test_clip_convex_keeps_a_vertex_on_the_line():
    corner = UNIT_SQUARE.vertices[1]  # (1, 0)
    for k in range(60):
        r = clip_convex(UNIT_SQUARE, _line_through(corner, 0.2 + 0.02 * k, 0.37))
        assert any(v is corner for v in r.vertices), (k, r)
        assert all(v is corner or dist(v, corner) > 1e-9 for v in r.vertices), (k, r)
        assert not _repeats(r)


def test_clip_convex_random_cuts_never_repeat_a_vertex():
    rng = random.Random(5)
    for _ in range(300):
        angles = sorted(rng.uniform(0, TWO_PI) for _ in range(rng.randint(3, 9)))
        r0 = rng.uniform(0.1, 1e3)
        poly = ConvexPolygon(tuple(Point2(r0 * math.cos(a), r0 * math.sin(a))
                                   for a in angles))
        for _ in range(5):
            angle, s = rng.uniform(0, TWO_PI), rng.uniform(-r0, r0)
            through = rng.choice(poly.vertices + (None,))
            h = (HalfPlane(math.cos(angle), math.sin(angle), s) if through is None
                 else _line_through(through, angle, s))
            out = clip_convex(poly, h)
            if out is None:
                continue
            assert not _repeats(out), (poly, h, out)
            assert polygon_area(out) <= polygon_area(poly) * (1 + 1e-12)
            poly = out


def test_convex_polygon_intersection():
    tri = ConvexPolygon((Point2(0, 0), Point2(2, 0), Point2(0, 2)))
    same = convex_polygon_intersection(tri, tri)
    assert polygon_area(same) == pytest.approx(polygon_area(tri))
    shifted = ConvexPolygon((Point2(0.5, 0.5), Point2(1.5, 0.5),
                             Point2(1.5, 1.5), Point2(0.5, 1.5)))
    inter = convex_polygon_intersection(UNIT_SQUARE, shifted)
    assert polygon_area(inter) == pytest.approx(0.25)
    far = ConvexPolygon((Point2(5, 5), Point2(6, 5), Point2(6, 6)))
    assert convex_polygon_intersection(UNIT_SQUARE, far) is None


def test_area_full_circle():
    circle = ArcPolygon((CircularArc(Disk(Point2(0, 0), 1.0), 0.0, 0.0),))
    assert arc_polygon_area(circle) == pytest.approx(math.pi, abs=1e-9)


def test_area_unit_square_chain():
    square = ArcPolygon((Segment(Point2(0, 0), Point2(1, 0)),
                         Segment(Point2(1, 0), Point2(1, 1)),
                         Segment(Point2(1, 1), Point2(0, 1)),
                         Segment(Point2(0, 1), Point2(0, 0))))
    assert arc_polygon_area(square) == pytest.approx(1.0)


def test_area_half_disk():
    d = Disk(Point2(0, 0), 1.0)
    half = ArcPolygon((Segment(Point2(-1, 0), Point2(1, 0)),
                       CircularArc(d, 0.0, math.pi)))
    assert arc_polygon_area(half) == pytest.approx(math.pi / 2)


def test_area_rejects_open_chain():
    # the area step trusts chains as made; the metric check refuses this one
    bad = ArcPolygon((Segment(Point2(0, 0), Point2(1, 0)),
                      Segment(Point2(1, 0), Point2(1, 1))))
    with pytest.raises(InvalidChain, match="ends at"):
        bad.validate(geom_eps(1.0))


def test_area_rejects_self_intersection():
    bow = ArcPolygon((Segment(Point2(0, 0), Point2(1, 1)),
                      Segment(Point2(1, 1), Point2(1, 0)),
                      Segment(Point2(1, 0), Point2(0, 1)),
                      Segment(Point2(0, 1), Point2(0, 0))))
    with pytest.raises(InvalidChain, match="self-intersects"):
        bow.validate(geom_eps(1.0))


BIG = ConvexPolygon((Point2(-2, -2), Point2(2, -2), Point2(2, 2), Point2(-2, 2)))


def test_boolean_disjoint_exclude_gives_full_circle():
    out = region_disk_boolean(BIG, Disk(Point2(0, 0), 1), Disk(Point2(10, 10), 1))
    assert len(out) == 1
    assert arc_polygon_area(out[0]) == pytest.approx(math.pi, rel=1e-9)
    assert len(out[0].edges) == 1


def test_boolean_exclude_covers_include():
    out = region_disk_boolean(BIG, Disk(Point2(0, 0), 1), Disk(Point2(0, 0), 2))
    assert out == []


def test_boolean_lens_subtraction_matches_oracles():
    include = Disk(Point2(0, 0), 1.0)
    exclude = Disk(Point2(1.5, 0), 1.0)
    out = region_disk_boolean(BIG, include, exclude)
    area = sum(arc_polygon_area(ap) for ap in out)
    expected = math.pi - lens_area(1.0, 1.0, 1.5)
    assert area == pytest.approx(expected, rel=1e-6)
    win = Rect(-2, -2, 2, 2)
    grid = grid_boolean_area(BIG, include, [exclude], win, n=1000)
    assert abs(area - grid) <= 0.005 * win.area()


def test_boolean_hole_is_split_not_dropped():
    include = Disk(Point2(0, 0), 1.5)
    exclude = Disk(Point2(0.2, 0.1), 0.4)
    out = region_disk_boolean(BIG, include, exclude)
    area = sum(arc_polygon_area(ap) for ap in out)
    assert area == pytest.approx(math.pi * 1.5**2 - math.pi * 0.4**2, rel=1e-6)
    assert len(out) == 2  # split along a chord through the hole


def test_boolean_polygon_clips_circle():
    region = ConvexPolygon((Point2(0, -2), Point2(2, -2), Point2(2, 2), Point2(0, 2)))
    out = region_disk_boolean(region, Disk(Point2(0, 0), 1), Disk(Point2(9, 9), 0.1))
    area = sum(arc_polygon_area(ap) for ap in out)
    assert area == pytest.approx(math.pi / 2, rel=1e-6)


def test_boolean_random_instances_match_grid_oracle():
    rng = random.Random(11)
    win = Rect(-2, -2, 2, 2)
    for _ in range(25):
        include = Disk(Point2(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                       rng.uniform(0.2, 1.4))
        exclude = Disk(Point2(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                       rng.uniform(0.1, 1.5))
        out = region_disk_boolean(BIG, include, exclude)
        area = sum(arc_polygon_area(ap) for ap in out)
        grid = grid_boolean_area(BIG, include, [exclude], win, n=700)
        assert abs(area - grid) <= 0.005 * win.area()
        # never negative, never more than the clipped include disk
        assert area >= 0.0
        cap = min(math.pi * include.radius**2, polygon_area(BIG))
        assert area <= cap + 1e-9


def test_boolean_area_bounded_by_include_in_region():
    include = Disk(Point2(0.5, 0.5), 0.3)
    exclude = Disk(Point2(0.6, 0.5), 0.2)
    out = region_disk_boolean(UNIT_SQUARE, include, exclude)
    area = sum(arc_polygon_area(ap) for ap in out)
    full = region_disk_boolean(UNIT_SQUARE, include, Disk(Point2(50, 50), 0.1))
    full_area = sum(arc_polygon_area(ap) for ap in full)
    assert 0.0 <= area <= full_area + 1e-12


def test_arc_polygon_contains():
    circle = ArcPolygon((CircularArc(Disk(Point2(0, 0), 1.0), 0.0, 0.0),))
    assert arc_polygon_contains(circle, Point2(0.3, 0.2))
    assert not arc_polygon_contains(circle, Point2(1.5, 0.0))


def _chain_distance(poly: ArcPolygon, p: Point2) -> float:
    """Distance from ``p`` to the nearest edge of the outer chain."""
    best = math.inf
    for e in poly.edges:
        if isinstance(e, Segment):
            a, b = e.start, e.end
            dx, dy = b.x - a.x, b.y - a.y
            t = min(max(((p.x - a.x) * dx + (p.y - a.y) * dy) / (dx * dx + dy * dy), 0.0), 1.0)
            best = min(best, math.hypot(a.x + t * dx - p.x, a.y + t * dy - p.y))
        else:
            d = e.supporting_disk
            a0, extent = e.angular_interval()
            angle = math.atan2(p.y - d.center.y, p.x - d.center.x) % TWO_PI
            if (angle - a0) % TWO_PI <= extent:
                best = min(best, abs(dist(p, d.center) - d.radius))
            best = min(best, dist(p, e.start_point), dist(p, e.end_point))
    return best


def _contains_like_the_ray_cast(chains, probes, eps) -> int:
    """Compare ``arc_polygon_contains`` with the ray-cast reference, at the
    chains' tolerance ``eps``, on every outer and hole chain at every probe
    more than 1e-6 from that chain; return how many probes were compared."""
    compared = 0
    for ap in [c for ap in chains for c in (ap, *ap.holes)]:
        for p in probes:
            if _chain_distance(ap, p) > 1e-6:
                assert arc_polygon_contains(ap, p) == arc_polygon_contains_ray(ap, p, eps), (ap, p)
                compared += 1
    return compared


# probes on the half-unit lattice, where the maps' vertices and rim tops lie
LATTICE_PROBES = [Point2(0.5 * i, 0.5 * j) for i in range(-1, 18) for j in range(-1, 18)]


def test_arc_polygon_contains_equals_the_ray_cast_on_chains_with_holes():
    square = (Segment(Point2(0, 0), Point2(4, 0)), Segment(Point2(4, 0), Point2(4, 4)),
              Segment(Point2(4, 4), Point2(0, 4)), Segment(Point2(0, 4), Point2(0, 0)))
    hole = ArcPolygon((CircularArc(Disk(Point2(2, 2), 1.0), 0.0, 0.0, INWARD),))
    lens_hole = ArcPolygon((CircularArc(Disk(Point2(1, 3), 0.5), math.pi, 0.0, INWARD),
                            Segment(Point2(1.5, 3), Point2(0.5, 3))))
    made = [ArcPolygon(square, (hole, lens_hole))]
    assert arc_polygon_contains(made[0], Point2(2, 2))  # holes are ignored
    assert arc_polygon_contains(hole, Point2(2, 2))  # a clockwise chain winds -1 times
    assert not arc_polygon_contains(hole, Point2(0.5, 0.5))
    stitched = boolean_chains(*HOLE_AND_TANGENTS, MARGIN_EPS)
    assert any(ap.holes for ap in stitched)
    probes = [Point2(0.25 * i, 0.25 * j) for i in range(-10, 27) for j in range(-10, 27)]
    assert _contains_like_the_ray_cast(made + stitched, probes, MARGIN_EPS) > 2000


def _square_in_disk() -> ArcPolygon:
    """The square [-1, 1]^2 cut by the disk of radius 1.2 at the origin."""
    square = ConvexPolygon((Point2(-1, -1), Point2(1, -1), Point2(1, 1), Point2(-1, 1)))
    (chain,) = boolean_chains(square, Disk(Point2(0, 0), 1.2), [], geom_eps(4.0))
    return chain


def test_arc_polygon_contains_where_the_ray_cast_nudged():
    # a horizontal line through a vertex, through an arc's end point, or
    # along a rim's top made the ray cast retry; the winding number does not
    diamond = ArcPolygon((Segment(Point2(0, -1), Point2(1, 0)), Segment(Point2(1, 0), Point2(0, 1)),
                          Segment(Point2(0, 1), Point2(-1, 0)),
                          Segment(Point2(-1, 0), Point2(0, -1))))
    half = ArcPolygon((CircularArc(Disk(Point2(0, 0), 1.0), 0.0, math.pi),
                       Segment(Point2(-1, 0), Point2(1, 0))))
    cut = _square_in_disk()
    # where an arc ends on a vertical side, at y = +-sqrt(1.2^2 - 1)
    y_end = next(e.end_point.y for e in cut.edges
                 if isinstance(e, CircularArc) and abs(e.end_point.y) < 0.9)
    cases = [(diamond, Point2(0, 0), True), (diamond, Point2(-0.5, 0), True),
             (diamond, Point2(-2, 0), False), (diamond, Point2(0.2, 1), False),
             (half, Point2(-0.5, 1.0), False),
             (half, Point2(-3, 1.0), False), (half, Point2(-2, 0), False),
             (cut, Point2(0, y_end), True), (cut, Point2(-0.99, y_end), True),
             (cut, Point2(-2, y_end), False)]
    eps = geom_eps(4.0)  # the tolerance ``cut`` was made with
    for chain, p, inside in cases:
        assert None in [_ray_hits(e, p.x, p.y, eps) for e in chain.edges], p  # the ray nudged
        assert arc_polygon_contains(chain, p) == inside, p
        assert arc_polygon_contains_ray(chain, p, eps) == inside, p


def test_arc_polygon_contains_on_a_dense_grid_through_the_vertices():
    # rows and columns through the square's sides and the arcs' end points
    cut = _square_in_disk()
    ends = sorted({round(e.end_point.y, 15) for e in cut.edges})
    values = sorted(set(np.linspace(-1.5, 1.5, 61).tolist() + ends))
    checked = 0
    for x in values:
        for y in values:
            p = Point2(x, y)
            if _chain_distance(cut, p) > 1e-6:
                want = abs(x) < 1.0 and abs(y) < 1.0 and x * x + y * y < 1.44
                assert arc_polygon_contains(cut, p) == want, p
                checked += 1
    assert checked > 3500


def test_near_parallel_segments_do_not_cross():
    # two disjoint pieces of one window side x = 0, their x coordinates
    # rounding noise: the cross product of their directions is noise too
    s1 = Segment(Point2(1.3205726828400248e-16, 2.3215), Point2(7.281210570903432e-17, 1.28))
    s2 = Segment(Point2(5.2060655581959534e-17, 0.9152), Point2(-4.021731151272442e-33, -7.07e-17))
    assert not _edges_cross(s1, s2, 64.0 * geom_eps(2.3215))


def test_boolean_chains_where_five_curves_meet():
    # the include rim, two exclude rims and the two region edges at the
    # vertex (1, 0) all pass through (1, 0)
    region = ConvexPolygon((Point2(-2, -2), Point2(3, -2), Point2(1, 0), Point2(-2, 2)))
    include = Disk(Point2(0, 0), 1.0)
    excludes = [Disk(Point2(2, 0), 1.0), Disk(Point2(1, 1), 1.0), Disk(Point2(-1, -1), 0.5)]
    chains = boolean_chains(region, include, excludes, geom_eps(5.0))
    for ap in chains:
        ap.validate(geom_eps(5.0))
    area = sum(arc_polygon_area(ap) for ap in chains)
    grid = grid_boolean_area(region, include, excludes, Rect(-2, -2, 3, 2))
    assert area == pytest.approx(grid, abs=0.01)


def test_boolean_chains_hole_and_tangent_excludes():
    # one exclude strictly inside (a hole), two touching each other and
    # the include circle from inside
    include = Disk(Point2(0, 0), 1.5)
    excludes = [Disk(Point2(0.8, 0), 0.7), Disk(Point2(-0.2, 0), 0.3),
                Disk(Point2(-0.5, 0.9), 0.2)]
    chains = boolean_chains(BIG, include, excludes, geom_eps(5.0))
    for ap in chains:
        ap.validate(geom_eps(5.0))
    area = sum(arc_polygon_area(ap) for ap in chains)
    assert area == pytest.approx(grid_boolean_area(BIG, include, excludes, Rect(-2, -2, 2, 2)),
                                 abs=0.01)


# The shortcuts of ``boolean_chains`` skip work only where a point is
# 64 eps clear of a rim; these cases sit inside and just outside that margin.
MARGIN_EPS = geom_eps(5.0)
MARGIN = 64.0 * MARGIN_EPS


def test_boolean_chains_exits_when_include_or_region_is_deep_in_one_exclude():
    include = Disk(Point2(0, 0), 1.0)
    around = Disk(Point2(0.3, 0), 1.3 + 2.0 * MARGIN)  # include inside by 2 margins
    assert boolean_chains(BIG, include, [around], MARGIN_EPS) == []
    small = ConvexPolygon((Point2(0.1, 0.1), Point2(0.4, 0.1), Point2(0.2, 0.3)))
    cover = Disk(Point2(0.2, 0.2), 0.5)  # the region only, not the include disk
    assert boolean_chains(small, include, [cover, Disk(Point2(3, 0), 2.5)], MARGIN_EPS) == []


@pytest.mark.parametrize("gap", [-0.5, 0.5, 2.0])
def test_boolean_chains_near_containment_takes_no_exit(gap):
    # the include rim, then a region vertex, lies ``gap`` margins outside
    # (< 0: inside) the rim of an exclude that otherwise holds it: a
    # sliver a few eps wide, or nothing
    include = Disk(Point2(0, 0), 1.0)
    around = Disk(Point2(0.3, 0), 1.3 - gap * MARGIN)
    cover = Disk(Point2(0.2, 0.2), 0.5)
    small = ConvexPolygon((Point2(0.1, 0.1), Point2(0.7 + gap * MARGIN, 0.2), Point2(0.2, 0.3)))
    for region, exclude in ((BIG, around), (small, cover)):
        chains = boolean_chains(region, include, [exclude], MARGIN_EPS)
        assert (chains != []) == (gap > 0)
        area = sum(arc_polygon_area(ap) for ap in chains)
        assert 0.0 <= area < 1e-6
        assert area == pytest.approx(
            grid_boolean_area(region, include, [exclude], Rect(-2, -2, 2, 2)), abs=1e-6)


@pytest.mark.parametrize("gap", [-0.5, 0.0, 0.5])
def test_boolean_chains_drops_only_far_crossings(gap):
    # a and b cross once 1.42 outside the include rim and once inside it;
    # a and c cross ``gap`` margins outside the rim (< 0: inside), where
    # the boundary needs their crossing; a also crosses the region's right
    # edge far outside the include disk
    include = Disk(Point2(0, 0), 1.0)
    rim = Point2((1.0 + gap * MARGIN) * math.cos(1.0), (1.0 + gap * MARGIN) * math.sin(1.0))
    a = Disk(Point2(1.6, 0.3), dist(Point2(1.6, 0.3), rim))
    b = Disk(Point2(1.4, -1.2), 1.1)
    c = Disk(Point2(-0.1, 1.7), dist(Point2(-0.1, 1.7), rim))
    excludes = [a, b, c]
    chains = boolean_chains(BIG, include, excludes, MARGIN_EPS)
    for ap in chains:
        ap.validate(MARGIN_EPS)
    area = sum(arc_polygon_area(ap) for ap in chains)
    assert area == pytest.approx(grid_boolean_area(BIG, include, excludes, Rect(-2, -2, 2, 2)),
                                 abs=0.005)


@pytest.mark.parametrize("gap", [-0.5, 0.5])
def test_boolean_chains_keeps_an_edge_within_the_margin(gap):
    # the region's top edge passes ``gap`` margins outside the include rim
    # (< 0: cutting a cap off the disk); only farther edges skip the circles
    include = Disk(Point2(0, 0), 1.0)
    top = 1.0 + gap * MARGIN
    region = ConvexPolygon((Point2(-2, -2), Point2(2, -2), Point2(2, top), Point2(-2, top)))
    chains = boolean_chains(region, include, [], MARGIN_EPS)
    kinds = [type(e) for ap in chains for e in ap.edges]
    assert kinds == ([CircularArc, Segment] if gap < 0 else [CircularArc])
    assert sum(arc_polygon_area(ap) for ap in chains) == pytest.approx(math.pi, abs=1e-9)


def test_boolean_chains_asks_the_region_last(monkeypatch):
    # the cell is tested only at midpoints that the include disk and every
    # exclude keep
    asked, cross = [], geometry._cross

    def spy(ax, ay, bx, by, px, py):
        asked.extend(zip(np.atleast_1d(px).tolist(), np.atleast_1d(py).tolist()))
        return cross(ax, ay, bx, by, px, py)

    monkeypatch.setattr(geometry, "_cross", spy)
    include = Disk(Point2(0, 0), 1.5)
    excludes = [Disk(Point2(1.2, 0.4), 0.8), Disk(Point2(-0.7, -0.9), 0.6),
                Disk(Point2(0.1, 1.4), 0.5)]
    region = ConvexPolygon((Point2(-1.2, -1.8), Point2(1.6, -1.1), Point2(1.3, 1.4),
                            Point2(-1.5, 0.9)))
    boolean_chains(region, include, excludes, MARGIN_EPS)
    assert asked
    slack = 1e-9
    for p in map(Point2, *zip(*asked)):
        assert dist(p, include.center) <= include.radius + slack, p
        assert all(dist(p, d.center) >= d.radius - slack for d in excludes), p


# ``clip_coords`` returns ``pts`` itself, before any ``side`` call, when no
# vertex value nx*x + ny*y exceeds the offset; just above it ``side`` decides.

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def _side_calls(monkeypatch) -> list:
    """Record every ``side`` call ``clip_coords`` makes."""
    calls, side = [], geometry.side

    def counted(a, b):
        calls.append((a, b))
        return side(a, b)

    monkeypatch.setattr(geometry, "side", counted)
    return calls


@pytest.mark.parametrize("offset", [1.0, 1.5, 1e9])
def test_clip_coords_returns_pts_without_side_when_no_value_exceeds_the_offset(
        monkeypatch, offset):
    calls = _side_calls(monkeypatch)
    assert clip_coords(SQUARE, 1.0, 0.0, offset) is SQUARE
    assert clip_coords(SQUARE, -0.5, 1.0, offset) is SQUARE
    assert calls == []


def test_clip_coords_lets_side_keep_a_vertex_within_its_tolerance(monkeypatch):
    # the values 1.0 exceed the offset by 1e-13, within side's 3e-12
    calls = _side_calls(monkeypatch)
    offset = 1.0 - 1e-13
    assert clip_coords(SQUARE, 1.0, 0.0, offset) is SQUARE
    assert len(calls) == len(SQUARE)
    assert geometry.side(1.0, offset) == 0


def test_clip_coords_cuts_a_vertex_one_tolerance_further_out():
    offset = 1.0 - 1e-11  # side's tolerance is 3e-12 here
    assert geometry.side(1.0, offset) == 1
    out = clip_coords(SQUARE, 1.0, 0.0, offset)
    assert out is not SQUARE
    assert out == [(0.0, 0.0), (offset, 0.0), (offset, 1.0), (0.0, 1.0)]


# ``boolean_chains`` on floats equals, float for float, the boolean as it
# read over ``Point2`` objects (``boolean_reference``).

def _same_as_reference(region, include, excludes, eps):
    got = boolean_chains(region, include, excludes, eps)
    assert got == boolean_chains_reference(region, include, excludes, eps)
    return got


def _static_map_sites(disks, txs, window):
    """(cell, transmission disk, neighbours' disks, eps) of every visible site,
    as ``compute_coverage_map`` passes them."""
    pd = build(disks, window)
    return [(pd.cells[p], txs[p], [disks[q] for q in sorted(pd.neighbors[p])], pd.eps)
            for p in range(len(disks)) if pd.cells[p] is not None]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_boolean_chains_equals_the_reference_on_a_static_map(seed):
    # the static-map generator: n = 256 in a 100 x 100 window
    rng = random.Random(seed)
    spread = 100.0 / math.sqrt(256)
    disks, txs = [], []
    for _ in range(256):
        ir = rng.uniform(0.5, 1.5) * spread
        c = Point2(rng.uniform(0.3, 99.7), rng.uniform(0.3, 99.7))
        txs.append(Disk(c, max(1e-4, rng.uniform(0.5, 1.0) * ir)))
        disks.append(Disk(c, ir))
    sites = _static_map_sites(disks, txs, Rect(0.0, 0.0, 100.0, 100.0))
    assert len(sites) > 150
    assert sum(bool(_same_as_reference(*site)) for site in sites) > 60


@pytest.mark.parametrize("share", [0.6, 1.0])
@pytest.mark.parametrize("disks", [GRID6, COCIRCULAR], ids=["grid6x6", "cocircular"])
def test_boolean_chains_equals_the_reference_on_cocircular_cells(disks, share):
    # many circles cross in one point and rims touch cell corners here
    txs = [Disk(d.center, share * d.radius) for d in disks]
    for site in _static_map_sites(disks, txs, Rect(0, 0, 60, 60)):
        _same_as_reference(*site)


def _margin_cases():
    include = Disk(Point2(0, 0), 1.0)
    small = ConvexPolygon((Point2(0.1, 0.1), Point2(0.4, 0.1), Point2(0.2, 0.3)))
    cover = Disk(Point2(0.2, 0.2), 0.5)
    cases = [(BIG, include, [Disk(Point2(0.3, 0), 1.3 + 2.0 * MARGIN)]),
             (small, include, [cover, Disk(Point2(3, 0), 2.5)])]
    for gap in (-0.5, 0.0, 0.5, 2.0):
        thin = ConvexPolygon((Point2(0.1, 0.1), Point2(0.7 + gap * MARGIN, 0.2),
                              Point2(0.2, 0.3)))
        cases += [(BIG, include, [Disk(Point2(0.3, 0), 1.3 - gap * MARGIN)]),
                  (thin, include, [cover])]
        rim = Point2((1.0 + gap * MARGIN) * math.cos(1.0), (1.0 + gap * MARGIN) * math.sin(1.0))
        cases.append((BIG, include, [Disk(Point2(1.6, 0.3), dist(Point2(1.6, 0.3), rim)),
                                     Disk(Point2(1.4, -1.2), 1.1),
                                     Disk(Point2(-0.1, 1.7), dist(Point2(-0.1, 1.7), rim))]))
        top = 1.0 + gap * MARGIN
        cases.append((ConvexPolygon((Point2(-2, -2), Point2(2, -2), Point2(2, top),
                                     Point2(-2, top))), include, []))
    return cases


FIVE_CURVES = (ConvexPolygon((Point2(-2, -2), Point2(3, -2), Point2(1, 0), Point2(-2, 2))),
               Disk(Point2(0, 0), 1.0),
               [Disk(Point2(2, 0), 1.0), Disk(Point2(1, 1), 1.0), Disk(Point2(-1, -1), 0.5)])
HOLE_AND_TANGENTS = (BIG, Disk(Point2(0, 0), 1.5),
                     [Disk(Point2(0.8, 0), 0.7), Disk(Point2(-0.2, 0), 0.3),
                      Disk(Point2(-0.5, 0.9), 0.2)])


@pytest.mark.parametrize("case", [FIVE_CURVES, HOLE_AND_TANGENTS, *_margin_cases()])
def test_boolean_chains_equals_the_reference_on_tangent_hole_and_margin_cases(case):
    _same_as_reference(*case, MARGIN_EPS)


def _toward_the_probe(c: Point2, r: float) -> Point2:
    """The point at distance r from ``c`` at 1 radian, where ``boolean_rows``
    probes a circle that no other curve meets."""
    return Point2(c.x + r * math.cos(1.0), c.y + r * math.sin(1.0))


def _cell_tangent_at_the_probe(c: Point2, r: float) -> ConvexPolygon:
    """An 8 x 8 square whose side touches the circle (c, r) at its probe
    point, with the circle inside."""
    u, t = (math.cos(1.0), math.sin(1.0)), (-math.sin(1.0), math.cos(1.0))
    h = c.x * u[0] + c.y * u[1] + r
    return ConvexPolygon(tuple(Point2(a * u[0] + b * t[0], a * u[1] + b * t[1])
                               for a, b in ((h, -4.0), (h, 4.0), (h - 8.0, 4.0), (h - 8.0, -4.0))))


def _tangent_at_the_probe_cases():
    unit = Disk(Point2(0, 0), 1.0)
    inner = Disk(_toward_the_probe(Point2(0, 0), 0.6), 0.4)
    # overlapping by a quarter eps, so that it surely meets the include disk
    outer = Disk(_toward_the_probe(Point2(0, 0), 1.4 - 0.25 * MARGIN_EPS), 0.4)
    big = Disk(Point2(0, 0), 2.0)
    small = Disk(Point2(0.2, -0.3), 0.5)
    h = 0.2 * math.cos(1.0) - 0.3 * math.sin(1.0) + 0.5  # the cut side's distance from 0
    cut = 4.0 * math.pi - (4.0 * math.acos(h / 2.0) - h * math.sqrt(4.0 - h * h))
    return [(BIG, unit, [inner], [unit, inner], math.pi * (1.0 - 0.16)),
            (BIG, unit, [outer], [unit], math.pi),
            (_cell_tangent_at_the_probe(Point2(0, 0), 1.0), unit, [], [unit], math.pi),
            (_cell_tangent_at_the_probe(small.center, 0.5), big, [small], [small],
             cut - 0.25 * math.pi)]


@pytest.mark.parametrize("case", _tangent_at_the_probe_cases(),
                         ids=["exclude-inside", "exclude-outside", "edge-include", "edge-exclude"])
def test_a_circle_tangent_at_the_probe_point_gets_a_touching_event(case):
    # a circle with an event is cut there, so its arc starts at the probe
    # angle; a circle without one would be a whole arc from angle 0
    cell, include, excludes, touched, area = case
    got = _same_as_reference(cell, include, excludes, MARGIN_EPS)
    arcs = [e for ap in got for c in (ap, *ap.holes) for e in c.edges]
    for disk in touched:
        assert any(e.supporting_disk == disk and abs(e.start_angle - 1.0) < 1e-6
                   for e in arcs if isinstance(e, CircularArc)), disk
    assert abs(sum(arc_polygon_area(ap) for ap in got) - area) < 1e-9


# ``boolean_rows`` computes every row of a batch in lockstep; each row must
# equal the reference, float for float, whatever else shares its batch.

def _rows_equal_reference(rows, eps):
    """Run ``boolean_rows`` on ``rows`` of (cell, include, excludes) and
    compare each row with the reference."""
    want = []
    for cell, include, excludes in rows:
        try:
            want.append(boolean_chains_reference(cell, include, excludes, eps))
        except InvalidChain:
            with pytest.raises(InvalidChain):
                boolean_rows(*zip(*rows), eps)
            return None
    got = boolean_rows(*zip(*rows), eps) if rows else boolean_rows([], [], [], eps)
    assert got.chains == want
    assert got.empty == sum(not w for w in want)
    return got


@st.composite
def _maps(draw):
    """Small maps whose centres lie on a half-unit lattice and whose radii
    are half-units too, so circles are often tangent, cocircular, shared
    (the include equal to its own interference circle) or concentric."""
    n = draw(st.integers(1, 9))
    half = st.integers(1, 15).map(lambda k: 0.5 * k)
    disks, txs, seen = [], [], set()
    for _ in range(n):
        x, y, r = draw(half), draw(half), draw(st.integers(1, 6).map(lambda k: 0.5 * k))
        if (x, y, r) in seen:
            continue
        seen.add((x, y, r))
        disks.append(Disk(Point2(x, y), r))
        txs.append(Disk(Point2(x, y), r * draw(st.sampled_from([0.5, 0.75, 1.0]))))
    return disks, txs


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=_maps())
def test_boolean_rows_equal_the_reference_on_random_small_maps(case):
    disks, txs = case
    window = Rect(0.0, 0.0, 8.0, 8.0)
    pd = build(disks, window)
    sites = [p for p in range(len(disks)) if pd.cells[p] is not None]
    rows = [(pd.cells[p], txs[p], [disks[q] for q in sorted(pd.neighbors[p])]) for p in sites]
    got = _rows_equal_reference(rows, pd.eps)
    for ap in (ap for chains in (got.chains if got else []) for ap in chains):
        ap.validate(pd.eps)  # trusted by the area step, and metrically sound


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=_maps(),
       probes=st.lists(st.builds(Point2, st.floats(-0.5, 8.5), st.floats(-0.5, 8.5)),
                       min_size=30, max_size=30))
def test_arc_polygon_contains_equals_the_ray_cast_on_random_small_maps(case, probes):
    disks, txs = case
    window = Rect(0.0, 0.0, 8.0, 8.0)
    pd = build(disks, window)
    sites = [p for p in range(len(disks)) if pd.cells[p] is not None]
    rows = boolean_rows([pd.cells[p] for p in sites], [txs[p] for p in sites],
                        [[disks[q] for q in sorted(pd.neighbors[p])] for p in sites], pd.eps)
    _contains_like_the_ray_cast([ap for c in rows.chains for ap in c],
                                probes + LATTICE_PROBES[::3], pd.eps)


def _numpy_rounds_differently(rng, tries):
    """Rows of the unit include circle and one exclude that crosses it:
    four whose centre distance numpy's ``hypot`` rounds differently from
    ``math``'s, and eight with a crossing angle that numpy's ``arctan2``
    does."""
    by_hypot, by_atan2 = [], []
    for _ in range(tries):
        ex, ey, er = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0.3, 1.2)
        d = math.hypot(ex, ey)
        mx, my, ox, oy, n = circle_circle_points(0.0, 0.0, 1.0, ex, ey, er, d)
        if n != 2:
            continue
        row = (BIG, Disk(Point2(0.0, 0.0), 1.0), [Disk(Point2(ex, ey), er)])
        angles = [(y - cy, x - cx) for x, y in ((mx + ox, my + oy), (mx - ox, my - oy))
                  for cx, cy in ((0.0, 0.0), (ex, ey))]
        if np.hypot(ex, ey) != d and len(by_hypot) < 4:
            by_hypot.append(row)
        elif any(np.arctan2(*a) != math.atan2(*a) for a in angles) and len(by_atan2) < 8:
            by_atan2.append(row)
        if len(by_hypot) + len(by_atan2) == 12:
            return by_hypot + by_atan2
    raise AssertionError(f"found {len(by_hypot)} and {len(by_atan2)} rows")


def test_boolean_rows_match_math_where_numpy_rounds_differently():
    rows = _numpy_rounds_differently(random.Random(17), 20000)
    got = _rows_equal_reference(rows, MARGIN_EPS)
    assert all(got.chains)


def test_boolean_rows_keep_input_order_across_empty_hole_and_full_circle_rows(monkeypatch):
    include = Disk(Point2(0, 0), 1.0)
    hole = (BIG, Disk(Point2(0, 0), 1.5), [Disk(Point2(0.2, 0.1), 0.4)])
    full = (BIG, include, [Disk(Point2(9, 9), 1.0)])
    deep = (BIG, include, [Disk(Point2(0.1, 0), 3.0)])  # the include lies deep in it
    tiny = (BIG, Disk(Point2(0, 0), 1e-12), [])  # no larger than eps
    lens = (BIG, include, [Disk(Point2(1.5, 0), 1.0)])
    cut = (ConvexPolygon((Point2(0, -2), Point2(2, -2), Point2(2, 2), Point2(0, 2))), include, [])
    rows = [hole, deep, full, tiny, lens, cut, deep, hole]
    got = _rows_equal_reference(rows, MARGIN_EPS)
    assert [len(c) for c in got.chains] == [1, 0, 1, 0, 1, 1, 0, 1]
    assert got.chains[0][0].holes and got.chains[0] == got.chains[7]
    assert got.chains[2][0].edges == (CircularArc(include, 0.0, 0.0),)
    assert got.chains == [boolean_chains(*row, MARGIN_EPS) for row in rows]
    assert boolean_rows(*zip(*rows[::-1]), MARGIN_EPS).chains == got.chains[::-1]
    # in chunks of three rows, every chunk mixes them again
    monkeypatch.setattr(geometry, "_BOOLEAN_CHUNK", 3)
    assert _rows_equal_reference(rows, MARGIN_EPS).chains == got.chains
    assert _rows_equal_reference([], MARGIN_EPS).chains == []


@pytest.mark.parametrize("curve_scale", [1, 2 ** 50])  # packed into one integer; too wide
def test_sorted_events_order_by_curve_position_and_key(curve_scale):
    rng = np.random.default_rng(3)
    n, W = 600, 9
    pos = rng.choice([0.0, -0.0, 0.5, 1.0, 2.0, 6.25], n)  # ties, signed zeros
    # each event's (curve, key) is distinct, as the kernel's are
    curve, kind, ka, kb, kj = np.unravel_index(rng.choice(20 * 3 * W * W * 2, n, replace=False),
                                               (20, 3, W, W, 2))
    curve = curve * curve_scale
    node = np.arange(n)
    got = geometry._sorted_events([(curve, pos, kind, ka, kb, kj, node, node, pos)], W)
    want = np.lexsort((((kind * W + ka) * W + kb) * 2 + kj, pos, curve))
    assert got[2].tolist() == want.tolist()


# One rounding test: ``side``'s tolerance, the same on floats and arrays.

def _written_in_src(expression: str) -> list[str]:
    src = Path(geometry.__file__).parent
    return [f"{f.relative_to(src)}:{n}" for f in sorted(src.rglob("*.py"))
            for n, line in enumerate(f.read_text().splitlines(), 1) if expression in line]


def test_the_rounding_expression_is_written_once_in_src():
    found = _written_in_src("1e-12 * (1.0 + abs(")
    assert len(found) == 1, found


# One map tolerance: geom_eps of the window's diameter, in both engines.

def _geom_eps_arguments() -> list[tuple[str, str]]:
    """(function, argument) of every ``geom_eps(...)`` call in ``src/``."""
    out = []
    for f in sorted(Path(geometry.__file__).parent.rglob("*.py")):
        tree = ast.parse(f.read_text())
        for top in tree.body:
            for fn in [top] if not isinstance(top, ast.ClassDef) else top.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                name = f"{top.name}.{fn.name}" if fn is not top else fn.name
                out += [(name, ast.unparse(node.args[0])) for node in ast.walk(fn)
                        if isinstance(node, ast.Call)
                        and getattr(node.func, "id", "") == "geom_eps"]
    return out


def test_the_map_tolerance_is_the_window_diameters_in_src():
    calls = _geom_eps_arguments()
    assert calls and all(arg.endswith("window.diameter()") for _, arg in calls), calls


def test_both_engines_cut_at_the_window_tolerance_when_a_disk_outgrows_the_window():
    window = Rect(0.0, 0.0, 10.0, 10.0)
    rng = random.Random(23)
    txs = [ProtocolTransmitter(Point2(rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5)),
                               0.7 * r, r) for r in (rng.uniform(0.5, 2.0) for _ in range(40))]
    big = ProtocolTransmitter(Point2(6.0, 4.0), 3.0, 20.0)  # covers the window
    txs.insert(17, big)
    assert geom_eps(big.int_radius) > geom_eps(window.diameter())  # a disk's scale differs
    dc = DynamicCoverage(window)
    for t in txs:
        dc.insert_transmitter(t)
    static = compute_coverage_map(txs, window)
    assert static.diagram.eps == dc.eps == geom_eps(window.diameter())
    areas = dc.region_areas()
    assert [areas[k] for k in sorted(areas)] == [region_area(static, p) for p in range(len(txs))]
    assert [p for p in range(len(txs)) if region_area(static, p) > 0.0] == [17]


@pytest.mark.parametrize("expression", [
    "r * r - (px * px + py * py)",  # segment x circle: the root offset at the foot
    "(d * d + r1 * r1 - r2 * r2) / (2.0 * d)",  # circle x circle: the chord's distance
    "dx * dx + dy * dy - r * r",  # the power of a point: every midpoint test
])
def test_the_root_and_keep_formulas_are_written_once_in_src(expression):
    found = _written_in_src(expression)
    assert len(found) == 1, found


def test_side_and_bisector_line_on_arrays_equal_the_scalar_results():
    rng = random.Random(5)
    a = [rng.uniform(-1e3, 1e3) for _ in range(400)]
    # ties within the tolerance, just beyond it, exact ties, signed zeros, NaN
    b = [x + rng.choice((0.0, 1.0, -1.0)) * rng.choice((1e-13, 1e-10, 2.0)) * (1.0 + 2.0 * abs(x))
         for x in a]
    a += [0.0, -0.0, 1.0, math.nan, 1.0, math.nan, 1.0 - 1e-13, 1.0 - 1e-11]
    b += [-0.0, 0.0, 1.0, 1.0, math.nan, math.nan, 1.0, 1.0]
    got = geometry.side(np.array(a), np.array(b))
    assert got.tolist() == [geometry.side(x, y) for x, y in zip(a, b)]
    assert {geometry.side(x, y) for x, y in zip(a, b)} == {-1, 0, 1}
    circles = [(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(0, 9)) for _ in range(200)]
    circles[7] = (math.nan, 1.0, 2.0)
    lines = bisector_line(np.array(circles[:100]).T, np.array(circles[100:]).T)
    for i, c in enumerate(zip(*lines)):
        want = bisector_line(circles[i], circles[100 + i])
        assert repr(tuple(map(float, c))) == repr(want), i


# ``clip_rows`` cuts every row of a batch in lockstep; each row must equal,
# float for float, ``clip_coords`` chained over its lines.

def _chained(pts, circles, own, cuts, eps):
    """Reference: the row cut cut by cut, with the count of cuts applied to
    a non-empty row and of those that left it unchanged."""
    c, made, unchanged = circles[own], 0, 0
    for k in cuts:
        o = circles[k]
        made += 1
        if math.hypot(c[0] - o[0], c[1] - o[1]) <= eps:
            if c[2] > o[2]:
                unchanged += 1
                continue
            return None, made, unchanged
        out = clip_coords(pts, *bisector_line(c, o))
        unchanged += out is pts
        if out is None:
            return None, made, unchanged
        pts = out
    return pts, made, unchanged


def _check_rows(polys, circles, rows, eps=1e-9):
    """Run ``clip_rows`` on ``rows`` of (poly, own, cuts) and compare every
    row and both counters with ``_chained``."""
    width = max((len(cuts) for _, _, cuts in rows), default=0)
    cuts = np.array([list(c) + [-1] * (width - len(c)) for _, _, c in rows], dtype=int)
    cuts = cuts.reshape(len(rows), width)
    got = clip_rows([ConvexPolygon(tuple(Point2(*v) for v in p)) for p in polys],
                    np.array(circles, dtype=float), np.array([p for p, _, _ in rows], dtype=int),
                    np.array([o for _, o, _ in rows], dtype=int), cuts, eps)
    pts, a = list(map(tuple, got.xy.tolist())), 0
    made = unchanged = 0
    out = []
    for (p, own, row_cuts), size in zip(rows, got.sizes.tolist()):
        want, m, u = _chained(list(polys[p]), circles, own, row_cuts, eps)
        made, unchanged = made + m, unchanged + u
        assert (pts[a:a + size] if size else None) == want
        out.append(want)
        a += size
    assert a == len(pts) and got.xy.shape == (a, 2)
    assert (got.cuts, got.unchanged) == (made, unchanged)
    return out


def _ngon(cx, cy, r, angles):
    return [(cx + r * math.cos(t), cy + r * math.sin(t)) for t in sorted(set(angles))]


@st.composite
def _batches(draw):
    """Convex polygons of 3-12 vertices and rows of 0-8 cuts each.  A cut
    circle is random, or made so the line runs through a vertex of the
    row's polygon (``side`` 0 there), or far off on either side, or
    concentric with the row's own circle."""
    coord = st.floats(-3.0, 3.0)
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        angles = draw(st.lists(st.floats(0.0, 6.28), min_size=3, max_size=12,
                               unique_by=lambda t: round(t, 3)))
        polys.append(_ngon(draw(coord), draw(coord), draw(st.floats(0.5, 3.0)), angles))
    circles, rows = [], []
    for _ in range(draw(st.integers(1, 8))):
        p = draw(st.integers(0, len(polys) - 1))
        own = len(circles)
        cx, cy, r = draw(coord), draw(coord), draw(st.floats(0.0, 2.0))
        circles.append((cx, cy, r))
        cuts = []
        for _ in range(draw(st.integers(0, 8))):
            kind = draw(st.sampled_from(["random", "random", "vertex", "far", "concentric"]))
            if kind == "random":
                c = (draw(coord), draw(coord), draw(st.floats(0.0, 2.0)))
            elif kind == "vertex":
                vx, vy = draw(st.sampled_from(polys[p]))
                t, d = draw(st.floats(0.0, 6.28)), draw(st.floats(0.1, 4.0))
                ox, oy = vx + d * math.cos(t), vy + d * math.sin(t)
                r2 = (vx - ox) ** 2 + (vy - oy) ** 2 - (vx - cx) ** 2 - (vy - cy) ** 2 + r * r
                c = (ox, oy, math.sqrt(max(r2, 0.0)))
            elif kind == "far":
                c = (cx + 0.5, cy, r + draw(st.sampled_from([-1.0, 1.0])) * 30.0)
            else:
                c = (cx, cy, draw(st.floats(0.0, 4.0)))
            if c[2] < 0.0:
                c = (c[0], c[1], 0.0)
            cuts.append(len(circles))
            circles.append(c)
        rows.append((p, own, cuts))
    return polys, circles, rows


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(batch=_batches())
def test_clip_rows_equals_chained_clip_coords(batch):
    _check_rows(*batch)


SQUARE_POLY = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
# circles: 0 and 1 bisect at x + y = 3.5 (a corner of the square); 2 at x = 1
# from 0's side; 3 and 4 concentric with 0, smaller and larger
CIRCLES = [(0.0, 0.0, 1.0), (3.5, 3.5, 1.0), (2.0, 0.0, 1.0), (0.0, 0.0, 0.5),
           (0.0, 0.0, 2.0), (0.0, 0.0, 3.0)]


def test_clip_rows_grows_past_the_starting_width_and_empties_rows():
    rows = [(0, 0, [1]),  # the square loses a corner: 5 vertices, wider than 4
            (0, 0, [2, 1]),  # then x <= 1 leaves a rectangle
            (1, 0, [4]),  # concentric, the smaller: empty
            (1, 5, [0, 4]),  # concentric, the larger: both cuts skipped
            (1, 0, []),
            (0, 0, [2, 3, 1])]
    out = _check_rows([SQUARE_POLY, TRIANGLE], CIRCLES, rows)
    assert len(out[0]) == 5 and len(out[1]) == 4
    assert out[2] is None and out[3] == TRIANGLE and out[4] == TRIANGLE
    assert out[5][0] == (0.0, 0.0)


def test_clip_rows_on_a_batch_of_one_and_on_no_rows():
    assert _check_rows([SQUARE_POLY], CIRCLES, [(0, 0, [2])]) == [
        [(0.0, 0.0), (1.0, 0.0), (1.0, 2.0), (0.0, 2.0)]]
    _check_rows([SQUARE_POLY], CIRCLES, [])


def test_clip_rows_runs_more_rows_than_a_chunk():
    rng = random.Random(9)
    circles = [(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0, 1.5)) for _ in range(60)]
    rows = [(rng.randrange(2), rng.randrange(60), rng.sample(range(60), rng.randrange(9)))
            for _ in range(2 * geometry._CHUNK + 7)]
    rows = [(p, own, [k for k in cuts if k != own]) for p, own, cuts in rows]
    _check_rows([_ngon(0.0, 0.0, 2.0, [0.1 * i for i in range(0, 60, 7)]), TRIANGLE],
                circles, rows)
