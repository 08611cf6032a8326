"""Power diagram construction, frames, and redundant-disk removal."""

import math
import random
import time
from typing import Optional, Sequence

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from coveragekit.errors import DiagramRejected, DuplicateSite
from coveragekit.geometry import (ConvexPolygon, Disk, Point2, Rect, geom_eps,
                                  power_distance, side)
from coveragekit.dynamic_coverage.shuffle import _mega_square
from coveragekit import geometry, power_diagram
from coveragekit.power_diagram import (PowerDiagram, SiteId, build, frame_partitions,
                                       _clip_cell, _flat_neighbors, _validate)

from geometry_reference import (ConcentricDisks, clip_convex, polygon_area, polygon_contains,
                                power_bisector)
from power_diagram_reference import HiddenSite, nearest_site, power_frame, remove_redundant
from oracles import grid_power_cell_areas

WIN = Rect(-6, -6, 6, 6)


# The reference: a quadratic direct construction, each site clipped against
# all others, and adjacency by 1-D feasibility along every bisector.

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


def _build_direct(disks: Sequence[Disk], window: Rect) -> PowerDiagram:
    _validate(disks, window)
    n, scale = len(disks), window.diameter()
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
                        hidden=hidden, eps=eps)


THREE_COLLINEAR = [Disk(Point2(0, 0), 10.0), Disk(Point2(2, 0), 1.0),
                   Disk(Point2(4, 0), 10.0)]


def random_disks(rng, n, window=WIN, rmin=0.3, rmax=2.5):
    disks = []
    while len(disks) < n:
        d = Disk(Point2(rng.uniform(window.x0 + 0.2, window.x1 - 0.2),
                        rng.uniform(window.y0 + 0.2, window.y1 - 0.2)),
                 rng.uniform(rmin, rmax))
        disks.append(d)
    return disks


def test_single_disk_cell_is_window():
    pd = build([Disk(Point2(0, 0), 1.0)], WIN)
    assert polygon_area(pd.cells[0]) == pytest.approx(WIN.area())
    assert pd.neighbors[0] == frozenset()
    assert not pd.hidden


def test_two_equal_disks_split_at_midline():
    pd = build([Disk(Point2(0, 0), 1.0), Disk(Point2(4, 0), 1.0)], WIN)
    a0 = polygon_area(pd.cells[0])
    a1 = polygon_area(pd.cells[1])
    assert a0 + a1 == pytest.approx(WIN.area())
    # split at x = 2 inside a [-6,6] window: left part is 8/12 of the width
    assert a0 == pytest.approx(WIN.area() * 8 / 12)
    assert pd.neighbors[0] == frozenset({1})
    assert pd.neighbors[1] == frozenset({0})


def test_three_collinear_middle_hidden():
    pd = build(THREE_COLLINEAR, WIN)
    assert pd.cells[1] is None
    assert 1 in pd.hidden
    assert pd.cells[0] is not None and pd.cells[2] is not None


def test_duplicate_disks_rejected():
    with pytest.raises(DuplicateSite):
        build([Disk(Point2(0, 0), 1.0), Disk(Point2(0, 0), 1.0)], WIN)


def test_center_outside_window_rejected():
    with pytest.raises(ValueError):
        build([Disk(Point2(99, 0), 1.0)], WIN)


def test_partition_property_random():
    rng = random.Random(5)
    disks = random_disks(rng, 12)
    pd = build(disks, WIN)
    eps = 1e-9 * WIN.diameter()
    hits = 0
    for _ in range(20000):
        x = Point2(rng.uniform(WIN.x0, WIN.x1), rng.uniform(WIN.y0, WIN.y1))
        vals = sorted((power_distance(x, d), i) for i, d in enumerate(disks))
        if vals[1][0] - vals[0][0] <= eps * WIN.diameter():
            continue  # boundary tie
        best = vals[0][1]
        containing = [i for i, c in pd.cells.items()
                      if c is not None and polygon_contains(c, x, tol=1e-9)]
        assert best in containing
        hits += 1
    assert hits > 15000


def test_edge_bound():
    rng = random.Random(17)
    for n in (3, 5, 9, 16, 25):
        disks = random_disks(rng, n)
        pd = build(disks, WIN)
        assert pd.edge_count() <= 3 * n - 6 or n < 3


def test_equal_radii_matches_euclidean_voronoi():
    rng = random.Random(23)
    disks = random_disks(rng, 10, rmin=1.0, rmax=1.0)
    pd = build(disks, WIN)
    assert not pd.hidden
    for _ in range(5000):
        x = Point2(rng.uniform(-6, 6), rng.uniform(-6, 6))
        d2 = [(x.x - d.center.x) ** 2 + (x.y - d.center.y) ** 2 for d in disks]
        order = sorted(range(10), key=lambda i: d2[i])
        if d2[order[1]] - d2[order[0]] < 1e-9:
            continue
        assert polygon_contains(pd.cells[order[0]], x, tol=1e-9)


def test_direct_and_lifted_builds_agree():
    rng = random.Random(41)
    disks = random_disks(rng, 24)
    a = _build_direct(disks, WIN)
    b = build(disks, WIN)
    assert a.hidden == b.hidden
    for i in range(24):
        ca, cb = a.cells[i], b.cells[i]
        if ca is None or cb is None:
            assert ca is None and cb is None
            continue
        assert polygon_area(ca) == pytest.approx(polygon_area(cb), rel=1e-9, abs=1e-9)
    for i in range(24):
        if i not in a.hidden:
            assert a.neighbors[i] == b.neighbors[i]


def test_power_frame_two_sites():
    pd = build([Disk(Point2(-2, 0), 1.0), Disk(Point2(2, 0), 1.0)], WIN)
    f = power_frame(pd, 0)
    assert set(f.partitions) == {1}
    assert polygon_area(f.partitions[1]) == pytest.approx(polygon_area(pd.cells[0]))


def test_power_frame_symmetric_cross():
    disks = [Disk(Point2(0, 0), 0.5), Disk(Point2(1, 0), 0.5), Disk(Point2(-1, 0), 0.5),
             Disk(Point2(0, 1), 0.5), Disk(Point2(0, -1), 0.5)]
    pd = build(disks, WIN)
    f = power_frame(pd, 0)
    assert set(f.partitions) == {1, 2, 3, 4}
    areas = [polygon_area(f.partitions[q]) for q in (1, 2, 3, 4)]
    for a in areas:
        assert a == pytest.approx(areas[0], rel=1e-9)
    total = sum(areas)
    assert total == pytest.approx(polygon_area(pd.cells[0]), rel=1e-9)


def test_power_frame_partition_label_is_argmin():
    for n in (10, 64):
        rng = random.Random(6)
        disks = random_disks(rng, n)
        pd = build(disks, WIN)
        p = next(i for i in range(n) if pd.cells.get(i) is not None)
        frame = power_frame(pd, p)
        gamma = sorted(pd.neighbors[p])
        cell = pd.cells[p]
        assert sum(polygon_area(piece) for piece in frame.partitions.values()) == \
            pytest.approx(polygon_area(cell), rel=1e-9)
        xs = [v.x for v in cell.vertices]
        ys = [v.y for v in cell.vertices]
        checked = 0
        for _ in range(10000):
            x = Point2(rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
            if not polygon_contains(cell, x, tol=-1e-7):  # strictly interior
                continue
            vals = sorted((power_distance(x, pd.sites[q]), q) for q in gamma)
            if len(vals) > 1 and vals[1][0] - vals[0][0] < 1e-7:
                continue
            label = None
            for q, piece in frame.partitions.items():
                if polygon_contains(piece, x, tol=-1e-9):
                    label = q
                    break
            if label is None:
                continue  # on a partition boundary
            assert label == vals[0][1]
            checked += 1
        assert checked > 1000


def test_power_frame_hidden_site_raises():
    pd = build(THREE_COLLINEAR, WIN)
    with pytest.raises(HiddenSite):
        power_frame(pd, 1)


def test_remove_redundant_three_collinear():
    kept, removed = remove_redundant(THREE_COLLINEAR, WIN)
    assert removed == [1]
    assert kept == [0, 2]


def test_remove_redundant_equal_radii_keeps_all():
    rng = random.Random(9)
    disks = random_disks(rng, 8, rmin=0.8, rmax=0.8)
    kept, removed = remove_redundant(disks, WIN)
    assert removed == []
    assert kept == list(range(8))


def test_remove_redundant_single():
    kept, removed = remove_redundant([Disk(Point2(0, 0), 2.0)], WIN)
    assert kept == [0] and removed == []


def test_removed_disks_are_covered_by_union():
    rng = random.Random(31)
    for _ in range(5):
        disks = random_disks(rng, 12, rmin=0.5, rmax=4.0)
        kept, removed = remove_redundant(disks, WIN)
        for r in removed:
            d = disks[r]
            for _ in range(1000):
                ang = rng.uniform(0, 2 * math.pi)
                rad = d.radius * math.sqrt(rng.uniform(0, 1))
                x = Point2(d.center.x + rad * math.cos(ang),
                           d.center.y + rad * math.sin(ang))
                assert any(power_distance(x, disks[o]) < 0
                           for o in range(12) if o != r), \
                    f"removed disk {r} exposes point {x}"


def test_nearest_site_helper():
    pd = build(THREE_COLLINEAR, WIN)
    assert nearest_site(pd, Point2(0, 0)) == 0
    assert nearest_site(pd, Point2(4, 0)) == 2


def test_three_collinear_hand_computed_bisectors():
    # middle disk loses to the left one beyond x = 25.75 and to the right
    # one below x = -21.75: an empty intersection
    h12 = power_bisector(THREE_COLLINEAR[1], THREE_COLLINEAR[0])
    assert h12.value(Point2(25.75, 3.0)) == pytest.approx(0.0)
    h12b = power_bisector(THREE_COLLINEAR[1], THREE_COLLINEAR[2])
    assert h12b.value(Point2(-21.75, -2.0)) == pytest.approx(0.0)


GRID6 = [Disk(Point2(5.0 + 10 * i, 5.0 + 10 * j), 6.0) for i in range(6) for j in range(6)]
COCIRCULAR = [Disk(Point2(30 + 20 * math.cos(k * math.pi / 6), 30 + 20 * math.sin(k * math.pi / 6)),
                   8.0) for k in range(12)] + [Disk(Point2(30.0, 30.0), 4.0)]


@pytest.mark.parametrize("disks", [GRID6, COCIRCULAR], ids=["grid6x6", "cocircular"])
def test_cells_and_frames_never_repeat_a_vertex(disks):
    # many bisectors meet in one point here, so cuts pass through vertices
    window = Rect(0, 0, 60, 60)
    for pd in (_build_direct(disks, window), build(disks, window)):
        assert sum(polygon_area(c) for c in pd.cells.values() if c) == pytest.approx(window.area())
        polys = [c for c in pd.cells.values() if c is not None]
        polys += [q for p in pd.cells if p not in pd.hidden
                  for q in power_frame(pd, p).partitions.values()]
        for poly in polys:
            pts = poly.vertices
            assert all(a != b for a, b in zip(pts, pts[1:] + pts[:1])), pts


@pytest.mark.parametrize("disks", [GRID6, COCIRCULAR], ids=["grid6x6", "cocircular"])
def test_lifted_neighbors_equal_the_reference_on_cocircular_layouts(disks):
    # Qhull splits a face of four cocircular sites into two triangles on one
    # plane; their diagonal touches the diagram in a point and is no edge
    window = Rect(0, 0, 60, 60)
    assert build(disks, window).neighbors == _build_direct(disks, window).neighbors


def _clip_reference(poly, h):
    """The clipper as it read over ``Point2`` objects before cells and
    frames moved onto the coordinate kernel: the arithmetic to match."""
    pts = poly.vertices
    dots = [h.nx * p.x + h.ny * p.y for p in pts]
    sides = [side(d, h.offset) for d in dots]
    if max(sides) <= 0:
        return poly
    if min(sides) >= 0:
        return None
    out = []
    for i in range(len(pts)):
        j = (i + 1) % len(pts)
        if sides[i] <= 0:
            out.append(pts[i])
        if sides[i] * sides[j] < 0:
            a, b = pts[i], pts[j]
            va, vb = dots[i] - h.offset, dots[j] - h.offset
            t = va / (va - vb)
            out.append(Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    return ConvexPolygon(tuple(out))


def _clip_in_order(poly, disks, q, order):
    """``poly`` cut by ``power_bisector(disks[q], disks[r])`` for each r in
    ``order``, by ``clip_convex`` and by the reference; both must agree."""
    for r in order:
        if r == q:
            continue
        try:
            h = power_bisector(disks[q], disks[r])
        except ConcentricDisks:  # the larger of two concentric disks wins
            if disks[q].radius > disks[r].radius:
                continue
            return None
        ref = _clip_reference(poly, h)
        poly = clip_convex(poly, h)
        assert _coords(poly) == _coords(ref)
        if poly is None:
            return None
    return poly


def _coords(poly):
    return None if poly is None else [(v.x, v.y) for v in poly.vertices]


DIAGRAM_WIN = Rect(0, 0, 100, 100)


def road(n, slope=0.0, icpt=50.0, seed=1):
    """Transmitters along a road: centers drawn along y = slope * x + icpt."""
    rng = random.Random(seed)
    disks = []
    for _ in range(n):
        x = rng.uniform(1.0, 99.0)
        disks.append(Disk(Point2(x, slope * x + icpt), rng.uniform(0.5, 1.5) * 100.0 / n))
    return disks


def ring(n):
    """Equal disks around a stadium: cocircular centers, a coplanar lift."""
    return [Disk(Point2(50.0 + 30.0 * math.cos(2.0 * math.pi * k / n),
                        50.0 + 30.0 * math.sin(2.0 * math.pi * k / n)), 60.0 * math.pi / n)
            for k in range(n)]


SMALL = [Disk(Point2(30, 40), 5.0), Disk(Point2(60, 45), 8.0), Disk(Point2(45, 70), 2.0)]
FLAT = {
    "road": road(64),
    "diagonal-road": road(64, 0.3, 10.0),
    "ring": ring(64),
    "n1": SMALL[:1],
    "n2": SMALL[:2],
    "n3": SMALL,
    "concentric": [Disk(Point2(40, 60), r) for r in (3.0, 7.5, 1.0)],
    # the middle point (t, t^2 - r^2) lies on the chain between the others
    "collinear-tie": [Disk(Point2(50 + t, 50), r) for t, r in ((0, 1.0), (1, 2.0), (2, 3.0))],
    # the last center lies on a hull edge, its lifted point on the plane
    "hull-edge-site": [Disk(Point2(50 + x, 50 + y), 2.5) for x, y in
                       ((-2, -2), (2, -2), (2, 2), (-2, 2))] + [Disk(Point2(52, 50), 1.5)],
}


def layout(name):
    """Disks and window of a named test layout."""
    if name.startswith("random"):
        return random_disks(random.Random(3), int(name[6:])), WIN
    if name == "collinear40":
        return [Disk(Point2(-5.5 + 11.0 * i / 39, 0.0), 0.2 + 0.01 * (i % 5))
                for i in range(40)], WIN
    if name == "shared-center-road":  # a road with two more disks on its sites' centers
        base = FLAT["road"]
        return base + [Disk(base[5].center, 2.0 * base[5].radius),
                       Disk(base[9].center, 0.5 * base[9].radius)], DIAGRAM_WIN
    if name in ("road256", "ring256"):
        return (road(256) if name == "road256" else ring(256)), DIAGRAM_WIN
    return {"grid6x6": GRID6, "cocircular": COCIRCULAR, **FLAT}[name], \
        (Rect(0, 0, 60, 60) if name in ("grid6x6", "cocircular") else DIAGRAM_WIN)


def lift(disks):
    return [(d.center.x, d.center.y, d.center.x ** 2 + d.center.y ** 2 - d.radius ** 2)
            for d in disks]


@pytest.mark.parametrize("name", ["random10", "random64", "grid6x6", "cocircular", *FLAT])
def test_cells_and_frames_clip_like_clip_convex(name):
    disks, window = layout(name)
    n = len(disks)
    routes = [(_build_direct(disks, window), True),
              (build(disks, window), False)]
    for pd, direct in routes:
        for i, cell in pd.cells.items():
            order = range(n) if direct else sorted(pd.neighbors[i])
            want = None if i in pd.hidden else _clip_in_order(window.to_polygon(), disks, i, order)
            assert _coords(cell) == _coords(want), (name, direct, i)
            if cell is None:
                continue
            gamma = sorted(pd.neighbors[i])
            parts = power_frame(pd, i).partitions
            for q in gamma:
                want = _clip_in_order(cell, disks, q, gamma)
                assert _coords(parts.get(q)) == _coords(want), (name, direct, i, q)


@pytest.mark.parametrize("name", ["collinear40", *FLAT, "shared-center-road", "road256",
                                  "ring256"])
def test_flat_routes_match_the_direct_reference(name):
    # Qhull rejects these lifts; the centers' line or hull decides the diagram
    disks, window = layout(name)
    with pytest.raises(QhullError):
        ConvexHull(np.array(lift(disks)), qhull_options="Qt")
    pd = build(disks, window)
    ref = _build_direct(disks, window)
    assert pd.hidden == ref.hidden
    assert pd.neighbors == ref.neighbors
    for i, cell in pd.cells.items():
        if cell is None:
            assert ref.cells[i] is None
        else:
            assert polygon_area(cell) == pytest.approx(polygon_area(ref.cells[i]), rel=1e-9)


@pytest.mark.parametrize("offset", [(1e4, 1e4), (5e5, 4e6)])
@pytest.mark.parametrize("name", ["diagonal-road", "ring"])
def test_flat_routes_hold_at_projected_offsets(name, offset):
    # rounding leaves the shifted centers off their line or circle by about
    # an ulp of the offset; the lift is still flat at the scale Qhull sees
    disks, window = layout(name)
    ox, oy = offset
    shifted = [Disk(Point2(d.center.x + ox, d.center.y + oy), d.radius) for d in disks]
    pd = build(shifted, Rect(window.x0 + ox, window.y0 + oy, window.x1 + ox, window.y1 + oy))
    base = build(disks, window)
    assert pd.hidden == base.hidden
    assert pd.neighbors == base.neighbors


@pytest.mark.parametrize("name", ["road", "diagonal-road", "ring"])
def test_flat_route_areas_match_the_grid_oracle(name):
    disks, window = layout(name)
    pd = build(disks, window)
    n = 1000
    areas = grid_power_cell_areas(disks, window, n)
    h = window.width / n
    assert bool(pd.hidden) == (name != "ring")
    for i, cell in pd.cells.items():
        if cell is None:
            assert areas[i] == 0.0
            continue
        vs = cell.vertices
        # samples can be misassigned only within half a grid step of an edge
        l1 = sum(abs(a.x - b.x) + abs(a.y - b.y) for a, b in zip(vs, vs[1:] + vs[:1]))
        assert polygon_area(cell) == pytest.approx(areas[i], abs=0.5 * h * l1 + 4 * h * h)


def test_ring_of_2048_takes_the_hull_route():
    # site 0 with its two ring neighbours would fit the plane poorly; the
    # route fits it through well-spread sites and checks every lifted point
    disks = ring(2048)
    pd = build(disks, DIAGRAM_WIN)
    assert not pd.hidden
    assert pd.neighbors == {k: frozenset({(k - 1) % 2048, (k + 1) % 2048}) for k in range(2048)}
    assert sum(polygon_area(c) for c in pd.cells.values()) == pytest.approx(DIAGRAM_WIN.area(),
                                                                      rel=1e-9)


def test_road_build_doubling_exponent():
    sizes = [256, 512, 1024, 2048]
    times = []
    for n in sizes:
        disks = road(n)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            build(disks, DIAGRAM_WIN)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert slope <= 1.25, f"fitted exponent {slope:.3f} exceeds 1.25"


def test_build_turns_a_qhull_rejection_into_diagram_rejected():
    # c02's generator at projected coordinates: the lift is too flat for Qhull
    disks = [Disk(Point2(d.center.x + 5e5, d.center.y + 4e6), d.radius) for d in c02_disks(512)]
    with pytest.raises(DiagramRejected, match="^Qhull rejected the sites: QH") as raised:
        build(disks, Rect(5e5, 4e6, 5e5 + 100.0, 4e6 + 100.0))
    assert isinstance(raised.value.__cause__, QhullError)
    assert "\n" not in str(raised.value)


def test_plane_route_raises_again_on_a_full_rank_lift():
    disks = random_disks(random.Random(8), 6)
    err = QhullError("rejected")
    with pytest.raises(QhullError) as raised:
        _flat_neighbors(disks, lift(disks), err)
    assert raised.value is err


# the plane fitted through these three lifted points misses one of them by
# more than ``side``'s tolerance: the fit's own rounding
THREE_SITES_OFF_THEIR_OWN_PLANE = [(6.9575608472854515, 5.892727472131112, 0.5021986528163866),
                                   (1.296955174992834, 1.415957624862291, 1.7206462859359788),
                                   (2.486915201714077, 2.3733450693214104, 0.7544166707628057)]


def test_every_three_site_layout_builds():
    # Qhull rejects every lift of three points, and any three lie on a plane
    window = Rect(0.0, 0.0, 10.0, 10.0)
    rng = random.Random(3)
    layouts = [THREE_SITES_OFF_THEIR_OWN_PLANE] + [
        [(rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0.05, 2.0)) for _ in range(3)]
        for _ in range(300)]
    for layout in layouts:
        disks = [Disk(Point2(x, y), r) for x, y, r in layout]
        pd = build(disks, window)
        ref = _build_direct(disks, window)
        assert pd.hidden == ref.hidden and pd.neighbors == ref.neighbors, layout
        for i, cell in pd.cells.items():
            assert (cell is None) == (ref.cells[i] is None), layout
            if cell is not None:
                assert polygon_area(cell) == pytest.approx(polygon_area(ref.cells[i]),
                                                           rel=1e-9, abs=1e-12)


def c02_disks(n, seed=202):
    """Interference disks of c02's generator (100x100 window)."""
    rng = random.Random(seed)
    spread = 100.0 / math.sqrt(n)
    disks = []
    for _ in range(n):
        ir = rng.uniform(0.5, 1.5) * spread
        x, y = rng.uniform(0.3, 99.7), rng.uniform(0.3, 99.7)
        rng.uniform(0.5, 1.0)  # the transmission radius
        disks.append(Disk(Point2(x, y), ir))
    return disks


def test_all_frames_of_2048_sites_stay_within_a_fixed_memory_peak():
    # rows are cut in chunks, so the working arrays stay bounded; unchunked, this fails
    import tracemalloc
    pd = build(c02_disks(2048), DIAGRAM_WIN)
    owners = [p for p in sorted(pd.cells) if pd.cells[p] is not None]
    tracemalloc.start()
    try:
        rows = frame_partitions(pd, owners)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows.sizes) == sum(len(pd.neighbors[p]) for p in owners) > 8000
    assert peak < 4_000_000, peak


def test_cells_and_frames_make_no_per_polygon_clip(monkeypatch):
    def refused(*args):
        raise AssertionError("per-polygon clip_coords call")

    for module in (geometry, power_diagram):
        monkeypatch.setattr(module, "clip_coords", refused, raising=False)
    pd = build(c02_disks(256), DIAGRAM_WIN)
    assert frame_partitions(pd, [p for p in sorted(pd.cells) if pd.cells[p] is not None]
                            ).sizes.sum() > 0
    assert all(power_frame(pd, p).partitions for p in pd.cells if pd.cells[p] is not None)
