"""Power diagram construction, frames, and redundant-disk removal."""

import math
import random

import numpy as np
import pytest
from scipy.spatial import QhullError

from coveragekit.errors import DuplicateSite, HiddenSite
from coveragekit.geometry import (ConvexPolygon, Disk, Point2, Rect, clip_convex, power_bisector,
                                  power_distance, side)
from coveragekit.power_diagram import (build, nearest_site, power_frame,
                                       remove_redundant, _build_direct,
                                       _build_lifted, _validate)

WIN = Rect(-6, -6, 6, 6)

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
    assert pd.cells[0].area() == pytest.approx(WIN.area())
    assert pd.neighbors[0] == frozenset()
    assert not pd.hidden


def test_two_equal_disks_split_at_midline():
    pd = build([Disk(Point2(0, 0), 1.0), Disk(Point2(4, 0), 1.0)], WIN)
    a0 = pd.cells[0].area()
    a1 = pd.cells[1].area()
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
                      if c is not None and c.contains(x, tol=1e-9)]
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
        assert pd.cells[order[0]].contains(x, tol=1e-9)


def test_direct_and_lifted_builds_agree():
    rng = random.Random(41)
    disks = random_disks(rng, 24)
    scale = _validate(disks, WIN)
    a = _build_direct(disks, WIN, scale)
    b = _build_lifted(disks, WIN, scale)
    assert a.hidden == b.hidden
    for i in range(24):
        ca, cb = a.cells[i], b.cells[i]
        if ca is None or cb is None:
            assert ca is None and cb is None
            continue
        assert ca.area() == pytest.approx(cb.area(), rel=1e-9, abs=1e-9)
    for i in range(24):
        if i not in a.hidden:
            assert a.neighbors[i] == b.neighbors[i]


def test_power_frame_two_sites():
    pd = build([Disk(Point2(-2, 0), 1.0), Disk(Point2(2, 0), 1.0)], WIN)
    f = power_frame(pd, 0)
    assert set(f.partitions) == {1}
    assert f.partitions[1].area() == pytest.approx(pd.cells[0].area())


def test_power_frame_symmetric_cross():
    disks = [Disk(Point2(0, 0), 0.5), Disk(Point2(1, 0), 0.5), Disk(Point2(-1, 0), 0.5),
             Disk(Point2(0, 1), 0.5), Disk(Point2(0, -1), 0.5)]
    pd = build(disks, WIN)
    f = power_frame(pd, 0)
    assert set(f.partitions) == {1, 2, 3, 4}
    areas = [f.partitions[q].area() for q in (1, 2, 3, 4)]
    for a in areas:
        assert a == pytest.approx(areas[0], rel=1e-9)
    total = sum(areas)
    assert total == pytest.approx(pd.cells[0].area(), rel=1e-9)


def test_power_frame_partition_label_is_argmin():
    # n = 10 takes the direct top-level route, n = 64 the lifted one
    for n in (10, 64):
        rng = random.Random(6)
        disks = random_disks(rng, n)
        pd = build(disks, WIN)
        p = next(i for i in range(n) if pd.cells.get(i) is not None)
        frame = power_frame(pd, p)
        gamma = sorted(pd.neighbors[p])
        cell = pd.cells[p]
        assert sum(piece.area() for piece in frame.partitions.values()) == \
            pytest.approx(cell.area(), rel=1e-9)
        xs = [v.x for v in cell.vertices]
        ys = [v.y for v in cell.vertices]
        checked = 0
        for _ in range(10000):
            x = Point2(rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
            if not cell.contains(x, tol=-1e-7):  # strictly interior
                continue
            vals = sorted((power_distance(x, pd.sites[q]), q) for q in gamma)
            if len(vals) > 1 and vals[1][0] - vals[0][0] < 1e-7:
                continue
            label = None
            for q, piece in frame.partitions.items():
                if piece.contains(x, tol=-1e-9):
                    label = q
                    break
            if label is None:
                continue  # on a partition boundary
            assert label == vals[0][1]
            checked += 1
        assert checked > 1000


def test_build_falls_back_to_direct_on_qhull_error():
    # 40 collinear centres: the lifted points are coplanar, Qhull refuses
    disks = [Disk(Point2(-5.5 + 11.0 * i / 39, 0.0), 0.2 + 0.01 * (i % 5))
             for i in range(40)]
    scale = _validate(disks, WIN)
    with pytest.raises(QhullError):
        _build_lifted(disks, WIN, scale)
    pd = build(disks, WIN)
    ref = _build_direct(disks, WIN, scale)
    assert pd.cells == ref.cells
    assert pd.neighbors == ref.neighbors
    assert pd.hidden == ref.hidden


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
    from coveragekit.geometry import power_bisector
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
    for pd in (_build_direct(disks, window, 60.0), build(disks, window)):
        assert sum(c.area() for c in pd.cells.values() if c) == pytest.approx(window.area())
        polys = [c for c in pd.cells.values() if c is not None]
        polys += [q for p in pd.cells if p not in pd.hidden
                  for q in power_frame(pd, p).partitions.values()]
        for poly in polys:
            pts = poly.vertices
            assert all(a != b for a, b in zip(pts, pts[1:] + pts[:1])), pts


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
        h = power_bisector(disks[q], disks[r])
        ref = _clip_reference(poly, h)
        poly = clip_convex(poly, h)
        assert _coords(poly) == _coords(ref)
        if poly is None:
            return None
    return poly


def _coords(poly):
    return None if poly is None else [(v.x, v.y) for v in poly.vertices]


@pytest.mark.parametrize("layout", ["random10", "random64", "grid6x6", "cocircular"])
def test_cells_and_frames_clip_like_clip_convex(layout):
    if layout.startswith("random"):
        disks, window = random_disks(random.Random(3), int(layout[6:])), WIN
    else:
        disks, window = (GRID6 if layout == "grid6x6" else COCIRCULAR), Rect(0, 0, 60, 60)
    n = len(disks)
    routes = [(_build_direct(disks, window, _validate(disks, window)), True),
              (_build_lifted(disks, window, _validate(disks, window)), False),
              (build(disks, window), n <= 32)]
    for pd, direct in routes:
        for i, cell in pd.cells.items():
            order = range(n) if direct else sorted(pd.neighbors[i])
            want = None if i in pd.hidden else _clip_in_order(window.to_polygon(), disks, i, order)
            assert _coords(cell) == _coords(want), (layout, direct, i)
            if cell is None:
                continue
            gamma = sorted(pd.neighbors[i])
            parts = power_frame(pd, i).partitions
            for q in gamma:
                want = _clip_in_order(cell, disks, q, gamma)
                assert _coords(parts.get(q)) == _coords(want), (layout, direct, i, q)
