"""Protocol-model coverage maps against brute-force membership oracles."""

import math
import random

import pytest

from coveragekit.geometry import Point2, Rect, arc_polygon_area, power_distance
from coveragekit.protocol_coverage import (CoverageMap, ProtocolTransmitter,
                                           compute_coverage_map, coverage_area,
                                           find_interference_bound, region_area)
from geometry_reference import polygon_contains
from oracles import (grid_protocol_areas, lens_area,
                     pairwise_interference_exists)


def tx(x, y, t, i):
    return ProtocolTransmitter(Point2(x, y), t, i)


def random_instance(rng, n, window):
    txs = []
    for _ in range(n):
        ir = rng.uniform(0.6, 2.2)
        tr = rng.uniform(0.4, 1.0) * ir
        txs.append(tx(rng.uniform(window.x0 + 2.3, window.x1 - 2.3),
                      rng.uniform(window.y0 + 2.3, window.y1 - 2.3), tr, ir))
    return txs


def test_transmitter_validation():
    with pytest.raises(ValueError):
        tx(0, 0, 2.0, 1.0)  # interference smaller than transmission
    with pytest.raises(ValueError):
        tx(0, 0, 0.0, 1.0)


def test_single_transmitter_full_disk():
    win = Rect(-5, -5, 5, 5)
    cov = compute_coverage_map([tx(0, 0, 1.0, 1.5)], win)
    assert coverage_area(cov) == pytest.approx(math.pi, rel=1e-9)
    assert len(cov.regions[0]) == 1
    assert len(cov.regions[0][0].edges) == 1


def test_two_far_transmitters_disjoint_disks():
    win = Rect(-5, -5, 15, 5)
    cov = compute_coverage_map([tx(0, 0, 1.0, 2.0), tx(10, 0, 1.0, 2.0)], win)
    assert coverage_area(cov) == pytest.approx(2 * math.pi, rel=1e-9)
    assert region_area(cov, 0) == pytest.approx(math.pi, rel=1e-9)


def test_two_overlapping_transmitters_lens_area():
    win = Rect(-6, -6, 9, 6)
    txs = [tx(0, 0, 1.5, 2.0), tx(3, 0, 1.5, 2.0)]
    cov = compute_coverage_map(txs, win)
    expected = math.pi * 1.5**2 - lens_area(1.5, 2.0, 3.0)
    assert region_area(cov, 0) == pytest.approx(expected, rel=1e-6)
    assert region_area(cov, 1) == pytest.approx(expected, rel=1e-6)
    total, per = grid_protocol_areas(txs, win, n=1000)
    assert abs(coverage_area(cov) - total) <= 0.005 * win.area()


def test_disk_tangent_to_window_edge():
    # the transmission disk touches the window's right edge at (6, 0)
    cov = compute_coverage_map([tx(1, 0, 5.0, 20.0)], Rect(-6, -6, 6, 6))
    assert coverage_area(cov) == pytest.approx(25.0 * math.pi, rel=1e-9)


def test_tangent_grid_no_interference():
    # spacing 10 = tr + ir: each transmission disk touches its neighbours'
    # interference disks, so every disk is covered whole
    txs = [tx(5 + 10 * i, 5 + 10 * j, 4.0, 6.0) for i in range(10) for j in range(10)]
    cov = compute_coverage_map(txs, Rect(0, 0, 100, 100))
    assert coverage_area(cov) == pytest.approx(1600.0 * math.pi, rel=1e-9)
    for k in range(100):
        assert region_area(cov, k) == pytest.approx(16.0 * math.pi, rel=1e-9)


def test_hidden_transmitter_has_empty_region():
    win = Rect(-8, -8, 8, 8)
    txs = [tx(0, 0, 5.0, 6.0), tx(0.5, 0, 0.4, 0.5), tx(4.2, 0, 5.0, 6.0)]
    cov = compute_coverage_map(txs, win)
    # middle tiny disk is inside both big interference disks and hidden
    if 1 in cov.diagram.hidden:
        assert cov.regions[1] == []


def test_random_instances_match_grid_oracle():
    # the map is defined over the reduced network: empty-power-region sites
    # are switched off first, so the oracle gets the kept set
    rng = random.Random(2024)
    win = Rect(0, 0, 14, 14)
    for trial in range(8):
        txs = random_instance(rng, rng.randint(2, 12), win)
        cov = compute_coverage_map(txs, win)
        kept = [i for i in range(len(txs)) if i not in cov.diagram.hidden]
        total, per_site = grid_protocol_areas(txs, win, n=600, active=kept)
        assert abs(coverage_area(cov) - total) <= 0.005 * win.area(), \
            f"trial {trial}: map={coverage_area(cov)} grid={total}"
        for p in range(len(txs)):
            assert abs(region_area(cov, p) - per_site[p]) <= 0.005 * win.area()


def test_confinement_in_power_cell():
    rng = random.Random(77)
    win = Rect(0, 0, 14, 14)
    txs = random_instance(rng, 9, win)
    cov = compute_coverage_map(txs, win)
    # sample points inside each region: all must lie in the site's power cell
    from coveragekit.geometry import arc_polygon_contains
    for p, chains in cov.regions.items():
        cell = cov.diagram.cells.get(p)
        for ap in chains:
            pts = [e.start_point for e in ap.edges]
            cx = sum(q.x for q in pts) / len(pts)
            cy = sum(q.y for q in pts) / len(pts)
            probe = Point2(cx, cy)
            if arc_polygon_contains(ap, probe):
                assert cell is not None and polygon_contains(cell, probe, tol=1e-7)


def test_covered_points_clear_every_interferer():
    rng = random.Random(123)
    win = Rect(0, 0, 12, 12)
    txs = random_instance(rng, 8, win)
    cov = compute_coverage_map(txs, win)
    from coveragekit.geometry import arc_polygon_contains
    checked = 0
    for _ in range(8000):
        x = Point2(rng.uniform(0, 12), rng.uniform(0, 12))
        owner = None
        for p, chains in cov.regions.items():
            for ap in chains:
                if arc_polygon_contains(ap, x) and not any(
                        arc_polygon_contains(h, x) for h in ap.holes):
                    owner = p
                    break
            if owner is not None:
                break
        if owner is None:
            continue
        # inside the claimed region: outside EVERY other active interferer
        for q in range(len(txs)):
            if q != owner and q not in cov.diagram.hidden:
                dq = math.hypot(x.x - txs[q].location.x, x.y - txs[q].location.y)
                assert dq >= txs[q].int_radius - 1e-6
        checked += 1
    assert checked > 120


def test_interference_bound_single_none():
    cov = compute_coverage_map([tx(0, 0, 1.0, 2.0)], Rect(-5, -5, 5, 5))
    assert find_interference_bound(cov) is None


def gadget(values, eps_gap):
    xs = sorted(values)
    lo, hi = xs[0], xs[-1]
    pad = eps_gap + 1.0
    win = Rect(lo - pad, -pad, hi + pad, pad)
    txs = [tx(v, 0.0, eps_gap / 3.0, 2.0 * eps_gap / 3.0) for v in values]
    return txs, win


def test_gadget_far_apart_none():
    txs, win = gadget([0.0, 10.0], 1.0)
    cov = compute_coverage_map(txs, win)
    assert find_interference_bound(cov) is None


def test_gadget_close_pair_found():
    txs, win = gadget([0.0, 0.5], 1.0)
    cov = compute_coverage_map(txs, win)
    assert find_interference_bound(cov) is not None


def test_gadget_agrees_with_pairwise_oracle():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(3, 14)
        eps_gap = rng.uniform(0.5, 2.0)
        values = [rng.uniform(0, 40) for _ in range(n)]
        txs, win = gadget(values, eps_gap)
        cov = compute_coverage_map(txs, win)
        found = find_interference_bound(cov) is not None
        expect = any(abs(a - b) < eps_gap
                     for i, a in enumerate(values) for b in values[i + 1:])
        assert found == expect, f"values={values} eps={eps_gap}"


def test_total_arcs_linear_in_sites():
    rng = random.Random(55)
    win = Rect(0, 0, 20, 20)
    txs = random_instance(rng, 20, win)
    cov = compute_coverage_map(txs, win)
    assert cov.total_arcs() <= 20 * 20  # loose linearity sanity bound


# ---------------------------------------------------------------------------
# exact tangencies and crossings that nearly coincide
# ---------------------------------------------------------------------------

LATTICE = Rect(0, 0, 8, 8)


def assert_sites_match_grid(txs, win, tol, n=1000, sample=None):
    """Per-site areas against the grid oracle over ``sample`` (default: the
    window), which must contain every transmission disk it is used for."""
    cov = compute_coverage_map(txs, win)
    kept = [i for i in range(len(txs)) if i not in cov.diagram.hidden]
    _, per_site = grid_protocol_areas(txs, sample or win, n=n, active=kept)
    for p in range(len(txs)):
        assert abs(region_area(cov, p) - per_site[p]) <= tol, \
            f"site {p} at {txs[p].location}: map {region_area(cov, p)} grid {per_site[p]}"
    return cov


def test_interference_circle_tangent_to_window_side():
    # the interference circle of (2, 1) touches the side y = 0; no disk
    # meets another's transmission disk
    txs = [tx(2, 1, 0.7, 1.0), tx(1, 5, 0.7, 1.0), tx(5, 2, 0.7, 1.0)]
    cov = compute_coverage_map(txs, LATTICE)
    assert coverage_area(cov) == pytest.approx(3 * 0.49 * math.pi, rel=1e-9)


def test_free_circle_tangent_at_probe_angle_zero():
    # the transmission circle of (1, 6) crosses no curve of its cell but
    # touches the bisector x = 2 at angle 0; it is covered whole
    pts = [(1, 6), (1, 2), (6, 3), (3, 6), (4, 7), (4, 4)]
    cov = compute_coverage_map([tx(x, y, 1.0, 1.0) for x, y in pts], LATTICE)
    assert region_area(cov, 0) == pytest.approx(math.pi, rel=1e-9)


def test_pinch_where_interference_circle_touches_window_side():
    # the interference circle of (0.2, 0.3) touches y = 0 inside the
    # transmission disk of (0.2, 0.2), so that region is two lobes meeting
    # at (0.2, 0)
    txs = [tx(0.2, 0.2, 0.21, 0.3), tx(0.2, 0.3, 0.21, 0.3)]
    cov = assert_sites_match_grid(txs, Rect(0, 0, 1, 1), 1e-5)
    for ap in cov.regions[0]:
        ap.validate()


def test_bisector_tangent_to_transmission_circle():
    # the bisector of (5, 6) and (2, 2) is tangent to the transmission
    # circle of (1, 7)
    pts = [(6, 4), (5, 6), (2, 2), (7, 6), (7, 2), (1, 7), (6, 5)]
    assert_sites_match_grid([tx(x, y, 0.9, 1.3) for x, y in pts], LATTICE, 0.01)


@pytest.mark.parametrize("radii", [(0.7, 1.0), (0.5, 1.0), (1.0, 1.0), (0.9, 1.3)])
def test_lattice_subsets_match_grid(radii):
    # integer sites make circles touch each other and the window, pass
    # through sites and cell vertices, and meet bisectors tangentially
    rng = random.Random(7)
    nodes = [(x, y) for x in range(1, 8) for y in range(1, 8)]
    for _ in range(75):
        pts = rng.sample(nodes, rng.randint(2, 12))
        assert_sites_match_grid([tx(x, y, *radii) for x, y in pts], LATTICE, 0.02, n=500)


def c02_transmitters(seed, n, index):
    """Scenario ``index`` of the build-map benchmark's generator (c02's)."""
    rng = random.Random(seed)
    spread = 100.0 / math.sqrt(n)
    for _ in range(index + 1):
        txs = []
        for _ in range(n):
            ir = rng.uniform(0.5, 1.5) * spread
            txs.append(tx(rng.uniform(0.3, 99.7), rng.uniform(0.3, 99.7),
                          max(1e-4, rng.uniform(0.5, 1.0) * ir), ir))
    return txs


def near(txs, cx, cy, half):
    return [t for t in txs if abs(t.location.x - cx) <= half and abs(t.location.y - cy) <= half]


def test_benchmark_static_seed19_cut_down_matches_grid():
    # site 363 of the first 2048-site scenario of seed 19 and the 29 sites
    # around it, in the full window (it sets the tolerance): a transmission
    # circle, an interference circle and a bisector nearly meet there
    txs = c02_transmitters(19, 2048, 0)
    c = txs[363].location
    sub = near(txs, c.x, c.y, 6.0)
    box = Rect(c.x - 10.0, c.y - 10.0, min(100.0, c.x + 10.0), min(100.0, c.y + 10.0))
    assert_sites_match_grid(sub, Rect(0, 0, 100, 100), 0.01, sample=box)


def test_benchmark_churn_seed18_fill_cut_down_matches_grid():
    # the 12 sites of the seed-18 churn fill (1000 sites) near (0, 11.39),
    # where a sliver of one cell lies on the window's left side
    sub = near(c02_transmitters(18, 1000, 0), 0.0, 11.3862, 8.0)
    assert_sites_match_grid(sub, Rect(0, 0, 100, 100), 0.01, sample=Rect(0, 0, 14, 24))
