"""Treap behavior, half-space lifting, traversal, and the master dynamic
equivalence: after any update sequence the regions must match a fresh static
rebuild of the same transmitter set."""

import math
import random

import pytest

from coveragekit.errors import DuplicateSite
from coveragekit.geometry import Disk, Point2, Rect, arc_polygon_area, power_distance
from coveragekit.dynamic_coverage import (DynamicCoverage, HalfSpace3, Treap,
                                          lift, traverse_shuffle, treap_delete,
                                          treap_insert, treap_of)
from coveragekit.protocol_coverage import (ProtocolTransmitter,
                                           compute_coverage_map, region_area)

WIN = Rect(-8.0, -8.0, 8.0, 8.0)


def tx(x, y, t, i):
    return ProtocolTransmitter(Point2(x, y), t, i)


# ---------------------------------------------------------------------------
# treap
# ---------------------------------------------------------------------------

REF_KEYS = [10, 30, 50, 70, 90, 110]
REF_PRIS = [0.3, 0.13, 0.4, 0.22, 0.56, 0.43]


def test_treap_reference_shape():
    t = treap_of(zip(REF_KEYS, REF_PRIS))
    t.check_invariants()
    assert t.root.key == 30  # minimum priority 0.13 at the root
    assert t.keys() == sorted(REF_KEYS)


def test_treap_insert_130_rotates_up():
    t = treap_of(zip(REF_KEYS, REF_PRIS))
    t2 = treap_insert(t, 130, 0.2)
    t2.check_invariants()
    assert t2.root.key == 30

    def find_with_ancestors(node, key, anc):
        if node is None:
            return None
        if node.key == key:
            return list(anc)
        anc.append(node.key)
        found = find_with_ancestors(node.left if key < node.key else node.right,
                                    key, anc)
        anc.pop()
        return found

    # 130 (priority 0.2) must sit above both 110 (0.43) and 90 (0.56)
    assert 130 in find_with_ancestors(t2.root, 110, [])
    assert 130 in find_with_ancestors(t2.root, 90, [])


def test_treap_delete_is_exact_inverse():
    t = treap_of(zip(REF_KEYS, REF_PRIS))
    t2 = treap_insert(t, 130, 0.2)
    t3 = treap_delete(t2, 130)
    assert t3 == t  # persistent nodes compare structurally


def test_treap_errors():
    t = treap_of(zip(REF_KEYS, REF_PRIS))
    with pytest.raises(KeyError):
        treap_insert(t, 30, 0.9)
    with pytest.raises(KeyError):
        treap_delete(t, 31)


def test_treap_inorder_sorted_and_depth_random():
    rng = random.Random(10)
    keys = rng.sample(range(100000), 2000)
    t = Treap()
    for k in keys:
        t = treap_insert(t, k, rng.random())
    assert t.keys() == sorted(keys)
    t.check_invariants()
    depths = t.depths()
    assert sum(depths) / len(depths) <= 3.0 * math.log(2000)


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lift_reference_planes():
    h = lift(Disk(Point2(0, 0), 1.0))
    assert (h.a, h.b, h.c) == (0.0, 0.0, 1.0)
    h2 = lift(Disk(Point2(1, 2), 0.0))
    assert (h2.a, h2.b, h2.c) == (2.0, 4.0, -5.0)


def test_lift_plane_intersection_matches_power_bisector():
    h1 = lift(Disk(Point2(0, 0), 2.0))
    h2 = lift(Disk(Point2(4, 0), 0.0))
    # equal heights along x = 2.5
    for y in (-3.0, 0.0, 7.0):
        assert h1.height(2.5, y) == pytest.approx(h2.height(2.5, y))


def test_lift_order_reversal_property():
    # 1e5 random (point, disk pair) samples, vectorized
    import numpy as np
    rng = np.random.default_rng(3)
    n = 100000
    c1 = rng.uniform(-5, 5, (n, 2))
    c2 = rng.uniform(-5, 5, (n, 2))
    r1 = rng.uniform(0, 3, n)
    r2 = rng.uniform(0, 3, n)
    x = rng.uniform(-5, 5, (n, 2))
    rho1 = ((x - c1) ** 2).sum(1) - r1 ** 2
    rho2 = ((x - c2) ** 2).sum(1) - r2 ** 2
    h1 = 2 * (c1 * x).sum(1) - (c1 ** 2).sum(1) + r1 ** 2
    h2 = 2 * (c2 * x).sum(1) - (c2 ** 2).sum(1) + r2 ** 2
    assert ((rho1 < rho2) == (h1 > h2)).all()
    # and the formula above is what lift() produces
    rngp = random.Random(3)
    for _ in range(200):
        d = Disk(Point2(rngp.uniform(-5, 5), rngp.uniform(-5, 5)), rngp.uniform(0, 3))
        p = Point2(rngp.uniform(-5, 5), rngp.uniform(-5, 5))
        hs = lift(d)
        expect = (2 * d.center.x * p.x + 2 * d.center.y * p.y
                  - d.center.x ** 2 - d.center.y ** 2 + d.radius ** 2)
        assert hs.height(p.x, p.y) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------

def test_traverse_empty_structure_returns_corner():
    dc = DynamicCoverage(WIN, seed=1)
    v = traverse_shuffle(dc, lift(Disk(Point2(0, 0), 1.0)))
    assert v is not None
    assert v.created is None  # a root corner


THREE = [tx(0, 0, 1.0, 10.0), tx(2, 0, 0.5, 1.0), tx(4, 0, 1.0, 10.0)]


def test_traverse_redundant_middle_disk():
    dc = DynamicCoverage(Rect(-6, -6, 6, 6), seed=2)
    dc.insert_transmitter(THREE[0])
    dc.insert_transmitter(THREE[2])
    assert traverse_shuffle(dc, lift(Disk(Point2(2, 0), 1.0))) is None
    v = traverse_shuffle(dc, lift(Disk(Point2(5, 5), 1.0)))
    assert v is not None


def test_traverse_agrees_with_vertex_scan():
    rng = random.Random(8)
    dc = DynamicCoverage(WIN, seed=5)
    for _ in range(30):
        dc.insert_transmitter(tx(rng.uniform(-7, 7), rng.uniform(-7, 7),
                                 0.5, rng.uniform(0.6, 2.0)))
    nodes = dc.shuffle.nodes
    for _ in range(100):
        probe = lift(Disk(Point2(rng.uniform(-7, 7), rng.uniform(-7, 7)),
                          rng.uniform(0.0, 2.0)))
        got = dc._traverse(probe)
        brute = None
        for poly in dc.cells.values():
            for (_, _, nid) in poly:
                if dc._outside(nodes[nid], probe):
                    brute = nid
                    break
            if brute is not None:
                break
        assert (got is None) == (brute is None)
        if got is not None:
            assert dc._outside(nodes[got], probe)
            assert nodes[got].next is None  # a current vertex
    assert dc.traverse_fallbacks == 0


# ---------------------------------------------------------------------------
# master equivalence with the static pipeline
# ---------------------------------------------------------------------------

def assert_matches_static(dc: DynamicCoverage, window: Rect, tag=""):
    txs_by_sid = dict(dc.transmitters)
    if not txs_by_sid:
        assert dc.regions == {}
        return
    sids = sorted(txs_by_sid)
    static = compute_coverage_map([txs_by_sid[s] for s in sids], window)
    dyn_regions = dc.regions
    for k, sid in enumerate(sids):
        a_dyn = sum(arc_polygon_area(ap) for ap in dyn_regions[sid])
        a_st = region_area(static, k)
        scale = max(a_st, a_dyn, 1e-9)
        assert abs(a_dyn - a_st) <= 1e-6 * scale + 1e-9, \
            f"{tag} site {sid}: dynamic {a_dyn} static {a_st}"


def test_insert_single_matches_static():
    dc = DynamicCoverage(WIN, seed=3)
    dc.insert_transmitter(tx(0, 0, 1.0, 1.5))
    assert_matches_static(dc, WIN)


def test_insert_then_delete_restores_previous_regions():
    dc = DynamicCoverage(WIN, seed=4)
    dc.insert_transmitter(tx(-2, 0, 1.0, 1.5))
    dc.insert_transmitter(tx(2, 0, 1.0, 1.5))
    before = {sid: sorted(round(arc_polygon_area(ap), 9) for ap in chains)
              for sid, chains in dc.regions.items()}
    rep = dc.insert_transmitter(tx(0, 1, 0.8, 1.2))
    dc.delete_transmitter(rep.site)
    after = {sid: sorted(round(arc_polygon_area(ap), 9) for ap in chains)
             for sid, chains in dc.regions.items()}
    assert before == after


def test_duplicate_insert_rejected():
    dc = DynamicCoverage(WIN, seed=0)
    dc.insert_transmitter(tx(0, 0, 1.0, 1.5))
    with pytest.raises(DuplicateSite):
        dc.insert_transmitter(tx(0, 0, 1.0, 1.5))


def test_delete_unknown_raises():
    dc = DynamicCoverage(WIN, seed=0)
    with pytest.raises(KeyError):
        dc.delete_transmitter(5)


def test_delete_only_transmitter_empties_map():
    dc = DynamicCoverage(WIN, seed=0)
    rep = dc.insert_transmitter(tx(0, 0, 1.0, 1.5))
    dc.delete_transmitter(rep.site)
    assert dc.regions == {}
    assert dc.cells == {}


def test_hidden_parked_and_revived():
    win = Rect(-6, -6, 6, 6)
    dc = DynamicCoverage(win, seed=7)
    r0 = dc.insert_transmitter(THREE[0])
    r2 = dc.insert_transmitter(THREE[2])
    r1 = dc.insert_transmitter(THREE[1])
    assert r1.redundant
    assert r1.site in dc.hidden
    assert_matches_static(dc, win, "parked")
    # deleting one outer disk revives the middle one
    rep = dc.delete_transmitter(r0.site)
    assert r1.site not in dc.hidden
    assert ("revived", r1.site) in rep.hidden_events
    assert_matches_static(dc, win, "revived")


def test_nested_concentric_hidden_disk():
    win = Rect(-6, -6, 6, 6)
    dc = DynamicCoverage(win, seed=9)
    big = dc.insert_transmitter(tx(0.0, 0.0, 2.0, 3.0))
    small = dc.insert_transmitter(tx(0.05, 0.0, 0.5, 1.0))
    assert small.redundant
    assert_matches_static(dc, win, "nested")
    dc.delete_transmitter(big.site)
    assert small.site not in dc.hidden
    assert_matches_static(dc, win, "nested-revive")


def test_offstage_sites_match_static_visibility():
    # with a working square of half-width 10, the small disk at (0, -5) wins
    # only far below the window: parked, yet visible beyond the square
    win = Rect(-6, -6, 6, 6)
    dc = DynamicCoverage(win, square_halfwidth=10.0)
    for t in (tx(-1, 0, 4.0, 20.0), tx(1, 0, 4.0, 20.0), tx(0, -5, 0.05, 0.1)):
        dc.insert_transmitter(t)

    def check(tag):
        sids = sorted(dc.transmitters)
        static = compute_coverage_map([dc.transmitters[s] for s in sids], win)
        assert_matches_static(dc, win, tag)
        visible = {s for k, s in enumerate(sids) if k not in static.diagram.hidden}
        assert set(dc.cells) | dc.offstage == visible, tag

    check("parked")
    assert dc.offstage == {2}
    dc.insert_transmitter(tx(0, 3, 1.0, 2.0))  # parked and offstage too
    check("insert")
    dc.delete_transmitter(0)
    check("delete")
    # on the line from (1, 0) through (0, -5), just past it: this disk takes
    # all of site 2's far region, though it is parked itself
    dc.insert_transmitter(tx(-0.1, -5.5, 0.5, 1.0))
    check("second insert")
    assert dc.offstage == {3, 4}
    dc.delete_transmitter(4)  # a parked delete hands the region back
    check("parked delete")
    assert dc.offstage == {2, 3}


def test_random_inserts_match_static_on_prefixes():
    rng = random.Random(777)
    dc = DynamicCoverage(WIN, seed=6)
    for k in range(40):
        ir = rng.uniform(0.6, 2.0)
        dc.insert_transmitter(tx(rng.uniform(-7, 7), rng.uniform(-7, 7),
                                 rng.uniform(0.5, 1.0) * ir, ir))
        if k % 5 == 4:
            assert_matches_static(dc, WIN, f"prefix {k}")
    assert_matches_static(dc, WIN, "final")


def test_random_interleaving_matches_static():
    rng = random.Random(3030)
    dc = DynamicCoverage(WIN, seed=11)
    live = []
    for step in range(60):
        if live and rng.random() < 0.35:
            sid = live.pop(rng.randrange(len(live)))
            dc.delete_transmitter(sid)
        else:
            ir = rng.uniform(0.5, 2.2)
            if rng.random() < 0.2 and live:
                # deliberately nest inside an existing transmitter
                host = dc.transmitters.get(live[-1])
                if host is not None:
                    loc = Point2(host.location.x + 0.03, host.location.y)
                    ir = max(0.3, host.int_radius * 0.4)
                    rep = dc.insert_transmitter(
                        ProtocolTransmitter(loc, ir * 0.7, ir))
                    live.append(rep.site)
                    continue
            rep = dc.insert_transmitter(tx(rng.uniform(-7, 7), rng.uniform(-7, 7),
                                           rng.uniform(0.5, 1.0) * ir, ir))
            live.append(rep.site)
        if step % 6 == 5:
            assert_matches_static(dc, WIN, f"step {step}")
    assert_matches_static(dc, WIN, "end")


def test_lattice_size_linear_and_euler():
    rng = random.Random(12)
    dc = DynamicCoverage(WIN, seed=13)
    inserted = 0
    for _ in range(60):
        rep = dc.insert_transmitter(tx(rng.uniform(-7, 7), rng.uniform(-7, 7),
                                       0.4, rng.uniform(0.5, 1.5)))
        if not rep.redundant:
            inserted += 1
        view = dc.facial_lattice()
        assert view.euler_ok()
        assert view.size <= 20 * max(inserted, 1)


def test_update_report_fields():
    dc = DynamicCoverage(WIN, seed=14)
    rep = dc.insert_transmitter(tx(0, 0, 1.0, 1.5))
    assert rep.op == "insert" and not rep.redundant
    assert rep.wall_time >= 0.0
    d = rep.to_dict()
    assert d["site"] == rep.site
