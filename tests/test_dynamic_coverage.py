"""Treap behavior, half-space lifting, traversal, and the master dynamic
equivalence: after any update sequence the regions must match a fresh static
rebuild of the same transmitter set."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from coveragekit.errors import DuplicateSite
from coveragekit.geometry import (ConvexPolygon, Disk, Point2, Rect, arc_polygon_area,
                                  power_distance)
from coveragekit.dynamic_coverage import (DynamicCoverage, HalfSpace3, Treap,
                                          lift, traverse_shuffle, treap_delete,
                                          treap_insert, treap_of)
from coveragekit.power_diagram import build
from coveragekit.protocol_coverage import (ProtocolTransmitter,
                                           compute_coverage_map, region_area)
from geometry_reference import convex_polygon_intersection
from oracles import planes_above_lattice

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
    assert v < 8  # a root corner


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
    probes = [lift(Disk(Point2(rng.uniform(-7, 7), rng.uniform(-7, 7)),
                        rng.uniform(0.0, 2.0))) for _ in range(100)]
    assert_traverse_agrees(dc, probes)
    assert dc.traverse_fallbacks == 0


def assert_traverse_agrees(dc: DynamicCoverage, planes, tag=""):
    """``traverse_shuffle``, and the climb that confirms its negative walks,
    find a current vertex outside each plane exactly when a scan of every
    current vertex does."""
    for hs, above in zip(planes, planes_above_lattice(dc, planes)):
        v = traverse_shuffle(dc, hs)
        assert (v is not None) == above, f"{tag} plane {hs}"
        if v is not None:
            assert dc.next[v] is None and dc._outside(v, hs), tag
        if dc.cells:
            assert (dc._climb(hs) is not None) == above, f"{tag} climb, plane {hs}"


def test_climb_leaves_the_cell_owning_the_centre():
    # the disk loses at its centre, in site 0's cell, and wins only inside
    # site 1's cell, which no vertex of cell 0 reaches into
    dc = DynamicCoverage(Rect(0.0, 0.0, 10.0, 10.0))
    for (x, y, r) in [(3.3, 6.0, 2.8), (4.0, 7.0, 2.0), (9.0, 5.4, 4.0)]:
        dc.insert_transmitter(tx(x, y, 0.5 * r, r))
    hs = lift(Disk(Point2(4.6, 7.5), 1.6))
    assert dc._owner_of(Point2(4.6, 7.5)) == 0
    assert not any(dc._outside(u, hs) for u in dc.cells[0])
    v = dc._climb(hs)
    assert v is not None and dc._outside(v, hs)
    assert dc.climb_steps > len(dc.cells[0])


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
    # keyed by interference disk, as ``build`` keys its sites: a co-sited
    # transmitter with a smaller or equal transmission radius is refused,
    # one with another interference radius is a site of its own
    dc = DynamicCoverage(WIN, seed=0)
    dc.insert_transmitter(tx(0, 0, 1.0, 1.5))
    for t in (1.0, 0.5):
        with pytest.raises(DuplicateSite, match="site 0"):
            dc.insert_transmitter(tx(0, 0, t, 1.5))
    assert list(dc.transmitters) == [0]
    dc.insert_transmitter(tx(0, 0, 0.5, 1.2))
    dc.delete_transmitter(0)
    dc.insert_transmitter(tx(0, 0, 0.5, 1.5))  # free again once deleted
    assert_matches_static(dc, WIN)


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
    # the working square has half-width 4 * 12 * sqrt(2) ~ 67.9; the small
    # disk at (0, -5) wins only below y = -92.4: parked, yet visible beyond
    # the square
    win = Rect(-6, -6, 6, 6)
    dc = DynamicCoverage(win)
    for t in (tx(-1, 0, 4.0, 30.0), tx(1, 0, 4.0, 30.0), tx(0, -5, 0.05, 0.1)):
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


def test_offstage_rechecked_only_after_deleting_a_cell_on_the_square():
    win = Rect(-6, -6, 6, 6)

    def check(dc, tag):
        sids = sorted(dc.transmitters)
        static = compute_coverage_map([dc.transmitters[s] for s in sids], win)
        assert_matches_static(dc, win, tag)
        visible = {s for k, s in enumerate(sids) if k not in static.diagram.hidden}
        assert set(dc.cells) | dc.offstage == visible, tag

    # a 3x3 grid of equal disks: the middle cell is bounded, so deleting it
    # changes nothing beyond the square (half-width ~ 67.9); the disk nested
    # in a corner one is parked and wins only far to the left (x < -97.8),
    # beyond the square
    dc = DynamicCoverage(win)
    for x in (-4, 0, 4):
        for y in (-4, 0, 4):
            dc.insert_transmitter(tx(x, y, 1.5, 2.0))
    nested = dc.insert_transmitter(tx(-4.02, -4, 0.2, 0.5)).site
    check(dc, "grid")
    assert dc.hidden.keys() == dc.offstage == {nested}
    dc.delete_transmitter(4)
    assert not dc._offstage_pending
    check(dc, "middle deleted")

    # site 2's cell reaches the bottom of the square; once it is gone, the
    # parked disk 3 wins far below (y < -84.5) though nowhere inside the square
    dc = DynamicCoverage(win)
    for t in (tx(-1, 0, 4.0, 30.0), tx(1, 0, 4.0, 30.0), tx(0, -5.8, 1.0, 30.0),
              tx(0, -5.5, 0.05, 0.1)):
        dc.insert_transmitter(t)
    check(dc, "parked")
    assert dc.hidden.keys() == {3} and not dc.offstage
    dc.delete_transmitter(2)
    assert dc._offstage_pending == {3}
    check(dc, "bottom deleted")
    assert dc.hidden.keys() == dc.offstage == {3}


def test_deleting_an_offstage_disk_gives_back_its_area():
    # the small disk wins only below y = -92.4, beyond the working square, so
    # it is parked and offstage; as a static neighbour of site 0 it takes a
    # sliver of site 0's transmission disk, which its deletion gives back
    win = Rect(-6, -6, 6, 6)
    dc = DynamicCoverage(win)
    big = dc.insert_transmitter(tx(0, 0, 5.5, 30.0)).site
    small = dc.insert_transmitter(tx(0, -5, 0.05, 0.1)).site
    before = dc.region_areas()[big]
    assert dc.offstage == {small}
    assert_matches_static(dc, win, "offstage")
    dc.delete_transmitter(small)
    assert dc.region_areas()[big] == pytest.approx(before + math.pi * 0.01, rel=1e-9)
    assert_matches_static(dc, win, "offstage deleted")


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
        edges = {(min(e), max(e)) for ring in dc.cells.values()
                 for e in zip(ring[-1:] + ring[:-1], ring)}
        verts = {u for e in edges for u in e}
        faces = len(dc.cells) + 1  # the live cells plus the outer face
        assert len(verts) - len(edges) + faces == 2
        assert len(verts) + len(edges) + faces <= 20 * max(inserted, 1)


def test_update_report_fields():
    dc = DynamicCoverage(WIN, seed=14)
    rep = dc.insert_transmitter(tx(0, 0, 1.0, 1.5))
    assert rep.op == "insert" and not rep.redundant
    assert rep.wall_time >= 0.0
    d = rep.to_dict()
    assert d["site"] == rep.site


# ---------------------------------------------------------------------------
# degenerate layouts and lattice invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("centres, t, i, side", [
    ([(5, 5), (5, 15), (15, 5), (15, 15)], 6.0, 9.0, 20.0),
    ([(5 + 10 * a, 5 + 10 * b) for a in range(6) for b in range(6)], 4.0, 6.0, 60.0),
], ids=["grid2x2", "grid6x6"])
def test_grid_inserts_keep_lattice_and_match_static(centres, t, i, side):
    # every vertex of a square grid is shared by four cells, and each insert
    # after the first row passes its bisectors exactly through old vertices
    win = Rect(0.0, 0.0, side, side)
    dc = DynamicCoverage(win)
    for k, (x, y) in enumerate(centres):
        dc.insert_transmitter(tx(x, y, t, i))
        dc.check_invariants()
        assert_matches_static(dc, win, f"insert {k}")


def test_check_invariants_detects_broken_lattice():
    dc = DynamicCoverage(WIN)
    for (x, y) in [(-3, -3), (3, -3), (0, 3)]:
        dc.insert_transmitter(tx(x, y, 1.0, 1.5))
    dc.check_invariants()
    dc.neighbors[0].discard(1)
    with pytest.raises(AssertionError, match="neighbour"):
        dc.check_invariants()
    dc.neighbors[0].add(1)
    dc.cells[2] = dc.cells[2][1:] + dc.cells[2][:1]  # same ring, other start
    dc.check_invariants()
    u = dc.cells[2][0]
    dc.next[u] = 0  # a dead vertex left in a live cell
    with pytest.raises(AssertionError, match="not current"):
        dc.check_invariants()
    dc.next[u] = None
    dc.incident[u].discard(2)  # a carve killing u would not find cell 2
    with pytest.raises(AssertionError, match="incident"):
        dc.check_invariants()
    dc.incident[u].add(2)
    dc.check_invariants()
    dc.cells[2] = dc.cells[2][:-1]
    with pytest.raises(AssertionError):
        dc.check_invariants()


LATTICE_WIN = Rect(0.0, 0.0, 8.0, 8.0)
GENERIC = st.integers(1, 10 ** 6).map(lambda k: k * 0.6180339887498949 % 1.0)
# Integer-lattice radii.  sqrt(3)/2 and 3 sqrt(3)/4 make no tangency: they,
# their sum and their difference square to three times a rational square,
# which no distance of an integer lattice does.  0.7 and 1.0 make them
# everywhere: interference circles touch each other (distance 2), pass
# through neighbouring sites (distance 1) and touch the window's sides.
LATTICE_RADII = {"generic": (math.sqrt(3.0) / 2.0, 0.75 * math.sqrt(3.0)),
                 "tangent": (0.7, 1.0)}


class DynamicLatticeMachine(RuleBasedStateMachine):
    """Random inserts and deletes on random layouts and on integer lattices
    with equal radii (cocircular quadruples everywhere), with and without
    exact tangencies; after every step the lattice invariants hold and the
    regions equal a static rebuild.

    Random layouts draw each number as the fractional part of k times the
    golden ratio."""

    @initialize(layout=st.sampled_from(["random", "generic", "tangent"]))
    def start(self, layout):
        self.radii = LATTICE_RADII.get(layout)
        self.dc = DynamicCoverage(LATTICE_WIN)

    @rule(data=st.data())
    def insert(self, data):
        if self.radii is not None:
            x, y = (data.draw(st.integers(1, 7)) for _ in range(2))
            t = tx(x, y, *self.radii)
        else:
            x, y, r = (data.draw(GENERIC) for _ in range(3))
            ir = 0.3 + 2.2 * r
            t = tx(0.2 + 7.6 * x, 0.2 + 7.6 * y, 0.7 * ir, ir)
        try:
            self.dc.insert_transmitter(t)
        except DuplicateSite:
            pass

    @precondition(lambda self: self.dc.transmitters)
    @rule(data=st.data())
    def delete(self, data):
        self.dc.delete_transmitter(data.draw(st.sampled_from(sorted(self.dc.transmitters))))

    @invariant()
    def lattice_matches_static(self):
        self.dc.check_invariants()
        assert_matches_static(self.dc, LATTICE_WIN)


TestDynamicLatticeMachine = DynamicLatticeMachine.TestCase
TestDynamicLatticeMachine.settings = settings(
    derandomize=True, deadline=None, database=None, max_examples=20,
    stateful_step_count=40, suppress_health_check=[HealthCheck.too_slow])


def test_tangent_lattice_in_any_insertion_order_matches_static():
    # the bisector of (5, 6) and (2, 2) is tangent to the transmission
    # circle of (1, 7), and cells start at different vertices per order
    pts = [(6, 4), (5, 6), (2, 2), (7, 6), (7, 2), (1, 7), (6, 5)]
    rng = random.Random(5)
    for order in range(40):
        rng.shuffle(pts)
        dc = DynamicCoverage(LATTICE_WIN)
        for x, y in pts:
            dc.insert_transmitter(tx(x, y, 0.9, 1.3))
        assert_matches_static(dc, LATTICE_WIN, f"order {order}")


@pytest.mark.parametrize("x, y", [(4, 7), (1, 1)])
def test_disk_touching_window_side_is_whole(x, y):
    # the cell is the whole window, uncut; its sides must keep their exact
    # coordinates for the circle to touch them
    dc = DynamicCoverage(LATTICE_WIN)
    sid = dc.insert_transmitter(tx(x, y, 1.0, 1.0)).site
    assert dc.region_areas()[sid] == pytest.approx(math.pi, rel=1e-12)


def test_benchmark_churn_seed18_fill_cut_down_matches_static():
    # the sites of the seed-18 churn fill near (0, 11.39) in fill order: a
    # sliver of one cell lies on the window's left side
    rng = random.Random(18)
    spread = 100.0 / math.sqrt(1000)
    win = Rect(0.0, 0.0, 100.0, 100.0)
    dc = DynamicCoverage(win)
    for _ in range(1000):
        ir = rng.uniform(0.5, 1.5) * spread
        t = tx(rng.uniform(0.3, 99.7), rng.uniform(0.3, 99.7),
               max(1e-4, rng.uniform(0.5, 1.0) * ir), ir)
        if t.location.x <= 8.0 and abs(t.location.y - 11.3862) <= 8.0:
            dc.insert_transmitter(t)
    assert len(dc.transmitters) == 12
    assert_matches_static(dc, win)


def test_long_fill_and_churn_keep_invariants():
    rng = random.Random(2024)
    win = Rect(0.0, 0.0, 100.0, 100.0)
    dc = DynamicCoverage(win)
    spread = 100.0 / math.sqrt(1000)

    def insert():
        ir = rng.uniform(0.5, 1.5) * spread
        dc.insert_transmitter(tx(rng.uniform(0.3, 99.7), rng.uniform(0.3, 99.7),
                                 rng.uniform(0.5, 1.0) * ir, ir))
        dc.check_invariants()

    for _ in range(1000):
        insert()
    for _ in range(25):
        dc.delete_transmitter(rng.choice(sorted(dc.transmitters)))
        dc.check_invariants()
        insert()
    assert_matches_static(dc, win, "after churn")


def churn_layout(layout: str, rng: random.Random):
    """Sites for a 0-100 window: fresh random ones, or a draw from a fixed
    set of points and interference radii (tx radius 0.7 of it), so that
    equal disks sit on a regular grid or on rings around (50, 50), and a
    point may hold concentric disks."""
    if layout == "random":
        spread = 100.0 / math.sqrt(500)
        while True:
            ir = rng.uniform(0.5, 1.5) * spread
            yield tx(rng.uniform(0.3, 99.7), rng.uniform(0.3, 99.7), 0.7 * ir, ir)
    if layout == "grid":  # 22 x 22 points 4.5 apart
        points = [(3.0 + 4.5 * i, 3.0 + 4.5 * j) for i in range(22) for j in range(22)]
        radii = (2.7, 4.5, 6.3)
    else:  # the centre and 6k points on the ring of radius 4k, k = 1..12
        points = [(50.0, 50.0)] + [
            (50.0 + 4.0 * k * math.cos(math.pi * m / (3 * k)),
             50.0 + 4.0 * k * math.sin(math.pi * m / (3 * k)))
            for k in range(1, 13) for m in range(6 * k)]
        radii = (2.4, 4.0, 5.6)
    for p in points:  # every point once, then random draws
        ir = rng.choice(radii)
        yield tx(*p, 0.7 * ir, ir)
    while True:
        ir = rng.choice(radii)
        yield tx(*rng.choice(points), 0.7 * ir, ir)


@pytest.mark.parametrize("layout, n", [("random", 500), ("grid", 484), ("cocircular", 469)])
def test_churn_against_vertex_scan(layout, n):
    # after every op: random planes are traversed as a scan of all current
    # vertices decides, every parked disk is redundant by that scan, and
    # every disk that got a cell (a revival included) was not
    rng = random.Random(f"churn-{layout}")
    win = Rect(0.0, 0.0, 100.0, 100.0)
    dc = DynamicCoverage(win)
    insert_site = dc._insert_site

    def checked_insert(sid, probe, events):
        assert planes_above_lattice(dc, [dc.planes[sid]])[0], f"site {sid} was redundant"
        return insert_site(sid, probe, events)

    dc._insert_site = checked_insert
    source = churn_layout(layout, rng)
    revived = parked = 0

    def insert():
        nonlocal parked
        while True:
            try:
                parked += dc.insert_transmitter(next(source)).redundant
                return
            except DuplicateSite:
                pass

    def check(step):
        hidden = sorted(dc.hidden)
        assert not planes_above_lattice(dc, [dc.planes[h] for h in hidden]).any(), step
        planes = [lift(Disk(Point2(rng.uniform(0, 100), rng.uniform(0, 100)),
                            rng.uniform(0.0, 8.0))) for _ in range(3)]
        assert_traverse_agrees(dc, planes, step)

    for k in range(n):
        insert()
        check(f"fill {k}")
    for k in range(80):
        if rng.random() < 0.5:
            rep = dc.delete_transmitter(rng.choice(sorted(dc.transmitters)))
            revived += sum(kind == "revived" for kind, _ in rep.hidden_events)
        else:
            insert()
        dc.check_invariants()
        check(f"churn {k}")
    assert parked > 0 and revived > 0, (parked, revived)
    assert_matches_static(dc, win, layout)


def test_a_regions_read_builds_its_dirty_sites_in_one_batch(monkeypatch):
    from coveragekit.dynamic_coverage import shuffle
    batches, real = [], shuffle.boolean_rows

    def counted(cells, includes, excludes, eps):
        batches.append(len(cells))
        return real(cells, includes, excludes, eps)

    monkeypatch.setattr(shuffle, "boolean_rows", counted)
    rng = random.Random(4)
    dc = DynamicCoverage(Rect(0.0, 0.0, 20.0, 20.0), seed=4)
    for _ in range(40):
        dc.insert_transmitter(ProtocolTransmitter(Point2(rng.uniform(1, 19), rng.uniform(1, 19)),
                                                  0.8, rng.uniform(1.0, 2.5)))
    dc.regions
    assert batches == [len(dc.cells)]
    dc.insert_transmitter(ProtocolTransmitter(Point2(10.0, 10.0), 1.0, 2.0))
    dirty = len(dc._dirty)
    dc.regions
    assert len(batches) == 2 and 0 < batches[1] <= dirty
    dc.regions  # nothing dirty: no batch
    assert len(batches) == 2



# ---------------------------------------------------------------------------
# the window cell of a site
# ---------------------------------------------------------------------------

def window_cell_reference(dc: DynamicCoverage, sid: int):
    """The window clipped by the site's lattice cell, edge by edge of its
    ring: a cell whose vertices carry the rounding of the updates that
    made them."""
    cell = ConvexPolygon(tuple(Point2(dc.x[u], dc.y[u]) for u in dc.cells[sid]))
    return convex_polygon_intersection(dc.window.to_polygon(), cell)


WINDOW_CELL_SITES = st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0),
                                       st.floats(0.05, 4.0)),
                             min_size=1, max_size=25, unique=True)


def test_window_cell_equals_the_static_cell():
    """Vertex for vertex, bits and signs of zero included, on random
    lattices: a site's window cell is ``build``'s cell whenever the lattice
    and the static diagram list the same neighbours (a site adjacent only
    beyond the working square is one the lattice lacks).  Cells inside the
    window, cells crossing its sides and cells outside it (None) all occur."""
    seen, compared = set(), [0, 0]

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(WINDOW_CELL_SITES)
    def check(sites):
        dc = DynamicCoverage(Rect(0.0, 0.0, 10.0, 10.0))
        for x, y, r in sites:
            dc.insert_transmitter(tx(x, y, 0.5 * r, r))
        sids = sorted(dc.transmitters)
        pd = build([dc.transmitters[s].int_disk for s in sids], dc.window)
        for sid, ring in dc.cells.items():
            k = sids.index(sid)
            if {sids[q] for q in pd.neighbors[k]} != dc.neighbors[sid]:
                compared[1] += 1
                continue
            compared[0] += 1
            row, want = dc._region_row(sid), pd.cells[k]
            assert repr(row and row[0]) == repr(want)
            inside = all(dc.window.contains(Point2(dc.x[u], dc.y[u])) for u in ring)
            seen.add("outside" if want is None else "inside" if inside else "crossing")

    check()
    assert seen == {"inside", "crossing", "outside"}
    assert compared[0] > 10 * compared[1], compared


def test_window_cell_ignores_a_zero_length_ring_edge():
    # the ring-edge reference's ``HalfPlane`` rejects the edge's zero
    # normal; the read cuts the window by bisectors, never by ring edges
    dc = DynamicCoverage(Rect(0.0, 0.0, 10.0, 10.0))
    for x, y in ((3.0, 3.0), (7.0, 4.0), (5.0, 8.0)):
        dc.insert_transmitter(tx(x, y, 1.0, 2.0))
    for sid, ring in list(dc.cells.items()):
        before = dc._region_row(sid)
        for k in range(len(ring)):
            u = ring[k]
            twin = dc._new_node(dc.x[u], dc.y[u], dc.z[u])
            dc.cells[sid] = ring[:k + 1] + [twin] + ring[k + 1:]
            with pytest.raises(ValueError):
                window_cell_reference(dc, sid)
            assert before is not None and repr(dc._region_row(sid)) == repr(before)
        dc.cells[sid] = ring


# ---------------------------------------------------------------------------
# reads equal a static rebuild
# ---------------------------------------------------------------------------

def c03_churn(seed: int):
    """Criterion 3's script at another seed: 200 random inserts and deletes
    on the 0-10 window, about one insert in five a disk nested in a live
    one's (a repeat of one already there is refused, as in criterion 3).  Yields
    the structure and the step after every op."""
    rng = random.Random(seed)
    dc = DynamicCoverage(Rect(0.0, 0.0, 10.0, 10.0), seed=99)
    live: list[int] = []
    for step in range(200):
        roll = rng.random()
        if live and roll < 0.32:
            dc.delete_transmitter(live.pop(rng.randrange(len(live))))
        else:
            if live and roll > 0.85:
                host = dc.transmitters[live[rng.randrange(len(live))]]
                ir = max(0.25, host.int_radius * 0.45)
                t = tx(host.location.x + 0.02, host.location.y + 0.01, 0.7 * ir, ir)
            else:
                ir = rng.uniform(0.5, 2.4)
                t = tx(rng.uniform(0.4, 9.6), rng.uniform(0.4, 9.6),
                       rng.uniform(0.5, 1.0) * ir, ir)
            try:
                live.append(dc.insert_transmitter(t).site)
            except DuplicateSite:
                continue
        yield dc, step


@pytest.mark.parametrize("seed", [304, 305, 306])
def test_every_read_equals_the_static_rebuild(seed):
    """After every op each area is the static rebuild's, float for float,
    unless the static diagram gives the site a neighbour the lattice lacks
    (adjacent only beyond the working square): then within 1e-6."""
    exact = 0
    for dc, step in c03_churn(seed):
        sids = sorted(dc.transmitters)
        if not sids:
            continue
        static = compute_coverage_map([dc.transmitters[s] for s in sids], dc.window)
        areas = dc.region_areas()
        for k, sid in enumerate(sids):
            want = region_area(static, k)
            if areas[sid] == want:
                exact += 1
                continue
            lacks = {sids[q] for q in static.diagram.neighbors[k]} - dc.neighbors.get(sid, set())
            assert lacks and abs(areas[sid] - want) <= 1e-6, \
                f"step {step} site {sid}: dynamic {areas[sid]} static {want}"
    assert exact > 4000
