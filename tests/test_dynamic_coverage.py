"""Treap behavior, half-space lifting, traversal, and the master dynamic
equivalence: after any update sequence the regions must match a fresh static
rebuild of the same transmitter set."""

import hashlib
import math
import random
from types import MethodType

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from coveragekit.errors import DuplicateSite
from coveragekit.geometry import ConvexPolygon, Disk, Point2, Rect, arc_polygon_area
from coveragekit.dynamic_coverage import (DynamicCoverage, HalfSpace3, Treap,
                                          lift, traverse_shuffle, treap_delete,
                                          treap_insert, treap_of)
from coveragekit.dynamic_coverage.shuffle import _side
from coveragekit.power_diagram import _clip_cell, build
from coveragekit.protocol_coverage import (ProtocolTransmitter,
                                           compute_coverage_map, region_area)
from geometry_reference import convex_polygon_intersection, validate
from power_diagram_reference import power_distance
from oracles import planes_above_lattice

WIN = Rect(-8.0, -8.0, 8.0, 8.0)


def tx(x, y, t, i):
    return ProtocolTransmitter(Point2(x, y), t, i)


def outside(dc: DynamicCoverage, u: int, hs: HalfSpace3) -> bool:
    """Whether the plane of ``hs`` passes above vertex ``u`` of ``dc``, by
    the structure's own test."""
    return _side(hs, dc.x[u], dc.y[u], dc.z[u]) > 0


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


def test_treap_delete_of_any_key_gives_the_treap_of_the_rest():
    """The (key, priority) set fixes the shape, so deleting any key, whichever
    child it rotates up on the way to a leaf, gives the treap of the rest."""
    for seed in range(4):
        rng = random.Random(seed)
        pairs = [(k, rng.random()) for k in rng.sample(range(1000), 40)]
        t = treap_of(pairs)
        for k, _ in pairs:
            rest = treap_delete(t, k)
            rest.check_invariants()
            assert rest == treap_of(p for p in pairs if p[0] != k)


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
            assert dc.next[v] is None and outside(dc, v, hs), tag
        if dc.cells:
            assert (dc._climb(hs) is not None) == above, f"{tag} climb, plane {hs}"


def test_climb_leaves_the_cell_owning_the_centre():
    # the disk loses at its centre, in site 0's cell, and wins only inside
    # site 1's cell, which no vertex of cell 0 reaches into
    dc = DynamicCoverage(Rect(0.0, 0.0, 10.0, 10.0))
    for (x, y, r) in [(3.3, 6.0, 2.8), (4.0, 7.0, 2.0), (9.0, 5.4, 4.0)]:
        dc.insert_transmitter(tx(x, y, 0.5 * r, r))
    centre = dc._local(Point2(4.6, 7.5))  # the lattice is in the window's frame
    hs = lift(Disk(centre, 1.6))
    assert dc._owners([centre]) == [0]
    assert not any(outside(dc, u, hs) for u in dc.cells[0])
    v = dc._climb(hs)
    assert v is not None and outside(dc, v, hs)
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


def assert_equals_static_rebuild(dc: DynamicCoverage, tag=""):
    """The lattice's cells are the static map's visible sites, ``hidden``
    its hidden ones, each owned by the live site of least power distance
    from its centre (the lowest id on a tie, -1 exactly when no cell is
    live), and every area is the static rebuild's, float for float.
    Returns the number of areas compared."""
    sids = sorted(dc.transmitters)
    if not sids:
        assert not dc.cells and not dc.hidden, tag
        return 0
    static = compute_coverage_map([dc.transmitters[s] for s in sids], dc.window)
    hidden = {sids[k] for k in static.diagram.hidden}
    assert set(dc.cells) == set(sids) - hidden, tag
    assert dc.hidden.keys() == hidden, tag
    for h, owner in dc.hidden.items():
        centre = dc._int_disks[h].center
        dist = {c: power_distance(centre, dc._int_disks[c]) for c in dc.cells}
        assert owner == min(sorted(dist), key=dist.__getitem__, default=-1), (tag, h)
    areas = dc.region_areas()
    assert [areas[s] for s in sids] == [region_area(static, k) for k in range(len(sids))], tag
    return len(sids)


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


@pytest.mark.parametrize("dx", [0.0, 0.05])
def test_nested_concentric_hidden_disk(dx):
    # concentric, the smaller disk wins nowhere; moved by 0.05 it wins
    # where x > 80.025, far beyond the window, and so has a cell
    dc = DynamicCoverage(Rect(-6, -6, 6, 6), seed=9)
    big = dc.insert_transmitter(tx(0.0, 0.0, 2.0, 3.0))
    small = dc.insert_transmitter(tx(dx, 0.0, 0.5, 1.0))
    assert small.redundant == (dx == 0.0)
    assert_equals_static_rebuild(dc, "nested")
    rep = dc.delete_transmitter(big.site)
    assert rep.hidden_events == ([("revived", small.site)] if dx == 0.0 else [])
    assert small.site not in dc.hidden
    assert_equals_static_rebuild(dc, "nested-revive")


def sequential_scan_parked(dc: DynamicCoverage, planes, near):
    """The reference of ``DynamicCoverage._scan_parked``: each parked plane,
    in row order, against each current vertex of ``near`` in turn with
    ``outside``, stopping at the first vertex outside."""
    for k, (a, b, c) in enumerate(planes.tolist()):
        hs = HalfSpace3(a, b, c)
        for u in near:
            if dc.next[u] is None:
                dc.revival_tests += 1
                if outside(dc, u, hs):
                    return k, u
    return len(planes), None


def with_sequential_scan(dc: DynamicCoverage) -> DynamicCoverage:
    dc._scan_parked = MethodType(sequential_scan_parked, dc)
    return dc


def test_second_revival_probes_a_vertex_of_the_first():
    # three sites meet at the origin once the big middle disk is gone, so
    # the hole's one current vertex is there; both parked disks pass above
    # it, site 4 revives first and kills it, and site 5 then passes above
    # vertices of site 4's new cell alone
    win = Rect(-8.0, -8.0, 8.0, 8.0)
    layout = [(0.0, 6.0, 2.0), (-6.0, -3.0, 2.0), (6.0, -3.0, 2.0), (0.0, 0.0, 4.0),
              (-1.0, -0.5, 0.5), (0.5, 0.0, 1.0)]
    runs = []
    for dc in (DynamicCoverage(win), with_sequential_scan(DynamicCoverage(win))):
        reps = [dc.insert_transmitter(tx(x, y, 0.7 * r, r)) for (x, y, r) in layout]
        assert [r.redundant for r in reps] == [False] * 4 + [True] * 2
        hole, probes = [], {}
        retile, insert_site = dc._retile, dc._insert_site

        def recorded_retile(*args, retile=retile):
            hole.extend(retile(*args))
            return list(hole)

        def recorded_insert(sid, probe, events, dc=dc, insert_site=insert_site):
            # the probe, whether it is current and whether the last update made it
            probes[sid] = (probe, dc.next[probe] is None, probe >= dc._first)
            return insert_site(sid, probe, events)

        dc._retile, dc._insert_site = recorded_retile, recorded_insert
        rep = dc.delete_transmitter(3)
        assert rep.hidden_events == [("revived", 4), ("revived", 5)]
        (centre,) = hole
        assert probes[4] == (centre, True, True) and dc.next[centre] is not None
        assert outside(dc, centre, dc.planes[5])
        assert probes[5][1:] == (True, True) and probes[5][0] != centre
        dc.check_invariants()
        assert_matches_static(dc, win)
        runs.append((rep.to_dict(), dc.region_areas(), dc.cells, dc.revival_tests))
    assert runs[0] == runs[1]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_one_pass_revival_equals_the_sequential_scan(seed):
    # the benchmark's churn: a 1000-site fill, then rounds of deletes up to
    # a visible one, as many inserts and a read
    spread = 100.0 / math.sqrt(1000)
    rng = random.Random(seed)

    def draw():
        ir = rng.uniform(0.5, 1.5) * spread
        return tx(rng.uniform(0.3, 99.7), rng.uniform(0.3, 99.7),
                  max(1e-4, rng.uniform(0.5, 1.0) * ir), ir)

    win = Rect(0.0, 0.0, 100.0, 100.0)
    # ``unread``'s ``hidden`` is read only at the end: a read changes no state
    trio = fast, ref, unread = (DynamicCoverage(win), with_sequential_scan(DynamicCoverage(win)),
                                DynamicCoverage(win))

    def apply(op, *args):
        reps = [getattr(dc, op)(*args).to_dict() for dc in trio]
        assert reps[0] == reps[1] == reps[2], (op, args)
        return reps[0]

    live = [apply("insert_transmitter", draw())["site"] for _ in range(1000)]
    revived = 0
    for step in range(150):
        deleted = 0
        while True:
            rep = apply("delete_transmitter", live.pop(rng.randrange(len(live))))
            revived += sum(kind == "revived" for kind, _ in rep["hidden_events"])
            deleted += 1
            if not rep["redundant"]:
                break
        live += [apply("insert_transmitter", draw())["site"] for _ in range(deleted)]
        assert fast.region_areas() == ref.region_areas() == unread.region_areas(), step
        assert fast.hidden == ref.hidden, step
    assert revived > 0
    assert unread.hidden == fast.hidden
    counters = [(dc.revival_tests, dc.climb_steps, dc.traverse_fallbacks) for dc in trio]
    assert counters[0] == counters[1] == counters[2]


# sha256 of ``test_benchmark_churn_keeps_its_trajectory``'s record, per seed,
# recorded from a lattice that stored neighbour sets and per-update vertex
# lists: a change of representation must leave the trajectory bit for bit
CHURN_DIGESTS = {
    11: "490e25de2902477ed86529378e1cd5c6b64e7aeba338a5bda8666f1beb474f44",
    12: "23296b1aee365a7ce13c951a24a8c43f6097ccbb4de06dabfbf52ad74534f8b0",
    13: "1e1fa56089055b2e2522aa62aace3e1434cdd2e4e9e30fd42c2f6c272b7e9b5a",
}


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_benchmark_churn_keeps_its_trajectory(seed):
    """The benchmark's dynamic-churn at its size (perfbench's generator and
    round loop, copied): a 1000-site fill and a read, then 100 rounds of
    random deletes up to a visible one, as many fresh inserts and a read.
    Every report, every read's areas, the final ``hidden``, the walk,
    revival and climb counters and the node count hash to the seed's
    recorded digest."""
    spread = 100.0 / math.sqrt(1000)
    rng = random.Random(seed)

    def draw():
        ir = rng.uniform(0.5, 1.5) * spread
        return tx(rng.uniform(0.3, 99.7), rng.uniform(0.3, 99.7),
                  max(1e-4, rng.uniform(0.5, 1.0) * ir), ir)

    fill = [draw() for _ in range(1000)]
    dc = DynamicCoverage(Rect(0.0, 0.0, 100.0, 100.0), seed=seed)
    digest = hashlib.sha256()

    def record(value):
        digest.update(repr(value).encode())
        return value

    live = [record(dc.insert_transmitter(t).to_dict())["site"] for t in fill]
    record(dc.region_areas())
    for _ in range(100):
        deleted = 1
        while record(dc.delete_transmitter(live.pop(rng.randrange(len(live)))).to_dict())["redundant"]:
            deleted += 1
        live += [record(dc.insert_transmitter(draw()).to_dict())["site"] for _ in range(deleted)]
        record(dc.region_areas())
    record((dc.hidden, dc.traverse_fallbacks, dc.revival_tests, dc.climb_steps, len(dc.x)))
    assert digest.hexdigest() == CHURN_DIGESTS[seed]


def test_disks_winning_only_far_from_the_window_have_cells():
    # the small disk at (0, -5) wins only below y = -92.4, some 87 window
    # half-widths away: a static neighbour, so a visible site with a cell
    win = Rect(-6, -6, 6, 6)
    dc = DynamicCoverage(win)
    for t in (tx(-1, 0, 4.0, 30.0), tx(1, 0, 4.0, 30.0), tx(0, -5, 0.05, 0.1)):
        dc.insert_transmitter(t)
    assert_equals_static_rebuild(dc, "far")
    assert set(dc.cells) == {0, 1, 2} and not dc.hidden
    dc.insert_transmitter(tx(0, 3, 1.0, 2.0))  # wins only far above
    assert_equals_static_rebuild(dc, "insert")
    dc.delete_transmitter(0)
    assert_equals_static_rebuild(dc, "delete")
    # on the line from (1, 0) through (0, -5), just past it: this disk takes
    # all of site 2's far region, which it swallows
    rep = dc.insert_transmitter(tx(-0.1, -5.5, 0.5, 1.0))
    assert ("parked", 2) in rep.hidden_events
    assert_equals_static_rebuild(dc, "second insert")
    assert dc.hidden.keys() == {2}
    rep = dc.delete_transmitter(4)  # hands the region back
    assert rep.hidden_events == [("revived", 2)]
    assert_equals_static_rebuild(dc, "revived")
    assert set(dc.cells) == {1, 2, 3} and not dc.hidden


def test_deleting_a_cell_revives_a_disk_that_wins_only_far_away():
    # a 3x3 grid of equal disks; the disk nested in a corner one wins only
    # far to the left (x < -97.8), so it has a cell, and deleting the middle
    # one changes nothing there
    win = Rect(-6, -6, 6, 6)
    dc = DynamicCoverage(win)
    for x in (-4, 0, 4):
        for y in (-4, 0, 4):
            dc.insert_transmitter(tx(x, y, 1.5, 2.0))
    nested = dc.insert_transmitter(tx(-4.02, -4, 0.2, 0.5)).site
    assert_equals_static_rebuild(dc, "grid")
    assert nested in dc.cells and not dc.hidden
    dc.delete_transmitter(4)
    assert_equals_static_rebuild(dc, "middle deleted")

    # site 2 covers everything below site 3; once it is gone, site 3 wins
    # far below (y < -84.5) though nowhere near the window
    dc = DynamicCoverage(win)
    for t in (tx(-1, 0, 4.0, 30.0), tx(1, 0, 4.0, 30.0), tx(0, -5.8, 1.0, 30.0),
              tx(0, -5.5, 0.05, 0.1)):
        dc.insert_transmitter(t)
    assert_equals_static_rebuild(dc, "parked")
    assert dc.hidden.keys() == {3}
    rep = dc.delete_transmitter(2)
    assert rep.hidden_events == [("revived", 3)]
    assert_equals_static_rebuild(dc, "bottom deleted")
    assert set(dc.cells) == {0, 1, 3} and not dc.hidden


def test_deleting_a_far_winning_disk_gives_back_its_area():
    # the small disk wins only below y = -92.4, far from the window; as a
    # neighbour of site 0 it takes a sliver of site 0's transmission disk,
    # which its deletion gives back
    win = Rect(-6, -6, 6, 6)
    dc = DynamicCoverage(win)
    big = dc.insert_transmitter(tx(0, 0, 5.5, 30.0)).site
    small = dc.insert_transmitter(tx(0, -5, 0.05, 0.1)).site
    before = dc.region_areas()[big]
    assert dc._neighbours(big) == [small] and not dc.hidden
    assert_equals_static_rebuild(dc, "far")
    dc.delete_transmitter(small)
    assert dc.region_areas()[big] == pytest.approx(before + math.pi * 0.01, rel=1e-9)
    assert_equals_static_rebuild(dc, "far deleted")


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
    dc.cells[2] = dc.cells[2][1:] + dc.cells[2][:1]  # same ring, other start
    dc.check_invariants()
    u = dc.cells[2][0]
    dc.next[u] = 0  # a dead vertex left in a live cell
    with pytest.raises(AssertionError, match="not current"):
        dc.check_invariants()
    dc.next[u] = None
    sites = dc.incident[u]
    dc.incident[u] = tuple(c for c in sites if c != 2)  # a carve killing u would not find cell 2
    with pytest.raises(AssertionError, match="incident"):
        dc.check_invariants()
    dc.incident[u] = sites + (2,)  # cell 2 listed twice
    with pytest.raises(AssertionError, match="incident repeats"):
        dc.check_invariants()
    dc.incident[u] = sites
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


@pytest.mark.slow
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
    ring, in the window's frame: a cell whose vertices carry the rounding
    of the updates that made them."""
    cell = ConvexPolygon(tuple(Point2(dc.x[u], dc.y[u]) for u in dc.cells[sid]))
    return convex_polygon_intersection(dc._frame_window.to_polygon(), cell)


WINDOW_CELL_SITES = st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0),
                                       st.floats(0.05, 4.0)),
                             min_size=1, max_size=25, unique=True)


def pairs_beyond_the_square(dc: DynamicCoverage, pd) -> set[tuple[int, int]]:
    """The static diagram ``pd``'s neighbour pairs (p, q), as indices of its
    sites, whose shared edge misses the working square: the interval of
    their bisector where both beat every other site, each site and each
    side of the square one linear bound on the line's parameter."""
    xy = [(d.center.x, d.center.y) for d in pd.sites]
    w = [x * x + y * y - d.radius ** 2 for (x, y), d in zip(xy, pd.sites)]
    half = dc.square.x1
    beyond = set()
    for p, q in ((p, q) for p in range(len(xy)) for q in pd.neighbors[p]):
        (px, py), (qx, qy) = xy[p], xy[q]
        nx, ny, k = qx - px, qy - py, 0.5 * (w[q] - w[p])
        nn = nx * nx + ny * ny
        x0, y0, dx, dy = nx * k / nn, ny * k / nn, -ny / math.sqrt(nn), nx / math.sqrt(nn)
        bounds = [(2 * ((ox - px) * dx + (oy - py) * dy),
                   w[o] - w[p] - 2 * ((ox - px) * x0 + (oy - py) * y0))
                  for o, (ox, oy) in enumerate(xy) if o not in (p, q)]
        bounds += [(s * dx, half - s * x0) for s in (1, -1)] + [(s * dy, half - s * y0)
                                                                 for s in (1, -1)]
        lo = max((b / a for a, b in bounds if a < 0), default=-math.inf)
        hi = min((b / a for a, b in bounds if a > 0), default=math.inf)
        if lo >= hi or any(a == 0 and b < 0 for a, b in bounds):
            beyond.add((p, q))
    return beyond


def window_cells_against_static(sites) -> tuple[int, set[int], set[str]]:
    """Insert ``sites`` (x, y, interference radius) into a 0-10 window and
    assert, for every site: it has a lattice cell exactly when the static
    diagram keeps it, its lattice neighbours are its static ones, and its
    window cell is ``build``'s cell vertex for vertex, bits and signs of
    zero included.  Exempt are the sites of a static neighbour pair that the
    lattice cannot tell: one adjacent only beyond the working square, or
    one whose centres lie within ``eps`` (the cell builders' concentric
    rule; the lattice's planes for two such disks of one radius agree to
    rounding).  Returns the sites compared, the exempt ones, and which
    cells occurred: inside the window, crossing its sides, or outside it
    (None)."""
    dc = DynamicCoverage(Rect(0.0, 0.0, 10.0, 10.0))
    for x, y, r in sites:
        dc.insert_transmitter(tx(x, y, 0.5 * r, r))
    sids = sorted(dc.transmitters)
    pd = build([dc._int_disks[s] for s in sids], dc._frame_window)  # as the static map does
    close = {(p, q) for p in range(len(sids)) for q in pd.neighbors[p]
             if math.dist(pd.sites[p].center, pd.sites[q].center) <= pd.eps}
    exempt = {k for pair in pairs_beyond_the_square(dc, pd) | close for k in pair}
    seen = set()
    for k, sid in enumerate(sids):
        if k in exempt:
            continue
        assert (sid in dc.cells) == (k not in pd.hidden), sid
        if sid not in dc.cells:
            continue
        assert {sids[q] for q in pd.neighbors[k]} == set(dc._neighbours(sid)), sid
        row, want = dc._region_row(sid), pd.cells[k]
        assert repr(row and row[0]) == repr(want)
        inside = all(dc._frame_window.contains(Point2(dc.x[u], dc.y[u])) for u in dc.cells[sid])
        seen.add("outside" if want is None else "inside" if inside else "crossing")
    return len(sids) - len(exempt), {sids[k] for k in exempt}, seen


def test_window_cell_equals_the_static_cell():
    """``window_cells_against_static`` on random lattices."""
    seen, counts = set(), [0, 0]  # sites compared, sites exempt

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(WINDOW_CELL_SITES)
    def check(sites):
        n, exempt, kinds = window_cells_against_static(sites)
        counts[0] += n
        counts[1] += len(exempt)
        seen.update(kinds)

    check()
    assert seen == {"inside", "crossing", "outside"}
    assert counts[0] > 20 * counts[1], counts


@pytest.mark.parametrize("sites, cells", [
    # site 0 wins only where y < -1.5e9: it is parked
    ([(0.0, 0.0, 1.0), (0.0, 1e-9, 2.0)], {1}),
    # sites 0 and 1 meet only where x < -1.75e8
    ([(0.0, 0.0, 1.0), (0.0, 5.0, 1.0), (5.960464477539063e-08, 2.0, 4.0)], {0, 1, 2}),
])
def test_a_pair_adjacent_only_beyond_the_working_square_is_not_in_the_lattice(sites, cells):
    # the static diagram sees the whole plane, the lattice a square of
    # half-width 1.6e8 here
    dc = DynamicCoverage(Rect(0.0, 0.0, 10.0, 10.0))
    for x, y, r in sites:
        dc.insert_transmitter(tx(x, y, 0.5 * r, r))
    pd = build([dc._int_disks[s] for s in sorted(dc.transmitters)], dc._frame_window)
    assert pairs_beyond_the_square(dc, pd) == {(0, 1), (1, 0)}
    assert 1 in pd.neighbors[0] and not pd.hidden
    assert set(dc.cells) == cells and (0 not in cells or 1 not in dc._neighbours(0))
    assert window_cells_against_static(sites)[1] == {0, 1}


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
    """After every op the lattice holds, its cells are the static rebuild's
    visible sites, ``hidden`` its hidden ones, and each area is the static
    rebuild's, float for float."""
    compared = 0
    for dc, step in c03_churn(seed):
        dc.check_invariants()
        compared += assert_equals_static_rebuild(dc, f"step {step}")
    assert compared > 4000


# ---------------------------------------------------------------------------
# chains both engines make, and maps wherever the window lies
# ---------------------------------------------------------------------------

def static_map_transmitters(seed: int, n: int = 512, offset=(0.0, 0.0)):
    """The static-map generator (a 100 x 100 window), moved by ``offset``:
    transmitters and window."""
    rng, spread, (ox, oy) = random.Random(seed), 100.0 / math.sqrt(n), offset
    txs = []
    for _ in range(n):
        ir = rng.uniform(0.5, 1.5) * spread
        x, y = rng.uniform(0.3, 99.7) + ox, rng.uniform(0.3, 99.7) + oy
        txs.append(tx(x, y, max(1e-4, rng.uniform(0.5, 1.0) * ir), ir))
    return txs, Rect(ox, oy, ox + 100.0, oy + 100.0)


def test_every_chain_of_both_engines_passes_the_metric_check():
    """``arc_polygon_area`` trusts the chains the stitcher closed by keys;
    ``validate`` at the map's eps finds nothing to refuse in them: every
    chain of the static-map generator's maps (n = 512, seeds 11-13) and of
    the structure's regions after each op of c03's churn."""
    checked = 0
    for seed in (11, 12, 13):
        cov = compute_coverage_map(*static_map_transmitters(seed))
        for ap in (ap for chains in cov.regions.values() for ap in chains):
            validate(ap, cov.diagram.eps)
            checked += 1
    for dc, step in c03_churn(305):
        for ap in (ap for chains in dc.regions.values() for ap in chains):
            validate(ap, dc.eps)
            checked += 1
    assert checked > 2500, checked


def _both_engines(txs, window):
    """Per-site areas and hidden sites of each engine on one layout."""
    cov = compute_coverage_map(txs, window)
    dc = DynamicCoverage(window)
    for t in txs:
        dc.insert_transmitter(t)
    areas = dc.region_areas()
    return {"static": ([region_area(cov, p) for p in range(len(txs))], cov.diagram.hidden),
            "dynamic": ([areas[p] for p in range(len(txs))], set(dc.hidden))}


@pytest.mark.parametrize("offset", [(1e5, 1e5), (5e5, 4e6), (1e6, 1e6)])
def test_both_engines_give_the_offset_0_areas_at_projected_offsets(offset):
    # UTM eastings are about 5e5 and northings reach 1e7; lifting squares the
    # coordinates, so before the engines computed relative to the window's
    # centre these maps were wrong (1e5) or refused (5e5, 4e6 and 1e6)
    for seed in (11, 12, 13):
        base = _both_engines(*static_map_transmitters(seed))
        moved = _both_engines(*static_map_transmitters(seed, offset=offset))
        for engine, (areas, hidden) in moved.items():
            want, want_hidden = base[engine]
            assert set(hidden) == set(want_hidden), (engine, seed)
            worst = max(abs(a - b) for a, b in zip(areas, want))
            assert worst <= 1e-8, (engine, seed, worst)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(sites=st.lists(st.tuples(st.integers(1, 15), st.integers(1, 15), st.integers(1, 6),
                                st.sampled_from([0.5, 0.75, 1.0])),
                      min_size=1, max_size=12, unique_by=lambda s: s[:3]),
       offset=st.tuples(st.integers(-2 ** 25, 2 ** 25), st.integers(-2 ** 25, 2 ** 25)))
def test_a_layout_moved_by_a_representable_offset_gives_the_same_maps(sites, offset):
    """Centres and radii on a half-unit lattice (tangent, cocircular and
    concentric circles are common) moved by a multiple of 0.5 up to 1.7e7:
    the moved floats are exact, so each engine's local frame, and with it
    every area and hidden site, is bit for bit the unmoved one's."""
    ox, oy = 0.5 * offset[0], 0.5 * offset[1]
    layout = [(0.5 * x, 0.5 * y, 0.5 * r * share, 0.5 * r) for x, y, r, share in sites]
    base = _both_engines([tx(x, y, t, i) for x, y, t, i in layout], Rect(0.0, 0.0, 8.0, 8.0))
    moved = _both_engines([tx(x + ox, y + oy, t, i) for x, y, t, i in layout],
                          Rect(ox, oy, ox + 8.0, oy + 8.0))
    assert moved == base
