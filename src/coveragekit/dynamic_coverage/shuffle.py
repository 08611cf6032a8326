"""Dynamic power-diagram and coverage-map maintenance.

Disks lift to upper half-spaces in 3-D (z >= 2cx*x + 2cy*y - |c|^2 + r^2);
the power diagram is the downward projection of the lower boundary of the
half-space intersection, bounded by a working square that reaches 1.1e7
window diameters (at least 1.1e7) from the window's centre and stands in
for the plane the static map sees.  The structure maintained here is
that projected lattice (cells as convex polygons of vertex nodes) plus a
history of every vertex ever made, each kept once, in one slot per node
id of a few node arrays (the compact vertex arrays of
Boissonnat et al. 2002, *Triangulations in CGAL*, and Blandford et al.
2005, *Compact representations of simplicial meshes*):

* each vertex has its 3-D position (``x``, ``y``, ``z``, typed ``array('d')``)
  and the update that made it (``layer``, ``array('q')``); once it dies, a
  vertex made by the update that killed it (``next``, a list, None while it
  is current); and the sites whose cells have had it as a corner
  (``incident``, a tuple that only grows, each site once);
* a cell is a CCW ring of node ids, so it stores no coordinate;
* nodes 0-7, made first, are the roots: the corners of the bounding volume,
  the four lower ones first;
* the vertices of each update are listed under its layer (``face_by_layer``).

Vertex identity is kept by construction, never by comparing coordinates.
An insertion decides once per vertex whether the new plane passes above it
(it dies), below it, or through it (it stays and joins the new cell).  Each
dying edge gets one crossing vertex, keyed by its two end nodes, so both of
its cells share it; the new cell is the outline of what the carved cells
lose, and adjacency comes from the edges the changed cells share.  A
deletion re-tiles the deleted cell with the same carve, inserting the
neighbours' planes into it one by one.  ``check_invariants`` verifies the
lattice.

``traverse_shuffle`` starts at a root outside a query half-space and follows
``next`` pointers, scanning the layer each pointer leads to for a vertex
outside the half-space, until it reaches a current vertex (or certifies the
half-space redundant).  Layers only grow, so the walk ends; once a deletion
has broken the nesting of the layers, a negative answer is confirmed by a
local climb over the lattice (exact: the envelope is convex).

Redundant half-spaces are never inserted: the disk is parked in ``hidden``
keyed by the site whose cell contains its center.  A deletion lowers the
envelope only over the deleted cell, so parked disks are tested against its
new vertices alone: their planes, stacked in ascending site order, against
those vertices in one numpy pass over views of the node arrays; the first
disk that passes above one is inserted, and only the disks after it are
tested again, against the vertices its cell added as well.  So a disk is
parked exactly when no point of the working square prefers it.  Coverage
regions are maintained lazily:
updates mark affected sites dirty and ``regions`` recomputes exactly those.
A read takes only the neighbours from the lattice and cuts the window by
their bisectors with static ``build``'s recipe, ``power_diagram._clip_cell``
(the one cell builder here), so the rounding of the lattice's vertices
never reaches a region.

Single-writer structure: no concurrent mutation.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import deque
from dataclasses import asdict, dataclass
from itertools import chain
from typing import NamedTuple, Optional

import numpy as np

from ..errors import LatticeError
from ..geometry import (ArcPolygon, Disk, Point2, Rect, arc_polygon_area, boolean_rows,
                        geom_eps, power_distance, side)
from ..power_diagram import _clip_cell, admit, window_frame
from ..protocol_coverage import ProtocolTransmitter

_Z_BIG = 1.0e30
# The working square's half-width, in diameters of the square of half-width
# 4 * max(window diameter, 1); only near-degenerate layouts meet beyond it
_MEGA_FACTOR = 1.0e6


class HalfSpace3(NamedTuple):
    """Upper half-space {(x, y, z) : z >= a*x + b*y + c}; a tuple, so
    planes stack into numpy rows."""
    a: float
    b: float
    c: float

    def height(self, x: float, y: float) -> float:
        return self.a * x + self.b * y + self.c


def lift(d: Disk) -> HalfSpace3:
    """Half-space whose boundary plane cuts the paraboloid z = x^2 + y^2
    exactly over the disk rim; lower power distance = higher plane."""
    cx, cy = d.center.x, d.center.y
    return HalfSpace3(2.0 * cx, 2.0 * cy, -(cx * cx) - (cy * cy) + d.radius ** 2)


def _outline(edges: set, keep=None) -> list[int]:
    """The single boundary cycle (CCW vertex ids) of the union of faces
    whose directed edges are ``edges``, less the vertices ``keep`` rejects:
    an edge and its twin, shared by two faces, cancel.  Raises
    ``LatticeError`` if they leave no single cycle."""
    edges = {(u, v) for (u, v) in edges if (v, u) not in edges}
    succ = dict(edges)
    cycle = [min(succ)]
    while len(cycle) <= len(succ) and succ.get(cycle[-1], cycle[0]) != cycle[0]:
        cycle.append(succ[cycle[-1]])
    if len(cycle) != len(edges) or len(succ) != len(edges):
        raise LatticeError(f"faces do not merge into one cycle: {sorted(edges)}")
    return [u for u in cycle if keep is None or keep(u)]


def _ring_edges(ring: list[int]) -> zip:
    """Directed edges (u, v) of a cell's ring of vertex ids."""
    return zip(ring[-1:] + ring[:-1], ring)


@dataclass
class UpdateReport:
    op: str
    site: int
    redundant: bool
    affected: list[int]
    structural_change: int
    hidden_events: list[tuple[str, int]]
    wall_time: float

    def to_dict(self) -> dict:
        """The report without its wall time, so results stay reproducible."""
        d = dict(asdict(self), hidden_events=[list(e) for e in self.hidden_events])
        del d["wall_time"]
        return d


class DynamicCoverage:
    """Coverage map under single-transmitter insertion and deletion.

    ``regions`` always equals the static coverage map of the currently
    registered transmitters (hidden ones included as empty), bit for bit:
    the lattice's cells are the static map's visible sites, ``hidden`` its
    hidden ones, and each cell's neighbours its static neighbours, unless
    two sites meet only beyond the working square (see ``_MEGA_FACTOR``).
    As in ``compute_coverage_map``, transmitters are moved into the window's
    frame (``power_diagram.window_frame``: less ``origin``, the window's
    centre) and admitted there on their interference disks; the lattice and
    regions are in that frame, cut at ``eps``, the window's ``geom_eps``.
    Cells share vertex nodes by construction (see the module docstring):
    positions and layers in typed arrays, incident sites in tuples, one
    slot per node id, kept for vertices that died too.  A deletion tests
    every parked disk against the vertices it uncovered in one numpy pass
    (``_scan_parked``).  ``check_invariants`` verifies the lattice after any
    sequence of updates.  The working square is centred on the window,
    with half-width ``_MEGA_FACTOR`` times the diameter of the square of
    half-width 4 * max(window diameter, 1).

    ``seed`` is accepted for compatibility with callers that pass one; the
    structure draws no random numbers, so it does not change any result.
    """

    def __init__(self, window: Rect, seed: int = 0):
        self.window = window
        self.origin, window, self._local = window_frame(window)
        self._frame_window, self._window_poly = window, window.to_polygon()
        self.eps = geom_eps(window.diameter())
        near = 4.0 * max(window.diameter(), 1.0)
        half = _MEGA_FACTOR * Rect(-near, -near, near, near).diameter()
        self.square = Rect(-half, -half, half, half)  # centred on the origin
        self.transmitters: dict[int, ProtocolTransmitter] = {}
        self._tx_keys: dict[tuple[float, float, float], int] = {}  # by interference disk
        self._int_disks: dict[int, Disk] = {}  # in the window's frame, as are the next two
        self._tx_disks: dict[int, Disk] = {}
        self.planes: dict[int, HalfSpace3] = {}
        # vertex nodes, one slot per id in each (see the module docstring)
        self.x = array("d")
        self.y = array("d")
        self.z = array("d")
        self.layer = array("q")
        self.next: list[Optional[int]] = []
        self.incident: list[tuple[int, ...]] = []
        self.face_by_layer: dict[int, list[int]] = {}
        self.cells: dict[int, list[int]] = {}  # CCW rings of vertex ids
        self.neighbors: dict[int, set[int]] = {}
        self.hidden: dict[int, int] = {}
        self.last_traverse_visits = 0
        self.traverse_fallbacks = 0
        self.revival_tests = 0  # parked planes against vertices, by deletes
        self.climb_steps = 0    # vertices the confirming climbs evaluated
        self._next_site = 0
        self._layer = 0
        # insertions only: the layers are nested and a negative walk is exact
        self._nested = True
        self._corners: set[int] = set()  # current vertices at square corners
        self._walk_hint: Optional[int] = None
        self._dirty: set[int] = set()
        self._regions: dict[int, tuple[list[ArcPolygon], float]] = {}  # chains, area
        sq = self.square
        corners = [(sq.x0, sq.y0), (sq.x1, sq.y0), (sq.x1, sq.y1), (sq.x0, sq.y1)]
        for z in (-_Z_BIG, _Z_BIG):  # the roots, nodes 0-7
            for (x, y) in corners:
                self._new_node(x, y, z)

    # ------------------------------------------------------------------
    # node and record helpers
    # ------------------------------------------------------------------

    def _new_node(self, x: float, y: float, z: float) -> int:
        nid = len(self.x)
        self.x.append(x)
        self.y.append(y)
        self.z.append(z)
        self.layer.append(self._layer)
        self.next.append(None)
        self.incident.append(())
        self.face_by_layer.setdefault(self._layer, []).append(nid)
        return nid

    def _commit_cell(self, sid: int, ring: list[int]) -> None:
        self.cells[sid] = ring
        incident = self.incident
        for u in ring:
            if sid not in incident[u]:
                incident[u] += (sid,)

    def _bury(self, dead, face: list[int]) -> None:
        """Point each dead vertex at a vertex of ``face`` this update made:
        the walk scans that vertex's layer.  An update that made none breaks
        the nesting of the layers, as a deletion does."""
        target = next((u for u in face if self.layer[u] == self._layer), None)
        if target is None:
            self._nested = False
            target = face[0]
        for d in dead:
            self.next[d] = target

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def _outside(self, u: int, hs: HalfSpace3) -> bool:
        """Whether the plane of ``hs`` passes above vertex ``u``: ``side``
        of the plane's height against the vertex's, the test ``_carve`` and
        the clipper use."""
        return side(hs.height(self.x[u], self.y[u]), self.z[u]) > 0

    def _climb(self, hs: HalfSpace3) -> Optional[int]:
        """Exact answer from the current lattice: a current vertex outside
        ``hs``, or None.  The plane's height above the lifted envelope is
        concave and linear on each cell, so a vertex that no vertex of its
        cells beats is the highest.  The climb starts at the cell owning the
        disk's centre and explores every vertex that the plane, lowered by
        the best height seen, does not pass strictly below (by ``side``), so
        flat runs cannot stop it."""
        xs, ys, zs = self.x, self.y, self.z

        def gap(u: int) -> float:
            return hs.height(xs[u], ys[u]) - zs[u]

        start = self._owner_of(Point2(0.5 * hs.a, 0.5 * hs.b))
        gaps = {u: gap(u) for u in self.cells[start]}
        best = max(gaps, key=gaps.__getitem__)
        stack = list(gaps)
        while stack:
            u = stack.pop()
            if side(hs.height(xs[u], ys[u]) - gaps[best], zs[u]) < 0:
                continue
            for c in self.incident[u]:
                for w in self.cells.get(c, ()):
                    if w not in gaps:
                        gaps[w] = gap(w)
                        if gaps[w] > gaps[best]:
                            best = w
                        stack.append(w)
        self.climb_steps += len(gaps)
        return best if self._outside(best, hs) else None

    def _traverse(self, hs: HalfSpace3) -> Optional[int]:
        # ``_outside`` inline: the plane's height, then ``side``
        xs, ys, zs = self.x, self.y, self.z
        ha, hb, hc = hs.a, hs.b, hs.c
        visits = 0
        u = None
        for r in range(8):  # the roots
            visits += 1
            if side(ha * xs[r] + hb * ys[r] + hc, zs[r]) > 0:
                u = r
                break
        if u is None:
            self.last_traverse_visits = visits
            return None
        guard = 0
        limit = 2 * len(self.x) + 64
        while True:
            visits += 1
            nxt = self.next[u]
            if nxt is None:
                self.last_traverse_visits = visits
                return u
            found = None
            for w in self.face_by_layer.get(self.layer[nxt], ()):
                visits += 1
                if side(ha * xs[w] + hb * ys[w] + hc, zs[w]) > 0:
                    found = w
                    break
            if found is None:
                # insertions alone keep the layers nested polytopes and a
                # negative walk exact; deletions (and see ``_bury``) break the
                # nesting, so the conclusion is confirmed by a climb
                self.last_traverse_visits = visits
                if not self._nested and self.cells:
                    exact = self._climb(hs)
                    if exact is not None:
                        self.traverse_fallbacks += 1
                    return exact
                return None
            u = found
            guard += 1
            if guard > limit:
                self.traverse_fallbacks += 1
                self.last_traverse_visits = visits
                return self._climb(hs)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert_transmitter(self, t: ProtocolTransmitter) -> UpdateReport:
        """Register a transmitter and update lattice, history and regions.

        It is ``admit``ted first, by its interference disk.  A transmitter
        whose lifted half-space is redundant is parked in
        ``hidden`` (keyed by the owner of its center) without touching the
        lattice; everyone else gets a cell and patched neighbor regions.
        """
        start = time.perf_counter()
        sid = self._next_site
        at = self._local(t.location)
        int_disk = Disk(at, t.int_radius)
        admit(self._tx_keys, sid, int_disk, self._frame_window)
        self._next_site += 1
        self.transmitters[sid] = t
        self._int_disks[sid] = int_disk
        self._tx_disks[sid] = Disk(at, t.tx_radius)
        self.planes[sid] = lift(int_disk)
        events: list[tuple[str, int]] = []
        probe = self._traverse(self.planes[sid])
        if probe is None:
            self._park(sid, events)
            affected = None
        else:
            affected = self._insert_site(sid, probe, events)
        return UpdateReport(op="insert", site=sid, redundant=affected is None,
                            affected=sorted(affected or []),
                            structural_change=len(affected or []), hidden_events=events,
                            wall_time=time.perf_counter() - start)

    def _park(self, sid: int, events: list[tuple[str, int]]) -> None:
        owner = self._owner_of(self._int_disks[sid].center)
        self.hidden[sid] = owner if owner is not None else -1
        events.append(("parked", sid))
        self._dirty.add(sid)

    def _owner_of(self, p: Point2) -> Optional[int]:
        """Site whose cell contains ``p``, by stepping from the last answer to
        a neighbour nearer in power distance while there is one.  A site
        that does not own ``p`` always has one: the neighbour across the
        edge where the segment from its cell to ``p`` leaves the cell."""
        if not self.cells:
            return None
        cur = self._walk_hint if self._walk_hint in self.cells else min(self.cells)
        dist = {cur: power_distance(p, self._int_disks[cur])}
        while True:
            for v in self.neighbors[cur] - dist.keys():
                dist[v] = power_distance(p, self._int_disks[v])
            step = min(self.neighbors[cur], key=dist.__getitem__, default=cur)
            if dist[step] >= dist[cur]:
                self._walk_hint = cur
                return cur
            cur = step

    def _rekey(self, touched: set[int]) -> None:
        """Re-key the parked disks owned by a ``touched`` site or by no live
        cell.  The area those cells lost or gained stayed among ``touched``,
        so the new owner is the old one or a touched site (-1 if none has a
        cell)."""
        for h in sorted(h for h, o in self.hidden.items()
                        if o in touched or o not in self.cells):
            center = self._int_disks[h].center
            cand = [c for c in sorted(touched | {self.hidden[h]}) if c in self.cells]
            self.hidden[h] = min(cand, default=-1, key=lambda c: power_distance(
                center, self._int_disks[c]))

    def _insert_site(self, sid: int, probe: int, events: list[tuple[str, int]]) -> list[int]:
        """Insert a registered site's half-space, carving from ``probe``, a
        current vertex outside it (a root when the structure is empty);
        returns the sites whose cells it shrank or swallowed."""
        hs = self.planes[sid]
        xs, ys = self.x, self.y
        self._layer += 1
        if not self.cells:
            for r in range(4):  # the lower roots
                self.next[r] = self._new_node(xs[r], ys[r], hs.height(xs[r], ys[r]))
            face = self.face_by_layer[self._layer]
            self._corners = set(face)
            self._commit_cell(sid, list(face))
            self.neighbors[sid] = set()
            self._dirty.add(sid)
            return []

        face, shrunk, swallowed, dead = self._carve(
            self.cells, hs, {},
            sorted(o for o in self.incident[probe] if o in self.cells), self._corners)
        # a square corner the new cell takes changes height: a new vertex
        for i, u in enumerate(face):
            if u in dead:
                face[i] = self._new_node(xs[u], ys[u], hs.height(xs[u], ys[u]))
                self._corners ^= {u, face[i]}
        for c in shrunk:
            self._commit_cell(c, shrunk[c])
        for c in swallowed:
            del self.cells[c]
        self._commit_cell(sid, list(face))
        # the layer lists the whole new face, kept vertices too: there a walk
        # finds a vertex outside any half-space that cuts the structure
        self.face_by_layer[self._layer] = face
        self._bury(dead, face)
        self._relink(set(shrunk) | {sid}, set(swallowed))
        for c in swallowed:
            self._park(c, events)
        # insertions never revive parked disks, so no re-probe here
        affected = sorted(shrunk) + swallowed
        self._rekey(set(affected) | {sid})
        self._dirty.update(shrunk)
        self._dirty.add(sid)
        return affected

    def _carve(self, cells, hs: HalfSpace3, height, seeds, keep):
        """Cut where the plane of ``hs`` passes above the lattice ``cells``
        (rings of vertex ids) out of it, searching from ``seeds`` through
        the cells around each dead vertex (``incident``); None if no vertex
        dies.  Each vertex is decided once, by ``side`` (the test of
        ``_outside`` and of the clipper): the plane passes above it (it
        dies), through it, or below it.  Heights come from ``height`` where
        it has them, else from the nodes.  A dying edge's crossing, a new
        node, is shared by its cells (a vertex on the plane is its own).
        Returns the new face (CCW ids), the shrunk cells, the swallowed
        cells (none of their vertices below the plane) and the dead
        vertices.  A dead vertex on the outer boundary stays in the face
        only if in ``keep``; any other lies inside a straight outer edge."""
        xs, ys, zs, incident = self.x, self.y, self.z, self.incident
        ha, hb, hc = hs.a, hs.b, hs.c
        sides: dict[int, int] = {}  # 1 dies, 0 on the plane, -1 stays

        def dies(ring) -> bool:
            """Decide each vertex of a cell once: ``side`` of the plane's
            height against the vertex's, as in ``_outside``."""
            out = False
            for u in ring:
                s = sides.get(u)
                if s is None:
                    s = sides[u] = side(ha * xs[u] + hb * ys[u] + hc, height.get(u, zs[u]))
                out = out or s > 0
            return out

        carved = []
        seen = set(seeds)
        queue = deque(seeds)
        while queue:
            c = queue.popleft()
            if dies(cells[c]):
                carved.append(c)
                around = {o for u in cells[c] if sides[u] > 0 for o in incident[u]}
                queue.extend(o for o in around - seen if o in cells)
                seen |= around
        if not carved:
            return None
        carved.sort()
        sharers: dict[tuple[int, int], list[int]] = {}  # cells of each dying edge
        for c in carved:
            for a, b in _ring_edges(cells[c]):
                if (sides[a] > 0) != (sides[b] > 0):
                    sharers.setdefault((a, b) if a < b else (b, a), []).append(c)
        crossings: dict[tuple[int, int], int] = {}

        def crossing(a: int, b: int) -> int:  # a dies, b does not
            if sides[b] == 0:
                return b
            key = (a, b) if a < b else (b, a)
            if key not in crossings:
                x, y = self._meet(hs, sharers[key], a, b)
                crossings[key] = w = self._new_node(x, y, hs.height(x, y))
                sides[w] = 0
            return crossings[key]

        # what the carved cells lose, as directed edges: its outline is the
        # new cell
        lost: set[tuple[int, int]] = set()
        shrunk: dict[int, list[int]] = {}
        swallowed = []
        for c in carved:
            ring = cells[c]
            k = len(ring)
            start = next((i for i in range(k) if sides[ring[i]] < 0), None)
            if start is None:
                swallowed.append(c)
                lost.update(_ring_edges(ring))
                continue
            kept = []
            entry = start
            for i in range(start, start + k):
                a, b = ring[i % k], ring[(i + 1) % k]
                da, db = sides[a] > 0, sides[b] > 0
                if not da:
                    kept.append(a)
                if da and db:
                    lost.add((a, b))
                elif db:  # entering a dead run
                    entry = crossing(b, a)
                    if entry != a:
                        kept.append(entry)
                    lost.add((entry, b))
                elif da:  # leaving it: the new edge entry -> w closes the loss
                    w = crossing(a, b)
                    lost.update(((a, w), (w, entry)))
                    if w != b:
                        kept.append(w)
            shrunk[c] = kept
        dead = {u for c in carved for u in cells[c] if sides[u] > 0}
        face = _outline(lost, lambda u: sides[u] <= 0 or u in keep)
        return face, shrunk, swallowed, dead

    def _meet(self, hs: HalfSpace3, sharers: list[int], a: int, b: int) -> tuple[float, float]:
        """Where ``hs`` cuts the edge between vertices a and b: solved from
        the planes of ``hs`` and of the edge's two cells, so no rounding of
        a or b carries over; interpolated along an outer edge or a
        near-parallel cut."""
        p = self.planes[sharers[0]]
        a1, b1, c1 = hs.a - p.a, hs.b - p.b, hs.c - p.c
        if len(sharers) == 2:
            q = self.planes[sharers[1]]
            a2, b2, c2 = q.a - p.a, q.b - p.b, q.c - p.c
            det = a1 * b2 - a2 * b1
            if abs(det) > 1e-4 * math.hypot(a1, b1) * math.hypot(a2, b2):
                return (b1 * c2 - b2 * c1) / det, (a2 * c1 - a1 * c2) / det
        ax, ay, bx, by = self.x[a], self.y[a], self.x[b], self.y[b]
        ga, gb = a1 * ax + b1 * ay + c1, a1 * bx + b1 * by + c1
        t = ga / (ga - gb) if ga != gb else 0.5  # 0.5: a concentric tie
        return ax + t * (bx - ax), ay + t * (by - ay)

    def _relink(self, changed: set[int], gone: set[int]) -> None:
        """Re-derive the neighbours of the ``changed`` cells from the edges
        they share with each other and with the neighbours of ``gone``
        cells; adjacency with any other cell is unchanged."""
        near = set(changed).union(*(self.neighbors[g] for g in gone)) - gone
        owner = {e: x for x in near for e in _ring_edges(self.cells[x])}
        for x in changed:
            twins = {owner.get((v, u)) for (u, v) in _ring_edges(self.cells[x])}
            twins.discard(None)
            self.neighbors[x] = (self.neighbors.get(x, set()) - changed - gone) | twins
        for x in changed:
            for y in self.neighbors[x]:
                self.neighbors[y].add(x)
        for g in gone:
            for y in self.neighbors.pop(g, set()):
                self.neighbors.get(y, set()).discard(g)

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    def delete_transmitter(self, sid: int) -> UpdateReport:
        """Remove a transmitter; neighbors absorb its cell.  Parked disks
        can surface only over that cell, so each (ascending site id) is
        tested against the current vertices there, those of the cells
        revived before it included; a vertex outside its plane is the probe
        its insertion carves from."""
        start = time.perf_counter()
        events: list[tuple[str, int]] = []
        if sid in self.hidden:
            del self.hidden[sid]
            self._forget(sid)
            self._dirty.discard(sid)
            events.append(("unparked", sid))
            return UpdateReport(op="delete", site=sid, redundant=True, affected=[],
                                structural_change=0, hidden_events=events,
                                wall_time=time.perf_counter() - start)
        if sid not in self.cells:
            raise KeyError(f"site {sid} not present")

        self._layer += 1
        self._nested = False
        nbrs = sorted(self.neighbors[sid])
        self._forget(sid)
        hole = self.cells.pop(sid)
        near = self._retile(hole, nbrs)
        self._relink(set(nbrs), {sid})
        self._dirty.update(nbrs)
        affected = list(nbrs)

        # the envelope fell only over the hole
        revived: list[int] = []
        parked = sorted(self.hidden)
        planes = np.fromiter(chain.from_iterable(map(self.planes.__getitem__, parked)),
                             float, 3 * len(parked)).reshape(-1, 3)
        while parked:
            k, probe = self._scan_parked(planes, near)
            if probe is None:
                break
            h, parked, planes = parked[k], parked[k + 1:], planes[k + 1:]
            del self.hidden[h]
            events.append(("revived", h))
            affected.extend(a for a in self._insert_site(h, probe, events) if a in self.cells)
            revived.append(h)
            near.extend(self.cells[h])
        self._rekey(set(affected) | {sid})

        self._dirty.update(a for a in affected if a in self.cells)
        return UpdateReport(op="delete", site=sid, redundant=False,
                            affected=sorted(set(affected) | set(revived)),
                            structural_change=len(set(affected)) + 1, hidden_events=events,
                            wall_time=time.perf_counter() - start)

    def _scan_parked(self, planes: np.ndarray, near: list[int]) -> tuple[int, Optional[int]]:
        """The first row ``k`` of ``planes`` (rows ``a, b, c``) that passes
        above a current vertex of ``near``, and the first such vertex in
        ``near`` order: the test of ``_outside``, made for every row and
        vertex in one numpy pass over views of the node arrays.  Returns
        ``(len(planes), None)`` if no row does.  ``revival_tests`` counts the
        vertices a row-by-row scan stopping at the first hit would test."""
        cur = np.array([u for u in near if self.next[u] is None], dtype=np.intp)
        x, y, z = (np.frombuffer(a)[cur] for a in (self.x, self.y, self.z))
        out = side(planes[:, :1] * x + planes[:, 1:2] * y + planes[:, 2:], z) > 0
        hit = out.any(axis=1)
        if not hit.any():
            self.revival_tests += len(planes) * len(cur)
            return len(planes), None
        k = int(hit.argmax())
        j = int(out[k].argmax())
        self.revival_tests += k * len(cur) + j + 1
        return k, int(cur[j])

    def _forget(self, sid: int) -> None:
        del self.transmitters[sid], self._tx_keys[self._int_disks[sid].xyr]
        del self._int_disks[sid], self._tx_disks[sid], self.planes[sid]
        self._regions.pop(sid, None)

    def _retile(self, hole: list[int], nbrs: list[int]) -> list[int]:
        """Hand the deleted cell ``hole`` to its neighbours ``nbrs``: the
        first takes it whole, each other one's plane carves its piece (with
        heights local to the hole, whose vertices stay), and each piece
        merges into its owner's cell.  A hole vertex left inside a straight
        edge dies; a square corner changes height, so it is made anew.
        Returns the current vertices over the hole: the four lower roots
        when the structure is empty again."""
        xs, ys = self.x, self.y
        if not nbrs:  # the last cell: the structure is empty again
            for r in range(4):  # the lower roots
                self.next[r] = None
            self._corners = set()
            self._bury(hole, [0])
            return [0, 1, 2, 3]
        base = self.planes[nbrs[0]]
        height = {u: base.height(xs[u], ys[u]) for u in hole}
        pieces = {nbrs[0]: hole}
        for n in nbrs[1:]:
            hs = self.planes[n]
            res = self._carve(pieces, hs, height, sorted(pieces), set(hole))
            if res is None:
                continue
            face, shrunk, swallowed, dead = res
            for u in dead.intersection(face):
                height[u] = hs.height(xs[u], ys[u])
            pieces.update(shrunk)
            for c in swallowed:
                del pieces[c]
            pieces[n] = face
        for m, piece in pieces.items():
            edges = set(chain(_ring_edges(self.cells[m]), _ring_edges(piece)))
            self._commit_cell(m, _outline(edges))

        dead = []
        for u in hole:
            holders = [c for c in sorted(self.incident[u])
                       if c in self.cells and u in self.cells[c]]
            w = None
            if u in self._corners:
                w = self._new_node(xs[u], ys[u], self.planes[holders[0]].height(xs[u], ys[u]))
                self._corners ^= {u, w}
            elif len({v for c in holders for e in _ring_edges(self.cells[c])
                      if u in e for v in e}) > 3:  # u has three neighbours or more
                continue
            dead.append(u)
            for c in holders:
                ring = self.cells[c]
                self._commit_cell(c, [t for t in ring if t != u] if w is None else
                                  [w if t == u else t for t in ring])
        # the layer keeps only the vertices that outlived the re-tiling; one
        # carve made and a later one killed stay in the node lists, unreferenced
        live = {u for m in nbrs for u in self.cells[m]}
        made = [w for w in self.face_by_layer.pop(self._layer, []) if w in live]
        if made:
            self.face_by_layer[self._layer] = made
        self._bury(dead, made or [self.cells[nbrs[0]][0]])
        return [u for u in hole if self.next[u] is None] + made

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def regions(self) -> dict[int, list[ArcPolygon]]:
        """Current coverage regions; recomputes (with their areas) only
        sites marked dirty, in one ``boolean_rows`` pass."""
        self._refresh()
        return {sid: self._regions[sid][0] for sid in self.transmitters}

    def region_areas(self) -> dict[int, float]:
        self._refresh()
        return {sid: self._regions[sid][1] for sid in self.transmitters}

    def _refresh(self) -> None:
        """Recompute the regions and areas of the dirty sites."""
        dirty = sorted(self._dirty)
        rows = {sid: self._region_row(sid) for sid in dirty if sid in self.cells}
        rows = {sid: row for sid, row in rows.items() if row is not None}
        chains = boolean_rows(*zip(*rows.values()), self.eps).chains if rows else []
        found = dict(zip(rows, chains))
        for sid in dirty:
            if sid in self.transmitters:
                chains = found.get(sid, [])
                self._regions[sid] = (chains, sum(arc_polygon_area(ap) for ap in chains))
            else:
                self._regions.pop(sid, None)
        self._dirty.clear()

    def _region_row(self, sid: int) -> Optional[tuple]:
        """The ``boolean_rows`` row of a site: its cell in the window, its
        transmission disk and the interference disks that can cut it; None
        if the cell misses the window.  The cell is the window cut by the
        bisectors of the site's lattice neighbours, ascending (``_clip_cell``,
        the recipe of static ``build``), so no rounding of the lattice's
        vertices reaches it, and it equals the static cell bit for bit."""
        nbrs = sorted(self.neighbors[sid])
        cell = _clip_cell(self._window_poly, self._int_disks, sid, nbrs, self.eps)
        if cell is None:
            return None
        return cell, self._tx_disks[sid], [self._int_disks[q] for q in nbrs]

    def check_invariants(self) -> None:
        """Assert that the cells form a valid lattice: they tile the working
        square, every vertex of a cell is current and lists the cell in
        ``incident`` (the walk and the carve rely on both), no ``incident``
        tuple lists a site twice, and each neighbour set is the set of cells
        sharing an edge (hence symmetric and free of self-loops).  The
        square's area dwarfs the window's, so the areas summing to it
        within 1e-9 relative cannot see a gap or an overlap near the
        window; the tiling rests on the edges: each directed edge is in one
        cell, every edge off the square's sides has its twin in another, an
        edge without one lies on a side, and Euler's formula holds.  An
        empty structure has no lattice to check."""
        assert bool(self.cells) == bool(self.neighbors), "neighbours without cells"
        for u, sites in enumerate(self.incident):
            assert len(set(sites)) == len(sites), f"vertex {u}: incident repeats a site {sites}"
        if not self.cells:
            return
        sq, xs, ys = self.square, self.x, self.y
        owner: dict[tuple[int, int], int] = {}
        total = 0.0
        for sid, ring in self.cells.items():
            assert len(set(ring)) == len(ring) >= 3, f"cell {sid}: {ring}"
            for u in ring:
                assert self.next[u] is None, f"cell {sid}: vertex {u} is not current"
                assert sid in self.incident[u], f"cell {sid}: vertex {u} has no incident entry"
            total += sum(xs[a] * ys[b] - xs[b] * ys[a] for a, b in _ring_edges(ring)) / 2.0
            for e in _ring_edges(ring):
                assert e not in owner, f"edge {e} in cells {owner[e]} and {sid}"
                owner[e] = sid
        area = sq.width * sq.height
        assert abs(total - area) <= 1e-9 * area, f"cells cover {total / area} of the square"
        shared: dict[int, set[int]] = {sid: set() for sid in self.cells}
        for (u, v), sid in owner.items():
            if (v, u) in owner:
                shared[sid].add(owner[(v, u)])
            else:  # an edge of one cell lies on a side of the square
                assert (xs[u] == xs[v] and xs[u] in (sq.x0, sq.x1)) or \
                    (ys[u] == ys[v] and ys[u] in (sq.y0, sq.y1)), f"edge {(u, v)} has one cell"
        assert self.neighbors == shared, "neighbour sets differ from the shared edges"
        # the live cells plus the outer face
        edges = {(min(e), max(e)) for e in owner}
        verts = {u for e in edges for u in e}
        assert len(verts) - len(edges) + len(self.cells) + 1 == 2, \
            f"Euler fails: {len(verts)} vertices, {len(edges)} edges, {len(self.cells)} cells"


def traverse_shuffle(dc: DynamicCoverage, s: HalfSpace3) -> Optional[int]:
    """Find a current polytope vertex strictly outside the half-space, as
    its node id, or None exactly when the half-space is redundant for the
    current structure (the bounded polytope is contained in it)."""
    return dc._traverse(s)
