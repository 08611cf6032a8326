"""Dynamic power-diagram and coverage-map maintenance.

Disks lift to upper half-spaces in 3-D (z >= 2cx*x + 2cy*y - |c|^2 + r^2);
the power diagram is the downward projection of the lower boundary of the
half-space intersection, bounded by a working square that reaches 1.1e7
window diameters (at least 1.1e7) from the window's centre and stands in
for the plane the static map sees.  The structure maintained here is
that projected lattice (cells as convex polygons of vertex nodes) plus a
history of every vertex ever made, each fact kept once, in one slot per
node id of a few node arrays (the compact vertex arrays of
Boissonnat et al. 2002, *Triangulations in CGAL*, and Blandford et al.
2005, *Compact representations of simplicial meshes*):

* each vertex has its 3-D position (``x``, ``y``, ``z``, typed
  ``array('d')``); once it dies, the list of vertices a walk that reaches it
  scans next: the new face, or the vertices made, of the update that killed
  it (``next``, None while it is current); and the sites whose cells have
  had it as a corner (``incident``, a tuple that only grows, each site once);
* a cell is a CCW ring of node ids, so it stores no coordinate, and two
  cells are neighbours when they share two corners (``_neighbours``);
* nodes 0-7, made first, are the roots: the corners of the bounding volume,
  the four lower ones first;
* node ids only grow, so the current update made the nodes from ``_first``
  on.

Vertex identity is kept by construction, never by comparing coordinates.
Every decision of the lattice is one plane test, ``_side``: does a disk's
lifted plane pass above a vertex, through it or below it?  The walk, the
carve and the scan of parked disks all ask it.  An insertion decides once
per vertex whether the new plane passes above it (it dies), below it, or
through it (it stays and joins the new cell).  Each dying edge gets one
crossing vertex, keyed by its two end nodes, so both of its cells share it;
the new cell is the outline of what the carved cells lose.  A deletion
re-tiles the deleted cell with the same carve, inserting the neighbours'
planes into it one by one.  ``check_invariants`` verifies the lattice.

``traverse_shuffle`` starts at a root outside a query half-space and follows
``next`` pointers, scanning the list each pointer holds for a vertex outside
the half-space, until it reaches a current vertex (or certifies the
half-space redundant).  Each step leads to a vertex that was current when
the last one died, so the walk ends; once a deletion has broken the nesting
of the faces, a negative answer is confirmed by a local climb over the
lattice (exact: the envelope is convex).

Redundant half-spaces are never inserted: the disk is parked, with no owner
kept (reading ``hidden`` computes each parked disk's owner, ``_owners`` of
its center).  A deletion lowers the envelope only over the deleted cell, so
parked disks are tested against its new vertices alone: their planes,
stacked in ascending site order, against those vertices in one numpy pass
over views of the node arrays; the first disk that passes above one is
inserted, and only the disks after it are tested again, against the
vertices its cell added as well.  So a disk is parked exactly when no point
of the working square prefers it.  Coverage regions are maintained lazily:
updates mark affected sites dirty and ``regions`` recomputes exactly those.
A read takes only the neighbours from the lattice and cuts the window by
their bisectors with static ``build``'s recipe, ``power_diagram._clip_cell``
(the one cell builder here), so the rounding of the lattice's vertices
never reaches a region.

Single-writer structure: no concurrent mutation.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import asdict, dataclass
from itertools import chain
from typing import NamedTuple, Optional

import numpy as np

from ..errors import LatticeError
from ..geometry import (ArcPolygon, Disk, Rect, _power, arc_polygon_area, boolean_rows,
                        geom_eps, side)
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


def _side(hs, x, y, z):
    """The lattice's one plane test: ``side`` of the height of plane ``hs``
    (``a, b, c``) at (x, y) against ``z``, +1 where the plane passes above.
    Elementwise on arrays: plane columns of shape (P, 1) against vertex
    rows give a (P, vertices) table."""
    return side(hs[0] * x + hs[1] * y + hs[2], z)


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

    def to_dict(self) -> dict:
        return dict(asdict(self), hidden_events=[list(e) for e in self.hidden_events])


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
    positions in typed arrays, incident sites in tuples, one slot per node
    id, kept for vertices that died too.  A deletion tests
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
        self._int_disks: dict[int, Disk] = {}  # in the window's frame, as is the next one
        self.planes: dict[int, HalfSpace3] = {}
        # vertex nodes, one slot per id in each (see the module docstring)
        self.x = array("d")
        self.y = array("d")
        self.z = array("d")
        self.next: list[Optional[list[int]]] = []
        self.incident: list[tuple[int, ...]] = []
        self.cells: dict[int, list[int]] = {}  # CCW rings of vertex ids
        self._parked: set[int] = set()  # sites whose half-space is redundant
        self.last_traverse_visits = 0
        self.traverse_fallbacks = 0
        self.revival_tests = 0  # parked planes against vertices, by deletes
        self.climb_steps = 0    # vertices the confirming climbs evaluated
        self._next_site = 0
        self._first = 0  # the first node id of the current update
        # insertions only: the faces are nested and a negative walk is exact
        self._nested = True
        self._corners: set[int] = set()  # current vertices at square corners
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
        self.next.append(None)
        self.incident.append(())
        return nid

    def _commit_cell(self, sid: int, ring: list[int]) -> None:
        self.cells[sid] = ring
        incident = self.incident
        for u in ring:
            if sid not in incident[u]:
                incident[u] += (sid,)

    def _bury(self, dead, face: list[int]) -> None:
        """Point each dead vertex at ``face``, the list a walk that reaches
        it scans next.  A face with no vertex this update made breaks the
        nesting of the faces, as a deletion does."""
        if not any(u >= self._first for u in face):
            self._nested = False
        for d in dead:
            self.next[d] = face

    def _remake_corner(self, u: int, hs: HalfSpace3) -> int:
        """A new node at square corner ``u``, at the height of ``hs``, its
        new owner's plane; it takes ``u``'s place among the corners."""
        x, y = self.x[u], self.y[u]
        w = self._new_node(x, y, hs.height(x, y))
        self._corners ^= {u, w}
        return w

    def _neighbours(self, sid: int) -> list[int]:
        """The live cells, ascending, that hold two corners of ``sid``'s
        ring, found through ``incident``: convex cells that tile the square
        and share two corners share the edge between them."""
        cells, ring = self.cells, self.cells[sid]
        near = {c for u in ring for c in self.incident[u] if c != sid and c in cells}
        corners = set(ring)
        return sorted(c for c in near if len(corners.intersection(cells[c])) >= 2)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def _climb(self, hs: HalfSpace3) -> Optional[int]:
        """Exact answer from the current lattice: a current vertex outside
        ``hs``, or None.  The plane's height above the lifted envelope is
        concave and linear on each cell, so a vertex that no vertex of its
        cells beats is the highest.  The climb starts at the cell owning the
        disk's centre (``_owners``) and explores every vertex that the
        plane, lowered by the best height seen, does not pass strictly below
        (by ``side``), so flat runs cannot stop it."""
        xs, ys, zs = self.x, self.y, self.z

        def gap(u: int) -> float:
            return hs.height(xs[u], ys[u]) - zs[u]

        (start,) = self._owners([(0.5 * hs.a, 0.5 * hs.b)])
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
        return best if _side(hs, xs[best], ys[best], zs[best]) > 0 else None

    def _traverse(self, hs: HalfSpace3) -> Optional[int]:
        """``traverse_shuffle``: scan the roots, then the list each dead
        vertex's ``next`` holds, for the first vertex outside ``hs``
        (``_side``), until a current one.  The loop's bound guards against a
        cycle; reaching it, the answer comes from a climb."""
        xs, ys, zs, nxt = self.x, self.y, self.z, self.next
        visits, u, scan = 0, None, range(8)  # the roots first
        for _ in range(2 * len(xs) + 66):
            for w in scan:
                visits += 1
                if _side(hs, xs[w], ys[w], zs[w]) > 0:
                    break
            else:  # no vertex of the list is outside
                w = None
                break
            u, scan = w, nxt[w]
            visits += 1
            if scan is None:  # a current vertex
                break
        self.last_traverse_visits = visits
        if scan is None:
            return u
        if w is not None:  # the bound, not an answer, ended the walk
            self.traverse_fallbacks += 1
            return self._climb(hs)
        # insertions alone keep the faces nested polytopes and a negative
        # walk exact; deletions (and see ``_bury``) break the nesting, so a
        # negative answer past the roots is confirmed by a climb
        if u is None or self._nested or not self.cells:
            return None
        exact = self._climb(hs)
        if exact is not None:
            self.traverse_fallbacks += 1
        return exact

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert_transmitter(self, t: ProtocolTransmitter) -> UpdateReport:
        """Register a transmitter and update lattice, history and regions.

        It is ``admit``ted first, by its interference disk.  A transmitter
        whose lifted half-space is redundant is parked without touching the
        lattice (``hidden`` names its owner when read); everyone else gets a
        cell and patched neighbor regions.
        """
        sid = self._next_site
        at = self._local(t.location)
        int_disk = Disk(at, t.int_radius)
        admit(self._tx_keys, sid, int_disk, self._frame_window)
        self._next_site += 1
        self.transmitters[sid] = t
        self._int_disks[sid] = int_disk
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
                            structural_change=len(affected or []), hidden_events=events)

    def _park(self, sid: int, events: list[tuple[str, int]]) -> None:
        self._parked.add(sid)
        events.append(("parked", sid))
        self._dirty.add(sid)

    def _insert_site(self, sid: int, probe: int, events: list[tuple[str, int]]) -> list[int]:
        """Insert a registered site's half-space, carving from ``probe``, a
        current vertex outside it (a root when the structure is empty);
        returns the sites whose cells it shrank or swallowed."""
        hs = self.planes[sid]
        xs, ys = self.x, self.y
        self._first = len(self.x)
        if not self.cells:
            face = [self._new_node(xs[r], ys[r], hs.height(xs[r], ys[r])) for r in range(4)]
            for r in range(4):  # the lower roots
                self.next[r] = face
            self._corners = set(face)
            self._commit_cell(sid, list(face))
            self._dirty.add(sid)
            return []

        face, shrunk, swallowed, dead = self._carve(
            self.cells, hs, {},
            sorted(o for o in self.incident[probe] if o in self.cells), self._corners)
        # a square corner the new cell takes changes height: a new vertex
        face = [self._remake_corner(u, hs) if u in dead else u for u in face]
        for c in shrunk:
            self._commit_cell(c, shrunk[c])
        for c in swallowed:
            del self.cells[c]
        self._commit_cell(sid, list(face))
        # the dead point at the whole new face, kept vertices too: there a
        # walk finds a vertex outside any half-space that cuts the structure
        self._bury(dead, face)
        for c in swallowed:
            self._park(c, events)
        # insertions never revive parked disks, so no re-probe here
        affected = sorted(shrunk) + swallowed
        self._dirty.update(shrunk)
        self._dirty.add(sid)
        return affected

    def _carve(self, cells, hs: HalfSpace3, height, seeds, keep):
        """Cut where the plane of ``hs`` passes above the lattice ``cells``
        (rings of vertex ids) out of it, searching from ``seeds`` through
        the cells around each dead vertex (``incident``); None if no vertex
        dies.  Each vertex is decided once, by ``_side``: the plane passes
        above it (it dies), through it, or below it.  Heights come from
        ``height`` where it has them, else from the nodes.  A dying edge's crossing, a new
        node, is shared by its cells (a vertex on the plane is its own).
        Returns the new face (CCW ids), the shrunk cells, the swallowed
        cells (none of their vertices below the plane) and the dead
        vertices.  A dead vertex on the outer boundary stays in the face
        only if in ``keep``; any other lies inside a straight outer edge."""
        xs, ys, zs, incident = self.x, self.y, self.z, self.incident
        sides: dict[int, int] = {}  # 1 dies, 0 on the plane, -1 stays

        def dies(ring) -> bool:
            """Decide each vertex of a cell once, by ``_side``."""
            out = False
            for u in ring:
                s = sides.get(u)
                if s is None:
                    s = sides[u] = _side(hs, xs[u], ys[u], height.get(u, zs[u]))
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

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    def delete_transmitter(self, sid: int) -> UpdateReport:
        """Remove a transmitter; neighbors absorb its cell.  Parked disks
        can surface only over that cell, so each (ascending site id) is
        tested against the current vertices there, those of the cells
        revived before it included; a vertex outside its plane is the probe
        its insertion carves from."""
        events: list[tuple[str, int]] = []
        if sid in self._parked:
            self._parked.remove(sid)
            self._forget(sid)
            self._dirty.discard(sid)
            events.append(("unparked", sid))
            return UpdateReport(op="delete", site=sid, redundant=True, affected=[],
                                structural_change=0, hidden_events=events)
        if sid not in self.cells:
            raise KeyError(f"site {sid} not present")

        self._first = len(self.x)
        self._nested = False
        nbrs = self._neighbours(sid)
        self._forget(sid)
        hole = self.cells.pop(sid)
        near = self._retile(hole, nbrs)
        self._dirty.update(nbrs)
        affected = list(nbrs)

        # the envelope fell only over the hole
        revived: list[int] = []
        parked = sorted(self._parked)
        planes = np.fromiter(chain.from_iterable(map(self.planes.__getitem__, parked)),
                             float, 3 * len(parked)).reshape(-1, 3)
        while parked:
            k, probe = self._scan_parked(planes, near)
            if probe is None:
                break
            h, parked, planes = parked[k], parked[k + 1:], planes[k + 1:]
            self._parked.remove(h)
            events.append(("revived", h))
            affected.extend(a for a in self._insert_site(h, probe, events) if a in self.cells)
            revived.append(h)
            near.extend(self.cells[h])

        self._dirty.update(a for a in affected if a in self.cells)
        return UpdateReport(op="delete", site=sid, redundant=False,
                            affected=sorted(set(affected) | set(revived)),
                            structural_change=len(set(affected)) + 1, hidden_events=events)

    def _scan_parked(self, planes: np.ndarray, near: list[int]) -> tuple[int, Optional[int]]:
        """The first row ``k`` of ``planes`` (rows ``a, b, c``) that passes
        above a current vertex of ``near``, and the first such vertex in
        ``near`` order: ``_side``, made for every row and vertex in one numpy
        pass over views of the node arrays.  Returns ``(len(planes), None)``
        if no row does.  ``revival_tests`` counts the
        vertices a row-by-row scan stopping at the first hit would test."""
        cur = np.array([u for u in near if self.next[u] is None], dtype=np.intp)
        x, y, z = (np.frombuffer(a)[cur] for a in (self.x, self.y, self.z))
        out = _side(planes.T[:, :, None], x, y, z) > 0
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
        del self._int_disks[sid], self.planes[sid]
        self._regions.pop(sid, None)

    def _retile(self, hole: list[int], nbrs: list[int]) -> list[int]:
        """Hand the deleted cell ``hole`` to its neighbours ``nbrs``: the
        first takes it whole, each other one's plane carves its piece (with
        heights local to the hole, whose vertices stay), and each piece
        merges into its owner's cell.  A hole vertex left inside a straight
        edge dies; a square corner changes height, so it is made anew.  The
        dead point at the vertices this update made that outlived the
        re-tiling (``_bury``).  Returns the current vertices over the hole:
        the four lower roots when the structure is empty again."""
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
                w = self._remake_corner(u, self.planes[holders[0]])
            elif len({v for c in holders for e in _ring_edges(self.cells[c])
                      if u in e for v in e}) > 3:  # u has three neighbours or more
                continue
            dead.append(u)
            for c in holders:
                ring = self.cells[c]
                self._commit_cell(c, [t for t in ring if t != u] if w is None else
                                  [w if t == u else t for t in ring])
        # vertices one carve made and a later one killed stay in the node
        # arrays, unreferenced
        live = {u for m in nbrs for u in self.cells[m]}
        made = [w for w in range(self._first, len(self.x)) if w in live]
        self._bury(dead, made or [self.cells[nbrs[0]][0]])
        return [u for u in hole if self.next[u] is None] + made

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def hidden(self) -> dict[int, int]:
        """Each parked disk, ascending, with its owner: ``_owners`` of its
        center.  Computed at each read; a read changes no state."""
        parked = sorted(self._parked)
        return dict(zip(parked, self._owners([self._int_disks[h].center for h in parked])))

    def _owners(self, points) -> list[int]:
        """Per point (x, y), the live site of least power distance from it
        (the lowest id on a tie, -1 when no site has a cell), by one argmin
        over the live sites per point."""
        live = sorted(self.cells)
        if not live:
            return [-1] * len(points)
        cx, cy, r = np.fromiter(chain.from_iterable(self._int_disks[c].xyr for c in live),
                                float, 3 * len(live)).reshape(-1, 3).T
        return [live[int(np.argmin(_power(x, y, cx, cy, r)))] for x, y in points]

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
        nbrs = self._neighbours(sid)
        cell = _clip_cell(self._window_poly, self._int_disks, sid, nbrs, self.eps)
        if cell is None:
            return None
        tx_disk = Disk(self._int_disks[sid].center, self.transmitters[sid].tx_radius)
        return cell, tx_disk, [self._int_disks[q] for q in nbrs]

    def check_invariants(self) -> None:
        """Assert that the cells form a valid lattice: they tile the working
        square, every vertex of a cell is current and lists the cell in
        ``incident`` (the walk and the carve rely on both), no ``incident``
        tuple lists a site twice, and the cells sharing two corners with a
        cell (``_neighbours``) are those sharing an edge with it.  The
        square's area dwarfs the window's, so the areas summing to it
        within 1e-9 relative cannot see a gap or an overlap near the
        window; the tiling rests on the edges: each directed edge is in one
        cell, every edge off the square's sides has its twin in another, an
        edge without one lies on a side, and Euler's formula holds.  An
        empty structure has no lattice to check."""
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
        for sid in self.cells:
            assert set(self._neighbours(sid)) == shared[sid], \
                f"cell {sid}: the cells sharing two corners differ from those sharing an edge"
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
