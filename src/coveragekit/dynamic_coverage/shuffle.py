"""Dynamic power-diagram and coverage-map maintenance.

Disks lift to upper half-spaces in 3-D (z >= 2cx*x + 2cy*y - |c|^2 + r^2);
the power diagram is the downward projection of the lower boundary of the
half-space intersection, bounded by a large working square.  The structure
maintained here is that projected lattice (cells as convex polygons with
shared vertex nodes) plus a history of every vertex ever made:

* each vertex is a node carrying its 3-D position, the site whose half-space
  made it, the update (layer) that made it, and, once it dies, a pointer to
  a nearby vertex made by the update that killed it (``next``);
* eight root nodes stand for the corners of the bounding volume;
* the vertices of each update are listed under its layer.

``traverse_shuffle`` starts at a root outside a query half-space and follows
``next`` pointers, scanning the layer each pointer leads to for a vertex
outside the half-space, until it reaches a current vertex (or certifies the
half-space redundant).  Layers only grow, so the walk ends; once a deletion
has broken the nesting of the layers, a negative answer is confirmed
against the current vertices.

Redundant half-spaces are never inserted: the disk is parked in ``hidden``
keyed by the site whose cell contains its center, and re-probed when
deletions open space.  Whether a parked disk still wins somewhere beyond the
working square (``offstage``) is decided when regions are read.  Coverage
regions are maintained lazily: updates mark affected sites dirty and
``regions`` recomputes exactly those from the current cells, so any read
sees the same map a static rebuild would give.

Single-writer structure: no concurrent mutation.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

from ..errors import DuplicateSite
from ..geometry import (ArcPolygon, ConvexPolygon, Disk, Point2, Rect,
                        arc_polygon_area, convex_polygon_intersection, geom_eps,
                        power_distance)
from ..power_diagram import _clip_cell, _mega_square
from ..protocol_coverage import ProtocolTransmitter, site_region

_Z_BIG = 1.0e30


@dataclass(frozen=True)
class HalfSpace3:
    """Upper half-space {(x, y, z) : z >= a*x + b*y + c}."""
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


@dataclass
class HistNode:
    """One history vertex; ``incident`` holds the sites whose cells have had
    it as a corner, which seeds the search for the cells an insert carves."""
    nid: int
    x: float
    y: float
    z: float
    created: Optional[int]          # site whose half-space created the vertex
    next: Optional[int] = None      # replacement vertex after death
    incident: set = field(default_factory=set)
    layer: int = 0                  # update that created the vertex


@dataclass
class Shuffle:
    """History records: vertex nodes, the eight roots, and the vertices each
    update made, keyed by its layer.  The traversal walks ``face_by_layer``;
    layers only grow, so walks terminate."""
    nodes: dict[int, HistNode] = field(default_factory=dict)
    roots: list[int] = field(default_factory=list)
    face_by_layer: dict[int, list[int]] = field(default_factory=dict)


@dataclass(frozen=True)
class ShuffleVertex:
    """Read-only view of one history vertex."""
    node_id: int
    x: float
    y: float
    z: float
    created: Optional[int]
    is_current: bool


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
        return {"op": self.op, "site": self.site, "redundant": self.redundant,
                "affected": self.affected,
                "structural_change": self.structural_change,
                "hidden_events": [[kind, sid] for kind, sid in self.hidden_events],
                "wall_time": self.wall_time}


@dataclass(frozen=True)
class FacialLatticeView:
    """Counts over the current lattice (the live cells plus the outer face)."""
    vertices: int
    edges: int
    faces: int

    @property
    def size(self) -> int:
        return self.vertices + self.edges + self.faces

    def euler_ok(self) -> bool:
        return self.vertices - self.edges + self.faces == 2


class _NodeRegistry:
    """Coordinate-snapped node lookup so cells sharing a vertex share its id."""

    def __init__(self, dc: "DynamicCoverage", tol: float):
        self.dc = dc
        self.tol = tol
        self.grid: dict[tuple[int, int], list[int]] = {}

    def _key(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor(x / self.tol / 4.0)), int(math.floor(y / self.tol / 4.0)))

    def seed(self, nid: int) -> None:
        n = self.dc.shuffle.nodes[nid]
        self.grid.setdefault(self._key(n.x, n.y), []).append(nid)

    def find(self, x: float, y: float) -> Optional[int]:
        kx, ky = self._key(x, y)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for nid in self.grid.get((kx + dx, ky + dy), ()):
                    n = self.dc.shuffle.nodes[nid]
                    if math.hypot(n.x - x, n.y - y) <= self.tol:
                        return nid
        return None

    def node(self, x: float, y: float, creator: int, z: float) -> int:
        nid = self.find(x, y)
        if nid is not None:
            return nid
        nid = self.dc._new_node(x, y, z, creator)
        self.seed(nid)
        return nid


class DynamicCoverage:
    """Coverage map under single-transmitter insertion and deletion.

    ``regions`` always equals the static coverage map of the currently
    registered transmitters (hidden ones included as empty), up to the
    numeric tolerance of the two pipelines.

    ``seed`` is accepted for compatibility with callers that pass one; the
    structure draws no random numbers, so it does not change any result.
    """

    def __init__(self, window: Rect, seed: int = 0,
                 square_halfwidth: Optional[float] = None):
        self.window = window
        half = square_halfwidth if square_halfwidth is not None \
            else 4.0 * max(window.diameter(), 1.0)
        c = window.center()
        self.square = Rect(c.x - half, c.y - half, c.x + half, c.y + half)
        self.transmitters: dict[int, ProtocolTransmitter] = {}
        self._tx_keys: dict[tuple, int] = {}
        self._int_disks: dict[int, Disk] = {}
        self.planes: dict[int, HalfSpace3] = {}
        self.cells: dict[int, list[tuple[float, float, int]]] = {}
        self.neighbors: dict[int, set[int]] = {}
        self.hidden: dict[int, int] = {}
        self.offstage: set[int] = set()
        self._offstage_pending: set[int] = set()
        self.shuffle = Shuffle()
        self.last_traverse_visits = 0
        self.traverse_fallbacks = 0
        self._next_site = 0
        self._node_counter = 0
        self._layer = 0
        self._deletions = 0
        self._walk_hint: Optional[int] = None
        self._dirty: set[int] = set()
        self._regions: dict[int, list[ArcPolygon]] = {}
        self._tol = geom_eps(self.square.diameter())
        sq = self.square
        corners = [(sq.x0, sq.y0), (sq.x1, sq.y0), (sq.x1, sq.y1), (sq.x0, sq.y1)]
        for (x, y) in corners:
            self.shuffle.roots.append(self._new_node(x, y, -_Z_BIG, None))
        for (x, y) in corners:
            self.shuffle.roots.append(self._new_node(x, y, _Z_BIG, None))

    # ------------------------------------------------------------------
    # node and record helpers
    # ------------------------------------------------------------------

    def _new_node(self, x: float, y: float, z: float, created: Optional[int]) -> int:
        nid = self._node_counter
        self._node_counter += 1
        self.shuffle.nodes[nid] = HistNode(nid, x, y, z, created, layer=self._layer)
        self.shuffle.face_by_layer.setdefault(self._layer, []).append(nid)
        return nid

    def _commit_cell(self, sid: int, poly: list[tuple[float, float, int]]) -> None:
        self.cells[sid] = poly
        for (_, _, nid) in poly:
            self.shuffle.nodes[nid].incident.add(sid)

    def _plane_gap(self, new_sid: int, old_sid: int):
        """Linear functional f_new - f_old; positive where the new plane wins."""
        pn, po = self.planes[new_sid], self.planes[old_sid]
        da, db, dc = pn.a - po.a, pn.b - po.b, pn.c - po.c
        return lambda x, y: da * x + db * y + dc

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def _outside(self, node: HistNode, hs: HalfSpace3) -> bool:
        f = hs.height(node.x, node.y)
        tol = 1e-12 * (1.0 + abs(f) + abs(node.z))
        return node.z < f - tol

    def _scan_current(self, hs: HalfSpace3) -> Optional[int]:
        """Exact answer from the current vertex set: the bounded polytope is
        inside the half-space iff every current vertex is."""
        nodes = self.shuffle.nodes
        for sid in sorted(self.cells):
            for (_, _, nid) in self.cells[sid]:
                if self._outside(nodes[nid], hs):
                    return nid
        return None

    def _traverse(self, hs: HalfSpace3) -> Optional[int]:
        nodes = self.shuffle.nodes
        visits = 0
        u = None
        for r in self.shuffle.roots:
            visits += 1
            if self._outside(nodes[r], hs):
                u = r
                break
        if u is None:
            self.last_traverse_visits = visits
            return None
        guard = 0
        limit = 2 * len(nodes) + 64
        while True:
            visits += 1
            nxt = nodes[u].next
            if nxt is None:
                self.last_traverse_visits = visits
                return u
            found = None
            for w in self.shuffle.face_by_layer.get(nodes[nxt].layer, ()):
                visits += 1
                if self._outside(nodes[w], hs):
                    found = w
                    break
            if found is None:
                # with insertions only, the layers are nested polytopes and a
                # negative walk is exact; deletions break the nesting, so the
                # conclusion is then re-checked against the current vertices
                self.last_traverse_visits = visits
                if self._deletions and self.cells:
                    exact = self._scan_current(hs)
                    if exact is not None:
                        self.traverse_fallbacks += 1
                    return exact
                return None
            u = found
            guard += 1
            if guard > limit:
                self.traverse_fallbacks += 1
                self.last_traverse_visits = visits
                return self._scan_current(hs)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert_transmitter(self, t: ProtocolTransmitter) -> UpdateReport:
        """Register a transmitter and update lattice, history and regions.

        A transmitter whose lifted half-space is redundant is parked in
        ``hidden`` (keyed by the owner of its center) without touching the
        lattice; everyone else gets a cell and patched neighbor regions.
        """
        start = time.perf_counter()
        key = (t.location.x, t.location.y, t.tx_radius, t.int_radius)
        if key in self._tx_keys:
            raise DuplicateSite(
                f"transmitter already present as site {self._tx_keys[key]}")
        if not self.window.contains(t.location):
            raise ValueError(f"transmitter center {t.location} outside window")
        sid = self._next_site
        self._next_site += 1
        self._tx_keys[key] = sid
        self.transmitters[sid] = t
        self._int_disks[sid] = t.int_disk
        self.planes[sid] = lift(t.int_disk)
        events: list[tuple[str, int]] = []
        affected = self._insert_site(sid, events)
        # the new disk may take the region beyond the square of a parked one
        self._offstage_pending.update(self.offstage)
        redundant = affected is None
        report = UpdateReport(op="insert", site=sid, redundant=redundant,
                              affected=sorted(affected or []),
                              structural_change=len(affected or []),
                              hidden_events=events,
                              wall_time=time.perf_counter() - start)
        return report

    def _unpark(self, sid: int) -> None:
        self.hidden.pop(sid, None)
        self.offstage.discard(sid)
        self._offstage_pending.discard(sid)

    def _park(self, sid: int, events: list[tuple[str, int]]) -> None:
        owner = self._owner_of(self.transmitters[sid].location)
        self.hidden[sid] = owner if owner is not None else -1
        # visibility beyond the working square is only needed when regions
        # are read; defer the exact check until then
        self._offstage_pending.add(sid)
        events.append(("parked", sid))
        self._dirty.add(sid)

    def _owner_scan(self, p: Point2) -> Optional[int]:
        best, best_v = None, math.inf
        for sid in self.cells:
            v = power_distance(p, self._int_disks[sid])
            if v < best_v:
                best, best_v = sid, v
        return best

    def _owner_of(self, p: Point2) -> Optional[int]:
        """Cell containing a point, by walking cell adjacency along the
        segment from the current cell's centroid to the point."""
        if not self.cells:
            return None
        cur = self._walk_hint if self._walk_hint in self.cells \
            else next(iter(self.cells))
        tol = self._tol * 16.0
        for _ in range(len(self.cells) + 8):
            poly = self.cells[cur]
            k = len(poly)
            inside = True
            for i in range(k):
                xa, ya, _ = poly[i]
                xb, yb, _ = poly[(i + 1) % k]
                if (xb - xa) * (p.y - ya) - (yb - ya) * (p.x - xa) < -tol:
                    inside = False
                    break
            if inside:
                self._walk_hint = cur
                return cur
            cx = sum(q[0] for q in poly) / k
            cy = sum(q[1] for q in poly) / k
            dx, dy = p.x - cx, p.y - cy
            mine = {nid: (x, y) for (x, y, nid) in poly}
            step = None
            best_t = math.inf
            for v in self.neighbors.get(cur, ()):
                shared = [nid for (_, _, nid) in self.cells.get(v, ()) if nid in mine]
                if len(shared) < 2:
                    continue
                (x1, y1), (x2, y2) = mine[shared[0]], mine[shared[1]]
                ex, ey = x2 - x1, y2 - y1
                den = dx * ey - dy * ex
                if den == 0.0:
                    continue
                t = ((x1 - cx) * ey - (y1 - cy) * ex) / den
                u = ((x1 - cx) * dy - (y1 - cy) * dx) / den
                if 0.0 < t < best_t and -1e-9 <= u <= 1.0 + 1e-9:
                    best_t, step = t, v
            if step is None:
                break
            cur = step
        return self._owner_scan(p)

    def _globally_visible(self, sid: int) -> bool:
        """Exact unbounded-plane visibility: does any point prefer this site
        to every other registered one?  Its cell in a square far larger than
        the working one is then non-empty.  The owner of its center and the
        owner's neighbours go first: they usually empty the cell at once."""
        owner = self.hidden.get(sid)
        near = [owner, *sorted(self.neighbors[owner])] if owner in self.cells else []
        mega = _mega_square(self.window, self.square.diameter()).to_polygon()
        return _clip_cell(mega, self._int_disks, sid, chain(near, self._int_disks),
                          self._tol) is not None

    def _rekey(self, touched: set[int]) -> None:
        """Re-key the parked disks owned by a ``touched`` site or by no live
        cell.  The area those cells lost or gained stayed among ``touched``,
        so the new owner is the old one or a touched site (-1 if none has a
        cell)."""
        for h in sorted(h for h, o in self.hidden.items()
                        if o in touched or o not in self.cells):
            center = self.transmitters[h].location
            cand = [c for c in sorted(touched | {self.hidden[h]}) if c in self.cells]
            self.hidden[h] = min(cand, default=-1, key=lambda c: power_distance(
                center, self._int_disks[c]))

    def _insert_site(self, sid: int, events: list[tuple[str, int]]) -> Optional[list[int]]:
        """Insert a registered site's half-space; None when parked."""
        hs = self.planes[sid]
        nodes = self.shuffle.nodes
        self._layer += 1
        if not self.cells:
            sq = self.square
            corners = [(sq.x0, sq.y0), (sq.x1, sq.y0), (sq.x1, sq.y1), (sq.x0, sq.y1)]
            poly = []
            for (x, y) in corners:
                nid = self._new_node(x, y, hs.height(x, y), sid)
                poly.append((x, y, nid))
            self._commit_cell(sid, poly)
            self.neighbors[sid] = set()
            for r in self.shuffle.roots[:4]:
                nodes[r].next = min((nid for (_, _, nid) in poly),
                                    key=lambda k: (nodes[k].x - nodes[r].x) ** 2
                                    + (nodes[k].y - nodes[r].y) ** 2)
            self._dirty.add(sid)
            return []

        probe = self._traverse(hs)
        if probe is None:
            self._park(sid, events)
            return None

        registry = _NodeRegistry(self, self._tol * 64.0)
        seeds = sorted(o for o in nodes[probe].incident if o in self.cells)
        zone: dict[int, tuple] = {}
        visited: set[int] = set(seeds)
        queue = deque(seeds)
        while queue:
            c = queue.popleft()
            gap = self._plane_gap(sid, c)
            poly = self.cells[c]
            vals = [gap(x, y) for (x, y, _) in poly]
            if max(vals) <= 0.0:
                continue
            zone[c] = self._clip_tracked(poly, vals, registry, sid)
            for nb in self.neighbors.get(c, ()):
                if nb not in visited:
                    visited.add(nb)
                    queue.append(nb)
        if not zone:
            # probe was on the numerical boundary; treat as redundant
            self._park(sid, events)
            return None

        # new cell: the square where the new site beats every carved cell
        new_poly = self._square_cell(sid, sorted(zone))
        if new_poly is None:
            self._park(sid, events)
            return None

        new_cell = [(p.x, p.y, registry.node(p.x, p.y, sid, hs.height(p.x, p.y)))
                    for p in new_poly.vertices]
        face_nodes = [nid for (_, _, nid) in new_cell]

        # commit shrunk cells, kill dead vertices, park swallowed sites
        dead_nodes: set[int] = set()
        split_next: dict[int, int] = {}
        emptied: list[int] = []
        affected: list[int] = []
        for c in sorted(zone):
            kept, died, crossings = zone[c]
            dead_nodes.update(died)
            for w, dying in crossings:
                split_next.setdefault(dying, w)
            if kept is None:
                emptied.append(c)
            else:
                self._commit_cell(c, kept)
                affected.append(c)
        self._commit_cell(sid, new_cell)

        still_used: set[int] = set(face_nodes)
        for c in affected:
            still_used.update(nid for (_, _, nid) in self.cells[c])
        dead_nodes = {d for d in dead_nodes if d not in still_used}
        for d in sorted(dead_nodes):
            if nodes[d].next is not None:
                continue
            target = split_next.get(d)
            if target is None:
                target = min(face_nodes, key=lambda k: (nodes[k].x - nodes[d].x) ** 2
                             + (nodes[k].y - nodes[d].y) ** 2)
            nodes[d].next = target

        for c in emptied:
            del self.cells[c]
            for v in self.neighbors.pop(c, set()):
                self.neighbors.get(v, set()).discard(c)
            self._park(c, events)
        self._refresh_neighbors(affected + [sid])
        # insertions never revive parked disks, so no re-probe here
        self._rekey(set(affected) | set(emptied) | {sid})
        self._dirty.update(affected)
        self._dirty.add(sid)
        return affected + emptied

    def _square_cell(self, sid: int, others: Sequence[int]) -> Optional[ConvexPolygon]:
        """The working square where ``sid`` beats each of ``others``; None if
        empty or too small to hold a cell."""
        poly = _clip_cell(self.square.to_polygon(), self._int_disks, sid, others, self._tol)
        if poly is None or poly.area() <= self._tol ** 2:
            return None
        return poly

    def _clip_tracked(self, poly, vals, registry: _NodeRegistry, creator: int):
        """Clip a tracked polygon to {gap <= 0}; returns (kept, died,
        crossings) where crossings are (new node, dying node)."""
        out: list[tuple[float, float, int]] = []
        died: list[int] = []
        crossings: list[tuple[int, int]] = []
        k = len(poly)
        hs_creator = self.planes[creator]
        for i in range(k):
            (xa, ya, na), va = poly[i], vals[i]
            (xb, yb, nb), vb = poly[(i + 1) % k], vals[(i + 1) % k]
            if va > 0.0:
                died.append(na)
            if va <= 0.0:
                out.append((xa, ya, na))
                if vb > 0.0:
                    t = va / (va - vb)
                    x, y = xa + t * (xb - xa), ya + t * (yb - ya)
                    w = registry.node(x, y, creator, hs_creator.height(x, y))
                    out.append((x, y, w))
                    crossings.append((w, nb))
            elif vb < 0.0:
                t = va / (va - vb)
                x, y = xa + t * (xb - xa), ya + t * (yb - ya)
                w = registry.node(x, y, creator, hs_creator.height(x, y))
                out.append((x, y, w))
                crossings.append((w, na))
        cleaned: list[tuple[float, float, int]] = []
        for entry in out:
            if not cleaned or cleaned[-1][2] != entry[2]:
                cleaned.append(entry)
        if len(cleaned) > 1 and cleaned[0][2] == cleaned[-1][2]:
            cleaned.pop()
        if len(cleaned) < 3 or _area_xy([(x, y) for (x, y, _) in cleaned]) <= self._tol ** 2:
            return None, [nid for (_, _, nid) in poly], crossings
        return cleaned, died, crossings

    def _refresh_neighbors(self, updated: Sequence[int]) -> None:
        for u in updated:
            if u not in self.cells:
                continue
            cand = set(self.neighbors.get(u, set())) | set(updated)
            cand.discard(u)
            mine = {nid for (_, _, nid) in self.cells[u]}
            new_set = set()
            for v in cand:
                if v not in self.cells:
                    continue
                theirs = {nid for (_, _, nid) in self.cells[v]}
                if len(mine & theirs) >= 2:
                    new_set.add(v)
            old_set = self.neighbors.get(u, set())
            for gone in old_set - new_set:
                self.neighbors.get(gone, set()).discard(u)
            for add in new_set:
                self.neighbors.setdefault(add, set()).add(u)
            self.neighbors[u] = new_set

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    def delete_transmitter(self, sid: int) -> UpdateReport:
        """Remove a transmitter; neighbors absorb its cell and parked disks
        are re-probed (ascending site id) in case space opened up."""
        start = time.perf_counter()
        events: list[tuple[str, int]] = []
        if sid in self.hidden:
            if sid in self.offstage or sid in self._offstage_pending:
                # its region beyond the square may pass to other parked disks
                self._offstage_pending.update(self.hidden)
            self._unpark(sid)
            gone = self.transmitters.pop(sid)
            self._tx_keys.pop((gone.location.x, gone.location.y,
                               gone.tx_radius, gone.int_radius), None)
            self._int_disks.pop(sid, None)
            del self.planes[sid]
            self._regions.pop(sid, None)
            self._dirty.discard(sid)
            events.append(("unparked", sid))
            return UpdateReport(op="delete", site=sid, redundant=True,
                                affected=[], structural_change=0,
                                hidden_events=events,
                                wall_time=time.perf_counter() - start)
        if sid not in self.cells:
            raise KeyError(f"site {sid} not present")

        nodes = self.shuffle.nodes
        self._layer += 1
        self._deletions += 1
        nbrs = sorted(self.neighbors.get(sid, set()))
        old_polys = {sid: self.cells[sid]}
        for n in nbrs:
            old_polys[n] = self.cells[n]
        del self.cells[sid]
        for v in self.neighbors.pop(sid, set()):
            self.neighbors.get(v, set()).discard(sid)
        gone = self.transmitters.pop(sid)
        self._tx_keys.pop((gone.location.x, gone.location.y,
                           gone.tx_radius, gone.int_radius), None)
        self._int_disks.pop(sid, None)
        del self.planes[sid]
        self._regions.pop(sid, None)

        registry = _NodeRegistry(self, self._tol * 64.0)
        seed_sites = set(nbrs)
        for n in nbrs:
            seed_sites.update(self.neighbors.get(n, set()))
        for s_site in seed_sites:
            if s_site in self.cells:
                for (_, _, nid) in self.cells[s_site]:
                    registry.seed(nid)

        new_nodes: list[int] = []
        for n in nbrs:
            cand = (set(self.neighbors.get(n, set())) | set(nbrs)) - {n, sid}
            poly = self._square_cell(n, sorted(cand))
            if poly is None:
                # neighbor swallowed entirely (possible only in degenerate
                # near-ties); park it to stay consistent
                del self.cells[n]
                for v in self.neighbors.pop(n, set()):
                    self.neighbors.get(v, set()).discard(n)
                self._park(n, events)
                continue
            hs_n = self.planes[n]
            tracked = []
            for p in poly.vertices:
                nid = registry.find(p.x, p.y)
                if nid is None:
                    nid = self._new_node(p.x, p.y, hs_n.height(p.x, p.y), n)
                    registry.seed(nid)
                    new_nodes.append(nid)
                tracked.append((p.x, p.y, nid))
            self._commit_cell(n, tracked)

        # vertices referenced by nobody anymore are dead; route them forward
        live_now: set[int] = set()
        for poly in self.cells.values():
            live_now.update(nid for (_, _, nid) in poly)
        dead: set[int] = set()
        for poly in old_polys.values():
            dead.update(nid for (_, _, nid) in poly if nid not in live_now)
        if new_nodes:
            targets = new_nodes
        elif live_now:
            targets = sorted(live_now)
        else:
            targets = self.shuffle.roots[:4]
            for r in self.shuffle.roots[:4]:
                nodes[r].next = None
        for d in sorted(dead):
            if nodes[d].next is not None:
                continue
            if not targets:
                continue
            nodes[d].next = min(targets, key=lambda k: (nodes[k].x - nodes[d].x) ** 2
                                + (nodes[k].y - nodes[d].y) ** 2)

        self._refresh_neighbors(nbrs)
        affected = [n for n in nbrs if n in self.cells]
        self._dirty.update(affected)

        # deletions can expose parked disks anywhere (a power region may
        # reappear far from the disk itself), so every parked disk is
        # re-probed, cheapest first by site id; those that stay parked get
        # their visibility beyond the working square re-checked at the next read
        revived: list[int] = []
        for h in sorted(self.hidden):
            if self._traverse(self.planes[h]) is None:
                self._offstage_pending.add(h)
                continue
            self._unpark(h)
            events.append(("revived", h))
            sub = self._insert_site(h, events)
            if sub is not None:
                revived.append(h)
                affected.extend(a for a in sub if a in self.cells)
        self._rekey(set(affected) | {sid})

        self._dirty.update(a for a in affected if a in self.cells)
        report = UpdateReport(op="delete", site=sid, redundant=False,
                              affected=sorted(set(affected) | set(revived)),
                              structural_change=len(set(affected)) + 1,
                              hidden_events=events,
                              wall_time=time.perf_counter() - start)
        return report

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _resolve_offstage(self) -> None:
        """Decide for each pending parked disk whether it wins somewhere
        beyond the working square; a change re-dirties every cell."""
        for sid in sorted(self._offstage_pending):
            visible = self._globally_visible(sid)
            if visible != (sid in self.offstage):
                if visible:
                    self.offstage.add(sid)
                else:
                    self.offstage.discard(sid)
                self._dirty.update(self.cells.keys())
        self._offstage_pending.clear()

    @property
    def regions(self) -> dict[int, list[ArcPolygon]]:
        """Current coverage regions; recomputes only sites marked dirty."""
        self._resolve_offstage()
        for sid in sorted(self._dirty):
            if sid in self.cells:
                self._regions[sid] = self._compute_region(sid)
            elif sid in self.transmitters:
                self._regions[sid] = []
            else:
                self._regions.pop(sid, None)
        self._dirty.clear()
        return {sid: self._regions.get(sid, []) for sid in self.transmitters}

    def region_areas(self) -> dict[int, float]:
        return {sid: sum(arc_polygon_area(ap) for ap in chains)
                for sid, chains in self.regions.items()}

    def _compute_region(self, sid: int) -> list[ArcPolygon]:
        cell_poly = ConvexPolygon(tuple(Point2(x, y) for (x, y, _) in self.cells[sid]))
        region_cell = convex_polygon_intersection(cell_poly, self.window.to_polygon())
        if region_cell is None:
            return []
        t = self.transmitters[sid]
        eps = geom_eps(max(self.window.diameter(), t.int_radius))
        cand = sorted(set(self.neighbors.get(sid, set())) | self.offstage)
        return site_region(region_cell, t.tx_disk, self._int_disks, cand, eps)

    def facial_lattice(self) -> FacialLatticeView:
        verts: set[int] = set()
        edges: set[tuple[int, int]] = set()
        for poly in self.cells.values():
            k = len(poly)
            for i in range(k):
                a, b = poly[i][2], poly[(i + 1) % k][2]
                verts.add(a)
                edges.add((min(a, b), max(a, b)))
        return FacialLatticeView(vertices=len(verts), edges=len(edges),
                                 faces=len(self.cells) + 1)


def _area_xy(poly: list[tuple[float, float]]) -> float:
    s = 0.0
    k = len(poly)
    for i in range(k):
        xa, ya = poly[i]
        xb, yb = poly[(i + 1) % k]
        s += xa * yb - xb * ya
    return 0.5 * s


def traverse_shuffle(dc: DynamicCoverage, s: HalfSpace3) -> Optional[ShuffleVertex]:
    """Find a current polytope vertex strictly outside the half-space, or
    None exactly when the half-space is redundant for the current structure
    (the bounded polytope is contained in it)."""
    nid = dc._traverse(s)
    if nid is None:
        return None
    n = dc.shuffle.nodes[nid]
    return ShuffleVertex(node_id=n.nid, x=n.x, y=n.y, z=n.z,
                         created=n.created, is_current=n.next is None)
