"""Static coverage maps under the protocol (disk) interference model.

A point is covered by transmitter p iff it lies inside p's transmission disk
and outside every other transmitter's interference disk.  The map is computed
per site from the power diagram of the interference disks: each cell is
partitioned by the site's power frame, and within the partition belonging to
neighbor q only q's interference disk has to be subtracted.

The per-site loop is embarrassingly parallel once the shared diagram exists;
all outputs are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .geometry import (ArcEdge, ArcPolygon, CircularArc, ConvexPolygon, Disk,
                       Point2, Rect, Segment, TWO_PI, arc_polygon_area, dist,
                       geom_eps, stitch_chains, _boolean_pieces)
from .power_diagram import PowerDiagram, SiteId, build, frame_partitions


@dataclass(frozen=True)
class ProtocolTransmitter:
    location: Point2
    tx_radius: float
    int_radius: float

    def __post_init__(self):
        if not self.tx_radius > 0.0:
            raise ValueError("transmission radius must be positive")
        if self.int_radius < self.tx_radius:
            raise ValueError("interference radius must contain the transmission radius")

    @property
    def tx_disk(self) -> Disk:
        return Disk(self.location, self.tx_radius)

    @property
    def int_disk(self) -> Disk:
        return Disk(self.location, self.int_radius)


@dataclass(frozen=True)
class CoverageMap:
    """Coverage regions keyed by site, plus the interference-disk diagram."""
    regions: dict[SiteId, list[ArcPolygon]]
    diagram: PowerDiagram
    transmitters: tuple[ProtocolTransmitter, ...]

    def total_arcs(self) -> int:
        return sum(len(ap.edges) + sum(len(h.edges) for h in ap.holes)
                   for chains in self.regions.values() for ap in chains)


def merge_region_pieces(pieces: list[ArcEdge], eps: float) -> list[ArcPolygon]:
    """Union of per-partition boundary pieces for one site.

    Straight fragments shared by two partitions of the same cell appear twice
    with opposite directions and cancel; what survives is stitched into closed
    chains (inner clockwise chains become holes).
    """
    segs = [(i, p) for i, p in enumerate(pieces) if isinstance(p, Segment)]
    reps: list[Point2] = []

    def node(pt: Point2) -> int:
        for k, r in enumerate(reps):
            if dist(r, pt) <= eps * 64.0:
                return k
        reps.append(pt)
        return len(reps) - 1

    keyed: dict[tuple[int, int], list[int]] = {}
    for i, s in segs:
        keyed.setdefault((node(s.start), node(s.end)), []).append(i)
    dead: set[int] = set()
    for (a, b), idxs in keyed.items():
        if a >= b:
            continue
        rev = keyed.get((b, a), [])
        k = min(len(idxs), len(rev))
        dead.update(idxs[:k])
        dead.update(rev[:k])
    kept = [p for i, p in enumerate(pieces) if i not in dead]
    return stitch_chains(kept, eps)


def compute_coverage_map(txs: Sequence[ProtocolTransmitter], window: Rect) -> CoverageMap:
    """Coverage region of every transmitter, clipped to ``window``.

    Interference-disk sites with empty power regions are dropped up front
    (they cannot cover anything) and reported with empty region lists.
    """
    if not txs:
        raise ValueError("need at least one transmitter")
    int_disks = [t.int_disk for t in txs]
    pd = build(int_disks, window)
    scale = max(window.diameter(), max(t.int_radius for t in txs))
    eps = geom_eps(scale)

    regions: dict[SiteId, list[ArcPolygon]] = {}
    for p in range(len(txs)):
        cell = pd.cells.get(p)
        if p in pd.hidden or cell is None:
            regions[p] = []
            continue
        regions[p] = site_region(cell, txs[p].tx_disk, int_disks,
                                 sorted(pd.neighbors.get(p, frozenset())), eps)
    return CoverageMap(regions=regions, diagram=pd, transmitters=tuple(txs))


def site_region(cell: ConvexPolygon, tx: Disk,
                int_disks: Sequence[Disk] | Mapping[SiteId, Disk],
                cand: Sequence[SiteId], eps: float) -> list[ArcPolygon]:
    """Coverage region of the site with transmission disk ``tx`` and power
    cell ``cell``, whose interfering neighbors are ``cand``.

    The cell is split by its power frame and each piece subtracts only its
    own neighbor's interference disk.  Used by both the static and the
    dynamic maps.
    """
    if not cand:
        pieces = _boolean_pieces(cell, tx, None, eps)
    else:
        pieces = []
        for q, part in frame_partitions(cell, int_disks, cand, eps).items():
            pieces.extend(_boolean_pieces(part, tx, int_disks[q], eps))
    if not pieces:
        return []
    return merge_region_pieces(pieces, eps)


def coverage_area(cov: CoverageMap) -> float:
    """Total covered area; regions of distinct sites are disjoint by
    construction (each lives in its own power cell), so the plain sum is the
    measure of the union."""
    return sum(arc_polygon_area(ap)
               for chains in cov.regions.values() for ap in chains)


def region_area(cov: CoverageMap, p: SiteId) -> float:
    return sum(arc_polygon_area(ap) for ap in cov.regions.get(p, []))


def find_interference_bound(cov: CoverageMap) -> Optional[SiteId]:
    """Some transmitter whose transmission disk meets another's interference
    disk, or None.  Linear in the total number of arcs.

    Assumes the window contains every interference disk, so that an empty or
    clipped region can only be caused by interference.
    """
    for p in sorted(cov.regions):
        chains = cov.regions[p]
        if not chains:
            return p
        for ap in chains:
            if ap.holes:
                return p
            if len(ap.edges) != 1:
                return p
            edge = ap.edges[0]
            if not isinstance(edge, CircularArc):
                return p
            if abs(edge.sweep()) < TWO_PI or edge.orientation != "outward":
                return p
            own = cov.transmitters[p].tx_disk
            if (dist(edge.supporting_disk.center, own.center) > geom_eps(own.radius)
                    or abs(edge.supporting_disk.radius - own.radius) > geom_eps(own.radius)):
                return p
    return None
