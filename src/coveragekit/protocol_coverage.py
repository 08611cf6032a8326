"""Static coverage maps under the protocol (disk) interference model.

A point is covered by transmitter p iff it lies inside p's transmission disk
and outside every other transmitter's interference disk.  The map is computed
per site from the power diagram of the interference disks: inside p's cell
the power-nearest other site is always one of p's neighbours, so p's region
is its cell ∩ transmission disk minus the interference disks of its
neighbours (``geometry.boolean_rows``).  On the rim of neighbour q's disk,
"outside every other neighbour's disk" is exactly "in q's piece of p's power
frame", so the frame needs no building: its edges meet the region's boundary
only where two neighbours' circles cross, and those crossings are keyed by
the two circles.

Once the shared diagram exists, one lockstep pass computes every visible
site's region (``geometry.boolean_rows``): the crossings, their angles and
the midpoint tests of all sites in a few numpy steps, so that Python only
stitches the pieces of the sites that keep any.  All outputs are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .geometry import ArcPolygon, Disk, Point2, Rect, arc_polygon_area, boolean_rows
from .power_diagram import PowerDiagram, SiteId, build


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


@dataclass(frozen=True)
class CoverageMap:
    """Coverage regions keyed by site, plus the interference-disk diagram,
    both in the diagram's frame (less ``diagram.origin``, the window's
    centre); ``transmitters`` as given."""
    regions: dict[SiteId, list[ArcPolygon]]
    diagram: PowerDiagram
    transmitters: tuple[ProtocolTransmitter, ...]
    # what the boolean pass did, for the run manifest; not compared
    stats: dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    def total_arcs(self) -> int:
        return sum(len(ap.edges) + sum(len(h.edges) for h in ap.holes)
                   for chains in self.regions.values() for ap in chains)


def compute_coverage_map(txs: Sequence[ProtocolTransmitter], window: Rect) -> CoverageMap:
    """Coverage region of every transmitter, clipped to ``window``.

    Interference-disk sites with empty power regions are dropped up front
    (they cannot cover anything) and reported with empty region lists.
    The map is computed in the frame of the interference disks' diagram
    (``build``), which admits the transmitters on those disks.
    """
    pd = build([Disk(t.location, t.int_radius) for t in txs], window)
    visible = [p for p in range(len(txs)) if pd.cells.get(p) is not None]
    rows = boolean_rows([pd.cells[p] for p in visible],
                        [Disk(pd.sites[p].center, txs[p].tx_radius) for p in visible],
                        [[pd.sites[q] for q in sorted(pd.neighbors.get(p, ()))]
                         for p in visible], pd.eps)
    regions: dict[SiteId, list[ArcPolygon]] = {p: [] for p in range(len(txs))}
    regions.update(zip(visible, rows.chains))
    stats = {"boolean_sites": len(visible), "boolean_empty": rows.empty,
             "boolean_pieces": rows.pieces,
             "boolean_chains": sum(1 + len(ap.holes) for c in rows.chains for ap in c)}
    return CoverageMap(regions=regions, diagram=pd, transmitters=tuple(txs), stats=stats)


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
    clipped region can only be caused by interference.  p is bound unless
    its region is one chain, its whole transmission circle: a closed chain
    of one edge is a whole circle (stitching makes it one), outward (an
    inward one would be a hole), and the one outward circle of p's boolean
    is its transmission disk.
    """
    for p in sorted(cov.regions):
        chains = cov.regions[p]
        if not chains or any(ap.holes or len(ap.edges) != 1 for ap in chains):
            return p
    return None
