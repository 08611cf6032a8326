"""Helpers that left ``coveragekit.power_diagram``: no output of the library
depends on them, and the tests keep them as references."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from coveragekit.errors import CoverageKitError
from coveragekit.geometry import ConvexPolygon, Disk, Point2, Rect, power_distance
from coveragekit.power_diagram import (PowerDiagram, SiteId, _polygons, build,
                                       frame_partitions)


class HiddenSite(CoverageKitError):
    """Operation requires a non-empty power region but the site has none."""


@dataclass(frozen=True)
class PowerFrame:
    """Per-neighbor partition of one site's cell.

    ``partitions[q]`` is the part of the owner's cell where ``q`` is
    power-nearest among the owner's neighbors, cut from the cell by the
    neighbors' bisectors; the pieces tile the cell.
    """
    owner: SiteId
    partitions: dict[SiteId, ConvexPolygon]


def power_frame(pd: PowerDiagram, p: SiteId) -> PowerFrame:
    """Partition of cell(p) among p's neighbors (``frame_partitions``).

    The piece labeled ``q`` is cell(p) clipped by the bisectors between q and
    each other neighbor, so q is power-nearest among the neighbors on it.
    """
    if pd.cells.get(p) is None:
        raise HiddenSite(f"site {p} has an empty power region")
    pieces = zip(sorted(pd.neighbors[p]), _polygons(frame_partitions(pd, [p])))
    return PowerFrame(owner=p, partitions={q: c for q, c in pieces if c is not None})


def remove_redundant(disks: Sequence[Disk], window: Rect) -> tuple[list[SiteId], list[SiteId]]:
    """Split sites into (kept, removed) by empty-power-region status.

    A removed disk is provably contained in the union of the other disks, so
    it contributes interference but no coverage.
    """
    pd = build(disks, window)
    removed = sorted(pd.hidden)
    kept = [i for i in range(len(disks)) if i not in pd.hidden]
    return kept, removed


def nearest_site(pd: PowerDiagram, x: Point2) -> SiteId:
    """Site of minimum power distance at ``x`` (smallest id wins ties)."""
    best, best_v = 0, math.inf
    for i, d in enumerate(pd.sites):
        v = power_distance(x, d)
        if v < best_v:
            best, best_v = i, v
    return best
