"""Helpers that left ``coveragekit.power_diagram`` and ``coveragekit.geometry``:
no output of the library depends on them, and the tests keep them as
references."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial import ConvexHull

from coveragekit.errors import CoverageKitError
from coveragekit.geometry import ConvexPolygon, Disk, Point2, Rect, _power, side
from coveragekit.power_diagram import (PowerDiagram, SiteId, _polygons, build,
                                       frame_partitions)


def power_distance(x: Point2, d: Disk) -> float:
    """Squared center distance minus squared radius: negative inside the disk,
    outside it the squared length of the tangent from ``x`` to the rim."""
    return _power(x.x, x.y, *d.xyr)


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
    """Site of minimum power distance at ``x``, in the diagram's frame
    (smallest id wins ties)."""
    best, best_v = 0, math.inf
    for i, d in enumerate(pd.sites):
        v = power_distance(x, d)
        if v < best_v:
            best, best_v = i, v
    return best


def qhull_neighbors(disks: Sequence[Disk]) -> dict[SiteId, set[SiteId]]:
    """Unbounded-plane neighbours of every visible site (hidden sites are
    absent) from Qhull's lower hull of the lifted disks, as ``build``'s
    "hull" route read them before it stopped using Qhull.  An edge inside a
    face of four or more cocircular sites, which Qhull splits into
    triangles on one plane, touches the diagram in a point and is left out.
    Raises ``scipy.spatial.QhullError`` on a lift Qhull rejects."""
    lift = [(d.center.x, d.center.y, d.center.x ** 2 + d.center.y ** 2 - d.radius ** 2)
            for d in disks]
    hull = ConvexHull(np.array(lift), qhull_options="Qt")
    tris, across, planes = (hull.simplices.tolist(), hull.neighbors.tolist(),
                            hull.equations.tolist())
    lower = [nz < -1e-12 for _, _, nz, _ in planes]
    adj: dict[SiteId, set[SiteId]] = {}
    for f, tri in enumerate(tris):
        if not lower[f]:
            continue
        for v in tri:
            adj.setdefault(v, set())
        a, b, c = tri
        for u, v, g in ((b, c, across[f][0]), (c, a, across[f][1]), (a, b, across[f][2])):
            if lower[g]:
                if g < f:
                    continue  # decided from g
                # an edge inside a split face: g's far vertex lies on f's plane
                nx, ny, nz, off = planes[f]
                x, y, z = lift[tris[g][across[g].index(f)]]
                if side(nx * x + ny * y + nz * z, -off) == 0:
                    continue
            adj[u].add(v)
            adj[v].add(u)
    return adj
