"""Helpers that left ``coveragekit.geometry``: no output of the library
depends on them, and the tests keep them as references."""

from __future__ import annotations

import math

from coveragekit.errors import ConcentricDisks
from coveragekit.geometry import (ArcPolygon, ConvexPolygon, Disk, HalfPlane, Point2,
                                  bisector_line, boolean_chains, clip_convex, dist, geom_eps)


def signed_distance(x: Point2, d: Disk) -> float:
    """Distance to the disk center minus the radius: negative strictly inside."""
    return dist(x, d.center) - d.radius


def power_bisector(d1: Disk, d2: Disk, eps: float = 0.0) -> HalfPlane:
    """Half-plane {x : power_distance(x, d1) <= power_distance(x, d2)}.

    The quadratic terms cancel, so the boundary locus is always a straight
    line.  Raises ConcentricDisks when the centers coincide.
    """
    nx, ny, off = bisector_line(d1.xyr, d2.xyr)
    if math.hypot(nx, ny) <= 2.0 * eps:
        raise ConcentricDisks(f"disks centered at {d1.center} and {d2.center} "
                              f"have no bisector line")
    return HalfPlane(nx, ny, off)


def region_disk_boolean(region: ConvexPolygon, include: Disk,
                        exclude: Disk) -> list[ArcPolygon]:
    """Disjoint arc polygons covering (region ∩ include) \\ exclude.

    Each boundary edge is a polygon-edge fragment, an outward arc of
    ``include``, or an inward arc of ``exclude``.  When ``exclude`` sits
    strictly inside the intersection the region is split along a chord rather
    than emitting an annulus.
    """
    scale = max(region.diameter(), include.radius + exclude.radius,
                abs(include.center.x), abs(include.center.y))
    eps = geom_eps(scale)
    out = boolean_chains(region, include, [exclude], eps)
    if any(ap.holes for ap in out):
        # hole: cut the region through the exclude center and redo both halves
        cy = exclude.center.y
        out = []
        for part in (clip_convex(region, HalfPlane(0.0, 1.0, cy)),
                     clip_convex(region, HalfPlane(0.0, -1.0, -cy))):
            if part is not None:
                out.extend(region_disk_boolean(part, include, exclude))
    return out
