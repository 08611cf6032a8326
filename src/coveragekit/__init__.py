"""coveragekit: interference-limited wireless coverage maps.

Computes, dynamically maintains, and optimizes coverage maps of transmitter
sets under the protocol (disk) model and the SINR model: power diagrams and
per-site coverage regions bounded by circular arcs, randomized dynamic
updates, Monte-Carlo area estimation, and derivative-free transmit-power
optimization.
"""

__version__ = "0.1.0"

from .errors import (BudgetExceeded, CoverageKitError, DiagramRejected, DuplicateSite,
                     InvalidChain, LatticeError, ModelError, ParseError, Singularity)
from .geometry import (ArcPolygon, CircularArc, ConvexPolygon, Disk, Point2, Rect,
                       Segment, arc_polygon_area, power_distance)
from .power_diagram import PowerDiagram, SiteId, build
from .protocol_coverage import (CoverageMap, ProtocolTransmitter,
                                compute_coverage_map, coverage_area,
                                find_interference_bound)
from .sinr_model import (PowerVector, SinrScenario, capture_transmitter,
                         is_covered, ratio_profile, ray_coverage_profile)
from .optimizer import (Bounds, OptResult, RhcParams, SamplingPlan,
                        estimate_area, exhaustive_search, nelder_mead,
                        post_process, random_hill_climb, required_samples)
from .dynamic_coverage import (DynamicCoverage, HalfSpace3, Treap, lift,
                               traverse_shuffle, treap_delete, treap_insert)
