"""Exception types shared across the package."""


class CoverageKitError(Exception):
    """Base class for all package-specific errors."""


class ConcentricDisks(CoverageKitError):
    """Two disks share a center, so no power bisector line exists."""


class InvalidChain(CoverageKitError):
    """An arc-polygon chain is open, degenerate, or self-intersecting."""


class DiagramRejected(CoverageKitError):
    """Qhull rejected the lifted disks of a power diagram; the message is
    the first line of its reason."""


class DuplicateSite(CoverageKitError):
    """Two identical disks/transmitters were supplied to a diagram."""


class HiddenSite(CoverageKitError):
    """Operation requires a non-empty power region but the site has none."""


class Singularity(CoverageKitError):
    """SINR evaluation requested at (or numerically on top of) a transmitter."""


class BudgetExceeded(CoverageKitError):
    """An enumeration would exceed the configured evaluation budget."""


class ParseError(CoverageKitError):
    """A scenario file violates the schema.

    Attributes:
        path: dotted path of the offending field, e.g. ``transmitters[2].x``.
        reason: human-readable description.
    """

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class ModelError(CoverageKitError):
    """A scenario is schema-valid but violates a model constraint."""
