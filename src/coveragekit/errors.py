"""Exception types shared across the package."""


class CoverageKitError(Exception):
    """Base class for all package-specific errors."""


class InvalidChain(CoverageKitError):
    """An arc-polygon chain is open, degenerate, or self-intersecting."""


class DiagramRejected(CoverageKitError):
    """Qhull rejected the lifted disks of a power diagram; the message is
    the first line of its reason."""


class DuplicateSite(CoverageKitError):
    """Two sites repeat one disk: for coverage maps, static and dynamic
    alike, two transmitters with the same interference disk (centre and
    interference radius, whatever their transmission radii).  Co-sited
    transmitters with different interference radii are distinct sites."""


class LatticeError(CoverageKitError):
    """The dynamic structure's faces do not merge into one cell, so an
    update cannot be applied; the structure is not usable afterwards."""


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
    """A scenario's model does not suit the command, e.g. ``build-map`` on
    a sinr-model file."""


class InvalidArgument(ValueError):
    """A constructor refuses its argument ``name``; the message is the reason."""

    def __init__(self, name: str, reason: str):
        self.name = name
        super().__init__(reason)
