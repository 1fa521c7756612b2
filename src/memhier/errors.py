"""Exception types shared across the probes and the simulator."""


class MemhierError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGeometryError(MemhierError):
    """Reference-string parameters violate a construction precondition."""


class AllocationFailureError(MemhierError):
    """A memory region could not be acquired (cap exceeded or OS failure)."""


class TimerTooCoarseError(MemhierError):
    """The monotonic timer resolution is too coarse for calibration."""


class BudgetExceededError(MemhierError):
    """A measurement exceeded its configured run budget without stabilizing."""


class ProbeError(MemhierError):
    """A probe could not derive a parameter from its measurements."""


class ConfigError(MemhierError):
    """A simulator configuration is inconsistent or unparsable."""


class DegenerateCurveError(MemhierError):
    """A response curve has too few measured points to analyze."""


class CurveFormatError(MemhierError):
    """A saved response curve is unparsable."""
