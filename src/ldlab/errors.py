"""Exception hierarchy shared across the package.

Configuration problems map to CLI exit code 2, numerical failures to 3.
"""


class LabError(Exception):
    """Base class for all package-specific errors.

    A pair runner that fails part-way sets ``tv_prefix`` to the (tv, log_tv)
    arrays of the steps it completed before the failure.
    """

    tv_prefix = None


class ConfigError(LabError):
    """Invalid scenario or model configuration."""


class ModelValidationError(LabError):
    """A model constructor rejected its inputs (bad row sums, bad constants)."""


class DegenerateInitError(LabError):
    """Every initial log-weight underflowed; prior and first likelihood do not overlap."""


class FilterCollapseError(LabError):
    """All filter weights vanished at some step."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"filter collapsed at step {step}")


class RepresentationError(LabError):
    """Total-variation operands live on incompatible supports."""


class InsufficientDataError(LabError):
    """Too few usable points for a decay-rate fit."""


class EnvelopeOrderError(LabError):
    """Lower envelope exceeded upper envelope."""


class UnavailableModeError(LabError):
    """Requested preimage-distance mode cannot be computed for this model."""


class H2FailureError(LabError):
    """No radius on the search grid achieves the requested tail ratio."""


class InfeasibleConstraintError(LabError):
    """Activation quota exceeds the sequence length."""


class ConstructionError(LabError):
    """Finite sandwich construction failed (zero transition mass on a set pair)."""


class OracleScaleError(LabError):
    """Exhaustive enumeration was requested beyond its size cap."""
