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


def check_fields(spec, allowed, what):
    """``spec`` itself if it is an object with no field outside ``allowed``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be an object, got {spec!r}")
    unknown = set(spec) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    return spec


def check_family(spec, key, families, what, default=None):
    """``spec[key]`` (or ``default``), a name in ``families``, with ``spec``
    holding only the fields that ``families`` gives that name."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be an object, got {spec!r}")
    name = spec.get(key, default)
    if not isinstance(name, str) or name not in families:
        raise ConfigError(f"unknown {what} {key}: {name!r}")
    check_fields(spec, families[name], f"{name} {what}")
    return name


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


class H2FailureError(LabError):
    """A tail ratio eta the bound cannot use: eta <= 0, or a finite eta below
    the stream's achieved outside-set emission ratio."""


class InfeasibleConstraintError(LabError):
    """Activation quota exceeds the sequence length."""


class ConstructionError(LabError):
    """Finite sandwich construction failed (zero transition mass on a set pair)."""


class OracleScaleError(LabError):
    """Exhaustive enumeration was requested beyond its size cap."""
