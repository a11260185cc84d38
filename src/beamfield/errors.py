"""Exception types shared across the package."""


class BeamfieldError(Exception):
    """Base class for all errors raised by this package."""


class ZfInfeasibleError(BeamfieldError, ValueError):
    """Zero-forcing cannot separate the users (effective channel rank deficient).

    The message names the first user whose row is not separable from the
    rows before it (its energy left after projecting them out fell below
    the rank threshold).
    """


class DegenerateChannelError(BeamfieldError, ValueError):
    """A user's channel block carries no energy; combining is undefined."""


class UnknownRegionError(BeamfieldError, ValueError):
    """Requested region has no entry in the limit table."""


class ConfigError(BeamfieldError, ValueError):
    """A run configuration failed validation."""
