"""Exception types shared across the package.

Two families matter for the CLI exit-code contract: ``SetupError`` covers
mis-specified runs (bad config values, incompatible grids, impossible counts)
and maps to exit code 2; ``NumericsError`` covers failures of the numerical
machinery itself (divergence, bound violations, exhausted horizons) and maps
to exit code 3.
"""
from __future__ import annotations


class EpiError(Exception):
    """Base class for all package errors."""


class SetupError(EpiError):
    """A run was mis-specified (config, grid, profile, counts)."""


class NumericsError(EpiError):
    """A numerical procedure failed (divergence, bound breach, horizon)."""


# -- setup ------------------------------------------------------------------

class ConfigError(SetupError):
    """Config file or CLI parameter could not be parsed or validated."""


class InvalidGridError(SetupError, ValueError):
    """Grid dimension outside 1..3 or fewer than 2 sites per side."""


class InvalidSpecError(SetupError):
    """Kernel specification is invalid (non-positive or over-wide radius/width)."""


class EmptySupportError(InvalidSpecError):
    """Kernel support on this grid contains no site besides the origin."""


class GridMismatchError(SetupError):
    """Operands were built on different grids."""


class InvalidProfileError(SetupError):
    """Initial density profile violates 0 <= rho0, rho1 and rho0 + rho1 <= 1."""


class CountOverflowError(SetupError):
    """Requested susceptible/infected counts exceed the number of sites."""


class IoError(SetupError):
    """An output or input path could not be used; message carries the path."""


# -- numerics ---------------------------------------------------------------

class AbsorbedError(NumericsError):
    """An event was requested from a state with no infected sites."""


class StabilityViolationError(NumericsError):
    """PDE integration breached a structural bound beyond tolerance."""


class NoConvergenceError(NumericsError):
    """Fixed-point iteration failed to converge within the iteration cap."""


class HorizonExceededError(NumericsError):
    """Long-time integration hit its time cap before reaching tolerance."""


class InconsistentInputError(NumericsError):
    """Inverse problem produced values outside the admissible range."""


class DegenerateSiteError(NumericsError):
    """Every site of an inference region was degenerate (0/0 information)."""


class DomainError(NumericsError):
    """Argument lies outside the mathematical domain of a formula."""
