"""Exception types shared across the package."""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "MonotileError", "EncodingError", "UnsupportedGroupError", "NotCosetRepsError",
    "InvarianceUnreachableError", "InfeasibleError", "DistinctnessError", "AugmentationError",
    "HypothesisError", "SelectionExhaustedError", "RenderUnsupportedError", "ConfigError",
]


class MonotileError(Exception):
    """Base class for all package-specific errors."""


class EncodingError(MonotileError, ValueError):
    """An element encoding does not match its group context."""


class UnsupportedGroupError(MonotileError, ValueError):
    """The requested operation has no implementation for this group kind."""


class NotCosetRepsError(MonotileError, ValueError):
    """A transversal contains duplicates or repeated cosets."""


class InvarianceUnreachableError(MonotileError, RuntimeError):
    """The adaptive index search hit its cap before meeting a defect target."""

    def __init__(self, message: str, achieved: Fraction | None = None):
        super().__init__(message)
        self.achieved = achieved


class InfeasibleError(MonotileError, ValueError):
    """Requested construction is impossible with the given data."""


class DistinctnessError(MonotileError, ValueError):
    """Pairwise-distinct output blocks could not be produced."""


class AugmentationError(MonotileError, ValueError):
    """Matrix entries leave no room for the column-splitting augmentation."""


class HypothesisError(MonotileError, ValueError):
    """A stated growth hypothesis fails on the given data."""


class SelectionExhaustedError(MonotileError, RuntimeError):
    """No admissible subsequence index exists within the available prefix."""


class RenderUnsupportedError(MonotileError, ValueError):
    """The pattern cannot be rendered in the requested mode."""


class ConfigError(MonotileError, ValueError):
    """A pipeline configuration is internally inconsistent."""
