"""Exception types and validation findings shared across the package."""
from __future__ import annotations

from dataclasses import dataclass


class MoranDimError(Exception):
    """Base class for all package errors."""


class ConfigError(MoranDimError):
    """A config document violates the schema; message carries the field path."""


class ContractionViolated(MoranDimError):
    """A linear map has operator norm >= 1."""


class NonsingularityViolated(MoranDimError):
    """A matrix is singular or numerically too close to singular."""


class DimensionMismatch(MoranDimError):
    """Operands have incompatible dimensions."""


class UnresolvedTranslation(MoranDimError):
    """The translation scheme has no value for the requested word."""


class BudgetExceeded(MoranDimError):
    """An enumeration would exceed the node/point budget."""


class InapplicableEstimator(MoranDimError):
    """The requested estimator does not apply to this system."""


# Severity tags for validation findings.
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One named validation finding (error or warning)."""

    code: str
    severity: str
    message: str
    where: str = ""

    def raise_if_invariant(self) -> None:
        """Raise the matching error for a contraction or nonsingularity finding."""
        if self.code == "ContractionViolated":
            raise ContractionViolated(f"{self.where}: {self.message}")
        if self.code == "NonsingularityViolated":
            raise NonsingularityViolated(f"{self.where}: {self.message}")
