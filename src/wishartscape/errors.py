"""Exception types shared across the package."""

__all__ = [
    "WishartscapeError",
    "ValidationError",
    "DegenerateObservableError",
    "UnsupportedConfigurationError",
    "UndefinedRegimeError",
    "NotApplicableError",
    "TrendUnfitError",
    "ModelFormatError",
    "BudgetExceededError",
]


class WishartscapeError(Exception):
    """Base class for all package errors."""


class ValidationError(WishartscapeError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class DegenerateObservableError(ValidationError):
    """Observable spectrum carries no dispersion after zero-shifting."""


class UnsupportedConfigurationError(ValidationError):
    """The requested operation is outside the regime this sampler models."""


class UndefinedRegimeError(WishartscapeError):
    """No sector is in the regime required to define the requested quantity."""


class NotApplicableError(WishartscapeError):
    """A bound or approximation was requested outside its validity regime."""


class TrendUnfitError(ValidationError):
    """Too few model sizes to fit a scaling trend."""


class ModelFormatError(ValidationError):
    """A model description file is malformed; carries location context."""

    def __init__(self, message: str, *, path: str | None = None,
                 component: int | None = None, field: str | None = None):
        loc = []
        if path is not None:
            loc.append(str(path))
        if component is not None:
            loc.append(f"component {component}")
        if field is not None:
            loc.append(f"field '{field}'")
        prefix = ": ".join(loc)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.path = path
        self.component = component
        self.field = field


class BudgetExceededError(WishartscapeError):
    """A requested computation exceeds the configured work budget."""
