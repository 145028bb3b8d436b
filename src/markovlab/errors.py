"""Exception types shared across the package."""


class MarkovLabError(Exception):
    """Base class for all markovlab errors."""


class DimensionMismatchError(MarkovLabError, ValueError):
    """Polynomial dimension does not match the set/operator dimension."""


class PrecisionOverflowError(MarkovLabError, OverflowError):
    """Float-mode magnitudes left the representable range; retry in exact or log mode."""


class QuadratureBudgetError(MarkovLabError, ValueError):
    """Requested integrand degree exceeds the measure's quadrature budget."""


class OrthogonalityLossError(MarkovLabError, ArithmeticError):
    """Orthogonality drift beyond tolerance during system construction."""

    def __init__(self, degree: int, defect: float):
        self.degree = degree
        self.defect = defect
        super().__init__(
            f"orthogonality lost at degree {degree} (Gram defect {defect:.3e})"
        )


class ConfigError(MarkovLabError, ValueError):
    """Invalid or incomplete experiment configuration."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(f"config field '{field}': {message or 'missing or invalid'}")
