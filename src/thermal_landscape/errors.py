"""Exception types shared across the package."""


class ThermalLandscapeError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(ThermalLandscapeError):
    pass


class SizeLimit(ThermalLandscapeError):
    pass


class SiteOutOfRange(ThermalLandscapeError):
    pass


class NotHermitian(ThermalLandscapeError):
    pass


class NonRealExpectation(ThermalLandscapeError):
    pass


class InvalidDensityMatrix(ThermalLandscapeError):
    pass


class NumericalGuard(ThermalLandscapeError):
    """Base for errors signalling that a numerical guard tripped (CLI exit 3)."""


class GroupingUnstable(NumericalGuard):
    pass


class QuadratureFailure(NumericalGuard):
    pass


class PositivityDefect(NumericalGuard):
    pass


class EvolutionDefect(NumericalGuard):
    """Hermiticity/trace defect of an evolved state exceeded its bound."""


class LambHermiticityDefect(NumericalGuard):
    pass


class NonFiniteValue(NumericalGuard):
    """A matrix or gradient that must be finite holds an infinity or a NaN."""


class NegativeTime(ThermalLandscapeError):
    pass


class NegativeWeight(ThermalLandscapeError):
    pass


class UnknownJump(ThermalLandscapeError):
    pass


class JumpSetNotClosed(ThermalLandscapeError):
    """Jump operator set is not closed under Hermitian conjugation."""


class JumpNotNormalized(ThermalLandscapeError):
    """A jump operator violates the ||A^dag A|| <= 1 normalization."""


class TriggerNotMet(ThermalLandscapeError):
    pass


class MaxStepsExceeded(ThermalLandscapeError):
    """Descent hit the step budget; carries the partial trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class NotCommutingHamiltonian(ThermalLandscapeError):
    pass


class NonUnitaryGate(ThermalLandscapeError):
    pass


class ConfigError(ThermalLandscapeError):
    """Scenario configuration failed validation; carries the offending field path."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
