"""Exception types raised by holonomy_lab.

Two families: input/validation errors (CLI exit code 1) and numerical
contract violations (CLI exit code 2). Contract violations signal a bug in
the numerical method, not bad input.
"""


class HolonomyLabError(Exception):
    """Base class for all holonomy_lab errors."""


class ContractViolation(HolonomyLabError):
    """A numerical guarantee failed; indicates a method bug, not bad input."""


# linear algebra kernel

class NonHermitian(HolonomyLabError):
    pass


class NoConvergence(HolonomyLabError):
    pass


class Singular(HolonomyLabError):
    def __init__(self, message: str, index: int | None = None, value: float = 0.0):
        super().__init__(message)
        self.index, self.value = index, value  # position in a stack, smallest singular value


class RankDeficient(HolonomyLabError):
    pass


# spectral data

class NotDescending(HolonomyLabError):
    pass


class NotNormalized(HolonomyLabError):
    pass


class LengthMismatch(HolonomyLabError):
    pass


class NotAState(HolonomyLabError):
    pass


# curves

class EndpointMismatch(HolonomyLabError):
    pass


class GridMismatch(HolonomyLabError):
    pass


class NonPositiveEigenvalue(HolonomyLabError):
    pass


class NonFinite(HolonomyLabError):
    pass


# bundle / transport

class DegeneracyMismatch(HolonomyLabError):
    pass


class MultiplicityChange(HolonomyLabError):
    pass


class NotClosed(HolonomyLabError):
    pass


class GaugeViolation(HolonomyLabError):
    pass


class NotTangent(HolonomyLabError):
    pass


# invariants

class OutOfRange(HolonomyLabError):
    pass


class ShapeMismatch(HolonomyLabError):
    pass


class BoundViolated(ContractViolation):
    pass


# dynamics

class DimMismatch(HolonomyLabError):
    pass


class StationaryAxis(HolonomyLabError):
    pass


class InvalidP(HolonomyLabError):
    pass


# synthesis

class DimensionTooSmall(HolonomyLabError):
    pass


class SaturationFailed(ContractViolation):
    pass
