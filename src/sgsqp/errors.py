"""Exception types raised across the package."""


class SgsQpError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(SgsQpError):
    pass


class ShapeMismatch(SgsQpError):
    pass


class NotSymmetric(SgsQpError):
    pass


class NotPD(SgsQpError):
    pass


class NonFinite(SgsQpError):
    """An input array holds NaN or inf."""


class DiagonalNotPD(SgsQpError):
    """A diagonal block is not positive definite.

    Attributes
    ----------
    block : int
        Zero-based index of the offending diagonal block.
    """

    def __init__(self, block, message=None):
        self.block = block
        super().__init__(message or f"diagonal block {block} is not positive definite")


class ShiftNotPSD(SgsQpError):
    """A proximal shift term J_i is not positive semidefinite."""

    def __init__(self, block, message=None):
        self.block = block
        super().__init__(message or f"shift for block {block} is not positive semidefinite")


class OmegaOutOfRange(SgsQpError):
    pass


class TauOutOfRange(SgsQpError):
    pass


class NeedsShift(SgsQpError):
    """Nonsmooth first block requires its quadratic to be a multiple of the identity."""


class IdentityViolation(SgsQpError):
    """A structural matrix identity failed beyond the certification tolerance.

    Attributes
    ----------
    magnitude : float
        The offending relative error.
    """

    def __init__(self, message, magnitude=None):
        self.magnitude = magnitude
        super().__init__(message)


class RangeDeficiency(SgsQpError):
    pass


class InvalidParams(SgsQpError):
    pass


class UnboundedObjective(SgsQpError):
    pass


class NotConverged(SgsQpError):
    pass
