"""Exception types shared across the package."""


class ZdsysError(Exception):
    """Base class for all package errors."""


class MixedSystems(ZdsysError):
    """Two values over different system specs were combined."""


class InvalidPoint(ZdsysError):
    """A point description is not valid for the family."""


class MaxStepsExceeded(ZdsysError):
    """A first-return search did not terminate within the step bound.

    Signals a point of the base whose forward orbit does not come back
    within the bound (for example, a base missing the minimal set of its
    fiber).
    """

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class NotSubordinate(ZdsysError):
    """A base straddles two elements of the subordinating partition."""


class SaturationFailure(ZdsysError):
    """The tower levels of the constructed system do not partition X."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidSystem(ZdsysError):
    """A return system failed validation where a valid one is required."""


class IncompatiblePair(ZdsysError):
    """The second system's bases are not the images of the first towers."""


class NeedsRefinement(ZdsysError):
    """The induced map is not square at this level: h sends some cell of
    the partition to a set that is not a cell."""


class NotCompactlySupported(ZdsysError):
    """A coefficient of the element is not supported on a finite point set."""


class DegenerateEigenbasis(ZdsysError):
    """A power of the corner's root, spliced into the interpolating
    unitary, couples points of different fibers."""


class NoConvergence(ZdsysError):
    """A numeric routine could not produce its result: the matrix has a
    NaN or infinite entry."""


class PartitionFailure(ZdsysError):
    """A projection family does not sum to the identity."""
