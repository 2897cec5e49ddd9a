"""Exception types shared across the package."""


class ArrayMemError(Exception):
    """Base class for all arraymem-specific errors."""


class InvalidArgumentError(ArrayMemError, ValueError):
    """An argument violates a documented precondition."""


class SingularGeometryError(ArrayMemError, ValueError):
    """Geometry contains (near-)duplicate atom positions."""


class DefectiveSpectrumError(ArrayMemError, RuntimeError):
    """Eigenvector bilinear norm collapsed; matrix is (near-)defective.

    Carries the indices of the offending eigenvectors in ``indices``.
    """

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class SingularPairError(ArrayMemError, RuntimeError):
    """A mode pair has a vanishing eta-denominator (zero total decay).

    Carries the offending mode index pairs in ``pairs``.
    """

    def __init__(self, message, pairs=()):
        super().__init__(message)
        self.pairs = tuple(pairs)


class NumericalError(ArrayMemError, RuntimeError):
    """A numerical procedure failed to reach its tolerance.

    ``achieved`` holds the best error estimate reached before giving up.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class FitWindowError(ArrayMemError, ValueError):
    """A fit window selected no data points."""
