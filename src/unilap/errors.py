"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A constructor or operation received parameters outside its domain."""


class NotConnectedError(ValueError):
    """The operation requires a connected graph."""


class NotUnicyclicError(ValueError):
    """The operation requires a connected graph with exactly n edges."""


class EdgeNotPresentError(ValueError):
    """The named edge does not exist in the graph."""


class NonSymmetricError(ValueError):
    """The matrix kernel only accepts symmetric input."""


class InvalidIntervalError(ValueError):
    """Interval endpoints must satisfy a < b."""


class SizeCapExceededError(ValueError):
    """Exact search refused an instance above its size cap."""


class InternalConsistencyError(ArithmeticError):
    """An exact identity that must hold by construction failed.

    Raised e.g. when a polynomial division that is provably exact leaves a
    remainder, or a constructed eigenvector fails its own verification; both
    signal a bug rather than bad user input.
    """
