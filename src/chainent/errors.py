"""Exception types shared across the package."""


class ChainentError(Exception):
    """Base class for all package-specific errors."""


class GaplessError(ChainentError):
    """A band touching sits on the momentum grid; spectral flattening is undefined."""


class DisorderUnsupportedError(ChainentError):
    """Momentum-space routines require translation invariance (no disorder)."""


class DegenerateFillError(ChainentError):
    """The requested filling splits a degenerate single-particle level pair."""


class OddDimensionError(ChainentError):
    """Pfaffians and Majorana correlators need an even number of indices."""


class SizeError(ChainentError):
    """A dense matrix exceeds the dense-RDM mode cap or the physical memory."""


class InvalidStateError(ChainentError):
    """A matrix fails the density-matrix invariants beyond tolerance."""


class ParityError(ChainentError):
    """Operation defined only for the other parity of the system size."""


class NoRootError(ChainentError):
    """No sign change inside the bracketing interval."""


class WindowError(ChainentError):
    """A fit window touches the singular point."""


class GridTooCoarseError(ChainentError):
    """Finite differences need at least three grid points."""
