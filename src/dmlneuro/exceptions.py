"""Exception hierarchy shared across the package."""

from contextlib import contextmanager


class DmlNeuroError(Exception):
    """Base class for all package-specific errors."""


class NumericalError(DmlNeuroError):
    """A computation failed numerically (as opposed to bad configuration)."""


class NonFiniteStateError(NumericalError):
    """The solution blew up; carries the finite part of the trajectory.

    Attributes
    ----------
    trajectory : Trajectory or None
        Nodes computed before the first non-finite state.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class DimensionMismatchError(DmlNeuroError):
    """Initial state and vector-field dimensions disagree."""


class GridMemoryError(DmlNeuroError):
    """A grid cannot be allocated: the solver's times and states, a sweep's
    orders or a Hopf curve's currents."""


class ConvergenceError(NumericalError):
    """A series or iteration exhausted its budget before converging."""


class InsufficientSamplesError(DmlNeuroError):
    """Not enough samples for the requested tail/discard analysis."""


@contextmanager
def _grid_allocation(count: int, what: str):
    """Allocate a grid of ``count`` ``what`` in the ``with`` block: the error
    for an array too large to allocate (``MemoryError``) or to index
    (``ValueError`` from numpy, ``OverflowError`` from ``array``) becomes a
    :class:`GridMemoryError` naming the count.  The block should only
    allocate."""
    try:
        yield
    except (MemoryError, OverflowError, ValueError):
        raise GridMemoryError(f"the grid of {count} {what} does not fit in memory") from None
