"""Exception hierarchy shared across the package."""


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
