"""Vector fields and parameter records for denatured Morris-Lecar neurons.

The single cell pairs a cubic voltage nonlinearity with an exponential
recovery variable.  Two identical cells can be coupled bidirectionally
through the voltage, either by a linear flow or by a sigmoidal (fast
threshold modulation) synapse.

Every coupling record follows one protocol, from which the field, the
symmetric equilibria and the stability blocks are all derived:

- ``dim``: the state dimension, 2 for the single cell and 4 for a pair;
- ``current(x_self, x_other)``: the synaptic current a cell at voltage
  ``x_self`` receives from its partner at ``x_other``;
- ``partials(x_self, x_other)``: the two partial derivatives of that
  current, returned as ``(d_self, d_other)``;
- ``v_s``: the synaptic reversal potential, or None for a coupling
  without one.

Both methods take floats or numpy arrays of voltages.  Whatever the
coupling, the voltages sit in the even columns of a state, ``state[::2]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

_EXP_MAX = 709.0  # float64 exp() overflow threshold


def _exp(u):
    # overflow maps to inf instead of raising, so blow-up detection can see it;
    # floats take the math path, arrays the numpy one
    if not isinstance(u, np.ndarray):
        return math.exp(u) if u < _EXP_MAX else math.inf
    with np.errstate(over="ignore"):
        return np.where(u < _EXP_MAX, np.exp(u), np.inf)


def _sigmoid(u):
    # sign-split form; never exponentiates a large positive argument
    if not isinstance(u, np.ndarray):
        if u >= 0.0:
            return 1.0 / (1.0 + math.exp(-u))
        eu = math.exp(u)
        return eu / (1.0 + eu)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class DmlParams:
    """Local neuron parameters.

    ``I`` is the external stimulation current (any sign); ``A`` scales the
    recovery drive, ``alpha`` its exponential rate and ``gamma`` its decay.
    """

    I: float = 0.019
    A: float = 0.0041
    alpha: float = 5.276
    gamma: float = 0.3

    def __post_init__(self):
        if self.A <= 0.0 or self.alpha <= 0.0 or self.gamma <= 0.0:
            raise ValueError("A, alpha and gamma must all be positive")


@dataclass(frozen=True)
class NoCoupling:
    """Single isolated cell."""

    dim = 2
    label = "single"
    value = 0.0
    v_s = None

    def current(self, x_self, x_other):
        return 0.0

    def partials(self, x_self, x_other):
        return 0.0, 0.0


@dataclass(frozen=True)
class LinearCoupling:
    """Bidirectional linear voltage flow of strength ``theta``."""

    theta: float
    dim = 4
    v_s = None

    def __post_init__(self):
        if self.theta <= 0.0:
            raise ValueError("theta must be positive for a coupled model")

    @property
    def label(self) -> str:
        return f"linear(theta={self.theta:g})"

    @property
    def value(self) -> float:
        return self.theta

    def current(self, x_self, x_other):
        return self.theta * (x_other - x_self)

    def partials(self, x_self, x_other):
        return -self.theta, self.theta


@dataclass(frozen=True)
class SigmoidCoupling:
    """Fast-threshold-modulation synapse.

    ``sigma`` is the coupling strength, ``v_s`` the reversal potential,
    ``lam`` the sigmoid slope and ``q`` the synaptic threshold.  For an
    excitatory synapse ``v_s`` should stay above every visited voltage;
    this is reported by the experiment layer, not enforced here.
    """

    sigma: float
    v_s: float = 2.0
    lam: float = 10.0
    q: float = -0.25
    dim = 4

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")

    @property
    def label(self) -> str:
        return f"sigmoid(sigma={self.sigma:g})"

    @property
    def value(self) -> float:
        return self.sigma

    def current(self, x_self, x_other):
        return self.sigma * (self.v_s - x_self) * _sigmoid(self.lam * (x_other - self.q))

    def partials(self, x_self, x_other):
        z = _sigmoid(self.lam * (x_other - self.q))
        return -self.sigma * z, self.sigma * (self.v_s - x_self) * (self.lam * z * (1.0 - z))


CouplingSpec = Union[NoCoupling, LinearCoupling, SigmoidCoupling]


def _local(x: float, y: float, p: DmlParams):
    return x * x * (1.0 - x) - y + p.I, p.A * _exp(p.alpha * x) - p.gamma * y


def _field(t, state, p: DmlParams, coupling: CouplingSpec) -> tuple:
    """Local field of each cell plus the current it receives from its partner.

    ``state`` is any sequence of ``dim`` floats (the solver hands a list), and
    the field comes back as a tuple of ``dim`` floats.  A ``(dim, B)`` array
    unpacks the same way, into ``dim`` rows of ``B`` values each.
    """
    if coupling.dim == 2:
        x, y = state
        return _local(x, y, p)
    x1, y1, x2, y2 = state
    dx1, dy1 = _local(x1, y1, p)
    dx2, dy2 = _local(x2, y2, p)
    current = coupling.current
    return dx1 + current(x1, x2), dy1, dx2 + current(x2, x1), dy2


def vector_field(coupling: CouplingSpec):
    """Return ``(rhs, dimension)`` for the model selected by the coupling spec.

    The returned ``rhs(t, y, p)`` matches the solver's calling convention,
    with ``p`` a :class:`DmlParams` record.
    """
    dim = getattr(coupling, "dim", None)
    if dim not in (2, 4):
        raise TypeError(f"unknown coupling spec: {coupling!r}")
    return partial(_field, coupling=coupling), dim
