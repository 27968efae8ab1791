"""Jacobians, trace/determinant indicators, Matignon classification and
fractional Hopf thresholds for the single cell and both coupled pairs.

Every model linearizes, at a (symmetric) equilibrium, into one or two 2x2
blocks of the form ``[[S, -1], [m, -gamma]]`` with ``m = alpha A e^(alpha x*)``
and ``S = s0 + d_self +/- d_other``: ``s0 = x*(2 - 3x*)`` is the cell's own
voltage slope and ``d_self``, ``d_other`` are the partial derivatives of the
coupling current at ``(x*, x*)``.
All stability questions reduce to the block traces ``tau = S - gamma`` and
determinants ``delta = -gamma S + m``: an equilibrium of the order-beta
system is asymptotically stable iff every block satisfies ``delta > 0`` and
``tau < 2 sqrt(delta) cos(beta pi / 2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .fde import check_order
from .models import CouplingSpec, DmlParams, NoCoupling, _exp

DEGENERACY_TOL = 1e-12  # |delta| below this is treated as a fold


class Classification(Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically-stable"
    UNSTABLE = "unstable"
    SADDLE = "saddle"
    SADDLE_NODE_DEGENERATE = "saddle-node-degenerate"


class BetaStarKind(Enum):
    THRESHOLD = "threshold"
    STABLE_FOR_ALL_ORDERS = "stable-for-all-orders"
    UNSTABLE_FOR_ALL_ORDERS = "unstable-for-all-orders"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class BetaStarResult:
    """Hopf threshold: either a critical order in (0, 1] or a constant verdict."""

    kind: BetaStarKind
    value: Optional[float] = None


@dataclass(frozen=True)
class StabilityIndicators:
    """Block traces and determinants; minus branch present only for dimers."""

    tau_plus: float
    delta_plus: float
    tau_minus: Optional[float] = None
    delta_minus: Optional[float] = None

    @property
    def branches(self) -> tuple[tuple[float, float], ...]:
        if self.tau_minus is None:
            return ((self.tau_plus, self.delta_plus),)
        return (
            (self.tau_plus, self.delta_plus),
            (self.tau_minus, self.delta_minus),
        )


def _recovery_slope(x_star: float, p: DmlParams) -> float:
    return p.alpha * p.A * _exp(p.alpha * x_star)


def jacobian(x_star: float, p: DmlParams, coupling: CouplingSpec = NoCoupling()) -> np.ndarray:
    """Jacobian at the (symmetric) equilibrium with voltage ``x_star``.

    2x2 for the single cell; for a coupled pair the 4x4 block form
    ``[[J, C], [C, J]]`` with the coupling matrix C acting on the voltage row.
    """
    d_self, d_other = coupling.partials(x_star, x_star)
    block = np.array(
        [[x_star * (2.0 - 3.0 * x_star) + d_self, -1.0], [_recovery_slope(x_star, p), -p.gamma]]
    )
    if coupling.dim == 2:
        return block
    off = np.array([[d_other, 0.0], [0.0, 0.0]])
    return np.block([[block, off], [off, block]])


def indicators(
    x_star: float, p: DmlParams, coupling: CouplingSpec = NoCoupling()
) -> StabilityIndicators:
    """Trace/determinant indicators of the 2x2 stability blocks."""
    d_self, d_other = coupling.partials(x_star, x_star)
    s_plus = x_star * (2.0 - 3.0 * x_star) + (d_self + d_other)
    tau_p = s_plus - p.gamma
    delta_p = -p.gamma * s_plus + _recovery_slope(x_star, p)
    if coupling.dim == 2:
        return StabilityIndicators(tau_p, delta_p)
    # S- = S+ - 2 d_other exactly, so the minus branch is a shift of the plus one
    return StabilityIndicators(
        tau_p, delta_p, tau_p - 2.0 * d_other, delta_p + 2.0 * d_other * p.gamma
    )


def eigenvalues(
    x_star: float, p: DmlParams, coupling: CouplingSpec = NoCoupling()
) -> np.ndarray:
    """Eigenvalues via the closed-form quadratics of the 2x2 blocks."""
    out = []
    for tau, delta in indicators(x_star, p, coupling).branches:
        disc = complex(tau * tau - 4.0 * delta) ** 0.5
        out.extend([(tau + disc) / 2.0, (tau - disc) / 2.0])
    return np.array(out)


def _threshold(branches) -> float:
    """Least block order ``(2/pi) arccos(tau / (2 sqrt(delta)))``, every
    ``delta > 0``: Matignon's condition holds at ``beta`` iff ``beta`` is below."""
    return min(
        2.0 * math.acos(max(-1.0, min(1.0, t / (2.0 * math.sqrt(d))))) / math.pi
        for t, d in branches
    )


def classify(ind: StabilityIndicators, beta) -> Classification:
    """Matignon classification of an equilibrium at fractional order ``beta``:
    a saddle or a fold by the sign of ``delta``, else stable iff ``beta`` < beta*."""
    beta = check_order(beta)
    branches = ind.branches
    if any(d < -DEGENERACY_TOL for _, d in branches):
        return Classification.SADDLE
    if any(abs(d) <= DEGENERACY_TOL for _, d in branches):
        return Classification.SADDLE_NODE_DEGENERATE
    if beta < _threshold(branches):
        return Classification.ASYMPTOTICALLY_STABLE
    return Classification.UNSTABLE


def beta_star(
    x_star: float, p: DmlParams, coupling: CouplingSpec = NoCoupling()
) -> BetaStarResult:
    """Critical fractional order of the Hopf bifurcation at an equilibrium.

    Per block, the threshold is ``(2/pi) arccos(tau / (2 sqrt(delta)))``; a
    dimer takes the minimum over its two blocks.  It is ``UNDEFINED`` at a
    saddle or a fold (a block ``delta <= DEGENERACY_TOL``).  A minimum of zero
    leaves no admissible stable order, while one above one means the
    equilibrium is stable for every order in (0, 1].
    """
    branches = indicators(x_star, p, coupling).branches
    if any(d <= DEGENERACY_TOL for _, d in branches):
        return BetaStarResult(BetaStarKind.UNDEFINED)
    worst = _threshold(branches)
    if worst <= 0.0:
        return BetaStarResult(BetaStarKind.UNSTABLE_FOR_ALL_ORDERS)
    if worst > 1.0:
        return BetaStarResult(BetaStarKind.STABLE_FOR_ALL_ORDERS)
    return BetaStarResult(BetaStarKind.THRESHOLD, worst)
