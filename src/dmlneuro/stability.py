"""Jacobians, trace/determinant indicators, Matignon classification and
fractional Hopf thresholds for the single cell and both coupled pairs.

One rule decides stability (Matignon 1996): an equilibrium of the order-beta
system is asymptotically stable iff every eigenvalue lambda of its Jacobian
has ``|arg lambda| > beta pi / 2``, so its threshold is
``beta* = min 2 |arg lambda| / pi`` over the eigenvalues.  A saddle has a
positive real eigenvalue, of argument 0, and is unstable for every order; a
fold has a zero eigenvalue, whose argument is undefined, and so has no
threshold.

At a symmetric equilibrium every model linearizes into one or two 2x2
blocks of the form ``[[S, -1], [m, -gamma]]`` with
``m = alpha A e^(alpha x*)`` and ``S = s0 + d_self +/- d_other``:
``s0 = x*(2 - 3x*)`` is the cell's own voltage slope and ``d_self``,
``d_other`` are the partial derivatives of the coupling current at
``(x*, x*)``.  A block's two eigenvalues give the rule in closed form, from
its trace ``tau = S - gamma`` and determinant ``delta = -gamma S + m``:
``delta < -DEGENERACY_TOL`` is a saddle, ``|delta| <= DEGENERACY_TOL`` a
fold, and otherwise the block's threshold is
``(2/pi) arccos(tau / (2 sqrt(delta)))``.  :func:`jacobian` gives the dense
matrix at any state, the oracle of these blocks.  :func:`hopf_curve` traces
the threshold over a band of currents.  All of it but :func:`jacobian`,
which returns a numpy array, runs on ``math`` alone.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .equilibria import _BRANCHES, _roots_at, fold_voltages
from .exceptions import DimensionMismatchError, NumericalError, _grid_allocation
from .models import CouplingSpec, DmlParams, NoCoupling, _exp, check_order

DEGENERACY_TOL = 1e-12  # |delta| at or below this is a fold: a zero eigenvalue


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
    """Stability record of an equilibrium: every 2x2 block ``(tau, delta)``,
    plus first, and its Hopf threshold, either a critical order in (0, 1]
    or a constant verdict, with the block that decides it."""

    kind: BetaStarKind
    blocks: tuple[tuple[float, float], ...]
    block: tuple[float, float]
    value: Optional[float] = None


def _recovery_slope(x_star: float, p: DmlParams) -> float:
    return p.alpha * p.A * _exp(p.alpha * x_star)


def jacobian(state, p: DmlParams, coupling: CouplingSpec = NoCoupling()):
    """Dense Jacobian of the field at ``state``, any ``coupling.dim`` values,
    as a numpy array.

    Cell i's voltage row holds ``x_i (2 - 3 x_i) + d_self`` and -1, and
    ``d_other`` in its partner's voltage column, with ``(d_self, d_other) =
    coupling.partials(x_i, x_partner)``; its recovery row holds
    ``alpha A e^(alpha x_i)`` and ``-gamma``.  The field is linear in the
    recovery variables, so only the voltages are read.
    """
    import numpy as np  # the closed-form analysis runs without numpy

    state = np.asarray(state, dtype=float)
    if state.shape != (coupling.dim,):
        raise DimensionMismatchError(f"state must hold {coupling.dim} values, got {state.shape}")
    xs = state[::2].tolist()
    J = np.zeros((coupling.dim, coupling.dim))
    # the single cell is its own partner, through a coupling with no partials
    for i, (x, partner) in enumerate(zip(xs, reversed(xs))):
        d_self, d_other = coupling.partials(x, partner)
        r, c = 2 * i, coupling.dim - 2 - 2 * i
        J[r, r], J[r, r + 1] = x * (2.0 - 3.0 * x) + d_self, -1.0
        J[r + 1, r], J[r + 1, r + 1] = _recovery_slope(x, p), -p.gamma
        J[r, c] += d_other
    return J


def indicators(
    x_star: float, p: DmlParams, coupling: CouplingSpec = NoCoupling()
) -> tuple[tuple[float, float], ...]:
    """The 2x2 stability blocks ``(tau, delta)`` at the symmetric equilibrium
    with voltage ``x_star``: ``((tau_plus, delta_plus),)`` for the cell, and
    the minus block after the plus one for a pair."""
    d_self, d_other = coupling.partials(x_star, x_star)
    s_plus = x_star * (2.0 - 3.0 * x_star) + (d_self + d_other)
    tau_p = s_plus - p.gamma
    delta_p = -p.gamma * s_plus + _recovery_slope(x_star, p)
    if coupling.dim == 2:
        return ((tau_p, delta_p),)
    # S- = S+ - 2 d_other exactly, so the minus block is a shift of the plus one
    return ((tau_p, delta_p), (tau_p - 2.0 * d_other, delta_p + 2.0 * d_other * p.gamma))


def _block_threshold(block) -> float:
    """Least ``2 |arg lambda| / pi`` over the eigenvalues of a block
    ``(tau, delta)`` with ``delta > 0``: ``(2/pi) arccos(tau / (2 sqrt(delta)))``."""
    t, d = block
    return 2.0 * math.acos(max(-1.0, min(1.0, t / (2.0 * math.sqrt(d))))) / math.pi


def _verdict(blocks) -> BetaStarResult:
    """Matignon's rule over the blocks: a saddle block decides first (unstable
    for every order), then a fold block (no threshold), then the first block
    with the least threshold."""
    saddles = [b for b in blocks if b[1] < -DEGENERACY_TOL]
    if saddles:
        return BetaStarResult(BetaStarKind.UNSTABLE_FOR_ALL_ORDERS, blocks, saddles[0])
    folds = [b for b in blocks if b[1] <= DEGENERACY_TOL]
    if folds:
        return BetaStarResult(BetaStarKind.UNDEFINED, blocks, folds[0])
    thresholds = [_block_threshold(b) for b in blocks]
    worst = min(thresholds)
    block = blocks[thresholds.index(worst)]
    if worst <= 0.0:
        return BetaStarResult(BetaStarKind.UNSTABLE_FOR_ALL_ORDERS, blocks, block)
    if worst > 1.0:
        return BetaStarResult(BetaStarKind.STABLE_FOR_ALL_ORDERS, blocks, block)
    return BetaStarResult(BetaStarKind.THRESHOLD, blocks, block, worst)


def classify(result: BetaStarResult, beta) -> Classification:
    """Matignon classification at fractional order ``beta`` of the
    equilibrium whose :func:`beta_star` record is ``result``: a saddle or a
    fold when one decides it, else stable iff ``beta`` lies below beta*."""
    beta = check_order(beta)
    if result.kind is BetaStarKind.UNDEFINED:
        return Classification.SADDLE_NODE_DEGENERATE
    if result.block[1] < 0.0:  # only a saddle block decides with delta < 0
        return Classification.SADDLE
    if result.kind is BetaStarKind.STABLE_FOR_ALL_ORDERS or (
        result.kind is BetaStarKind.THRESHOLD and beta < result.value
    ):
        return Classification.ASYMPTOTICALLY_STABLE
    return Classification.UNSTABLE


def beta_star(
    x_star: float, p: DmlParams, coupling: CouplingSpec = NoCoupling()
) -> BetaStarResult:
    """Critical fractional order of the Hopf bifurcation at the symmetric
    equilibrium with voltage ``x_star``, by Matignon's rule over its blocks.

    It is ``UNSTABLE_FOR_ALL_ORDERS`` at a saddle and ``UNDEFINED`` only at
    a fold.  Otherwise a dimer takes the least of its two block thresholds:
    zero leaves no admissible stable order, while one above one means the
    equilibrium is stable for every order in (0, 1].
    """
    return _verdict(indicators(x_star, p, coupling))


@dataclass(frozen=True)
class HopfCurve:
    """Closed-form Hopf threshold versus stimulation current: the kept
    currents in grid order, their thresholds, and each omitted current with
    its reason."""

    I_values: tuple[float, ...]
    beta_star_values: tuple[float, ...]
    omitted: tuple[tuple[float, str], ...] = ()


def _currents(lo: float, hi: float, n: int) -> array:
    """``np.linspace(lo, hi, n)`` bit for bit, in the operations numpy
    takes.  The whole grid is allocated first, so one too long to allocate
    fails at once."""
    with _grid_allocation(n, "currents"):
        grid = array("d", [0.0]) * n
    div, delta = n - 1, hi - lo
    if div == 0:
        grid[0] = 0.0 * delta + lo
        return grid
    step = delta / div
    for i in range(n):
        # a step that underflows to zero is taken as delta / div late
        grid[i] = (i / div * delta if step == 0.0 else i * step) + lo
    grid[-1] = hi
    return grid


def hopf_curve(
    p: DmlParams,
    coupling: CouplingSpec,
    I_range,
    n_points: int,
) -> HopfCurve:
    """Trace the Hopf threshold over a band of stimulation currents.

    Entirely closed-form.  The currents are ``np.linspace(*I_range,
    n_points)``.  The extrema of the equilibrium equation do not depend on
    the current, so they are found once per curve, by
    :func:`fold_voltages`; stage two of :func:`find_symmetric_equilibria`
    then solves each sampled current, bare, with ``p`` as given, and the
    critical order is evaluated there.  Currents whose equilibrium is not
    on the unique branch, or whose threshold is not a critical order, are
    omitted with the branch or kind.  A band non-finite or wider than the
    floats is a ``ValueError``, and one of more currents than can be
    allocated a :class:`GridMemoryError`, all raised before the fold search.
    """
    if n_points < 1:
        raise ValueError("n_points must be positive")
    lo, hi = float(I_range[0]), float(I_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"I_range must be finite, got {(lo, hi)}")
    if not math.isfinite(hi - lo):  # its grid would start at 0 * inf = nan
        raise ValueError(f"I_range is wider than the floats, got {(lo, hi)}")
    currents = _currents(lo, hi, n_points)
    extrema = fold_voltages(p, coupling)
    kept_I, kept_beta, omitted = [], [], []
    for I in currents:
        try:
            roots = _roots_at(p, coupling, extrema, I)
        except NumericalError as err:
            omitted.append((I, f"equilibrium search failed: {err}"))
            continue
        if len(roots) != 1:
            omitted.append((I, f"equilibrium branch is {_BRANCHES[len(roots) - 1].value}"))
            continue
        result = beta_star(roots[0], p, coupling)  # it reads no p.I
        if result.kind is not BetaStarKind.THRESHOLD:
            omitted.append((I, result.kind.value))
            continue
        kept_I.append(I)
        kept_beta.append(result.value)
    return HopfCurve(I_values=tuple(kept_I), beta_star_values=tuple(kept_beta),
                     omitted=tuple(omitted))
