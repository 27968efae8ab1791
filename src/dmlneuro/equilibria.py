"""Equilibrium structure: the current-voltage curve, its critical points,
and roots.

Equilibria of the single cell sit where the stimulation current ``I`` equals
the curve ``i_infinity(x)``.  Between the curve's local maximum and minimum
the cell has three equilibria, exactly at the extrema it has two (a fold),
and outside that current band it has one.  The symmetric equilibria of the
coupled models reduce to the same scalar equation, shifted by the coupling
current of a cell with itself as partner; one solver serves all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .exceptions import RootWindowExhaustedError
from .models import _EXP_MAX, CouplingSpec, DmlParams, NoCoupling, _exp

DEFAULT_WINDOW = (-1.5, 1.5)
FOLD_TOL = 1e-12  # absolute tolerance on I for the two-equilibrium fold branch
_SCAN_STEP = 1e-3


class Branch(Enum):
    UNIQUE = "unique"
    TWOFOLD = "twofold"
    THREEFOLD = "threefold"
    FOURFOLD = "fourfold"
    FIVEFOLD = "fivefold"


_BRANCHES = tuple(Branch)  # the label of k equilibria is _BRANCHES[k - 1]


@dataclass(frozen=True)
class EquilibriumSet:
    """Equilibrium points, ascending in x, with their branch label."""

    points: np.ndarray  # shape (k, 2), rows (x_star, y_star)
    branch: Branch


def i_infinity(x: float, p: DmlParams) -> float:
    """Stimulation current that places a single-cell equilibrium at voltage x."""
    return (p.A / p.gamma) * _exp(p.alpha * x) - x * x * (1.0 - x)


def i_infinity_derivative(x: float, p: DmlParams) -> float:
    """Derivative of :func:`i_infinity` with respect to x."""
    return p.alpha * (p.A / p.gamma) * _exp(p.alpha * x) - x * (2.0 - 3.0 * x)


def y_infinity(x: float, p: DmlParams) -> float:
    """Recovery-variable nullcline value at voltage x."""
    return (p.A / p.gamma) * _exp(p.alpha * x)


def _refine_root(
    f: Callable[[float], float], lo: float, hi: float, flo: float, fhi: float
) -> float:
    """Root of f in [lo, hi] by Illinois regula falsi, to a bracket of ~1e-14.

    The end values come from a scan, so that the bracket this works on is
    the one the scan saw; a zero end value is returned as the root.  Each
    step takes the secant point of the bracket, or its midpoint when that
    point is not strictly inside, and halves the end value that the step
    keeps for the second time running, which makes both ends converge.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    # signs are compared, never multiplied: the product of a near-root value
    # and a halved one can underflow to zero
    lo_negative = flo < 0.0
    if (fhi < 0.0) == lo_negative:
        raise ValueError("root not bracketed")
    kept = 0  # +1 when the last step kept lo, -1 when it kept hi
    for _ in range(200):
        if hi - lo <= 1e-14:
            break
        x = lo - flo * (hi - lo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) != lo_negative:
            hi, fhi = x, fx
            if kept == 1:
                flo *= 0.5
            kept = 1
        else:
            lo, flo = x, fx
            if kept == -1:
                fhi *= 0.5
            kept = -1
    return 0.5 * (lo + hi)


# the fold scan's grid and the cubic's slope x (2 - 3 x) on it, the same for
# every model; read-only, since every scan shares them
_SCAN_GRID = np.linspace(
    *DEFAULT_WINDOW, int(round((DEFAULT_WINDOW[1] - DEFAULT_WINDOW[0]) / _SCAN_STEP)) + 1
)
_SCAN_SLOPE = _SCAN_GRID * (2.0 - 3.0 * _SCAN_GRID)
_SCAN_GRID.flags.writeable = _SCAN_SLOPE.flags.writeable = False


def _sign_brackets(xs, vals):
    """Sign-change brackets ``(a, b, f(a), f(b))`` of a function f whose
    values on the ascending grid ``xs`` are ``vals``; a grid point where it
    vanishes gives the degenerate bracket ``(x, x, 0, 0)``."""
    zero = vals == 0.0
    hits = np.flatnonzero(zero[:-1] | (vals[:-1] * vals[1:] < 0.0)).tolist()
    if zero[-1]:
        hits.append(xs.size - 1)
    out = []
    for i in hits:
        if zero[i]:
            out.append((float(xs[i]), float(xs[i]), 0.0, 0.0))
        else:
            out.append((float(xs[i]), float(xs[i + 1]), float(vals[i]), float(vals[i + 1])))
    return out


def find_symmetric_equilibria(
    p: DmlParams, coupling: CouplingSpec = NoCoupling()
) -> EquilibriumSet:
    """Equilibria of the single cell, or symmetric equilibria (x*, y*, x*, y*)
    of a coupled pair given as (x*, y*).

    The voltages solve g(x) = I - i_infinity(x) + current(x, x) = 0, with
    the coupling's own synaptic current; the linear current vanishes there,
    so a linear pair shares the single cell's equilibria for any theta.
    The search runs in two stages.  The first finds the extrema of g by a
    sign scan of g', about five evaluations of g' per 1e-3-wide scan
    bracket (4.5 for the cell, 5.5 for a sigmoid pair at sigma = 1e-3).  It
    does not depend on I, so a sweep over currents runs it once.  The
    second works at the given current: the extrema split the window into
    pieces on which g is monotone, so each piece holds at most one root,
    and a piece whose ends differ in sign brackets it.  Each bracket is
    solved by Illinois regula falsi to a width of ~1e-14, about 16
    evaluations of g per root (16.1 for the cell and 17.1 for a sigmoid
    pair at sigma = 1e-3, averaged over the roots at currents in
    [-0.005, 0.025]): most roots lie on the outer pieces, whose far ends
    sit where |g| is large.  An extremum where
    ``|g| <= FOLD_TOL`` is a tangency root (a fold, which a sign scan cannot
    see).  If no root lands in the window its outer pieces are widened once
    before :class:`RootWindowExhaustedError` is raised.
    """
    return _equilibria_at(p, coupling, fold_voltages(p, coupling))


def fold_voltages(p: DmlParams, coupling: CouplingSpec = NoCoupling()) -> list:
    """Voltages of the extrema of g on the scan window, ascending, or ``[]``
    when g is monotone there.

    Since g'(x) = -delta_plus(x) / gamma, these are where the plus block's
    determinant vanishes, and ``i_infinity(x, p) - coupling.current(x, x)``
    is the fold current of each.  They do not depend on ``p.I``; this is
    stage one of :func:`find_symmetric_equilibria`, which a sweep over
    currents runs once.
    """
    return _block_zeros(p, coupling, 1.0)


def critical_points(p: DmlParams, coupling: CouplingSpec = NoCoupling()) -> list:
    """Critical points ``(kind, x, I)`` of the symmetric branch on the scan
    window, ascending in x, the fold first at a shared voltage.

    A ``"fold"`` (saddle-node) is a zero of delta_plus, a ``"branch-point"``
    (symmetry breaking, pairs only) one of delta_minus.  On the diagonal
    both depend on x alone, and the symmetric equilibrium at x sits at the
    current ``I = i_infinity(x, p) - coupling.current(x, x)``; ``p.I`` is
    not read.
    """
    kinds = (("fold", 1.0),) if coupling.dim == 2 else (("fold", 1.0), ("branch-point", -1.0))
    points = [
        (kind, x, i_infinity(x, p) - coupling.current(x, x))
        for kind, sign in kinds
        for x in _block_zeros(p, coupling, sign)
    ]
    return sorted(points, key=lambda point: point[1])


def _block_zeros(p: DmlParams, coupling: CouplingSpec, sign: float) -> list:
    """Zeros of the plus (``sign`` 1.0) or minus (-1.0) block determinant on
    the diagonal, ascending: the sign changes of
    -delta/gamma = -i_infinity'(x) + d_self + sign * d_other on a grid of
    the scan window, each refined on its bracket."""
    # reads A, alpha, gamma and the coupling, never I; sign 1.0 leaves
    # d_other exact, so the plus scan is g' bit for bit
    partials = coupling.partials

    def scaled(x):
        d_self, d_other = partials(x, x)
        return -i_infinity_derivative(x, p) + (d_self + sign * d_other)

    # scaled() on the scan grid, in its operations, with the parts that
    # only read the grid taken from _SCAN_GRID and _SCAN_SLOPE
    u = p.alpha * _SCAN_GRID
    # alpha > 0, so u ascends and its last value bounds it: below the
    # overflow threshold, the guard of _exp passes every value
    e = np.exp(u) if u[-1] < _EXP_MAX else _exp(u)
    d_self, d_other = partials(_SCAN_GRID, _SCAN_GRID)
    vals = -(p.alpha * (p.A / p.gamma) * e - _SCAN_SLOPE) + (d_self + sign * d_other)
    zeros = []
    for a, b, fa, fb in _sign_brackets(_SCAN_GRID, vals):
        x = _refine_root(scaled, a, b, fa, fb)
        if not zeros or x - zeros[-1] > 1e-9:
            zeros.append(x)
    return zeros


def _equilibria_at(p: DmlParams, coupling: CouplingSpec, extrema) -> EquilibriumSet:
    """Stage two: the roots of g at ``p.I``, given the extrema of g."""
    current = coupling.current
    I, k, alpha = p.I, p.A / p.gamma, p.alpha

    def g(x):
        # p.I - i_infinity(x, p) + current(x, x), with i_infinity and the
        # overflow guard of _exp written inline, in their operations
        a = alpha * x
        i_inf = k * (math.exp(a) if a < _EXP_MAX else math.inf) - x * x * (1.0 - x)
        return I - i_inf + current(x, x)

    lo, hi = DEFAULT_WINDOW
    g_extrema = [0.0 if abs(v) <= FOLD_TOL else v for v in map(g, extrema)]
    for a, b in ((lo, hi), (2.0 * lo, 2.0 * hi)):
        xs = [a, *extrema, b]
        gs = [g(a), *g_extrema, g(b)]
        roots = [x for x, v in zip(xs, gs) if v == 0.0]
        roots.extend(
            _refine_root(g, x0, x1, g0, g1)
            for x0, x1, g0, g1 in zip(xs, xs[1:], gs, gs[1:])
            if g0 * g1 < 0.0
        )
        if roots:
            return _equilibrium_set(p, roots)
    raise RootWindowExhaustedError(
        f"no equilibrium found for I={p.I} on the widened scan window"
    )


def _equilibrium_set(p: DmlParams, roots) -> EquilibriumSet:
    xs = []
    for r in sorted(roots):
        if not xs or r - xs[-1] > 1e-9:  # an extremum on the window's edge
            xs.append(r)
    pts = np.array([[x, y_infinity(x, p)] for x in xs])
    return EquilibriumSet(points=pts, branch=_BRANCHES[len(xs) - 1])
