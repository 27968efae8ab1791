"""Equilibrium structure: the current-voltage curve, its extrema, and roots.

Equilibria of the single cell sit where the stimulation current ``I`` equals
the curve ``i_infinity(x)``.  Between the curve's local maximum and minimum
the cell has three equilibria, exactly at the extrema it has two (a fold),
and outside that current band it has one.  The symmetric equilibria of the
coupled models reduce to the same scalar equation, shifted by the coupling
current of a cell with itself as partner; one solver serves all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .exceptions import NoExtremaError, RootWindowExhaustedError
from .models import CouplingSpec, DmlParams, NoCoupling, _exp

DEFAULT_WINDOW = (-1.5, 1.5)
FOLD_TOL = 1e-12  # absolute tolerance on I for the two-equilibrium fold branch
_SCAN_STEP = 1e-3


class Branch(Enum):
    UNIQUE = "unique"
    TWOFOLD = "twofold"
    THREEFOLD = "threefold"


_BRANCH_BY_COUNT = {1: Branch.UNIQUE, 2: Branch.TWOFOLD, 3: Branch.THREEFOLD}


@dataclass(frozen=True)
class InfCurveExtrema:
    """Local maximum and minimum of the current-voltage curve."""

    x_max: float
    I_max: float
    x_min: float
    I_min: float


@dataclass(frozen=True)
class EquilibriumSet:
    """Equilibrium points, ascending in x, with their branch label."""

    points: np.ndarray  # shape (k, 2), rows (x_star, y_star)
    branch: Branch


def i_infinity(x: float, p: DmlParams) -> float:
    """Stimulation current that places a single-cell equilibrium at voltage x."""
    return (p.A / p.gamma) * _exp(p.alpha * x) - x * x * (1.0 - x)


def i_infinity_derivative(x: float, p: DmlParams, m: int = 1) -> float:
    """m-th derivative of :func:`i_infinity` with respect to x."""
    if m < 1:
        raise ValueError("derivative order m must be >= 1")
    expo = (p.alpha ** m) * (p.A / p.gamma) * _exp(p.alpha * x)
    if m == 1:
        return expo - x * (2.0 - 3.0 * x)
    if m == 2:
        return expo - 2.0 * (1.0 - 3.0 * x)
    if m == 3:
        return expo + 6.0
    return expo


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


def _scan_brackets(f, lo, hi, step):
    """Sign-change brackets ``(a, b, f(a), f(b))`` of f on [lo, hi].

    ``f`` is evaluated once, on the whole grid of the given step; a grid
    point where it vanishes gives the degenerate bracket ``(x, x, 0, 0)``.
    """
    xs = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    vals = f(xs)
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


def find_extrema(p: DmlParams) -> InfCurveExtrema:
    """Locate the local maximum and minimum of the current-voltage curve.

    The first derivative is strictly convex here (its own second derivative
    is positive everywhere), so it has at most two roots.  They are the
    extrema of g for the single cell, found by the same sign scan and
    bracketed solve as every symmetric equilibrium search.  Raises
    :class:`NoExtremaError` when the scan sees no sign change (e.g. the
    recovery amplitude is too large for the curve to fold).
    """
    roots = _g_extrema(p, NoCoupling())
    if len(roots) < 2:
        raise NoExtremaError(
            "no interior extrema of the current-voltage curve on the scan window"
        )
    x_max, x_min = roots[0], roots[1]
    return InfCurveExtrema(
        x_max=x_max,
        I_max=i_infinity(x_max, p),
        x_min=x_min,
        I_min=i_infinity(x_min, p),
    )


def classify_branch(I: float, extrema: InfCurveExtrema) -> Branch:
    """Branch of the equilibrium count for a stimulation current ``I``."""
    if abs(I - extrema.I_min) <= FOLD_TOL or abs(I - extrema.I_max) <= FOLD_TOL:
        return Branch.TWOFOLD
    if extrema.I_min < I < extrema.I_max:
        return Branch.THREEFOLD
    return Branch.UNIQUE


def find_symmetric_equilibria(
    p: DmlParams, coupling: CouplingSpec = NoCoupling()
) -> EquilibriumSet:
    """Equilibria of the single cell, or symmetric equilibria (x*, y*, x*, y*)
    of a coupled pair given as (x*, y*).

    The voltages solve g(x) = I - i_infinity(x) + current(x, x) = 0, with
    the coupling's own synaptic current; the linear current vanishes there,
    so a linear pair shares the single cell's equilibria for any theta.
    The search runs in two stages.  The first finds the extrema of g by a
    sign scan of g', which does not depend on I, so a sweep over currents
    runs it once.  The second works at the given current: the extrema split
    the window into pieces on which g is monotone, so each piece holds at
    most one root, and a piece whose ends differ in sign brackets it.  Each
    bracket is solved by Illinois regula falsi to a width of ~1e-14, about
    ten evaluations of g per root.  An extremum where
    ``|g| <= FOLD_TOL`` is a tangency root (a fold, which a sign scan cannot
    see).  If no root lands in the window its outer pieces are widened once
    before :class:`RootWindowExhaustedError` is raised.
    """
    return _equilibria_at(p, coupling, _g_extrema(p, coupling))


def _g_extrema(p: DmlParams, coupling: CouplingSpec) -> list:
    """Stage one: the voltages of the extrema of g, the same for every I."""
    # g' reads A, alpha, gamma and the coupling, never I
    partials = coupling.partials

    def gprime(x):
        d_self, d_other = partials(x, x)
        return -i_infinity_derivative(x, p, 1) + (d_self + d_other)

    extrema = []
    for a, b, fa, fb in _scan_brackets(gprime, *DEFAULT_WINDOW, _SCAN_STEP):
        x = _refine_root(gprime, a, b, fa, fb)
        if not extrema or x - extrema[-1] > 1e-9:
            extrema.append(x)
    return extrema


def _equilibria_at(p: DmlParams, coupling: CouplingSpec, extrema) -> EquilibriumSet:
    """Stage two: the roots of g at ``p.I``, given the extrema of g."""
    current = coupling.current

    def g(x):
        return p.I - i_infinity(x, p) + current(x, x)

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
    return EquilibriumSet(points=pts, branch=_BRANCH_BY_COUNT[len(xs)])
