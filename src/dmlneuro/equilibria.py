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

from .exceptions import ConvergenceError
from .models import _EXP_MAX, CouplingSpec, DmlParams, NoCoupling, _exp

DEFAULT_WINDOW = (-1.5, 1.5)
FOLD_TOL = 1e-12  # absolute tolerance on I for the two-equilibrium fold branch
_SCAN_STEP = 1e-3
_XTOL = 1e-14  # the widest bracket a root solve returns


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


def _refine_root(f: Callable, lo: float, hi: float, flo: float, fhi: float) -> float:
    """Root of f in [lo, hi] by Chandrupatla's method: an exact zero, or the
    end with the smaller |f| of a bracket 1e-14 wide at most or of adjacent
    floats.  The end values are the scan's, and a zero one is the root.

    A step takes the inverse quadratic through the bracket and the point it
    last dropped where that is monotone, else the midpoint, 5e-15 inside the
    bracket and as near the midpoint as ITP (Oliveira & Takahashi, ACM TOMS
    47(1), 2020) needs for at most four steps beyond bisection's count.  An
    infinite value is a sign; a NaN, or a bracket too wide for that count
    (1.8e294), raises :class:`ConvergenceError`."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    # signs are compared, never multiplied: a product can under- or overflow
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError("root not bracketed")
    # a is the newest point, b the bracket's other end, c the point dropped;
    # each step leaves a bracket at most `most` wide, halved per step down
    # to _XTOL (conditionals, not min and max: they cost a third of a step)
    a, fa, b, fb = lo, flo, hi, fhi
    span = (hi - lo) / _XTOL
    if span == math.inf:
        raise ConvergenceError(f"the bracket [{lo!r}, {hi!r}] is too wide to solve")
    t, most = 0.5, math.ldexp(_XTOL, math.ceil(math.log2(span)) + 3)
    while True:
        width, mid = abs(b - a), 0.5 * (a + b)
        if width <= _XTOL or mid == a or mid == b:
            return a if abs(fa) < abs(fb) else b
        edge, r = 0.5 * _XTOL / width, most - 0.5 * width
        x = a + (edge if t < edge else 1.0 - edge if t > 1.0 - edge else t) * (b - a)
        if not abs(x - mid) <= r:
            x = mid + (r if x > mid else -r) if r > 0.0 else mid
        fx, most = f(x), 0.5 * most
        if fx == 0.0:
            return x
        if math.isnan(fx):
            raise ConvergenceError(f"f is NaN at x={x!r} in the bracket [{lo!r}, {hi!r}]")
        if (fx < 0.0) != (fa < 0.0):
            a, fa, b, fb = b, fb, a, fa
        a, fa, c, fc = x, fx, a, fa
        xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
        if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
        else:
            t = 0.5


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
    signs = np.sign(vals)  # compared, not multiplied: a product can overflow
    zero = signs == 0.0
    hits = np.flatnonzero(zero[:-1] | (signs[:-1] * signs[1:] < 0.0)).tolist()
    if zero[-1]:
        hits.append(xs.size - 1)
    return [(float(xs[i]), float(xs[i]), 0.0, 0.0) if zero[i]
            else (float(xs[i]), float(xs[i + 1]), float(vals[i]), float(vals[i + 1]))
            for i in hits]


def find_symmetric_equilibria(
    p: DmlParams, coupling: CouplingSpec = NoCoupling()
) -> EquilibriumSet:
    """Equilibria of the single cell, or symmetric equilibria (x*, y*, x*, y*)
    of a coupled pair given as (x*, y*).

    The voltages solve g(x) = I - i_infinity(x) + current(x, x) = 0, with
    the coupling's own synaptic current; the linear current vanishes there,
    so a linear pair shares the single cell's equilibria for any theta.
    The search runs in two stages.  The first finds the extrema of g by a
    sign scan of g' on the scan window, 4.0 evaluations of g' per 1e-3-wide
    bracket (cell, and sigmoid pair at sigma = 1e-3).  It does not depend on
    I, so a sweep over currents runs it once.  The second works at the given
    current: closed-form voltages from the coupling's ``current_bound``
    bound every root, and the extrema split that window into pieces on
    which g is taken as monotone (the outer ones too, past the scan
    window), so a piece whose ends differ in sign brackets its one root, at
    7.8 evaluations of g per root over currents in [-0.005, 0.025] (7.76
    cell, 7.84 that pair).  An extremum where ``|g| <= FOLD_TOL`` is a
    tangency root (a fold, which a sign scan cannot see).  Ends without
    their signs, a NaN g or a bracket too wide to solve, as at a current
    near 1e307, raise :class:`ConvergenceError` naming I.
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
    with np.errstate(over="ignore"):  # where the product overflows, -inf is the slope's limit
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

    # g > 0 below lo and g < 0 above hi, B the current_bound: on x <= 0,
    # e^(alpha x) <= 1, x^2 (1 - x) >= x^2 and the current >= min(B, 0); on
    # x >= 0, x^2 (1 - x) <= 4/27, and <= -top past 1 + top, and the
    # current <= max(B, 0); lo is never -0.0
    bound = coupling.current_bound
    top = I + max(bound, 0.0) + 4.0 / 27.0
    lo = 0.0 - math.sqrt(max(k - I - min(bound, 0.0), 0.0))
    hi = min(1.0 + top, math.log(top / k) / alpha) if top > k else 0.0
    xs = [lo, *(x for x in extrema if lo < x < hi), hi]
    gs = [g(lo), *(0.0 if abs(v) <= FOLD_TOL else v for v in map(g, xs[1:-1])), g(hi)]
    try:
        if not gs[0] >= 0.0 >= gs[-1] or any(map(math.isnan, gs)):
            raise ConvergenceError(f"g is NaN or lacks its end signs on [{lo!r}, {hi!r}]")
        roots = [x for x, v in zip(xs, gs) if v == 0.0]
        roots += [_refine_root(g, x0, x1, g0, g1) for x0, x1, g0, g1 in zip(xs, xs[1:], gs, gs[1:])
                  if g0 < 0.0 < g1 or g1 < 0.0 < g0]
    except ConvergenceError as err:
        raise ConvergenceError(f"no equilibrium found for I={I!r}: {err}") from None
    pts = np.array([[x, y_infinity(x, p)] for x in sorted(roots)])
    return EquilibriumSet(points=pts, branch=_BRANCHES[len(roots) - 1])
