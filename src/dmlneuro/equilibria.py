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

from .exceptions import ConvergenceError
from .models import _EXP_MAX, CouplingSpec, DmlParams, NoCoupling, _exp

FOLD_TOL = 1e-12  # absolute tolerance on I for the two-equilibrium fold branch
_XTOL = 1e-14  # the widest bracket a root solve returns
_MAX_SPLITS = 100_000  # the fold search's budget, a third of a second
# relative slack of stage two's closed-form right end, which covers the
# rounding of log, pow and g itself (about 1e-15 each) many times over
_END_SLACK = 1e-13


class Branch(Enum):
    UNIQUE = "unique"
    TWOFOLD = "twofold"
    THREEFOLD = "threefold"
    FOURFOLD = "fourfold"
    FIVEFOLD = "fivefold"


_BRANCHES = tuple(Branch)  # the label of k equilibria is _BRANCHES[k - 1]


@dataclass(frozen=True)
class EquilibriumSet:
    """Equilibrium points ``(x_star, y_star)``, ascending in x, with their
    branch label."""

    points: tuple[tuple[float, float], ...]
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
    floats.  The end values are the caller's, and a zero one is the root.

    A step takes the inverse quadratic through the bracket and the point it
    last dropped where that is monotone, else the midpoint, 5e-15 inside the
    bracket and as near the midpoint as ITP (Oliveira & Takahashi, ACM TOMS
    47(1), 2020) needs for at most four steps beyond bisection's count.  An
    infinite value is a sign, but a bracket that closes on one closes on a
    jump, not a root; that, a NaN, or a bracket too wide for that count
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
            if math.isinf(fa) or math.isinf(fb):
                raise ConvergenceError(f"f jumps to an infinite value near x={a!r} in the "
                                       f"bracket [{lo!r}, {hi!r}]")
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


def find_symmetric_equilibria(
    p: DmlParams, coupling: CouplingSpec = NoCoupling()
) -> EquilibriumSet:
    """Equilibria of the single cell, or symmetric equilibria (x*, y*, x*, y*)
    of a coupled pair given as (x*, y*).

    The voltages solve g(x) = I - i_infinity(x) + current(x, x) = 0, with
    the coupling's own synaptic current; the linear current vanishes there,
    so a linear pair shares the single cell's equilibria for any theta.
    The search runs in two stages.  The first finds every extremum of g, a
    zero of g', with no grid: g' < 0 outside a closed-form window, and the
    coupling's ``partials_bound`` and ``curvature_bound`` bound how far g'
    strays from its chord on a piece of it, so each piece is dropped,
    refined as monotone or halved (17 evaluations of g' for the cell, 18
    for the sigmoid pair at sigma = 1e-3).  It does not depend on I, so a
    sweep over currents runs it once.  The second runs at a bare current,
    ``p.I`` here; a sweep passes each of its currents with one ``p``:
    closed-form voltages from the coupling's ``current_bound`` bound every
    root, and the extrema split that window into pieces on which g is
    monotone by proof (the outer ones too: g' keeps its sign past the
    first and last extremum), so a piece whose ends differ in sign
    brackets its one root, at 7.8
    evaluations of g per root over currents in [-0.005, 0.025] (7.76
    cell, 7.84 that pair).  An extremum where ``|g| <= FOLD_TOL`` is a
    tangency root (a fold, which a sign scan cannot see).  Ends without
    their signs, a NaN g, or a bracket that closes on a jump to an
    infinite value, as past the overflow guard of e^(alpha x) at a current
    near 1e307, raise :class:`ConvergenceError` naming I.
    """
    roots = _roots_at(p, coupling, fold_voltages(p, coupling), p.I)
    return EquilibriumSet(tuple((x, y_infinity(x, p)) for x in roots), _BRANCHES[len(roots) - 1])


def fold_voltages(p: DmlParams, coupling: CouplingSpec = NoCoupling()) -> list:
    """Voltages of the extrema of g over all x, ascending, or ``[]`` when g
    is monotone.

    Since g'(x) = -delta_plus(x) / gamma, these are where the plus block's
    determinant vanishes, and ``i_infinity(x, p) - coupling.current(x, x)``
    is the fold current of each.  They do not depend on ``p.I``; this is
    stage one of :func:`find_symmetric_equilibria`, which a sweep over
    currents runs once.
    """
    return _block_zeros(p, coupling, 1.0)


def critical_points(p: DmlParams, coupling: CouplingSpec = NoCoupling()) -> list:
    """Critical points ``(kind, x, I)`` of the symmetric branch over all x,
    ascending in x, the fold first at a shared voltage.

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
    the diagonal, ascending: the zeros of s(x) = -delta/gamma =
    -i_infinity'(x) + D(x), D = d_self + sign * d_other, found with no grid.

    With k = A / gamma and Dmax the coupling's ``partials_bound``,
    s <= x (2 - 3x) + Dmax - alpha k e^(alpha x), so s < 0 outside the roots
    of x (2 - 3x) + Dmax and wherever alpha k e^(alpha x) passes 1/3 + Dmax,
    the most x (2 - 3x) + Dmax reaches; the rest is the window.  On a piece
    [a, b] of it, w wide, |s''| <= M = 6 + alpha^3 k e^(alpha b) +
    ``curvature_bound``: s strays from its chord by at most M w^2 / 8, so a
    piece whose ends share a sign and clear that holds no zero, and the
    slope of s varies by at most M w, so s is monotone where its ends differ
    by more than M w^2 (and its rounding), and its sign change there, if
    any, is refined by :func:`_refine_root`.  Any other piece is halved,
    until M w^2 / 8 is down to the rounding of s: such a piece is a
    tangency, a zero at its end of smaller |s|.  A NaN s, an infinite M,
    or more than _MAX_SPLITS halvings raise :class:`ConvergenceError`."""
    # reads A, alpha, gamma and the coupling, never I; sign 1.0 leaves
    # d_other exact, so the plus block's s is g' bit for bit
    partials = coupling.partials
    alpha = p.alpha
    scale = alpha * (p.A / p.gamma)

    def s(x):
        # -i_infinity_derivative(x, p) + (d_self + sign * d_other), with
        # the overflow guard of _exp inline, in their operations
        a = alpha * x
        d_self, d_other = partials(x, x)
        return (-(scale * (math.exp(a) if a < _EXP_MAX else math.inf) - x * (2.0 - 3.0 * x))
                + (d_self + sign * d_other))

    # logs one by one, since alpha k can underflow; alpha k e^(alpha x) is
    # at most top on the window, so each M is at most 6 + alpha^2 top + D''
    top, curvature = 1.0 / 3.0 + coupling.partials_bound, coupling.curvature_bound
    root, log_k = math.sqrt(3.0 * top), math.log(p.A / p.gamma)
    lo = (1.0 - root) / 3.0
    hi = min((1.0 + root) / 3.0, (math.log(top) - math.log(alpha) - log_k) / alpha)
    if not lo < hi:
        return []
    if not 6.0 + alpha * (alpha * top) + curvature < math.inf:
        raise ConvergenceError(f"the fold search has no finite bound on s'' on [{lo!r}, {hi!r}]")
    # s's terms near a zero are at most a few top, so it rounds by < noise
    noise = math.ldexp(top, -48)
    zeros, splits, pieces = [], 0, [(lo, hi, s(lo), s(hi))]
    while pieces:
        a, b, sa, sb = pieces.pop()  # the leftmost piece not yet read
        if math.isnan(sa) or math.isnan(sb):
            raise ConvergenceError(f"the block's slope is NaN on [{a!r}, {b!r}]")
        e = alpha * b
        bound = 6.0 + alpha * (alpha * min(scale * (math.exp(e) if e < _EXP_MAX else math.inf),
                                           top)) + curvature
        chord, mid = bound * (b - a) ** 2, 0.5 * (a + b)
        same = (sa < 0.0) == (sb < 0.0) and sa != 0.0 != sb
        if same and min(abs(sa), abs(sb)) > chord / 8.0:
            continue
        if abs(sb - sa) > chord + 2.0 * noise:  # monotone, rounding and all
            if same:
                continue
            x = _refine_root(s, a, b, sa, sb)
        elif chord <= 8.0 * noise or not a < mid < b:  # a tangency, to rounding
            x = a if abs(sa) < abs(sb) else b
        else:
            splits += 1
            if splits > _MAX_SPLITS:
                raise ConvergenceError(f"the fold search halved {_MAX_SPLITS} pieces of "
                                       f"[{lo!r}, {hi!r}], |s''| <= {bound!r}")
            sm = s(mid)
            pieces += [(mid, b, sm, sb), (a, mid, sa, sm)]
            continue
        if not zeros or x - zeros[-1] > 1e-9:
            zeros.append(x)
    return zeros


def _roots_at(p: DmlParams, coupling: CouplingSpec, extrema, I: float) -> list:
    """Stage two: the ascending roots of g at the bare current ``I``, given
    the extrema of g; ``p.I`` is not read."""
    current = coupling.current
    k, alpha = p.A / p.gamma, p.alpha

    def g(x):
        # I - i_infinity(x, p) + current(x, x), with i_infinity and the
        # overflow guard of _exp written inline, in their operations
        a = alpha * x
        i_inf = k * (math.exp(a) if a < _EXP_MAX else math.inf) - x * x * (1.0 - x)
        return I - i_inf + current(x, x)

    # g > 0 below lo and g < 0 above hi, B the current_bound: on x <= 0,
    # e^(alpha x) <= 1, x^2 (1 - x) >= x^2 and the current >= min(B, 0); on
    # x >= 0, x^2 (1 - x) <= 4/27, and < -top past 1 + top and past
    # 1 + top^(1/3), k e^(alpha x) > top past log(top / k) / alpha, and the
    # current <= max(B, 0); lo is never -0.0.  The last two ends move out by
    # _END_SLACK, so that their rounding keeps g(hi) < 0
    bound = coupling.current_bound
    top = I + max(bound, 0.0) + 4.0 / 27.0
    lo = 0.0 - math.sqrt(max(k - I - min(bound, 0.0), 0.0))
    hi = 0.0
    if top > k:
        log = math.log(top / k)
        hi = min(1.0 + top, 1.0 + (1.0 + _END_SLACK) * top ** (1.0 / 3.0),
                 (log + _END_SLACK * (1.0 + log)) / alpha)
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
    return sorted(roots)
