"""Vector fields and parameter records for denatured Morris-Lecar neurons.

The single cell pairs a cubic voltage nonlinearity with an exponential
recovery variable.  Two identical cells can be coupled bidirectionally
through the voltage, either by a linear flow or by a sigmoidal (fast
threshold modulation) synapse.

Every coupling record follows one protocol, from which the symmetric
equilibria and the stability blocks are derived:

- ``dim``: the state dimension, 2 for the single cell and 4 for a pair;
- ``current(x_self, x_other)``: the synaptic current a cell at voltage
  ``x_self`` receives from its partner at ``x_other``;
- ``partials(x_self, x_other)``: the two partial derivatives of that
  current, returned as ``(d_self, d_other)``;
- ``v_s``: the synaptic reversal potential, or None for a coupling
  without one;
- ``current_bound``: a B with ``current(x, x)`` at most max(B, 0) for
  x >= 0 and at least min(B, 0) for x <= 0, which bounds the equilibria;
- ``partials_bound`` and ``curvature_bound``: bounds over all x, for
  either sign, on D(x), the sum ``d_self + sign * d_other`` at ``(x, x)``:
  max(D, 0) <= ``partials_bound`` and |D''| <= ``curvature_bound``.  The
  first confines the equilibrium search's fold window, the second bounds
  how far the block's slope departs from its chord on a piece of it;
- ``field``: the model's vector field ``rhs(t, state, p)`` in the
  solver's calling convention, ``p`` a :class:`DmlParams` record: a float
  body that adds the same current inline, takes any sequence of ``dim``
  floats and returns a tuple of ``dim`` floats.  It is the only route to a
  model's field.  The body is written once, as source: the field is the
  function built from it, and the solver splices the same source into its
  step, so a model's solve makes no field call per step.  Any other
  callable runs there in a generated call body, with the same bits.

Both methods take floats or numpy arrays of voltages; the field takes the
floats of one state.  Whatever the coupling, the voltages sit in the even
columns of a state, ``state[::2]``.
"""

from __future__ import annotations

import math
import sys
import textwrap
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple, Union

_EXP_MAX = 709.0  # float64 exp() overflow threshold


def _is_array(u) -> bool:
    # a numpy array can only reach here once numpy is loaded; the package
    # itself loads numpy only for the solver
    np = sys.modules.get("numpy")
    return np is not None and isinstance(u, np.ndarray)


def _exp(u):
    # overflow maps to inf instead of raising, so blow-up detection can see it;
    # scalars take the math path (a float, the solver's case, is tested
    # first) and numpy arrays the numpy one
    if type(u) is float or not _is_array(u):
        return math.exp(u) if u < _EXP_MAX else math.inf
    np = sys.modules["numpy"]
    with np.errstate(over="ignore"):
        return np.where(u < _EXP_MAX, np.exp(u), np.inf)


def _sigmoid(u):
    # sign-split form; never exponentiates a large positive argument
    if type(u) is float or not _is_array(u):
        if u >= 0.0:
            return 1.0 / (1.0 + math.exp(-u))
        eu = math.exp(u)
        return eu / (1.0 + eu)
    np = sys.modules["numpy"]
    e = np.exp(-np.abs(u))
    d = 1.0 + e
    return np.where(u >= 0.0, 1.0 / d, e / d)


def _check_finite(record) -> None:
    for f in fields(record):
        value = getattr(record, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


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
        _check_finite(self)
        if not (self.A > 0.0 and self.alpha > 0.0 and self.gamma > 0.0):
            raise ValueError("A, alpha and gamma must all be positive")
        if not 0.0 < self.A / self.gamma < math.inf:  # every analysis formula reads it
            raise ValueError(f"A / gamma must be positive and finite, got {self.A / self.gamma!r}")


def check_order(order) -> float:
    """Validate a commensurate fractional order and return it as a float.

    Vector orders are rejected outright: every component of a system carries
    the same scalar order here.
    """
    if getattr(order, "ndim", 0) != 0 or isinstance(order, (list, tuple)):
        raise TypeError(
            "commensurate systems take one scalar order; per-component "
            "order vectors are not supported"
        )
    beta = float(order)
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"order must lie in (0, 1], got {beta}")
    return beta


@dataclass(frozen=True)
class SolverConfig:
    """Uniform-grid solver settings.

    The grid runs from ``t_start`` to ``t_end`` with the fixed step size
    ``h``.
    """

    t_start: float = 0.0
    t_end: float = 6000.0
    h: float = 0.01

    def __post_init__(self):
        for name in ("t_start", "t_end", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.h <= 0.0:
            raise ValueError("step size h must be positive")
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")
        steps = (self.t_end - self.t_start) / self.h
        if not math.isfinite(steps):
            raise ValueError(f"the step count (t_end - t_start) / h must be finite, got {steps!r}")
        if steps < 1.0:
            raise ValueError("grid must contain at least one step")

    @property
    def n_steps(self) -> int:
        return int(math.floor((self.t_end - self.t_start) / self.h + 1e-9))


DEFAULT_TAIL = 500  # samples in a long run's tail window


@dataclass(frozen=True)
class NoCoupling:
    """Single isolated cell."""

    dim = 2
    value = current_bound = partials_bound = curvature_bound = 0.0
    v_s = None

    def current(self, x_self, x_other):
        return 0.0

    def partials(self, x_self, x_other):
        return 0.0, 0.0

    @property
    def field(self):
        return Field(_cell)


@dataclass(frozen=True)
class LinearCoupling:
    """Bidirectional linear voltage flow of strength ``theta``."""

    theta: float
    dim = 4
    v_s = None
    current_bound = 0.0  # the current vanishes on the diagonal
    partials_bound = curvature_bound = 0.0  # D is 0 or -2 theta

    def __post_init__(self):
        _check_finite(self)
        if not self.theta > 0.0:
            raise ValueError("theta must be positive for a coupled model")

    @property
    def value(self) -> float:
        return self.theta

    def current(self, x_self, x_other):
        return self.theta * (x_other - x_self)

    def partials(self, x_self, x_other):
        return -self.theta, self.theta

    @property
    def field(self):
        return Field(_linear_pair, self.theta)


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
        _check_finite(self)
        if not self.sigma >= 0.0:
            raise ValueError("sigma must be nonnegative")
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")

    @property
    def value(self) -> float:
        return self.sigma

    @property
    def current_bound(self) -> float:
        # the opening lies in (0, 1], and v_s - x is <= v_s on x >= 0, >= v_s on x <= 0
        return self.sigma * self.v_s

    # on the diagonal, with z the opening at u = lam (x - q), D is
    # sigma (-z + sign (v_s - x) lam z'(u)) and D'' is
    # sigma lam^2 z''(u) (-1 - 2 sign) + sign sigma (v_s - x) lam^3 z'''(u),
    # where v_s - x = (v_s - q) - u / lam; over all u, |z'| <= 1/4,
    # |u z'| <= 0.224, |z''| <= 1 / (6 sqrt 3), |z'''| <= 1/8 and
    # |u z'''| <= 0.10296

    @property
    def partials_bound(self) -> float:
        # plus 4x D's rounding at a subnormal sigma, lam / 4 + 3 steps; a normal sigma absorbs it
        return (self.sigma * (self.lam * abs(self.v_s - self.q) + 1.0) / 4.0
                + (self.lam + 12.0) * 5e-324)

    @property
    def curvature_bound(self) -> float:
        lam = self.lam
        return self.sigma * (lam * lam / (2.0 * math.sqrt(3.0)) + 0.103 * lam * lam
                             + lam * lam * lam * abs(self.v_s - self.q) / 8.0)

    def current(self, x_self, x_other):
        return self.sigma * (self.v_s - x_self) * _sigmoid(self.lam * (x_other - self.q))

    def partials(self, x_self, x_other):
        z = _sigmoid(self.lam * (x_other - self.q))
        return -self.sigma * z, self.sigma * (self.v_s - x_self) * (self.lam * z * (1.0 - z))

    @property
    def field(self):
        return Field(_sigmoid_pair, self.sigma, self.v_s, self.lam, self.q)


CouplingSpec = Union[NoCoupling, LinearCoupling, SigmoidCoupling]


# The fields are straight-line float bodies, written once each as source.
# A body writes the cell kinetics, the exponential's overflow guard and its
# coupling current inline, in the operation order of ``_exp``, ``_sigmoid``
# and ``current``, so a field value is bitwise the sum of those pieces at a
# fraction of the calls.  It reads its state's floats by the names ``state``,
# the parameters by their field names in ``DmlParams`` and the coupling, and
# ``exp``, ``inf`` and ``_EXP_MAX``; it leaves its output in the names
# ``out``.  ``_define`` builds the callable from it, and the solver splices
# the same text into its generated step.


class Body(NamedTuple):
    """A field body: ``source`` reads the names ``state`` and leaves the
    field's floats in the names ``out``."""

    state: tuple
    source: str
    out: tuple


_CELL = Body(("x", "y"), """\
a = alpha * x
dx = x * x * (1.0 - x) - y + I
dy = A * (exp(a) if a < _EXP_MAX else inf) - gamma * y
""", ("dx", "dy"))

_LINEAR_PAIR = Body(("x1", "y1", "x2", "y2"), """\
a1, a2 = alpha * x1, alpha * x2
dx1 = x1 * x1 * (1.0 - x1) - y1 + I + theta * (x2 - x1)
dy1 = A * (exp(a1) if a1 < _EXP_MAX else inf) - gamma * y1
dx2 = x2 * x2 * (1.0 - x2) - y2 + I + theta * (x1 - x2)
dy2 = A * (exp(a2) if a2 < _EXP_MAX else inf) - gamma * y2
""", ("dx1", "dy1", "dx2", "dy2"))

_SIGMOID_PAIR = Body(("x1", "y1", "x2", "y2"), """\
a1, a2 = alpha * x1, alpha * x2
# each cell's synapse opens with its partner's voltage
u1, u2 = lam * (x2 - q), lam * (x1 - q)
if u1 >= 0.0:
    s1 = 1.0 / (1.0 + exp(-u1))
else:
    e = exp(u1)
    s1 = e / (1.0 + e)
if u2 >= 0.0:
    s2 = 1.0 / (1.0 + exp(-u2))
else:
    e = exp(u2)
    s2 = e / (1.0 + e)
dx1 = x1 * x1 * (1.0 - x1) - y1 + I + sigma * (v_s - x1) * s1
dy1 = A * (exp(a1) if a1 < _EXP_MAX else inf) - gamma * y1
dx2 = x2 * x2 * (1.0 - x2) - y2 + I + sigma * (v_s - x2) * s2
dy2 = A * (exp(a2) if a2 < _EXP_MAX else inf) - gamma * y2
""", ("dx1", "dy1", "dx2", "dy2"))

# what a body reads besides its state and parameters
_BODY_SCOPE = {"exp": math.exp, "inf": math.inf, "_EXP_MAX": _EXP_MAX}
_PARAMS = tuple(f.name for f in fields(DmlParams))


def _define(name: str, constants: tuple, body: Body):
    """The module function ``name(*constants, t, state, p)`` that runs
    ``body``; it keeps ``constants`` and ``body`` for :meth:`Field.splice`.
    Its name is its module attribute, so it pickles by reference."""
    source = (
        f"def {name}({''.join(c + ', ' for c in constants)}t, state, p):\n"
        f"    {', '.join(body.state)} = state\n"
        f"    {', '.join(_PARAMS)} = {', '.join('p.' + n for n in _PARAMS)}\n"
        + textwrap.indent(body.source, "    ")
        + f"    return {', '.join(body.out)}\n"
    )
    scope = dict(_BODY_SCOPE, __name__=__name__)
    exec(source, scope)
    function = scope[name]
    function.constants, function.body = constants, body
    return function


_cell = _define("_cell", (), _CELL)
_linear_pair = _define("_linear_pair", ("theta",), _LINEAR_PAIR)
_sigmoid_pair = _define("_sigmoid_pair", ("sigma", "v_s", "lam", "q"), _SIGMOID_PAIR)


class Field(partial):
    """A model's vector field ``field(t, state, p)``: a function built by
    ``_define``, with the coupling's constants bound first.  Parameters are
    bound positionally, as by ``functools.partial``, which builds no keyword
    dict per call and, unlike a closure, pickles.  The solver reads the
    body through ``splice`` and runs it inline in its step; a wrapped field
    has no ``splice`` and runs in a generated call body, with the same bits."""

    def splice(self, params) -> tuple[Body, dict]:
        """The field's body and the value of every name it reads, for the
        parameter record ``params``: the solver runs the body inline."""
        function = self.func
        names = dict(_BODY_SCOPE)
        names.update(zip(function.constants, self.args))
        names.update((n, getattr(params, n)) for n in _PARAMS)
        return function.body, names
