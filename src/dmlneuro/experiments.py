"""Experiment orchestration: long runs, continuation sweeps and Hopf curves.

The simulation protocol follows the reference setup: integrate on a uniform
grid, discard an initial transient for phase-portrait output, and judge
convergence or sustained oscillation from the peak-to-peak spread of the
voltage over a tail window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .equilibria import Branch, find_symmetric_equilibria
from .exceptions import InsufficientSamplesError, NonFiniteStateError, NumericalError
from .fde import SolverConfig, Trajectory, check_order, solve_fde
from .models import CouplingSpec, DmlParams, vector_field
from .stability import BetaStarKind, beta_star

DEFAULT_DISCARD = 100_000
DEFAULT_TAIL = 500
# peak-to-peak voltage spread below which a tail counts as converged, at or
# above which it counts as oscillating
AMPLITUDE_TOL = 1e-4

DEFAULT_Y0_SINGLE = (0.1, 0.1)
DEFAULT_Y0_DIMER = (0.1, 0.1, -0.2, 0.1)


@dataclass(frozen=True)
class OscillationMetrics:
    amplitude: float
    is_oscillating: bool
    extrema_count: int


@dataclass(frozen=True)
class SimulationSummary:
    """One long run: the trajectory plus tail-window diagnostics.

    ``tail_amplitude_x`` is the largest peak-to-peak voltage spread over the
    tail window (across both neurons for a pair); ``excitatory_ok`` reports
    whether the sigmoid reversal potential stayed above every visited
    voltage (None for other models).
    """

    trajectory: Trajectory
    tail_amplitude_x: float
    converged: bool
    final_state: np.ndarray
    excitatory_ok: Optional[bool] = None


@dataclass(frozen=True)
class BifurcationScan:
    """Continuation sweep over the fractional order.

    ``tail_samples[k]`` holds the last W voltage samples (one column per
    neuron) at ``beta_values[k]``; ``initial_states``/``final_states`` expose
    the warm-start chain; failed cells are NaN-filled and flagged.
    """

    beta_values: np.ndarray
    tail_samples: np.ndarray  # shape (n_beta, W, n_voltage)
    initial_states: np.ndarray
    final_states: np.ndarray
    failed: np.ndarray
    warm_start: bool


@dataclass(frozen=True)
class HopfCurve:
    """Closed-form Hopf threshold versus stimulation current."""

    I_values: np.ndarray
    beta_star_values: np.ndarray
    coupling_label: str
    omitted: tuple[tuple[float, str], ...] = ()


def oscillation_metrics(tail) -> OscillationMetrics:
    """Peak-to-peak amplitude, oscillation flag and count of interior extrema."""
    tail = np.asarray(tail, dtype=float)
    if tail.ndim != 1 or tail.size < 3:
        raise InsufficientSamplesError("oscillation metrics need at least 3 samples")
    amplitude = float(tail.max() - tail.min())
    signs = np.sign(np.diff(tail))
    signs = signs[signs != 0.0]
    extrema = int(np.count_nonzero(signs[1:] != signs[:-1])) if signs.size else 0
    return OscillationMetrics(amplitude, amplitude > AMPLITUDE_TOL, extrema)


def _resolve_y0(y0, dim):
    if y0 is None:
        y0 = DEFAULT_Y0_SINGLE if dim == 2 else DEFAULT_Y0_DIMER
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (dim,):
        raise ValueError(f"initial state must have {dim} components")
    return y0


def run_experiment(
    p: DmlParams,
    coupling: CouplingSpec,
    beta,
    config: SolverConfig,
    y0=None,
    discard: int = DEFAULT_DISCARD,
    tail: int = DEFAULT_TAIL,
) -> SimulationSummary:
    """Integrate one model instance and summarize its tail behavior."""
    beta = check_order(beta)
    rhs, dim = vector_field(coupling)
    y0 = _resolve_y0(y0, dim)
    n_samples = config.n_steps + 1
    if discard < 0 or tail < 1:
        raise ValueError("discard must be >= 0 and tail >= 1")
    if discard + tail > n_samples:
        raise InsufficientSamplesError(
            f"discard ({discard}) + tail ({tail}) exceeds the {n_samples} grid samples"
        )
    traj = solve_fde(rhs, beta, config, y0, p)
    voltages = traj.states[:, ::2]
    tail_block = voltages[-tail:]
    amplitude = float((tail_block.max(axis=0) - tail_block.min(axis=0)).max())
    excitatory = None
    if coupling.v_s is not None:
        excitatory = bool(coupling.v_s > voltages.max())
    return SimulationSummary(
        trajectory=traj,
        tail_amplitude_x=amplitude,
        converged=amplitude < AMPLITUDE_TOL,
        final_state=traj.states[-1].copy(),
        excitatory_ok=excitatory,
    )


def _beta_grid(beta_range, beta_step, descending=True):
    # honors the step exactly; the last node may stop short of the far end
    # when the range is not an integral multiple of the step
    lo, hi = float(min(beta_range)), float(max(beta_range))
    check_order(lo)
    check_order(hi)
    if lo == hi:
        grid = np.array([hi])
    else:
        if beta_step <= 0.0:
            raise ValueError("beta_step must be positive")
        n = int(math.floor((hi - lo) / beta_step + 1e-9))
        grid = hi - beta_step * np.arange(n + 1)
    return grid if descending else grid[::-1].copy()


def bifurcation_sweep(
    p: DmlParams,
    coupling: CouplingSpec,
    I: float,
    beta_range,
    beta_step: float,
    config: SolverConfig,
    y0=None,
    tail_window: int = DEFAULT_TAIL,
    descending: bool = True,
    warm_start: bool = True,
) -> BifurcationScan:
    """Continuation sweep over the fractional order at fixed current.

    Runs descend from the top of the range by default, each warm-started
    from the previous run's final state.  A run that blows up leaves a
    NaN-filled, flagged cell and the sweep continues from the last finite
    state.
    """
    p = replace(p, I=float(I))
    rhs, dim = vector_field(coupling)
    start = _resolve_y0(y0, dim)
    n_samples = config.n_steps + 1
    if tail_window < 1 or tail_window > n_samples:
        raise InsufficientSamplesError(
            f"tail window {tail_window} does not fit the {n_samples} grid samples"
        )
    betas = _beta_grid(beta_range, beta_step, descending)

    tails = np.empty((betas.size, tail_window, dim // 2))
    initials = np.empty((betas.size, dim))
    finals = np.empty((betas.size, dim))
    failed = np.zeros(betas.size, dtype=bool)

    current = start
    for k, beta in enumerate(betas):
        initials[k] = current
        try:
            traj = solve_fde(rhs, float(beta), config, current, p)
        except NonFiniteStateError as err:
            failed[k] = True
            tails[k] = np.nan
            if err.trajectory is not None and err.trajectory.states.shape[0] > 0:
                current = err.trajectory.states[-1].copy()
            finals[k] = current
            continue
        tails[k] = traj.states[-tail_window:, ::2]
        finals[k] = traj.states[-1]
        if warm_start:
            current = traj.states[-1].copy()
        else:
            current = start
        del traj  # so the next solve does not run beside this one's arrays
    return BifurcationScan(
        beta_values=betas,
        tail_samples=tails,
        initial_states=initials,
        final_states=finals,
        failed=failed,
        warm_start=warm_start,
    )


def hopf_curve(
    p: DmlParams,
    coupling: CouplingSpec,
    I_range,
    n_points: int,
) -> HopfCurve:
    """Trace the Hopf threshold over a band of stimulation currents.

    Entirely closed-form: each sampled current is solved for its equilibrium
    and the critical order evaluated there.  Currents whose equilibrium is
    not on the unique branch, or whose threshold degenerates, are omitted
    with a diagnostic.
    """
    if n_points < 1:
        raise ValueError("n_points must be positive")
    lo, hi = float(I_range[0]), float(I_range[1])
    I_values = np.linspace(lo, hi, n_points)
    kept_I, kept_beta, omitted = [], [], []
    for I in I_values:
        p_at = replace(p, I=float(I))
        try:
            eq = find_symmetric_equilibria(p_at, coupling)
        except NumericalError as err:
            omitted.append((float(I), f"equilibrium search failed: {err}"))
            continue
        if eq.branch is not Branch.UNIQUE:
            omitted.append((float(I), f"equilibrium branch is {eq.branch.value}"))
            continue
        x_star = float(eq.points[0, 0])
        try:
            result = beta_star(x_star, p_at, coupling)
        except NumericalError as err:
            omitted.append((float(I), f"threshold undefined: {err}"))
            continue
        if result.kind is not BetaStarKind.THRESHOLD:
            omitted.append((float(I), result.kind.value))
            continue
        kept_I.append(float(I))
        kept_beta.append(result.value)
    return HopfCurve(
        I_values=np.array(kept_I),
        beta_star_values=np.array(kept_beta),
        coupling_label=coupling.label,
        omitted=tuple(omitted),
    )
