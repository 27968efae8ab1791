"""Experiment orchestration: long runs and continuation sweeps.

The simulation protocol follows the reference setup: integrate on a uniform
grid and judge convergence or sustained oscillation from the peak-to-peak
spread of the voltage over a tail window.  A library run keeps its whole
trajectory; a run whose rows are handed out as they come, as each order of
a sweep and the command line's run are, keeps only its tail, so their
memory does not grow with the run's length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import InsufficientSamplesError, NonFiniteStateError, _grid_allocation
from .fde import Trajectory, solve_fde
from .models import DEFAULT_TAIL, CouplingSpec, DmlParams, SolverConfig, check_order

# peak-to-peak voltage spread below which a tail counts as converged, at or
# above which it counts as oscillating
AMPLITUDE_TOL = 1e-4

DEFAULT_Y0_SINGLE = (0.1, 0.1)
DEFAULT_Y0_DIMER = (0.1, 0.1, -0.2, 0.1)


@dataclass(frozen=True)
class SimulationSummary:
    """One long run: the trajectory, or only its tail window for a run
    whose rows were handed out, plus tail-window diagnostics.

    ``tail_amplitude_x`` is the largest peak-to-peak voltage spread over the
    tail window (across both neurons for a pair); ``excitatory_ok`` reports
    whether the sigmoid reversal potential stayed above every visited
    voltage (None for other models).
    """

    trajectory: Trajectory
    tail_amplitude_x: float
    converged: bool
    excitatory_ok: Optional[bool] = None


@dataclass(frozen=True)
class BifurcationScan:
    """Continuation sweep over the fractional order.

    ``tail_samples[k]`` holds the last W voltage samples (one column per
    neuron) at ``beta_values[k]``; ``final_states[k]`` is the state that
    order ended in and the next one starts from, its last finite state if
    it blew up; failed cells are NaN-filled and flagged.  The scan is all a
    sweep keeps: O(W) floats per order, whatever the run's length.
    """

    beta_values: np.ndarray
    tail_samples: np.ndarray  # shape (n_beta, W, n_voltage)
    final_states: np.ndarray
    failed: np.ndarray


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
    tail: int = DEFAULT_TAIL,
    *,
    _on_rows=None,
) -> SimulationSummary:
    """Integrate one model instance and summarize its last ``tail`` samples.

    With ``_on_rows``, :func:`solve_fde` hands each piece of rows to it, in
    order, and the run keeps from them only its last ``tail`` rows and its
    highest voltage: ``summary.trajectory`` is then the tail window, and
    the summary's other fields are those of a run that kept every row.  A
    :class:`NonFiniteStateError` then carries the last ``tail`` finite rows.
    """
    y0 = _resolve_y0(y0, coupling.dim)
    n_samples = config.n_steps + 1
    if tail < 1:
        raise ValueError(f"tail must be >= 1, got {tail}")
    if tail > n_samples:
        raise InsufficientSamplesError(f"tail ({tail}) exceeds the {n_samples} grid samples")
    if _on_rows is None:
        traj = solve_fde(coupling.field, beta, config, y0, p)
        top = traj.states[:, ::2].max()
    else:
        traj, top = _streamed(coupling, beta, config, y0, p, tail, _on_rows)
    tail_block = traj.states[-tail:, ::2]
    amplitude = float((tail_block.max(axis=0) - tail_block.min(axis=0)).max())
    excitatory = None
    if coupling.v_s is not None:
        excitatory = bool(coupling.v_s > top)
    return SimulationSummary(
        trajectory=traj,
        tail_amplitude_x=amplitude,
        converged=amplitude < AMPLITUDE_TOL,
        excitatory_ok=excitatory,
    )


def _streamed(coupling, beta, config, y0, p, tail, on_rows):
    """Solve, handing each piece of rows to ``on_rows``: the last ``tail``
    rows as a trajectory, and the highest voltage.  A blow-up is raised
    again carrying the last ``tail`` finite rows, not only those of the
    solver's last piece, which may be none."""
    kept, top = [], -math.inf  # copies of the pieces' last rows, oldest first

    def keep(times, states):
        nonlocal top
        top = max(top, states[:, ::2].max())
        kept.append((times[-tail:].copy(), states[-tail:].copy()))
        while sum(len(t) for t, _ in kept[1:]) >= tail:
            del kept[0]
        on_rows(times, states)

    def tail_window():
        return Trajectory(*(np.concatenate(rows)[-tail:] for rows in zip(*kept)))

    try:
        solve_fde(coupling.field, beta, config, y0, p, _on_rows=keep)
    except NonFiniteStateError as err:
        # y0 is finite, so at least row 0 was handed over
        err.trajectory = tail_window()
        raise
    return tail_window(), top


def _beta_grid(beta_range, beta_step):
    # honors the step exactly; the last node may stop short of the far end
    # when the range is not an integral multiple of the step
    lo, hi = float(min(beta_range)), float(max(beta_range))
    check_order(lo)
    check_order(hi)
    if lo == hi:
        return np.array([hi])
    if not beta_step > 0.0:
        raise ValueError("beta_step must be positive")
    if beta_step == math.inf:
        raise ValueError(f"beta_step must be positive and finite, got {beta_step!r}")
    steps = (hi - lo) / beta_step
    if not math.isfinite(steps):
        raise ValueError(f"the order count (range / beta_step) must be finite, got {steps!r}")
    n = int(math.floor(steps + 1e-9))
    with _grid_allocation(n + 1, "orders"):
        return hi - beta_step * np.arange(n + 1)


def bifurcation_sweep(
    p: DmlParams,
    coupling: CouplingSpec,
    beta_range,
    beta_step: float,
    config: SolverConfig,
    y0=None,
    tail_window: int = DEFAULT_TAIL,
) -> BifurcationScan:
    """Continuation sweep over the fractional order at the current ``p.I``.

    Runs descend from the top of the range, each warm-started from the
    previous run's final state, and run by :func:`run_experiment`, which
    hands each order's rows out as they come and keeps only its tail window:
    a sweep's memory does not grow with the run's length.  A run that blows
    up leaves a NaN-filled, flagged cell and the sweep continues from that
    order's last finite state.  An order grid of more orders than can be
    allocated is a :class:`GridMemoryError`, raised before the first solve.
    """
    current = _resolve_y0(y0, coupling.dim)
    betas = _beta_grid(beta_range, beta_step)
    tails, finals = [], []
    failed = np.zeros(betas.size, dtype=bool)
    for k, beta in enumerate(betas):
        try:
            run = run_experiment(p, coupling, beta, config, current, tail=tail_window,
                                 _on_rows=lambda times, states: None)
        except NonFiniteStateError as err:
            failed[k] = True
            tails.append(np.full((tail_window, coupling.dim // 2), np.nan))
            current = err.trajectory.states[-1]
        else:
            tails.append(run.trajectory.states[:, ::2])
            current = run.trajectory.states[-1]
        finals.append(current)
    return BifurcationScan(
        beta_values=betas,
        tail_samples=np.array(tails),
        final_states=np.array(finals),
        failed=failed,
    )
