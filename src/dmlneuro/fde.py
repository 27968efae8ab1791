"""Predictor-corrector solver for commensurate Caputo fractional ODE systems.

The initial value problem is recast as a Volterra integral equation with a
weakly singular power-law kernel, discretized by product integration on a
uniform grid, and stepped with an Adams-Bashforth-Moulton predict-evaluate-
correct-evaluate (PECE) scheme.  The history sums are blocked: history
inside the current block is summed directly, and history older than the
block is folded in by one FFT convolution per block, so a run shorter than
one block is the plain direct sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    NonFiniteStateError,
)

# Block length of the history sums: history older than the current block is
# folded in by FFT once per block, the rest stays direct.
_FFT_BLOCK = 8192


def check_order(order) -> float:
    """Validate a commensurate fractional order and return it as a float.

    Vector orders are rejected outright: every component of a system carries
    the same scalar order here.
    """
    if np.ndim(order) != 0:
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
    ``h``; ``corrector_iterations`` is the number of correct-evaluate passes
    per step (1 gives plain PECE).
    """

    t_start: float = 0.0
    t_end: float = 6000.0
    h: float = 0.01
    corrector_iterations: int = 1

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("step size h must be positive")
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")
        if (self.t_end - self.t_start) / self.h < 1.0:
            raise ValueError("grid must contain at least one step")
        if self.corrector_iterations < 1:
            raise ValueError("corrector_iterations must be at least 1")

    @property
    def n_steps(self) -> int:
        return int(math.floor((self.t_end - self.t_start) / self.h + 1e-9))


@dataclass(frozen=True)
class Trajectory:
    """Solution samples on a uniform grid: ``states[k]`` at ``times[k]``."""

    times: np.ndarray
    states: np.ndarray

    @property
    def h(self) -> float:
        return float(self.times[1] - self.times[0])


def _predictor_kernel(beta: float, kmax: int) -> np.ndarray:
    # lag-k weight of the product-rectangle rule, unscaled
    k = np.arange(kmax + 1, dtype=float)
    return (k + 1.0) ** beta - k ** beta


def _corrector_kernel(beta: float, kmax: int) -> np.ndarray:
    # lag-k weight of the product-trapezoid rule for k >= 1; entry 0 is padding
    if kmax < 1:
        return np.zeros(kmax + 1)
    k = np.arange(1, kmax + 1, dtype=float)
    e = beta + 1.0
    core = (k + 1.0) ** e - 2.0 * k ** e + (k - 1.0) ** e
    return np.concatenate(([0.0], core))


def _corrector_initial(beta: float, n) -> np.ndarray:
    # weight attached to the t_0 sample when stepping from node n to n+1
    n = np.asarray(n, dtype=float)
    return n ** (beta + 1.0) - (n - beta) * (n + 1.0) ** beta


def pi_weights(order, n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Product-integration weights for the step from node ``n`` to ``n+1``.

    Returns ``(predictor, corrector)``.  The predictor weights (length
    ``n+1``, already carrying the ``h**beta / beta`` factor) multiply the
    vector-field samples at nodes ``0..n`` under a ``1/gamma(beta)``
    prefactor.  The corrector weights (length ``n+2``) multiply the samples
    at nodes ``0..n+1`` and are scaled by ``h**beta / gamma(beta+2)`` at the
    point of use.
    """
    beta = check_order(order)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    predictor = (h ** beta / beta) * _predictor_kernel(beta, n)[::-1]
    corrector = np.empty(n + 2)
    corrector[0] = _corrector_initial(beta, n)
    if n >= 1:
        corrector[1 : n + 1] = _corrector_kernel(beta, n)[1:][::-1]
    corrector[n + 1] = 1.0
    return predictor, corrector


def _far_sums(F: np.ndarray, pk: np.ndarray, ck: np.ndarray, m0: int, block: int):
    """FFT fold of all history older than the current block.

    Returns ``(far_b, far_a)`` where ``far_b[r]`` is the predictor history sum
    and ``far_a[r]`` the corrector history sum (including the node-0 term,
    which the caller subtracts) contributed by nodes ``0..m0-1`` to output
    node ``m0 + r``, for ``r`` in ``0..block-1``.

    The transforms run one state column at a time, at the smallest power of
    two that holds ``m0 + block`` points: the circular wrap-around then only
    reaches outputs below ``m0 - 1``, which are never read.
    """
    nfft = 1 << (m0 + block - 1).bit_length()
    # output node m uses predictor lag m-1-j and corrector lag m-j
    bhat = np.fft.rfft(pk[: m0 + block - 1], n=nfft)
    ahat = np.fft.rfft(ck[: m0 + block], n=nfft)
    far_b = np.empty((block, F.shape[1]))
    far_a = np.empty_like(far_b)
    for d in range(F.shape[1]):
        fhat = np.fft.rfft(F[:m0, d], n=nfft)
        far_b[:, d] = np.fft.irfft(fhat * bhat, n=nfft)[m0 - 1 : m0 - 1 + block]
        far_a[:, d] = np.fft.irfft(fhat * ahat, n=nfft)[m0 : m0 + block]
    return far_b, far_a


def solve_fde(
    rhs: Callable,
    order,
    config: SolverConfig,
    y0,
    params=None,
) -> Trajectory:
    """Integrate ``D^beta y = rhs(t, y, params)`` with Caputo memory.

    Each step forms a product-rectangle predictor over the full history,
    evaluates the vector field there, then applies the requested number of
    product-trapezoid corrector passes.  For ``beta == 1`` the scheme reduces
    to the classical one-step Adams-Bashforth-Moulton trapezoidal PECE method.

    Raises :class:`NonFiniteStateError` (carrying the finite part of the
    trajectory) at the first non-finite state, and
    :class:`DimensionMismatchError` when ``rhs`` output and ``y0`` disagree.
    """
    beta = check_order(order)
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if y0.ndim != 1:
        raise DimensionMismatchError("y0 must be a one-dimensional state vector")
    dim = y0.size
    n_steps = config.n_steps
    h = config.h
    times = config.t_start + h * np.arange(n_steps + 1)

    f0 = np.asarray(rhs(times[0], y0, params), dtype=float)
    if f0.shape != (dim,):
        raise DimensionMismatchError(
            f"rhs returned shape {f0.shape}, expected ({dim},)"
        )

    cb = h ** beta / math.gamma(beta + 1.0)
    ca = h ** beta / math.gamma(beta + 2.0)
    pk = _predictor_kernel(beta, n_steps - 1)
    ck = _corrector_kernel(beta, n_steps)
    pk_flip = pk[::-1].copy()
    ck_flip = ck[::-1].copy()
    a0 = _corrector_initial(beta, np.arange(n_steps))

    states = np.empty((n_steps + 1, dim))
    F = np.empty_like(states)
    states[0] = y0
    F[0] = f0

    block = _FFT_BLOCK
    # first nodes of the direct predictor and corrector sums in this block;
    # the corrector's node 0 carries its own weight a0
    q0, j_lo = 0, 1
    far_b = far_a = None

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(n_steps):
            m = n + 1
            t1 = times[m]
            if m % block == 0:
                q0 = j_lo = m
                far_b, far_a = _far_sums(F, pk, ck, m, block)
            sum_b = pk_flip[n_steps - 1 - n + q0 :] @ F[q0:m]
            sum_a = ck_flip[n_steps - 1 - n + j_lo : n_steps] @ F[j_lo:m]
            if far_b is not None:
                r = m - q0
                sum_b = sum_b + far_b[r]
                sum_a = sum_a + far_a[r] - ck[m] * F[0]

            y_pred = y0 + cb * sum_b
            base = y0 + ca * (a0[n] * F[0] + sum_a)
            f_new = np.asarray(rhs(t1, y_pred, params), dtype=float)
            y_new = y_pred
            for _ in range(config.corrector_iterations):
                y_new = base + ca * f_new
                f_new = np.asarray(rhs(t1, y_new, params), dtype=float)

            if not np.isfinite(y_new).all():
                partial = Trajectory(times[: n + 1].copy(), states[: n + 1].copy())
                raise NonFiniteStateError(
                    f"non-finite state at t = {t1:g} (step {m}); "
                    "returning the finite part of the trajectory",
                    trajectory=partial,
                )
            states[m] = y_new
            F[m] = f_new

    return Trajectory(times, states)


def mittag_leffler(order, z: float) -> float:
    """One-parameter Mittag-Leffler function by Kahan-compensated power series.

    Serves as the analytic oracle for the solver on linear test problems.
    The series is evaluated term by term through log-gamma, truncating once a
    term drops below ``1e-16`` of the running sum; arguments are restricted
    to ``|z| <= 50`` where the budget of 10000 terms is meaningful.
    """
    beta = check_order(order)
    z = float(z)
    if abs(z) > 50.0:
        raise ValueError("series evaluation restricted to |z| <= 50")
    if z == 0.0:
        return 1.0
    log_az = math.log(abs(z))
    negative = z < 0.0
    total = 1.0  # k = 0 term
    comp = 0.0
    for k in range(1, 10001):
        log_mag = k * log_az - math.lgamma(beta * k + 1.0)
        if log_mag > 700.0:
            raise ConvergenceError(
                f"Mittag-Leffler series term overflowed at k={k} for z={z}"
            )
        mag = math.exp(log_mag)
        term = -mag if (negative and k % 2 == 1) else mag
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if mag < 1e-16 * abs(total):
            return total
    raise ConvergenceError(
        "Mittag-Leffler series did not meet the truncation criterion "
        "within 10000 terms"
    )
