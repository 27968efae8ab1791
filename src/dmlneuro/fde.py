"""Predictor-corrector solver for commensurate Caputo fractional ODE systems.

The initial value problem is recast as a Volterra integral equation with a
weakly singular power-law kernel, discretized by product integration on a
uniform grid, and stepped with an Adams-Bashforth-Moulton predict-evaluate-
correct-evaluate (PECE) scheme.  The history sums follow the nested
splitting of Hairer, Lubich and Schlichte (SIAM J. Sci. Stat. Comput. 6,
1985) used in Garrappa's FDE-PI codes.  The grid falls into blocks of
``_FFT_BLOCK`` nodes, and a node sums the earlier nodes of its own block
directly: a block buffer holds the block's vector-field rows and its far
sums, and one product of a fixed weight row pair with that buffer gives a
node its predictor state and corrector base.  Every other pair of source
and target nodes lies in one square:
at each node m that is an odd multiple of L = _FFT_BLOCK * 2**l, the sources
[m - L, m) are added to the far sums of the targets [m, m + L) by a circular
convolution of size 2L, which cannot wrap; a last square that the grid's
end clips to T < L targets uses L + T points, rounded up to a 5-smooth
length.  A square whose transform length is at most ``_FFT_BATCH`` folds
every column and both sums in one transform pair; a larger one transforms
column by column, which keeps its buffers small.  Each lag range is folded
once, so a run of N steps costs O(N log^2 N).
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

# Length r of the direct history tail: a node sums the earlier nodes of its
# own block of r directly; all older history reaches it through the squares.
_FFT_BLOCK = 64
# Longest transform folded in one batched pair.  Below it the per-call
# overhead dominates; above it the batched buffers would raise peak memory.
_FFT_BATCH = 2**11


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
        for name in ("t_start", "t_end", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        iterations = self.corrector_iterations
        if isinstance(iterations, bool) or not isinstance(iterations, int):
            raise ValueError(f"corrector_iterations must be an integer, got {iterations!r}")
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


def _fft_size(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n, a length the FFT handles fast."""
    odd = (3**b * 5**c for b in range(n.bit_length()) for c in range(n.bit_length()))
    # each odd part times the least power of two that lifts it to n or beyond
    return min(p << (-(-n // p) - 1).bit_length() for p in odd)


def _length_fault(block, f_new, dim, lo, m, times):
    """Where the vector field first returned a sequence of the wrong length
    within a block, or None when it never did."""
    short = [i for i, y in enumerate(block) if len(y) != dim]
    if not short and len(f_new) == dim:
        return None
    at = lo + short[0] if short else m
    return (f"rhs returned a sequence of the wrong length at t = {times[at]:g} "
            f"(step {at}); expected {dim} values")


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

    ``rhs(t, y, params)`` receives ``t`` as a float and ``y`` as a plain list
    of ``dim`` floats, and returns any sequence of ``dim`` floats: a tuple, a
    list or an array.  Each step makes one matrix product: a ``(2, 3r)``
    weight table, r = ``_FFT_BLOCK``, times a ``(3r, dim)`` buffer that holds
    the vector field at the block's nodes (zero until a step writes it) and
    the block's far sums, copied in once per block.  The rest of the step
    runs on Python floats, and the block's states and field rows are stored
    once per block.

    Raises :class:`NonFiniteStateError` (carrying the finite part of the
    trajectory) at the first non-finite state, and
    :class:`DimensionMismatchError` when ``rhs`` output and ``y0`` disagree,
    at node 0 or at any later node.  Both checks run once per block of
    ``_FFT_BLOCK`` steps, so ``rhs`` may be evaluated at non-finite states,
    or at a state cut short by its own short output, before the error is
    raised.  A ``ValueError`` that ``rhs`` raises itself propagates as it is.
    """
    beta = check_order(order)
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if y0.ndim != 1:
        raise DimensionMismatchError("y0 must be a one-dimensional state vector")
    dim = y0.size
    n_steps = config.n_steps
    h = config.h
    t_start = config.t_start
    iterations = config.corrector_iterations
    times = t_start + h * np.arange(n_steps + 1)

    # f_new is also the last output that a failed block's length check reads
    f_new = f0 = np.asarray(rhs(t_start, y0.tolist(), params), dtype=float)
    if f0.shape != (dim,):
        raise DimensionMismatchError(
            f"rhs returned shape {f0.shape}, expected ({dim},)"
        )

    # lag-indexed scaled weights, at least r + 1 long: node j enters the
    # predictor of node m with kb[m - j] and the corrector with ka[m - j]
    r = _FFT_BLOCK
    cb = h ** beta / math.gamma(beta + 1.0)
    ca = h ** beta / math.gamma(beta + 2.0)
    kb = cb * np.concatenate(([0.0], _predictor_kernel(beta, max(n_steps, r) - 1)))
    ka = ca * _corrector_kernel(beta, max(n_steps, r))
    # The block buffer Z holds r rows of the block's F, zero until written,
    # then the block's far rows, two per node.  W[k] turns it into the
    # predictor state and the corrector base of block node k in one product:
    # the kernel weights of the k earlier nodes, oldest first, and ones that
    # pick node k's own far rows.
    W = np.zeros((r, 2, 3 * r))
    for k in range(r):
        W[k, :, :k] = kb[k:0:-1], ka[k:0:-1]
        W[k, (0, 1), (r + 2 * k, r + 2 * k + 1)] = 1.0
    W = list(W)  # views, cheaper to index than the 3-d table
    Z = np.zeros((3 * r, dim))

    # Far sums.  far[m, 0] holds y0 plus the predictor sum over the nodes the
    # squares have folded in so far, until m's block stores its states
    # there: ``states`` is that column.  far[m, 1] does the same for the
    # corrector, starting from node 0's own weight in place of its kernel
    # weight (row 0 is never read).
    far = np.empty((n_steps + 1, 2, dim))
    far[:] = y0
    states = far[:, 0]
    far[1:, 1] += (
        ca * _corrector_initial(beta, np.arange(n_steps)) - ka[1 : n_steps + 1]
    )[:, None] * f0
    F = np.empty((n_steps + 1, dim))
    F[0] = f0
    spectra = {}

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for q0 in range(0, n_steps + 1, r):
            if q0:
                # the square of sources [q0 - L, q0) and targets [q0, q0 + L),
                # L = r * 2**l with q0 an odd multiple of L
                L = r * ((q0 // r) & -(q0 // r))
                hi = min(q0 + L, n_steps + 1)
                # a square clipped to T = hi - q0 < L targets needs only L + T
                # points; a full one's spectra serve the next square of its
                # size, at q0 + 2L, if that one is full too
                n = 2 * L if hi == q0 + L else _fft_size(L + hi - q0)
                batched = n <= _FFT_BATCH
                hat = spectra.pop(L, None)
                if hat is None:
                    hat = (np.fft.rfft(kb[:n], n=n), np.fft.rfft(ka[:n], n=n))
                    if batched:
                        # (n//2 + 1, sum, 1): broadcasts over the columns
                        hat = np.stack(hat, axis=1)[:, :, None]
                if q0 + 3 * L <= n_steps + 1:
                    spectra[L] = hat
                if batched:
                    hat_f = np.fft.rfft(F[q0 - L : q0], n=n, axis=0)
                    far[q0:hi] += np.fft.irfft(hat_f[:, None] * hat, n=n, axis=0)[L : L + hi - q0]
                else:
                    hat_b, hat_a = hat
                    for d in range(dim):
                        hat_f = np.fft.rfft(F[q0 - L : q0, d], n=n)
                        far[q0:hi, 0, d] += np.fft.irfft(hat_f * hat_b, n=n)[L : L + hi - q0]
                        far[q0:hi, 1, d] += np.fft.irfft(hat_f * hat_a, n=n)[L : L + hi - q0]

            lo, stop = max(q0, 1), min(q0 + r, n_steps + 1)
            # cleared, so that a zero weight never meets a stale row
            Z[:] = 0.0
            if not q0:
                Z[0] = f0
            Z[r : r + 2 * (stop - q0)] = far[q0:stop].reshape(-1, dim)
            block = []
            try:
                for m in range(lo, stop):
                    k = m - q0
                    # predictor state and corrector base in one product
                    y_new, base = W[k].dot(Z).tolist()
                    t1 = t_start + h * m
                    f_new = rhs(t1, y_new, params)
                    for _ in range(iterations):
                        y_new = [b + ca * f for b, f in zip(base, f_new)]
                        f_new = rhs(t1, y_new, params)
                    block.append(y_new)
                    Z[k] = f_new
                states[lo:stop] = block
            except ValueError as err:
                # a longer output fails at the row write, a shorter one at
                # the store; any other ValueError is the field's own
                fault = _length_fault(block, f_new, dim, lo, m, times)
                if fault is None:
                    raise
                raise DimensionMismatchError(fault) from err
            if len(block[0]) != dim:
                # rows of one value broadcast into the store without a word
                raise DimensionMismatchError(_length_fault(block, f_new, dim, lo, m, times))
            F[lo:stop] = Z[lo - q0 : stop - q0]

            finite = np.isfinite(states[lo:stop]).all(axis=1)
            if not finite.all():
                m = lo + int(finite.argmin())
                partial = Trajectory(times[:m].copy(), states[:m].copy())
                raise NonFiniteStateError(
                    f"non-finite state at t = {times[m]:g} (step {m}); "
                    "returning the finite part of the trajectory",
                    trajectory=partial,
                )

    # a copy, so the trajectory does not keep the corrector sums alive
    return Trajectory(times, states.copy())


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
