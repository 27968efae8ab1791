"""Predictor-corrector solver for commensurate Caputo fractional ODE systems.

The initial value problem is recast as a Volterra integral equation with a
weakly singular power-law kernel, discretized by product integration on a
uniform grid, and stepped with an Adams-Bashforth-Moulton predict-evaluate-
correct-evaluate (PECE) scheme.  The history sums follow the nested
splitting of Hairer, Lubich and Schlichte (SIAM J. Sci. Stat. Comput. 6,
1985) used in Garrappa's FDE-PI codes.  The grid falls into blocks of
``_FFT_BLOCK`` nodes, and a node sums the earlier nodes of its own block
directly.  A block buffer interleaves, node by node, the two far sums and
the vector-field row, so block node k finds everything it reads in the
buffer's first 3k + 2 rows: one product of a fixed ``(2, 3k + 2)`` weight
row pair with that prefix gives it its predictor state and corrector base.
Every other pair of source and target nodes lies in one square:
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
        if (self.t_end - self.t_start) / self.h < 1.0:
            raise ValueError("grid must contain at least one step")

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
    *,
    _on_rows=None,
) -> Trajectory:
    """Integrate ``D^beta y = rhs(t, y, params)`` with Caputo memory.

    Each step is one predict-evaluate-correct-evaluate pass: a
    product-rectangle predictor over the full history, the vector field
    there, one product-trapezoid corrector, and the vector field at the
    corrected state, which the later steps' history sums use.  For
    ``beta == 1`` the scheme reduces to the classical one-step
    Adams-Bashforth-Moulton trapezoidal PECE method.

    ``rhs(t, y, params)`` receives ``t`` as a float and ``y`` as a plain list
    of ``dim`` floats, and returns any sequence of ``dim`` floats: a tuple, a
    list or an array.  Each step makes one matrix product.  A ``(3r, dim)``
    block buffer, r = ``_FFT_BLOCK``, holds three rows per block node j: its
    two far sums at 3j and 3j + 1, copied in once per block, and its vector
    field at 3j + 2, written by node j's step.  Block node k multiplies a
    ``(2, 3k + 2)`` weight row pair by the buffer's first 3k + 2 rows, the
    ones it reads, which halves the product's work on average.  The rest of
    the step runs on Python floats, and the block's states and field rows
    are stored once per block.

    Raises ``ValueError`` for a non-finite ``y0``, before any work,
    :class:`NonFiniteStateError` (carrying the finite part of the
    trajectory) at the first non-finite state after it, and
    :class:`DimensionMismatchError` when ``rhs`` output and ``y0`` disagree,
    at node 0 or at any later node.  The last two checks run once per block
    of ``_FFT_BLOCK`` steps, so ``rhs`` may be evaluated at non-finite
    states, or at a state cut short by its own short output, before the
    error is raised.  A ``ValueError`` that ``rhs`` raises itself
    propagates as it is.

    The private hook ``_on_rows(times, states)``, when given, is called once
    per block, after that block passes the finiteness check, with views of
    every row final so far.  Each call's rows are therefore a prefix of the
    returned trajectory, or of the finite part a blow-up carries.  The
    command line uses it to hand a long trajectory's rows to a helper
    process, which formats their CSV text while the solve runs; the bytes
    match the one-process text, the helper is reaped on every path out of
    the command, and nothing configures it.
    """
    beta = check_order(order)
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if y0.ndim != 1:
        raise DimensionMismatchError("y0 must be a one-dimensional state vector")
    if not np.isfinite(y0).all():
        raise ValueError(f"y0 must be finite, got {y0.tolist()}")
    dim = y0.size
    n_steps = config.n_steps
    h = config.h
    t_start = config.t_start
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
    # The block buffer Z interleaves three rows per block node j: its two
    # far rows at 3j and 3j + 1, copied in once per block, and its F row at
    # 3j + 2, written by node j's step.  W[k] turns the prefix Zk[k] =
    # Z[:3k + 2] into the predictor state and the corrector base of block
    # node k in one product: the kernel weights of the k earlier nodes'
    # F rows, oldest first, zero on their far rows, and ones that pick node
    # k's own far rows.  No row past the prefix is read.
    Z = np.zeros((3 * r, dim))
    nodes = Z.reshape(r, 3, dim)  # a view: nodes[j] is node j's three rows
    W, Zk = [], []
    for k in range(r):
        w = np.zeros((2, 3 * k + 2))
        w[:, 2 : 3 * k : 3] = kb[k:0:-1], ka[k:0:-1]
        w[(0, 1), (3 * k, 3 * k + 1)] = 1.0
        W.append(w)
        Zk.append(Z[: 3 * k + 2])

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
            # every row of a node's prefix is written in this block before
            # the node reads it, so no stale row from an earlier block is read
            if not q0:
                nodes[0, 2] = f0
            nodes[: stop - q0, :2] = far[q0:stop]
            block = []
            try:
                for m in range(lo, stop):
                    k = m - q0
                    # predictor state and corrector base in one product
                    y_new, base = W[k].dot(Zk[k]).tolist()
                    t1 = t_start + h * m
                    f_new = rhs(t1, y_new, params)
                    y_new = [b + ca * f for b, f in zip(base, f_new)]
                    f_new = rhs(t1, y_new, params)
                    block.append(y_new)
                    Z[3 * k + 2] = f_new
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
            F[lo:stop] = nodes[lo - q0 : stop - q0, 2]

            finite = np.isfinite(states[lo:stop]).all(axis=1)
            if not finite.all():
                m = lo + int(finite.argmin())
                partial = Trajectory(times[:m].copy(), states[:m].copy())
                raise NonFiniteStateError(
                    f"non-finite state at t = {times[m]:g} (step {m}); "
                    "returning the finite part of the trajectory",
                    trajectory=partial,
                )
            if _on_rows is not None:
                _on_rows(times[:stop], states[:stop])

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
