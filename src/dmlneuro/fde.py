"""Predictor-corrector solver for commensurate Caputo fractional ODE systems.

The initial value problem is recast as a Volterra integral equation with a
weakly singular power-law kernel, discretized by product integration on a
uniform grid, and stepped with an Adams-Bashforth-Moulton predict-evaluate-
correct-evaluate (PECE) scheme.  The grid falls into blocks of r = ``_BLOCK``
nodes.  A node sums its own block directly, and two neighbouring nodes share
one product for those sums; one product per block gives the far sums,
weighting the block before by the kernel (lags 1 to 2r - 1) and all older
nodes through sums of exponentials that stand for the kernel past lag r
(Jiang et al., Commun. Comput. Phys. 21, 2017; Baffet and Hesthaven, SIAM J.
Numer. Anal. 55, 2017).  One function, generated once per solve for the
system's dimension, steps each pair of nodes: it unpacks their shared
product into Python floats and evaluates the field four times, with
unrolled float sums between them.  Each evaluation runs a field body
inline: a model's own, or, for any other callable, a wrapped model field
included, a generated body that calls it, with the same bits.  A run of N
steps costs O(N (r + Q)) for Q (about 145) exponents.  A solve keeps its
times and states, its only arrays of length N; one that hands its rows out
as it goes keeps only one piece of them, ``_PIECE`` blocks long.
"""

from __future__ import annotations

import ctypes
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    NonFiniteStateError,
    _grid_allocation,
)
# the solver's config is named through its module: the hints resolve, and
# the config has one import path
from . import models
from .models import check_order

# Block length r: a node sums its own block directly, the block before it by
# the kernel and all older nodes through the sums of exponentials.
_BLOCK = 64
# blocks per piece: a solve that hands its rows out steps into a buffer of
# one piece and hands each piece over once it is full
_PIECE = 64


@dataclass(frozen=True)
class Trajectory:
    """Solution samples on a uniform grid: ``states[k]`` at ``times[k]``."""

    times: np.ndarray
    states: np.ndarray


# The lag kernels avoid the cancellation of their textbook forms, whose error
# grows like eps * k**2; at lag 1, log1p(-1) = -inf gives the exact limit.
@np.errstate(divide="ignore")
def _predictor_kernel(beta: float, k) -> np.ndarray:
    # lag-k weight of the product-rectangle rule, k^beta - (k - 1)^beta
    k = np.asarray(k, dtype=float)
    return -(k ** beta) * np.expm1(beta * np.log1p(-1.0 / k))


@np.errstate(divide="ignore")
def _corrector_kernel(beta: float, k) -> np.ndarray:
    # lag-k weight of the product-trapezoid rule, (k+1)^e - 2k^e + (k-1)^e
    k = np.asarray(k, dtype=float)
    e = beta + 1.0
    return k ** e * (np.expm1(e * np.log1p(1.0 / k)) + np.expm1(e * np.log1p(-1.0 / k)))


@np.errstate(divide="ignore")
def _corrector_initial(beta: float, n) -> np.ndarray:
    # weight attached to the t_0 sample when stepping from node n to n + 1:
    # n^e - (n - beta) (n + 1)^beta = m^e ((1 - 1/m)^e - 1 + e/m), m = n + 1
    m = np.asarray(n, dtype=float) + 1.0
    e = beta + 1.0
    return m ** e * (np.expm1(e * np.log1p(-1.0 / m)) + e / m)


def _exponential_sums(beta: float, n_steps: int, r: int):
    """Exponents ``lam`` and weights ``wb``, ``wa``: ``wb @ exp(-lam * n)``
    and ``wa @ exp(-lam * n)`` are the unscaled predictor and corrector
    kernels at every lag r < n <= n_steps, to about 1e-13 relative.

    s^(beta - 1) = Gamma(1 - beta)^-1 * integral of exp((1 - beta) x - s e^x)
    dx, by the trapezoid rule with step 0.3 from ln(1e-13 / n_steps) to
    ln(45 / r): above it e^(-s e^x) < e^-45 for s >= r; below it s e^x <
    1e-13, so those nodes fold by their geometric sum into one exponent 0,
    the whole sum at beta = 1.  The kernels average e^(-lam s) over
    [n - 1, n] and under the hat on [n - 1, n + 1].
    """
    step, a = 0.3, 1.0 - beta
    x_min = math.log(1e-13 / n_steps)
    x = x_min + step * np.arange(math.ceil((math.log(45.0 / r) - x_min) / step) + 1)
    lam = np.exp(x)
    # 1 / Gamma(1 - beta) = (1 - beta) / Gamma(2 - beta), which is 0 at beta = 1;
    # c_0 sums c[0] * e^(-a step k) over the nodes k = 1, 2, ... below x_min
    c = step * a / math.gamma(1.0 + a) * np.exp(a * x)
    c_0 = c[0] / math.expm1(a * step) if a else 1.0
    wb = beta * np.concatenate(([c_0], c * np.expm1(lam) / lam))
    wa = beta * (beta + 1.0) * np.concatenate(([c_0], c * (np.sinh(lam / 2.0) / (lam / 2.0)) ** 2))
    return np.concatenate(([0.0], lam)), wb, wa


# The pair step's source, by ``_pair_step``: the product's four rows unpack
# into {state} (node k's predictor state), b (its corrector base), and q and
# c (node k + 1's, without their lag-1 terms); f is node k's corrected field
# and g node k + 1's predicted field, as floats.  The {field_*} slots run
# the field's body at {state}, which leaves the field's floats in {values}.
_PAIR_STEP = """\
def step(start, stop, {names}):
    block, last = [], stop - 1
    for m, (dot, zk, row, row2) in zip(range(start, stop, 2), pairs):
        {state}, {b}, {q}, {c} = dot(zk).tolist()
        if m:
            {field_f}
            {corrected}
            {field_f}
            store[row] = {values}
            block += {state}
        else:
            {f} = first
        if m == last:
            break
        m += 1
        {predicted}
        {field_g}
        {corrected2}
        {field_last}
        store[row2] = {values}
        block += {state}
    return block
"""


def _fill(template: str, **slots) -> str:
    """``template`` with each ``{name}`` replaced by ``slots[name]``; the
    later lines of a slot that spans lines are indented like its first."""
    return re.sub(r"( *)\{(\w+)\}",
                  lambda s: s[1] + slots[s[2]].replace("\n", "\n" + s[1]), template)


# a source names the values a step reads but holds none: each solve execs its code in its own scope
_compiled = lru_cache(maxsize=32)(lambda source: compile(source, "<pair step>", "exec"))


def _call_body(dim: int) -> tuple:
    """The body ``(state, source, out)`` that calls ``rhs`` at step m's time
    on a list of the state's floats and rejects an output of any other
    length; it reads ``rhs``, ``params``, ``t_start`` and ``h``."""
    state, out = (tuple(f"{x}{i}" for i in range(dim)) for x in "yr")
    return state, (
        "t = t_start + h * m\n"
        f"out = rhs(t, [{', '.join(state)}], params)\n"
        f"if len(out) != {dim}:\n"
        "    raise DimensionMismatchError(\n"
        '        f"rhs returned a sequence of the wrong length at t = {t:g} "\n'
        f'        f"(step {{m}}); expected {dim} values")\n'
        f"{', '.join(out)}, = out\n"
    ), out


def _pair_step(dim: int, body, **bound) -> Callable:
    """``step(start, stop)``: the states of steps ``start`` to ``stop - 1``,
    one block from its first node, as one flat float list, stepped pair by
    pair with the corrector and lag-1 sums unrolled into ``dim`` float sums.
    Step 0 is not stepped: it takes its field row ``first``, and only its
    partner, step 1, enters the list.

    ``body`` is a field body ``(state, source, out)``, a model's
    :class:`~dmlneuro.models.Body` or a call body: the step runs ``source``
    inline at each of its four field evaluations per pair, with the state's
    floats in the names ``state``, and reads the field from the names
    ``out``.  ``bound`` gives every other name the step and the body read.
    The body may use no name of the step's own: those of ``bound``,
    ``start``, ``stop``, ``block``, ``last``, ``m``, ``dot``, ``zk``,
    ``row``, ``row2``, and b, q, c, f or g followed by digits."""
    state, code, out = body

    def unrolled(fmt):
        return [fmt.format(i) for i in range(dim)]

    def floats(x):
        return f"({', '.join(unrolled(x + '{0}'))},)"

    def assign(values):
        return "\n".join(f"{n} = {v}" for n, v in zip(state, values))

    def field(into=None):
        copies = [f"{into}{i} = {n}" for i, n in enumerate(out)] if into else []
        return "\n".join([code.rstrip("\n"), *copies])

    source = _fill(
        _PAIR_STEP,
        names=", ".join(f"{n}={n}" for n in bound),
        state=f"({', '.join(state)},)", values=f"({', '.join(out)},)",
        **{x: floats(x) for x in "bqcf"},
        field_f=field("f"), field_g=field("g"), field_last=field(),
        corrected=assign(unrolled("b{0} + ca * f{0}")),
        predicted=assign(unrolled("q{0} + kb1 * f{0}")),
        corrected2=assign(unrolled("(c{0} + ka1 * f{0}) + ca * g{0}")),
    )
    scope = dict(bound, DimensionMismatchError=DimensionMismatchError)
    exec(_compiled(source), scope)
    # popped, so that the step and its globals, which hold the block buffer,
    # form no cycle: they go with the solve, not at a later garbage collection
    return scope.pop("step")


def solve_fde(
    rhs: Callable,
    order,
    config: models.SolverConfig,
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

    ``rhs(t, y, params)`` receives ``t`` as a float and ``y`` as a list of
    ``dim`` ``float`` instances: plain floats, or ``np.float64`` (a float
    subclass) when ``rhs`` returns an array, in the corrected state and in
    the predictor state of every second node of a pair.  It returns any
    sequence of ``dim`` floats: a tuple, a list or an array.

    A field with a ``splice(params)`` method, as each model's
    ``coupling.field`` has, is called only at node 0.  ``splice`` returns
    the field's :class:`~dmlneuro.models.Body` and the value of every name
    it reads, and the step runs that body inline at each of the other
    evaluations, on the same floats in the same operation order, so the
    trajectory is bitwise the one the calls would give.  Any other callable,
    such as ``lambda t, y, p: coupling.field(t, y, p)``, runs as a generated
    call body, which calls it at every evaluation.

    Each pair of steps makes one matrix product, and one function,
    generated once per solve for ``dim``, steps a block pair by pair.  A
    ``(3r, dim)`` block buffer, r = ``_BLOCK``, holds three rows per block
    node j: its two far sums at 3j and 3j + 1, written once per block, and
    its vector field at 3j + 2, written by node j's step.  Block nodes k
    and k + 1, k even, multiply a ``(4, 3k + 5)`` weight block by the
    buffer's first 3k + 5 rows, and the step unpacks the product's one
    ``tolist()`` into floats: the predictor state and the corrector base of
    node k, and those of node k + 1 without the term of node k's vector
    field, which node k's step has not yet written.  Between the four field
    evaluations the step runs on Python floats, in ``dim`` unrolled sums
    each: node k's corrector state ``b + ca * f``, then node k + 1's
    predictor state ``q + kb[1] * f`` and corrector state
    ``(c + ka[1] * f) + ca * g``, for node k's corrected field f and node
    k + 1's predicted field g.  Each corrected field row goes into the
    buffer as it is returned, by one slice
    store into the ``ctypes`` array the buffer views; none of this calls
    numpy.  The same step takes node 1 of the first block, whose partner is
    node 0, a block that ends on the first node of a pair, and the unpaired
    last node of an odd r.  The block's states are stored once per block,
    by one slice store of a flat float list.  Beside the times and states
    it keeps, a solve holds O(r (r + Q)) floats for Q exponents.

    Raises ``ValueError`` for a non-finite ``y0`` and
    :class:`GridMemoryError` for a grid whose times and states could not be
    allocated or indexed whole, both before any work,
    :class:`NonFiniteStateError` (carrying the finite part of the
    trajectory) at the first non-finite state after it, and
    :class:`DimensionMismatchError` when ``rhs`` output and ``y0`` disagree,
    at node 0 or at any later node: the call body rejects an output of any
    other length at the step that returned it, and a spliced body always
    gives ``dim`` floats.  The finiteness check runs once per block of
    ``_BLOCK`` steps, so ``rhs`` may be evaluated at non-finite states
    before the error is raised; the block's states are scanned one by one
    only when their sum is not finite.  A ``ValueError`` that ``rhs``
    raises itself propagates as it is.

    The private hook ``_on_rows(times, states)``, when given, makes the
    solve keep no array of the run's length.  It steps into a buffer of one
    piece, ``_PIECE`` whole blocks, builds that piece's times, and hands
    each piece over once it is full, the last one when the run ends: every
    row once, in order, as views that the next piece overwrites, so a
    caller copies what it keeps.  On a blow-up the finite rows of the piece
    in hand are handed over before the error is raised, so the calls' rows
    make up the trajectory, or its finite part.  The solve then returns,
    and a blow-up carries, only the rows of its last piece, which may be
    none.  A grid that could not be held whole is still refused, by an
    allocation of its size that is never touched.  Each order of a sweep
    runs on the hook and keeps only its tail.  The command line uses
    the hook to hand a long trajectory's rows to a helper process, which
    formats their CSV text while the solve runs; the bytes match the
    one-process text, the helper is reaped on every path out of the
    command, and nothing configures it.
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
    # the rows a solve holds: all of them, or, streamed, one piece
    piece = n_steps + 1 if _on_rows is None else min(n_steps + 1, _PIECE * _BLOCK)
    with _grid_allocation(n_steps + 1, "samples"):
        if piece <= n_steps:
            # the whole grid must fit all the same; never touched, this
            # allocation costs no resident memory
            np.empty((n_steps + 1, dim + 1))
        times = _times(0, piece, h, t_start)
        states = np.empty((piece, dim))

    f0 = np.asarray(rhs(t_start, y0.tolist(), params), dtype=float)
    if f0.shape != (dim,):
        raise DimensionMismatchError(
            f"rhs returned shape {f0.shape}, expected ({dim},)"
        )

    # lag-indexed scaled weights up to lag 2r - 1: node j enters the
    # predictor of node m with kb[m - j] and the corrector with ka[m - j]
    r = _BLOCK
    cb = h ** beta / math.gamma(beta + 1.0)
    ca = h ** beta / math.gamma(beta + 2.0)
    kb = cb * np.concatenate(([0.0], _predictor_kernel(beta, np.arange(1, 2 * r))))
    ka = ca * np.concatenate(([0.0], _corrector_kernel(beta, np.arange(1, 2 * r))))
    # The block buffer Z interleaves three rows per block node j: its two
    # far rows at 3j and 3j + 1, written once per block, and its F row at
    # 3j + 2, written by node j's step.  Block nodes pair up as (k, k + 1)
    # for even k, and one product, whose bound dot is dots[k], serves both:
    # its weight block turns the prefix Zk[k] = Z[:3k + 5] into node k's
    # predictor state and corrector base (rows 0 and 1) and node k + 1's
    # without their lag-1 terms (rows 2 and 3).  Each row holds the kernel
    # weights of the k earlier nodes' F rows, oldest first, zero on their
    # far rows, and ones that pick its node's own far rows.  Node k + 1 adds
    # node k's F row times kb[1] and ka[1] in the pair step, as floats.
    # Edges:
    # - node k's F row is in the prefix, weighted zero, before node k's step
    #   rewrites it, and 0 * inf is nan.  The row is finite: in the first
    #   block it is zero (or f0, node 0's own), and later it is the last
    #   block's, which node k + 1 there took in with the positive weight
    #   ka[1]; a non-finite row would have made that state non-finite and
    #   stopped the run at that block.
    # - with an odd r, the last node r - 1 has no partner: its rows 2 and 3
    #   are zero and its prefix Z[:3r - 1] leaves out its own F row, the
    #   last row of Z, which no product reads.
    # Z views a ctypes array, whose slice store takes any sequence of
    # exactly dim floats; pairs[k // 2] holds pair k's bound dot, its prefix
    # and the slices of nodes k and k + 1's F rows there.
    store = (ctypes.c_double * (3 * r * dim))()
    Z = np.frombuffer(store).reshape(3 * r, dim)
    nodes = Z.reshape(r, 3, dim)  # a view: nodes[j] is node j's three rows
    pairs = []
    for k in range(0, r, 2):
        w = np.zeros((4, min(3 * k + 5, 3 * r - 1)))
        w[:2, 2 : 3 * k : 3] = kb[k:0:-1], ka[k:0:-1]
        w[(0, 1), (3 * k, 3 * k + 1)] = 1.0
        if k + 1 < r:
            w[2:, 2 : 3 * k : 3] = kb[k + 1 : 1 : -1], ka[k + 1 : 1 : -1]
            w[(2, 3), (3 * k + 3, 3 * k + 4)] = 1.0
        rows = [slice((3 * j + 2) * dim, (3 * j + 3) * dim) for j in (k, k + 1)]
        pairs.append((w.dot, Z[: w.shape[1]], *rows))
    # float weights, so that plain float field rows give plain float states;
    # a model's field hands over its body, any other callable a call body
    splice = getattr(rhs, "splice", None)
    body, names = splice(params) if splice is not None else (
        _call_body(dim), dict(rhs=rhs, params=params, t_start=t_start, h=h))
    step = _pair_step(dim, body, **names, ca=ca, kb1=float(kb[1]), ka1=float(ka[1]),
                      pairs=pairs, store=store, first=f0.tolist())

    # Far rows.  One product A @ B gives both far rows of every node of the
    # block, in Z's order.  B stacks the F rows of the last block, weighted
    # by the kernel; the state H, whose row i sums exp(-lam[i] (P - j)) F[j]
    # over the nodes j before that block's first node P, weighted by the
    # exponential sums; y0, by one; and f0, by node 0's corrector weight
    # less its kernel weight, the one column that changes per block.
    lam, wb, wa = _exponential_sums(beta, n_steps, r)
    ks = np.arange(r)
    A = np.zeros((r, 2, r + lam.size + 2))
    lag = r + ks[:, None] - ks
    A[:, 0, :r], A[:, 1, :r] = kb[lag], ka[lag]
    ahead = np.exp(-np.outer(r + ks, lam))
    A[:, 0, r:-2], A[:, 1, r:-2] = cb * wb * ahead, ca * wa * ahead
    A[:, :, -2] = 1.0
    A = A.reshape(2 * r, -1)
    into = np.exp(-np.outer(lam, r - ks))
    decay = np.exp(-r * lam)[:, None]
    B = np.zeros((r + lam.size + 2, dim))
    last, H = B[:r], B[r:-2]
    B[-2], B[-1] = y0, f0
    states[0] = y0
    flat = states.reshape(-1)  # a view: the block's states go in by one store
    p0 = 0  # the first row of the piece in hand, which holds the rows from p0 on

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for q0 in range(0, n_steps + 1, r):
            if not q0 % (r * r):
                # node 0's corrector correction for the targets of the next r
                # blocks; row 0, weighted by zero, takes lag 1's finite value
                n = np.maximum(np.arange(q0, q0 + r * r), 1)
                edges = ca * (_corrector_initial(beta, n - 1) - _corrector_kernel(beta, n))
            A[1::2, -1] = edges[q0 % (r * r) :][:r]
            # H takes in the block before the last, then the last block's
            # F rows replace it; every row of a node's prefix is written in
            # this block before the node reads it
            H *= decay
            H += into.dot(last)
            last[:] = nodes[:, 2]
            nodes[:, :2] = A.dot(B).reshape(r, 2, dim)
            if not q0:
                # the first block starts at node 1, the second of pair (0, 1),
                # whose product reads node 0's F row f0
                nodes[0, 2] = f0
            lo, stop = max(q0, 1), min(q0 + r, n_steps + 1)
            block = step(q0, stop)
            flat[(lo - p0) * dim : (stop - p0) * dim] = block

            # the sum is finite only if every state is; a non-finite sum,
            # which finite states can also give by overflow, runs the scan
            if not math.isfinite(sum(block)):
                finite = np.isfinite(states[lo - p0 : stop - p0]).all(axis=1)
                if not finite.all():
                    m = lo + int(finite.argmin())
                    partial = Trajectory(times[: m - p0], states[: m - p0])
                    if _on_rows is not None and m > p0:
                        _on_rows(partial.times, partial.states)
                    raise NonFiniteStateError(
                        f"non-finite state at t = {t_start + h * m:g} (step {m}); "
                        "returning the finite part of the trajectory",
                        trajectory=partial,
                    )
            if stop - p0 == len(times):
                if _on_rows is not None:
                    _on_rows(times, states[: len(times)])
                if stop <= n_steps:
                    p0 = stop
                    times = _times(p0, min(p0 + piece, n_steps + 1), h, t_start)

    return Trajectory(times, states[: len(times)])


def _times(start: int, stop: int, h: float, t_start: float) -> np.ndarray:
    """The times of rows ``start`` to ``stop - 1``, ``t_start + h * k``,
    built in place: no integer grid and no product beside them."""
    times = np.arange(start, stop, dtype=float)
    times *= h
    times += t_start
    return times


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
