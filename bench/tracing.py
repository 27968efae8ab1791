"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the package's public functions, in every
``dmlneuro`` module that holds them, with wrappers that record spans, and
wraps ``numpy.fft.rfft``/``irfft``.  A span's self time is its duration minus
the spans it encloses.  ``solve_fde`` also wraps the vector field it is
handed, so that each evaluation is timed and counted; the cost of that
wrapper is calibrated on an empty function and taken out again.  Nothing is
written while the workload runs; ``metrics`` summarises at the end.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np
from dmlneuro import NonFiniteStateError

perf = time.perf_counter

# layer -> (defining module, public functions that open a span of that layer)
SPANS = {
    "cli": ("dmlneuro.cli", ("run_cli",)),
    "experiments": ("dmlneuro.experiments", ("run_experiment", "bifurcation_sweep", "hopf_curve")),
    "equilibria": ("dmlneuro.equilibria",
                   ("find_equilibria_2d", "find_symmetric_equilibria", "find_extrema")),
    "stability": ("dmlneuro.stability", ("beta_star", "indicators")),
}
CURVE_FUNCS = ("dmlneuro.equilibria", ("i_infinity", "y_infinity", "i_infinity_derivative"))
CALIBRATION_CALLS = 100_000


def _replace_everywhere(original, replacement, patched):
    """Point every ``dmlneuro`` module attribute bound to ``original`` at
    ``replacement``; record each change in ``patched`` for undoing."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "dmlneuro" or name.startswith("dmlneuro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr, original))


def _calibrate(make_wrapper):
    """Median cost per call of a wrapper around an empty function.

    Returns ``(inside, total)``: the time the wrapper books as the wrapped
    call, and the whole time a caller spends per call.
    """

    def empty(t, y, p):
        return None

    acc = [0.0, 0]
    wrapped = make_wrapper(empty, acc)
    insides, totals = [], []
    for _ in range(5):
        acc[0] = 0.0
        t0 = perf()
        for _ in range(CALIBRATION_CALLS):
            wrapped(0.0, None, None)
        totals.append((perf() - t0) / CALIBRATION_CALLS)
        insides.append(acc[0] / CALIBRATION_CALLS)
    return statistics.median(insides), statistics.median(totals)


def _timed(fn, acc):
    def timed(t, y, p):
        t0 = perf()
        out = fn(t, y, p)
        acc[0] += perf() - t0
        acc[1] += 1
        return out

    return timed


def _counted(fn, acc):
    def counted(*args, **kwargs):
        acc[1] += 1
        return fn(*args, **kwargs)

    return counted


class Tracer:
    def __init__(self):
        self.stack = []  # one [child_seconds, layer] per open span
        self.self_s = {layer: 0.0 for layer in (*SPANS, "fde")}
        self.outer = {"equilibria": [], "stability": []}  # outermost call durations
        self.rhs = [0.0, 0]  # seconds inside the vector field, calls
        self.curve = [0.0, 0]  # same layout as rhs; only the call count is kept
        self.fft = [0.0, 0, 0]  # seconds, calls, transform points
        self.solves = 0
        self.steps = 0
        self.patched = []
        self.rhs_in, self.rhs_total = _calibrate(_timed)
        self.count_cost = _calibrate(_counted)[1]

    # ------------------------------------------------------------ spans

    def _span(self, layer, fn):
        stack, outer = self.stack, self.outer.get(layer)
        curve = self.curve

        def wrapped(*args, **kwargs):
            frame = [0.0, layer]
            is_outer = outer is not None and all(f[1] != layer for f in stack)
            evals0 = curve[1]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                self.self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if is_outer:
                    outer.append(dur - (curve[1] - evals0) * self.count_cost)

        return wrapped

    def _solve(self, fn):
        stack, rhs, fft = self.stack, self.rhs, self.fft

        def solve_fde(f, *args, **kwargs):
            frame = [0.0, "fde"]
            rhs0, fft0 = rhs[0], fft[0]
            stack.append(frame)
            traj = None
            t0 = perf()
            try:
                traj = fn(_timed(f, rhs), *args, **kwargs)
                return traj
            except NonFiniteStateError as err:  # keep the steps of a run that blew up
                traj = err.trajectory
                raise
            finally:
                dur = perf() - t0
                stack.pop()
                inner = (rhs[0] - rhs0) + (fft[0] - fft0) + frame[0]
                self.self_s["fde"] += dur - inner
                if stack:
                    stack[-1][0] += dur
                self.solves += 1
                if traj is not None:
                    self.steps += len(traj.times) - 1

        return solve_fde

    def _fft(self, fn):
        fft = self.fft

        def transform(a, n=None, axis=-1, *args, **kwargs):
            shape = np.shape(a)
            length = n if n is not None else shape[axis]
            columns = int(np.prod(shape)) // max(shape[axis], 1) if shape else 1
            t0 = perf()
            out = fn(a, n, axis, *args, **kwargs)
            fft[0] += perf() - t0
            fft[1] += 1
            fft[2] += length * columns
            return out

        return transform

    def absorb(self, seconds):
        """Book time spent outside the program, such as a speed sample, as a
        child of the open span so that no layer's self time includes it."""
        if self.stack:
            self.stack[-1][0] += seconds

    # ------------------------------------------------------- install/undo

    def install(self):
        import importlib

        for layer, (module_name, names) in SPANS.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name, None)
                if original is not None:
                    _replace_everywhere(original, self._span(layer, original), self.patched)
        import dmlneuro.fde as fde

        _replace_everywhere(fde.solve_fde, self._solve(fde.solve_fde), self.patched)
        module = importlib.import_module(CURVE_FUNCS[0])
        for name in CURVE_FUNCS[1]:
            original = getattr(module, name, None)
            if original is not None:
                _replace_everywhere(original, _counted(original, self.curve), self.patched)
        for name in ("rfft", "irfft"):
            original = getattr(np.fft, name)
            setattr(np.fft, name, self._fft(original))
            self.patched.append((np.fft, name, original))

    def uninstall(self):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    # ------------------------------------------------------------ summary

    def metrics(self, rounds: int, speed: float, overhead_s: float) -> dict:
        """Per-layer figures per round of the workload; times are divided by
        ``speed``, the machine's slowdown against the reference speed."""
        n_rhs = self.rhs[1]
        # the wrapper's cost outside its own timer lands in solve_fde's self
        # time; its cost inside the timer lands in the vector field's
        fde_self = self.self_s["fde"] - n_rhs * (self.rhs_total - self.rhs_in)
        rhs_net = self.rhs[0] - n_rhs * self.rhs_in
        eq, st = self.outer["equilibria"], self.outer["stability"]
        per = 1.0 / rounds
        seconds = per / speed
        micro = 1e6 / speed
        values = {
            "cli.self_s": (self.self_s["cli"] * seconds, "s"),
            "experiments.self_s": (self.self_s["experiments"] * seconds, "s"),
            "fde.solves": (self.solves * per, "count"),
            "fde.steps": (self.steps * per, "count"),
            "fde.self_s": (fde_self * seconds, "s"),
            "fde.step_us": (micro * fde_self / self.steps if self.steps else 0.0, "us"),
            "fde.fft_s": (self.fft[0] * seconds, "s"),
            "fde.fft_calls": (self.fft[1] * per, "count"),
            "fde.fft_mpoints": (self.fft[2] * per / 1e6, "Mpoints"),
            "models.rhs_calls": (n_rhs * per, "count"),
            "models.rhs_us": (micro * rhs_net / n_rhs if n_rhs else 0.0, "us"),
            "equilibria.calls": (len(eq) * per, "count"),
            "equilibria.call_us": (micro * statistics.median(eq) if eq else 0.0, "us"),
            "equilibria.curve_evals": (self.curve[1] * per, "count"),
            "stability.calls": (len(st) * per, "count"),
            "stability.call_us": (micro * statistics.median(st) if st else 0.0, "us"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
