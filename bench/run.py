"""Benchmark of dmlneuro: runs one workload in this fresh process.

    python3 bench/run.py --workload full_run --seed 1 --seconds 20 --trace 0

The workload drives the package as a user does, through
``dmlneuro.cli.run_cli`` with outputs written to files under ``bench/out/``,
repeating whole rounds of the same calls until the next round would pass
``--seconds`` (at least one round).  It then checks the outputs against the
oracles in ``oracles.py`` and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  See
README.md for what each metric measures and which statistic it reports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_STARTS = 9
SAMPLE_INTERVAL = 0.05
SAMPLE_WINDOW = 0.25  # an operation's slowdown also counts samples this near it
KERNEL_S = 1e-3  # nominal kernel time: wall_s is in seconds at this speed
# a fresh interpreter resolving a workload's inputs, as the benchmark does
# before its first operation; argv: bench dir, workload, seed, folds JSON
SETUP_CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.resolve(sys.argv[2], int(sys.argv[3]), json.loads(sys.argv[4]))"
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("full_run", "sweep", "analysis"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _fold_currents(workload, sigmas):
    """Fold currents from the oracle, in a child process so that scipy never
    enters the process whose memory is measured."""
    if workload != "analysis":
        return {}
    out = subprocess.run([sys.executable, str(BENCH / "oracles.py"), *map(repr, sigmas)],
                         check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


_KA = np.linspace(0.0, 1.0, 4096)
_KF = np.ones((4096, 2))


def solver_kernel():
    """Fixed work of the same kind as a solver step: short numpy dot
    products, a small array built per step and scalar math."""
    s = 0.0
    for k in range(185):
        m = 1 + ((k * 67) & 4095)
        v = _KA[:m] @ _KF[:m]
        w = np.array([v[0] * 0.5 - v[1], math.exp(-1e-3 * v[1])])
        s += float(w[0])
    return s


def _cubic_minus_exp(x):
    return x * x * (1.0 - x) - 0.0137 * math.exp(5.276 * x) + 0.019


def scalar_kernel():
    """Fixed work of the same kind as an equilibrium scan: a Python function
    of one float, with one exp, called in a loop."""
    s = 0.0
    for k in range(3350):
        s += _cubic_minus_exp(k * 4e-4 - 0.7)
    return s


# each workload is scaled by the kernel whose work resembles its own; both
# take about KERNEL_S at the nominal speed
KERNELS = {"solver": solver_kernel, "scalar": scalar_kernel}


def _kernel_slowdown(kernel, samples=10):
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times) / KERNEL_S


def _setup_seconds(workload, seed, folds):
    """Median over fresh interpreter starts, each divided by the solver-like
    kernel's slowdown just before and just after it.  That kernel, not the
    scalar one, on every workload: over 54 starts its scaled times spread by
    10-14 %, the scalar kernel's by 12-17 %."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(BENCH), workload, str(seed), json.dumps(folds)]
    times = []
    for _ in range(SETUP_STARTS):
        before = _kernel_slowdown(solver_kernel)
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60)
        elapsed = time.perf_counter() - t0
        times.append(elapsed / (0.5 * (before + _kernel_slowdown(solver_kernel))))
    return statistics.median(times)


class SpeedProbe:
    """Samples the machine's speed while the workload runs.

    Every ``SAMPLE_INTERVAL`` seconds a SIGALRM handler times one of
    ``KERNELS``.  On a shared CPU the speed of a process swings by
    up to 1.8x in bursts of a few seconds and drifts over minutes; the kernel
    slows with it, so its mean time around an operation, against
    ``KERNEL_S``, is the slowdown that operation saw.  The time spent in the
    handler is taken out of every operation.
    """

    def __init__(self, kernel, on_sample=None):
        self.kernel = kernel
        self.stamps = []  # (time at the end of the sample, kernel seconds)
        self.spent = 0.0
        self.on_sample = on_sample

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.stamps.append((t1, t1 - t0))
        self.spent += t1 - t0
        if self.on_sample is not None:
            self.on_sample(t1 - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, t_start, t_end):
        """Mean kernel time from ``SAMPLE_WINDOW`` before ``t_start`` to as
        long after ``t_end``, against the nominal; 1 with no samples."""
        near = [dt for t, dt in self.stamps if t_start - SAMPLE_WINDOW <= t <= t_end + SAMPLE_WINDOW]
        near = near or [dt for _, dt in self.stamps]
        return statistics.fmean(near) / KERNEL_S if near else 1.0


class Rounds:
    """Times, exit codes and output digests of each call, round by round.

    ``times`` holds each call's elapsed seconds divided by the slowdown the
    probe saw around it; ``raw`` the elapsed seconds as measured.
    """

    def __init__(self, plan):
        self.plan = plan
        self.times = {c.label: [] for c in plan.calls}
        self.raw = {c.label: [] for c in plan.calls}
        self.slowdowns = []
        self.codes = {}
        self.digests = {c.label: set() for c in plan.calls}
        self.count = 0

    def run(self, seconds, on_sample=None):
        import dmlneuro.cli

        start = time.perf_counter()
        with SpeedProbe(KERNELS[self.plan.kernel], on_sample) as probe:
            while True:
                t_round = time.perf_counter()
                spans = {}
                for call in self.plan.calls:
                    sink = io.StringIO()
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        spent0 = probe.spent
                        t0 = time.perf_counter()
                        code = dmlneuro.cli.run_cli(call.argv)
                        t1 = time.perf_counter()
                    spans[call.label] = (t0, t1, t1 - t0 - (probe.spent - spent0))
                    self.codes[call.label] = code
                    digest = None
                    if call.out.is_file():
                        # in chunks, so the read-back adds nothing to peak RSS
                        with open(call.out, "rb") as fh:
                            digest = hashlib.file_digest(fh, "sha256").hexdigest()
                    self.digests[call.label].add((code, digest))
                # let the probe sample the time just after the last call
                time.sleep(SAMPLE_WINDOW)
                for label, (t0, t1, elapsed) in spans.items():
                    slow = probe.slowdown(t0, t1)
                    self.raw[label].append(elapsed)
                    self.times[label].append(elapsed / slow)
                self.slowdowns.append(probe.slowdown(t_round, t1))
                self.count += 1
                now = time.perf_counter()
                if now - start + (now - t_round) > seconds:
                    return self

    def wall_s(self):
        """Sum over the calls of each call's median over the rounds."""
        return sum(statistics.median(t) for t in self.times.values())

    def unsteady(self):
        return [label for label, seen in self.digests.items() if len(seen) > 1]


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "dmlneuro" / "__init__.py").is_file():
        print(f"run.py: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import workloads
    import tracing

    folds = _fold_currents(args.workload, workloads.SIGMAS)
    plan = workloads.resolve(args.workload, args.seed, folds)
    shutil.rmtree(workloads.OUT / args.workload, ignore_errors=True)
    (workloads.OUT / args.workload).mkdir(parents=True)

    if args.trace == 0:
        setup_s = _setup_seconds(args.workload, args.seed, folds)
        rounds = Rounds(plan).run(args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": rounds.wall_s(), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    else:
        untraced = Rounds(plan).run(args.seconds)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rounds = Rounds(plan).run(args.seconds, on_sample=tracer.absorb)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(rounds.count, statistics.fmean(rounds.slowdowns),
                                 rounds.wall_s() - untraced.wall_s())

    failures = workloads.check(plan, rounds.codes)
    unexpected = [f for f in failures if not f[2]]
    unsteady = rounds.unsteady()
    for label, message, known in failures:
        kind = "known fault" if known else "FAILED"
        print(f"{kind}: {label}: {message}", file=sys.stderr)
    for label in unsteady:
        print(f"FAILED: {label}: outputs differ between rounds", file=sys.stderr)
    result = {
        "correct": not unexpected and not unsteady,
        "attempted": plan.operations * rounds.count,
        "failed": len(failures) * rounds.count,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, rounds=rounds.count,
                  slowdowns=rounds.slowdowns, call_seconds=rounds.times, raw_seconds=rounds.raw)
    (workloads.OUT / args.workload / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
