"""Workload inputs, the CLI calls that run them, and the checks on their outputs.

A workload is a list of ``Call`` objects, each one in-process invocation of
``dmlneuro.cli.run_cli`` writing its outputs to files.  A run repeats whole
rounds of the same calls.  The inputs depend only on the workload, the seed
and the fold currents that the oracle supplies; the checks compare the files
the calls wrote with the independent oracles in ``oracles.py``, which are
imported only once the timed part of a run is over.
"""

from __future__ import annotations

import csv
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import dmlneuro.cli  # noqa: E402  (the package under test, from this checkout)

WORKLOADS = ("full_run", "sweep", "analysis")

CURRENT = 0.019
FULL_BETA = 0.9
SWEEP_SIGMA = 0.001
SWEEP_STEP = 0.004
SWEEP_ORDERS = 8
CURVE_BAND = (0.016, 0.0235)
CURVE_POINTS = 100
THETA = 0.008
SIGMAS = (1e-4, 1e-3, 3e-3)
# equilibrium queries are drawn from a current band that spans the unique
# and threefold branches of every analysed model
QUERY_BAND = (-0.005, 0.025)
QUERIES_PER_MODEL = 25
# drawn currents keep this far from a fold, so that the fixed-step scans of
# the package cannot miss a close pair of roots on some seeds only
FOLD_CLEARANCE = 1e-4
FOLD_INSET = 1e-9

# tolerances of the checks
SPIKE_MARGIN, SPIKE_AMPLITUDE = 0.005, 0.05
REST_MARGIN, REST_DISTANCE = 0.01, 1e-3
TAIL_DISTANCE = 1e-3
BETA_STAR_TOL = 1e-9
ROOT_TOL = 1e-7

BRANCH_BY_COUNT = {1: "unique", 2: "twofold", 3: "threefold"}


@dataclass
class Call:
    """One CLI invocation; ``operations`` is how many operations it counts for."""

    label: str
    argv: list
    out: Path
    operations: int = 1
    expect: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    calls: list
    # labels of operations that fail on the parent code because of a known
    # fault; in that fault's form they count as failed but do not make the
    # run incorrect
    known_faults: frozenset = frozenset()
    # the reference kernel (run.KERNELS) whose work resembles this workload's
    kernel: str = "solver"

    @property
    def operations(self) -> int:
        return sum(c.operations for c in self.calls)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _y0_arg(rng: random.Random, base) -> str:
    return ",".join(repr(round(b + rng.uniform(-0.01, 0.01), 6)) for b in base)


def resolve(workload: str, seed: int, folds: dict, tiny: bool = False, out: Path = None) -> Plan:
    """Inputs of one workload, writing under ``out`` (default bench/out/<workload>);
    ``tiny`` shrinks them for the benchmark's own tests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(workload, seed)
    out = OUT / workload if out is None else out
    return {"full_run": _full_run, "sweep": _sweep, "analysis": _analysis}[workload](
        rng, out, folds, tiny
    )


def _full_run(rng, out, folds, tiny):
    t_end, h, discard = (500.0, 0.05, 5000) if tiny else (6000.0, 0.01, 100_000)
    y0 = _y0_arg(rng, (0.1, 0.1))
    path = out / "run.csv"
    argv = [
        "simulate", "--model", "single", "--I", repr(CURRENT), "--beta", repr(FULL_BETA),
        "--h", repr(h), "--t-end", repr(t_end), "--use-fft",
        "--discard", str(discard), "--tail", "500", "--y0", y0, "--out", str(path),
    ]
    expect = {"t_end": t_end, "h": h, "y0": [float(v) for v in y0.split(",")]}
    return Plan("full_run", [Call("simulate", argv, path, 1, expect)])


def _sweep(rng, out, folds, tiny):
    # the top order shifts with the seed; the band straddles beta* ~ 0.98628
    if tiny:
        top, step, n, t_end, h, tail = 1.0, 0.06, 2, 300.0, 0.1, 200
    else:
        top = round(1.0 - 0.002 * rng.random(), 6)
        step, n, t_end, h, tail = SWEEP_STEP, SWEEP_ORDERS, 1500.0, 0.05, 500
    # half a step of slack below the last order keeps the grid size exact
    bottom = top - step * (n - 1) - 0.5 * step
    y0 = _y0_arg(rng, (0.1, 0.1, -0.2, 0.1))
    path = out / "sweep.csv"
    argv = [
        "sweep", "--model", "dimer-sigmoid", "--sigma", repr(SWEEP_SIGMA), "--I", repr(CURRENT),
        "--beta-from", repr(bottom), "--beta-to", repr(top), "--beta-step", repr(step),
        "--t-end", repr(t_end), "--h", repr(h), "--tail", str(tail), "--y0", y0,
        "--out", str(path), "--svg",
    ]
    expect = {"betas": [top - step * k for k in range(n)]}
    return Plan("sweep", [Call("sweep", argv, path, n, expect)])


def _model_args(model: str, sigma: float = 0.0) -> list:
    if model == "dimer-linear":
        return ["--model", model, "--theta", repr(THETA)]
    if model == "dimer-sigmoid":
        return ["--model", model, "--sigma", repr(sigma)]
    return ["--model", model]


def _analysis(rng, out, folds, tiny):
    points, per_model = (10, 2) if tiny else (CURVE_POINTS, QUERIES_PER_MODEL)
    calls = []
    curves = [("single", 0.0), ("dimer-linear", 0.0)] + [("dimer-sigmoid", s) for s in SIGMAS]
    for model, sigma in curves:
        label = f"hopf-curve {model}" + (f" sigma={sigma!r}" if sigma else "")
        path = out / f"curve-{model}-{sigma!r}.csv"
        argv = ["hopf-curve", *_model_args(model, sigma), "--I-from", repr(CURVE_BAND[0]),
                "--I-to", repr(CURVE_BAND[1]), "--I-points", str(points),
                "--out", str(path), "--svg"]
        calls.append(Call(label, argv, path, 1, {"model": model, "sigma": sigma, "points": points}))

    known = set()
    for model, sigma in [("single", 0.0)] + [("dimer-sigmoid", s) for s in SIGMAS]:
        lo, hi = folds["single" if model == "single" else repr(sigma)]
        currents = []
        while len(currents) < per_model:
            I = rng.uniform(*QUERY_BAND)
            if min(abs(I - lo), abs(I - hi)) > FOLD_CLEARANCE:
                currents.append(I)
        fold_queries = [lo, lo + FOLD_INSET, hi, hi - FOLD_INSET]
        for k, I in enumerate(currents + fold_queries):
            is_fold = k >= len(currents)
            label = f"equilibria {model}" + (f" sigma={sigma!r}" if sigma else "") + f" I={I!r}"
            path = out / f"eq-{model}-{sigma!r}-{k}.csv"
            # --I=value, since argparse reads a negative number in exponent
            # notation, such as -7.8e-05, as an option
            argv = ["equilibria", *_model_args(model, sigma), f"--I={I!r}", "--out", str(path)]
            calls.append(Call(label, argv, path, 1, {"sigma": sigma, "I": I}))
            if is_fold and model == "dimer-sigmoid":
                # find_symmetric_equilibria only sign-scans, with no fold handling
                known.add(label)
    return Plan("analysis", calls, frozenset(known), kernel="scalar")


# ---------------------------------------------------------------- checks


def check(plan: Plan, codes: dict) -> list:
    """Check the outputs of the last round.

    ``codes`` maps each call label to the exit code it returned.  Returns one
    ``(label, message, known)`` triple per failed operation: an output that
    contradicts an oracle or a property of the method, or one not written.
    ``known`` is true only for the known fault in its known form (see
    ``_is_fold_fault``); any other failure makes the run incorrect.
    """
    checker = {"full_run": _check_full_run, "sweep": _check_sweep,
               "analysis": _check_analysis}[plan.workload]
    failures = []
    for call in plan.calls:
        code = codes.get(call.label)
        if not call.out.is_file():
            failures.extend([(call.label, f"no output, exit code {code}", False)] * call.operations)
            continue
        bad = checker(call, plan)
        if code != 0 and not bad:
            bad = [(call.label, f"exit code {code} with outputs that pass the checks")]
        known = (call.label in plan.known_faults and code == 0 and len(bad) == 1
                 and _is_fold_fault(call))
        failures.extend((label, message, known) for label, message in bad)
    return failures


def _is_fold_fault(call):
    """The known fault of ``find_symmetric_equilibria`` at a fold: a single
    root labelled ``unique`` where the oracle has two or three roots."""
    import oracles

    rows = _read_rows(call.out)
    roots = oracles.equilibria(call.expect["I"], call.expect["sigma"])
    return len(rows) == 1 and rows[0]["branch"] == "unique" and len(roots) in (2, 3)


def _check_full_run(call, plan):
    import numpy as np
    import oracles

    e = call.expect
    with open(call.out, encoding="utf-8") as fh:
        header = fh.readline().strip()
    data = np.loadtxt(call.out, delimiter=",", skiprows=1)
    n = int(math.floor(e["t_end"] / e["h"] + 1e-9))
    bad = []
    if header != "t,x,y" or data.shape != (n + 1, 3):
        return [(call.label, f"expected {n + 1} rows of t,x,y, got {header!r} {data.shape}")]
    if not np.isfinite(data).all():
        bad.append("non-finite values in the trajectory")
    if not np.array_equal(data[:, 0], 0.0 + e["h"] * np.arange(n + 1)):
        bad.append("times are not the exact uniform grid")
    if not np.array_equal(data[0, 1:], np.array(e["y0"])):
        bad.append(f"first state {data[0, 1:]} is not y0 {e['y0']}")
    roots = oracles.equilibria(CURRENT)
    x_star = roots[0]
    y_star = oracles.nullcline_y(x_star)
    tail = data[int(math.ceil(0.9 * n)):, 1:]
    dist = float(np.abs(tail - np.array([x_star, y_star])).max())
    if len(roots) != 1 or not dist <= TAIL_DISTANCE:
        bad.append(f"last tenth strays {dist:.3e} from the equilibrium ({x_star:.6f}, {y_star:.6f})")
    return [(call.label, "; ".join(bad))] if bad else []


def _check_sweep(call, plan):
    import numpy as np
    import oracles

    x_star = oracles.equilibria(CURRENT, SWEEP_SIGMA)[0]
    b_star = oracles.beta_star(x_star, "dimer-sigmoid", sigma=SWEEP_SIGMA)
    rows = np.loadtxt(call.out, delimiter=",", skiprows=1)
    betas = call.expect["betas"]
    found = np.unique(rows[:, 0])[::-1]
    if found.size != len(betas) or not np.allclose(found, betas, rtol=0.0, atol=1e-12):
        return [(call.label, f"orders {found.tolist()} differ from {betas}")]
    bad = []
    for beta in found:
        label = f"{call.label} beta={beta:.6f}"
        sel = rows[rows[:, 0] == beta]
        cells = [sel[sel[:, 3] == k] for k in (1, 2)]
        if any(c.size == 0 or not np.isfinite(c[:, 2]).all() for c in cells):
            bad.append((label, "order failed (non-finite or missing samples)"))
            continue
        amps = [float(np.ptp(c[:, 2])) for c in cells]
        ends = [float(abs(c[np.argmax(c[:, 1]), 2] - x_star)) for c in cells]
        if beta >= b_star + SPIKE_MARGIN and min(amps) < SPIKE_AMPLITUDE:
            bad.append((label, f"amplitudes {amps} below {SPIKE_AMPLITUDE} above beta* {b_star:.6f}"))
        elif beta <= b_star - REST_MARGIN and max(ends) > REST_DISTANCE:
            bad.append((label, f"ends {ends} from x* {x_star:.6f} below beta* {b_star:.6f}"))
    return bad


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_analysis(call, plan):
    if call.argv[0] == "hopf-curve":
        return _check_curve(call, plan)
    return _check_equilibria(call)


def _check_curve(call, plan):
    import numpy as np
    import oracles

    e = call.expect
    model, sigma = e["model"], e["sigma"]
    rows = _read_rows(call.out)
    kept = {float(r["I"]): float(r["beta_star"]) for r in rows}
    grid = np.linspace(CURVE_BAND[0], CURVE_BAND[1], e["points"])
    bad = []
    for I in grid:
        want = oracles.hopf_point(float(I), model, THETA, sigma)
        got = kept.pop(float(I), None)
        if want is not None and got is None:
            bad.append(f"I={I!r}: unique-branch threshold {want:.12f} dropped")
        elif got is not None and (want is None or abs(got - want) > BETA_STAR_TOL):
            bad.append(f"I={I!r}: beta* {got!r} against oracle {want!r}")
    if kept:
        bad.append(f"currents off the grid: {sorted(kept)}")
    if model == "dimer-linear":
        single = next(c for c in plan.calls if c.expect.get("model") == "single")
        ref = [(float(r["I"]), float(r["beta_star"])) for r in _read_rows(single.out)]
        mine = [(float(r["I"]), float(r["beta_star"])) for r in rows]
        if len(ref) != len(mine) or any(
            a[0] != b[0] or abs(a[1] - b[1]) > 1e-12 for a, b in zip(ref, mine)
        ):
            bad.append("linear-pair curve differs from the single-cell curve")
    return [(call.label, "; ".join(bad[:3]))] if bad else []


def _check_equilibria(call):
    import oracles

    e = call.expect
    rows = _read_rows(call.out)
    roots = oracles.equilibria(e["I"], e["sigma"])
    want = BRANCH_BY_COUNT.get(len(roots), f"{len(roots)} roots")
    labels = {r["branch"] for r in rows}
    xs = [float(r["x_star"]) for r in rows]
    ys = [float(r["y_star"]) for r in rows]
    if len(rows) != len(roots) or labels != {want}:
        return [(call.label, f"{len(rows)} roots labelled {sorted(labels)}, oracle has {len(roots)} ({want})")]
    for x, y, r in zip(xs, ys, roots):
        if abs(x - r) > ROOT_TOL or abs(y - oracles.nullcline_y(r)) > ROOT_TOL:
            return [(call.label, f"root ({x!r}, {y!r}) against oracle x*={r!r}")]
    return []
