"""End-to-end acceptance criteria.

Each test exercises one numbered criterion at its stated tolerance and
prints a single pass/fail line (visible with ``pytest -s``).  Closed-form
criteria run against the published reference values; simulation criteria
run on the reduced desk-scale grid (t in [0, 1500], h = 0.05), which shows
the same stable/oscillating dichotomy as the full protocol.
"""

import math
import time

import numpy as np
import pytest

from dmlneuro.equilibria import (
    find_extrema,
    find_symmetric_equilibria,
    i_infinity_derivative,
)
from dmlneuro.fde import SolverConfig, mittag_leffler, solve_fde
from dmlneuro.models import (
    DmlParams,
    LinearCoupling,
    NoCoupling,
    SigmoidCoupling,
    vector_field,
)
from dmlneuro.experiments import (
    bifurcation_sweep,
    hopf_curve,
    oscillation_metrics,
    run_experiment,
)
from dmlneuro.stability import (
    Classification,
    beta_star,
    classify,
    indicators,
    jacobian,
)

pytestmark = pytest.mark.acceptance

P = DmlParams(I=0.019)
REDUCED = SolverConfig(0.0, 1500.0, 0.05)


def _report(num: int, name: str, ok: bool, elapsed: float, limit: float) -> None:
    in_budget = elapsed < limit
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"criterion {num:2d} {status} {name} [{elapsed:.2f}s < {limit:g}s]")
    assert ok, f"criterion {num} ({name}) failed its tolerance"
    assert in_budget, f"criterion {num} ({name}) took {elapsed:.2f}s (limit {limit:g}s)"


def test_criterion_01_current_curve_table():
    t0 = time.perf_counter()
    ex = find_extrema(P)
    ok = (
        abs(ex.x_max - 0.0511432) < 1e-6
        and abs(ex.I_max - 0.0154180) < 1e-6
        and abs(ex.x_min - 0.2863875) < 1e-6
        and abs(ex.I_min - 0.0033971) < 1e-6
    )
    rows = (
        (0.05351939825528394, -0.0028148833020992196),
        (0.2151013413424015, -0.06709282841464406),
        (0.2840112876589663, -0.0033842365907062744),
    )
    ok = ok and all(
        abs(i_infinity_derivative(x, P, 1) - slope) < 1e-8 for x, slope in rows
    )
    _report(1, "current-curve extrema and slopes", ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_equilibrium_branches():
    t0 = time.perf_counter()
    ex = find_extrema(P)
    cases = (
        (0.0001, [(-0.08827, 0.00858)]),
        (0.019, [(0.40772, 0.11746)]),
        (ex.I_min, [(-0.07386, 0.00926), (0.28639, 0.06193)]),
        (ex.I_max, [(0.05114, 0.0179), (0.39491, 0.109785)]),
        (0.011, [(-0.027865, 0.0118), (0.15041, 0.03022), (0.37528, 0.09898)]),
    )
    ok = True
    for I, expected in cases:
        eq = find_symmetric_equilibria(DmlParams(I=I))
        ok = ok and eq.points.shape[0] == len(expected)
        ok = ok and np.abs(eq.points - np.asarray(expected)).max() < 1e-4
    _report(2, "equilibrium branch counts and points", ok, time.perf_counter() - t0, 1.0)


def test_criterion_03_hopf_thresholds_closed_form():
    t0 = time.perf_counter()
    x19 = find_symmetric_equilibria(P).points[0, 0]
    ok = abs(beta_star(x19, P).value - 0.98233) < 1e-4

    p22 = DmlParams(I=0.022)
    x22 = find_symmetric_equilibria(p22).points[0, 0]
    ok = ok and abs(beta_star(x22, p22).value - 0.98772) < 1e-4

    linear_values = []
    for theta in (0.001, 0.008):
        c = LinearCoupling(theta)
        x = find_symmetric_equilibria(P, c).points[0, 0]
        linear_values.append(beta_star(x, P, c).value)
    ok = ok and all(abs(v - 0.98233) < 1e-4 for v in linear_values)
    ok = ok and abs(linear_values[0] - linear_values[1]) < 1e-12

    for sigma, expected in ((0.001, 0.98628), (0.0001, 0.98274)):
        c = SigmoidCoupling(sigma=sigma)
        x = find_symmetric_equilibria(P, c).points[0, 0]
        ok = ok and abs(beta_star(x, P, c).value - expected) < 1e-4
    _report(3, "closed-form Hopf thresholds", ok, time.perf_counter() - t0, 1.0)


def test_criterion_04_trace_determinant_indicators():
    t0 = time.perf_counter()
    ind = indicators(0.40772, P)
    ok = abs(ind.tau_plus - 0.01673) < 1e-4 and abs(ind.delta_plus - 0.0909) < 1e-3
    _report(4, "trace/determinant at the reference equilibrium", ok, time.perf_counter() - t0, 1.0)


def test_criterion_05_solver_against_analytic_oracle():
    t0 = time.perf_counter()

    def decay(t, y, p):
        return [-v for v in y]

    ok = True
    for beta in (0.5, 0.7, 0.9):
        exact = mittag_leffler(beta, -1.0)
        errors = []
        for h in (1e-2, 5e-3, 2.5e-3):
            traj = solve_fde(decay, beta, SolverConfig(0.0, 1.0, h), [1.0])
            errors.append(abs(traj.states[-1, 0] - exact))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        ok = ok and min(orders) >= 1.0 + beta - 0.2
    traj = solve_fde(decay, 1.0, SolverConfig(0.0, 1.0, 1e-3), [1.0])
    ok = ok and np.abs(traj.states[:, 0] - np.exp(-traj.times)).max() < 1e-5
    _report(5, "convergence order against the series oracle", ok, time.perf_counter() - t0, 10.0)


def test_criterion_06_hopf_dichotomy_reduced_grid():
    t0 = time.perf_counter()
    stable = run_experiment(P, NoCoupling(), 0.97, REDUCED, discard=10_000, tail=500)
    spiking = run_experiment(P, NoCoupling(), 0.99, REDUCED, discard=10_000, tail=500)
    ok = (
        stable.converged
        and stable.tail_amplitude_x < 1e-4
        and abs(stable.final_state[0] - 0.40772) < 1e-3
        and not spiking.converged
        and spiking.tail_amplitude_x > 0.05
    )
    _report(6, "stable/spiking dichotomy across the threshold", ok, time.perf_counter() - t0, 30.0)


def test_criterion_07_sweep_localizes_the_onset():
    t0 = time.perf_counter()
    scan = bifurcation_sweep(
        P, NoCoupling(), 0.019, (0.96, 1.0), 0.002, REDUCED, tail_window=500
    )
    oscillating = [
        beta
        for beta, block in zip(scan.beta_values, scan.tail_samples)
        if oscillation_metrics(block[:, 0]).is_oscillating
    ]
    quiet = [
        beta
        for beta, block in zip(scan.beta_values, scan.tail_samples)
        if not oscillation_metrics(block[:, 0]).is_oscillating
    ]
    onset = min(oscillating)
    # the onset splits the sweep cleanly and sits at the predicted order
    ok = (
        abs(onset - 0.98233) < 5e-3
        and not scan.failed.any()
        and all(b < onset for b in quiet)
    )
    _report(7, "continuation sweep onset location", ok, time.perf_counter() - t0, 120.0)


def test_criterion_08_hopf_curve_families():
    t0 = time.perf_counter()
    band = (0.016, 0.0235)
    base = hopf_curve(P, NoCoupling(), band, 50)
    zero = hopf_curve(P, SigmoidCoupling(sigma=0.0), band, 50)
    ok = np.abs(base.beta_star_values - zero.beta_star_values).max() < 1e-12
    previous = base
    for sigma in (0.0001, 0.0005, 0.001, 0.003):
        current = hopf_curve(P, SigmoidCoupling(sigma=sigma), band, 50)
        ok = ok and (current.beta_star_values >= previous.beta_star_values).all()
        previous = current
    _report(8, "coupling family of Hopf curves", ok, time.perf_counter() - t0, 5.0)


def test_criterion_09_classifier_matches_eigenvalue_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_24)
    checked, ok = 0, True
    while checked < 500:
        x = rng.uniform(-0.5, 0.8)
        p = DmlParams(
            I=rng.uniform(-0.02, 0.05),
            A=0.0041 * 10 ** rng.uniform(-0.5, 0.5),
            alpha=rng.uniform(3.0, 7.0),
            gamma=rng.uniform(0.1, 0.8),
        )
        pick = rng.integers(3)
        if pick == 0:
            coupling = NoCoupling()
        elif pick == 1:
            coupling = LinearCoupling(10 ** rng.uniform(-4, -0.5))
        else:
            coupling = SigmoidCoupling(sigma=10 ** rng.uniform(-5, -2))
        beta = rng.uniform(0.05, 1.0)
        ind = indicators(x, p, coupling)
        if min(abs(d) for _, d in ind.branches) < 1e-12:
            continue
        eigs = np.linalg.eigvals(jacobian(x, p, coupling))
        matignon = bool((np.abs(np.angle(eigs)) > beta * math.pi / 2.0).all())
        got = classify(ind, beta) is Classification.ASYMPTOTICALLY_STABLE
        ok = ok and (got == matignon)
        checked += 1
    _report(9, "classifier vs eigenvalue oracle (500 cases)", ok, time.perf_counter() - t0, 5.0)


def test_criterion_10_dimer_permutation_symmetry():
    t0 = time.perf_counter()
    cfg = SolverConfig(0.0, 150.0, 0.05)
    y0 = np.array([0.1, 0.1, -0.2, 0.1])
    ok = True
    for coupling in (LinearCoupling(0.008), SigmoidCoupling(sigma=0.001)):
        rhs, _ = vector_field(coupling)
        forward = solve_fde(rhs, 0.95, cfg, y0, P)
        swapped = solve_fde(rhs, 0.95, cfg, y0[[2, 3, 0, 1]], P)
        ok = ok and np.array_equal(forward.states, swapped.states[:, [2, 3, 0, 1]])
    _report(10, "swapped initial states swap trajectories exactly", ok, time.perf_counter() - t0, 10.0)
