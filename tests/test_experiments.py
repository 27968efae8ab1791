import itertools
import math
import sys
import tracemalloc
import typing
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from dmlneuro import experiments, fde, stability
from dmlneuro.equilibria import Branch, critical_points, find_symmetric_equilibria, fold_voltages
from dmlneuro.exceptions import (
    ConvergenceError,
    GridMemoryError,
    InsufficientSamplesError,
    NonFiniteStateError,
    NumericalError,
)
from dmlneuro.fde import Trajectory, solve_fde
from dmlneuro.models import (
    DmlParams,
    LinearCoupling,
    NoCoupling,
    SigmoidCoupling,
    SolverConfig,
)
from dmlneuro.experiments import (
    AMPLITUDE_TOL,
    bifurcation_sweep,
    run_experiment,
)
from dmlneuro.stability import BetaStarKind, beta_star, hopf_curve

P = DmlParams(I=0.019)
# desk-scale grid: same dichotomy as the full protocol at a fraction of the cost
FAST = SolverConfig(0.0, 1500.0, 0.05)
SHORT = SolverConfig(0.0, 50.0, 0.05)


class TestRunExperiment:
    def test_converges_below_threshold_order(self):
        s = run_experiment(P, NoCoupling(), 0.9, FAST, tail=500)
        assert s.converged
        assert s.tail_amplitude_x < 1e-4
        assert abs(s.trajectory.states[-1, 0] - 0.40772) < 1e-3

    def test_oscillates_above_threshold_order(self):
        s = run_experiment(P, NoCoupling(), 0.99, FAST, tail=500)
        assert not s.converged
        assert s.tail_amplitude_x > 0.05

    def test_spiking_tail_metrics_at_order_one(self):
        s = run_experiment(P, NoCoupling(), 1.0, FAST, tail=500)
        # thin the tail to span several spike periods in 500 samples
        tail = s.trajectory.states[::10][-500:, 0]
        slopes = np.sign(np.diff(tail))
        slopes = slopes[slopes != 0.0]
        assert np.ptp(tail) >= AMPLITUDE_TOL
        assert np.count_nonzero(slopes[1:] != slopes[:-1]) > 10  # interior extrema

    def test_amplitude_at_the_tolerance_oscillates(self, monkeypatch):
        # a spread of exactly AMPLITUDE_TOL counts as oscillating
        states = np.array([[v, 0.0] for v in (0.0, AMPLITUDE_TOL, 0.0)])

        def solved(*args, **kwargs):
            return Trajectory(np.arange(3.0), states)

        monkeypatch.setattr(experiments, "solve_fde", solved)
        s = run_experiment(P, NoCoupling(), 0.9, SolverConfig(0.0, 2.0, 1.0), tail=3)
        assert s.tail_amplitude_x == AMPLITUDE_TOL and not s.converged

    def test_linear_pair_converges_to_symmetric_state(self):
        s = run_experiment(
            P, LinearCoupling(0.001), 0.93, FAST, tail=500
        )
        assert s.converged
        tail = s.trajectory.states[-500:]
        assert np.abs(tail[:, 0] - tail[:, 2]).max() < 1e-4
        assert abs(s.trajectory.states[-1, 0] - 0.40772) < 1e-3

    def test_sigmoid_pair_reports_excitatory_synapse(self):
        s = run_experiment(
            P, SigmoidCoupling(sigma=0.001), 0.9, SHORT, tail=100
        )
        assert s.excitatory_ok is True

    @pytest.mark.parametrize("coupling", [NoCoupling(), LinearCoupling(0.008)], ids=["single", "linear"])
    def test_no_reversal_potential_gives_no_excitatory_verdict(self, coupling):
        s = run_experiment(P, coupling, 0.9, SHORT, tail=100)
        assert s.excitatory_ok is None

    def test_tail_budget_checked(self):
        with pytest.raises(InsufficientSamplesError) as info:
            run_experiment(P, NoCoupling(), 0.9, SHORT, tail=1002)
        assert str(info.value) == "tail (1002) exceeds the 1001 grid samples"

    def test_a_grid_of_any_length_holding_the_tail_is_summarized(self):
        # 30 001 samples, fewer than the command line's default discard: the
        # library discards nothing, and the summary reads the last 500
        s = run_experiment(P, NoCoupling(), 0.97, FAST)
        tail = solve_fde(NoCoupling().field, 0.97, FAST, [0.1, 0.1], P).states[-500:, 0]
        assert s.tail_amplitude_x == float(tail.max() - tail.min())
        assert s.tail_amplitude_x == pytest.approx(7.93838117634782e-05, rel=1e-6)
        assert s.converged

    def test_default_initial_state_matches_dimension(self):
        s2 = run_experiment(P, NoCoupling(), 0.9, SHORT, tail=100)
        assert s2.trajectory.states.shape[1] == 2
        s4 = run_experiment(P, LinearCoupling(0.008), 0.9, SHORT, tail=100)
        assert s4.trajectory.states.shape[1] == 4
        np.testing.assert_array_equal(s4.trajectory.states[0], [0.1, 0.1, -0.2, 0.1])

    def test_bad_initial_state_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(P, NoCoupling(), 0.9, SHORT, y0=[0.1] * 4, tail=10)


class TestStreamedRun:
    """A run that hands its rows out keeps only its tail and its highest
    voltage, and summarizes them as a run that kept every row."""

    @settings(max_examples=25, deadline=None)
    @given(
        model=st.sampled_from(["single", "linear", "sigmoid"]),
        # up to three pieces of 4096 rows and a part of a fourth
        rows=st.integers(2, 3 * 4096 + 100),
        tail_at=st.floats(0.0, 1.0),
        beta=st.floats(0.6, 1.0),
        # reversal potentials below the start, inside the run, between the
        # run's peak and the peak of its later pieces, and above it all
        v_s=st.sampled_from([0.05, 0.3, 0.45, 2.0]),
    )
    # at beta = 0.9 the sigmoid pair peaks at 0.5009 in the first piece and
    # at 0.4125 after it: v_s = 0.45 fails only a run that saw the first
    @example(model="sigmoid", rows=9000, tail_at=0.0, beta=0.9, v_s=0.45)
    @example(model="sigmoid", rows=4096, tail_at=1.0, beta=0.9, v_s=0.3)
    @example(model="single", rows=2 * 4096 + 1, tail_at=0.0, beta=1.0, v_s=2.0)
    @example(model="linear", rows=3 * 4096, tail_at=0.4, beta=0.95, v_s=2.0)
    def test_the_summary_is_the_kept_run_s(self, model, rows, tail_at, beta, v_s):
        coupling = {"single": NoCoupling(), "linear": LinearCoupling(0.008),
                    "sigmoid": SigmoidCoupling(0.001, v_s=v_s)}[model]
        cfg = SolverConfig(0.0, 0.05 * (rows - 1), 0.05)
        assert cfg.n_steps + 1 == rows
        tail = 1 + round(tail_at * (rows - 1))
        kept = run_experiment(P, coupling, beta, cfg, tail=tail)
        handed = []
        streamed = run_experiment(P, coupling, beta, cfg, tail=tail,
                                  _on_rows=lambda times, states: handed.append(len(times)))
        assert sum(handed) == rows
        assert streamed.tail_amplitude_x == kept.tail_amplitude_x
        assert streamed.converged == kept.converged
        assert streamed.excitatory_ok == kept.excitatory_ok
        # the streamed trajectory is the tail window, bit for bit
        assert np.array_equal(streamed.trajectory.times, kept.trajectory.times[-tail:])
        assert np.array_equal(streamed.trajectory.states, kept.trajectory.states[-tail:])

    def test_the_rows_go_on_to_the_hook_in_order(self):
        pieces = []
        run_experiment(P, NoCoupling(), 0.9, FAST, tail=500,
                       _on_rows=lambda times, states: pieces.append(states.copy()))
        whole = solve_fde(NoCoupling().field, 0.9, FAST, [0.1, 0.1], P)
        assert np.array_equal(np.concatenate(pieces), whole.states)


class TestBifurcationSweep:
    def test_degenerate_single_point_equals_plain_run(self):
        scan = bifurcation_sweep(
            P, NoCoupling(), (0.95, 0.95), 0.002, SHORT, tail_window=100
        )
        assert scan.beta_values.shape == (1,)
        s = run_experiment(P, NoCoupling(), 0.95, SHORT, tail=100)
        np.testing.assert_array_equal(scan.tail_samples[0, :, 0], s.trajectory.states[-100:, 0])

    def test_pair_tails_are_the_two_voltages(self):
        c = SigmoidCoupling(sigma=0.001)
        scan = bifurcation_sweep(P, c, (0.95, 0.95), 0.002, SHORT, tail_window=100)
        assert scan.tail_samples.shape == (1, 100, 2)
        s = run_experiment(P, c, 0.95, SHORT, tail=100)
        np.testing.assert_array_equal(scan.tail_samples[0], s.trajectory.states[-100:, [0, 2]])

    def test_each_solve_starts_after_the_previous_trajectory_is_freed(self, monkeypatch):
        # only a run's tail and last state outlive it; holding the whole
        # trajectory through the next solve would double the sweep's memory
        refs = []

        def spy(*args, **kwargs):
            assert all(ref() is None for ref in refs)
            traj = solve_fde(*args, **kwargs)
            refs.append(weakref.ref(traj))
            return traj

        monkeypatch.setattr(experiments, "solve_fde", spy)
        bifurcation_sweep(
            P, SigmoidCoupling(sigma=0.001), (0.97, 1.0), 0.01, SHORT, tail_window=50
        )
        assert len(refs) == 4

    def test_grid_is_descending_and_complete(self):
        scan = bifurcation_sweep(
            P, NoCoupling(), (0.99, 1.0), 0.002, SHORT, tail_window=50
        )
        np.testing.assert_allclose(
            scan.beta_values, [1.0, 0.998, 0.996, 0.994, 0.992, 0.99], atol=1e-12
        )
        assert (np.diff(scan.beta_values) < 0).all()
        assert scan.tail_samples.shape == (6, 50, 1)

    def test_grid_honors_the_step_on_non_integral_ranges(self):
        # the step is the contract; the grid stops short of the far end
        # rather than silently re-spacing
        scan = bifurcation_sweep(
            P, NoCoupling(), (0.975, 1.0), 0.01, SHORT, tail_window=20
        )
        np.testing.assert_allclose(scan.beta_values, [1.0, 0.99, 0.98], atol=1e-12)

    def test_warm_start_chain_is_bitwise(self, monkeypatch):
        starts = []

        def spy(rhs, beta, config, y0, p, **kwargs):
            starts.append(np.array(y0))
            return solve_fde(rhs, beta, config, y0, p, **kwargs)

        monkeypatch.setattr(experiments, "solve_fde", spy)
        scan = bifurcation_sweep(
            P, NoCoupling(), (0.97, 1.0), 0.01, SHORT, tail_window=50
        )
        assert len(starts) == scan.beta_values.size
        np.testing.assert_array_equal(starts[0], [0.1, 0.1])
        for k in range(scan.beta_values.size - 1):
            np.testing.assert_array_equal(starts[k + 1], scan.final_states[k])

    def test_current_comes_from_the_params(self):
        low, high = (
            bifurcation_sweep(DmlParams(I=I), NoCoupling(), (0.95, 0.95), 0.002, SHORT, tail_window=50)
            for I in (0.01, 0.019)
        )
        assert not np.array_equal(low.tail_samples, high.tail_samples)
        s = run_experiment(DmlParams(I=0.01), NoCoupling(), 0.95, SHORT, tail=50)
        np.testing.assert_array_equal(low.tail_samples[0, :, 0], s.trajectory.states[-50:, 0])

    def test_empty_tail_window_rejected_before_any_solve(self, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("solve_fde called")

        monkeypatch.setattr(experiments, "solve_fde", spy)
        with pytest.raises(ValueError, match=r"^tail must be >= 1, got 0$"):
            bifurcation_sweep(P, NoCoupling(), (0.97, 1.0), 0.01, SHORT, tail_window=0)

    # 5e13 + 1 orders: an allocation that fails at once
    def test_an_order_grid_too_long_to_allocate_is_refused_before_any_solve(self, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(experiments, "run_experiment", spy)
        with pytest.raises(GridMemoryError,
                           match=r"^the grid of 50000000000001 orders does not fit in memory$"):
            bifurcation_sweep(P, NoCoupling(), (0.5, 1.0), 1e-14, SHORT)

    def test_blow_up_flags_cell_and_continues(self):
        # an enormous drive pushes the voltage past the exp overflow range
        scan = bifurcation_sweep(
            DmlParams(I=1e6), NoCoupling(), (0.9, 1.0), 0.05,
            SolverConfig(0.0, 5.0, 0.05), tail_window=20,
        )
        assert scan.failed.all()
        assert np.isnan(scan.tail_samples).all()
        assert scan.beta_values.shape == (3,)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            bifurcation_sweep(P, NoCoupling(), (0.9, 1.1), 0.01, SHORT)
        with pytest.raises(ValueError):
            bifurcation_sweep(P, NoCoupling(), (0.9, 1.0), -0.01, SHORT)
        with pytest.raises(InsufficientSamplesError):
            bifurcation_sweep(
                P, NoCoupling(), (0.9, 1.0), 0.05, SHORT, tail_window=5000
            )


def nan_from(monkeypatch, bad_beta, call):
    """Make the solve at order ``bad_beta`` return NaN fields from its
    ``call``-th field evaluation on; the other orders solve as they are."""
    real = experiments.solve_fde

    def faulty(rhs, order, config, y0, *args, **kwargs):
        if order != bad_beta:
            return real(rhs, order, config, y0, *args, **kwargs)
        calls = itertools.count()

        def field(t, y, p):
            return rhs(t, y, p) if next(calls) < call else [math.nan] * len(y0)

        return real(field, order, config, y0, *args, **kwargs)

    monkeypatch.setattr(experiments, "solve_fde", faulty)


class TestStreamedSweep:
    """Each order of a sweep hands its rows out and keeps only its tail."""

    @pytest.mark.parametrize("first_bad", [320, 350, 64])
    def test_a_blow_up_restarts_the_next_order_from_its_last_finite_state(
            self, monkeypatch, first_bad):
        # pieces of one block, 64 rows: the middle order's first non-finite
        # state opens a piece (320 and 64), so that the solver's last piece
        # is empty, or falls inside one (350)
        monkeypatch.setattr(fde, "_PIECE", 1)
        c, betas, tail = SigmoidCoupling(sigma=0.001), [1.0, 0.99, 0.98], 50
        # node n's first field evaluation, after node 0's one and two per
        # node before it, is the 2n - 1-th: its NaN makes node n non-finite
        nan_from(monkeypatch, betas[1], 2 * first_bad - 1)
        scan = bifurcation_sweep(P, c, (0.98, 1.0), 0.01, SHORT, tail_window=tail)
        np.testing.assert_allclose(scan.beta_values, betas, atol=1e-12)
        # the same orders, each kept whole and chained by hand
        current, finals, tails = np.array([0.1, 0.1, -0.2, 0.1]), [], []
        for beta in scan.beta_values:
            try:
                run = run_experiment(P, c, beta, SHORT, current, tail=tail)
            except NonFiniteStateError as err:
                assert len(err.trajectory.times) == first_bad
                tails.append(np.full((tail, 2), np.nan))
                current = err.trajectory.states[-1]
            else:
                tails.append(run.trajectory.states[-tail:, ::2])
                current = run.trajectory.states[-1]
            finals.append(current)
        assert scan.failed.tolist() == [False, True, False]
        assert np.array_equal(scan.final_states, np.array(finals))
        assert np.array_equal(scan.tail_samples, np.array(tails), equal_nan=True)
        assert not np.array_equal(scan.final_states[1], scan.final_states[0])

    def test_a_blow_up_carries_the_tail_it_kept(self, monkeypatch):
        # the solver's own error carries only its last piece, empty here
        monkeypatch.setattr(fde, "_PIECE", 1)
        nan_from(monkeypatch, 0.95, 2 * 320 - 1)
        with pytest.raises(NonFiniteStateError) as kept:
            run_experiment(P, NoCoupling(), 0.95, SHORT, tail=100)
        with pytest.raises(NonFiniteStateError) as streamed:
            run_experiment(P, NoCoupling(), 0.95, SHORT, tail=100,
                           _on_rows=lambda times, states: None)
        assert str(streamed.value) == str(kept.value)
        whole = kept.value.trajectory
        assert np.array_equal(streamed.value.trajectory.times, whole.times[-100:])
        assert np.array_equal(streamed.value.trajectory.states, whole.states[-100:])

    @pytest.mark.slow
    def test_a_streamed_sweep_holds_no_row_count_of_memory(self, monkeypatch):
        # each solve's peak, from its first hand-over to its end, with what
        # the sweep held then, is the same for 2e4 steps as for 2e5.  Before
        # that hand-over a solve allocates, and never touches, an array of
        # the grid's size, to refuse a grid that could not be held whole
        peaks = []

        def solve(*args, _on_rows=None):
            handed = []

            def on_rows(times, states):
                if not handed:
                    tracemalloc.reset_peak()
                handed.append(len(times))
                _on_rows(times, states)

            try:
                return solve_fde(*args, _on_rows=on_rows if _on_rows else None)
            finally:
                peaks[-1] = max(peaks[-1], tracemalloc.get_traced_memory()[1])

        # tracemalloc looks up the line of every allocation; on CPython 3.11
        # that scans the line table of the long pair step unless a call
        # under a profile function has built its line array
        previous = sys.getprofile()
        sys.setprofile(lambda *args: None)
        try:
            bifurcation_sweep(P, NoCoupling(), (1.0, 1.0), 0.01, SolverConfig(0.0, 1.0, 0.01),
                              tail_window=5)
        finally:
            sys.setprofile(previous)
        monkeypatch.setattr(experiments, "solve_fde", solve)
        for n_steps in (20_000, 200_000):
            peaks.append(0)
            tracemalloc.start()
            try:
                scan = bifurcation_sweep(P, NoCoupling(), (0.99, 1.0), 0.01,
                                         SolverConfig(0.0, 0.01 * n_steps, 0.01), tail_window=500)
            finally:
                tracemalloc.stop()
            assert scan.tail_samples.shape == (2, 500, 1)
        assert peaks[1] <= 1.05 * peaks[0]
        assert peaks[1] < 0.25 * (200_001 * 3 * 8)


class TestAnnotations:
    def test_the_hints_resolve(self):
        for function in (solve_fde, run_experiment, bifurcation_sweep):
            assert typing.get_type_hints(function)["config"] is SolverConfig
        # the config has one import path
        with pytest.raises(ImportError):
            from dmlneuro.fde import SolverConfig as _  # noqa: F401


class TestSweepOnset:
    def test_onset_tracks_the_threshold_at_higher_drive(self):
        # second operating point: threshold 0.98772 at I = 0.022
        scan = bifurcation_sweep(
            DmlParams(I=0.022), NoCoupling(), (0.976, 1.0), 0.002,
            FAST, tail_window=500,
        )
        oscillating = [
            beta
            for beta, block in zip(scan.beta_values, scan.tail_samples)
            if np.ptp(block[:, 0]) >= AMPLITUDE_TOL
        ]
        assert abs(min(oscillating) - 0.98772) < 5e-3


class TestPermutationSymmetry:
    @pytest.mark.parametrize(
        "coupling", [LinearCoupling(0.008), SigmoidCoupling(sigma=0.001)]
    )
    def test_swapped_initial_conditions_swap_trajectories(self, coupling):
        rhs = coupling.field
        cfg = SolverConfig(0.0, 100.0, 0.05)
        y0 = np.array([0.1, 0.1, -0.2, 0.1])
        forward = solve_fde(rhs, 0.95, cfg, y0, P)
        swapped = solve_fde(rhs, 0.95, cfg, y0[[2, 3, 0, 1]], P)
        np.testing.assert_array_equal(
            forward.states, swapped.states[:, [2, 3, 0, 1]]
        )


class TestHopfCurve:
    def test_passes_through_reference_points(self):
        curve = hopf_curve(P, NoCoupling(), (0.016, 0.03), 100)
        assert curve.omitted == ()
        assert (np.diff(curve.I_values) > 0).all()
        for I_ref, beta_ref in ((0.019, 0.98233), (0.022, 0.98772)):
            interpolated = np.interp(I_ref, curve.I_values, curve.beta_star_values)
            assert interpolated == pytest.approx(beta_ref, abs=1e-4)

    def test_thresholds_inside_unit_interval(self):
        curve = hopf_curve(P, NoCoupling(), (0.016, 0.03), 50)
        assert all(0 < b <= 1 for b in curve.beta_star_values)

    def test_zero_strength_sigmoid_curve_identical_to_single_cell(self):
        base = hopf_curve(P, NoCoupling(), (0.016, 0.0235), 60)
        zero = hopf_curve(P, SigmoidCoupling(sigma=0.0), (0.016, 0.0235), 60)
        assert np.abs(np.subtract(base.beta_star_values, zero.beta_star_values)).max() < 1e-12

    def test_curves_shift_up_with_coupling_strength(self):
        previous = hopf_curve(P, SigmoidCoupling(sigma=0.0), (0.016, 0.0235), 40)
        for sigma in (0.0001, 0.0005, 0.001, 0.003):
            current = hopf_curve(P, SigmoidCoupling(sigma=sigma), (0.016, 0.0235), 40)
            assert len(current.I_values) == len(previous.I_values)
            assert (np.array(current.beta_star_values) >= previous.beta_star_values).all()
            previous = current

    def test_linear_curve_matches_single_cell(self):
        base = hopf_curve(P, NoCoupling(), (0.016, 0.0235), 30)
        linear = hopf_curve(P, LinearCoupling(0.008), (0.016, 0.0235), 30)
        assert np.abs(np.subtract(base.beta_star_values, linear.beta_star_values)).max() < 1e-12

    def test_deterministic_bitwise(self):
        a = hopf_curve(P, NoCoupling(), (0.016, 0.03), 50)
        b = hopf_curve(P, NoCoupling(), (0.016, 0.03), 50)
        np.testing.assert_array_equal(a.I_values, b.I_values)
        np.testing.assert_array_equal(a.beta_star_values, b.beta_star_values)

    def test_currents_off_the_unique_branch_are_omitted(self):
        # below the fold band the equilibrium is unique but over it the
        # branch is threefold; those samples are dropped with a reason
        curve = hopf_curve(P, NoCoupling(), (0.005, 0.015), 11)
        assert curve.omitted
        assert all("branch" in reason or "stable" in reason for _, reason in curve.omitted)

    def test_currents_with_five_equilibria_are_omitted(self):
        # a steep synapse opening at 0 gives g four extrema; between two of
        # its fold currents near 0.012 the pair has five equilibria
        c = SigmoidCoupling(0.0016102620275609393, lam=100.0, q=0.0)
        curve = hopf_curve(P, c, (0.0, 0.03), 31)
        assert (0.012, "equilibrium branch is fivefold") in curve.omitted
        assert len(curve.I_values) == 14

    @pytest.mark.parametrize(
        "band", [(0.016, np.inf), (np.nan, 0.0235), (-np.inf, np.inf)], ids=["inf", "nan", "both"]
    )
    def test_non_finite_band_is_rejected(self, band):
        # before linspace, whose inf * 0 would warn, and before any current is tried
        with pytest.raises(ValueError) as err:
            hopf_curve(P, NoCoupling(), band, 3)
        assert str(err.value) == f"I_range must be finite, got {band}"

    @pytest.mark.parametrize("n", [1, 3])
    def test_a_band_wider_than_the_floats_is_rejected_before_the_fold_scan(self, monkeypatch, n):
        # its width overflows, so its grid would start at 0 * inf = nan
        def spy(*args, **kwargs):
            raise AssertionError("fold_voltages called")

        monkeypatch.setattr(stability, "fold_voltages", spy)
        with pytest.raises(ValueError) as err:
            hopf_curve(P, NoCoupling(), (-1e308, 1e308), n)
        assert str(err.value) == "I_range is wider than the floats, got (-1e+308, 1e+308)"

    # 1e13 currents: an allocation that fails at once
    def test_a_band_too_long_to_allocate_is_refused_before_the_fold_scan(self, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("fold_voltages called")

        monkeypatch.setattr(stability, "fold_voltages", spy)
        with pytest.raises(GridMemoryError,
                           match=r"^the grid of 10000000000000 currents does not fit in memory$"):
            hopf_curve(P, NoCoupling(), (0.016, 0.03), 10**13)

    def test_only_numerical_failures_are_omitted(self, monkeypatch):
        # the per-current stage of the equilibrium search
        def exhausted(p, coupling, extrema, I):
            raise ConvergenceError("no root")

        monkeypatch.setattr(stability, "_roots_at", exhausted)
        curve = hopf_curve(P, NoCoupling(), (0.018, 0.02), 3)
        assert curve.I_values == () and len(curve.omitted) == 3
        assert all("no root" in reason for _, reason in curve.omitted)

        def broken(p, coupling, extrema, I):
            raise TypeError("bug")

        monkeypatch.setattr(stability, "_roots_at", broken)
        with pytest.raises(TypeError, match="bug"):
            hopf_curve(P, NoCoupling(), (0.018, 0.02), 3)

    def test_extrema_are_found_once_per_curve(self, monkeypatch):
        calls = []

        def spy(p, coupling):
            calls.append(p)
            return fold_voltages(p, coupling)

        monkeypatch.setattr(stability, "fold_voltages", spy)
        curve = hopf_curve(P, SigmoidCoupling(0.001), (0.005, 0.025), 40)
        assert len(calls) == 1
        assert curve.I_values and curve.omitted

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.floats(allow_nan=False, allow_infinity=False),
        hi=st.floats(allow_nan=False, allow_infinity=False),
        n=st.integers(1, 60),
    )
    @example(lo=0.016, hi=0.0235, n=100)  # the bench's band
    @example(lo=0.019, hi=0.019, n=1)
    @example(lo=-0.0, hi=-0.0, n=4)
    @example(lo=0.0, hi=5e-324, n=3)  # a step that underflows to zero
    @example(lo=-1e308, hi=1e308, n=1)  # a width that overflows
    @example(lo=-1e308, hi=1e308, n=5)
    def test_the_currents_are_numpy_s_linspace_bit_for_bit(self, lo, hi, n):
        # a consumer that looks a current up in np.linspace's grid by its
        # float finds every one, so none may be an ulp off
        with np.errstate(all="ignore"):
            want = np.linspace(lo, hi, n)
        assert np.array(stability._currents(lo, hi, n)).tobytes() == want.tobytes()

    @seed(20261020)
    @settings(max_examples=40, deadline=None)
    @given(
        A=st.floats(0.003, 0.005),
        alpha=st.floats(4.5, 6.0),
        gamma=st.floats(0.25, 0.35),
        coupling=st.one_of(
            st.just(NoCoupling()),
            st.floats(0.0, 0.05, exclude_min=True).map(LinearCoupling),
            st.floats(0.0, 0.05).map(SigmoidCoupling),
        ),
        below=st.floats(0.0, 0.01),
        above=st.floats(0.0, 0.01),
        n_points=st.integers(1, 50),
    )
    @example(A=0.0041, alpha=5.276, gamma=0.3, coupling=SigmoidCoupling(0.001), below=0.0,
             above=0.0, n_points=50)
    def test_one_pass_curve_equals_the_per_point_path(
        self, A, alpha, gamma, coupling, below, above, n_points
    ):
        # the curve solves each current bare, with p as given; the per-point
        # path puts the current into p and runs the whole public search
        p = DmlParams(I=0.0, A=A, alpha=alpha, gamma=gamma)
        # g = I - i_infinity + current vanishes at an extremum at the fold current
        folds = [I for kind, _, I in critical_points(p, coupling) if kind == "fold"]
        assume(len(folds) == 2)
        band = (min(folds) - below, max(folds) + above)
        curve = hopf_curve(p, coupling, band, n_points)

        kept_I, kept_beta, omitted = [], [], []
        for I in np.linspace(*band, n_points).tolist():
            p_at = replace(p, I=I)
            try:
                eq = find_symmetric_equilibria(p_at, coupling)
            except NumericalError as err:
                omitted.append((I, f"equilibrium search failed: {err}"))
                continue
            if eq.branch is not Branch.UNIQUE:
                omitted.append((I, f"equilibrium branch is {eq.branch.value}"))
                continue
            result = beta_star(eq.points[0][0], p_at, coupling)
            if result.kind is not BetaStarKind.THRESHOLD:
                omitted.append((I, result.kind.value))
                continue
            kept_I.append(I)
            kept_beta.append(result.value)
        # repr tells -0.0 from 0.0 and gives each float's shortest round trip
        assert repr(curve.I_values) == repr(tuple(kept_I))
        assert repr(curve.beta_star_values) == repr(tuple(kept_beta))
        assert repr(curve.omitted) == repr(tuple(omitted))
