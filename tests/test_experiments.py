import weakref

import numpy as np
import pytest

from dmlneuro import experiments
from dmlneuro.exceptions import InsufficientSamplesError, RootWindowExhaustedError
from dmlneuro.fde import SolverConfig, solve_fde
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

P = DmlParams(I=0.019)
# desk-scale grid: same dichotomy as the full protocol at a fraction of the cost
FAST = SolverConfig(0.0, 1500.0, 0.05)
SHORT = SolverConfig(0.0, 50.0, 0.05)


class TestOscillationMetrics:
    def test_constant_sequence(self):
        m = oscillation_metrics(np.full(100, 3.7))
        assert (m.amplitude, m.is_oscillating, m.extrema_count) == (0.0, False, 0)

    def test_sampled_sinusoid(self):
        t = np.linspace(0.0, 4.0 * np.pi, 100)
        m = oscillation_metrics(1.0 + np.sin(t))
        assert m.amplitude == pytest.approx(2.0, abs=0.01)
        assert m.is_oscillating
        assert m.extrema_count == 4

    def test_requires_three_samples(self):
        with pytest.raises(InsufficientSamplesError):
            oscillation_metrics([1.0, 2.0])

    def test_monotone_ramp_has_no_extrema(self):
        m = oscillation_metrics(np.linspace(0.0, 1.0, 50))
        assert m.extrema_count == 0 and m.is_oscillating


class TestRunExperiment:
    def test_converges_below_threshold_order(self):
        s = run_experiment(P, NoCoupling(), 0.9, FAST, discard=10_000, tail=500)
        assert s.converged
        assert s.tail_amplitude_x < 1e-4
        assert abs(s.final_state[0] - 0.40772) < 1e-3

    def test_oscillates_above_threshold_order(self):
        s = run_experiment(P, NoCoupling(), 0.99, FAST, discard=10_000, tail=500)
        assert not s.converged
        assert s.tail_amplitude_x > 0.05

    def test_spiking_tail_metrics_at_order_one(self):
        s = run_experiment(P, NoCoupling(), 1.0, FAST, discard=10_000, tail=500)
        # thin the tail to span several spike periods in 500 samples
        m = oscillation_metrics(s.trajectory.states[::10][-500:, 0])
        assert m.is_oscillating and m.extrema_count > 10

    def test_linear_pair_converges_to_symmetric_state(self):
        s = run_experiment(
            P, LinearCoupling(0.001), 0.93, FAST, discard=10_000, tail=500
        )
        assert s.converged
        tail = s.trajectory.states[-500:]
        assert np.abs(tail[:, 0] - tail[:, 2]).max() < 1e-4
        assert abs(s.final_state[0] - 0.40772) < 1e-3

    def test_sigmoid_pair_reports_excitatory_synapse(self):
        s = run_experiment(
            P, SigmoidCoupling(sigma=0.001), 0.9, SHORT, discard=0, tail=100
        )
        assert s.excitatory_ok is True

    @pytest.mark.parametrize("coupling", [NoCoupling(), LinearCoupling(0.008)], ids=["single", "linear"])
    def test_no_reversal_potential_gives_no_excitatory_verdict(self, coupling):
        s = run_experiment(P, coupling, 0.9, SHORT, discard=0, tail=100)
        assert s.excitatory_ok is None

    def test_discard_tail_budget_checked(self):
        with pytest.raises(InsufficientSamplesError):
            run_experiment(P, NoCoupling(), 0.9, SHORT, discard=990, tail=500)

    def test_default_initial_state_matches_dimension(self):
        s2 = run_experiment(P, NoCoupling(), 0.9, SHORT, discard=0, tail=100)
        assert s2.trajectory.states.shape[1] == 2
        s4 = run_experiment(P, LinearCoupling(0.008), 0.9, SHORT, discard=0, tail=100)
        assert s4.trajectory.states.shape[1] == 4
        np.testing.assert_array_equal(s4.trajectory.states[0], [0.1, 0.1, -0.2, 0.1])

    def test_bad_initial_state_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(P, NoCoupling(), 0.9, SHORT, y0=[0.1] * 4, discard=0, tail=10)


class TestBifurcationSweep:
    def test_degenerate_single_point_equals_plain_run(self):
        scan = bifurcation_sweep(
            P, NoCoupling(), 0.019, (0.95, 0.95), 0.002, SHORT, tail_window=100
        )
        assert scan.beta_values.shape == (1,)
        s = run_experiment(P, NoCoupling(), 0.95, SHORT, discard=0, tail=100)
        np.testing.assert_array_equal(scan.tail_samples[0, :, 0], s.trajectory.states[-100:, 0])

    def test_pair_tails_are_the_two_voltages(self):
        c = SigmoidCoupling(sigma=0.001)
        scan = bifurcation_sweep(P, c, 0.019, (0.95, 0.95), 0.002, SHORT, tail_window=100)
        assert scan.tail_samples.shape == (1, 100, 2)
        s = run_experiment(P, c, 0.95, SHORT, discard=0, tail=100)
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
            P, SigmoidCoupling(sigma=0.001), 0.019, (0.97, 1.0), 0.01, SHORT, tail_window=50
        )
        assert len(refs) == 4

    def test_grid_is_descending_and_complete(self):
        scan = bifurcation_sweep(
            P, NoCoupling(), 0.019, (0.99, 1.0), 0.002, SHORT, tail_window=50
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
            P, NoCoupling(), 0.019, (0.975, 1.0), 0.01, SHORT, tail_window=20
        )
        np.testing.assert_allclose(scan.beta_values, [1.0, 0.99, 0.98], atol=1e-12)

    def test_warm_start_chain_is_bitwise(self):
        scan = bifurcation_sweep(
            P, NoCoupling(), 0.019, (0.97, 1.0), 0.01, SHORT, tail_window=50
        )
        assert scan.warm_start
        for k in range(scan.beta_values.size - 1):
            np.testing.assert_array_equal(scan.initial_states[k + 1], scan.final_states[k])
        np.testing.assert_array_equal(scan.initial_states[0], [0.1, 0.1])

    def test_ascending_direction_available(self):
        scan = bifurcation_sweep(
            P, NoCoupling(), 0.019, (0.97, 1.0), 0.01, SHORT,
            tail_window=50, descending=False,
        )
        assert (np.diff(scan.beta_values) > 0).all()

    def test_blow_up_flags_cell_and_continues(self):
        # an enormous drive pushes the voltage past the exp overflow range
        scan = bifurcation_sweep(
            DmlParams(I=1e6), NoCoupling(), 1e6, (0.9, 1.0), 0.05,
            SolverConfig(0.0, 5.0, 0.05), tail_window=20,
        )
        assert scan.failed.all()
        assert np.isnan(scan.tail_samples).all()
        assert scan.beta_values.shape == (3,)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            bifurcation_sweep(P, NoCoupling(), 0.019, (0.9, 1.1), 0.01, SHORT)
        with pytest.raises(ValueError):
            bifurcation_sweep(P, NoCoupling(), 0.019, (0.9, 1.0), -0.01, SHORT)
        with pytest.raises(InsufficientSamplesError):
            bifurcation_sweep(
                P, NoCoupling(), 0.019, (0.9, 1.0), 0.05, SHORT, tail_window=5000
            )


class TestSweepOnset:
    def test_onset_tracks_the_threshold_at_higher_drive(self):
        # second operating point: threshold 0.98772 at I = 0.022
        scan = bifurcation_sweep(
            DmlParams(I=0.022), NoCoupling(), 0.022, (0.976, 1.0), 0.002,
            FAST, tail_window=500,
        )
        oscillating = [
            beta
            for beta, block in zip(scan.beta_values, scan.tail_samples)
            if oscillation_metrics(block[:, 0]).is_oscillating
        ]
        assert abs(min(oscillating) - 0.98772) < 5e-3


class TestPermutationSymmetry:
    @pytest.mark.parametrize(
        "coupling", [LinearCoupling(0.008), SigmoidCoupling(sigma=0.001)]
    )
    def test_swapped_initial_conditions_swap_trajectories(self, coupling):
        rhs, _ = vector_field(coupling)
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
        assert ((curve.beta_star_values > 0) & (curve.beta_star_values <= 1)).all()

    def test_zero_strength_sigmoid_curve_identical_to_single_cell(self):
        base = hopf_curve(P, NoCoupling(), (0.016, 0.0235), 60)
        zero = hopf_curve(P, SigmoidCoupling(sigma=0.0), (0.016, 0.0235), 60)
        assert np.abs(base.beta_star_values - zero.beta_star_values).max() < 1e-12

    def test_curves_shift_up_with_coupling_strength(self):
        previous = hopf_curve(P, SigmoidCoupling(sigma=0.0), (0.016, 0.0235), 40)
        for sigma in (0.0001, 0.0005, 0.001, 0.003):
            current = hopf_curve(P, SigmoidCoupling(sigma=sigma), (0.016, 0.0235), 40)
            assert current.I_values.shape == previous.I_values.shape
            assert (current.beta_star_values >= previous.beta_star_values).all()
            previous = current

    def test_linear_curve_matches_single_cell(self):
        base = hopf_curve(P, NoCoupling(), (0.016, 0.0235), 30)
        linear = hopf_curve(P, LinearCoupling(0.008), (0.016, 0.0235), 30)
        assert np.abs(base.beta_star_values - linear.beta_star_values).max() < 1e-12

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

    def test_only_numerical_failures_are_omitted(self, monkeypatch):
        def exhausted(p, coupling):
            raise RootWindowExhaustedError("no root")

        monkeypatch.setattr(experiments, "find_symmetric_equilibria", exhausted)
        curve = hopf_curve(P, NoCoupling(), (0.018, 0.02), 3)
        assert curve.I_values.size == 0 and len(curve.omitted) == 3
        assert all("no root" in reason for _, reason in curve.omitted)

        def broken(p, coupling):
            raise TypeError("bug")

        monkeypatch.setattr(experiments, "find_symmetric_equilibria", broken)
        with pytest.raises(TypeError, match="bug"):
            hopf_curve(P, NoCoupling(), (0.018, 0.02), 3)

    def test_coupling_label(self):
        assert hopf_curve(P, NoCoupling(), (0.018, 0.02), 3).coupling_label == "single"
        assert "sigma=0.001" in hopf_curve(
            P, SigmoidCoupling(sigma=0.001), (0.018, 0.02), 3
        ).coupling_label
