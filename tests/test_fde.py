import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import dmlneuro.fde as fde
from dmlneuro.exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    NonFiniteStateError,
)
from dmlneuro.fde import (
    SolverConfig,
    check_order,
    mittag_leffler,
    pi_weights,
    solve_fde,
)
from dmlneuro.models import DmlParams, rhs_single


def decay(t, y, p):
    return -y


def zero_field(t, y, p):
    return np.zeros_like(y)


class TestCheckOrder:
    def test_accepts_scalar_in_domain(self):
        assert check_order(0.5) == 0.5
        assert check_order(1.0) == 1.0

    @pytest.mark.parametrize("bad", [0.0, -0.3, 1.0001, 1.5])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(ValueError, match=r"order must lie in \(0, 1\]"):
            check_order(bad)

    def test_rejects_vector_orders(self):
        with pytest.raises(TypeError, match="scalar order"):
            check_order([0.9, 0.8])
        with pytest.raises(TypeError):
            check_order(np.array([0.9, 0.9]))


class TestSolverConfig:
    def test_validates_grid(self):
        with pytest.raises(ValueError):
            SolverConfig(0.0, 0.0, 0.01)
        with pytest.raises(ValueError):
            SolverConfig(0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            SolverConfig(0.0, 0.005, 0.01)  # less than one step
        with pytest.raises(ValueError):
            SolverConfig(0.0, 1.0, 0.01, corrector_iterations=0)

    def test_step_count(self):
        assert SolverConfig(0.0, 1.0, 0.01).n_steps == 100
        assert SolverConfig(0.0, 6000.0, 0.01).n_steps == 600_000


class TestPiWeights:
    def test_classical_corrector_is_trapezoid(self):
        # at order 1 the opening/closing corrector weights scale to 1/2 each
        _, corr = pi_weights(1.0, 0, 1.0)
        scale = 1.0 / math.gamma(3.0)
        assert corr[0] * scale == pytest.approx(0.5, abs=1e-15)
        assert corr[-1] * scale == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("n", [0, 3, 7])
    def test_classical_predictor_is_rectangle(self, n):
        pred, _ = pi_weights(1.0, n, 0.5)
        assert pred.shape == (n + 1,)
        np.testing.assert_allclose(pred, 0.5, rtol=0, atol=1e-15)

    def test_lengths_and_finiteness(self):
        pred, corr = pi_weights(0.6, 10, 0.01)
        assert pred.shape == (11,) and corr.shape == (12,)
        assert np.isfinite(pred).all() and np.isfinite(corr).all()

    def test_weights_match_kernel_quadrature(self):
        # oracle: integrate the power-law kernel against the interpolation
        # basis on the grid, using quadrature that honors the endpoint
        # singularity; the rectangle basis gives the predictor weights, the
        # hat basis the corrector weights.
        beta, n, h = 0.8, 3, 0.7
        t_next = (n + 1) * h
        nodes = h * np.arange(n + 2)
        pred, corr = pi_weights(beta, n, h)

        def kernel_weight(lo, hi, smooth):
            # integral of (t_next - tau)^(beta-1) * smooth(tau) over [lo, hi],
            # in the variable v = (t_next - tau)^beta so the endpoint
            # singularity disappears
            u_lo, u_hi = t_next - hi, t_next - lo
            return quad(
                lambda v: smooth(t_next - v ** (1.0 / beta)) / beta,
                u_lo ** beta,
                u_hi ** beta,
                epsabs=1e-13,
                epsrel=1e-12,
                limit=200,
            )[0]

        for j in range(n + 1):
            expected = kernel_weight(nodes[j], nodes[j + 1], lambda tau: 1.0)
            assert pred[j] == pytest.approx(expected, abs=1e-10)

        def hat(j):
            def phi(tau):
                w = 1.0 - abs(tau - nodes[j]) / h
                return w if w > 0.0 else 0.0

            return phi

        corr_scale = h ** beta / (beta * (beta + 1.0))  # per-weight kernel mass
        for j in range(n + 2):
            lo = nodes[max(j - 1, 0)]
            hi = nodes[min(j + 1, n + 1)]
            expected = kernel_weight(lo, hi, hat(j))
            assert corr[j] * corr_scale == pytest.approx(expected, abs=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pi_weights(0.9, -1, 0.1)
        with pytest.raises(ValueError):
            pi_weights(0.9, 2, 0.0)


class TestMittagLeffler:
    def test_classical_exponential(self):
        assert mittag_leffler(1.0, 1.0) == pytest.approx(math.e, abs=1e-6)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9, 1.0])
    def test_value_at_zero(self, beta):
        assert mittag_leffler(beta, 0.0) == 1.0

    def test_half_order_against_erfc_quadrature(self):
        # closed identity at order 1/2: exp(z^2) * erfc(-z); erfc evaluated
        # by quadrature, independent of the series
        erfc_1 = (2.0 / math.sqrt(math.pi)) * quad(
            lambda u: math.exp(-u * u), 1.0, np.inf
        )[0]
        expected = math.e * erfc_1
        assert mittag_leffler(0.5, -1.0) == pytest.approx(expected, abs=1e-6)

    def test_argument_budget(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.5, 51.0)

    def test_overflowing_series_reports_convergence_failure(self):
        with pytest.raises(ConvergenceError):
            mittag_leffler(0.5, -50.0)


class TestSolveFde:
    def test_constant_solution_invariance(self):
        for beta in (0.3, 0.6, 1.0):
            traj = solve_fde(zero_field, beta, SolverConfig(0.0, 2.0, 0.01), [0.7])
            assert np.abs(traj.states - 0.7).max() <= 1e-14

    def test_grid_is_uniform_and_complete(self):
        cfg = SolverConfig(0.0, 1.0, 0.01)
        traj = solve_fde(decay, 0.8, cfg, [1.0])
        assert traj.states.shape == (cfg.n_steps + 1, 1)
        assert traj.times.shape == (cfg.n_steps + 1,)
        steps = np.diff(traj.times)
        assert np.abs(steps - cfg.h).max() <= 1e-12 * cfg.h
        assert np.isfinite(traj.states).all()
        assert traj.states[0, 0] == 1.0

    def test_classical_decay_matches_exponential(self):
        traj = solve_fde(decay, 1.0, SolverConfig(0.0, 1.0, 1e-3), [1.0])
        err = np.abs(traj.states[:, 0] - np.exp(-traj.times)).max()
        assert err < 1e-5

    def test_classical_limit_is_second_order(self):
        errs = []
        for h in (2e-3, 1e-3):
            traj = solve_fde(decay, 1.0, SolverConfig(0.0, 1.0, h), [1.0])
            errs.append(np.abs(traj.states[:, 0] - np.exp(-traj.times)).max())
        assert errs[0] / errs[1] >= 3.5

    @pytest.mark.parametrize("beta", [0.5, 0.7, 0.9])
    def test_fractional_convergence_order(self, beta):
        exact = mittag_leffler(beta, -1.0)
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            traj = solve_fde(decay, beta, SolverConfig(0.0, 1.0, h), [1.0])
            errs.append(abs(traj.states[-1, 0] - exact))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 1.0 + beta - 0.2

    def test_corrector_iterations_refine_toward_implicit_solution(self):
        one = solve_fde(decay, 0.9, SolverConfig(0.0, 1.0, 1e-2), [1.0])
        three = solve_fde(
            decay, 0.9, SolverConfig(0.0, 1.0, 1e-2, corrector_iterations=3), [1.0]
        )
        exact = mittag_leffler(0.9, -1.0)
        assert abs(three.states[-1, 0] - exact) <= abs(one.states[-1, 0] - exact)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            solve_fde(lambda t, y, p: np.zeros(3), 0.9, SolverConfig(0.0, 1.0, 0.1), [1.0, 2.0])

    def test_vector_order_rejected(self):
        with pytest.raises(TypeError):
            solve_fde(decay, [0.9, 0.8], SolverConfig(0.0, 1.0, 0.1), [1.0, 1.0])

    def test_blow_up_returns_partial_trajectory(self):
        def explode(t, y, p):
            return np.exp(y)

        with pytest.raises(NonFiniteStateError) as info:
            solve_fde(explode, 1.0, SolverConfig(0.0, 1.0, 0.01), [1.0])
        partial = info.value.trajectory
        assert partial is not None
        assert 0 < partial.states.shape[0] < 101
        assert np.isfinite(partial.states).all()
        assert partial.times.shape[0] == partial.states.shape[0]

    def test_classical_limit_matches_independent_integrator_on_neuron(self):
        # order-one run of the nonlinear model against an adaptive
        # Runge-Kutta reference from a different integrator family
        from scipy.integrate import solve_ivp

        p = DmlParams(I=0.019)
        cfg = SolverConfig(0.0, 50.0, 0.005)
        ours = solve_fde(rhs_single, 1.0, cfg, [0.1, 0.1], p)
        ref = solve_ivp(
            lambda t, y: rhs_single(t, y, p),
            (0.0, 50.0),
            [0.1, 0.1],
            rtol=1e-10,
            atol=1e-12,
            dense_output=True,
        )
        err = np.abs(ours.states - ref.sol(ours.times).T).max()
        assert err < 1e-4

    def test_start_time_only_shifts_the_clock(self):
        # memory accumulates from t_start, so an autonomous problem is
        # invariant under translating the window
        base = solve_fde(decay, 0.7, SolverConfig(0.0, 1.0, 0.01), [1.0])
        moved = solve_fde(decay, 0.7, SolverConfig(5.0, 6.0, 0.01), [1.0])
        np.testing.assert_array_equal(base.states, moved.states)
        assert moved.times[0] == 5.0

    def test_determinism_bitwise(self):
        p = DmlParams(I=0.019)
        cfg = SolverConfig(0.0, 20.0, 0.01)
        a = solve_fde(rhs_single, 0.9, cfg, [0.1, 0.1], p)
        b = solve_fde(rhs_single, 0.9, cfg, [0.1, 0.1], p)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    def test_concurrent_solves_match_serial(self):
        p = DmlParams(I=0.019)
        cfg = SolverConfig(0.0, 10.0, 0.01)
        betas = [0.7, 0.8, 0.9, 1.0]
        serial = [solve_fde(rhs_single, b, cfg, [0.1, 0.1], p).states for b in betas]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(
                pool.map(lambda b: solve_fde(rhs_single, b, cfg, [0.1, 0.1], p).states, betas)
            )
        for s, q in zip(serial, parallel):
            assert np.array_equal(s, q)


def reference_pece(rhs, order, config, y0, params=None):
    """Direct-sum PECE: the full product-integration weights at every step.

    The reference the blocked engine is checked against; it reads its
    weights from ``pi_weights``, which quadrature checks independently.
    """
    y0 = np.asarray(y0, dtype=float)
    n_steps, h = config.n_steps, config.h
    times = config.t_start + h * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, y0.size))
    F = np.empty_like(states)
    states[0], F[0] = y0, rhs(times[0], y0, params)
    ca = h ** order / math.gamma(order + 2.0)
    for n in range(n_steps):
        pred, corr = pi_weights(order, n, h)
        y_new = y0 + pred @ F[: n + 1] / math.gamma(order)
        base = y0 + ca * (corr[: n + 1] @ F[: n + 1])
        f_new = rhs(times[n + 1], y_new, params)
        for _ in range(config.corrector_iterations):
            y_new = base + ca * corr[n + 1] * f_new
            f_new = rhs(times[n + 1], y_new, params)
        states[n + 1], F[n + 1] = y_new, f_new
    return states


class TestFftPath:
    def test_equivalent_to_direct_on_neuron_run(self):
        # 1e4 steps so the blocked history fold actually engages
        p = DmlParams(I=0.019)
        y0 = [0.1, 0.1]
        cfg = SolverConfig(0.0, 100.0, 0.01)
        fast = solve_fde(rhs_single, 0.9, cfg, y0, p)
        direct = reference_pece(rhs_single, 0.9, cfg, y0, p)
        assert np.abs(direct - fast.states).max() < 1e-8

    def test_equivalent_across_many_blocks(self, monkeypatch):
        monkeypatch.setattr(fde, "_FFT_BLOCK", 128)
        cfg = SolverConfig(0.0, 2.0, 1e-3)
        fast = solve_fde(decay, 0.6, cfg, [1.0])
        direct = reference_pece(decay, 0.6, cfg, [1.0])
        assert np.abs(direct - fast.states).max() < 1e-10

    def test_equivalent_for_four_dimensional_state(self, monkeypatch):
        from dmlneuro.models import LinearCoupling, vector_field

        monkeypatch.setattr(fde, "_FFT_BLOCK", 256)
        p = DmlParams(I=0.019)
        rhs, _ = vector_field(LinearCoupling(0.008))
        y0 = [0.1, 0.1, -0.2, 0.1]
        cfg = SolverConfig(0.0, 30.0, 0.01)
        fast = solve_fde(rhs, 0.95, cfg, y0, p)
        direct = reference_pece(rhs, 0.95, cfg, y0, p)
        assert np.abs(direct - fast.states).max() < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(
        block=st.integers(2, 64),
        beta=st.floats(0.3, 1.0),
        n_steps=st.integers(1, 300),
    )
    def test_any_block_size_matches_the_direct_sum(self, block, beta, n_steps):
        p = DmlParams(I=0.019)
        cfg = SolverConfig(0.0, 0.05 * n_steps, 0.05)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fde, "_FFT_BLOCK", block)
            fast = solve_fde(rhs_single, beta, cfg, [0.1, 0.1], p)
        direct = reference_pece(rhs_single, beta, cfg, [0.1, 0.1], p)
        assert np.abs(direct - fast.states).max() < 1e-10


@pytest.mark.slow
def test_full_resolution_single_cell_converges_to_equilibrium():
    # the long-run protocol: t in [0, 6000] with h = 0.01; the blocked FFT
    # history keeps this tractable
    p = DmlParams(I=0.019)
    cfg = SolverConfig(0.0, 6000.0, 0.01)
    traj = solve_fde(rhs_single, 0.9, cfg, [0.1, 0.1], p)
    final_tenth = traj.states[-(cfg.n_steps // 10) :]
    dev = np.abs(final_tenth - np.array([0.40772, 0.11746])).max()
    assert dev < 1e-3
