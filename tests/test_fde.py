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
    solve_fde,
)
from dmlneuro.models import DmlParams, NoCoupling, SigmoidCoupling, vector_field

single_field = vector_field(NoCoupling())[0]


def decay(t, y, p):
    return [-v for v in y]


def zero_field(t, y, p):
    return [0.0] * len(y)


def explode(t, y, p):
    # y' = e^y, with overflow reported as inf as the model fields do
    return [math.exp(v) if v < 709.0 else math.inf for v in y]


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
        ours = solve_fde(single_field, 1.0, cfg, [0.1, 0.1], p)
        ref = solve_ivp(
            lambda t, y: single_field(t, y, p),
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
        a = solve_fde(single_field, 0.9, cfg, [0.1, 0.1], p)
        b = solve_fde(single_field, 0.9, cfg, [0.1, 0.1], p)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    def test_concurrent_solves_match_serial(self):
        p = DmlParams(I=0.019)
        cfg = SolverConfig(0.0, 10.0, 0.01)
        betas = [0.7, 0.8, 0.9, 1.0]
        serial = [solve_fde(single_field, b, cfg, [0.1, 0.1], p).states for b in betas]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(
                pool.map(lambda b: solve_fde(single_field, b, cfg, [0.1, 0.1], p).states, betas)
            )
        for s, q in zip(serial, parallel):
            assert np.array_equal(s, q)


def pi_weights(order, n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Product-integration weights for the step from node ``n`` to ``n+1``.

    Returns ``(predictor, corrector)``.  The predictor weights (length
    ``n+1``, already carrying the ``h**beta / beta`` factor) multiply the
    vector-field samples at nodes ``0..n`` under a ``1/gamma(beta)``
    prefactor.  The corrector weights (length ``n+2``) multiply the samples
    at nodes ``0..n+1`` and are scaled by ``h**beta / gamma(beta+2)`` at the
    point of use.  Built from the engine's own lag kernels, which the
    quadrature tests below check independently.
    """
    beta = check_order(order)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    predictor = (h ** beta / beta) * fde._predictor_kernel(beta, n)[::-1]
    corrector = np.empty(n + 2)
    corrector[0] = fde._corrector_initial(beta, n)
    if n >= 1:
        corrector[1 : n + 1] = fde._corrector_kernel(beta, n)[1:][::-1]
    corrector[n + 1] = 1.0
    return predictor, corrector


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


def reference_pece(rhs, order, config, y0, params=None):
    """Direct-sum PECE: the full product-integration weights at every step.

    The reference the blocked engine is checked against; it reads its
    weights from ``pi_weights``, which quadrature checks independently, and
    calls ``rhs`` as the solver does, with a list of floats.
    """

    def field(t, y):
        return np.asarray(rhs(t, y.tolist(), params), dtype=float)

    y0 = np.asarray(y0, dtype=float)
    n_steps, h = config.n_steps, config.h
    times = config.t_start + h * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, y0.size))
    F = np.empty_like(states)
    states[0], F[0] = y0, field(times[0], y0)
    ca = h ** order / math.gamma(order + 2.0)
    for n in range(n_steps):
        pred, corr = pi_weights(order, n, h)
        y_new = y0 + pred @ F[: n + 1] / math.gamma(order)
        base = y0 + ca * (corr[: n + 1] @ F[: n + 1])
        f_new = field(times[n + 1], y_new)
        for _ in range(config.corrector_iterations):
            y_new = base + ca * corr[n + 1] * f_new
            f_new = field(times[n + 1], y_new)
        states[n + 1], F[n + 1] = y_new, f_new
    return states


class TestFftPath:
    def test_equivalent_to_direct_on_neuron_run(self):
        # 1e4 steps so the blocked history fold actually engages
        p = DmlParams(I=0.019)
        y0 = [0.1, 0.1]
        cfg = SolverConfig(0.0, 100.0, 0.01)
        fast = solve_fde(single_field, 0.9, cfg, y0, p)
        direct = reference_pece(single_field, 0.9, cfg, y0, p)
        assert np.abs(direct - fast.states).max() < 1e-8

    def test_equivalent_across_many_blocks(self, monkeypatch):
        monkeypatch.setattr(fde, "_FFT_BLOCK", 128)
        cfg = SolverConfig(0.0, 2.0, 1e-3)
        fast = solve_fde(decay, 0.6, cfg, [1.0])
        direct = reference_pece(decay, 0.6, cfg, [1.0])
        assert np.abs(direct - fast.states).max() < 1e-10

    def test_equivalent_for_four_dimensional_state(self, monkeypatch):
        from dmlneuro.models import LinearCoupling

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
            fast = solve_fde(single_field, beta, cfg, [0.1, 0.1], p)
        direct = reference_pece(single_field, beta, cfg, [0.1, 0.1], p)
        assert np.abs(direct - fast.states).max() < 1e-10


def assert_exact_finite_prefix(field):
    """Blow ``field`` up; the error must carry exactly the states before the
    first non-finite one."""
    block = 8
    cfg = SolverConfig(0.0, 1.0, 0.005)
    with np.errstate(over="ignore", invalid="ignore"):
        direct = reference_pece(field, 0.8, cfg, [1.0])
    first_bad = int(np.isfinite(direct).all(axis=1).argmin())
    # past three squares, and not on a block boundary
    assert first_bad > 4 * block and first_bad % block > 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fde, "_FFT_BLOCK", block)
        with pytest.raises(NonFiniteStateError) as info:
            solve_fde(field, 0.8, cfg, [1.0])
    partial = info.value.trajectory
    assert partial.states.shape[0] == partial.times.shape[0] == first_bad
    # the last finite states are near the float range, so compare relatively
    np.testing.assert_allclose(partial.states, direct[:first_bad], rtol=1e-10, atol=0)


def smooth_length(n):
    """Smallest integer >= n with no prime factor above 5, by trial."""
    while True:
        k = n
        for f in (2, 3, 5):
            while k % f == 0:
                k //= f
        if k == 1:
            return n
        n += 1


class TestNestedSquares:
    @settings(max_examples=25, deadline=None)
    @given(
        block=st.integers(2, 16),
        extra=st.integers(0, 600 - 16 * 16),
        beta=st.floats(0.3, 1.0),
        model=st.sampled_from(["single", "sigmoid-pair"]),
        iterations=st.integers(1, 3),
    )
    def test_every_level_matches_the_direct_sum(self, block, extra, beta, model, iterations):
        # at least 16 blocks, so squares of block * 2**l run for l = 0..4
        n_steps = 16 * block + extra
        p = DmlParams(I=0.019)
        if model == "single":
            rhs, y0 = single_field, [0.1, 0.1]
        else:
            rhs, y0 = vector_field(SigmoidCoupling(0.001))[0], [0.1, 0.1, -0.2, 0.1]
        cfg = SolverConfig(0.0, 0.05 * n_steps, 0.05, corrector_iterations=iterations)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fde, "_FFT_BLOCK", block)
            fast = solve_fde(rhs, beta, cfg, y0, p)
        direct = reference_pece(rhs, beta, cfg, y0, p)
        assert np.abs(direct - fast.states).max() < 1e-10

    def test_blow_up_keeps_the_exact_finite_prefix(self):
        assert_exact_finite_prefix(explode)

    def test_fold_work_grows_as_n_log_n(self):
        block, n_steps, dim = 8, 20_000, 2
        lengths, points = [], [0]
        evals = [0]
        by_square = {}  # q0 -> lengths of the transforms made there

        def counting(transform):
            def counted(a, n=None, *args, **kwargs):
                a = np.asarray(a)
                length = n if n is not None else a.shape[-1]
                lengths.append(length)
                points[0] += length * (a.size // max(a.shape[-1], 1))
                # steps 1 .. q0 - 1 precede the square at q0, two evaluations
                # each after the one at node 0
                by_square.setdefault((evals[0] + 1) // 2, []).append(length)
                return transform(a, n, *args, **kwargs)

            return counted

        def field(t, y, p):
            evals[0] += 1
            return single_field(t, y, p)

        p = DmlParams(I=0.019)
        cfg = SolverConfig(0.0, 0.05 * n_steps, 0.05)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fde, "_FFT_BLOCK", block)
            for name in ("rfft", "irfft"):
                mp.setattr(np.fft, name, counting(getattr(np.fft, name)))
            solve_fde(field, 0.9, cfg, [0.1, 0.1], p)
        largest_square = block << int(math.log2(n_steps / block))
        assert max(lengths) <= 2 * largest_square
        assert points[0] <= 4 * dim * n_steps * math.ceil(math.log2(n_steps / block))

        clipped = 0
        for q0 in range(block, n_steps + 1, block):
            side = block * ((q0 // block) & -(q0 // block))
            targets = min(q0 + side, n_steps + 1) - q0
            longest = max(by_square[q0])
            if targets < side:
                # a clipped square transforms at no more than the least
                # 5-smooth length that holds sources and targets
                clipped += 1
                assert longest <= smooth_length(side + targets)
            else:
                assert longest <= 2 * side
        assert set(by_square) == set(range(block, n_steps + 1, block))
        assert clipped >= 2


class TestFieldContract:
    P = DmlParams(I=0.019)
    Y0 = [0.1, 0.1, -0.2, 0.1]
    # 2000 steps, so squares of several sizes and a clipped last one run
    CFG = SolverConfig(0.0, 100.0, 0.05)

    def test_rhs_receives_a_list_of_floats(self):
        pair = vector_field(SigmoidCoupling(0.001))[0]
        seen = []

        def field(t, y, p):
            seen.append((type(t), type(y), len(y), frozenset(map(type, y))))
            return pair(t, y, p)

        cfg = SolverConfig(0.0, 10.0, 0.05, corrector_iterations=2)
        solve_fde(field, 0.9, cfg, self.Y0, self.P)
        assert len(seen) == 1 + 3 * 200
        assert set(seen) == {(float, list, 4, frozenset({float}))}

    @pytest.mark.parametrize("wrap", [list, np.array])
    def test_any_returned_sequence_gives_the_same_bits(self, wrap):
        pair = vector_field(SigmoidCoupling(0.001))[0]
        as_tuple = solve_fde(pair, 0.95, self.CFG, self.Y0, self.P)
        wrapped = solve_fde(lambda t, y, p: wrap(pair(t, y, p)), 0.95, self.CFG, self.Y0, self.P)
        assert isinstance(pair(0.0, self.Y0, self.P), tuple)
        assert np.array_equal(as_tuple.states, wrapped.states)

    @pytest.mark.parametrize("length", [1, 3])
    def test_returned_tuple_of_wrong_length_is_rejected(self, length):
        with pytest.raises(DimensionMismatchError):
            solve_fde(
                lambda t, y, p: (0.0,) * length, 0.9, SolverConfig(0.0, 1.0, 0.1), [1.0, 2.0]
            )

    def test_blow_up_keeps_the_exact_finite_prefix_with_tuples(self):
        assert_exact_finite_prefix(lambda t, y, p: tuple(explode(t, y, p)))


@pytest.mark.slow
def test_full_resolution_single_cell_converges_to_equilibrium():
    # the long-run protocol: t in [0, 6000] with h = 0.01; the blocked FFT
    # history keeps this tractable
    p = DmlParams(I=0.019)
    cfg = SolverConfig(0.0, 6000.0, 0.01)
    traj = solve_fde(single_field, 0.9, cfg, [0.1, 0.1], p)
    final_tenth = traj.states[-(cfg.n_steps // 10) :]
    dev = np.abs(final_tenth - np.array([0.40772, 0.11746])).max()
    assert dev < 1e-3
