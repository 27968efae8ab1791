import collections
import decimal
import gc
import itertools
import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import dmlneuro.fde as fde
from dmlneuro.exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    GridMemoryError,
    NonFiniteStateError,
)
from dmlneuro.fde import mittag_leffler, solve_fde
from dmlneuro.models import (
    DmlParams,
    LinearCoupling,
    NoCoupling,
    SigmoidCoupling,
    SolverConfig,
    check_order,
)

single_field = NoCoupling().field


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t_start", math.nan),
            ("t_start", -math.inf),
            ("t_end", math.inf),
            ("h", math.nan),
            ("h", math.inf),
        ],
    )
    def test_rejects_a_non_finite_grid_and_non_integer_iterations(self, field, value):
        kwargs = dict(t_start=0.0, t_end=1.0, h=0.01)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            SolverConfig(**kwargs)

    # finite bounds and step whose step count, or span, overflows a float
    @pytest.mark.parametrize("t_start, t_end, h", [(0.0, 1e300, 1e-300), (-1e308, 1e308, 1.0)])
    def test_rejects_a_step_count_that_is_not_finite(self, t_start, t_end, h):
        with pytest.raises(ValueError) as info:
            SolverConfig(t_start, t_end, h)
        assert str(info.value) == "the step count (t_end - t_start) / h must be finite, got inf"

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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            solve_fde(lambda t, y, p: np.zeros(3), 0.9, SolverConfig(0.0, 1.0, 0.1), [1.0, 2.0])

    def test_vector_order_rejected(self):
        with pytest.raises(TypeError):
            solve_fde(decay, [0.9, 0.8], SolverConfig(0.0, 1.0, 0.1), [1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_state_rejected(self, bad):
        calls = []

        def field(t, y, p):
            calls.append(t)
            return decay(t, y, p)

        with pytest.raises(ValueError, match=r"y0 must be finite, got \[0\.1, (nan|-?inf)\]"):
            solve_fde(field, 0.9, SolverConfig(0.0, 1.0, 0.1), [0.1, bad])
        # rejected before any work: the field is never evaluated
        assert calls == []

    def test_blow_up_returns_partial_trajectory(self):
        with pytest.raises(NonFiniteStateError) as info:
            solve_fde(explode, 1.0, SolverConfig(0.0, 1.0, 0.01), [1.0])
        partial = info.value.trajectory
        assert partial is not None
        assert 0 < partial.states.shape[0] < 101
        assert np.isfinite(partial.states).all()
        assert partial.times.shape[0] == partial.states.shape[0]

    def test_finite_states_whose_sum_overflows_are_no_blow_up(self):
        # every state is 1e308, so a block's sum overflows to inf: the
        # per-block check then scans the states and finds them all finite
        traj = solve_fde(zero_field, 0.9, SolverConfig(0.0, 2.0, 0.01), [1e308, 1e308])
        assert (traj.states == 1e308).all()

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
    quadrature test below checks independently, and the 34-digit test at
    lags up to 6e5.
    """
    beta = check_order(order)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    predictor = (h ** beta / beta) * fde._predictor_kernel(beta, np.arange(n + 1, 0, -1))
    corrector = np.empty(n + 2)
    corrector[0] = fde._corrector_initial(beta, n)
    corrector[1 : n + 1] = fde._corrector_kernel(beta, np.arange(n, 0, -1))
    corrector[n + 1] = 1.0
    return predictor, corrector


def exact_kernels(beta: float, n: int) -> tuple[float, float, float]:
    """The predictor and corrector kernels at lag ``n`` and the node-0
    corrector weight of the step from node ``n``, unscaled, to 34
    significant digits and rounded to floats.  The terms are about n**2 /
    beta times the result, so they carry that many more digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 34 + math.ceil(math.log10(4 * n * n) - math.log10(beta))
        b, k = decimal.Decimal(beta), decimal.Decimal(n)
        e = b + 1
        return (
            float(k ** b - (k - 1) ** b),
            float((k + 1) ** e - 2 * k ** e + (k - 1) ** e),
            float(k ** e - (k - b) * (k + 1) ** b),
        )


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

    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.9, 1.0])
    def test_kernels_match_34_digit_weights(self, beta):
        # written without cancellation, each kernel keeps a relative error
        # of a few eps * n / beta, where the textbook forms lose eps * n**2
        for n in (1, 2, 3, 10, 1000, 10**5, 6 * 10**5):
            got = (
                fde._predictor_kernel(beta, n),
                fde._corrector_kernel(beta, n),
                fde._corrector_initial(beta, n),
            )
            for value, exact in zip(got, exact_kernels(beta, n)):
                assert abs(value - exact) <= 4 * np.finfo(float).eps * n / beta * exact, n

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
        y_new = base + ca * corr[n + 1] * f_new
        f_new = field(times[n + 1], y_new)
        states[n + 1], F[n + 1] = y_new, f_new
    return states


class TestFftPath:
    def test_equivalent_to_direct_on_neuron_run(self):
        # 1e4 steps, so most of the history reaches a node through the
        # exponential state
        p = DmlParams(I=0.019)
        y0 = [0.1, 0.1]
        cfg = SolverConfig(0.0, 100.0, 0.01)
        fast = solve_fde(single_field, 0.9, cfg, y0, p)
        direct = reference_pece(single_field, 0.9, cfg, y0, p)
        assert np.abs(direct - fast.states).max() < 1e-8

    def test_equivalent_across_many_blocks(self, monkeypatch):
        monkeypatch.setattr(fde, "_BLOCK", 128)
        cfg = SolverConfig(0.0, 2.0, 1e-3)
        fast = solve_fde(decay, 0.6, cfg, [1.0])
        direct = reference_pece(decay, 0.6, cfg, [1.0])
        assert np.abs(direct - fast.states).max() < 1e-10

    def test_equivalent_for_four_dimensional_state(self, monkeypatch):
        from dmlneuro.models import LinearCoupling

        monkeypatch.setattr(fde, "_BLOCK", 256)
        p = DmlParams(I=0.019)
        rhs = LinearCoupling(0.008).field
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
            mp.setattr(fde, "_BLOCK", block)
            fast = solve_fde(single_field, beta, cfg, [0.1, 0.1], p)
        direct = reference_pece(single_field, beta, cfg, [0.1, 0.1], p)
        assert np.abs(direct - fast.states).max() < 1e-10


BLOW_UP_BLOCK = 8
BLOW_UP_CFG = SolverConfig(0.0, 1.0, 0.005)


def assert_exact_finite_prefix(field):
    """Blow ``field`` up; the error must carry exactly the states before the
    first non-finite one."""
    first_bad = check_finite_prefix(field)
    # far enough that the exponential state carries part of the history,
    # and not on a block boundary
    assert first_bad > 4 * BLOW_UP_BLOCK and first_bad % BLOW_UP_BLOCK > 1


def check_finite_prefix(field):
    """Blow ``field`` up on blocks of ``BLOW_UP_BLOCK`` nodes; the error must
    carry exactly the states before the first non-finite one, whose index is
    returned."""
    block, cfg = BLOW_UP_BLOCK, BLOW_UP_CFG
    with np.errstate(over="ignore", invalid="ignore"):
        direct = reference_pece(field, 0.8, cfg, [1.0])
    first_bad = int(np.isfinite(direct).all(axis=1).argmin())
    assert first_bad > 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fde, "_BLOCK", block)
        with pytest.raises(NonFiniteStateError) as info:
            solve_fde(field, 0.8, cfg, [1.0])
    partial = info.value.trajectory
    assert partial.states.shape[0] == partial.times.shape[0] == first_bad
    # the last finite states are near the float range, so compare relatively
    np.testing.assert_allclose(partial.states, direct[:first_bad], rtol=1e-10, atol=0)
    return first_bad


def infinite_f_at(target, h=BLOW_UP_CFG.h):
    """The decay field, except that its output at node ``target``'s
    corrected state, on a grid of step ``h`` from 0, is infinite: the state
    there stays finite, and the next one is the first non-finite state."""
    evaluations = collections.Counter()

    def field(t, y, p):
        node = round(t / h)
        evaluations[node] += 1
        # the second evaluation at a node is the one at its corrected state
        if node == target and evaluations[node] % 2 == 0:
            return [math.inf]
        return decay(t, y, p)

    return field


class TestNestedSquares:
    @settings(max_examples=25, deadline=None)
    @given(
        block=st.integers(2, 16),
        extra=st.integers(0, 600 - 16 * 16),
        beta=st.floats(0.3, 1.0),
        model=st.sampled_from(["single", "sigmoid-pair"]),
    )
    def test_every_level_matches_the_direct_sum(self, block, extra, beta, model):
        # at least 16 blocks, so the last ones read 14 blocks or more of
        # their history through the exponential state
        n_steps = 16 * block + extra
        p = DmlParams(I=0.019)
        if model == "single":
            rhs, y0 = single_field, [0.1, 0.1]
        else:
            rhs, y0 = SigmoidCoupling(0.001).field, [0.1, 0.1, -0.2, 0.1]
        cfg = SolverConfig(0.0, 0.05 * n_steps, 0.05)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fde, "_BLOCK", block)
            fast = solve_fde(rhs, beta, cfg, y0, p)
        direct = reference_pece(rhs, beta, cfg, y0, p)
        assert np.abs(direct - fast.states).max() < 1e-10

    def test_blow_up_keeps_the_exact_finite_prefix(self):
        assert_exact_finite_prefix(explode)

    def test_non_finite_f_at_a_block_end_keeps_the_exact_finite_prefix(self):
        # F turns infinite at node 39, the last of its block, while the
        # state there stays finite: the block stores that state and F row
        # once, and the run stops at node 40 with the 40 direct-sum states
        target = 5 * BLOW_UP_BLOCK - 1
        assert check_finite_prefix(infinite_f_at(target)) == target + 1

    # block nodes k and k + 1, k even, share one history product, and node
    # k + 1 adds node k's F row after it as its lag-1 term: the first
    # non-finite state falls on block node 3, which takes node 2's infinite
    # F row that way, or on block node 4, whose product reads node 3's
    @pytest.mark.parametrize("first_bad", [4 * BLOW_UP_BLOCK + 3, 4 * BLOW_UP_BLOCK + 4],
                             ids=["lag-1-node", "product-node"])
    def test_non_finite_f_in_a_pair_keeps_the_exact_finite_prefix(self, first_bad):
        assert check_finite_prefix(infinite_f_at(first_bad - 1)) == first_bad

    @settings(max_examples=18, deadline=None)
    @given(
        beta=st.floats(0.5, 1.0),
        x0=st.floats(-0.5, 0.6),
        w0=st.floats(0.0, 0.5),
        coupling=st.one_of(
            st.floats(1e-4, 0.05).map(LinearCoupling),
            st.floats(1e-4, 0.01).map(SigmoidCoupling),
        ),
        block=st.sampled_from([7, 8, 63, 64]),
    )
    def test_identical_cells_stay_on_the_diagonal_bitwise(self, beta, x0, w0, coupling, block):
        # two identical cells started together: every product, lag-1 term
        # and field value treats both cells' columns alike, so the pair
        # never leaves the diagonal, not even by rounding, on odd and even
        # blocks and past the first blocks into the exponential history
        cfg = SolverConfig(0.0, 0.05 * 300, 0.05)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fde, "_BLOCK", block)
            traj = solve_fde(coupling.field, beta, cfg, [x0, w0, x0, w0],
                             DmlParams(I=0.019))
        assert np.array_equal(traj.states[:, :2], traj.states[:, 2:])


class TestExponentialHistory:
    @settings(max_examples=40, deadline=None)
    @given(
        # from 1e-300 up, where every weight at lags up to 1e6 is a normal float
        beta=st.floats(1e-300, 1.0),
        n_steps=st.integers(2 * fde._BLOCK, 10**6),
        at=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    )
    @example(beta=1.0, n_steps=10**6, at=[0.0, 0.5, 1.0])
    @example(beta=1e-9, n_steps=10**6, at=[0.0, 1.0])
    def test_sums_match_34_digit_weights(self, beta, n_steps, at):
        r = fde._BLOCK
        lam, wb, wa = fde._exponential_sums(beta, n_steps, r)
        for u in at:
            n = r + 1 + round(u * (n_steps - r - 1))
            pred, corr = wb @ np.exp(-lam * n), wa @ np.exp(-lam * n)
            exact_pred, exact_corr, _ = exact_kernels(beta, n)
            assert abs(pred - exact_pred) <= 1e-12 * exact_pred, n
            assert abs(corr - exact_corr) <= 1e-12 * exact_corr, n
            if beta == 1.0:
                # the scaled weights are h and 2 ca exactly
                assert (pred, corr) == (1.0, 2.0)

    @pytest.mark.parametrize(
        "coupling",
        [NoCoupling(), LinearCoupling(0.008), SigmoidCoupling(0.001)],
        ids=["single", "linear", "sigmoid"],
    )
    def test_a_solve_makes_no_transform(self, coupling, monkeypatch):
        rhs, dim = coupling.field, coupling.dim
        calls = []
        for name in np.fft.__all__:
            monkeypatch.setattr(np.fft, name, lambda *a, name=name, **k: calls.append(name))
        cfg = SolverConfig(0.0, 100.0, 0.05)
        traj = solve_fde(rhs, 0.9, cfg, [0.1, 0.1, -0.2, 0.1][:dim], DmlParams(I=0.019))
        assert calls == []
        assert np.isfinite(traj.states).all()

    @pytest.mark.slow
    def test_peak_memory_is_the_output(self):
        p, cfg = DmlParams(I=0.019), SolverConfig(0.0, 2000.0, 0.01)
        warm_up_line_tables(single_field, p)
        tracemalloc.start()
        try:
            traj = solve_fde(single_field, 0.9, cfg, [0.1, 0.1], p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (cfg.n_steps + 1, 2)
        assert peak <= 1.5 * (traj.times.nbytes + traj.states.nbytes)

    @pytest.mark.slow
    def test_a_late_blow_up_carries_its_prefix_without_a_copy(self):
        # the field turns non-finite in the last block of 2e5 steps: the
        # finite part is a slice of the solve's arrays, not a second copy
        cfg = SolverConfig(0.0, 2000.0, 0.01)

        def field(t, y, p):
            return [-y[0], -y[1]] if t < 1999.7 else [math.nan, math.nan]

        warm_up_line_tables(field, None)
        tracemalloc.start()
        try:
            with pytest.raises(NonFiniteStateError) as info:
                solve_fde(field, 0.9, cfg, [0.1, 0.1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        partial = info.value.trajectory
        assert cfg.n_steps - fde._BLOCK < len(partial.times) < cfg.n_steps
        output = (cfg.n_steps + 1) * 3 * 8  # the times and states of every step
        assert peak <= 1.2 * output

    def test_a_solve_frees_its_arrays_by_reference_count(self):
        # nothing of a solve lives on in a reference cycle, so repeated runs
        # do not pile up times arrays until the cycle collector runs
        gc.collect()
        gc.disable()
        try:
            traj = solve_fde(single_field, 0.9, SolverConfig(0.0, 10.0, 0.01), [0.1, 0.1],
                             DmlParams(I=0.019))
            times, states = weakref.ref(traj.times), weakref.ref(traj.states)
            del traj
            assert times() is None and states() is None
        finally:
            gc.enable()


def warm_up_line_tables(rhs, p):
    """Solve a few steps of ``rhs``, kept and streamed, under a no-op
    profile function.  tracemalloc looks up the line of every allocation it
    records; on CPython 3.11 that scans the line table of a long function
    unless a traced call has built its line array, which keeps a traced
    long solve to seconds."""
    previous = sys.getprofile()
    sys.setprofile(lambda *args: None)
    try:
        for on_rows in (None, lambda times, states: None):
            solve_fde(rhs, 0.9, SolverConfig(0.0, 1.0, 0.01), [0.1, 0.1], p, _on_rows=on_rows)
    finally:
        sys.setprofile(previous)


def streamed(rhs, beta, cfg, y0, p=None, **kwargs):
    """Solve with ``_on_rows``: the copies of the pieces handed over, the
    trajectory returned, or the error raised, and the error."""
    pieces = []

    def on_rows(times, states):
        pieces.append((times.copy(), states.copy()))

    try:
        last = solve_fde(rhs, beta, cfg, y0, p, _on_rows=on_rows, **kwargs)
    except NonFiniteStateError as err:
        return pieces, err.trajectory, err
    return pieces, last, None


class TestStreamedRows:
    P = DmlParams(I=0.019)

    # one piece is 4096 rows: a run shorter than one, one that ends on a
    # piece's last row, one that ends a row past it, and one mid-block
    @pytest.mark.parametrize("rows", [100, 2 * 4096, 2 * 4096 + 1, 3 * 4096 + 37])
    @pytest.mark.parametrize("coupling", [NoCoupling(), SigmoidCoupling(0.001)],
                             ids=["single", "sigmoid"])
    def test_the_pieces_are_the_kept_rows_once_in_order(self, rows, coupling):
        assert fde._PIECE * fde._BLOCK == 4096
        cfg = SolverConfig(3.0, 3.0 + 0.05 * (rows - 1), 0.05)
        y0 = [0.1, 0.1, -0.2, 0.1][: coupling.dim]
        kept = solve_fde(coupling.field, 0.9, cfg, y0, self.P)
        pieces, last, _ = streamed(coupling.field, 0.9, cfg, y0, self.P)
        assert [len(t) for t, _ in pieces[:-1]] == [4096] * (len(pieces) - 1)
        assert np.array_equal(np.concatenate([t for t, _ in pieces]), kept.times)
        assert np.array_equal(np.concatenate([s for _, s in pieces]), kept.states)
        # the solve returns its last piece
        assert np.array_equal(last.times, pieces[-1][0])
        assert np.array_equal(last.states, pieces[-1][1])

    # the first non-finite state falls in the first piece, on the first row
    # of the second, and inside the second
    @pytest.mark.parametrize("first_bad", [300, 4096, 5000])
    def test_a_blow_up_hands_over_the_finite_rows_first(self, first_bad):
        cfg = SolverConfig(0.0, 60.0, 0.01)
        with pytest.raises(NonFiniteStateError) as info:
            solve_fde(infinite_f_at(first_bad - 1, cfg.h), 0.9, cfg, [1.0])
        kept = info.value.trajectory
        pieces, carried, err = streamed(infinite_f_at(first_bad - 1, cfg.h), 0.9, cfg, [1.0])
        assert str(err) == str(info.value)
        assert len(kept.times) == first_bad
        assert np.array_equal(np.concatenate([t for t, _ in pieces]), kept.times)
        assert np.array_equal(np.concatenate([s for _, s in pieces]), kept.states)
        # the error carries the finite rows of the piece it stopped in
        assert np.array_equal(carried.states, kept.states[first_bad // 4096 * 4096 :])

    # three grids, the full-resolution one included, and a grid that starts
    # off zero: built in place, the times are the bits of t_start + h * k
    @pytest.mark.parametrize("t_start, h, rows", [(0.0, 0.01, 600_001), (0.0, 0.05, 30_001),
                                                  (5.0, 0.003, 100_003)])
    def test_the_times_are_the_grid_bits(self, t_start, h, rows):
        grid = t_start + h * np.arange(rows)
        assert np.array_equal(fde._times(0, rows, h, t_start), grid)
        pieces = [fde._times(k, min(k + 4096, rows), h, t_start) for k in range(0, rows, 4096)]
        assert np.array_equal(np.concatenate(pieces), grid)

    def test_the_times_take_no_grid_beside_them(self):
        # no integer grid and no product: a solve of one state keeps times
        # and states of 16 bytes a row, and its times alone never took more
        tracemalloc.start()
        try:
            times = fde._times(0, 10**6, 0.01, 5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.01 * times.nbytes

    @pytest.mark.slow
    def test_a_streamed_solve_holds_no_row_count_of_memory(self):
        # from its first hand-over on, a streamed solve holds one piece and
        # its history, whatever the run's length: its peak, with what it
        # held then, is the same for 2e4 steps as for 2e5.  The peak before
        # that hand-over is left out: the solve then allocates, and never
        # touches, an array of the grid's size, to refuse a grid that could
        # not be held whole
        warm_up_line_tables(single_field, self.P)
        peaks = []
        for n_steps in (20_000, 200_000):
            handed = []

            def on_rows(times, states):
                if not handed:
                    tracemalloc.reset_peak()
                handed.append(len(times))

            tracemalloc.start()
            try:
                solve_fde(single_field, 0.9, SolverConfig(0.0, 0.01 * n_steps, 0.01),
                          [0.1, 0.1], self.P, _on_rows=on_rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sum(handed) == n_steps + 1
        # the history's exponents grow with log N: a few kilobytes
        assert peaks[1] <= 1.05 * peaks[0]
        assert peaks[1] < 0.25 * (200_001 * 3 * 8)


class TestFieldContract:
    P = DmlParams(I=0.019)
    Y0 = [0.1, 0.1, -0.2, 0.1]
    # 2000 steps, so the exponential state carries history and the last
    # block is clipped
    CFG = SolverConfig(0.0, 100.0, 0.05)

    def test_rhs_receives_a_list_of_floats(self):
        pair = SigmoidCoupling(0.001).field
        # a field returning an array hands np.float64 values, a float
        # subclass, to the corrected state and to the predictor state that
        # adds the lag-1 term; a tuple hands plain floats, because the lag-1
        # weights are floats too
        for wrap, kinds in ((tuple, {float}), (np.array, {float, np.float64})):
            seen, seen_kinds = [], set()

            def field(t, y, p):
                seen.append((type(t), type(y), len(y), all(isinstance(v, float) for v in y)))
                seen_kinds.update(map(type, y))
                return wrap(pair(t, y, p))

            solve_fde(field, 0.9, SolverConfig(0.0, 10.0, 0.05), self.Y0, self.P)
            assert len(seen) == 1 + 2 * 200
            assert set(seen) == {(float, list, 4, True)}
            assert seen_kinds == kinds

    @pytest.mark.parametrize("wrap", [list, np.array])
    def test_any_returned_sequence_gives_the_same_bits(self, wrap):
        pair = SigmoidCoupling(0.001).field
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

    @staticmethod
    def changes_length_at(step, length):
        # a decaying pair whose output takes ``length`` values from ``step`` on
        def field(t, y, p):
            if t < 0.01 * step - 1e-9:
                return (-y[0], -y[1])
            return (-y[0],) * length

        return field

    # step 64 opens a block and step 100 lies inside one, both the first node
    # of a pair; steps 65 and 101 are the second nodes of those pairs
    @pytest.mark.parametrize("step", [64, 65, 100, 101])
    @pytest.mark.parametrize("length", [1, 3], ids=["shortens", "lengthens"])
    def test_output_changing_length_mid_run_is_rejected(self, length, step):
        field = self.changes_length_at(step, length)
        with pytest.raises(DimensionMismatchError, match=rf"\(step {step}\); expected 2 values"):
            solve_fde(field, 0.9, SolverConfig(0.0, 3.0, 0.01), [1.0, 1.0])

    def test_too_long_output_at_the_predictor_is_rejected(self):
        # the field's call 2m - 1 is the predictor's of step m, and from
        # t = 0.5 on those calls, and only those, return three values
        calls = itertools.count()

        def field(t, y, p):
            if next(calls) % 2 and t > 0.5 - 1e-9:
                return (-y[0], -y[1], 0.0)
            return (-y[0], -y[1])

        with pytest.raises(DimensionMismatchError, match=r"\(step 50\); expected 2 values"):
            solve_fde(field, 0.9, SolverConfig(0.0, 1.0, 0.01), [1.0, 1.0])

    @staticmethod
    def cyclic_decay(rates, wrap=tuple, wrong_at=-1):
        """The stable linear field y_i' = -rates[i] y_i + 0.1 y_(i+1), its
        output built by ``wrap``; its call ``wrong_at`` (0 at t_0) returns
        one value too many or, at an even call, one too few."""
        calls = itertools.count()

        def field(t, y, p):
            f = [-d * v + 0.1 * w for d, v, w in zip(rates, y, y[1:] + y[:1])]
            n = next(calls)
            if n == wrong_at:
                f = f + [0.0] if n % 2 else f[1:]
            return wrap(f)

        return field

    @settings(max_examples=30, deadline=None)
    @given(
        rates=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=6),
        block=st.integers(2, 16),
        n_steps=st.integers(40, 200),
        wrap=st.sampled_from([tuple, list, np.array]),
        data=st.data(),
    )
    @example(rates=[1.0, 0.5, 2.0, 1.5], block=8, n_steps=100, wrap=list, data=None)
    @example(rates=[1.0, 0.5, 2.0, 1.5], block=8, n_steps=100, wrap=np.array, data=None)
    def test_any_dimension_matches_the_direct_sum(self, rates, block, n_steps, wrap, data):
        # dimensions that no model uses, on blocks short enough that the
        # exponential state carries most of the history
        dim, beta = len(rates), 0.85
        cfg = SolverConfig(0.0, 0.05 * n_steps, 0.05)
        y0 = [1.0 - 0.3 * i for i in range(dim)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fde, "_BLOCK", block)
            fast = solve_fde(self.cyclic_decay(rates, wrap), beta, cfg, y0)
            as_tuple = solve_fde(self.cyclic_decay(rates), beta, cfg, y0)
            assert np.array_equal(fast.states, as_tuple.states)
            direct = reference_pece(self.cyclic_decay(rates), beta, cfg, y0)
            assert np.abs(direct - fast.states).max() < 1e-10
            # a wrong length at either field call of a drawn step
            step = data.draw(st.integers(1, n_steps)) if data else n_steps // 2
            call = 2 * step - (data.draw(st.booleans()) if data else 1)
            with pytest.raises(DimensionMismatchError,
                               match=rf"\(step {step}\); expected {dim} values"):
                solve_fde(self.cyclic_decay(rates, wrap, call), beta, cfg, y0)

    def test_value_error_of_the_field_itself_propagates(self):
        def field(t, y, p):
            return (math.sqrt(1.0 - t), -y[1])  # a math domain error past t = 1

        with pytest.raises(ValueError, match="math domain error") as info:
            solve_fde(field, 0.9, SolverConfig(0.0, 3.0, 0.01), [1.0, 1.0])
        assert type(info.value) is ValueError

    def test_blow_up_keeps_the_exact_finite_prefix_with_tuples(self):
        assert_exact_finite_prefix(lambda t, y, p: tuple(explode(t, y, p)))


def solve_both_paths(coupling, beta, cfg, y0, p, block):
    """Solve with the model's field, whose body the step runs inline, and
    with the same field wrapped in a plain callable, which the step calls;
    each result is a trajectory or the blow-up error it raised."""
    field = coupling.field
    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fde, "_BLOCK", block)
        for rhs in (field, lambda t, y, p: field(t, y, p)):
            try:
                results.append(solve_fde(rhs, beta, cfg, y0, p))
            except NonFiniteStateError as err:
                results.append(err)
    return results


def assert_same_bits(spliced, called):
    if isinstance(called, NonFiniteStateError):
        assert isinstance(spliced, NonFiniteStateError) and str(spliced) == str(called)
        spliced, called = spliced.trajectory, called.trajectory
    assert spliced.times.tobytes() == called.times.tobytes()
    assert spliced.states.tobytes() == called.states.tobytes()


class TestSplicedBodies:
    """A model's field body runs inline in the pair step; any other callable
    is called.  Both give the same bits."""

    MODELS = [NoCoupling(), LinearCoupling(0.008), SigmoidCoupling(0.001)]
    IDS = ["single", "linear", "sigmoid"]

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.builds(
            DmlParams,
            I=st.floats(-0.1, 0.1),
            A=st.floats(1e-4, 1.0),
            alpha=st.floats(0.1, 10.0),
            gamma=st.floats(0.01, 1.0),
        ),
        theta=st.floats(1e-4, 1.0),
        synapse=st.builds(
            SigmoidCoupling,
            sigma=st.floats(0.0, 1.0),
            v_s=st.floats(-3.0, 3.0),
            lam=st.floats(0.1, 100.0),
            q=st.floats(-1.0, 1.0),
        ),
        y0=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        beta=st.floats(0.3, 1.0),
        h=st.sampled_from([0.05, 0.5, 2.0]),
        n_steps=st.integers(1, 200),
        block=st.sampled_from([7, 8]),
    )
    # alpha x1 = 709 exactly and 712, so the first field is inf; lam (x1 - q)
    # = 802.5 and lam (x2 - q) = -797.5 lie beyond the exp range; the last
    # runs to the end, ending mid-pair and mid-block
    @example(p=DmlParams(alpha=1.0), theta=0.008, synapse=SigmoidCoupling(0.001),
             y0=[709.0, 0.1, -0.2, 0.1], beta=0.9, h=0.05, n_steps=40, block=7)
    @example(p=DmlParams(), theta=0.008, synapse=SigmoidCoupling(0.001),
             y0=[135.0, 0.1, -0.2, 0.1], beta=0.9, h=0.05, n_steps=40, block=8)
    @example(p=DmlParams(), theta=0.008, synapse=SigmoidCoupling(0.001),
             y0=[80.0, 0.1, -80.0, 0.1], beta=0.9, h=0.05, n_steps=40, block=7)
    @example(p=DmlParams(I=0.019), theta=0.008, synapse=SigmoidCoupling(0.001),
             y0=[0.1, 0.1, -0.2, 0.1], beta=0.95, h=0.05, n_steps=198, block=8)
    def test_a_body_gives_the_bits_of_its_call(self, p, theta, synapse, y0, beta, h,
                                               n_steps, block):
        cfg = SolverConfig(0.0, h * n_steps, h)
        for coupling in (NoCoupling(), LinearCoupling(theta), synapse):
            spliced, called = solve_both_paths(coupling, beta, cfg, y0[: coupling.dim], p, block)
            assert_same_bits(spliced, called)

    # an explicit step too long for the pair: the run blows up at step 31,
    # inside the fifth block of 7 nodes, on both paths alike
    @pytest.mark.parametrize("block", [7, 8])
    def test_a_blow_up_stops_both_paths_at_the_same_step(self, block):
        cfg = SolverConfig(0.0, 600.0, 2.0)
        spliced, called = solve_both_paths(SigmoidCoupling(0.001), 0.8, cfg, [1.0, 0.1, -0.2, 0.1],
                                           DmlParams(I=0.1, alpha=1.0), block)
        assert isinstance(called, NonFiniteStateError)
        assert len(called.trajectory.times) == 31
        assert_same_bits(spliced, called)

    @pytest.mark.parametrize("coupling", MODELS, ids=IDS)
    def test_a_model_solve_makes_no_field_call_per_step(self, coupling):
        # the field's function runs once, for node 0's shape check; the same
        # field behind a plain callable runs twice per step, which shows the
        # profile hook sees the calls it counts
        field = coupling.field
        code = field.func.__code__
        calls = collections.Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls[rhs] += 1

        cfg, y0 = SolverConfig(0.0, 10.0, 0.05), [0.1, 0.1, -0.2, 0.1][: coupling.dim]
        for rhs in (field, lambda t, y, p: field(t, y, p)):
            sys.setprofile(profile)
            try:
                solve_fde(rhs, 0.9, cfg, y0, DmlParams(I=0.019))
            finally:
                sys.setprofile(None)
        assert list(calls.values()) == [1, 1 + 2 * cfg.n_steps]

    def test_a_grid_too_long_to_allocate_is_a_typed_error(self):
        # 1e15 + 1 samples: the allocation fails at once, before any field
        # evaluation; a streamed solve would hold one piece of the grid, but
        # a grid that could not be held whole is refused all the same
        calls = []

        def field(t, y, p):
            calls.append(t)
            return decay(t, y, p)

        for on_rows in (None, pytest.fail):
            with pytest.raises(GridMemoryError, match=r"^the grid of 1000000000000001 samples "
                                                       r"does not fit in memory$"):
                solve_fde(field, 0.9, SolverConfig(0.0, 1e15, 1.0), [0.1, 0.1],
                          _on_rows=on_rows)
        assert calls == []


@pytest.mark.slow
def test_full_resolution_single_cell_converges_to_equilibrium():
    # the long-run protocol: t in [0, 6000] with h = 0.01; the exponential
    # history keeps this tractable
    p = DmlParams(I=0.019)
    cfg = SolverConfig(0.0, 6000.0, 0.01)
    traj = solve_fde(single_field, 0.9, cfg, [0.1, 0.1], p)
    final_tenth = traj.states[-(cfg.n_steps // 10) :]
    dev = np.abs(final_tenth - np.array([0.40772, 0.11746])).max()
    assert dev < 1e-3
