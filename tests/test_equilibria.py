import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from dmlneuro import equilibria
from dmlneuro.equilibria import (
    DEFAULT_WINDOW,
    Branch,
    _g_extrema,
    _refine_root,
    _scan_brackets,
    classify_branch,
    find_extrema,
    find_symmetric_equilibria,
    i_infinity,
    i_infinity_derivative,
    y_infinity,
)
from dmlneuro.exceptions import NoExtremaError, RootWindowExhaustedError
from dmlneuro.models import (
    DmlParams,
    LinearCoupling,
    NoCoupling,
    SigmoidCoupling,
    _exp,
    _sigmoid,
    vector_field,
)

P = DmlParams(I=0.019)
single = vector_field(NoCoupling())[0]

# reference values for the default parameter set, cross-checked against an
# independent root finder at double precision
X_MAX = 0.051143193209885154
I_MAX = 0.015417976156715866
X_MIN = 0.2863874927043651
I_MIN = 0.003397079040195275


def sigmoid_fold_currents(sigma):
    """(upper, lower) fold currents of the sigmoid pair's symmetric branch.

    An independent transcription: the folds sit at the critical points of
    h(x) = A/gamma e^(alpha x) - x^2 (1 - x) - sigma (v_s - x) S(lam (x - q)),
    the current that puts a symmetric equilibrium at x, found by brentq.
    """
    A, alpha, gamma, v_s, lam, q = 0.0041, 5.276, 0.3, 2.0, 10.0, -0.25

    def parts(x):
        return A / gamma * math.exp(alpha * x), 1.0 / (1.0 + math.exp(-lam * (x - q)))

    def h(x):
        e, z = parts(x)
        return e - x * x * (1.0 - x) - sigma * (v_s - x) * z

    def dh(x):
        e, z = parts(x)
        return alpha * e - x * (2.0 - 3.0 * x) + sigma * (z - (v_s - x) * lam * z * (1.0 - z))

    upper = brentq(dh, -0.2, 0.17, xtol=1e-16, rtol=4 * np.finfo(float).eps)
    lower = brentq(dh, 0.17, 0.6, xtol=1e-16, rtol=4 * np.finfo(float).eps)
    return h(upper), h(lower)


def scan_brackets_reference(f, lo, hi, step):
    """The per-point scan loop, one scalar call per grid point."""
    xs = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    vals = np.array([f(float(x)) for x in xs])
    out = []
    for i in range(xs.size - 1):
        if vals[i] == 0.0:
            out.append((xs[i], xs[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            out.append((xs[i], xs[i + 1]))
    if vals[-1] == 0.0:
        out.append((xs[-1], xs[-1]))
    return out


def bisect_reference(f, lo, hi):
    """Plain bisection of a sign change of f down to adjacent doubles."""
    flo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid


class TestInfCurve:
    def test_known_curve_values(self):
        assert i_infinity(X_MAX, P) == pytest.approx(I_MAX, abs=1e-8)
        assert i_infinity(X_MIN, P) == pytest.approx(I_MIN, abs=1e-8)
        assert i_infinity(0.0, P) == pytest.approx(0.0041 / 0.3, abs=1e-7)

    @pytest.mark.parametrize(
        "x, current, slope",
        [
            (0.05351939825528394, 0.015414622120595075, -0.0028148833020992196),
            (0.2151013413424015, 0.006197891516995346, -0.06709282841464406),
            (0.2840112876589663, 0.003401116673691529, -0.0033842365907062744),
        ],
    )
    def test_interior_reference_rows(self, x, current, slope):
        assert i_infinity(x, P) == pytest.approx(current, abs=1e-8)
        assert i_infinity_derivative(x, P, 1) == pytest.approx(slope, abs=1e-9)

    def test_first_derivative_vanishes_at_extrema(self):
        assert abs(i_infinity_derivative(X_MAX, P, 1)) < 1e-9
        assert abs(i_infinity_derivative(X_MIN, P, 1)) < 1e-9

    def test_higher_derivatives_against_finite_differences(self):
        # central differences of order m-1 as the oracle for order m
        eps = 1e-6
        for m in (2, 3, 4, 5):
            for x in (-0.4, 0.0, 0.3):
                fd = (
                    i_infinity_derivative(x + eps, P, m - 1)
                    - i_infinity_derivative(x - eps, P, m - 1)
                ) / (2 * eps)
                assert i_infinity_derivative(x, P, m) == pytest.approx(fd, rel=1e-5)

    def test_fourth_derivative_closed_form(self):
        expected = 5.276 ** 4 * 0.0041 / 0.3
        assert i_infinity_derivative(0.0, P, 4) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            i_infinity_derivative(0.0, P, 0)


class TestFindExtrema:
    def test_default_parameters(self):
        ex = find_extrema(P)
        assert ex.x_max == pytest.approx(X_MAX, abs=1e-6)
        assert ex.I_max == pytest.approx(I_MAX, abs=1e-6)
        assert ex.x_min == pytest.approx(X_MIN, abs=1e-6)
        assert ex.I_min == pytest.approx(I_MIN, abs=1e-6)
        assert ex.x_max < ex.x_min and ex.I_max > ex.I_min

    def test_extrema_are_critical_to_tolerance(self):
        ex = find_extrema(P)
        assert abs(i_infinity_derivative(ex.x_max, P, 1)) < 1e-12
        assert abs(i_infinity_derivative(ex.x_min, P, 1)) < 1e-12

    def test_curve_decreases_between_extrema(self):
        ex = find_extrema(P)
        xs = np.linspace(ex.x_max, ex.x_min, 102)[1:-1]
        assert all(i_infinity_derivative(x, P, 1) < 0.0 for x in xs)

    def test_monotone_outside_the_fold(self):
        ex = find_extrema(P)
        left = np.linspace(-1.5, ex.x_max, 1001)[:-1]
        right = np.linspace(ex.x_min, 1.5, 1001)[1:]
        assert all(i_infinity_derivative(x, P, 1) > 0.0 for x in left)
        assert all(i_infinity_derivative(x, P, 1) > 0.0 for x in right)

    def test_against_dense_grid_oracle(self):
        # brute-force local extrema of the curve on a 1e-5 grid
        p = DmlParams(I=0.019, gamma=0.6)
        ex = find_extrema(p)
        xs = np.arange(-1.0, 1.0, 1e-5)
        ys = np.array([i_infinity(x, p) for x in xs])
        interior = slice(1, -1)
        is_max = (ys[interior] >= ys[:-2]) & (ys[interior] >= ys[2:])
        is_min = (ys[interior] <= ys[:-2]) & (ys[interior] <= ys[2:])
        grid_max = xs[1:-1][is_max]
        grid_min = xs[1:-1][is_min]
        assert np.abs(grid_max - ex.x_max).min() < 2e-5
        assert np.abs(grid_min - ex.x_min).min() < 2e-5

    def test_no_extrema_for_large_recovery_amplitude(self):
        with pytest.raises(NoExtremaError):
            find_extrema(DmlParams(I=0.0, A=1.0))


class TestClassifyBranch:
    def test_reference_cases(self):
        ex = find_extrema(P)
        assert classify_branch(0.019, ex) is Branch.UNIQUE
        assert classify_branch(0.0001, ex) is Branch.UNIQUE
        assert classify_branch(ex.I_max, ex) is Branch.TWOFOLD
        assert classify_branch(ex.I_min, ex) is Branch.TWOFOLD
        assert classify_branch(0.011, ex) is Branch.THREEFOLD

    def test_fold_tolerance_band(self):
        ex = find_extrema(P)
        assert classify_branch(ex.I_max + 5e-13, ex) is Branch.TWOFOLD
        assert classify_branch(ex.I_max + 1e-9, ex) is Branch.UNIQUE
        assert classify_branch(ex.I_max - 1e-9, ex) is Branch.THREEFOLD


class TestFindEquilibria2d:
    @pytest.mark.parametrize(
        "I, expected",
        [
            (0.0001, [(-0.08827, 0.00858)]),
            (0.019, [(0.40772, 0.11746)]),
            (0.011, [(-0.027865, 0.0118), (0.15041, 0.03022), (0.37528, 0.09898)]),
        ],
    )
    def test_reference_points(self, I, expected):
        eq = find_symmetric_equilibria(DmlParams(I=I))
        assert eq.points.shape == (len(expected), 2)
        np.testing.assert_allclose(eq.points, expected, rtol=0, atol=1e-4)

    def test_fold_at_lower_current(self):
        ex = find_extrema(P)
        eq = find_symmetric_equilibria(DmlParams(I=ex.I_min))
        assert eq.branch is Branch.TWOFOLD
        np.testing.assert_allclose(
            eq.points, [(-0.07386, 0.00926), (0.28639, 0.06193)], rtol=0, atol=1e-4
        )

    def test_fold_at_upper_current(self):
        ex = find_extrema(P)
        eq = find_symmetric_equilibria(DmlParams(I=ex.I_max))
        assert eq.branch is Branch.TWOFOLD
        np.testing.assert_allclose(
            eq.points, [(0.05114, 0.0179), (0.39491, 0.109785)], rtol=0, atol=1e-4
        )

    def test_branch_label_matches_point_count(self):
        for I in (0.0001, 0.011, 0.019):
            eq = find_symmetric_equilibria(DmlParams(I=I))
            assert {1: Branch.UNIQUE, 2: Branch.TWOFOLD, 3: Branch.THREEFOLD}[
                eq.points.shape[0]
            ] is eq.branch

    def test_points_sorted_and_residuals_tiny(self):
        for I in (0.0001, 0.011, 0.019):
            p = DmlParams(I=I)
            eq = find_symmetric_equilibria(p)
            xs = eq.points[:, 0]
            assert (np.diff(xs) > 0).all()
            for x, y in eq.points:
                assert np.abs(single(0.0, [x, y], p)).max() < 1e-10

    def test_branch_count_consistent_with_classification(self):
        ex = find_extrema(P)
        rng = np.random.default_rng(42)
        for I in rng.uniform(-0.02, 0.05, size=200):
            eq = find_symmetric_equilibria(DmlParams(I=I))
            assert eq.branch is classify_branch(I, ex)

    def test_window_exhaustion(self):
        with pytest.raises(RootWindowExhaustedError):
            find_symmetric_equilibria(DmlParams(I=-50.0))


class TestSymmetricEquilibria:
    def test_linear_matches_single_cell_for_any_theta(self):
        base = find_symmetric_equilibria(P)
        for theta in (1e-4, 1e-3, 1e-2, 1e-1):
            eq = find_symmetric_equilibria(P, LinearCoupling(theta))
            assert np.array_equal(eq.points, base.points)
        assert base.points[0, 0] == pytest.approx(0.40772, abs=1e-4)

    def test_sigmoid_reference_roots(self):
        eq = find_symmetric_equilibria(P, SigmoidCoupling(sigma=0.001))
        assert eq.points[0, 0] == pytest.approx(0.41279, abs=1e-4)
        eq = find_symmetric_equilibria(P, SigmoidCoupling(sigma=0.0001))
        assert eq.points[0, 0] == pytest.approx(0.40824, abs=1e-4)

    def test_sigmoid_zero_strength_degenerates_to_single_cell(self):
        base = find_symmetric_equilibria(P)
        eq = find_symmetric_equilibria(P, SigmoidCoupling(sigma=0.0))
        assert np.array_equal(eq.points, base.points)

    def test_sigmoid_continuity_in_small_strength(self):
        base = find_symmetric_equilibria(P).points[0, 0]
        eq = find_symmetric_equilibria(P, SigmoidCoupling(sigma=1e-5))
        assert abs(eq.points[0, 0] - base) < 1e-3

    def test_sigmoid_residuals_tiny(self):
        c = SigmoidCoupling(sigma=0.001)
        eq = find_symmetric_equilibria(P, c)
        rhs, _ = vector_field(c)
        for x, y in eq.points:
            assert np.abs(rhs(0.0, [x, y, x, y], P)).max() < 1e-10

    def test_no_coupling_gives_the_single_cell_equilibria(self):
        for I in (0.0001, 0.011, 0.019):
            p = DmlParams(I=I)
            eq = find_symmetric_equilibria(p, NoCoupling())
            base = find_symmetric_equilibria(p)
            assert np.array_equal(eq.points, base.points)
            assert eq.branch is base.branch

    @pytest.mark.parametrize("sigma", [1e-4, 1e-3, 3e-3])
    @pytest.mark.parametrize("fold", ["upper", "lower"])
    def test_sigmoid_fold_counts(self, sigma, fold):
        # the fold current itself has the tangency root and one more; 1e-9
        # inside the band the tangency splits into two roots 1e-4 apart
        upper, lower = sigmoid_fold_currents(sigma)
        I_fold, inward = (upper, -1e-9) if fold == "upper" else (lower, 1e-9)
        c = SigmoidCoupling(sigma=sigma)
        at_fold = find_symmetric_equilibria(DmlParams(I=I_fold), c)
        assert at_fold.branch is Branch.TWOFOLD and at_fold.points.shape == (2, 2)
        inside = find_symmetric_equilibria(DmlParams(I=I_fold + inward), c)
        assert inside.branch is Branch.THREEFOLD and inside.points.shape == (3, 2)


class TestVectorisedScan:
    def test_elementary_functions_match_the_float_path(self):
        u = np.linspace(-700.0, 700.0, 20001)
        np.testing.assert_array_max_ulp(_exp(u), [_exp(float(v)) for v in u], maxulp=4)
        np.testing.assert_array_max_ulp(_sigmoid(u), [_sigmoid(float(v)) for v in u], maxulp=4)
        assert _exp(np.array([709.0, 800.0, np.nan])).tolist() == [math.inf] * 3
        assert _exp(709.0) == _exp(800.0) == _exp(math.nan) == math.inf

    @pytest.mark.parametrize(
        "coupling", [SigmoidCoupling(1e-4), SigmoidCoupling(1e-3), SigmoidCoupling(3e-3)]
    )
    def test_coupling_current_matches_the_float_path(self, coupling):
        x = np.linspace(-3.0, 3.0, 6001)
        np.testing.assert_array_max_ulp(
            coupling.current(x, x), [coupling.current(v, v) for v in x.tolist()], maxulp=4
        )

    @pytest.mark.parametrize("sigma", [0.0, 1e-4, 1e-3, 3e-3])
    @pytest.mark.parametrize("window", [(-1.5, 1.5), (-3.0, 3.0)])
    def test_brackets_match_the_per_point_loop(self, sigma, window):
        c = SigmoidCoupling(sigma)

        def gprime(x):
            d_self, d_other = c.partials(x, x)
            return -i_infinity_derivative(x, P, 1) + (d_self + d_other)

        for f in (gprime, lambda x: i_infinity_derivative(x, P, 1)):
            got = _scan_brackets(f, *window, 1e-3)
            want = scan_brackets_reference(f, *window, 1e-3)
            assert [(a, b) for a, b, _, _ in got] == want
            for a, b, fa, fb in got:  # the end values the root solve is handed
                assert fa == 0.0 or fa * f(a) > 0.0
                assert fb == 0.0 or fb * f(b) > 0.0


def _never(x):
    raise AssertionError("evaluated")


class TestRootSolve:
    @pytest.mark.parametrize("coupling", [NoCoupling(), SigmoidCoupling(0.001)])
    def test_about_ten_evaluations_per_bracketed_root(self, monkeypatch, coupling):
        solve = equilibria._refine_root
        solves = evals = 0

        def counted(f, *bracket):
            nonlocal solves

            def f_counted(x):
                nonlocal evals
                evals += 1
                return f(x)

            solves += 1
            return solve(f_counted, *bracket)

        monkeypatch.setattr(equilibria, "_refine_root", counted)
        for I in np.linspace(-0.005, 0.025, 200):
            find_symmetric_equilibria(DmlParams(I=float(I)), coupling)
        assert solves >= 3 * 200  # two extrema and at least one root per current
        assert evals / solves <= 12.0

    @settings(max_examples=40, deadline=None)
    @given(
        A=st.floats(0.0037, 0.0045),
        alpha=st.floats(5.0, 5.5),
        gamma=st.floats(0.28, 0.32),
        coupling=st.one_of(
            st.just(NoCoupling()),
            st.floats(0.0, 0.05, exclude_min=True).map(LinearCoupling),
            st.floats(0.0, 0.05).map(SigmoidCoupling),
        ),
        I=st.floats(-0.01, 0.03),
    )
    # near-exact roots whose g is subnormal: a product sign test underflows
    @example(A=0.0037, alpha=5.0, gamma=0.28, coupling=NoCoupling(), I=5e-324)
    @example(A=0.00390625, alpha=5.0, gamma=0.296875,
             coupling=SigmoidCoupling(2.225073858507203e-309), I=0.0)
    def test_roots_match_a_reference_bisection(self, A, alpha, gamma, coupling, I):
        p = DmlParams(I=I, A=A, alpha=alpha, gamma=gamma)

        def g(x):
            return p.I - i_infinity(x, p) + coupling.current(x, x)

        def gprime(x):
            d_self, d_other = coupling.partials(x, x)
            return -i_infinity_derivative(x, p, 1) + (d_self + d_other)

        extrema = [bisect_reference(gprime, a, b)
                   for a, b, _, _ in _scan_brackets(gprime, *DEFAULT_WINDOW, 1e-3)]
        np.testing.assert_allclose(_g_extrema(p, coupling), extrema, rtol=0, atol=1e-13)
        # a root near a fold is ill-conditioned; the fold tests cover folds
        assume(all(abs(g(x)) > 1e-6 for x in extrema))
        ends = [DEFAULT_WINDOW[0], *extrema, DEFAULT_WINDOW[1]]
        pieces = [(a, b) for a, b in zip(ends, ends[1:]) if g(a) * g(b) < 0.0]
        roots = find_symmetric_equilibria(p, coupling).points[:, 0]
        assert len(roots) == len(pieces)
        for x, (a, b) in zip(roots, pieces):
            assert a < x < b
            assert abs(x - bisect_reference(g, a, b)) <= 1e-13

    def test_zero_end_value_is_the_root(self):
        assert _refine_root(_never, 0.1, 0.2, 0.0, 1.0) == 0.1
        assert _refine_root(_never, 0.1, 0.2, -1.0, 0.0) == 0.2

    def test_bracket_without_sign_change_is_rejected(self):
        with pytest.raises(ValueError, match="not bracketed"):
            _refine_root(_never, 0.1, 0.2, 1.0, 2.0)

    def test_infinite_end_value_takes_the_midpoint(self):
        # an overflowed e^(alpha x) makes the secant point the bracket's own
        # end, which is not strictly inside it
        def f(x):
            return 0.3 - x if x < 0.9 else -math.inf

        assert _refine_root(f, 0.0, 1.0, 0.3, -math.inf) == pytest.approx(0.3, abs=1e-14)


def test_y_infinity_matches_recovery_nullcline():
    xs = np.linspace(-1.0, 1.0, 7)
    for x in xs:
        y = y_infinity(x, P)
        assert single(0.0, [x, y], P)[1] == pytest.approx(0.0, abs=1e-15)
