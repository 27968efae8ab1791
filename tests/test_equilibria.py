import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from dmlneuro import equilibria
from dmlneuro.equilibria import (
    FOLD_TOL,
    Branch,
    _refine_root,
    critical_points,
    find_symmetric_equilibria,
    fold_voltages,
    i_infinity,
    i_infinity_derivative,
    y_infinity,
)
from dmlneuro.exceptions import ConvergenceError
from dmlneuro.models import (
    DmlParams,
    LinearCoupling,
    NoCoupling,
    SigmoidCoupling,
    _exp,
    _sigmoid,
)
from dmlneuro.stability import indicators

P = DmlParams(I=0.019)
single = NoCoupling().field

# reference values for the default parameter set, cross-checked against an
# independent root finder at double precision
X_MAX = 0.051143193209885154
I_MAX = 0.015417976156715866
X_MIN = 0.2863874927043651
I_MIN = 0.003397079040195275


def fold_currents(p):
    """(I_max, I_min): the currents at the cell's folds, ascending in x."""
    x_max, x_min = fold_voltages(p)
    return i_infinity(x_max, p), i_infinity(x_min, p)


def branch_at(I):
    return find_symmetric_equilibria(replace(P, I=I)).branch


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


# the reference scans' interval, which holds every fold of the drawn cases
WINDOW = (-1.5, 1.5)


def sign_brackets(xs, vals):
    """Sign-change brackets ``(a, b, f(a), f(b))`` of a function f whose
    values on the ascending grid ``xs`` are ``vals``; a grid point where it
    vanishes gives the degenerate bracket ``(x, x, 0, 0)``."""
    brackets = []
    for i, (a, fa) in enumerate(zip(xs, vals)):
        if fa == 0.0:
            brackets.append((a, a, 0.0, 0.0))
        elif i + 1 < len(xs):
            fb = vals[i + 1]  # signs compared, never multiplied: a product can overflow
            if fa < 0.0 < fb or fb < 0.0 < fa:
                brackets.append((a, xs[i + 1], fa, fb))
    return brackets


def scan_brackets(f, lo, hi, step):
    """Sign-change brackets ``(a, b, f(a), f(b))`` of f on the grid of the
    given step over [lo, hi], f evaluated once on the whole grid."""
    xs = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    return sign_brackets(xs, f(xs))


def scan_brackets_reference(f, lo, hi, step):
    """The per-point scan loop, one scalar call per grid point."""
    xs = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    vals = np.array([f(float(x)) for x in xs])
    out = []
    for i in range(xs.size - 1):
        if vals[i] == 0.0:
            out.append((xs[i], xs[i]))
        elif np.sign(vals[i]) * np.sign(vals[i + 1]) < 0.0:  # a product can overflow
            out.append((xs[i], xs[i + 1]))
    if vals[-1] == 0.0:
        out.append((xs[-1], xs[-1]))
    return out


def block_slope(p, coupling, sign):
    """The fold search's function through the public curve functions:
    -delta / gamma of the plus (sign 1.0) or minus (-1.0) block."""

    def f(x):
        d_self, d_other = coupling.partials(x, x)
        return -i_infinity_derivative(x, p) + (d_self + sign * d_other)

    return f


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
        assert i_infinity_derivative(x, P) == pytest.approx(slope, abs=1e-9)

    def test_first_derivative_vanishes_at_extrema(self):
        assert abs(i_infinity_derivative(X_MAX, P)) < 1e-9
        assert abs(i_infinity_derivative(X_MIN, P)) < 1e-9

    def test_derivative_closed_form_at_origin(self):
        # the cubic's slope vanishes at x = 0, leaving the exponential's
        expected = 5.276 * 0.0041 / 0.3
        assert i_infinity_derivative(0.0, P) == pytest.approx(expected, rel=1e-12)


class TestFindExtrema:
    def test_default_parameters(self):
        x_max, x_min = fold_voltages(P)
        I_max, I_min = fold_currents(P)
        assert x_max == pytest.approx(X_MAX, abs=1e-6)
        assert I_max == pytest.approx(I_MAX, abs=1e-6)
        assert x_min == pytest.approx(X_MIN, abs=1e-6)
        assert I_min == pytest.approx(I_MIN, abs=1e-6)
        assert x_max < x_min and I_max > I_min

    def test_extrema_are_critical_to_tolerance(self):
        x_max, x_min = fold_voltages(P)
        assert abs(i_infinity_derivative(x_max, P)) < 1e-12
        assert abs(i_infinity_derivative(x_min, P)) < 1e-12

    def test_curve_decreases_between_extrema(self):
        x_max, x_min = fold_voltages(P)
        xs = np.linspace(x_max, x_min, 102)[1:-1]
        assert all(i_infinity_derivative(x, P) < 0.0 for x in xs)

    def test_monotone_outside_the_fold(self):
        x_max, x_min = fold_voltages(P)
        left = np.linspace(-1.5, x_max, 1001)[:-1]
        right = np.linspace(x_min, 1.5, 1001)[1:]
        assert all(i_infinity_derivative(x, P) > 0.0 for x in left)
        assert all(i_infinity_derivative(x, P) > 0.0 for x in right)

    def test_against_dense_grid_oracle(self):
        # brute-force local extrema of the curve on a 1e-5 grid
        p = DmlParams(I=0.019, gamma=0.6)
        x_max, x_min = fold_voltages(p)
        xs = np.arange(-1.0, 1.0, 1e-5)
        ys = np.array([i_infinity(x, p) for x in xs])
        interior = slice(1, -1)
        is_max = (ys[interior] >= ys[:-2]) & (ys[interior] >= ys[2:])
        is_min = (ys[interior] <= ys[:-2]) & (ys[interior] <= ys[2:])
        grid_max = xs[1:-1][is_max]
        grid_min = xs[1:-1][is_min]
        assert np.abs(grid_max - x_max).min() < 2e-5
        assert np.abs(grid_min - x_min).min() < 2e-5

    def test_no_extrema_for_large_recovery_amplitude(self):
        assert fold_voltages(DmlParams(I=0.0, A=1.0)) == []

    @pytest.mark.parametrize(
        "coupling", [NoCoupling(), LinearCoupling(0.008), SigmoidCoupling(0.001)]
    )
    def test_plus_determinant_vanishes_at_each_fold_voltage(self, coupling):
        xs = fold_voltages(P, coupling)
        assert len(xs) == 2 and xs[0] < xs[1]
        for x in xs:
            _, delta_plus = indicators(x, P, coupling)[0]
            assert abs(delta_plus) < 1e-12


class TestClassifyBranch:
    def test_reference_cases(self):
        I_max, I_min = fold_currents(P)
        assert branch_at(0.019) is Branch.UNIQUE
        assert branch_at(0.0001) is Branch.UNIQUE
        assert branch_at(I_max) is Branch.TWOFOLD
        assert branch_at(I_min) is Branch.TWOFOLD
        assert branch_at(0.011) is Branch.THREEFOLD

    def test_fold_tolerance_band(self):
        I_max, _ = fold_currents(P)
        assert branch_at(I_max + 5e-13) is Branch.TWOFOLD
        assert branch_at(I_max + 1e-9) is Branch.UNIQUE
        assert branch_at(I_max - 1e-9) is Branch.THREEFOLD


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
        assert np.shape(eq.points) == (len(expected), 2)
        np.testing.assert_allclose(eq.points, expected, rtol=0, atol=1e-4)

    def test_fold_at_lower_current(self):
        _, I_min = fold_currents(P)
        eq = find_symmetric_equilibria(DmlParams(I=I_min))
        assert eq.branch is Branch.TWOFOLD
        np.testing.assert_allclose(
            eq.points, [(-0.07386, 0.00926), (0.28639, 0.06193)], rtol=0, atol=1e-4
        )

    def test_fold_at_upper_current(self):
        I_max, _ = fold_currents(P)
        eq = find_symmetric_equilibria(DmlParams(I=I_max))
        assert eq.branch is Branch.TWOFOLD
        np.testing.assert_allclose(
            eq.points, [(0.05114, 0.0179), (0.39491, 0.109785)], rtol=0, atol=1e-4
        )

    def test_branch_label_matches_point_count(self):
        for I in (0.0001, 0.011, 0.019):
            eq = find_symmetric_equilibria(DmlParams(I=I))
            assert {1: Branch.UNIQUE, 2: Branch.TWOFOLD, 3: Branch.THREEFOLD}[
                len(eq.points)
            ] is eq.branch

    def test_points_sorted_and_residuals_tiny(self):
        for I in (0.0001, 0.011, 0.019):
            p = DmlParams(I=I)
            eq = find_symmetric_equilibria(p)
            xs = [x for x, _ in eq.points]
            assert (np.diff(xs) > 0).all()
            for x, y in eq.points:
                assert np.abs(single(0.0, [x, y], p)).max() < 1e-10

    def test_branch_count_consistent_with_classification(self):
        # no random current lands within FOLD_TOL of a fold
        I_max, I_min = fold_currents(P)
        rng = np.random.default_rng(42)
        for I in rng.uniform(-0.02, 0.05, size=200):
            eq = find_symmetric_equilibria(DmlParams(I=I))
            assert eq.branch is (Branch.THREEFOLD if I_min < I < I_max else Branch.UNIQUE)

    def test_a_root_far_outside_the_scan_window(self):
        # brentq, xtol 1e-15; the closed-form window reaches it
        eq = find_symmetric_equilibria(DmlParams(I=-50.0))
        assert eq.branch is Branch.UNIQUE
        assert eq.points[0][0] == pytest.approx(-3.3790524258046433, abs=1e-12)


class TestSymmetricEquilibria:
    def test_linear_matches_single_cell_for_any_theta(self):
        base = find_symmetric_equilibria(P)
        for theta in (1e-4, 1e-3, 1e-2, 1e-1):
            eq = find_symmetric_equilibria(P, LinearCoupling(theta))
            assert np.array_equal(eq.points, base.points)
        assert base.points[0][0] == pytest.approx(0.40772, abs=1e-4)

    def test_sigmoid_reference_roots(self):
        eq = find_symmetric_equilibria(P, SigmoidCoupling(sigma=0.001))
        assert eq.points[0][0] == pytest.approx(0.41279, abs=1e-4)
        eq = find_symmetric_equilibria(P, SigmoidCoupling(sigma=0.0001))
        assert eq.points[0][0] == pytest.approx(0.40824, abs=1e-4)

    def test_sigmoid_zero_strength_degenerates_to_single_cell(self):
        base = find_symmetric_equilibria(P)
        eq = find_symmetric_equilibria(P, SigmoidCoupling(sigma=0.0))
        assert np.array_equal(eq.points, base.points)

    def test_sigmoid_continuity_in_small_strength(self):
        base = find_symmetric_equilibria(P).points[0][0]
        eq = find_symmetric_equilibria(P, SigmoidCoupling(sigma=1e-5))
        assert abs(eq.points[0][0] - base) < 1e-3

    def test_sigmoid_residuals_tiny(self):
        c = SigmoidCoupling(sigma=0.001)
        eq = find_symmetric_equilibria(P, c)
        rhs = c.field
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
        assert at_fold.branch is Branch.TWOFOLD and np.shape(at_fold.points) == (2, 2)
        inside = find_symmetric_equilibria(DmlParams(I=I_fold + inward), c)
        assert inside.branch is Branch.THREEFOLD and np.shape(inside.points) == (3, 2)


# fold ("F") and branch-point ("B") currents of the pairs at the default
# parameters, ascending in voltage
CRITICAL_CURRENTS = [
    (LinearCoupling(0.008), [("F", 0.015417976), ("B", 0.015303007), ("B", 0.003493649),
                             ("F", 0.003397079)]),
    (SigmoidCoupling(1e-3), [("F", 0.013560547), ("B", 0.013559294), ("B", 0.001691171),
                             ("F", 0.001691162)]),
    (SigmoidCoupling(1e-4), [("F", 0.015232233), ("B", 0.015232220), ("B", 0.003226514),
                             ("F", 0.003226514)]),
]
# a steep synapse that opens at 0: g has four extrema, and at this current
# the pair has five symmetric equilibria
FIVE_ROOTS = (DmlParams(I=0.012005578808211124),
              SigmoidCoupling(0.0016102620275609393, lam=100.0, q=0.0))


class TestCriticalPoints:
    @pytest.mark.parametrize("coupling, table", CRITICAL_CURRENTS)
    def test_reproduces_the_table_of_currents(self, coupling, table):
        points = critical_points(P, coupling)
        assert [kind[0].upper() for kind, _, _ in points] == [kind for kind, _ in table]
        np.testing.assert_allclose([I for _, _, I in points], [I for _, I in table],
                                   rtol=0, atol=1e-9)
        assert [x for _, x, _ in points] == sorted(x for _, x, _ in points)

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
    )
    def test_each_point_is_a_zero_of_its_block_determinant(self, A, alpha, gamma, coupling):
        p = DmlParams(I=0.0, A=A, alpha=alpha, gamma=gamma)
        points = critical_points(p, coupling)
        for kind, x, I in points:
            # a fold zeroes the plus block's determinant, a branch point the minus one's
            _, delta = indicators(x, p, coupling)[0 if kind == "fold" else 1]
            assert abs(delta) < 1e-12
            assert I == i_infinity(x, p) - coupling.current(x, x)
        assert [x for kind, x, _ in points if kind == "fold"] == fold_voltages(p, coupling)
        if coupling.dim == 2:
            assert {kind for kind, _, _ in points} <= {"fold"}
        if isinstance(coupling, LinearCoupling):
            # delta_minus = 0 is i_infinity'(x) = -2 theta on the diagonal
            def f(x):
                return i_infinity_derivative(x, p) + 2.0 * coupling.theta

            xs = np.linspace(*WINDOW, 3001)
            fs = [f(x) for x in xs]
            expected = [brentq(f, a, b, xtol=1e-15)
                        for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:]) if fa * fb < 0.0]
            found = [x for kind, x, _ in points if kind == "branch-point"]
            np.testing.assert_allclose(found, expected, rtol=0, atol=1e-12)

    def test_five_symmetric_equilibria(self):
        p, c = FIVE_ROOTS
        eq = find_symmetric_equilibria(p, c)
        assert eq.branch is Branch.FIVEFOLD and np.shape(eq.points) == (5, 2)
        deltas = []
        for x, _ in eq.points:
            assert abs(p.I - i_infinity(x, p) + c.current(x, x)) <= 1e-15
            _, delta_plus = indicators(x, p, c)[0]
            deltas.append(delta_plus)
        signs = np.sign(deltas)
        assert (signs[1:] == -signs[:-1]).all()
        folds = [I for kind, _, I in critical_points(p, c) if kind == "fold"]
        assert len(folds) == 4
        # five equilibria between the second and third fold currents, three
        # just past the third
        assert sorted(folds)[1] < p.I < sorted(folds)[2]
        past = find_symmetric_equilibria(replace(p, I=sorted(folds)[2] + 1e-6), c)
        assert past.branch is Branch.THREEFOLD


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
            return -i_infinity_derivative(x, P) + (d_self + d_other)

        for f in (gprime, lambda x: i_infinity_derivative(x, P)):
            got = scan_brackets(f, *window, 1e-3)
            want = scan_brackets_reference(f, *window, 1e-3)
            assert [(a, b) for a, b, _, _ in got] == want
            for a, b, fa, fb in got:  # the end values the root solve is handed
                assert fa == 0.0 or fa * f(a) > 0.0
                assert fb == 0.0 or fb * f(b) > 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        A=st.floats(1e-4, 1e-2),
        alpha=st.floats(1.0, 10.0),
        gamma=st.floats(0.1, 1.0),
        coupling=st.one_of(
            st.just(NoCoupling()),
            st.floats(0.0, 0.05, exclude_min=True).map(LinearCoupling),
            st.builds(SigmoidCoupling, st.floats(0.0, 0.05), st.floats(1.5, 2.5),
                      st.floats(5.0, 40.0), st.floats(-0.5, 0.3)),
        ),
        I=st.floats(-0.02, 0.04),
    )
    # alpha * 1.5 past the overflow threshold, so s and g take _exp's guard
    @example(A=1e-4, alpha=600.0, gamma=1.0, coupling=SigmoidCoupling(0.01), I=0.01)
    # an exponent just below the threshold, whose slope's product overflows
    @example(A=0.01, alpha=1000.0, gamma=0.3, coupling=NoCoupling(), I=0.01)
    # the steep synapse of five equilibria
    @example(A=0.0041, alpha=5.276, gamma=0.3,
             coupling=SigmoidCoupling(0.0016102620275609393, lam=100.0, q=0.0), I=0.012)
    def test_the_inline_s_and_g_give_the_plain_bits(self, A, alpha, gamma, coupling, I):
        p = DmlParams(I=I, A=A, alpha=alpha, gamma=gamma)
        solve, solved = equilibria._refine_root, []

        def spy(f, *bracket):
            solved.append(f)
            return solve(f, *bracket)

        xs = [*np.linspace(-3.0, 3.0, 601).tolist(), 2000.0]  # 2000: past the guard
        for sign in (1.0, -1.0):
            with mock.patch.object(equilibria, "_refine_root", spy):
                equilibria._block_zeros(p, coupling, sign)
            f = block_slope(p, coupling, sign)
            # repr tells -0.0 from 0.0 and gives each float's shortest round trip
            for s in solved:
                assert repr([s(x) for x in xs]) == repr([f(x) for x in xs])
            solved.clear()

        extrema = fold_voltages(p, coupling)
        with mock.patch.object(equilibria, "_refine_root", spy):
            equilibria._roots_at(p, coupling, extrema, p.I)
        for g in solved:
            assert repr([g(x) for x in xs]) == repr(
                [p.I - i_infinity(x, p) + coupling.current(x, x) for x in xs])


# the cell's cusp at the default alpha and gamma, where its two folds merge:
# A_c = gamma x (2 - 3x) e^(-alpha x) / alpha at x, the lesser root of
# 3 alpha x^2 - (2 alpha + 6) x + 2 (mpmath, 50 digits)
A_CUSP = 0.0060092233135377645
# A = A_c (1 - d) as a float: the fold voltages at that A, and the current
# midway between the fold currents (mpmath, 50 digits)
NEAR_CUSP = {
    1e-6: (0.006009217304314451, 0.1392281302304364, 0.13960936282880698, 0.025070048055671413),
    1e-7: (0.006009222712615433, 0.1393583966527764, 0.1394789529588094, 0.025070085673616217),
    1e-8: (0.006009223253445531, 0.1393996060081881, 0.13943772925863773, 0.025070089435408976),
}


class TestFoldSearch:
    @settings(max_examples=40, deadline=None)
    @given(
        A=st.floats(1e-8, 1.0),
        alpha=st.floats(0.1, 1000.0),
        gamma=st.floats(0.05, 2.0),
        coupling=st.one_of(
            st.just(NoCoupling()),
            st.floats(1e-6, 1.0).map(LinearCoupling),
            st.builds(SigmoidCoupling, st.floats(0.0, 0.05), st.floats(-3.0, 3.0),
                      st.floats(0.5, 200.0), st.floats(-1.0, 1.0)),
            # the family of the steep synapse of five equilibria
            st.builds(SigmoidCoupling, st.floats(0.0, 0.005), st.just(2.0), st.just(100.0),
                      st.floats(-0.3, 0.3)),
        ),
        sign=st.sampled_from([1.0, -1.0]),
    )
    @example(A=0.0041, alpha=5.276, gamma=0.3,
             coupling=SigmoidCoupling(0.0016102620275609393, lam=100.0, q=0.0), sign=1.0)
    @example(A=0.0041, alpha=5.276, gamma=0.3, coupling=SigmoidCoupling(1e-3), sign=-1.0)
    @example(A=0.0041, alpha=5.276, gamma=0.3, coupling=LinearCoupling(0.008), sign=-1.0)
    @example(A=1e-4, alpha=600.0, gamma=1.0, coupling=SigmoidCoupling(0.01), sign=1.0)
    @example(A=0.01, alpha=1000.0, gamma=0.3, coupling=NoCoupling(), sign=1.0)
    @example(A=NEAR_CUSP[1e-8][0], alpha=5.276, gamma=0.3, coupling=NoCoupling(), sign=1.0)
    def test_the_zeros_are_brentq_s_on_a_fine_scan(self, A, alpha, gamma, coupling, sign):
        p = DmlParams(A=A, alpha=alpha, gamma=gamma)
        f = block_slope(p, coupling, sign)
        # these draws keep every zero in [-1.6, 2.2] (D <= 10); the scan
        # reads [-3, 3] 1e-5 apart, up to where e^(alpha x) overflows
        xs = np.linspace(-3.0, 3.0, 600001)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = f(xs)
        keep = np.isfinite(vals)
        xs, vals = xs[keep], vals[keep]
        # two zeros in one step hide from the scan, but then the extremum of
        # s between them is within an eighth of a second difference of 0
        turns = np.flatnonzero(np.diff(np.sign(np.diff(vals))) != 0.0) + 1
        second = np.abs(vals[turns - 1] - 2.0 * vals[turns] + vals[turns + 1])
        assume((np.abs(vals[turns]) > 8.0 * second).all())
        changes = np.flatnonzero(((vals[:-1] < 0.0) & (vals[1:] > 0.0))
                                 | ((vals[:-1] > 0.0) & (vals[1:] < 0.0)))
        want = sorted([*xs[vals == 0.0], *(brentq(f, xs[i], xs[i + 1], xtol=1e-15)
                                           for i in changes)])
        got = equilibria._block_zeros(p, coupling, sign)
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", NEAR_CUSP)
    def test_both_folds_near_the_cusp(self, d):
        # a 1e-3 grid of [-1.5, 1.5] saw neither: the pair is 3.8e-4 apart
        # at d = 1e-6 and 3.8e-5 at 1e-8
        A, x_max, x_min, _ = NEAR_CUSP[d]
        assert A == pytest.approx(A_CUSP * (1.0 - d), rel=2e-16)
        np.testing.assert_allclose(fold_voltages(DmlParams(A=A)), [x_max, x_min],
                                   rtol=0, atol=1e-12)

    def test_threefold_between_the_fold_currents_near_the_cusp(self):
        A, x_max, x_min, I = NEAR_CUSP[1e-6]
        eq = find_symmetric_equilibria(DmlParams(A=A, I=I))
        assert eq.branch is Branch.THREEFOLD
        low, middle, high = (x for x, _ in eq.points)
        assert low < x_max < middle < x_min < high

    @pytest.mark.parametrize("d", [1e-7, 1e-8])
    def test_a_fold_band_within_the_fold_tolerance_is_twofold(self, d):
        # the fold currents are 1.8e-12 apart at d = 1e-7 and 5.6e-14 at
        # 1e-8: every current between them is within FOLD_TOL of both, so
        # both folds are tangency roots, and the root between them merges
        A, x_max, x_min, I = NEAR_CUSP[d]
        p = DmlParams(A=A, I=I)
        assert 0.0 < i_infinity(x_max, p) - i_infinity(x_min, p) < 2.0 * FOLD_TOL
        eq = find_symmetric_equilibria(p)
        assert eq.branch is Branch.TWOFOLD
        np.testing.assert_allclose([x for x, _ in eq.points], [x_max, x_min], rtol=0, atol=1e-12)

    def test_a_tangency_at_rounding_is_one_zero(self):
        # alpha k e^(alpha x) is 1e-302 at alpha = 1e-300, so with
        # theta = 1/6 the minus block's s is -3 (x - 1/3)^2 - 1e-302, which
        # rounds to 0 on a run of about 1e-8 around x = 1/3: one
        # branch point, not one per float of the run
        points = critical_points(DmlParams(alpha=1e-300), LinearCoupling(1.0 / 6.0))
        assert [(kind, x) for kind, x, _ in points] == [
            ("fold", 0.0), ("branch-point", pytest.approx(1.0 / 3.0, abs=1e-8)),
            ("fold", pytest.approx(2.0 / 3.0, abs=1e-15))]

    def test_a_nan_slope_is_refused(self):
        class Gap(NoCoupling):
            def partials(self, x_self, x_other):
                return (math.nan, 0.0) if 0.1 < x_self < 0.2 else (0.0, 0.0)

        with pytest.raises(ConvergenceError, match=r"^the block's slope is NaN on \["):
            fold_voltages(P, Gap())

    def test_an_unbounded_curvature_is_refused(self):
        # lam^3 overflows: no finite bound on |s''|, and no search
        with pytest.raises(ConvergenceError, match=r"^the fold search has no finite bound"):
            fold_voltages(P, SigmoidCoupling(0.001, lam=1e300))
        # an empty window needs none: alpha k e^(alpha x) > 1/3 on x >= 0
        assert fold_voltages(DmlParams(alpha=1e160)) == []

    def test_the_search_stops_at_its_budget(self, monkeypatch):
        # lam = 100 takes 37 halvings at the default parameters
        monkeypatch.setattr(equilibria, "_MAX_SPLITS", 36)
        with pytest.raises(ConvergenceError, match=r"^the fold search halved 36 pieces of "):
            fold_voltages(P, SigmoidCoupling(0.0016102620275609393, lam=100.0, q=0.0))


def _never(x):
    raise AssertionError("evaluated")


class TestRootSolve:
    @pytest.mark.parametrize("coupling", [NoCoupling(), SigmoidCoupling(0.001)])
    def test_about_ten_evaluations_per_bracketed_root(self, monkeypatch, coupling):
        solve, partials = equilibria._refine_root, type(coupling).partials
        roots = [0, 0]  # stage two's solves and evaluations of g
        searches = []  # evaluations of s per fold search

        def counted(f, *bracket):
            if stage == "folds":
                return solve(f, *bracket)
            roots[0] += 1

            def f_counted(x):
                roots[1] += 1
                return f(x)

            return solve(f_counted, *bracket)

        def counted_partials(self, x_self, x_other):
            searches[-1] += 1 if stage == "folds" else 0
            return partials(self, x_self, x_other)

        monkeypatch.setattr(equilibria, "_refine_root", counted)
        monkeypatch.setattr(type(coupling), "partials", counted_partials)
        for I in np.linspace(-0.005, 0.025, 200):
            p = DmlParams(I=float(I))
            stage = "folds"
            searches.append(0)
            extrema = fold_voltages(p, coupling)
            stage = "roots"
            equilibria._roots_at(p, coupling, extrema, p.I)
        assert len(extrema) == 2 and roots[0] >= 200
        assert max(searches) <= 24  # 17 for the cell, 18 for the pair
        assert roots[1] / roots[0] <= 10.0  # 7.76 for the cell, 7.84 for the pair

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
            return -i_infinity_derivative(x, p) + (d_self + d_other)

        extrema = [bisect_reference(gprime, a, b)
                   for a, b, _, _ in scan_brackets(gprime, *WINDOW, 1e-3)]
        np.testing.assert_allclose(fold_voltages(p, coupling), extrema, rtol=0, atol=1e-13)
        # a root near a fold is ill-conditioned; the fold tests cover folds
        assume(all(abs(g(x)) > 1e-6 for x in extrema))
        ends = [WINDOW[0], *extrema, WINDOW[1]]
        pieces = [(a, b) for a, b in zip(ends, ends[1:]) if g(a) * g(b) < 0.0]
        roots = [x for x, _ in find_symmetric_equilibria(p, coupling).points]
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

    @settings(max_examples=150, deadline=None)
    @given(
        A=st.floats(1e-4, 1e-2),
        alpha=st.floats(1.0, 1000.0),
        gamma=st.floats(0.1, 1.0),
        coupling=st.one_of(
            st.just(NoCoupling()),
            st.floats(0.0, 0.05, exclude_min=True).map(LinearCoupling),
            st.floats(0.0, 0.05).map(SigmoidCoupling),
        ),
        I=st.floats(-0.05, 0.05),
    )
    # a far end where e^(alpha x) overflows, and one about 1e192 (both
    # once gave a wrong root with exit 0), and a slope that overflows in
    # the fold search
    @example(A=0.001, alpha=300.0, gamma=0.3, coupling=NoCoupling(), I=0.01)
    @example(A=0.001, alpha=600.0, gamma=0.3, coupling=NoCoupling(), I=0.01)
    @example(A=0.01, alpha=1000.0, gamma=0.3, coupling=NoCoupling(), I=0.01)
    # g(0) = I - A / gamma = 0: a root on the left end, found by its value
    @example(A=0.0078125, alpha=1.0, gamma=1.0, coupling=NoCoupling(), I=0.0078125)
    def test_every_root_is_brentq_s_on_a_fine_scan(self, A, alpha, gamma, coupling, I):
        p = DmlParams(I=I, A=A, alpha=alpha, gamma=gamma)

        def g(x):
            return p.I - i_infinity(x, p) + coupling.current(x, x)

        # a root pair closer than the grid's step sits within about
        # step^2 |g''| / 2 <= 2e-6 of a fold; |g| >= 1e-5 there keeps it out
        assume(all(abs(g(x)) > 1e-5 for x in fold_voltages(p, coupling)))
        # every root lies in [-0.4, 1.2] here: x^2 (x - 1) <= I + current
        xs = np.linspace(-1.0, 1.5, 25001)
        signs = np.sign(g(xs))
        roots = sorted([*xs[signs == 0.0], *(brentq(g, xs[i], xs[i + 1], xtol=1e-15)
                                              for i in np.flatnonzero(signs[:-1] * signs[1:] < 0.0))])
        found = [x for x, _ in find_symmetric_equilibria(p, coupling).points]
        assert len(found) == len(roots)
        np.testing.assert_allclose(found, roots, rtol=0, atol=1e-12)

    def test_a_nan_inside_a_bracket_names_the_current_and_the_bracket(self):
        class Gap(NoCoupling):
            def current(self, x_self, x_other):
                return math.nan if 0.35 < x_self < 0.45 else 0.0

        # the root near 0.408 is on the piece from the fold at 0.286
        with pytest.raises(ConvergenceError, match=r"^no equilibrium found for I=0\.019: "
                           r"f is NaN at x=0\.3\d* in the bracket \[0\.2863\d*, 0\.4\d*\]$"):
            find_symmetric_equilibria(P, Gap())

    @pytest.mark.parametrize("current", [
        lambda x: 1.0,  # past its current_bound of 0: g > 0 at the right end
        lambda x: math.nan if abs(x - X_MIN) < 1e-3 else 0.0,  # NaN at an extremum
    ], ids=["past-its-bound", "nan-at-an-extremum"])
    def test_ends_without_their_signs_or_a_nan_extremum_are_refused(self, current):
        class Broken(NoCoupling):
            def current(self, x_self, x_other):
                return current(x_self)

        with pytest.raises(ConvergenceError, match=r"^no equilibrium found for I=0\.019: "
                           r"g is NaN or lacks its end signs on \[0\.0, 0\.4\d*\]$"):
            find_symmetric_equilibria(P, Broken())

    def test_infinite_end_value_takes_the_midpoint(self):
        # an overflowed e^(alpha x) is an infinite end value: a sign, through
        # which no inverse quadratic is taken
        def f(x):
            return 0.3 - x if x < 0.9 else -math.inf

        assert _refine_root(f, 0.0, 1.0, 0.3, -math.inf) == pytest.approx(0.3, abs=1e-14)

    def test_a_bracket_that_closes_on_an_infinite_value_is_refused(self):
        # a jump from a finite value to an infinite one is no root
        def f(x):
            return 1.0 if x < 0.7 else -math.inf

        with pytest.raises(ConvergenceError, match=r"^f jumps to an infinite value near "
                           r"x=0\.69\d* in the bracket \[0\.0, 1\.0\]$"):
            _refine_root(f, 0.0, 1.0, 1.0, -math.inf)


def test_y_infinity_matches_recovery_nullcline():
    xs = np.linspace(-1.0, 1.0, 7)
    for x in xs:
        y = y_infinity(x, P)
        assert single(0.0, [x, y], P)[1] == pytest.approx(0.0, abs=1e-15)
