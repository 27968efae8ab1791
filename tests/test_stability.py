import math

import numpy as np
import pytest

from dmlneuro.equilibria import find_extrema, find_symmetric_equilibria
from dmlneuro.exceptions import DegenerateDeterminantError
from dmlneuro.models import (
    DmlParams,
    LinearCoupling,
    NoCoupling,
    SigmoidCoupling,
    vector_field,
)
from dmlneuro.stability import (
    BetaStarKind,
    Classification,
    StabilityIndicators,
    beta_star,
    classify,
    eigenvalues,
    indicators,
    jacobian,
    saddle_node_condition,
)

P = DmlParams(I=0.019)
X_STAR = 0.40772  # unique equilibrium voltage at the default drive


def matignon_stable(matrix: np.ndarray, beta: float) -> bool:
    # literal eigenvalue test with a dense solver, independent of the
    # closed-form route
    eigs = np.linalg.eigvals(matrix)
    return bool((np.abs(np.angle(eigs)) > beta * math.pi / 2.0).all())


class TestJacobian:
    def test_single_cell_trace_and_determinant(self):
        J = jacobian(X_STAR, P)
        assert np.trace(J) == pytest.approx(0.01673, abs=1e-4)
        assert np.linalg.det(J) == pytest.approx(0.0909, abs=1e-3)

    def test_single_cell_closed_form_at_origin(self):
        J = jacobian(0.0, P)
        expected = np.array([[0.0, -1.0], [5.276 * 0.0041, -0.3]])
        np.testing.assert_allclose(J, expected, rtol=0, atol=1e-12)

    def test_entries_match_finite_differences_of_the_field(self):
        x, y = 0.0, 0.0041 / 0.3
        J = jacobian(x, P)
        eps = 1e-7
        single = vector_field(NoCoupling())[0]
        for col, basis in enumerate(np.eye(2)):
            fd = (
                np.array(single(0.0, np.array([x, y]) + eps * basis, P))
                - np.array(single(0.0, np.array([x, y]) - eps * basis, P))
            ) / (2 * eps)
            np.testing.assert_allclose(J[:, col], fd, rtol=0, atol=1e-6)

    def test_pair_jacobian_has_block_structure(self):
        J = jacobian(X_STAR, P, LinearCoupling(0.008))
        assert J.shape == (4, 4)
        np.testing.assert_array_equal(J[:2, :2], J[2:, 2:])
        np.testing.assert_array_equal(J[:2, 2:], J[2:, :2])
        assert J[0, 2] == 0.008 and J[1, 3] == 0.0

    @pytest.mark.parametrize(
        "coupling",
        [LinearCoupling(0.008), LinearCoupling(0.001), SigmoidCoupling(sigma=0.001)],
    )
    def test_block_eigenvalues_match_dense_solver(self, coupling):
        ev_blocks = np.sort_complex(eigenvalues(X_STAR, P, coupling))
        ev_dense = np.sort_complex(np.linalg.eigvals(jacobian(X_STAR, P, coupling)))
        assert np.abs(ev_blocks - ev_dense).max() < 1e-10


class TestIndicators:
    def test_single_cell_values(self):
        ind = indicators(X_STAR, P)
        assert ind.tau_plus == pytest.approx(0.01673, abs=1e-4)
        assert ind.delta_plus == pytest.approx(0.0909, abs=1e-3)
        assert ind.tau_minus is None and ind.delta_minus is None

    def test_linear_pair_shifts_are_exact(self):
        theta = 0.008
        ind = indicators(X_STAR, P, LinearCoupling(theta))
        assert ind.tau_minus == ind.tau_plus - 2.0 * theta
        assert ind.delta_minus == ind.delta_plus + 2.0 * theta * 0.3

    def test_sigmoid_zero_strength_reduces_to_single_cell(self):
        base = indicators(X_STAR, P)
        ind = indicators(X_STAR, P, SigmoidCoupling(sigma=0.0))
        assert ind.tau_plus == base.tau_plus == ind.tau_minus
        assert ind.delta_plus == base.delta_plus == ind.delta_minus

    def test_matches_jacobian_blocks(self):
        for coupling in (NoCoupling(), LinearCoupling(0.01), SigmoidCoupling(sigma=0.002)):
            ind = indicators(X_STAR, P, coupling)
            J = jacobian(X_STAR, P, coupling)
            if isinstance(coupling, NoCoupling):
                blocks = [J]
            else:
                blocks = [J[:2, :2] + J[:2, 2:], J[:2, :2] - J[:2, 2:]]
            for (tau, delta), block in zip(ind.branches, blocks):
                assert tau == pytest.approx(np.trace(block), abs=1e-14)
                assert delta == pytest.approx(np.linalg.det(block), rel=1e-12)


class TestClassify:
    def test_negative_determinant_is_saddle_for_any_order(self):
        ind = StabilityIndicators(tau_plus=0.5, delta_plus=-0.01)
        for beta in (0.1, 0.5, 1.0):
            assert classify(ind, beta) is Classification.SADDLE

    def test_classical_stable_case(self):
        ind = StabilityIndicators(tau_plus=-0.1, delta_plus=0.05)
        assert classify(ind, 1.0) is Classification.ASYMPTOTICALLY_STABLE

    def test_order_dichotomy_at_reference_equilibrium(self):
        ind = StabilityIndicators(tau_plus=0.01673, delta_plus=0.0909)
        assert classify(ind, 0.97) is Classification.ASYMPTOTICALLY_STABLE
        assert classify(ind, 0.99) is Classification.UNSTABLE

    def test_degenerate_band(self):
        ind = StabilityIndicators(tau_plus=0.1, delta_plus=5e-13)
        assert classify(ind, 0.9) is Classification.SADDLE_NODE_DEGENERATE

    def test_classical_limit_agrees_with_trace_determinant_rules(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            tau = rng.uniform(-1.0, 1.0)
            delta = rng.uniform(-1.0, 1.0)
            if abs(delta) <= 1e-12:
                continue
            got = classify(StabilityIndicators(tau, delta), 1.0)
            if delta < 0:
                expected = Classification.SADDLE
            elif tau < 0:
                expected = Classification.ASYMPTOTICALLY_STABLE
            else:
                expected = Classification.UNSTABLE
            assert got is expected

    def test_dimer_requires_both_branches_stable(self):
        ind = StabilityIndicators(
            tau_plus=0.01, delta_plus=0.09, tau_minus=0.5, delta_minus=0.01
        )
        assert classify(ind, 0.5) is Classification.UNSTABLE


class TestBetaStar:
    def test_single_cell_reference_thresholds(self):
        eq = find_symmetric_equilibria(P)
        result = beta_star(eq.points[0, 0], P)
        assert result.kind is BetaStarKind.THRESHOLD
        assert result.value == pytest.approx(0.98233, abs=1e-4)

        p22 = DmlParams(I=0.022)
        eq22 = find_symmetric_equilibria(p22)
        assert beta_star(eq22.points[0, 0], p22).value == pytest.approx(0.98772, abs=1e-4)

    def test_linear_pair_threshold_is_theta_independent(self):
        eq = find_symmetric_equilibria(P)
        x = eq.points[0, 0]
        base = beta_star(x, P).value
        values = [
            beta_star(x, P, LinearCoupling(theta)).value
            for theta in (1e-4, 1e-3, 8e-3, 1e-1)
        ]
        assert max(abs(v - base) for v in values) < 1e-12
        assert base == pytest.approx(0.98233, abs=1e-4)

    def test_sigmoid_reference_thresholds(self):
        for sigma, expected in ((0.001, 0.98628), (0.0001, 0.98274)):
            c = SigmoidCoupling(sigma=sigma)
            eq = find_symmetric_equilibria(P, c)
            result = beta_star(eq.points[0, 0], P, c)
            assert result.kind is BetaStarKind.THRESHOLD
            assert result.value == pytest.approx(expected, abs=1e-4)

    def test_zero_trace_gives_unit_threshold(self):
        # x = 0.5 makes the voltage self-derivative exactly 0.25, so
        # gamma = 0.25 puts the trace at exactly zero with delta > 0
        x, p = 0.5, DmlParams(I=0.0, gamma=0.25)
        ind = indicators(x, p)
        assert ind.tau_plus == 0.0 and ind.delta_plus > 0.0
        result = beta_star(x, p)
        assert result.kind is BetaStarKind.THRESHOLD
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_negative_trace_stable_for_all_orders(self):
        # at the low-current equilibrium the trace is negative
        p = DmlParams(I=0.0001)
        eq = find_symmetric_equilibria(p)
        result = beta_star(eq.points[0, 0], p)
        assert result.kind is BetaStarKind.STABLE_FOR_ALL_ORDERS
        assert result.value is None

    def test_overdamped_ratio_unstable_for_all_orders(self):
        # tau >= 2 sqrt(delta) leaves no admissible stable order
        x = 0.5
        p = DmlParams(I=0.0, A=0.028, alpha=0.1, gamma=0.01)
        ind = indicators(x, p)
        assert ind.delta_plus > 0
        assert ind.tau_plus / (2 * math.sqrt(ind.delta_plus)) >= 1
        assert beta_star(x, p).kind is BetaStarKind.UNSTABLE_FOR_ALL_ORDERS

    def test_degenerate_determinant_raises(self):
        ex = find_extrema(P)
        p = DmlParams(I=ex.I_min)
        eq = find_symmetric_equilibria(p)
        with pytest.raises(DegenerateDeterminantError):
            beta_star(eq.points[-1, 0], p)  # the fold point

    def test_threshold_brackets_the_classification_flip(self):
        cases = [
            (find_symmetric_equilibria(P).points[0, 0], NoCoupling()),
            (find_symmetric_equilibria(P).points[0, 0], LinearCoupling(0.008)),
            (
                find_symmetric_equilibria(P, SigmoidCoupling(sigma=0.001)).points[0, 0],
                SigmoidCoupling(sigma=0.001),
            ),
        ]
        for x, coupling in cases:
            result = beta_star(x, P, coupling)
            assert result.kind is BetaStarKind.THRESHOLD
            ind = indicators(x, P, coupling)
            assert classify(ind, result.value - 1e-4) is Classification.ASYMPTOTICALLY_STABLE
            if result.value + 1e-4 <= 1.0:
                assert classify(ind, result.value + 1e-4) is Classification.UNSTABLE

    def test_plus_branch_determines_the_dimer_threshold(self):
        # whenever both branches have positive trace and determinant the
        # minus branch ratio is smaller, so the plus branch binds
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 100:
            x = rng.uniform(0.3, 0.6)
            theta = 10 ** rng.uniform(-4, -1)
            ind = indicators(x, P, LinearCoupling(theta))
            if ind.tau_minus <= 0 or ind.delta_plus <= 0:
                continue
            plus = ind.tau_plus / (2 * math.sqrt(ind.delta_plus))
            minus = ind.tau_minus / (2 * math.sqrt(ind.delta_minus))
            assert minus < plus
            checked += 1


class TestEigenvalueOracleEquivalence:
    def test_closed_form_classification_matches_matignon_test(self):
        rng = np.random.default_rng(2024)
        couplings = [
            lambda: NoCoupling(),
            lambda: LinearCoupling(10 ** rng.uniform(-4, -0.5)),
            lambda: SigmoidCoupling(sigma=10 ** rng.uniform(-5, -2)),
        ]
        checked = 0
        while checked < 500:
            x = rng.uniform(-0.5, 0.8)
            p = DmlParams(
                I=rng.uniform(-0.02, 0.05),
                A=0.0041 * 10 ** rng.uniform(-0.5, 0.5),
                alpha=rng.uniform(3.0, 7.0),
                gamma=rng.uniform(0.1, 0.8),
            )
            coupling = couplings[rng.integers(3)]()
            beta = rng.uniform(0.05, 1.0)
            ind = indicators(x, p, coupling)
            if min(abs(d) for _, d in ind.branches) < 1e-12:
                continue  # degenerate ties excluded
            got = classify(ind, beta)
            stable = matignon_stable(jacobian(x, p, coupling), beta)
            assert (got is Classification.ASYMPTOTICALLY_STABLE) == stable
            if got is Classification.SADDLE:
                eigs = np.linalg.eigvals(jacobian(x, p, coupling))
                assert (np.isreal(eigs) & (eigs.real > 0)).any()
            checked += 1


class TestSaddleNodeCondition:
    def test_fold_detected_at_lower_extremum(self):
        ex = find_extrema(P)
        report = saddle_node_condition(P, NoCoupling(), ex.I_min)
        assert report.found
        assert any("delta" in d and "x* = 0.286" in d for d in report.details)

    def test_fold_detected_at_upper_extremum(self):
        ex = find_extrema(P)
        assert saddle_node_condition(P, NoCoupling(), ex.I_max).found

    def test_no_fold_at_generic_current(self):
        report = saddle_node_condition(P, NoCoupling(), 0.019)
        assert not report.found and report.details == ()

    def test_linear_pair_folds_where_the_cell_does(self):
        # the plus block of a linear pair is the single cell's for every theta
        ex = find_extrema(P)
        report = saddle_node_condition(P, LinearCoupling(0.008), ex.I_min)
        assert report.found
        assert any(d.startswith("delta+") for d in report.details)
        assert not saddle_node_condition(P, LinearCoupling(0.008), 0.019).found

    def test_sigmoid_fold_tracks_the_shifted_extremum(self):
        # with a tiny sigmoid coupling the fold survives at a slightly
        # shifted current; scan for a vanishing branch determinant nearby
        c = SigmoidCoupling(sigma=0.0)
        ex = find_extrema(P)
        assert saddle_node_condition(P, c, ex.I_min).found
