import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dmlneuro import stability
from dmlneuro.equilibria import Branch, critical_points, find_symmetric_equilibria, y_infinity
from dmlneuro.exceptions import DimensionMismatchError
from dmlneuro.models import (
    DmlParams,
    LinearCoupling,
    NoCoupling,
    SigmoidCoupling,
)
from dmlneuro.stability import (
    BetaStarKind,
    Classification,
    beta_star,
    classify,
    indicators,
    jacobian,
)

P = DmlParams(I=0.019)
X_STAR = 0.40772  # unique equilibrium voltage at the default drive
# the cell's fold currents, at the extrema of its current-voltage curve
I_MAX, I_MIN = (I for _, _, I in critical_points(P))


def symmetric_state(x: float, coupling=NoCoupling(), p: DmlParams = P) -> list:
    # the equilibrium state (x, y*) of each cell, at the voltage x
    return [x, y_infinity(x, p)] * (coupling.dim // 2)


def matignon_stable(matrix: np.ndarray, beta: float) -> bool:
    # literal eigenvalue test with a dense solver, independent of the
    # closed-form route
    eigs = np.linalg.eigvals(matrix)
    return bool((np.abs(np.angle(eigs)) > beta * math.pi / 2.0).all())


def block_eigenvalues(blocks) -> np.ndarray:
    # the roots of lambda^2 - tau lambda + delta for each block
    out = []
    for tau, delta in blocks:
        disc = complex(tau * tau - 4.0 * delta) ** 0.5
        out.extend([(tau + disc) / 2.0, (tau - disc) / 2.0])
    return np.array(out)


def record(*blocks):
    # the beta_star record of an equilibrium whose stability blocks are these
    with mock.patch.object(stability, "indicators", return_value=blocks):
        return beta_star(0.0, P)


def field_differences(coupling, state, eps=1e-7) -> np.ndarray:
    # central differences of the model's field, one column per state entry
    field = coupling.field
    state = np.asarray(state, dtype=float)
    columns = [
        (np.array(field(0.0, (state + eps * e).tolist(), P))
         - np.array(field(0.0, (state - eps * e).tolist(), P))) / (2 * eps)
        for e in np.eye(state.size)
    ]
    return np.column_stack(columns)


class TestJacobian:
    def test_single_cell_trace_and_determinant(self):
        J = jacobian(symmetric_state(X_STAR), P)
        assert np.trace(J) == pytest.approx(0.01673, abs=1e-4)
        assert np.linalg.det(J) == pytest.approx(0.0909, abs=1e-3)

    def test_single_cell_closed_form_at_origin(self):
        J = jacobian(symmetric_state(0.0), P)
        expected = np.array([[0.0, -1.0], [5.276 * 0.0041, -0.3]])
        np.testing.assert_allclose(J, expected, rtol=0, atol=1e-12)

    def test_entries_match_finite_differences_of_the_field(self):
        state = [0.0, 0.0041 / 0.3]
        J = jacobian(state, P)
        np.testing.assert_allclose(J, field_differences(NoCoupling(), state), rtol=0, atol=1e-6)

    @pytest.mark.parametrize(
        "coupling", [LinearCoupling(0.008), SigmoidCoupling(sigma=0.05)], ids=["linear", "sigmoid"]
    )
    def test_asymmetric_state_matches_finite_differences_of_the_field(self, coupling):
        # off the diagonal the two cells' blocks differ; each cell takes the
        # coupling partials at its own voltage and its partner's
        state = [-0.0097, 0.01, 0.3509, 0.08]
        J = jacobian(state, P, coupling)
        assert not np.array_equal(J[:2, :2], J[2:, 2:])
        np.testing.assert_allclose(J, field_differences(coupling, state), rtol=0, atol=1e-7)

    def test_pair_jacobian_has_block_structure(self):
        J = jacobian(symmetric_state(X_STAR, LinearCoupling(0.008)), P, LinearCoupling(0.008))
        assert J.shape == (4, 4)
        np.testing.assert_array_equal(J[:2, :2], J[2:, 2:])
        np.testing.assert_array_equal(J[:2, 2:], J[2:, :2])
        assert J[0, 2] == 0.008 and J[1, 3] == 0.0

    @pytest.mark.parametrize("state", [[0.1], [0.1, 0.1, 0.1], [[0.1, 0.1], [0.1, 0.1]]])
    def test_state_of_another_dimension_is_rejected(self, state):
        with pytest.raises(DimensionMismatchError):
            jacobian(state, P)
        with pytest.raises(DimensionMismatchError):
            jacobian(state + state, P, LinearCoupling(0.008))

    @pytest.mark.parametrize(
        "coupling",
        [LinearCoupling(0.008), LinearCoupling(0.001), SigmoidCoupling(sigma=0.001)],
    )
    def test_block_eigenvalues_match_dense_solver(self, coupling):
        ev_blocks = np.sort_complex(block_eigenvalues(indicators(X_STAR, P, coupling)))
        J = jacobian(symmetric_state(X_STAR, coupling), P, coupling)
        ev_dense = np.sort_complex(np.linalg.eigvals(J))
        assert np.abs(ev_blocks - ev_dense).max() < 1e-10


class TestIndicators:
    def test_single_cell_values(self):
        (tau, delta), = indicators(X_STAR, P)  # one block: the cell has no minus block
        assert tau == pytest.approx(0.01673, abs=1e-4)
        assert delta == pytest.approx(0.0909, abs=1e-3)

    def test_linear_pair_shifts_are_exact(self):
        theta = 0.008
        (tau_plus, delta_plus), (tau_minus, delta_minus) = indicators(
            X_STAR, P, LinearCoupling(theta)
        )
        assert tau_minus == tau_plus - 2.0 * theta
        assert delta_minus == delta_plus + 2.0 * theta * 0.3

    def test_sigmoid_zero_strength_reduces_to_single_cell(self):
        (tau, delta), = indicators(X_STAR, P)
        (tau_plus, delta_plus), (tau_minus, delta_minus) = indicators(
            X_STAR, P, SigmoidCoupling(sigma=0.0)
        )
        assert tau_plus == tau == tau_minus
        assert delta_plus == delta == delta_minus

    def test_matches_jacobian_blocks(self):
        for coupling in (NoCoupling(), LinearCoupling(0.01), SigmoidCoupling(sigma=0.002)):
            ind = indicators(X_STAR, P, coupling)
            J = jacobian(symmetric_state(X_STAR, coupling), P, coupling)
            if isinstance(coupling, NoCoupling):
                blocks = [J]
            else:
                blocks = [J[:2, :2] + J[:2, 2:], J[:2, :2] - J[:2, 2:]]
            for (tau, delta), block in zip(ind, blocks):
                assert tau == pytest.approx(np.trace(block), abs=1e-14)
                assert delta == pytest.approx(np.linalg.det(block), rel=1e-12)


class TestClassify:
    def test_negative_determinant_is_saddle_for_any_order(self):
        result = record((0.5, -0.01))
        for beta in (0.1, 0.5, 1.0):
            assert classify(result, beta) is Classification.SADDLE

    def test_classical_stable_case(self):
        result = record((-0.1, 0.05))
        assert classify(result, 1.0) is Classification.ASYMPTOTICALLY_STABLE

    def test_order_dichotomy_at_reference_equilibrium(self):
        result = record((0.01673, 0.0909))
        assert classify(result, 0.97) is Classification.ASYMPTOTICALLY_STABLE
        assert classify(result, 0.99) is Classification.UNSTABLE

    def test_degenerate_band(self):
        result = record((0.1, 5e-13))
        assert classify(result, 0.9) is Classification.SADDLE_NODE_DEGENERATE

    def test_classical_limit_agrees_with_trace_determinant_rules(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            tau = rng.uniform(-1.0, 1.0)
            delta = rng.uniform(-1.0, 1.0)
            if abs(delta) <= 1e-12:
                continue
            got = classify(record((tau, delta)), 1.0)
            if delta < 0:
                expected = Classification.SADDLE
            elif tau < 0:
                expected = Classification.ASYMPTOTICALLY_STABLE
            else:
                expected = Classification.UNSTABLE
            assert got is expected

    def test_dimer_requires_both_branches_stable(self):
        result = record((0.01, 0.09), (0.5, 0.01))
        assert classify(result, 0.5) is Classification.UNSTABLE


class TestBetaStar:
    def test_single_cell_reference_thresholds(self):
        eq = find_symmetric_equilibria(P)
        result = beta_star(eq.points[0][0], P)
        assert result.kind is BetaStarKind.THRESHOLD
        assert result.value == pytest.approx(0.98233, abs=1e-4)

        p22 = DmlParams(I=0.022)
        eq22 = find_symmetric_equilibria(p22)
        assert beta_star(eq22.points[0][0], p22).value == pytest.approx(0.98772, abs=1e-4)

    def test_linear_pair_threshold_is_theta_independent(self):
        eq = find_symmetric_equilibria(P)
        x = eq.points[0][0]
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
            result = beta_star(eq.points[0][0], P, c)
            assert result.kind is BetaStarKind.THRESHOLD
            assert result.value == pytest.approx(expected, abs=1e-4)

    def test_zero_trace_gives_unit_threshold(self):
        # x = 0.5 makes the voltage self-derivative exactly 0.25, so
        # gamma = 0.25 puts the trace at exactly zero with delta > 0
        x, p = 0.5, DmlParams(I=0.0, gamma=0.25)
        (tau, delta), = indicators(x, p)
        assert tau == 0.0 and delta > 0.0
        result = beta_star(x, p)
        assert result.kind is BetaStarKind.THRESHOLD
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_negative_trace_stable_for_all_orders(self):
        # at the low-current equilibrium the trace is negative
        p = DmlParams(I=0.0001)
        eq = find_symmetric_equilibria(p)
        result = beta_star(eq.points[0][0], p)
        assert result.kind is BetaStarKind.STABLE_FOR_ALL_ORDERS
        assert result.value is None

    def test_overdamped_ratio_unstable_for_all_orders(self):
        # tau >= 2 sqrt(delta) leaves no admissible stable order
        x = 0.5
        p = DmlParams(I=0.0, A=0.028, alpha=0.1, gamma=0.01)
        (tau, delta), = indicators(x, p)
        assert delta > 0
        assert tau / (2 * math.sqrt(delta)) >= 1
        assert beta_star(x, p).kind is BetaStarKind.UNSTABLE_FOR_ALL_ORDERS

    def test_degenerate_determinant_is_undefined(self):
        p = DmlParams(I=I_MIN)
        eq = find_symmetric_equilibria(p)
        result = beta_star(eq.points[-1][0], p)  # the fold point
        assert result.kind is BetaStarKind.UNDEFINED
        assert result.value is None
        assert result.blocks == indicators(eq.points[-1][0], p)
        assert result.block == result.blocks[0]

    def test_saddle_is_unstable_for_all_orders(self):
        # the middle of the cell's three equilibria at I = 0.011: its real
        # eigenvalue of argument 0 leaves no stable order
        p = DmlParams(I=0.011)
        x_mid = find_symmetric_equilibria(p).points[1][0]
        result = beta_star(x_mid, p)
        assert result.kind is BetaStarKind.UNSTABLE_FOR_ALL_ORDERS
        assert result.value is None
        tau, delta = result.block
        assert tau == pytest.approx(-0.0670, abs=1e-4)
        assert delta == pytest.approx(-0.02205, abs=1e-5)
        assert classify(result, 0.5) is Classification.SADDLE

    @pytest.mark.parametrize(
        "blocks, kind, deciding",
        [
            # a saddle decides before a fold, on either block
            ([(0.1, 5e-13), (0.2, -0.01)], BetaStarKind.UNSTABLE_FOR_ALL_ORDERS, 1),
            ([(0.2, -0.01), (0.1, -1e-13)], BetaStarKind.UNSTABLE_FOR_ALL_ORDERS, 0),
            # a fold decides before any threshold
            ([(0.3, 0.09), (0.1, -1e-13)], BetaStarKind.UNDEFINED, 1),
            # else the least threshold, and the first block on a tie
            ([(0.01, 0.09), (0.1, 0.09)], BetaStarKind.THRESHOLD, 1),
            ([(0.1, 0.09), (0.1, 0.09)], BetaStarKind.THRESHOLD, 0),
            ([(-0.1, 0.09), (0.5, 0.01)], BetaStarKind.UNSTABLE_FOR_ALL_ORDERS, 1),
        ],
    )
    def test_result_names_the_deciding_block(self, blocks, kind, deciding):
        result = record(*blocks)
        assert result.kind is kind
        assert result.blocks == tuple(blocks)
        assert result.block == blocks[deciding]

    def test_threshold_brackets_the_classification_flip(self):
        cases = [
            (find_symmetric_equilibria(P).points[0][0], NoCoupling()),
            (find_symmetric_equilibria(P).points[0][0], LinearCoupling(0.008)),
            (
                find_symmetric_equilibria(P, SigmoidCoupling(sigma=0.001)).points[0][0],
                SigmoidCoupling(sigma=0.001),
            ),
        ]
        for x, coupling in cases:
            result = beta_star(x, P, coupling)
            assert result.kind is BetaStarKind.THRESHOLD
            assert classify(result, result.value - 1e-4) is Classification.ASYMPTOTICALLY_STABLE
            if result.value + 1e-4 <= 1.0:
                assert classify(result, result.value + 1e-4) is Classification.UNSTABLE

    def test_plus_branch_determines_the_dimer_threshold(self):
        # whenever both branches have positive trace and determinant the
        # minus branch ratio is smaller, so the plus branch binds
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 100:
            x = rng.uniform(0.3, 0.6)
            theta = 10 ** rng.uniform(-4, -1)
            (tau_plus, delta_plus), (tau_minus, delta_minus) = indicators(
                x, P, LinearCoupling(theta)
            )
            if tau_minus <= 0 or delta_plus <= 0:
                continue
            plus = tau_plus / (2 * math.sqrt(delta_plus))
            minus = tau_minus / (2 * math.sqrt(delta_minus))
            assert minus < plus
            checked += 1


# a block determinant: a saddle's, one within rounding of a fold, or an ordinary one
DELTAS = st.one_of(
    st.floats(-0.5, 0.0),
    st.floats(0.0, 1e-12, exclude_min=True),
    st.floats(1e-6, 0.5),
)
BLOCKS = st.lists(st.tuples(st.floats(-0.5, 0.5), DELTAS), min_size=1, max_size=2)


class TestClassifyAgreesWithBetaStar:
    """``classify`` and ``beta_star`` state one Matignon condition: for any
    blocks, stability at an order is the order lying below the threshold, a
    saddle is unstable for every order, and a fold is exactly an undefined
    threshold."""

    @settings(max_examples=300, deadline=None)
    @given(blocks=BLOCKS, beta=st.floats(0.0, 1.0, exclude_min=True))
    @example(blocks=[(0.02342704768668069, 4.163336342344337e-17)], beta=0.5)
    @example(blocks=[(0.0, 0.09)], beta=1.0)
    @example(blocks=[(0.1, 5e-13), (0.1, -0.01)], beta=0.5)
    def test_one_condition_at_a_drawn_order_and_at_the_threshold(self, blocks, beta):
        result = record(*blocks)
        orders = [beta]
        if result.kind is BetaStarKind.THRESHOLD:
            orders.append(result.value)
        for order in orders:
            got = classify(result, order)
            stable = result.kind is BetaStarKind.STABLE_FOR_ALL_ORDERS or (
                result.kind is BetaStarKind.THRESHOLD and order < result.value
            )
            assert (got is Classification.ASYMPTOTICALLY_STABLE) == stable
            if got is Classification.SADDLE:
                assert result.kind is BetaStarKind.UNSTABLE_FOR_ALL_ORDERS
            fold = got is Classification.SADDLE_NODE_DEGENERATE
            assert fold == (result.kind is BetaStarKind.UNDEFINED)


def normal_block(tau: float, delta: float) -> np.ndarray:
    # a normal 2x2 matrix of trace tau and determinant delta, whose
    # eigenvalues a dense solver finds to rounding: a rotation-scaling for a
    # complex pair, a symmetric matrix for a real pair
    a = tau / 2.0
    q = delta - a * a
    r = math.sqrt(abs(q))
    return np.array([[a, -r], [r, a]]) if q >= 0.0 else np.array([[a, r], [r, a]])


# block determinants away from a fold, on either side of it
FAR_DELTAS = st.one_of(st.floats(-0.5, -1e-3), st.floats(1e-3, 0.5))
FAR_BLOCKS = st.lists(st.tuples(st.floats(-0.5, 0.5), FAR_DELTAS), min_size=2, max_size=2)


class TestBetaStarIsTheEigenvalueRule:
    """beta* is min 2 |arg lambda| / pi over the eigenvalues of a dense 4x4
    matrix built from two blocks, as they stand or turned by a random
    orthogonal matrix: a saddle gives 0, and a matrix stable for all orders
    has every eigenvalue beyond pi / 2."""

    @settings(max_examples=300, deadline=None)
    @given(blocks=FAR_BLOCKS, seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    @example(blocks=[(0.0, -0.5), (0.0, -0.5)], seed=7)
    @example(blocks=[(0.3, 0.09), (-0.2, -0.01)], seed=None)
    @example(blocks=[(0.01, 0.09), (0.5, 0.01)], seed=11)
    def test_closed_form_equals_the_eigenvalue_rule(self, blocks, seed):
        # where a block's eigenvalues nearly coincide (tau / (2 sqrt(delta))
        # near 1) both routes lose digits to the conditioning, not to a fault
        assume(all(abs(t * t - 4.0 * d) > 4e-6 * abs(d) for t, d in blocks))
        J = np.zeros((4, 4))
        J[:2, :2], J[2:, 2:] = (normal_block(*b) for b in blocks)
        if seed is not None:
            Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
            J = Q.T @ J @ Q
        rule = float((2.0 * np.abs(np.angle(np.linalg.eigvals(J))) / math.pi).min())
        result = record(*blocks)
        if any(d < 0.0 for _, d in blocks):
            assert result.kind is BetaStarKind.UNSTABLE_FOR_ALL_ORDERS
            assert result.block[1] < 0.0
        if result.kind is BetaStarKind.STABLE_FOR_ALL_ORDERS:
            assert rule > 1.0
        else:
            expected = 0.0 if result.kind is BetaStarKind.UNSTABLE_FOR_ALL_ORDERS else result.value
            assert abs(rule - expected) <= 1e-12


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
            if min(abs(d) for _, d in indicators(x, p, coupling)) < 1e-12:
                continue  # degenerate ties excluded
            got = classify(beta_star(x, p, coupling), beta)
            J = jacobian(symmetric_state(x, coupling, p), p, coupling)
            stable = matignon_stable(J, beta)
            assert (got is Classification.ASYMPTOTICALLY_STABLE) == stable
            if got is Classification.SADDLE:
                eigs = np.linalg.eigvals(J)
                assert (np.isreal(eigs) & (eigs.real > 0)).any()
            checked += 1


class TestSaddleNodeCondition:
    """The saddle-node (fold) condition delta_plus = 0, and the branch
    condition delta_minus = 0 of a pair, as ``critical_points`` lists them."""

    def test_fold_detected_at_lower_extremum(self):
        kind, x, I = critical_points(P)[1]
        assert kind == "fold" and round(x, 3) == 0.286
        assert I == pytest.approx(0.003397079, abs=1e-9)
        eq = find_symmetric_equilibria(replace(P, I=I))
        assert eq.branch is Branch.TWOFOLD and x in [x_star for x_star, _ in eq.points]
        (_, delta), = indicators(x, P)
        assert abs(delta) < 1e-12

    def test_fold_detected_at_upper_extremum(self):
        kind, x, I = critical_points(P)[0]
        assert kind == "fold" and I == pytest.approx(0.015417976, abs=1e-9)
        eq = find_symmetric_equilibria(replace(P, I=I))
        assert eq.branch is Branch.TWOFOLD and x in [x_star for x_star, _ in eq.points]
        (_, delta), = indicators(x, P)
        assert abs(delta) < 1e-12

    def test_no_fold_at_generic_current(self):
        points = critical_points(P)
        assert critical_points(replace(P, I=I_MIN)) == points  # p.I is not read
        assert all(abs(I - P.I) > 1e-3 for _, _, I in points)
        (x_star, _), = find_symmetric_equilibria(P).points
        (_, delta), = indicators(x_star, P)
        assert abs(delta) > 1e-2

    def test_linear_pair_folds_where_the_cell_does(self):
        # the plus block of a linear pair is the single cell's for every theta
        pair = critical_points(P, LinearCoupling(0.008))
        assert [point for point in pair if point[0] == "fold"] == critical_points(P)
        assert [kind for kind, _, _ in pair] == ["fold", "branch-point", "branch-point", "fold"]
        assert all(abs(I - P.I) > 1e-3 for _, _, I in pair)

    def test_sigmoid_fold_tracks_the_shifted_extremum(self):
        # with no synaptic strength each branch point sits on a fold of the
        # cell; a tiny strength moves both a little, and apart
        zero = critical_points(P, SigmoidCoupling(sigma=0.0))
        assert zero[0::2] == critical_points(P)
        assert [(x, I) for _, x, I in zero[1::2]] == [(x, I) for _, x, I in zero[0::2]]
        assert [kind for kind, _, _ in zero] == ["fold", "branch-point"] * 2
        tiny = critical_points(P, SigmoidCoupling(sigma=1e-4))
        for (kind, x, I), (_, x0, I0) in zip(tiny, zero):
            assert kind != "fold" or 0.0 < abs(I - I0) < 2e-4
            assert abs(x - x0) < 2e-4
