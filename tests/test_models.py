import math

import numpy as np
import pytest

from dmlneuro.models import (
    DmlParams,
    LinearCoupling,
    NoCoupling,
    SigmoidCoupling,
    vector_field,
    _sigmoid,
)

single = vector_field(NoCoupling())[0]
# theta = 0 is the uncoupled pair, which LinearCoupling rejects; a synapse of
# zero strength passes the same zero current
uncoupled_pair = vector_field(SigmoidCoupling(0.0))[0]


def pair(coupling):
    return vector_field(coupling)[0]


@pytest.fixture
def params():
    return DmlParams(I=0.019)


class TestParameterRecords:
    def test_defaults(self):
        p = DmlParams()
        assert (p.A, p.alpha, p.gamma) == (0.0041, 5.276, 0.3)

    @pytest.mark.parametrize("kwargs", [dict(A=0.0), dict(alpha=-1.0), dict(gamma=0.0)])
    def test_positive_parameters_enforced(self, kwargs):
        with pytest.raises(ValueError):
            DmlParams(**kwargs)

    def test_coupling_validation(self):
        with pytest.raises(ValueError):
            LinearCoupling(theta=0.0)
        with pytest.raises(ValueError):
            SigmoidCoupling(sigma=-0.1)
        with pytest.raises(ValueError):
            SigmoidCoupling(sigma=0.1, lam=0.0)

    def test_sigmoid_defaults(self):
        c = SigmoidCoupling(sigma=0.001)
        assert (c.v_s, c.lam, c.q) == (2.0, 10.0, -0.25)


class TestSingleCell:
    def test_origin_with_zero_drive(self):
        out = single(0.0, np.array([0.0, 0.0]), DmlParams(I=0.0))
        np.testing.assert_allclose(out, [0.0, 0.0041], rtol=0, atol=1e-15)

    def test_vanishes_at_published_equilibrium(self, params):
        out = single(0.0, np.array([0.40772, 0.11746]), params)
        assert np.abs(out).max() < 5e-5

    def test_direct_arithmetic_case(self):
        # x=1, y=0.5, I=0.2: cubic term cancels to -y + I; recovery is
        # A e^alpha - gamma y
        out = single(0.0, np.array([1.0, 0.5]), DmlParams(I=0.2))
        assert out[0] == pytest.approx(-0.3, abs=1e-15)
        assert out[1] == pytest.approx(0.0041 * math.exp(5.276) - 0.15, rel=1e-14)

    def test_finite_for_large_voltage(self, params):
        out = single(0.0, np.array([200.0, 0.0]), params)
        assert math.isinf(out[1])  # overflow surfaces as inf, never raises


class TestLinearPair:
    def test_zero_coupling_equals_two_singles(self, params):
        state = np.array([0.3, -0.1, -0.7, 0.4])
        out = uncoupled_pair(0.0, state, params)
        one = single(0.0, state[:2], params)
        two = single(0.0, state[2:], params)
        assert np.array_equal(out, np.concatenate([one, two]))

    def test_symmetric_state_has_no_coupling_flow(self, params):
        state = np.array([0.2, 0.05, 0.2, 0.05])
        out = pair(LinearCoupling(0.37))(0.0, state, params)
        assert out[0] == out[2]
        assert out[1] == out[3]

    def test_direct_arithmetic_case(self, params):
        state = np.array([0.1, 0.1, -0.2, 0.1])
        out = pair(LinearCoupling(0.008))(0.0, state, params)
        expected = 0.01 * 0.9 - 0.1 + 0.019 + 0.008 * (-0.3)
        assert out[0] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(-0.0744)

    def test_permutation_symmetry_exact(self, params):
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = rng.uniform(-1.0, 1.0, size=4)
            theta = rng.uniform(0.0, 0.2)
            rhs = pair(LinearCoupling(theta))
            a = rhs(0.0, state, params)
            b = np.array(rhs(0.0, state[[2, 3, 0, 1]], params))
            assert np.array_equal(a, b[[2, 3, 0, 1]])


class TestSigmoidPair:
    def test_zero_coupling_equals_two_singles(self, params):
        state = np.array([0.3, -0.1, -0.7, 0.4])
        out = pair(SigmoidCoupling(sigma=0.0))(0.0, state, params)
        one = single(0.0, state[:2], params)
        two = single(0.0, state[2:], params)
        assert np.array_equal(out, np.concatenate([one, two]))

    def test_saturated_synapse_limit(self, params):
        c = SigmoidCoupling(sigma=0.5)
        x_far = c.q + 100.0 / c.lam  # drives the sigmoid to 1
        state = np.array([0.1, 0.0, x_far, 0.0])
        out = pair(c)(0.0, state, params)
        base = single(0.0, state[:2], params)
        assert out[0] - base[0] == pytest.approx(c.sigma * (c.v_s - 0.1), abs=1e-10)

    def test_direct_arithmetic_case(self, params):
        c = SigmoidCoupling(sigma=0.001, v_s=2.0, lam=10.0, q=-0.25)
        state = np.array([0.1, 0.1, -0.2, 0.1])
        out = pair(c)(0.0, state, params)
        base = single(0.0, state[:2], params)
        coupling = 0.001 * 1.9 / (1.0 + math.exp(-0.5))
        assert out[0] - base[0] == pytest.approx(coupling, rel=1e-12)

    def test_sigmoid_factor_strictly_inside_unit_interval(self, params):
        # strict interior over the whole band a trajectory can visit; the
        # factor only rounds onto a boundary once exp(-u) drops below one
        # ulp of 1.0, far outside the dynamics
        c = SigmoidCoupling(sigma=1.0, lam=10.0)
        for xj in (-3.0, -1.0, 0.0, 1.0, 3.0):
            z = _sigmoid(c.lam * (xj - c.q))
            assert 0.0 < z < 1.0
            state = np.array([0.0, 0.0, xj, 0.0])
            assert np.isfinite(pair(c)(0.0, state, params)).all()

    def test_extreme_arguments_saturate_without_overflow(self):
        # beyond the float64 exp range the factor rounds onto the interval
        # boundary but never overflows or goes outside [0, 1]
        for u in (800.0, 1e6, -800.0, -1e6):
            z = _sigmoid(u)
            assert 0.0 <= z <= 1.0 and math.isfinite(z)

    def test_permutation_symmetry_exact(self, params):
        rng = np.random.default_rng(11)
        c = SigmoidCoupling(sigma=0.003)
        for _ in range(50):
            state = rng.uniform(-1.0, 1.0, size=4)
            a = pair(c)(0.0, state, params)
            b = np.array(pair(c)(0.0, state[[2, 3, 0, 1]], params))
            assert np.array_equal(a, b[[2, 3, 0, 1]])


class TestDispatch:
    def test_vector_field_dimensions(self):
        assert vector_field(NoCoupling())[1] == 2
        assert vector_field(LinearCoupling(0.01))[1] == 4
        assert vector_field(SigmoidCoupling(sigma=0.001))[1] == 4

    def test_dispatched_fields_agree_with_raw_functions(self, params):
        # a pair's field is each cell's single-cell field plus the current
        # its partner sends
        x1, y1, x2, y2 = state4 = [0.1, 0.1, -0.2, 0.1]
        (dx1, dy1), (dx2, dy2) = single(0.0, [x1, y1], params), single(0.0, [x2, y2], params)
        for c in (LinearCoupling(0.008), SigmoidCoupling(sigma=0.001)):
            rhs, _ = vector_field(c)
            expected = (dx1 + c.current(x1, x2), dy1, dx2 + c.current(x2, x1), dy2)
            assert rhs(0.0, state4, params) == expected

    def test_fields_take_and_return_plain_floats(self, params):
        assert type(single(0.0, [0.1, 0.1], params)) is tuple
        out = pair(SigmoidCoupling(sigma=0.001))(0.0, [0.1, 0.1, -0.2, 0.1], params)
        assert type(out) is tuple and {type(v) for v in out} == {float}

    def test_columns_of_a_state_array_evaluate_like_single_states(self, params):
        rng = np.random.default_rng(3)
        states = rng.uniform(-1.0, 1.0, size=(4, 5))
        for c in (NoCoupling(), LinearCoupling(0.008), SigmoidCoupling(sigma=0.003)):
            rhs, dim = vector_field(c)
            columns = np.array(rhs(0.0, states[:dim], params))
            assert columns.shape == (dim, 5)
            for k in range(5):
                np.testing.assert_allclose(
                    columns[:, k], rhs(0.0, states[:dim, k].tolist(), params), rtol=1e-15, atol=0
                )

    def test_unknown_coupling_rejected(self):
        with pytest.raises(TypeError):
            vector_field("linear")
