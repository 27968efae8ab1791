import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmlneuro.equilibria import critical_points, i_infinity_derivative
from dmlneuro.models import (
    DmlParams,
    LinearCoupling,
    NoCoupling,
    SigmoidCoupling,
    _exp,
    _sigmoid,
)

# voltages in the dynamics' band, and far enough out that alpha x and
# lam (x - q) pass the exp range either way
VOLTAGE = st.one_of(st.floats(-3.0, 3.0), st.floats(-300.0, 300.0))

single = NoCoupling().field
# theta = 0 is the uncoupled pair, which LinearCoupling rejects; a synapse of
# zero strength passes the same zero current
uncoupled_pair = SigmoidCoupling(0.0).field


def pair(coupling):
    return coupling.field


@pytest.fixture
def params():
    return DmlParams(I=0.019)


class TestParameterRecords:
    def test_defaults(self):
        p = DmlParams()
        assert (p.A, p.alpha, p.gamma) == (0.0041, 5.276, 0.3)

    # the last two: A / gamma, which every analysis formula reads, under- and overflows
    @pytest.mark.parametrize("kwargs", [dict(A=0.0), dict(alpha=-1.0), dict(gamma=0.0),
                                        dict(A=1e-200, gamma=1e200), dict(A=1e200, gamma=1e-200)])
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "record, field",
        [(DmlParams(), "I"), (DmlParams(), "A"), (DmlParams(), "alpha"), (DmlParams(), "gamma"),
         (LinearCoupling(0.008), "theta"), (SigmoidCoupling(0.001), "sigma"),
         (SigmoidCoupling(0.001), "v_s"), (SigmoidCoupling(0.001), "lam"),
         (SigmoidCoupling(0.001), "q")],
    )
    def test_non_finite_values_rejected(self, record, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(record, **{field: value})

    def test_sigmoid_defaults(self):
        c = SigmoidCoupling(sigma=0.001)
        assert (c.v_s, c.lam, c.q) == (2.0, 10.0, -0.25)


class TestCurvatureBound:
    def test_values(self):
        for c in (NoCoupling(), LinearCoupling(0.008)):
            assert c.partials_bound == c.curvature_bound == 0.0
        # sigma (lam |v_s - q| + 1) / 4 and
        # sigma lam^2 (1 / (2 sqrt 3) + 0.103 + lam |v_s - q| / 8) at the defaults
        assert SigmoidCoupling(1.0).partials_bound == 5.875
        assert SigmoidCoupling(1.0).curvature_bound == pytest.approx(320.42, abs=0.01)
        # the paper's pair, and the steep synapse of five equilibria
        assert SigmoidCoupling(1e-3).curvature_bound == pytest.approx(0.32042, abs=1e-5)
        steep = SigmoidCoupling(0.0016102620275609393, lam=100.0, q=0.0)
        assert steep.curvature_bound == pytest.approx(408.87, abs=0.01)
        assert steep.partials_bound == pytest.approx(0.08091, abs=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(sigma=st.floats(0.0, 1.0), v_s=st.floats(-3.0, 3.0), lam=st.floats(0.1, 40.0),
           q=st.floats(-2.0, 2.0), sign=st.sampled_from([1.0, -1.0]))
    @example(sigma=1.0, v_s=2.0, lam=10.0, q=-0.25, sign=1.0)  # the default shape
    @example(sigma=1.0, v_s=-3.0, lam=40.0, q=1.5, sign=1.0)  # the steepest, at the far end
    # v_s = q: the whole bound is its lam^2 terms, |u z'''| peaking at
    # u = -2.67, x = -5.3, far outside the fold window
    @example(sigma=1.0, v_s=0.0, lam=0.5, q=0.0, sign=-1.0)
    # subnormal values of D: eps |D| underflows to 0, and so does the bound,
    # while the difference is one subnormal step
    @example(sigma=5e-324, v_s=0.0, lam=1.0, q=0.0, sign=1.0)
    def test_it_bounds_the_curvature_of_the_partials_on_the_line(self, sigma, v_s, lam, q, sign):
        # D = d_self + sign d_other at (x, x), differenced 2e-4 apart on
        # [-50, 50], past which the opening's derivatives fall below e^-4
        # even at lam = 0.1.  D'''' = sigma (lam^4 z4(u) (-1 - 3 sign)
        # + sign (v_s - x) lam^5 z5(u)), z4 and z5 the opening's fourth and
        # fifth derivatives (|z4| <= 0.128, |z5| <= 1/4), bounds the
        # difference's error by h^2 / 12 of it, and rounding adds 4 ulps of
        # the largest |D| over h^2 (an ulp, not eps |D|, which underflows
        # where D is subnormal)
        c = SigmoidCoupling(sigma, v_s, lam, q)
        h = 2e-4
        x = np.linspace(-50.0, 50.0, 500001)
        d_self, d_other = c.partials(x, x)
        D = d_self + sign * d_other
        curvature = np.abs(D[2:] - 2.0 * D[1:-1] + D[:-2]) / (h * h)
        fourth = sigma * lam ** 4 * (4.0 * 0.128 + (abs(v_s) + 50.0) * lam / 4.0)
        slack = fourth * h * h / 12.0 + 4.0 * np.spacing(np.abs(D).max()) / (h * h)
        assert curvature.max() <= c.curvature_bound + slack

    @settings(max_examples=60, deadline=None)
    @given(sigma=st.floats(0.0, 1.0), v_s=st.floats(-3.0, 3.0), lam=st.floats(0.1, 200.0),
           q=st.floats(-2.0, 2.0), sign=st.sampled_from([1.0, -1.0]))
    @example(sigma=1.0, v_s=2.0, lam=10.0, q=-0.25, sign=1.0)  # the default shape
    # v_s = q: D's positive part is sigma (q - x) lam z' alone, at most
    # 0.224 sigma, at u = -1.54 for the plus block
    @example(sigma=1.0, v_s=0.0, lam=1.0, q=0.0, sign=1.0)
    # a subnormal sigma: sigma (v_s - x) rounds by half a step, which lam z'
    # multiplies, while eps times the bound underflows
    @example(sigma=5e-324, v_s=0.5, lam=6.0, q=2.0, sign=-1.0)
    @example(sigma=5e-324, v_s=1.735485289516058, lam=200.0, q=0.23099033048522566, sign=1.0)
    def test_partials_bound_bounds_d_on_the_line(self, sigma, v_s, lam, q, sign):
        c = SigmoidCoupling(sigma, v_s, lam, q)
        x = np.linspace(-60.0, 60.0, 120001)
        d_self, d_other = c.partials(x, x)
        D = d_self + sign * d_other
        assert c.partials_bound >= 0.0
        assert D.max() <= c.partials_bound * (1.0 + 1e-15)


class TestFoldWindow:
    # for the cell and the linear pair D = d_self +- d_other is 0 or
    # -2 theta, so s(x) = x (2 - 3x) - alpha k e^(alpha x) + D < x (2 - 3x),
    # which is <= 0 outside [0, 2/3]: no zero of either block lies there
    @settings(max_examples=60, deadline=None)
    @given(A=st.floats(1e-8, 1.0), alpha=st.floats(0.1, 1000.0), gamma=st.floats(0.05, 2.0),
           theta=st.one_of(st.none(), st.floats(1e-6, 1.0)))
    @example(A=0.0041, alpha=5.276, gamma=0.3, theta=None)
    @example(A=0.0041, alpha=5.276, gamma=0.3, theta=0.008)
    def test_no_fold_or_branch_point_of_the_cell_or_linear_pair_lies_outside(
        self, A, alpha, gamma, theta
    ):
        p = DmlParams(A=A, alpha=alpha, gamma=gamma)
        c = NoCoupling() if theta is None else LinearCoupling(theta)
        x = np.concatenate([np.linspace(-50.0, 0.0, 5001)[:-1],
                            np.linspace(2.0 / 3.0, 50.0, 5001)[1:]])
        assert (x * (2.0 - 3.0 * x) <= 0.0).all()
        d_self, d_other = c.partials(x, x)
        assert c.partials_bound == 0.0
        for sign in (1.0, -1.0):
            D = d_self + sign * d_other
            assert np.all(D <= 0.0)
            with np.errstate(over="ignore"):
                assert (-i_infinity_derivative(x, p) + D < 0.0).all()
        assert all(0.0 <= x <= 2.0 / 3.0 for _, x, _ in critical_points(p, c))


class TestScalarHelpers:
    # around the overflow threshold of exp, and far beyond it either way
    EDGES = [708.9, 709.0, 709.5, 800.0, -800.0, 1e6, -1e6, 1e300, -1e300]

    @pytest.mark.parametrize("helper", [_exp, _sigmoid])
    def test_float_and_array_paths_agree_at_the_edges(self, helper):
        on_array = helper(np.array(self.EDGES))
        assert [helper(u) for u in self.EDGES] == on_array.tolist()

    @pytest.mark.parametrize("helper", [_exp, _sigmoid])
    def test_float_and_array_paths_agree_in_range(self, helper):
        # math and numpy may round exp differently in the last bit
        u = np.linspace(-700.0, 700.0, 2801)
        np.testing.assert_allclose([helper(v) for v in u.tolist()], helper(u), rtol=5e-16, atol=0)

    @pytest.mark.parametrize("helper", [_exp, _sigmoid])
    @pytest.mark.parametrize("u", [1, 709, -800, np.int64(3), np.float64(0.5), np.float64(709.5)])
    def test_other_scalars_return_python_floats(self, helper, u):
        out = helper(u)
        assert type(out) is float
        assert out == helper(float(u))


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
        assert NoCoupling().dim == 2
        assert LinearCoupling(0.01).dim == 4
        assert SigmoidCoupling(sigma=0.001).dim == 4
        for c in (NoCoupling(), LinearCoupling(0.01), SigmoidCoupling(sigma=0.001)):
            assert callable(c.field)

    @settings(max_examples=300, deadline=None)
    @given(
        state=st.lists(VOLTAGE, min_size=4, max_size=4),
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
    )
    # alpha x1 = 709 exactly and 712, so dy1 is inf; lam (x1 - q) = 802.5
    # and lam (x2 - q) = -797.5 both lie beyond the exp range
    @example(state=[709.0, 0.1, -0.2, 0.1], p=DmlParams(alpha=1.0), theta=0.008, synapse=SigmoidCoupling(0.001))
    @example(state=[135.0, 0.1, -0.2, 0.1], p=DmlParams(), theta=0.008, synapse=SigmoidCoupling(0.001))
    @example(state=[80.0, 0.1, -80.0, 0.1], p=DmlParams(), theta=0.008, synapse=SigmoidCoupling(0.001))
    @example(state=[0.1, 0.1, -0.2, 0.1], p=DmlParams(), theta=0.008, synapse=SigmoidCoupling(0.001))
    def test_dispatched_fields_agree_with_raw_functions(self, state, p, theta, synapse):
        # each field is bitwise the cubic, the recovery A exp(alpha x) -
        # gamma y and, for a pair, the current its partner sends
        def reference(coupling):
            cells = [state[i : i + 2] for i in range(0, coupling.dim, 2)]
            out = []
            for i, (x, y) in enumerate(cells):
                dx = x * x * (1.0 - x) - y + p.I
                if coupling.dim == 4:
                    dx = dx + coupling.current(x, cells[1 - i][0])
                out += [dx, p.A * _exp(p.alpha * x) - p.gamma * y]
            return out

        for coupling in (NoCoupling(), LinearCoupling(theta), synapse):
            got = coupling.field(0.0, state[: coupling.dim], p)
            assert np.array(got).tobytes() == np.array(reference(coupling)).tobytes()

    def test_fields_take_and_return_plain_floats(self, params):
        assert type(single(0.0, [0.1, 0.1], params)) is tuple
        out = pair(SigmoidCoupling(sigma=0.001))(0.0, [0.1, 0.1, -0.2, 0.1], params)
        assert type(out) is tuple and {type(v) for v in out} == {float}

    @pytest.mark.parametrize("coupling", [NoCoupling(), LinearCoupling(0.008), SigmoidCoupling(0.001)])
    def test_field_survives_pickling(self, coupling, params):
        # worker processes receive the field pickled; a closure would not pickle
        rhs, dim = coupling.field, coupling.dim
        y = [0.1, 0.1, -0.2, 0.1][:dim]
        assert pickle.loads(pickle.dumps(rhs))(0.0, y, params) == rhs(0.0, y, params)
