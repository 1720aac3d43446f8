"""Controller tests: nominal wrench arithmetic, rejection, perch wrench."""

import math

import numpy as np

from perchsim import estimation
from perchsim.control import nominal_wrench, perch_wrench, rejection_force
from perchsim.geometry import EYE, rot_y, rotation_error
from perchsim.planner import hold
from perchsim.scenario import ScenarioConfig
from perchsim.vehicle import VehicleState
from so3 import mat

CFG = ScenarioConfig()
PARAMS, _ = CFG.build()
MG = PARAMS.m * PARAMS.g


def at_setpoint(R=None):
    R = EYE if R is None else R
    state = VehicleState.at_rest([0.0, 0.0, 1.2], R)
    sp = hold(state.p, R)
    return state, sp


def nominal(state, sp, integ=np.zeros(3), cfg=CFG):
    """nominal_wrench with the attitude error taken as the harness does."""
    _, _, _, R_d, _ = sp
    return nominal_wrench(state, sp, rotation_error(state.R, R_d), cfg,
                          integ, PARAMS, 0.001)


def test_hover_gravity_feedforward():
    state, sp = at_setpoint()
    (f, tau), _ = nominal(state, sp)
    assert np.allclose(f, [0.0, 0.0, MG], atol=1e-9)
    assert np.allclose(tau, 0.0, atol=1e-12)


def test_gravity_feedforward_rotated_frame():
    state, sp = at_setpoint(rot_y(math.pi / 2))
    (f, tau), _ = nominal(state, sp)
    assert np.allclose(f, [-MG, 0.0, 0.0], atol=1e-9)
    assert np.allclose(tau, 0.0, atol=1e-12)


def test_position_error_gain_arithmetic():
    state, sp = at_setpoint()
    _, v, a, R, omega = sp
    sp = state.p + np.array([0.1, 0.0, 0.0]), v, a, R, omega
    (f, _), _ = nominal(state, sp)
    assert np.allclose(f, [1.65, 0.0, MG], atol=1e-9)


def test_translational_superposition():
    # For fixed R the force is affine in (e_p, e_v, a_d).
    rng = np.random.default_rng(15)
    state = VehicleState.at_rest([0.0, 0.0, 1.2])

    def force(ep, ev, ad):
        sp = state.p + ep, ev, ad, EYE, np.zeros(3)
        (f, _), _ = nominal(state, sp)
        return np.array(f)

    base = force(np.zeros(3), np.zeros(3), np.zeros(3))
    for _ in range(20):
        a, b = rng.normal(size=(2, 3))
        lhs = force(a + b, a - b, 2.0 * a)
        rhs = (force(a, np.zeros(3), np.zeros(3)) - base) \
            + (force(b, np.zeros(3), np.zeros(3)) - base) \
            + (force(np.zeros(3), a, np.zeros(3)) - base) \
            + (force(np.zeros(3), -b, np.zeros(3)) - base) \
            + (force(np.zeros(3), np.zeros(3), 2.0 * a) - base) + base
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_attitude_integral_clamp():
    state = VehicleState.at_rest([0.0, 0.0, 1.2])
    sp = hold(state.p, rot_y(1.0))
    cfg = ScenarioConfig(integral_clamp=0.5)
    integ = np.zeros(3)
    for _ in range(2000):
        _, integ = nominal(state, sp, integ, cfg)
        assert np.all(np.abs(integ) <= 0.5 + 1e-12)
    assert integ[1] == 0.5


def test_rejection_force_zero():
    est = estimation.EstimatorState.fresh(
        VehicleState.at_rest([0.0, 0.0, 1.2]), PARAMS, 20.0)
    assert np.array_equal(rejection_force(est, EYE), np.zeros(3))


def test_rejection_force_sign_flip():
    est = estimation.EstimatorState.fresh(
        VehicleState.at_rest([0.0, 0.0, 1.2]), PARAMS, 20.0)
    est.delta_hat = np.array([0.0, 0.0, -5.0])
    assert np.allclose(rejection_force(est, EYE), [0.0, 0.0, 5.0])


def test_rejection_force_rotated_frame():
    est = estimation.EstimatorState.fresh(
        VehicleState.at_rest([0.0, 0.0, 1.2]), PARAMS, 20.0)
    est.delta_hat = np.array([1.0, 0.0, 0.0])
    assert np.allclose(rejection_force(est, rot_y(math.pi / 2)),
                       [0.0, 0.0, -1.0], atol=1e-12)


def test_perch_wrench_zero_rho():
    state = VehicleState.at_rest([1.0, 0.0, 1.2])
    f, tau = perch_wrench(0.0, state, PARAMS)
    assert np.array_equal(f, np.zeros(3))
    assert np.array_equal(tau, np.zeros(3))


def test_perch_wrench_half_gravity():
    state = VehicleState.at_rest([1.0, 0.0, 1.2])
    f, tau = perch_wrench(0.5, state, PARAMS)
    assert np.allclose(f, [0.0, 0.0, 0.5 * MG], atol=1e-9)
    assert np.allclose(f[2], 8.09, atol=0.01)
    assert np.array_equal(tau, np.zeros(3))


def test_perch_wrench_rotated_frame():
    state = VehicleState.at_rest([1.0, 0.0, 1.2], rot_y(math.pi / 2))
    f, _ = perch_wrench(0.5, state, PARAMS)
    assert np.allclose(f, [-0.5 * MG, 0.0, 0.0], atol=1e-9)
    # World-frame force is still half of gravity compensation.
    assert np.allclose(mat(state.R) @ f, [0.0, 0.0, 0.5 * MG], atol=1e-9)
