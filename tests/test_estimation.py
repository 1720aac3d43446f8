"""Estimator tests: convergence law, freeze semantics, contact readout."""

import math

import numpy as np

from perchsim import estimation
from perchsim.geometry import B3
from perchsim.scenario import ScenarioConfig
from perchsim.vehicle import VehicleState

PARAMS, WALL = ScenarioConfig().build()
HOVER_F = PARAMS.m * PARAMS.g * B3  # body force balancing gravity at R = I


def fresh(state):
    return estimation.EstimatorState.fresh(state, PARAMS, 20.0)


def test_balanced_hover_stays_zero():
    state = VehicleState.at_rest([0.0, 0.0, 1.2])
    est = fresh(state)
    for _ in range(1000):
        est = estimation.update(est, state, HOVER_F, PARAMS, 0.001)
    assert np.allclose(est.delta_hat, 0.0, atol=1e-12)


def test_step_force_first_order_response():
    # Exact plant under a -5 N z step with thrust balancing gravity.
    delta = np.array([0.0, 0.0, -5.0])
    state = VehicleState.at_rest([0.0, 0.0, 1.2])
    est = fresh(state)
    dt = 0.001
    for k in range(150):
        state.v = delta / PARAMS.m * ((k + 1) * dt)
        est = estimation.update(est, state, HOVER_F, PARAMS, dt)
    expect = -5.0 * (1.0 - math.exp(-3.0))
    assert abs(est.delta_hat[2] - expect) < abs(expect) * 0.01


def test_frozen_update_is_identity():
    state = VehicleState.at_rest([0.0, 0.0, 1.2])
    est = estimation.freeze(fresh(state))
    out = estimation.update(est, state, np.array([5.0, 5.0, 5.0]),
                            PARAMS, 0.001)
    assert out is est


def test_freeze_holds_bitwise_over_updates():
    state = VehicleState.at_rest([0.0, 0.0, 1.2])
    est = fresh(state)
    for k in range(100):
        state.v = np.array([0.0, 0.0, -0.01 * k])
        est = estimation.update(est, state, HOVER_F, PARAMS, 0.001)
    held = est.delta_hat
    est = estimation.freeze(est)
    rng = np.random.default_rng(14)
    for _ in range(1000):
        state.v = rng.normal(size=3)
        est = estimation.update(est, state, rng.normal(size=3), PARAMS, 0.001)
    assert np.array_equal(est.delta_hat, held)


def test_unfreeze_continuity():
    delta = np.array([1.0, -2.0, 0.5])
    state = VehicleState.at_rest([0.0, 0.0, 1.2])
    est = fresh(state)
    dt = 0.001
    for k in range(500):
        state.v = delta / PARAMS.m * ((k + 1) * dt)
        est = estimation.update(est, state, HOVER_F, PARAMS, dt)
    before = est.delta_hat
    held = estimation.freeze(est)
    est = estimation.EstimatorState.fresh(state, PARAMS, held.K_e,
                                          held.delta_hat)
    assert not est.frozen
    assert np.max(np.abs(np.subtract(est.delta_hat, before))) < 1e-9
    # The next update continues smoothly from the held value.
    state.v = delta / PARAMS.m * (501 * dt)
    est = estimation.update(est, state, HOVER_F, PARAMS, dt)
    assert np.max(np.abs(np.subtract(est.delta_hat, before))) < 0.05


def test_freeze_idempotent():
    state = VehicleState.at_rest([0.0, 0.0, 1.2])
    est = estimation.freeze(fresh(state))
    assert estimation.freeze(est) is est


def test_rebase_restarts_from_zero():
    state = VehicleState.at_rest([0.0, 0.0, 1.2])
    state.v = np.array([0.3, 0.0, 0.0])
    est = fresh(VehicleState.at_rest([0.0, 0.0, 1.2]))
    est = estimation.update(est, state, np.zeros(3), PARAMS, 0.001)
    est = estimation.EstimatorState.fresh(state, PARAMS, est.K_e)
    assert np.array_equal(est.delta_hat, np.zeros(3))
    est = estimation.update(est, state, HOVER_F, PARAMS, 0.001)
    assert np.allclose(est.delta_hat, 0.0, atol=1e-12)


def test_contact_normal_force_sign():
    est = fresh(VehicleState.at_rest([0.0, 0.0, 1.2]))
    est.delta_hat = np.array([-3.0, 0.0, 0.0])
    assert estimation.contact_normal_force(est, WALL) == 3.0
    est.delta_hat = np.zeros(3)
    assert estimation.contact_normal_force(est, WALL) == 0.0


def test_contact_press_convergence():
    # Locked plant (v = 0) pressed 2 N into the wall along -n.
    state = VehicleState.at_rest([1.05, 0.0, 1.2])
    f_body = HOVER_F - np.multiply(2.0, WALL.normal)
    est = fresh(state)
    for _ in range(500):
        est = estimation.update(est, state, f_body, PARAMS, 0.001)
    lam = estimation.contact_normal_force(est, WALL)
    assert abs(lam - 2.0) < 0.05
