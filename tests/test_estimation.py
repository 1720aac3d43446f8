"""Estimator tests: convergence law, freeze semantics, contact readout."""

import math

import numpy as np

from perchsim import estimation
from perchsim.scenario import ScenarioConfig
from perchsim.vehicle import at_rest

B3 = np.array([0.0, 0.0, 1.0])
PARAMS, WALL = ScenarioConfig().build()
HOVER_F = PARAMS.m * PARAMS.g * B3  # body force balancing gravity at R = I
K_E = 20.0


def fresh(state):
    return estimation.fresh(state, PARAMS, K_E)


def delta_hat_of(est):
    delta_hat, _, _, _ = est
    return delta_hat


def moving(state, v):
    """The vehicle state with its velocity replaced by v."""
    p, _, R, omega = state
    return p, v, R, omega


def test_balanced_hover_stays_zero():
    state = at_rest([0.0, 0.0, 1.2])
    est = fresh(state)
    for _ in range(1000):
        est = estimation.update(est, state, HOVER_F, K_E, PARAMS, 0.001)
    assert np.allclose(delta_hat_of(est), 0.0, atol=1e-12)


def test_step_force_first_order_response():
    # Exact plant under a -5 N z step with thrust balancing gravity.
    delta = np.array([0.0, 0.0, -5.0])
    state = at_rest([0.0, 0.0, 1.2])
    est = fresh(state)
    dt = 0.001
    for k in range(150):
        state = moving(state, delta / PARAMS.m * ((k + 1) * dt))
        est = estimation.update(est, state, HOVER_F, K_E, PARAMS, dt)
    expect = -5.0 * (1.0 - math.exp(-3.0))
    _, _, dz = delta_hat_of(est)
    assert abs(dz - expect) < abs(expect) * 0.01


def test_frozen_update_is_identity():
    state = at_rest([0.0, 0.0, 1.2])
    est = estimation.freeze(fresh(state))
    out = estimation.update(est, state, np.array([5.0, 5.0, 5.0]), K_E,
                            PARAMS, 0.001)
    assert out is est


def test_freeze_holds_bitwise_over_updates():
    state = at_rest([0.0, 0.0, 1.2])
    est = fresh(state)
    for k in range(100):
        state = moving(state, np.array([0.0, 0.0, -0.01 * k]))
        est = estimation.update(est, state, HOVER_F, K_E, PARAMS, 0.001)
    held = delta_hat_of(est)
    est = estimation.freeze(est)
    rng = np.random.default_rng(14)
    for _ in range(1000):
        state = moving(state, rng.normal(size=3))
        est = estimation.update(est, state, rng.normal(size=3), K_E,
                                PARAMS, 0.001)
    assert np.array_equal(delta_hat_of(est), held)


def test_unfreeze_continuity():
    delta = np.array([1.0, -2.0, 0.5])
    state = at_rest([0.0, 0.0, 1.2])
    est = fresh(state)
    dt = 0.001
    for k in range(500):
        state = moving(state, delta / PARAMS.m * ((k + 1) * dt))
        est = estimation.update(est, state, HOVER_F, K_E, PARAMS, dt)
    before = delta_hat_of(est)
    held = estimation.freeze(est)
    est = estimation.fresh(state, PARAMS, K_E, delta_hat_of(held))
    _, _, _, frozen = est
    assert not frozen
    assert np.max(np.abs(np.subtract(delta_hat_of(est), before))) < 1e-9
    # The next update continues smoothly from the held value.
    state = moving(state, delta / PARAMS.m * (501 * dt))
    est = estimation.update(est, state, HOVER_F, K_E, PARAMS, dt)
    assert np.max(np.abs(np.subtract(delta_hat_of(est), before))) < 0.05


def test_freeze_idempotent():
    state = at_rest([0.0, 0.0, 1.2])
    est = estimation.freeze(fresh(state))
    assert estimation.freeze(est) is est


def test_rebase_restarts_from_zero():
    state = moving(at_rest([0.0, 0.0, 1.2]), np.array([0.3, 0.0, 0.0]))
    est = fresh(at_rest([0.0, 0.0, 1.2]))
    est = estimation.update(est, state, np.zeros(3), K_E, PARAMS, 0.001)
    est = fresh(state)
    assert np.array_equal(delta_hat_of(est), np.zeros(3))
    est = estimation.update(est, state, HOVER_F, K_E, PARAMS, 0.001)
    assert np.allclose(delta_hat_of(est), 0.0, atol=1e-12)


def test_contact_normal_force_sign():
    delta_hat = np.array([-3.0, 0.0, 0.0])
    assert estimation.contact_normal_force(delta_hat, WALL) == 3.0
    delta_hat = np.zeros(3)
    assert estimation.contact_normal_force(delta_hat, WALL) == 0.0


def test_contact_press_convergence():
    # Locked plant (v = 0) pressed 2 N into the wall along -n.
    state = at_rest([1.05, 0.0, 1.2])
    f_body = HOVER_F - np.multiply(2.0, WALL.normal)
    est = fresh(state)
    for _ in range(500):
        est = estimation.update(est, state, f_body, K_E, PARAMS, 0.001)
    lam = estimation.contact_normal_force(delta_hat_of(est), WALL)
    assert abs(lam - 2.0) < 0.05
