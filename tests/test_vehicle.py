"""Dynamics tests: actuator stepping, contact logic, integrator."""

import math
from dataclasses import replace

import numpy as np

from perchsim.geometry import B3, EYE, ZERO3, rot_y
from perchsim.scenario import ScenarioConfig
from perchsim.vehicle import (ContactState, VehicleState, forward_wrench,
                              integrate, step_actuators, update_contact)
from so3 import flat, mat, rot_x, rot_z

PARAMS, WALL = ScenarioConfig().build()
AT_REST = (0.0,) * 4, (0.0,) * 4, 0.0      # thrust, tilt, eta
NO_DIST = ZERO3, ZERO3                     # delta_f, delta_r


def detached(gap=10.0):
    return ContactState(attached=False, gap=gap)


def step_from_rest(wrench, dt=0.001):
    """One integrate step from rest at R = I, with no near-field force or
    disturbance: under a constant force the step is exact to rounding."""
    start = VehicleState.at_rest((0.0, 0.0, 10.0))
    return start, integrate(start, wrench, NO_DIST, detached(), PARAMS, dt)


def test_integrate_free_fall_one_step():
    dt = 0.001
    start, out = step_from_rest((ZERO3, ZERO3), dt)
    assert np.allclose(out.v, [0.0, 0.0, -9.81 * dt], rtol=0, atol=1e-15)
    assert np.allclose(out.p, [0.0, 0.0, 10.0 - 0.5 * 9.81 * dt * dt],
                       rtol=0, atol=1e-15)
    assert out.R == EYE and out.omega == start.omega


def test_integrate_hover_balance_one_step():
    w = PARAMS.m * PARAMS.g * B3, np.zeros(3)
    start, out = step_from_rest(w)
    assert np.allclose(out.v, 0.0, rtol=0, atol=1e-15)
    assert np.allclose(out.p, start.p, rtol=0, atol=1e-15)
    assert out.R == EYE and out.omega == start.omega


def test_step_actuators_thrust_lag():
    cmd = np.full(4, 4.0), np.zeros(4), False
    thrust, _, _ = step_actuators(AT_REST, cmd, 0.0, 0.001, PARAMS)
    # One Euler step of the lag; exact exponential would give 0.0792 N.
    assert np.allclose(thrust, 0.0792, atol=1e-3)


def test_step_actuators_tilt_rate_limit():
    cmd = np.zeros(4), np.full(4, math.pi / 2), False
    _, tilt, _ = step_actuators(AT_REST, cmd, 0.0, 0.001, PARAMS)
    assert np.allclose(tilt, 0.008, atol=1e-12)


def test_step_actuators_fixed_point():
    act = thrust, tilt, eta = np.full(4, 2.0), np.full(4, 0.1), 0.5
    cmd = thrust.copy(), tilt.copy(), False
    out_thrust, out_tilt, out_eta = step_actuators(act, cmd, 0.5, 0.001,
                                                   PARAMS)
    assert np.allclose(out_thrust, thrust)
    assert np.allclose(out_tilt, tilt)
    assert out_eta == eta


def test_step_actuators_perch_servo_travel():
    cmd = np.zeros(4), np.zeros(4), False
    out = step_actuators(AT_REST, cmd, 1.0, 0.001, PARAMS)
    _, _, eta = out
    assert abs(eta - 0.001 / PARAMS.t_ps) < 1e-12
    for _ in range(1000):
        out = step_actuators(out, cmd, 1.0, 0.001, PARAMS)
    _, _, eta = out
    assert eta == 1.0


def _state_at_gap(gap):
    # Magnet face at distance `gap` in front of the wall plane.
    p = np.asarray(WALL.point) + (gap - WALL.c_m[2] * 0.0) \
        * np.asarray(WALL.normal) - WALL.c_m
    st = VehicleState.at_rest(p)
    assert abs(WALL.gap_of(st) - gap) < 1e-12
    return st


def test_contact_attach_threshold():
    st = _state_at_gap(0.0005)
    act = (np.zeros(4), np.zeros(4), 1.0)
    out, edge = update_contact(st, act, np.zeros(3), detached(), WALL,
                               PARAMS)
    assert out.attached and edge == "attach"
    assert out.gap == 0.0


def test_contact_no_attach_beyond_tolerance():
    st = _state_at_gap(0.01)
    act = (np.zeros(4), np.zeros(4), 1.0)
    out, edge = update_contact(st, act, np.zeros(3), detached(), WALL,
                               PARAMS)
    assert not out.attached and edge is None


def test_contact_lambda_true_gravity_offset():
    st = _state_at_gap(0.0)
    act = (np.zeros(4), np.zeros(4), 1.0)
    anchored = ContactState(attached=True, gap=0.0)
    applied = PARAMS.m * PARAMS.g * B3  # perfect gravity offset
    out, edge = update_contact(st, act, applied, anchored, WALL, PARAMS)
    assert out.attached and edge is None
    # Vertical wall: gravity is tangential, pull = 0, hold at full capacity.
    assert abs(out.lambda_true - WALL.F_mag) < 1e-12


def test_contact_lambda_true_counts_push_and_pull():
    # Pressing into the wall adds to the hold force; pulling takes from it.
    st = _state_at_gap(0.0)
    anchored = ContactState(attached=True, gap=0.0)
    for eta, pull in ((1.0, -3.0), (1.0, 2.0), (0.5, -3.0), (0.5, 2.0)):
        act = (np.zeros(4), np.zeros(4), eta)
        applied = PARAMS.m * PARAMS.g * B3 + np.multiply(pull, WALL.normal)
        out, edge = update_contact(st, act, applied, anchored, WALL, PARAMS)
        assert out.attached and edge is None
        assert abs(out.lambda_true - (WALL.F_mag * eta - pull)) < 1e-12


def test_contact_release_on_unperch_travel():
    st = _state_at_gap(0.0)
    act = (np.zeros(4), np.zeros(4), 0.0)
    anchored = ContactState(attached=True, gap=0.0)
    out, edge = update_contact(st, act, np.zeros(3), anchored, WALL, PARAMS)
    assert not out.attached and edge == "release"


def test_contact_forcible_detach_over_capacity():
    st = _state_at_gap(0.0)
    act = (np.zeros(4), np.zeros(4), 1.0)
    anchored = ContactState(attached=True, gap=0.0)
    pull = PARAMS.m * PARAMS.g * B3 \
        + np.multiply(WALL.F_mag + 1.0, WALL.normal)
    out, edge = update_contact(st, act, pull, anchored, WALL, PARAMS)
    assert not out.attached and edge == "forcible-detach"


def test_contact_nearfield_ramp():
    st = _state_at_gap(0.025)
    act = (np.zeros(4), np.zeros(4), 1.0)
    out, edge = update_contact(st, act, np.zeros(3), detached(), WALL,
                               PARAMS)
    assert edge is None
    expect = np.multiply(-WALL.F_mag * (1.0 - 0.025 / WALL.d_mag),
                         WALL.normal)
    assert np.allclose(out.nearfield_force, expect, atol=1e-9)


def rotor_wrench(act, params=PARAMS):
    thrust, tilt, _ = act
    return forward_wrench(thrust, tilt, params.rotors)


def test_integrate_free_fall_closed_form():
    state = VehicleState.at_rest([0.0, 0.0, 10.0])
    act = AT_REST
    contact = detached()
    for _ in range(1000):
        state = integrate(state, rotor_wrench(act), NO_DIST, contact, PARAMS,
                          0.001)
    assert abs(state.v[2] + 9.81) < 1e-9
    assert abs((10.0 - state.p[2]) - 4.905) < 1e-6


def test_integrate_principal_axis_rotation():
    params = replace(PARAMS, J=(0.01, 0.01, 0.01))
    state = VehicleState.at_rest([0.0, 0.0, 10.0])
    state.omega = np.array([0.0, 0.0, 1.0])
    act = AT_REST
    contact = detached()
    n = 2000
    dt = (math.pi / 2) / n
    for _ in range(n):
        state = integrate(state, rotor_wrench(act, params), NO_DIST, contact,
                          params, dt)
    assert np.linalg.norm(mat(state.R) - rot_z(math.pi / 2)) < 1e-6


def test_integrate_matches_numpy_rk4():
    # Three distinct moments (gyroscopic coupling), near-field pull and
    # disturbances all active.
    J = np.diag([9e-3, 8e-3, 1.4e-2])
    params = replace(PARAMS, J=np.diag(J))
    state = VehicleState(np.array([0.1, -0.2, 1.3]),
                         np.array([0.4, -0.1, 0.2]),
                         flat(rot_z(0.4) @ mat(rot_y(-0.3)) @ rot_x(0.2)),
                         np.array([1.5, -2.0, 0.7]))
    act = (np.array([3.0, 4.5, 2.0, 5.0]),
           np.array([0.1, -0.3, 0.2, 0.05]), 1.0)
    dist = delta_f, delta_r = (np.array([1.5, -0.5, 0.3]),
                               np.array([0.2, -0.1, 0.4]))
    contact = ContactState(gap=0.02,
                           nearfield_force=np.array([-16.0, 0.0, 0.0]))
    dt = 0.004
    wrench = f_rotor, tau_rotor = rotor_wrench(act, params)
    out = integrate(state, wrench, dist, contact, params, dt)

    def expm(phi):
        theta = np.linalg.norm(phi)
        K = np.cross(np.eye(3), phi / theta)      # hat of the unit axis
        return np.eye(3) + math.sin(theta) * K \
            + (1.0 - math.cos(theta)) * (K @ K)

    def rates(R, w):
        f = R @ f_rotor + contact.nearfield_force + delta_f
        dv = f / params.m - np.array([0.0, 0.0, params.g])
        dw = np.linalg.solve(J, np.cross(J @ w, w) + tau_rotor) + delta_r
        return dv, dw

    R, v1, w1 = mat(state.R), state.v, state.omega
    a1, b1 = rates(R, w1)
    v2, w2 = v1 + dt / 2 * a1, w1 + dt / 2 * b1
    a2, b2 = rates(R @ expm(dt / 2 * w1), w2)
    v3, w3 = v1 + dt / 2 * a2, w1 + dt / 2 * b2
    a3, b3 = rates(R @ expm(dt / 2 * w2), w3)
    v4, w4 = v1 + dt * a3, w1 + dt * b3
    a4, b4 = rates(R @ expm(dt * w3), w4)
    p = state.p + dt / 6 * (v1 + 2 * v2 + 2 * v3 + v4)
    v = v1 + dt / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
    U, _, Vt = np.linalg.svd(R @ expm(dt / 6 * (w1 + 2 * w2 + 2 * w3 + w4)))
    w = w1 + dt / 6 * (b1 + 2 * b2 + 2 * b3 + b4)

    assert np.max(np.abs(out.omega - state.omega)) > 1e-3
    for new, ref in ((out.p, p), (out.v, v), (mat(out.R), U @ Vt),
                     (out.omega, w)):
        assert np.max(np.abs(new - ref)) < 1e-12


def test_integrate_attached_passthrough():
    state = VehicleState.at_rest([1.0, 0.0, 1.2])
    anchored = ContactState(attached=True, gap=0.0)
    out = integrate(state, rotor_wrench(AT_REST), NO_DIST, anchored, PARAMS,
                    0.001)
    assert out is state
