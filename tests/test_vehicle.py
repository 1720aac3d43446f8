"""Dynamics tests: derivative, actuator stepping, contact logic, integrator."""

import math

import numpy as np
import pytest

from perchsim.allocation import ActuatorCommand, Wrench
from perchsim.geometry import B3, rot_z
from perchsim.vehicle import (ActuatorState, ContactState, Disturbances,
                              VehicleParams, VehicleState, WallModel,
                              derivative, integrate, step_actuators,
                              update_contact)

PARAMS = VehicleParams()
WALL = WallModel(point=np.array([1.0, 0.0, 1.2]),
                 normal=np.array([-1.0, 0.0, 0.0]))


def detached(gap=10.0):
    return ContactState(attached=False, gap=gap)


def test_derivative_free_fall():
    dv, _ = derivative(np.eye(3), np.zeros(3), Wrench.zero(),
                       Disturbances.none(), detached(), PARAMS)
    assert np.allclose(dv, [0.0, 0.0, -9.81], atol=1e-12)


def test_derivative_hover_balance():
    w = Wrench(PARAMS.m * PARAMS.g * B3, np.zeros(3))
    dv, _ = derivative(np.eye(3), np.zeros(3), w, Disturbances.none(),
                       detached(), PARAMS)
    assert np.allclose(dv, 0.0, atol=1e-12)


def test_step_actuators_thrust_lag():
    act = ActuatorState.at_rest()
    cmd = ActuatorCommand(np.full(4, 4.0), np.zeros(4))
    out = step_actuators(act, cmd, 0.001, PARAMS)
    # One Euler step of the lag; exact exponential would give 0.0792 N.
    assert np.allclose(out.thrust, 0.0792, atol=1e-3)


def test_step_actuators_tilt_rate_limit():
    act = ActuatorState.at_rest()
    cmd = ActuatorCommand(np.zeros(4), np.full(4, math.pi / 2))
    out = step_actuators(act, cmd, 0.001, PARAMS)
    assert np.allclose(out.tilt, 0.008, atol=1e-12)


def test_step_actuators_fixed_point():
    act = ActuatorState(np.full(4, 2.0), np.full(4, 0.1), 0.5)
    cmd = ActuatorCommand(act.thrust.copy(), act.tilt.copy(), eta_d=0.5)
    out = step_actuators(act, cmd, 0.001, PARAMS)
    assert np.allclose(out.thrust, act.thrust)
    assert np.allclose(out.tilt, act.tilt)
    assert out.eta == act.eta


def test_step_actuators_perch_servo_travel():
    act = ActuatorState.at_rest()
    cmd = ActuatorCommand(np.zeros(4), np.zeros(4), eta_d=1.0)
    out = step_actuators(act, cmd, 0.001, PARAMS)
    assert abs(out.eta - 0.001 / PARAMS.t_ps) < 1e-12
    for _ in range(1000):
        out = step_actuators(out, cmd, 0.001, PARAMS)
    assert out.eta == 1.0


def test_step_actuators_rejects_bad_dt():
    with pytest.raises(ValueError):
        step_actuators(ActuatorState.at_rest(),
                       ActuatorCommand(np.zeros(4), np.zeros(4)), 0.0, PARAMS)


def _state_at_gap(gap):
    # Magnet face at distance `gap` in front of the wall plane.
    p = WALL.point + (gap - WALL.c_m[2] * 0.0) * WALL.normal - WALL.c_m
    st = VehicleState.at_rest(p)
    assert abs(WALL.gap_of(st) - gap) < 1e-12
    return st


def test_contact_attach_threshold():
    st = _state_at_gap(0.0005)
    act = ActuatorState(np.zeros(4), np.zeros(4), eta=1.0)
    out = update_contact(st, act, np.zeros(3), detached(), WALL, PARAMS)
    assert out.attached
    assert out.gap == 0.0
    assert np.array_equal(out.anchor_p, st.p)


def test_contact_no_attach_beyond_tolerance():
    st = _state_at_gap(0.01)
    act = ActuatorState(np.zeros(4), np.zeros(4), eta=1.0)
    out = update_contact(st, act, np.zeros(3), detached(), WALL, PARAMS)
    assert not out.attached


def test_contact_lambda_true_gravity_offset():
    st = _state_at_gap(0.0)
    act = ActuatorState(np.zeros(4), np.zeros(4), eta=1.0)
    anchored = ContactState(attached=True, gap=0.0,
                            anchor_p=st.p, anchor_R=st.R)
    applied = PARAMS.m * PARAMS.g * B3  # perfect gravity offset
    out = update_contact(st, act, applied, anchored, WALL, PARAMS)
    assert out.attached
    # Vertical wall: gravity is tangential, pull = 0, hold at full capacity.
    assert abs(out.lambda_true - WALL.F_mag) < 1e-12


def test_contact_release_on_unperch_travel():
    st = _state_at_gap(0.0)
    act = ActuatorState(np.zeros(4), np.zeros(4), eta=0.0)
    anchored = ContactState(attached=True, gap=0.0,
                            anchor_p=st.p, anchor_R=st.R)
    out = update_contact(st, act, np.zeros(3), anchored, WALL, PARAMS)
    assert not out.attached


def test_contact_forcible_detach_over_capacity():
    st = _state_at_gap(0.0)
    act = ActuatorState(np.zeros(4), np.zeros(4), eta=1.0)
    anchored = ContactState(attached=True, gap=0.0,
                            anchor_p=st.p, anchor_R=st.R)
    pull = PARAMS.m * PARAMS.g * B3 + (WALL.F_mag + 1.0) * WALL.normal
    out = update_contact(st, act, pull, anchored, WALL, PARAMS)
    assert not out.attached


def test_contact_nearfield_ramp():
    st = _state_at_gap(0.025)
    act = ActuatorState(np.zeros(4), np.zeros(4), eta=1.0)
    out = update_contact(st, act, np.zeros(3), detached(), WALL, PARAMS)
    expect = -WALL.F_mag * (1.0 - 0.025 / WALL.d_mag) * WALL.normal
    assert np.allclose(out.nearfield_force, expect, atol=1e-9)


def test_integrate_free_fall_closed_form():
    state = VehicleState.at_rest([0.0, 0.0, 10.0])
    act = ActuatorState.at_rest()
    contact = detached()
    for _ in range(1000):
        state = integrate(state, act, Disturbances.none(), contact,
                          WALL, PARAMS, 0.001)
    assert abs(state.v[2] + 9.81) < 1e-9
    assert abs((10.0 - state.p[2]) - 4.905) < 1e-6


def test_integrate_principal_axis_rotation():
    params = VehicleParams(Jb=0.01 * np.eye(3))
    state = VehicleState.at_rest([0.0, 0.0, 10.0])
    state.omega = np.array([0.0, 0.0, 1.0])
    act = ActuatorState.at_rest()
    contact = detached()
    n = 2000
    dt = (math.pi / 2) / n
    for _ in range(n):
        state = integrate(state, act, Disturbances.none(), contact,
                          WALL, params, dt)
    assert np.linalg.norm(state.R - rot_z(math.pi / 2)) < 1e-6


def test_integrate_attached_passthrough():
    state = VehicleState.at_rest([1.0, 0.0, 1.2])
    anchored = ContactState(attached=True, gap=0.0,
                            anchor_p=state.p, anchor_R=state.R)
    out = integrate(state, ActuatorState.at_rest(), Disturbances.none(),
                    anchored, WALL, PARAMS, 0.001)
    assert out is state


def test_integrate_rejects_bad_dt():
    state = VehicleState.at_rest([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        integrate(state, ActuatorState.at_rest(), Disturbances.none(),
                  detached(), WALL, PARAMS, 0.02)


def test_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(m=-1.0)
    with pytest.raises(ValueError):
        WallModel(point=np.zeros(3), normal=np.array([-1.0, 0.0, 0.0]),
                  F_mag=-1.0)
