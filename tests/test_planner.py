"""Planner tests: setpoint geometry, quintic/cubic primitives, sampling."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perchsim import planner
from perchsim.geometry import EYE, exp_so3, mat_mul, mat_vec, pitch_of, \
    rot_y
from perchsim.harness import run_scenario
from perchsim.planner import (MissionPlanner, connect, jerk_cost,
                              min_accel_rotation, min_jerk_segment,
                              perch_orientation, perch_setpoints, quintic,
                              rotation_at, rotation_between)
from perchsim.scenario import ScenarioConfig, default_scenario
from so3 import flat, mat

_, WALL = ScenarioConfig().build()


def exp_matrix(v):
    return mat(exp_so3(*v))


def interface_x(sp):
    p, _, _, R, _ = sp
    return float((np.add(p, mat_vec(R, WALL.c_m)))[0])


def test_setpoint_standoff_interface():
    cfg = ScenarioConfig(standoff=0.5, penetration=0.1)
    sp1, sp2, sp3 = perch_setpoints(WALL, cfg)
    assert abs(interface_x(sp2) - 0.5) < 1e-12
    assert abs(interface_x(sp3) - 1.1) < 1e-12
    p1, _, _, _, _ = sp1
    assert np.allclose(p1, cfg.hover_position)


def test_setpoint_zero_penetration_on_surface():
    cfg = ScenarioConfig(standoff=0.5, penetration=0.0)
    _, _, sp3 = perch_setpoints(WALL, cfg)
    assert abs(interface_x(sp3) - 1.0) < 1e-12


def test_perch_orientation_faces_wall():
    R = mat(perch_orientation(WALL))
    # Bottom (-b3) aligned with -n: magnet face toward the wall.
    assert np.allclose(R @ np.array([0.0, 0.0, -1.0]),
                       -np.asarray(WALL.normal), atol=1e-12)
    assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-12
    assert abs(abs(pitch_of(flat(R))) - math.pi / 2) < 1e-9


def test_perch_orientation_rejects_horizontal_wall():
    wall = replace(WALL, point=np.zeros(3), normal=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        perch_orientation(wall)


def test_min_jerk_rest_to_rest_profile():
    coeffs = min_jerk_segment([0.0, 0.0, 0.0], np.zeros(3), np.zeros(3),
                              [1.0, 0.0, 0.0], np.zeros(3), np.zeros(3), 2.0)
    p, v, _ = quintic(coeffs, 1.0)
    assert abs(p[0] - 0.5) < 1e-12
    assert abs(v[0] - 0.9375) < 1e-12  # peak speed 15/(8 T)


def test_min_jerk_constant_trajectory():
    p0 = np.array([1.0, -2.0, 3.0])
    coeffs = min_jerk_segment(p0, np.zeros(3), np.zeros(3),
                              p0, np.zeros(3), np.zeros(3), 1.5)
    for t in (0.0, 0.6, 1.5):
        p, v, a = quintic(coeffs, t)
        assert np.allclose(p, p0, atol=1e-12)
        assert np.allclose(v, 0.0, atol=1e-12)
        assert np.allclose(a, 0.0, atol=1e-12)


def test_min_jerk_boundary_exactness():
    rng = np.random.default_rng(16)
    for _ in range(50):
        b = rng.normal(size=(6, 3))
        T = rng.uniform(0.5, 5.0)
        coeffs = min_jerk_segment(*b, T)
        for t, trio in ((0.0, b[:3]), (T, b[3:])):
            out = quintic(coeffs, t)
            for got, want in zip(out, trio):
                assert np.max(np.abs(got - want)) < 1e-9


def test_min_jerk_rejects_bad_duration():
    z = np.zeros(3)
    with pytest.raises(ValueError):
        min_jerk_segment(z, z, z, z, z, z, 0.0)


def test_jerk_cost_matches_quadrature():
    rng = np.random.default_rng(17)
    for _ in range(10):
        b = rng.normal(size=(6, 3))
        T = rng.uniform(0.5, 3.0)
        coeffs = min_jerk_segment(*b, T)
        ts = np.linspace(0.0, T, 20001)
        c = np.array(coeffs)
        jerk = (6.0 * c[:, 3:4] + 24.0 * c[:, 4:5] * ts
                + 60.0 * c[:, 5:6] * ts ** 2)
        quad = np.trapezoid(np.sum(jerk ** 2, axis=0), ts)
        assert abs(jerk_cost(coeffs, T) - quad) < 1e-6 * max(1.0, quad)


def test_min_accel_constant_rotation():
    R = rot_y(0.4)
    coeffs = min_accel_rotation(R, R, np.zeros(3), 2.0)
    for t in (0.0, 1.0, 2.0):
        Rt, omega = rotation_at(R, coeffs, t)
        assert np.allclose(Rt, R, atol=1e-12)
        assert np.allclose(omega, 0.0, atol=1e-12)


def test_min_accel_cubic_midpoint_pitch():
    coeffs = min_accel_rotation(EYE, rot_y(math.pi / 2), np.zeros(3), 2.0)
    Rt, _ = rotation_at(EYE, coeffs, 1.0)
    assert abs(pitch_of(Rt) - math.pi / 4) < 1e-9


def test_min_accel_endpoint_exactness():
    rng = np.random.default_rng(18)
    for _ in range(100):
        a0, a1 = rng.normal(size=(2, 3))
        R0 = exp_matrix(a0 / np.linalg.norm(a0) * rng.uniform(0, 2.0))
        Rf = R0 @ exp_matrix(a1 / np.linalg.norm(a1)
                             * rng.uniform(0, 2.5))
        w0 = 0.3 * rng.normal(size=3)
        T = rng.uniform(0.5, 4.0)
        coeffs = min_accel_rotation(flat(R0), flat(Rf), w0, T)
        Rt0, om0 = rotation_at(flat(R0), coeffs, 0.0)
        RtT, omT = rotation_at(flat(R0), coeffs, T)
        assert np.linalg.norm(mat(Rt0) - R0) < 1e-9
        assert np.linalg.norm(mat(RtT) - Rf) < 1e-9
        assert np.max(np.abs(om0 - w0)) < 1e-9
        assert np.max(np.abs(omT)) < 1e-9       # every segment ends at rest


def test_min_accel_rejects_antipodal():
    with pytest.raises(ValueError):
        min_accel_rotation(EYE, flat(np.diag([1.0, -1.0, -1.0])),
                           np.zeros(3), 1.0)


def _rest_and_approach_plan():
    # The default perch mission's first plan: a rest at (1) for 1 s, then
    # one segment of 4 s to (2).
    cfg = ScenarioConfig()
    sp1, sp2, _ = perch_setpoints(WALL, cfg)
    return MissionPlanner(cfg, WALL), sp1, sp2


def test_plan_sample_start_exact():
    plan, (p1, _, _, _, _), _ = _rest_and_approach_plan()
    p, v, _, _, _ = plan.sample(0.0)
    assert np.array_equal(p, p1)
    assert np.array_equal(v, np.zeros(3))


def test_plan_terminal_hold():
    plan, _, (p2, _, _, R2, _) = _rest_and_approach_plan()
    p, v, _, R, omega = plan.sample(plan.duration + 10.0)
    assert np.allclose(p, p2, atol=1e-9)
    assert np.array_equal(v, np.zeros(3))
    assert np.array_equal(omega, np.zeros(3))
    assert np.linalg.norm(np.subtract(R, R2)) < 1e-9


def test_plan_derivative_consistency():
    plan, _, _ = _rest_and_approach_plan()
    dt = 1e-4
    for t in np.linspace(1.1, 4.9, 25):
        p_a, _, _, R_a, _ = plan.sample(t - dt)
        p_b, _, _, R_b, _ = plan.sample(t + dt)
        _, v, _, R, omega = plan.sample(t)
        fd_v = np.subtract(p_b, p_a) / (2 * dt)
        assert np.max(np.abs(fd_v - v)) < 1e-5
        # Body rate: R^T dR/dt is the hat of omega.
        dR = (mat(R_b) - mat(R_a)) / (2 * dt)
        W = mat(R).T @ dR
        omega_fd = np.array([W[2, 1], W[0, 2], W[1, 0]])
        assert np.max(np.abs(omega_fd - omega)) < 1e-5


def test_plan_c1_continuity_at_joint():
    plan, _, _ = _rest_and_approach_plan()
    eps = 1e-9
    p_a, v_a, _, _, omega_a = plan.sample(1.0 - eps)
    p_b, v_b, _, _, omega_b = plan.sample(1.0 + eps)
    assert np.max(np.abs(np.subtract(p_a, p_b))) < 1e-6
    assert np.max(np.abs(np.subtract(v_a, v_b))) < 1e-6
    assert np.max(np.abs(np.subtract(omega_a, omega_b))) < 1e-6


def _bits(sp):
    """The setpoint's bytes: equal exactly when every float, signed zeros
    included, is the same."""
    return b"".join(np.asarray(x, dtype=float).tobytes() for x in sp)


def test_plan_rests_without_evaluating_segments(monkeypatch):
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return call

    hover_cfg, cfg = ScenarioConfig(mission="hover"), ScenarioConfig()
    hover, perch = MissionPlanner(hover_cfg, WALL), MissionPlanner(cfg, WALL)
    monkeypatch.setattr(planner, "quintic", counted(quintic))
    monkeypatch.setattr(planner, "rotation_at", counted(rotation_at))

    # A hover plan has no segments: every tick of a 2.5 s run is its rest.
    assert hover.segments == ()
    rest = _bits(hover.setpoints[0])
    for k in range(int(round(2.5 / hover_cfg.dt))):
        assert _bits(hover.sample(k * hover_cfg.dt)) == rest

    # The perch plan rests at (1) until its one segment starts at hold_time.
    (start, *_), = perch.segments
    assert start == cfg.hold_time
    rest, ticks = _bits(perch.setpoints[0]), 0
    while ticks * cfg.dt < start:
        assert _bits(perch.sample(ticks * cfg.dt)) == rest
        ticks += 1
    assert ticks == 1000 and calls == []


def test_signal_during_initial_rest_approaches_from_hover(monkeypatch):
    cfg = default_scenario()
    cfg.events[0] = (0.5, "s_f2p")
    cfg.duration = 1.0
    built = []

    def spy(sp_from, sp_to, T, start=0.0):
        built.append((sp_from, sp_to))
        return connect(sp_from, sp_to, T, start)

    monkeypatch.setattr(planner, "connect", spy)
    result = run_scenario(cfg)
    assert (0.5, "mode", "F->F2P") in result.events
    sp1, _, sp3 = perch_setpoints(WALL, cfg)
    approach_from, approach_to = built[-1]
    assert _bits(approach_from) == _bits(sp1)
    assert _bits(approach_to) == _bits(sp3)


def test_plan_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(standoff=0.0).build()
    with pytest.raises(ValueError):
        ScenarioConfig(t_approach=0.0).build()


def test_press_force_sizing_rule():
    # delta_in must press harder than lambda_f2p at the locked plant.
    cfg = ScenarioConfig()
    press = 1.65 * 10.0 * cfg.penetration
    assert press > 1.0


def solved_quintic(p0, v0, a0, pf, vf, af, T):
    """The quintic's c3..c5 from `np.linalg.solve`, as the planner took them
    before its closed form."""
    M = np.array([[T ** 3, T ** 4, T ** 5],
                  [3 * T ** 2, 4 * T ** 3, 5 * T ** 4],
                  [6 * T, 12 * T ** 2, 20 * T ** 3]])
    coeffs = []
    for c0, c1, a, p, v, acc in zip(p0, v0, a0, pf, vf, af):
        c2 = 0.5 * a
        rhs = [p - (c0 + c1 * T + c2 * T ** 2), v - (c1 + 2 * c2 * T),
               acc - 2 * c2]
        coeffs.append((c0, c1, c2, *np.linalg.solve(M, rhs).tolist()))
    return tuple(coeffs)


def solved_rotation(R0, Rf, w0, T):
    """The rotation cubic's c2, c3 from `np.linalg.solve`, likewise."""
    M = np.array([[T ** 2, T ** 3], [2 * T, 3 * T ** 2]])
    return tuple((w, *np.linalg.solve(M, [phi - w * T, 0.0 - w]).tolist())
                 for phi, w in zip(rotation_between(R0, Rf), w0))


DURATIONS = st.floats(math.log(1e-6), math.log(1e4)).map(math.exp)
VALUES = st.tuples(*[st.floats(-1e3, 1e3)] * 3)
TINY = 1e-290


@settings(max_examples=300, deadline=None)
@given(T=DURATIONS, ends=st.tuples(*[VALUES] * 6))
def test_closed_form_quintic_meets_its_ends(T, ends):
    # Both ends' position, velocity and acceleration, each within 1e-12 of
    # the segment's scale (the largest of |p|, T |v| and T^2 |a| at either
    # end), for T from 1e-6 to 1e4 s; LAPACK's coefficients meet the same.
    # TINY stands in for a scale so small that floats lose relative
    # precision (subnormal ends).
    p0, v0, a0, pf, vf, af = np.array(ends)
    scale = max(np.abs([p0, pf]).max(), T * np.abs([v0, vf]).max(),
                T * T * np.abs([a0, af]).max(), TINY)
    for coeffs in (min_jerk_segment(*ends, T), solved_quintic(*ends, T)):
        for t, (p, v, a) in ((0.0, (p0, v0, a0)), (T, (pf, vf, af))):
            got_p, got_v, got_a = quintic(coeffs, t)
            assert np.abs(got_p - p).max() <= 1e-12 * scale
            assert T * np.abs(got_v - v).max() <= 1e-12 * scale
            assert T * T * np.abs(got_a - a).max() <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(T=DURATIONS, angle=st.floats(0.0, 3.0),
       axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: math.hypot(*v) > 1e-3),
       w0=st.tuples(*[st.floats(-10.0, 10.0)] * 3), tilt=st.floats(0.0, 3.0))
def test_closed_form_rotation_meets_its_ends(T, angle, axis, w0, tilt):
    # phi(T) = phi_f and phi'(T) = 0, each within 1e-12 of the segment's
    # scale (the largest of |phi_f| and T |w0|), as LAPACK's meet too.
    R0 = rot_y(tilt)
    n = math.hypot(*axis)
    Rf = mat_mul(R0, exp_so3(*(angle * x / n for x in axis)))
    phi_f = rotation_between(R0, Rf)
    scale = max(*map(abs, phi_f), *(T * abs(w) for w in w0), TINY)
    for coeffs in (min_accel_rotation(R0, Rf, w0, T),
                   solved_rotation(R0, Rf, w0, T)):
        for (c1, c2, c3), phi, w in zip(coeffs, phi_f, w0):
            assert c1 == w
            assert abs(T * (c1 + T * (c2 + T * c3)) - phi) <= 1e-12 * scale
            assert T * abs(c1 + T * (2 * c2 + 3 * T * c3)) <= 1e-12 * scale
