"""Planner tests: setpoint geometry, quintic/cubic primitives, sampling."""

import math
from dataclasses import replace

import numpy as np
import pytest

from perchsim.geometry import EYE, exp_so3, mat_vec, pitch_of, rot_y
from perchsim.planner import (MissionPlanner, min_accel_rotation,
                              min_jerk_segment, perch_orientation,
                              perch_setpoints)
from perchsim.scenario import ScenarioConfig
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
    seg = min_jerk_segment([0.0, 0.0, 0.0], np.zeros(3), np.zeros(3),
                           [1.0, 0.0, 0.0], np.zeros(3), np.zeros(3), 2.0)
    p, v, _ = seg.eval(1.0)
    assert abs(p[0] - 0.5) < 1e-12
    assert abs(v[0] - 0.9375) < 1e-12  # peak speed 15/(8 T)


def test_min_jerk_constant_trajectory():
    p0 = np.array([1.0, -2.0, 3.0])
    seg = min_jerk_segment(p0, np.zeros(3), np.zeros(3),
                           p0, np.zeros(3), np.zeros(3), 1.5)
    for t in (0.0, 0.6, 1.5):
        p, v, a = seg.eval(t)
        assert np.allclose(p, p0, atol=1e-12)
        assert np.allclose(v, 0.0, atol=1e-12)
        assert np.allclose(a, 0.0, atol=1e-12)


def test_min_jerk_boundary_exactness():
    rng = np.random.default_rng(16)
    for _ in range(50):
        b = rng.normal(size=(6, 3))
        T = rng.uniform(0.5, 5.0)
        seg = min_jerk_segment(*b, T)
        for t, trio in ((0.0, b[:3]), (T, b[3:])):
            out = seg.eval(t)
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
        seg = min_jerk_segment(*b, T)
        ts = np.linspace(0.0, T, 20001)
        c = np.array(seg.coeffs)
        jerk = (6.0 * c[:, 3:4] + 24.0 * c[:, 4:5] * ts
                + 60.0 * c[:, 5:6] * ts ** 2)
        quad = np.trapezoid(np.sum(jerk ** 2, axis=0), ts)
        assert abs(seg.jerk_cost() - quad) < 1e-6 * max(1.0, quad)


def test_min_accel_constant_rotation():
    R = rot_y(0.4)
    seg = min_accel_rotation(R, R, np.zeros(3), 2.0)
    for t in (0.0, 1.0, 2.0):
        Rt, omega = seg.eval(t)
        assert np.allclose(Rt, R, atol=1e-12)
        assert np.allclose(omega, 0.0, atol=1e-12)


def test_min_accel_cubic_midpoint_pitch():
    seg = min_accel_rotation(EYE, rot_y(math.pi / 2), np.zeros(3), 2.0)
    Rt, _ = seg.eval(1.0)
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
        seg = min_accel_rotation(flat(R0), flat(Rf), w0, T)
        Rt0, om0 = seg.eval(0.0)
        RtT, omT = seg.eval(T)
        assert np.linalg.norm(mat(Rt0) - R0) < 1e-9
        assert np.linalg.norm(mat(RtT) - Rf) < 1e-9
        assert np.max(np.abs(om0 - w0)) < 1e-9
        assert np.max(np.abs(omT)) < 1e-9       # every segment ends at rest


def test_min_accel_rejects_antipodal():
    with pytest.raises(ValueError):
        min_accel_rotation(EYE, flat(np.diag([1.0, -1.0, -1.0])),
                           np.zeros(3), 1.0)


def _two_segment_plan():
    # The default perch mission's first plan: hold for 1 s, then 4 s to (2).
    cfg = ScenarioConfig()
    sp1, sp2, _ = perch_setpoints(WALL, cfg)
    return MissionPlanner(cfg, WALL), sp1, sp2


def test_plan_sample_start_exact():
    plan, (p1, _, _, _, _), _ = _two_segment_plan()
    p, v, _, _, _ = plan.sample(0.0)
    assert np.array_equal(p, p1)
    assert np.array_equal(v, np.zeros(3))


def test_plan_terminal_hold():
    plan, _, (p2, _, _, R2, _) = _two_segment_plan()
    p, v, _, R, omega = plan.sample(plan.duration + 10.0)
    assert np.allclose(p, p2, atol=1e-9)
    assert np.array_equal(v, np.zeros(3))
    assert np.array_equal(omega, np.zeros(3))
    assert np.linalg.norm(np.subtract(R, R2)) < 1e-9


def test_plan_derivative_consistency():
    plan, _, _ = _two_segment_plan()
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
    plan, _, _ = _two_segment_plan()
    eps = 1e-9
    p_a, v_a, _, _, omega_a = plan.sample(1.0 - eps)
    p_b, v_b, _, _, omega_b = plan.sample(1.0 + eps)
    assert np.max(np.abs(np.subtract(p_a, p_b))) < 1e-6
    assert np.max(np.abs(np.subtract(v_a, v_b))) < 1e-6
    assert np.max(np.abs(np.subtract(omega_a, omega_b))) < 1e-6


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
