"""Allocation tests: matrix construction, min-norm recovery, round trips."""

import math

import numpy as np
import pytest

from perchsim.allocation import (THRUST_EPS, AllocationError, RotorGeometry,
                                 allocate)
from perchsim.geometry import ZERO3
from perchsim.scenario import ScenarioConfig
from perchsim.vehicle import forward_wrench

CFG = ScenarioConfig()
GEOM = CFG.build()[0].rotors
MG = 1.65 * 9.81


def vec(w):
    """A wrench (f, tau) as the 6-vector [f; tau]."""
    return np.concatenate(w)


def test_allocation_matrix_rank_six():
    A = GEOM.A
    assert A.shape == (6, 8)
    assert np.linalg.matrix_rank(A, tol=1e-9) == 6


def test_zero_drag_ratio_yaw_row():
    A = RotorGeometry.x_config(CFG.arm_length, 0.0).A
    # Planar rotor arms: vertical components produce no yaw without drag.
    assert np.allclose(A[5, :4], 0.0, atol=1e-15)
    assert np.linalg.norm(A[5, 4:]) > 0.0


def test_degenerate_geometry_rejected():
    pos = np.tile([0.1, 0.0, 0.0], (4, 1))
    with pytest.raises(AllocationError):
        RotorGeometry(pos, np.array([1.0, -1.0, 1.0, -1.0]), 0.016)


def test_zero_position_rejected():
    with pytest.raises(AllocationError):
        RotorGeometry(np.zeros((4, 3)), np.ones(4), 0.016)


def test_allocate_zero_wrench():
    thrust, _, saturated = allocate((ZERO3, ZERO3), GEOM, 8.0)
    assert np.allclose(thrust, 0.0, atol=1e-12)
    assert not saturated


def test_allocate_hover():
    thrust, tilt, saturated = allocate(
        (np.array([0.0, 0.0, MG]), np.zeros(3)), GEOM, 8.0)
    assert np.allclose(thrust, MG / 4.0, atol=1e-9)
    assert np.allclose(thrust, 4.05, atol=0.01)
    assert np.allclose(tilt, 0.0, atol=1e-9)
    assert not saturated


def test_allocate_lateral_force_feasible():
    w = (np.array([-MG, 0.0, 0.0]), np.zeros(3))
    thrust, tilt, saturated = allocate(w, GEOM, 8.0)
    back = forward_wrench(thrust, tilt, GEOM)
    assert np.linalg.norm(vec(back) - vec(w)) < 1e-9
    assert max(thrust) < 8.0
    assert not saturated


def test_forward_wrench_zero():
    w = forward_wrench(np.zeros(4), np.zeros(4), GEOM)
    assert np.allclose(vec(w), 0.0, atol=1e-15)


def test_forward_wrench_hover_sum():
    f, tau = forward_wrench(np.full(4, MG / 4.0), np.zeros(4), GEOM)
    assert np.allclose(f, [0.0, 0.0, MG], atol=1e-9)
    assert np.allclose(tau, 0.0, atol=1e-9)


def _random_wrench(rng, f_max=10.0, tau_max=0.5):
    f = rng.normal(size=3)
    f *= f_max * rng.random() ** (1 / 3) / np.linalg.norm(f)
    tau = rng.normal(size=3)
    tau *= tau_max * rng.random() ** (1 / 3) / np.linalg.norm(tau)
    return f, tau


def test_roundtrip_random_wrenches():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        w = _random_wrench(rng)
        thrust, tilt, saturated = allocate(w, GEOM, 50.0)
        assert not saturated
        back = forward_wrench(thrust, tilt, GEOM)
        worst = max(worst, np.max(np.abs(vec(back) - vec(w))))
    assert worst < 1e-9


def test_min_norm_against_kkt_oracle():
    A = GEOM.A
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        w = _random_wrench(rng)
        thrust, tilt, _ = allocate(w, GEOM, 50.0)
        x = np.concatenate([thrust * np.cos(tilt), thrust * np.sin(tilt)])
        # KKT system of min ||x||^2 s.t. A x = w.
        K = np.block([[np.eye(8), A.T], [A, np.zeros((6, 6))]])
        sol = np.linalg.solve(K, np.concatenate([np.zeros(8), vec(w)]))
        worst = max(worst, np.max(np.abs(x - sol[:8])))
    assert worst < 1e-8


def test_saturation_clamp_and_flag():
    thrust, _, saturated = allocate(
        (np.array([0.0, 0.0, 100.0]), np.zeros(3)), GEOM, 8.0)
    assert thrust == (8.0,) * 4                # every rotor clamped
    assert saturated


def test_near_zero_thrust_holds_previous_tilt():
    prev = np.array([0.3, -0.2, 0.1, 0.0])
    _, tilt, _ = allocate((ZERO3, ZERO3), GEOM, 8.0, prev_tilt=prev)
    assert np.array_equal(tilt, prev)


def test_allocate_matches_per_rotor_loop():
    # Reference: the per-rotor recovery of thrust and tilt, one at a time.
    rng = np.random.default_rng(14)
    prev = rng.uniform(-1.0, 1.0, 4)
    for scale in (0.0, 1e-9, 1.0, 30.0):
        for _ in range(50):
            w = _random_wrench(rng, f_max=scale, tau_max=0.05 * scale)
            thrust_out, tilt_out, saturated_out = allocate(
                w, GEOM, 8.0, prev_tilt=prev)
            f0, f1, f2, t0, t1, t2 = vec(w).tolist()
            x = [a * f0 + b * f1 + c * f2 + d * t0 + e * t1 + g * t2
                 for a, b, c, d, e, g in np.linalg.pinv(GEOM.A).tolist()]
            saturated = False
            for i in range(4):
                thrust = math.hypot(x[i], x[4 + i])
                tilt = prev[i] if thrust < THRUST_EPS \
                    else math.atan2(x[4 + i], x[i])
                assert tilt_out[i] == tilt
                assert thrust_out[i] == min(thrust, 8.0)
                saturated = saturated or thrust > 8.0
            assert saturated_out == saturated
