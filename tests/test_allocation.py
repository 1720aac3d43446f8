"""Allocation tests: matrix construction, min-norm recovery, round trips."""

import numpy as np
import pytest

from perchsim.allocation import (THRUST_EPS, AllocationError, RotorGeometry,
                                 Wrench, allocate, forward_wrench)

MG = 1.65 * 9.81


def test_allocation_matrix_rank_six():
    A = RotorGeometry.x_config().A
    assert A.shape == (6, 8)
    assert np.linalg.matrix_rank(A, tol=1e-9) == 6


def test_zero_drag_ratio_yaw_row():
    A = RotorGeometry.x_config(k_tau=0.0).A
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
    cmd = allocate(Wrench.zero(), RotorGeometry.x_config(), 8.0)
    assert np.allclose(cmd.thrust, 0.0, atol=1e-12)
    assert not cmd.saturated.any()


def test_allocate_hover():
    geom = RotorGeometry.x_config()
    cmd = allocate(Wrench(np.array([0.0, 0.0, MG]), np.zeros(3)), geom, 8.0)
    assert np.allclose(cmd.thrust, MG / 4.0, atol=1e-9)
    assert np.allclose(cmd.thrust, 4.05, atol=0.01)
    assert np.allclose(cmd.tilt, 0.0, atol=1e-9)
    assert not cmd.saturated.any()


def test_allocate_lateral_force_feasible():
    geom = RotorGeometry.x_config()
    w = Wrench(np.array([-MG, 0.0, 0.0]), np.zeros(3))
    cmd = allocate(w, geom, 8.0)
    back = forward_wrench(cmd.thrust, cmd.tilt, geom)
    assert np.linalg.norm(back.as_vector() - w.as_vector()) < 1e-9
    assert cmd.thrust.max() < 8.0
    assert not cmd.saturated.any()


def test_forward_wrench_zero():
    geom = RotorGeometry.x_config()
    w = forward_wrench(np.zeros(4), np.zeros(4), geom)
    assert np.allclose(w.as_vector(), 0.0, atol=1e-15)


def test_forward_wrench_hover_sum():
    geom = RotorGeometry.x_config()
    w = forward_wrench(np.full(4, MG / 4.0), np.zeros(4), geom)
    assert np.allclose(w.f, [0.0, 0.0, MG], atol=1e-9)
    assert np.allclose(w.tau, 0.0, atol=1e-9)


def _random_wrench(rng, f_max=10.0, tau_max=0.5):
    f = rng.normal(size=3)
    f *= f_max * rng.random() ** (1 / 3) / np.linalg.norm(f)
    tau = rng.normal(size=3)
    tau *= tau_max * rng.random() ** (1 / 3) / np.linalg.norm(tau)
    return Wrench(f, tau)


def test_roundtrip_random_wrenches():
    geom = RotorGeometry.x_config()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        w = _random_wrench(rng)
        cmd = allocate(w, geom, 50.0)
        assert not cmd.saturated.any()
        back = forward_wrench(cmd.thrust, cmd.tilt, geom)
        worst = max(worst, np.max(np.abs(back.as_vector() - w.as_vector())))
    assert worst < 1e-9


def test_min_norm_against_kkt_oracle():
    geom = RotorGeometry.x_config()
    A = geom.A
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        w = _random_wrench(rng)
        cmd = allocate(w, geom, 50.0)
        x = np.concatenate([cmd.thrust * np.cos(cmd.tilt),
                            cmd.thrust * np.sin(cmd.tilt)])
        # KKT system of min ||x||^2 s.t. A x = w.
        K = np.block([[np.eye(8), A.T], [A, np.zeros((6, 6))]])
        sol = np.linalg.solve(K, np.concatenate([np.zeros(8),
                                                 w.as_vector()]))
        worst = max(worst, np.max(np.abs(x - sol[:8])))
    assert worst < 1e-8


def test_saturation_clamp_and_flag():
    geom = RotorGeometry.x_config()
    cmd = allocate(Wrench(np.array([0.0, 0.0, 100.0]), np.zeros(3)),
                   geom, 8.0)
    assert np.all(cmd.thrust <= 8.0)
    assert cmd.saturated.all()


def test_near_zero_thrust_holds_previous_tilt():
    geom = RotorGeometry.x_config()
    prev = np.array([0.3, -0.2, 0.1, 0.0])
    cmd = allocate(Wrench.zero(), geom, 8.0, prev_tilt=prev)
    assert np.array_equal(cmd.tilt, prev)


def test_allocate_matches_per_rotor_loop():
    # Reference: the per-rotor recovery of thrust and tilt, one at a time.
    geom = RotorGeometry.x_config()
    rng = np.random.default_rng(14)
    prev = rng.uniform(-1.0, 1.0, 4)
    for scale in (0.0, 1e-9, 1.0, 30.0):
        for _ in range(50):
            w = _random_wrench(rng, f_max=scale, tau_max=0.05 * scale)
            cmd = allocate(w, geom, 8.0, prev_tilt=prev)
            x = geom.A_pinv @ w.as_vector()
            for i in range(4):
                thrust = float(np.hypot(x[i], x[4 + i]))
                tilt = prev[i] if thrust < THRUST_EPS \
                    else float(np.arctan2(x[4 + i], x[i]))
                assert cmd.tilt[i] == tilt
                assert cmd.thrust[i] == min(thrust, 8.0)
                assert cmd.saturated[i] == (thrust > 8.0)
