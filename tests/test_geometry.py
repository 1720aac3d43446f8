"""SO(3) kernel tests: hat/vee, exp/log, rotation error, Euler pitch."""

import math

import numpy as np
import pytest

from perchsim.geometry import (B3, exp_so3, hat, log_so3, pitch_of,
                               renormalize, right_jacobian,
                               right_jacobian_inv, rot_x, rot_y, rot_z,
                               rotation_error, vee)


def exp_matrix(v):
    """exp_so3 of a rotation vector, as a 3x3 array."""
    return np.reshape(exp_so3(*v), (3, 3))


def random_rotation(rng, max_angle=math.pi - 1e-3):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return exp_matrix(rng.uniform(0.0, max_angle) * axis)


def test_hat_zero():
    assert np.array_equal(hat(np.zeros(3)), np.zeros((3, 3)))


def test_hat_z_axis():
    M = hat(np.array([0.0, 0.0, 1.0]))
    assert M[0, 1] == -1.0 and M[1, 0] == 1.0
    assert M[0, 2] == M[2, 0] == M[1, 2] == M[2, 1] == 0.0
    assert np.all(np.diag(M) == 0.0)


def test_hat_matches_cross_product():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v, w = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(hat(v) @ w, np.cross(v, w), atol=1e-14)


def test_vee_inverse_of_hat():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(vee(hat(v)), v)


def test_vee_zero():
    assert np.array_equal(vee(np.zeros((3, 3))), np.zeros(3))


def test_vee_roundtrip_random():
    rng = np.random.default_rng(2)
    worst = max(np.max(np.abs(vee(hat(v)) - v))
                for v in rng.normal(size=(100, 3)))
    assert worst < 1e-12


def test_vee_rejects_non_skew():
    with pytest.raises(ValueError):
        vee(np.eye(3))


def test_exp_zero_is_identity():
    assert np.allclose(exp_matrix(np.zeros(3)), np.eye(3), atol=1e-15)


def test_exp_quarter_turn_about_z():
    R = exp_matrix(np.array([0.0, 0.0, math.pi / 2]))
    assert np.allclose(R @ np.array([1.0, 0.0, 0.0]),
                       [0.0, 1.0, 0.0], atol=1e-12)


def test_exp_pi_about_x():
    R = exp_matrix(np.array([math.pi, 0.0, 0.0]))
    assert np.allclose(R, np.diag([1.0, -1.0, -1.0]), atol=1e-12)


def test_exp_orthonormal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        R = exp_matrix(rng.normal(size=3))
        assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-9
        assert abs(np.linalg.det(R) - 1.0) < 1e-9


def test_log_identity():
    assert np.array_equal(log_so3(np.eye(3)), np.zeros(3))


def test_log_ry_quarter_turn():
    assert np.allclose(log_so3(rot_y(math.pi / 2)),
                       [0.0, math.pi / 2, 0.0], atol=1e-12)


def test_log_exp_roundtrip_random():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        R = random_rotation(rng)
        err = np.linalg.norm(exp_matrix(log_so3(R)) - R)
        worst = max(worst, err)
    assert worst < 1e-9


def test_exp_log_roundtrip_in_vector():
    rng = np.random.default_rng(5)
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        v = rng.uniform(0.0, math.pi - 1e-3) * axis
        assert np.linalg.norm(log_so3(exp_matrix(v)) - v) < 1e-9


def test_log_near_pi_branch():
    rng = np.random.default_rng(6)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        v = (math.pi - 1e-9) * axis
        w = log_so3(exp_matrix(v))
        assert np.linalg.norm(exp_matrix(w) - exp_matrix(v)) < 1e-7
        assert np.linalg.norm(w) <= math.pi + 1e-12


def test_log_exact_pi_deterministic():
    R = np.diag([1.0, -1.0, -1.0])
    v = log_so3(R)
    assert abs(np.linalg.norm(v) - math.pi) < 1e-9
    assert v[0] > 0.0  # first nonzero axis component nonnegative
    assert np.linalg.norm(exp_matrix(v) - R) < 1e-9


def test_rotation_error_zero_iff_equal():
    rng = np.random.default_rng(7)
    R = random_rotation(rng)
    assert np.linalg.norm(rotation_error(R, R)) == 0.0


def test_rotation_error_quarter_pitch():
    assert np.allclose(rotation_error(np.eye(3), rot_y(math.pi / 2)),
                       [0.0, math.pi / 2, 0.0], atol=1e-12)


def test_rotation_error_antisymmetry():
    rng = np.random.default_rng(8)
    for _ in range(50):
        R, Rd = random_rotation(rng, 2.0), random_rotation(rng, 2.0)
        psi = R.T @ Rd
        lhs = rotation_error(R, Rd)
        rhs = -psi @ rotation_error(Rd, R)
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_pitch_of_identity():
    assert pitch_of(np.eye(3)) == 0.0


def test_pitch_of_ry_quarter():
    assert abs(pitch_of(rot_y(math.pi / 2)) - math.pi / 2) < 1e-12


def test_pitch_of_yaw_only():
    assert abs(pitch_of(rot_z(0.3))) < 1e-15


def test_right_jacobian_inverse_consistency():
    rng = np.random.default_rng(9)
    for _ in range(50):
        v = rng.normal(size=3)
        J = right_jacobian(v)
        assert np.allclose(J @ right_jacobian_inv(v), np.eye(3), atol=1e-9)


def test_right_jacobian_finite_difference():
    # d/dt exp(phi(t)) = exp(phi) hat(J_r(phi) dphi) to first order.
    rng = np.random.default_rng(10)
    for _ in range(20):
        phi = rng.normal(size=3)
        dphi = rng.normal(size=3)
        eps = 1e-7
        dR = (exp_matrix(phi + eps * dphi) - exp_matrix(phi)) / eps
        omega_fd = vee(0.5 * (exp_matrix(phi).T @ dR
                              - (exp_matrix(phi).T @ dR).T))
        assert np.allclose(omega_fd, right_jacobian(phi) @ dphi, atol=1e-5)


def test_renormalize_projects_back():
    rng = np.random.default_rng(11)
    R = random_rotation(rng) + 1e-9 * rng.normal(size=(3, 3))
    Rn = np.reshape(renormalize(R.ravel().tolist()), (3, 3))
    assert np.linalg.norm(Rn.T @ Rn - np.eye(3)) < 1e-12


def test_b3_constant():
    assert np.array_equal(B3, [0.0, 0.0, 1.0])
    assert np.allclose(rot_x(0.0), np.eye(3))
