"""SO(3) kernel tests: cross product, exp/log, rotation error, Euler pitch."""

import math

import numpy as np

from perchsim.geometry import (B3, EYE, cross, exp_so3, log_so3, pitch_of,
                               renormalize, right_jacobian, rot_y,
                               rotation_error)
from so3 import flat, mat, right_jacobian_inv, rot_x, rot_z


def exp_matrix(v):
    """exp_so3 of a rotation vector, as a 3x3 array."""
    return mat(exp_so3(*v))


def random_rotation(rng, max_angle=math.pi - 1e-3):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return exp_matrix(rng.uniform(0.0, max_angle) * axis)


def test_cross_matches_numpy():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v, w = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(cross(v, w), np.cross(v, w), atol=1e-14)


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
    assert np.array_equal(log_so3(EYE), np.zeros(3))


def test_log_ry_quarter_turn():
    assert np.allclose(log_so3(rot_y(math.pi / 2)),
                       [0.0, math.pi / 2, 0.0], atol=1e-12)


def test_log_exp_roundtrip_random():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        R = random_rotation(rng)
        err = np.linalg.norm(exp_matrix(log_so3(flat(R))) - R)
        worst = max(worst, err)
    assert worst < 1e-9


def test_exp_log_roundtrip_in_vector():
    rng = np.random.default_rng(5)
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        v = rng.uniform(0.0, math.pi - 1e-3) * axis
        assert np.linalg.norm(log_so3(exp_so3(*v)) - v) < 1e-9


def test_log_near_pi_branch():
    rng = np.random.default_rng(6)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        v = (math.pi - 1e-9) * axis
        w = log_so3(exp_so3(*v))
        assert np.linalg.norm(exp_matrix(w) - exp_matrix(v)) < 1e-7
        assert np.linalg.norm(w) <= math.pi + 1e-12


def test_log_exact_pi_deterministic():
    R = np.diag([1.0, -1.0, -1.0])
    v = log_so3(flat(R))
    assert abs(np.linalg.norm(v) - math.pi) < 1e-9
    assert v[0] > 0.0  # first nonzero axis component nonnegative
    assert np.linalg.norm(exp_matrix(v) - R) < 1e-9


def test_rotation_error_zero_iff_equal():
    rng = np.random.default_rng(7)
    R = random_rotation(rng)
    assert np.linalg.norm(rotation_error(flat(R), flat(R))) == 0.0


def test_rotation_error_quarter_pitch():
    assert np.allclose(rotation_error(EYE, rot_y(math.pi / 2)),
                       [0.0, math.pi / 2, 0.0], atol=1e-12)


def test_rotation_error_antisymmetry():
    rng = np.random.default_rng(8)
    for _ in range(50):
        R, Rd = random_rotation(rng, 2.0), random_rotation(rng, 2.0)
        psi = R.T @ Rd
        lhs = rotation_error(flat(R), flat(Rd))
        rhs = -psi @ rotation_error(flat(Rd), flat(R))
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_pitch_of_identity():
    assert pitch_of(EYE) == 0.0


def test_pitch_of_ry_quarter():
    assert abs(pitch_of(rot_y(math.pi / 2)) - math.pi / 2) < 1e-12


def test_pitch_of_yaw_only():
    assert abs(pitch_of(flat(rot_z(0.3)))) < 1e-15


def test_right_jacobian_inverse_consistency():
    rng = np.random.default_rng(9)
    for _ in range(50):
        v = rng.normal(size=3)
        J_Jinv = np.column_stack([right_jacobian(v, right_jacobian_inv(v, e))
                                  for e in np.eye(3)])
        assert np.allclose(J_Jinv, np.eye(3), atol=1e-9)


def test_right_jacobian_finite_difference():
    # d/dt exp(phi(t)) = exp(phi) hat(J_r(phi) dphi) to first order.
    rng = np.random.default_rng(10)
    for _ in range(20):
        phi = rng.normal(size=3)
        dphi = rng.normal(size=3)
        eps = 1e-7
        dR = (exp_matrix(phi + eps * dphi) - exp_matrix(phi)) / eps
        W = 0.5 * (exp_matrix(phi).T @ dR - (exp_matrix(phi).T @ dR).T)
        omega_fd = np.array([W[2, 1], W[0, 2], W[1, 0]])
        assert np.allclose(omega_fd, right_jacobian(phi, dphi), atol=1e-5)


def test_renormalize_projects_back():
    rng = np.random.default_rng(11)
    R = random_rotation(rng) + 1e-9 * rng.normal(size=(3, 3))
    Rn = mat(renormalize(flat(R)))
    assert np.linalg.norm(Rn.T @ Rn - np.eye(3)) < 1e-12


def test_b3_constant():
    assert np.array_equal(B3, [0.0, 0.0, 1.0])
    assert np.allclose(rot_x(0.0), np.eye(3))
