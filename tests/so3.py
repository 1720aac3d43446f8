"""Rotation helpers shared by the tests.

perchsim holds a rotation as a row-major 9-tuple; the tests state their
reference formulas on 3x3 numpy arrays and convert with `mat` and `flat`.
`right_jacobian_inv` is the closed-form inverse the planner once used.
"""

import math

import numpy as np

from perchsim.geometry import _SMALL_ANGLE, cross


def mat(R):
    """A row-major 9-tuple as a 3x3 array."""
    return np.reshape(np.asarray(R, dtype=float), (3, 3))


def flat(M):
    """A 3x3 array as a row-major 9-tuple."""
    return tuple(np.ravel(M).tolist())


def rot_x(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def right_jacobian_inv(phi, x):
    """J_r(phi)^-1 x, float for float as the removed
    geometry.right_jacobian_inv: (I + K / 2 + c2 K^2) x with K = hat(phi)."""
    theta2 = phi[0] * phi[0] + phi[1] * phi[1] + phi[2] * phi[2]
    if theta2 < _SMALL_ANGLE:
        c2 = 1.0 / 12.0
    else:
        theta = math.sqrt(theta2)
        c2 = 1.0 / theta2 - (1.0 + math.cos(theta)) \
            / (2.0 * theta * math.sin(theta))
    u = cross(phi, x)
    w = cross(phi, u)
    return (x[0] + 0.5 * u[0] + c2 * w[0], x[1] + 0.5 * u[1] + c2 * w[1],
            x[2] + 0.5 * u[2] + c2 * w[2])
