"""SO(3) math kernel: hat/vee, exp/log maps, rotation error, Euler pitch.

Rotations are body-to-world.  The integrator's kernel (`exp_so3`,
`mat_mul`, `renormalize`) works on plain floats: a rotation is a row-major
9-tuple and a vector three floats.  Everything else takes 3x3 numpy arrays
and shape-(3,) float arrays.  Everything here is stateless.
"""

import math

import numpy as np

B3 = np.array([0.0, 0.0, 1.0])
_EYE = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)

_SMALL_ANGLE = 1e-8
_SKEW_TOL = 1e-9
_NEAR_PI = 1e-6


def hat(v):
    """Skew-symmetric matrix such that hat(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def vee(M):
    """Inverse of hat. Rejects matrices whose symmetric part exceeds tolerance."""
    sym = 0.5 * (M + M.T)
    if np.max(np.abs(sym)) > _SKEW_TOL:
        raise ValueError("matrix is not skew-symmetric within tolerance")
    return _vee_unchecked(M)


def _vee_unchecked(M):
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def exp_so3(x, y, z):
    """Rodrigues' formula I + a K + b K^2, K = hat(x, y, z), as a 9-tuple.

    Below the small-angle threshold a Taylor series gives a and b.
    """
    xx, yy, zz = x * x, y * y, z * z
    theta = math.sqrt(xx + yy + zz)
    a, b = 1.0, 0.5
    if theta >= _SMALL_ANGLE:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / (theta * theta)
    ax, ay, az = a * x, a * y, a * z
    bxy, bxz, byz = b * (x * y), b * (x * z), b * (y * z)
    return (1.0 - b * (zz + yy), bxy - az, bxz + ay,
            bxy + az, 1.0 - b * (zz + xx), byz - ax,
            bxz - ay, byz + ax, 1.0 - b * (yy + xx))


def mat_mul(A, B):
    """Product of two row-major 3x3 9-tuples."""
    a, b, c, d, e, f, g, h, i = A
    j, k, l, m, n, o, p, q, r = B
    return (a * j + b * m + c * p, a * k + b * n + c * q, a * l + b * o + c * r,
            d * j + e * m + f * p, d * k + e * n + f * q, d * l + e * o + f * r,
            g * j + h * m + i * p, g * k + h * n + i * q, g * l + h * o + i * r)


def log_so3(R):
    """Principal-branch rotation vector of R, with norm <= pi."""
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    cos_theta = min(1.0, max(-1.0, 0.5 * (tr - 1.0)))
    theta = math.acos(cos_theta)
    w = 0.5 * _vee_unchecked(R - R.T)  # == sin(theta) * axis
    if theta < _SMALL_ANGLE:
        return w
    if math.pi - theta > _NEAR_PI:
        return (theta / math.sin(theta)) * w
    # Near pi the skew part vanishes; recover the axis from the symmetric part
    # via the largest diagonal element, and sharpen theta from |w| = sin(theta).
    S = 0.5 * (R + np.eye(3))
    k = int(np.argmax(np.diag(S)))
    axis = S[:, k] / math.sqrt(S[k, k])
    axis = axis / np.linalg.norm(axis)
    s = np.linalg.norm(w)
    if s > 1e-12:
        theta = math.pi - math.asin(min(1.0, s))
        if np.dot(w, axis) < 0.0:
            axis = -axis
    else:
        # Exactly pi: resolve the +/- axis tie deterministically.
        for c in axis:
            if abs(c) > 1e-12:
                if c < 0.0:
                    axis = -axis
                break
    return theta * axis


def rotation_error(R, Rd):
    """Log-map attitude error (Log(R^T Rd))^vee; zero iff R == Rd."""
    return log_so3(R.T @ Rd)


def pitch_of(R):
    """Z-Y-X Euler pitch in [-pi/2, pi/2]; used for logging only."""
    s = min(1.0, max(-1.0, -R[2, 0]))
    return math.asin(s)


def right_jacobian(v):
    """Right Jacobian of SO(3): omega = right_jacobian(phi) @ dphi/dt."""
    theta2 = float(v @ v)
    K = hat(v)
    K2 = K @ K
    if theta2 < _SMALL_ANGLE:
        return np.eye(3) - 0.5 * K + K2 / 6.0
    theta = math.sqrt(theta2)
    a = (1.0 - math.cos(theta)) / theta2
    b = (theta - math.sin(theta)) / (theta2 * theta)
    return np.eye(3) - a * K + b * K2


def right_jacobian_inv(v):
    """Closed-form inverse of the right Jacobian."""
    theta2 = float(v @ v)
    K = hat(v)
    K2 = K @ K
    if theta2 < _SMALL_ANGLE:
        return np.eye(3) + 0.5 * K + K2 / 12.0
    theta = math.sqrt(theta2)
    c = 1.0 / theta2 - (1.0 + math.cos(theta)) / (2.0 * theta * math.sin(theta))
    return np.eye(3) + 0.5 * K + c * K2


def renormalize(R):
    """Project a near-orthonormal 9-tuple onto SO(3): R (1.5 I - 0.5 R^T R)."""
    a, b, c, d, e, f, g, h, i = R
    RtR = mat_mul((a, d, g, b, e, h, c, f, i), R)
    return mat_mul(R, [1.5 * u - 0.5 * s for u, s in zip(_EYE, RtR)])


def quat_of(R):
    """Unit quaternion (w, x, y, z) of a rotation matrix, w >= 0."""
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    else:
        k = int(np.argmax(np.diag(R)))
        i, j = (k + 1) % 3, (k + 2) % 3
        s = math.sqrt(1.0 + R[k, k] - R[i, i] - R[j, j]) * 2.0
        q = np.empty(4)
        q[0] = (R[j, i] - R[i, j]) / s
        q[1 + k] = 0.25 * s
        q[1 + i] = (R[i, k] + R[k, i]) / s
        q[1 + j] = (R[j, k] + R[k, j]) / s
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def rot_x(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
