"""SO(3) math kernel on plain floats: products, exp/log maps, Jacobians.

Rotations are body-to-world row-major 9-tuples and vectors three floats,
so the 1 kHz tick pays no numpy call overhead.  `mat_vec` and `mat_t_vec`
are the one statement of R x and R^T x.  Everything here is stateless.
"""

import math

B3 = (0.0, 0.0, 1.0)                 # world up, and the rotors' thrust axis
ZERO3 = (0.0, 0.0, 0.0)
EYE = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)

_SMALL_ANGLE = 1e-8
_NEAR_PI = 1e-6


def floats(x):
    """A vector, or a rotation's nine entries, as a tuple of floats."""
    return tuple(map(float, x))


def mat_vec(R, x):
    """R x for a 9-tuple R and three floats x."""
    a, b, c, d, e, f, g, h, i = R
    x0, x1, x2 = x
    return (a * x0 + b * x1 + c * x2, d * x0 + e * x1 + f * x2,
            g * x0 + h * x1 + i * x2)


def mat_t_vec(R, x):
    """R^T x for a 9-tuple R and three floats x."""
    a, b, c, d, e, f, g, h, i = R
    x0, x1, x2 = x
    return (a * x0 + d * x1 + g * x2, b * x0 + e * x1 + h * x2,
            c * x0 + f * x1 + i * x2)


def cross(u, v):
    u0, u1, u2 = u
    v0, v1, v2 = v
    return u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0


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


def mat_t_mul(A, B):
    """A^T B of two row-major 9-tuples."""
    a, b, c, d, e, f, g, h, i = A
    j, k, l, m, n, o, p, q, r = B
    return (a * j + d * m + g * p, a * k + d * n + g * q, a * l + d * o + g * r,
            b * j + e * m + h * p, b * k + e * n + h * q, b * l + e * o + h * r,
            c * j + f * m + i * p, c * k + f * n + i * q, c * l + f * o + i * r)


def log_so3(R):
    """Principal-branch rotation vector of R, with norm <= pi."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    c = 0.5 * (r00 + r11 + r22 - 1.0)            # min(1, max(-1, c))
    theta = math.acos((c if c < 1.0 else 1.0) if c > -1.0 else -1.0)
    # Half the vee of the skew part: sin(theta) * axis.
    w = (0.5 * (r21 - r12), 0.5 * (r02 - r20), 0.5 * (r10 - r01))
    if theta < _SMALL_ANGLE:
        return w
    if math.pi - theta > _NEAR_PI:
        s = theta / math.sin(theta)
        return s * w[0], s * w[1], s * w[2]
    # Near pi the skew part vanishes; recover the axis from column k of the
    # symmetric part (R + I) / 2, k the largest diagonal element, and sharpen
    # theta from |w| = sin(theta).
    diag = (r00, r11, r22)
    k = diag.index(max(diag))
    col = [0.5 * R[3 * j + k] for j in range(3)]
    col[k] = 0.5 * (diag[k] + 1.0)
    root = math.sqrt(col[k])
    axis = [c / root for c in col]
    n = math.sqrt(axis[0] * axis[0] + axis[1] * axis[1] + axis[2] * axis[2])
    axis = [c / n for c in axis]
    s = math.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    if s > 1e-12:
        theta = math.pi - math.asin(min(1.0, s))
        if w[0] * axis[0] + w[1] * axis[1] + w[2] * axis[2] < 0.0:
            theta = -theta
    else:
        # Exactly pi: resolve the +/- axis tie deterministically.
        first = next((c for c in axis if abs(c) > 1e-12), 1.0)
        if first < 0.0:
            theta = -theta
    return theta * axis[0], theta * axis[1], theta * axis[2]


def rotation_error(R, Rd):
    """Log-map attitude error (Log(R^T Rd))^vee; zero iff R == Rd."""
    return log_so3(mat_t_mul(R, Rd))


def pitch_of(R):
    """Z-Y-X Euler pitch in [-pi/2, pi/2]; used for logging only."""
    s = -R[6]                                    # min(1, max(-1, s))
    return math.asin((s if s < 1.0 else 1.0) if s > -1.0 else -1.0)


def _jacobian_series(phi, x, c1, c2):
    """(I + c1 K + c2 K^2) x with K = hat(phi)."""
    u = cross(phi, x)
    w = cross(phi, u)
    return (x[0] + c1 * u[0] + c2 * w[0], x[1] + c1 * u[1] + c2 * w[1],
            x[2] + c1 * u[2] + c2 * w[2])


def right_jacobian(phi, x):
    """J_r(phi) x: the body rate of exp(phi(t)) when dphi/dt = x."""
    theta2 = phi[0] * phi[0] + phi[1] * phi[1] + phi[2] * phi[2]
    if theta2 < _SMALL_ANGLE:
        return _jacobian_series(phi, x, -0.5, 1.0 / 6.0)
    theta = math.sqrt(theta2)
    return _jacobian_series(phi, x, -(1.0 - math.cos(theta)) / theta2,
                            (theta - math.sin(theta)) / (theta2 * theta))


def renormalize(R):
    """Project a near-orthonormal 9-tuple onto SO(3): R (1.5 I - 0.5 R^T R)."""
    a, b, c, d, e, f, g, h, i = mat_t_mul(R, R)
    # 0.0 - x off the diagonal, as 1.5 * 0.0 - x was: -x flips a zero's sign.
    return mat_mul(R, (1.5 - 0.5 * a, 0.0 - 0.5 * b, 0.0 - 0.5 * c,
                       0.0 - 0.5 * d, 1.5 - 0.5 * e, 0.0 - 0.5 * f,
                       0.0 - 0.5 * g, 0.0 - 0.5 * h, 1.5 - 0.5 * i))


def quat_of(R):
    """Unit quaternion (w, x, y, z) of a rotation matrix, w >= 0."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    tr = r00 + r11 + r22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = [0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
    else:
        diag = (r00, r11, r22)
        k = diag.index(max(diag))
        i, j = (k + 1) % 3, (k + 2) % 3
        s = math.sqrt(1.0 + diag[k] - diag[i] - diag[j]) * 2.0
        q = [0.0] * 4
        q[0] = (R[3 * j + i] - R[3 * i + j]) / s
        q[1 + k] = 0.25 * s
        q[1 + i] = (R[3 * i + k] + R[3 * k + i]) / s
        q[1 + j] = (R[3 * j + k] + R[3 * k + j]) / s
    if q[0] < 0.0:
        q = [-c for c in q]
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return q[0] / n, q[1] / n, q[2] / n, q[3] / n


def rot_y(a):
    c, s = math.cos(a), math.sin(a)
    return (c, 0.0, s, 0.0, 1.0, 0.0, -s, 0.0, c)
