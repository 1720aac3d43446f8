"""Control allocation for a four-rotor tiltrotor.

A desired body wrench is decomposed into per-rotor vertical and lateral
thrust components, solved by a min-norm pseudo-inverse, and recovered as
(thrust, tilt angle) pairs, one rotor at a time from its own two rows of
the pseudo-inverse.  The forward map, from thrusts and tilts back to the body
wrench, lives with the dynamics in `vehicle.forward_wrench`.
"""

import math

import numpy as np

from .geometry import B3

# Below this thrust the recovered tilt angle is held at its previous value.
THRUST_EPS = 1e-6


def allocation_matrix(positions, spin_signs, k_tau):
    """The 6x2n map A from [T cos(nu); T sin(nu)] to [f; tau] of n rotors
    at `positions` (m, body frame), each tilting about its arm, with spin
    signs +-1 and drag-to-thrust ratio `k_tau` (m).  A geometry that cannot
    span a full 6-DOF wrench raises ValueError."""
    positions = np.asarray(positions, dtype=float)
    norms = np.linalg.norm(positions, axis=1)
    if np.any(norms < 1e-9):
        raise ValueError("rotor positions must be nonzero")
    lateral = np.cross(B3, positions / norms[:, None])
    n = len(positions)
    A = np.zeros((6, 2 * n))
    for i, (r, t, sign) in enumerate(zip(positions, lateral, spin_signs)):
        sk = sign * k_tau
        A[:3, i] = B3
        A[3:, i] = np.cross(r, B3) + sk * B3
        A[:3, n + i] = t
        A[3:, n + i] = np.cross(r, t) + sk * t
    if np.linalg.matrix_rank(A, tol=1e-9) < 6:
        raise ValueError("rotor geometry is rank deficient")
    return A


def x_config(arm_length, k_tau):
    """A of the symmetric X configuration with alternating spin signs."""
    angles = np.deg2rad([45.0, 135.0, 225.0, 315.0])
    positions = arm_length * np.stack(
        [np.cos(angles), np.sin(angles), np.zeros(4)], axis=1)
    return allocation_matrix(positions, (1.0, -1.0, 1.0, -1.0), k_tau)


def rotor_rows(A):
    """The rotors as the tick reads them, `(pinv_rows, columns)`: rotor i's
    (vertical, lateral) pair of 6-tuples, rows i and n + i of A's
    pseudo-inverse and of A's transpose."""
    n = A.shape[1] // 2

    def per_rotor(M):
        return tuple(zip(map(tuple, M[:n]), map(tuple, M[n:])))
    return per_rotor(np.linalg.pinv(A).tolist()), per_rotor(A.T.tolist())


def allocate(w, rows, T_max, prev_tilt):
    """Min-norm actuator command realizing the body wrench w = (f, tau)
    through the rotors' `pinv_rows` (`rotor_rows`), clamped to [0, T_max].
    Returns (thrust, tilt, saturated): thrusts (N) and tilt angles (rad), a
    float per rotor each, and whether some rotor asked for more than T_max.
    A rotor whose thrust falls below THRUST_EPS keeps its `prev_tilt`."""
    (f0, f1, f2), (t0, t1, t2) = w
    thrust, tilt, saturated = [], [], False
    for ((a, b, c, d, e, g), (p, q, r, s, u, v)), prev in zip(
            rows, prev_tilt):
        xv = a * f0 + b * f1 + c * f2 + d * t0 + e * t1 + g * t2
        xl = p * f0 + q * f1 + r * f2 + s * t0 + u * t1 + v * t2
        T = math.hypot(xv, xl)
        tilt.append(prev if T < THRUST_EPS else math.atan2(xl, xv))
        if T > T_max:                                   # min(T, T_max)
            T, saturated = T_max, True
        thrust.append(T)
    return tuple(thrust), tuple(tilt), saturated
