"""Control allocation for a four-rotor tiltrotor.

A desired body wrench is decomposed into per-rotor vertical and lateral
thrust components, solved by a min-norm right inverse, and recovered as
(thrust, tilt angle) pairs, one rotor at a time from its own two rows of
the right inverse.  The forward map, from thrusts and tilts back to the body
wrench, lives with the dynamics in `vehicle.forward_wrench`.  The right inverse
P = Q^T L^-1 is plain-float set-up, no LAPACK: Gram-Schmidt run twice gives
A = L Q, Q's rows orthonormal.  A counts as full rank when max|A P - I| is at
most 1e-9 in any summation order, its rounding bound added.
"""

import math

import numpy as np

from .geometry import B3, cross, floats

# Below this thrust the recovered tilt angle is held at its previous value.
THRUST_EPS = 1e-6


def allocation_matrix(positions, spin_signs, k_tau):
    """The 6x2n map A from [T cos(nu); T sin(nu)] to [f; tau] of n rotors
    at `positions` (m, body frame), each tilting about its arm, with spin
    signs +-1 and drag-to-thrust ratio `k_tau` (m).  A zero rotor position
    raises ValueError; `right_inverse` checks the rank."""
    vertical, lateral = [], []
    for r, sign in zip(map(floats, positions), spin_signs):
        norm, sk = math.hypot(*r), sign * k_tau
        if norm < 1e-9:
            raise ValueError("rotor positions must be nonzero")
        t = cross(B3, [x / norm for x in r])
        vertical.append(B3 + tuple(a + sk * b
                                   for a, b in zip(cross(r, B3), B3)))
        lateral.append(t + tuple(a + sk * b for a, b in zip(cross(r, t), t)))
    return np.array(vertical + lateral).T


def x_config(arm_length, k_tau):
    """A of the symmetric X configuration with alternating spin signs."""
    positions = [(arm_length * math.cos(a), arm_length * math.sin(a), 0.0)
                 for a in map(math.radians, (45.0, 135.0, 225.0, 315.0))]
    return allocation_matrix(positions, (1.0, -1.0, 1.0, -1.0), k_tau)


def _dot(u, v):
    s = 0.0                                     # summed left to right
    for x, y in zip(u, v):
        s += x * y
    return s


def right_inverse(A):
    """The 2n rows of A's min-norm right inverse P = Q^T M: Gram-Schmidt, run
    twice on A's rows beside I's, gives Q = M A and M = L^-1.  Raises
    ValueError, A being rank deficient, unless max|A P - I| <= 1e-9 holds."""
    rows, two_n, W = A.tolist(), A.shape[1], []
    for k, a in enumerate(rows):
        v = a + [float(i == k) for i in range(len(rows))]     # [a_k | e_k]
        for _ in range(2):
            for w in W:
                c = _dot(w[:two_n], v)
                v = [x - c * y for x, y in zip(v, w)]
        norm = math.hypot(*v[:two_n]) or math.nan     # zero fails the check
        W.append([x / norm for x in v])                       # [q_k | m_k]
    cols = list(zip(*W))
    P = [tuple(_dot(q, m) for m in cols[two_n:]) for q in cols[:two_n]]
    # Each residual, plus a bound on its own rounding, is at most 1e-9, so
    # any summation order finds max|A P - I| <= 1e-9.
    if not all(abs(_dot(a, p) - (i == j))
               + 4e-15 * _dot(map(abs, a), map(abs, p)) <= 1e-9
               for i, a in enumerate(rows) for j, p in enumerate(zip(*P))):
        raise ValueError("rotor geometry is rank deficient")
    return P


def rotor_rows(A):
    """The rotors as the tick reads them, `(pinv_rows, columns)`: rotor i's
    (vertical, lateral) pair of 6-tuples, rows i and n + i of A's
    `right_inverse` and of A's transpose.  Raises ValueError unless the
    inverse meets max|A P - I| <= 1e-9, checked in plain floats with its
    rounding bound added, so that any summation order meets it too."""
    n = A.shape[1] // 2
    return tuple(tuple(zip(M[:n], M[n:]))
                 for M in (right_inverse(A), tuple(map(tuple, A.T.tolist()))))


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
