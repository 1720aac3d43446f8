"""Control allocation for a four-rotor tiltrotor.

A desired body wrench is decomposed into per-rotor vertical and lateral
thrust components, solved by a min-norm pseudo-inverse, and recovered as
(thrust, tilt angle) pairs, one rotor at a time from its own two rows of
the pseudo-inverse.  The forward map, from thrusts and tilts back to the body
wrench, lives with the dynamics in `vehicle.forward_wrench`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import B3

# Below this thrust the recovered tilt angle is held at its previous value.
THRUST_EPS = 1e-6


@dataclass
class RotorGeometry:
    """Rotor positions, spin signs, and drag-to-thrust ratio.

    Each rotor tilts about its arm.  `A` is the 6x2n map from
    [T cos(nu); T sin(nu)] to [f; tau], checked to have full rank.  The tick
    reads plain floats, a (vertical, lateral) pair of 6-tuples per rotor:
    `pinv_rows` from A's pseudo-inverse, `columns` from A.  A geometry that
    cannot span a full 6-DOF wrench raises ValueError.
    """
    positions: np.ndarray        # (4, 3) m
    spin_signs: np.ndarray       # (4,) in {+1, -1}
    k_tau: float                 # m

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.spin_signs = np.asarray(self.spin_signs, dtype=float)
        norms = np.linalg.norm(self.positions, axis=1)
        if np.any(norms < 1e-9):
            raise ValueError("rotor positions must be nonzero")
        lateral = np.cross(B3, self.positions / norms[:, None])
        n = self.n_rotors = len(self.positions)
        A = np.zeros((6, 2 * n))
        for i in range(n):
            r = self.positions[i]
            t = lateral[i]
            sk = self.spin_signs[i] * self.k_tau
            A[:3, i] = B3
            A[3:, i] = np.cross(r, B3) + sk * B3
            A[:3, n + i] = t
            A[3:, n + i] = np.cross(r, t) + sk * t
        if np.linalg.matrix_rank(A, tol=1e-9) < 6:
            raise ValueError("rotor geometry is rank deficient")
        self.A = A

        def per_rotor(M):            # rows i and n + i of M for rotor i
            return tuple(zip(map(tuple, M[:n]), map(tuple, M[n:])))
        self.columns = per_rotor(A.T.tolist())
        self.pinv_rows = per_rotor(np.linalg.pinv(A).tolist())

    @classmethod
    def x_config(cls, arm_length, k_tau):
        """Symmetric X configuration with alternating spin signs."""
        angles = np.deg2rad([45.0, 135.0, 225.0, 315.0])
        positions = arm_length * np.stack(
            [np.cos(angles), np.sin(angles), np.zeros(4)], axis=1)
        return cls(positions, np.array([1.0, -1.0, 1.0, -1.0]), k_tau)


def allocate(w, geometry, T_max, prev_tilt=None):
    """Min-norm actuator command realizing the body wrench w = (f, tau),
    clamped to [0, T_max].  Returns (thrust, tilt, saturated): thrusts (N)
    and tilt angles (rad), a float per rotor each, and whether some rotor
    asked for more than T_max."""
    (f0, f1, f2), (t0, t1, t2) = w
    if prev_tilt is None:
        prev_tilt = (0.0,) * geometry.n_rotors
    thrust, tilt, saturated = [], [], False
    for ((a, b, c, d, e, g), (p, q, r, s, u, v)), prev in zip(
            geometry.pinv_rows, prev_tilt):
        xv = a * f0 + b * f1 + c * f2 + d * t0 + e * t1 + g * t2
        xl = p * f0 + q * f1 + r * f2 + s * t0 + u * t1 + v * t2
        T = math.hypot(xv, xl)
        tilt.append(prev if T < THRUST_EPS else math.atan2(xl, xv))
        if T > T_max:                                   # min(T, T_max)
            T, saturated = T_max, True
        thrust.append(T)
    return tuple(thrust), tuple(tilt), saturated
