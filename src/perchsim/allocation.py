"""Control allocation for a four-rotor tiltrotor.

A desired body wrench is decomposed into per-rotor vertical and lateral
thrust components, solved by a min-norm pseudo-inverse, and recovered as
(thrust, tilt angle) pairs.  The forward map, from thrusts and tilts back to
the body wrench, lives with the dynamics in `vehicle.forward_wrench`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import B3, ZERO3

# Below this thrust the recovered tilt angle is held at its previous value.
THRUST_EPS = 1e-6


class AllocationError(ValueError):
    """Raised for rotor geometries that cannot span a full 6-DOF wrench."""


@dataclass
class Wrench:
    """Body-frame force (N) and torque (N*m), three floats each."""
    f: tuple
    tau: tuple

    @staticmethod
    def zero():
        return Wrench(ZERO3, ZERO3)


@dataclass
class RotorGeometry:
    """Rotor positions, spin signs, and drag-to-thrust ratio.

    Each rotor tilts about its arm.  `A` is the 6x2n map from
    [T cos(nu); T sin(nu)] to [f; tau], checked to have full rank.  The tick
    reads plain floats: `A_pinv`, its pseudo-inverse as 2n row tuples, and
    `columns`, A's vertical and lateral columns as one 6-tuple per rotor.
    """
    positions: np.ndarray        # (4, 3) m
    spin_signs: np.ndarray       # (4,) in {+1, -1}
    k_tau: float                 # m

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.spin_signs = np.asarray(self.spin_signs, dtype=float)
        norms = np.linalg.norm(self.positions, axis=1)
        if np.any(norms < 1e-9):
            raise AllocationError("rotor positions must be nonzero")
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
            raise AllocationError("rotor geometry is rank deficient")
        self.A = A
        self.columns = (tuple(map(tuple, A.T[:n].tolist())),
                        tuple(map(tuple, A.T[n:].tolist())))
        self.A_pinv = tuple(map(tuple, np.linalg.pinv(A).tolist()))

    @classmethod
    def x_config(cls, arm_length, k_tau):
        """Symmetric X configuration with alternating spin signs."""
        angles = np.deg2rad([45.0, 135.0, 225.0, 315.0])
        positions = arm_length * np.stack(
            [np.cos(angles), np.sin(angles), np.zeros(4)], axis=1)
        return cls(positions, np.array([1.0, -1.0, 1.0, -1.0]), k_tau)


@dataclass
class ActuatorCommand:
    """Commanded thrusts (N), tilt angles (rad), saturation flags."""
    thrust: tuple
    tilt: tuple
    saturated: tuple = ()            # per rotor, set by allocate


def allocate(w, geometry, T_max, prev_tilt=None):
    """Min-norm actuator command realizing wrench w, clamped to [0, T_max]."""
    n = geometry.n_rotors
    (f0, f1, f2), (t0, t1, t2) = w.f, w.tau
    x = [a * f0 + b * f1 + c * f2 + d * t0 + e * t1 + g * t2
         for a, b, c, d, e, g in geometry.A_pinv]
    if prev_tilt is None:
        prev_tilt = (0.0,) * n
    thrust, tilt, saturated = [], [], []
    for xv, xl, prev in zip(x[:n], x[n:], prev_tilt):
        T = math.hypot(xv, xl)
        thrust.append(T_max if T_max < T else T)        # min(T, T_max)
        saturated.append(T > T_max)
        tilt.append(prev if T < THRUST_EPS else math.atan2(xl, xv))
    return ActuatorCommand(tuple(thrust), tuple(tilt), tuple(saturated))
