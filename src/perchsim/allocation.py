"""Control allocation for a four-rotor tiltrotor.

A desired body wrench is decomposed into per-rotor vertical and lateral
thrust components, solved by a min-norm pseudo-inverse, and recovered as
(thrust, tilt angle) pairs.  forward_wrench is the exact inverse map used
both by the dynamics and as the round-trip test oracle's counterpart.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import B3

# Below this thrust the recovered tilt angle is held at its previous value.
THRUST_EPS = 1e-6


class AllocationError(ValueError):
    """Raised for rotor geometries that cannot span a full 6-DOF wrench."""


@dataclass
class Wrench:
    """Body-frame force (N) and torque (N*m)."""
    f: np.ndarray
    tau: np.ndarray

    @staticmethod
    def zero():
        return Wrench(np.zeros(3), np.zeros(3))

    def as_vector(self):
        return np.concatenate([self.f, self.tau])


@dataclass
class RotorGeometry:
    """Rotor positions, spin signs, and drag-to-thrust ratio.

    Each rotor tilts about its arm.  `A` is the 6x2n map from
    [T cos(nu); T sin(nu)] to [f; tau], checked to have full rank; `A_pinv`
    is its pseudo-inverse.
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
        n = self.n_rotors
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
        self.A_pinv = np.linalg.pinv(A)

    @property
    def n_rotors(self):
        return len(self.positions)

    @classmethod
    def x_config(cls, arm_length=0.13, k_tau=0.016):
        """Symmetric X configuration with alternating spin signs."""
        angles = np.deg2rad([45.0, 135.0, 225.0, 315.0])
        positions = arm_length * np.stack(
            [np.cos(angles), np.sin(angles), np.zeros(4)], axis=1)
        return cls(positions, np.array([1.0, -1.0, 1.0, -1.0]), k_tau)


@dataclass
class ActuatorCommand:
    """Commanded thrusts (N), tilt angles (rad), perch-servo target, flags."""
    thrust: np.ndarray
    tilt: np.ndarray
    eta_d: float = 0.0
    saturated: np.ndarray = None

    def __post_init__(self):
        if self.saturated is None:
            self.saturated = np.zeros(len(self.thrust), dtype=bool)


def allocate(w, geometry, T_max, prev_tilt=None):
    """Min-norm actuator command realizing wrench w, clamped to [0, T_max]."""
    n = geometry.n_rotors
    x = geometry.A_pinv @ w.as_vector()
    xv, xl = x[:n], x[n:]
    thrust = np.hypot(xv, xl)
    tilt = np.arctan2(xl, xv)
    idle = thrust < THRUST_EPS
    tilt[idle] = 0.0 if prev_tilt is None else prev_tilt[idle]
    saturated = thrust > T_max
    thrust[saturated] = T_max
    return ActuatorCommand(thrust, tilt, saturated=saturated)


def forward_wrench(thrust, tilt, geometry):
    """Exact body wrench produced by the given thrusts and tilt angles."""
    w = geometry.A @ np.concatenate(
        [thrust * np.cos(tilt), thrust * np.sin(tilt)])
    return Wrench(w[:3], w[3:])
