"""Control allocation for a four-rotor tiltrotor.

A desired body wrench is decomposed into per-rotor vertical and lateral
thrust components, solved by a min-norm pseudo-inverse, and recovered as
(thrust, tilt angle) pairs.  forward_wrench is the exact inverse map used
both by the dynamics and as the round-trip test oracle's counterpart.
"""

from dataclasses import dataclass, field

import numpy as np

Z_AXIS = np.array([0.0, 0.0, 1.0])

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
    """Rotor positions, tilt axes, spin signs, and drag-to-thrust ratio."""
    positions: np.ndarray        # (4, 3) m
    spin_signs: np.ndarray       # (4,) in {+1, -1}
    k_tau: float                 # m
    _alloc: np.ndarray = field(default=None, repr=False, compare=False)
    _pinv: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.spin_signs = np.asarray(self.spin_signs, dtype=float)
        norms = np.linalg.norm(self.positions, axis=1)
        if np.any(norms < 1e-9):
            raise AllocationError("rotor positions must be nonzero")
        self.tilt_axes = self.positions / norms[:, None]
        self.lateral_dirs = np.cross(Z_AXIS, self.tilt_axes)

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

    def wrench_map(self):
        """6x2n map from decomposed components to wrench, no rank check."""
        if self._alloc is None:
            self._alloc = _component_map(self)
        return self._alloc

    def allocation_matrix(self):
        """6x2n map from [T cos(nu); T sin(nu)] to [f; tau], rank-checked."""
        A = self.wrench_map()
        if np.linalg.matrix_rank(A, tol=1e-9) < 6:
            raise AllocationError("rotor geometry is rank deficient")
        return A

    def allocation_pinv(self):
        if self._pinv is None:
            self._pinv = np.linalg.pinv(self.allocation_matrix())
        return self._pinv


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


def _component_map(geometry):
    n = geometry.n_rotors
    A = np.zeros((6, 2 * n))
    for i in range(n):
        r = geometry.positions[i]
        t = geometry.lateral_dirs[i]
        s = geometry.spin_signs[i]
        k = geometry.k_tau
        A[:3, i] = Z_AXIS
        A[3:, i] = np.cross(r, Z_AXIS) + s * k * Z_AXIS
        A[:3, n + i] = t
        A[3:, n + i] = np.cross(r, t) + s * k * t
    return A


def allocate(w, geometry, T_max, prev_tilt=None):
    """Min-norm actuator command realizing wrench w, clamped to [0, T_max]."""
    n = geometry.n_rotors
    x = geometry.allocation_pinv() @ w.as_vector()
    xv, xl = x[:n], x[n:]
    thrust = np.hypot(xv, xl)
    tilt = np.empty(n)
    saturated = np.zeros(n, dtype=bool)
    for i in range(n):
        if thrust[i] < THRUST_EPS:
            tilt[i] = prev_tilt[i] if prev_tilt is not None else 0.0
        else:
            tilt[i] = np.arctan2(xl[i], xv[i])
        if thrust[i] > T_max:
            thrust[i] = T_max
            saturated[i] = True
    return ActuatorCommand(thrust, tilt, saturated=saturated)


def forward_wrench(thrust, tilt, geometry):
    """Exact body wrench produced by the given thrusts and tilt angles."""
    w = geometry.wrench_map() @ np.concatenate(
        [thrust * np.cos(tilt), thrust * np.sin(tilt)])
    return Wrench(w[:3], w[3:])
