"""Rigid-body tiltrotor dynamics with actuator lag and magnetic wall contact.

The vehicle is a fully actuated rigid body.  While attached to the wall the
pose is rigidly locked (integrate returns the state unchanged) until the
perch servo peels the magnets off tangentially or the normal pull exceeds the
magnet capacity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .allocation import RotorGeometry, forward_wrench
from .geometry import B3, exp_so3, mat_mul, renormalize


class NumericalDivergenceError(RuntimeError):
    """Raised when the integrator produces a non-finite state."""


@dataclass
class VehicleParams:
    m: float = 1.65                  # kg
    Jb: np.ndarray = None            # kg m^2
    g: float = 9.81                  # m/s^2
    rotors: RotorGeometry = None
    T_max: float = 8.0               # N per rotor
    tau_rotor: float = 0.05          # s, thrust first-order lag
    tilt_rate_max: float = 8.0       # rad/s
    t_ps: float = 0.05               # s, perch-servo full travel time

    def __post_init__(self):
        if self.Jb is None:
            self.Jb = np.diag([8e-3, 8e-3, 1.4e-2])
        if self.rotors is None:
            self.rotors = RotorGeometry.x_config()
        if self.m <= 0 or self.T_max <= 0 or self.tau_rotor <= 0:
            raise ValueError("mass, T_max and tau_rotor must be positive")
        self.Jb = np.asarray(self.Jb, dtype=float)
        self.Jb_inv = np.linalg.inv(self.Jb)


@dataclass
class VehicleState:
    p: np.ndarray                    # world position, m
    v: np.ndarray                    # world velocity, m/s
    R: np.ndarray                    # body-to-world rotation
    omega: np.ndarray                # body angular velocity, rad/s

    @staticmethod
    def at_rest(p, R=None):
        return VehicleState(np.asarray(p, dtype=float), np.zeros(3),
                            np.eye(3) if R is None else np.asarray(R, float),
                            np.zeros(3))


@dataclass
class ActuatorState:
    thrust: np.ndarray               # actual thrusts, N
    tilt: np.ndarray                 # actual tilt angles, rad
    eta: float = 0.0                 # perch servo, 0 = unperch .. 1 = perch

    @staticmethod
    def at_rest(n_rotors=4):
        return ActuatorState(np.zeros(n_rotors), np.zeros(n_rotors), 0.0)


@dataclass
class Disturbances:
    delta_f: np.ndarray              # world-frame force, N
    delta_r: np.ndarray              # body-frame angular acceleration, rad/s^2

    @staticmethod
    def none():
        return Disturbances(np.zeros(3), np.zeros(3))


@dataclass
class WallModel:
    point: np.ndarray                # a point on the wall plane, m
    normal: np.ndarray               # outward unit normal into free space
    F_mag: float = 40.0              # magnet pull capacity, N
    d_mag: float = 0.05              # near-field range, m
    eps_attach: float = 0.001        # attach gap tolerance, m
    c_m: np.ndarray = None           # magnet face offset in body frame, m

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float)
        self.normal = np.asarray(self.normal, dtype=float)
        n = np.linalg.norm(self.normal)
        if abs(n - 1.0) > 1e-9:
            self.normal = self.normal / n
        if self.F_mag <= 0 or self.d_mag <= 0:
            raise ValueError("F_mag and d_mag must be positive")
        if self.c_m is None:
            self.c_m = np.array([0.0, 0.0, -0.05])
        self.c_m = np.asarray(self.c_m, dtype=float)

    def gap_of(self, state):
        """Signed magnet-face-to-plane distance (positive in free space)."""
        face = state.p + state.R @ self.c_m
        return float(self.normal @ (face - self.point))


@dataclass
class ContactState:
    attached: bool = False
    gap: float = float("inf")
    lambda_true: float = 0.0         # ground-truth normal force, compression > 0
    anchor_p: np.ndarray = None
    anchor_R: np.ndarray = None
    nearfield_force: np.ndarray = None  # world-frame magnet attraction, N

    def __post_init__(self):
        if self.nearfield_force is None:
            self.nearfield_force = np.zeros(3)


def step_actuators(act, cmd, dt, params):
    """First-order thrust lag, tilt rate limit, perch-servo travel."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    thrust = act.thrust + (cmd.thrust - act.thrust) * (dt / params.tau_rotor)
    np.clip(thrust, 0.0, params.T_max, out=thrust)
    dmax = params.tilt_rate_max * dt
    tilt = act.tilt + np.clip(cmd.tilt - act.tilt, -dmax, dmax)
    step = dt / params.t_ps
    eta = act.eta + min(step, max(-step, cmd.eta_d - act.eta))
    eta = min(1.0, max(0.0, eta))
    return ActuatorState(thrust, tilt, eta)


def update_contact(state, act, applied_world_force, contact, wall, params):
    """Attach/release logic, ground-truth contact force, near-field magnet pull."""
    gap = wall.gap_of(state)
    n = wall.normal
    if contact.attached:
        eta_hold = 1.0 if act.eta >= 0.95 else act.eta
        if act.eta <= 0.05:
            # Perch servo finished its unperch travel: tangential peel.
            return ContactState(False, gap, 0.0)
        # Net pull away from the wall; negative when pressing into it.
        pull = float(n @ (applied_world_force - params.m * params.g * B3))
        if pull > wall.F_mag * eta_hold:
            return ContactState(False, gap, 0.0)
        return ContactState(True, 0.0, wall.F_mag * eta_hold - pull,
                            anchor_p=contact.anchor_p,
                            anchor_R=contact.anchor_R)
    # Detached.
    if act.eta >= 0.95 and gap <= wall.eps_attach:
        return ContactState(True, 0.0, wall.F_mag,
                            anchor_p=state.p.copy(),
                            anchor_R=state.R.copy())
    out = ContactState(False, gap, 0.0)
    if act.eta >= 0.95 and 0.0 < gap < wall.d_mag:
        out.nearfield_force = -wall.F_mag * (1.0 - gap / wall.d_mag) * n
    return out


def derivative(R, w, load, body):
    """(dv, domega) of the free body at attitude R and body rate w.

    R is a row-major 9-tuple, w three floats.  `load` is (body force, body
    torque, world near-field force, world disturbance force, body disturbance
    acceleration), each three floats; `body` is (m, g, Jb, Jb_inv) with the
    inertia and its inverse as row-major 9-tuples.  The position and rotation
    derivatives are v and w themselves.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    wx, wy, wz = w
    (fx, fy, fz), (tx, ty, tz), (nx, ny, nz), (dx, dy, dz), dr = load
    m, g, (j00, j01, j02, j10, j11, j12, j20, j21, j22), Ji = body
    dv = ((r00 * fx + r01 * fy + r02 * fz + nx + dx) / m,
          (r10 * fx + r11 * fy + r12 * fz + ny + dy) / m,
          (r20 * fx + r21 * fy + r22 * fz + nz + dz) / m - g)
    jx = j00 * wx + j01 * wy + j02 * wz
    jy = j10 * wx + j11 * wy + j12 * wz
    jz = j20 * wx + j21 * wy + j22 * wz
    ux = jy * wz - jz * wy + tx
    uy = jz * wx - jx * wz + ty
    uz = jx * wy - jy * wx + tz
    return dv, (Ji[0] * ux + Ji[1] * uy + Ji[2] * uz + dr[0],
                Ji[3] * ux + Ji[4] * uy + Ji[5] * uz + dr[1],
                Ji[6] * ux + Ji[7] * uy + Ji[8] * uz + dr[2])


def _axpy(x, h, y):
    """x + h * y on three floats."""
    return x[0] + h * y[0], x[1] + h * y[1], x[2] + h * y[2]


def _rk4_sum(k1, k2, k3, k4):
    """k1 + 2 k2 + 2 k3 + k4 on three floats, summed left to right."""
    return [a + 2.0 * b + 2.0 * c + d for a, b, c, d in zip(k1, k2, k3, k4)]


def integrate(state, act, dist, contact, params, dt):
    """One RK4 step; rotation advanced on the exponential map, renormalized.

    The stages run on plain floats (see `derivative`); only the result is
    built as numpy arrays.
    """
    if not 0.0 < dt <= 0.01:
        raise ValueError("dt must lie in (0, 0.01]")
    if contact.attached:
        return state
    wrench = forward_wrench(act.thrust, act.tilt, params.rotors)
    load = (wrench.f.tolist(), wrench.tau.tolist(),
            contact.nearfield_force.tolist(), dist.delta_f.tolist(),
            dist.delta_r.tolist())
    body = (params.m, params.g, params.Jb.ravel().tolist(),
            params.Jb_inv.ravel().tolist())
    # Stage i has derivative (v_i, a_i, w_i, b_i); no stage reads position.
    R = state.R.ravel().tolist()
    v1, w1 = state.v.tolist(), state.omega.tolist()
    h = 0.5 * dt
    a1, b1 = derivative(R, w1, load, body)
    v2, w2 = _axpy(v1, h, a1), _axpy(w1, h, b1)
    a2, b2 = derivative(mat_mul(R, exp_so3(h * w1[0], h * w1[1], h * w1[2])),
                        w2, load, body)
    v3, w3 = _axpy(v1, h, a2), _axpy(w1, h, b2)
    a3, b3 = derivative(mat_mul(R, exp_so3(h * w2[0], h * w2[1], h * w2[2])),
                        w3, load, body)
    v4, w4 = _axpy(v1, dt, a3), _axpy(w1, dt, b3)
    a4, b4 = derivative(mat_mul(R, exp_so3(dt * w3[0], dt * w3[1],
                                           dt * w3[2])),
                        w4, load, body)

    s = dt / 6.0
    dw = _rk4_sum(w1, w2, w3, w4)
    p_new = _axpy(state.p.tolist(), s, _rk4_sum(v1, v2, v3, v4))
    v_new = _axpy(v1, s, _rk4_sum(a1, a2, a3, a4))
    R_new = renormalize(mat_mul(R, exp_so3(s * dw[0], s * dw[1], s * dw[2])))
    w_new = _axpy(w1, s, _rk4_sum(b1, b2, b3, b4))

    if not all(map(math.isfinite, p_new + v_new + R_new + w_new)):
        raise NumericalDivergenceError(
            "non-finite state after integration step")
    return VehicleState(np.array(p_new), np.array(v_new),
                        np.reshape(R_new, (3, 3)), np.array(w_new))
