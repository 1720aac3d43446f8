"""Rigid-body tiltrotor dynamics with actuator lag and magnetic wall contact.

The vehicle is a fully actuated rigid body.  While attached to the wall the
pose is rigidly locked (all derivatives zero) until the perch servo peels the
magnets off tangentially or the normal pull exceeds the magnet capacity.
"""

from dataclasses import dataclass

import numpy as np

from .allocation import RotorGeometry, forward_wrench
from .geometry import B3, exp_so3, renormalize


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

    def copy(self):
        return VehicleState(self.p.copy(), self.v.copy(),
                            self.R.copy(), self.omega.copy())


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
    released: bool = False           # tangential peel completed

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
            return ContactState(False, gap, 0.0, released=True)
        pull = max(0.0, float(n @ (applied_world_force
                                   - params.m * params.g * B3)))
        if pull > wall.F_mag * eta_hold:
            return ContactState(False, gap, 0.0, released=True)
        lam = wall.F_mag * eta_hold + float(
            n @ (params.m * params.g * B3 - applied_world_force))
        return ContactState(True, 0.0, lam,
                            anchor_p=contact.anchor_p,
                            anchor_R=contact.anchor_R)
    # Detached.
    if act.eta >= 0.95 and gap <= wall.eps_attach:
        return ContactState(True, 0.0, wall.F_mag,
                            anchor_p=state.p.copy(),
                            anchor_R=state.R.copy())
    out = ContactState(False, gap, 0.0, released=contact.released)
    if act.eta >= 0.95 and 0.0 < gap < wall.d_mag:
        out.nearfield_force = -wall.F_mag * (1.0 - gap / wall.d_mag) * n
    return out


def derivative(state, wrench, dist, contact, params):
    """(dp, dv, dphi, domega) of the rigid body; zero while attached."""
    if contact.attached:
        z = np.zeros(3)
        return z, z, z, z
    f_world = state.R @ wrench.f + contact.nearfield_force + dist.delta_f
    dv = f_world / params.m - params.g * B3
    w = state.omega
    Jw = params.Jb @ w
    gyro = np.array([Jw[1] * w[2] - Jw[2] * w[1],
                     Jw[2] * w[0] - Jw[0] * w[2],
                     Jw[0] * w[1] - Jw[1] * w[0]])
    domega = params.Jb_inv @ (gyro + wrench.tau) + dist.delta_r
    return state.v, dv, state.omega, domega


def integrate(state, act, dist, contact, wall, params, dt):
    """One RK4 step; rotation advanced on the exponential map, renormalized."""
    if not 0.0 < dt <= 0.01:
        raise ValueError("dt must lie in (0, 0.01]")
    if contact.attached:
        return state
    wrench = forward_wrench(act.thrust, act.tilt, params.rotors)

    def f(p, v, R, w):
        st = VehicleState(p, v, R, w)
        return derivative(st, wrench, dist, contact, params)

    p, v, R, w = state.p, state.v, state.R, state.omega
    k1 = f(p, v, R, w)
    h = 0.5 * dt
    k2 = f(p + h * k1[0], v + h * k1[1], R @ exp_so3(h * k1[2]), w + h * k1[3])
    k3 = f(p + h * k2[0], v + h * k2[1], R @ exp_so3(h * k2[2]), w + h * k2[3])
    k4 = f(p + dt * k3[0], v + dt * k3[1], R @ exp_so3(dt * k3[2]),
           w + dt * k3[3])

    s = dt / 6.0
    p_new = p + s * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    v_new = v + s * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    phi = s * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    R_new = renormalize(R @ exp_so3(phi))
    w_new = w + s * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])

    if not (np.isfinite(p_new).all() and np.isfinite(v_new).all()
            and np.isfinite(R_new).all() and np.isfinite(w_new).all()):
        raise NumericalDivergenceError(
            "non-finite state after integration step")
    return VehicleState(p_new, v_new, R_new, w_new)
