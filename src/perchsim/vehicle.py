"""Rigid-body tiltrotor dynamics with actuator lag and magnetic wall contact.

The vehicle is a fully actuated rigid body.  While attached to the wall the
pose is rigidly locked (integrate returns the state unchanged) until the
perch servo peels the magnets off tangentially or the normal pull exceeds the
magnet capacity.
"""

import math
from dataclasses import dataclass

import numpy as np

# Unused here, but perfbench's tracer wraps vehicle.forward_wrench by name.
from .allocation import RotorGeometry, forward_wrench  # noqa: F401
from .geometry import EYE, ZERO3, exp_so3, floats, mat_mul, mat_vec, \
    renormalize

ETA_ENGAGED = 0.95       # perch servo at or above: magnets hold, may attach
ETA_OPEN = 0.05          # perch servo at or below: magnets peeled off


class NumericalDivergenceError(RuntimeError):
    """Raised when the integrator produces a non-finite state."""


@dataclass
class VehicleParams:
    m: float                         # kg
    Jb: tuple                        # kg m^2, row-major 9-tuple
    g: float                         # m/s^2
    rotors: RotorGeometry
    T_max: float                     # N per rotor
    tau_rotor: float                 # s, thrust first-order lag
    tilt_rate_max: float             # rad/s
    t_ps: float                      # s, perch-servo full travel time

    def __post_init__(self):
        J = np.reshape(np.asarray(self.Jb, dtype=float), (3, 3))
        self.Jb = tuple(J.ravel().tolist())
        self.Jb_inv = tuple(np.linalg.inv(J).ravel().tolist())


@dataclass
class VehicleState:
    p: tuple                         # world position, m
    v: tuple                         # world velocity, m/s
    R: tuple                         # body-to-world rotation, row-major
    omega: tuple                     # body angular velocity, rad/s

    @staticmethod
    def at_rest(p, R=EYE):
        return VehicleState(floats(p), ZERO3, floats(R), ZERO3)


@dataclass
class ActuatorState:
    thrust: tuple                    # actual thrusts, N
    tilt: tuple                      # actual tilt angles, rad
    eta: float = 0.0                 # perch servo, 0 = unperch .. 1 = perch

    @staticmethod
    def at_rest(n_rotors=4):
        return ActuatorState((0.0,) * n_rotors, (0.0,) * n_rotors, 0.0)


@dataclass
class Disturbances:
    delta_f: tuple = ZERO3           # world-frame force, N
    delta_r: tuple = ZERO3           # body-frame angular acceleration, rad/s^2


@dataclass
class WallModel:
    point: tuple                     # a point on the wall plane, m
    normal: tuple                    # outward unit normal into free space
    F_mag: float                     # magnet pull capacity, N
    d_mag: float                     # near-field range, m
    eps_attach: float                # attach gap tolerance, m
    c_m: tuple                       # magnet face offset in body frame, m

    def __post_init__(self):
        normal = np.asarray(self.normal, dtype=float)
        n = np.linalg.norm(normal)
        if abs(n - 1.0) > 1e-9:
            normal = normal / n
        self.point = floats(self.point)
        self.normal = floats(normal)
        self.c_m = floats(self.c_m)

    def gap_of(self, state):
        """Signed magnet-face-to-plane distance (positive in free space)."""
        (px, py, pz), (qx, qy, qz), (nx, ny, nz) = \
            state.p, self.point, self.normal
        fx, fy, fz = mat_vec(state.R, self.c_m)
        return nx * (px + fx - qx) + ny * (py + fy - qy) + nz * (pz + fz - qz)


@dataclass
class ContactState:
    attached: bool = False
    gap: float = float("inf")
    lambda_true: float = 0.0         # ground-truth normal force, compression > 0
    anchor_p: tuple = None
    anchor_R: tuple = None
    nearfield_force: tuple = ZERO3   # world-frame magnet attraction, N


def step_actuators(act, cmd, dt, params):
    """First-order thrust lag, tilt rate limit, perch-servo travel."""
    k, T_max = dt / params.tau_rotor, params.T_max
    # The clamped value goes first in max/min, so a NaN passes through.
    thrust = tuple([min(max(a + (c - a) * k, 0.0), T_max)
                    for a, c in zip(act.thrust, cmd.thrust)])
    dmax = params.tilt_rate_max * dt
    tilt = tuple([a + min(max(c - a, -dmax), dmax)
                  for a, c in zip(act.tilt, cmd.tilt)])
    step = dt / params.t_ps
    eta = act.eta + min(step, max(-step, cmd.eta_d - act.eta))
    eta = min(1.0, max(0.0, eta))
    return ActuatorState(thrust, tilt, eta)


def update_contact(state, act, applied_world_force, contact, wall, params):
    """Attach/release logic, ground-truth contact force, near-field magnet pull."""
    gap = wall.gap_of(state)
    nx, ny, nz = wall.normal
    if contact.attached:
        eta_hold = 1.0 if act.eta >= ETA_ENGAGED else act.eta
        if act.eta <= ETA_OPEN:
            # Perch servo finished its unperch travel: tangential peel.
            return ContactState(False, gap, 0.0)
        # Net pull away from the wall; negative when pressing into it.
        fx, fy, fz = applied_world_force
        pull = nx * fx + ny * fy + nz * (fz - params.m * params.g)
        if pull > wall.F_mag * eta_hold:
            return ContactState(False, gap, 0.0)
        return ContactState(True, 0.0, wall.F_mag * eta_hold - pull,
                            anchor_p=contact.anchor_p,
                            anchor_R=contact.anchor_R)
    # Detached.
    if act.eta >= ETA_ENGAGED and gap <= wall.eps_attach:
        return ContactState(True, 0.0, wall.F_mag,
                            anchor_p=state.p, anchor_R=state.R)
    out = ContactState(False, gap, 0.0)
    if act.eta >= ETA_ENGAGED and 0.0 < gap < wall.d_mag:
        s = -wall.F_mag * (1.0 - gap / wall.d_mag)
        out.nearfield_force = (s * nx, s * ny, s * nz)
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


def integrate(state, wrench, dist, contact, params, dt):
    """One RK4 step under the body-frame rotor `wrench` (`forward_wrench` of
    the actuator state); rotation advanced on the exponential map,
    renormalized.  The stages run on plain floats (see `derivative`).
    """
    if contact.attached:
        return state
    load = (wrench.f, wrench.tau, contact.nearfield_force, dist.delta_f,
            dist.delta_r)
    body = (params.m, params.g, params.Jb, params.Jb_inv)
    # Stage i has derivative (v_i, a_i, w_i, b_i); no stage reads position.
    R, v1, w1 = state.R, state.v, state.omega
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
    p_new = _axpy(state.p, s, _rk4_sum(v1, v2, v3, v4))
    v_new = _axpy(v1, s, _rk4_sum(a1, a2, a3, a4))
    R_new = renormalize(mat_mul(R, exp_so3(s * dw[0], s * dw[1], s * dw[2])))
    w_new = _axpy(w1, s, _rk4_sum(b1, b2, b3, b4))

    if not all(map(math.isfinite, p_new + v_new + R_new + w_new)):
        raise NumericalDivergenceError(
            "non-finite state after integration step")
    return VehicleState(p_new, v_new, R_new, w_new)
