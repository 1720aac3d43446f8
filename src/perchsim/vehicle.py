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
    nearfield_force: tuple = ZERO3   # world-frame magnet attraction, N


def step_actuators(act, cmd, eta_d, dt, params):
    """First-order thrust lag, tilt rate limit, perch-servo travel to eta_d."""
    k, T_max = dt / params.tau_rotor, params.T_max
    hi = params.tilt_rate_max * dt
    # Each clamp is min/max as comparisons, in the builtins' argument order:
    # thrust and tilt step are min(max(x, lo), hi), so a NaN passes through;
    # the eta step is min(step, max(-step, x)), so a NaN becomes -step.
    thrust, tilt = [], []
    for a, c, b, d in zip(act.thrust, cmd.thrust, act.tilt, cmd.tilt):
        x, y = a + (c - a) * k, d - b
        x, y = (0.0 if 0.0 > x else x), (-hi if -hi > y else y)
        thrust.append(T_max if T_max < x else x)
        tilt.append(b + (hi if hi < y else y))
    step = dt / params.t_ps
    x = eta_d - act.eta
    x = x if x > -step else -step
    eta = act.eta + (x if x < step else step)
    eta = (eta if eta < 1.0 else 1.0) if eta > 0.0 else 0.0
    return ActuatorState(tuple(thrust), tuple(tilt), eta)


def update_contact(state, act, applied_world_force, contact, wall, params):
    """Attach/release logic, ground-truth contact force, near-field magnet
    pull.  Returns the new ContactState and the edge this tick crossed:
    "attach", "release" (peeled off), "forcible-detach" (pulled off), or
    None.  An attached pose is the state's own, as integrate holds it."""
    gap = wall.gap_of(state)
    nx, ny, nz = wall.normal
    if contact.attached:
        eta_hold = 1.0 if act.eta >= ETA_ENGAGED else act.eta
        if act.eta <= ETA_OPEN:
            # Perch servo finished its unperch travel: tangential peel.
            return ContactState(False, gap, 0.0), "release"
        # Net pull away from the wall; negative when pressing into it.
        fx, fy, fz = applied_world_force
        pull = nx * fx + ny * fy + nz * (fz - params.m * params.g)
        if pull > wall.F_mag * eta_hold:
            return ContactState(False, gap, 0.0), "forcible-detach"
        return ContactState(True, 0.0, wall.F_mag * eta_hold - pull), None
    # Detached.
    if act.eta >= ETA_ENGAGED and gap <= wall.eps_attach:
        return ContactState(True, 0.0, wall.F_mag), "attach"
    out = ContactState(False, gap, 0.0)
    if act.eta >= ETA_ENGAGED and 0.0 < gap < wall.d_mag:
        s = -wall.F_mag * (1.0 - gap / wall.d_mag)
        out.nearfield_force = (s * nx, s * ny, s * nz)
    return out, None


def integrate(state, wrench, dist, contact, params, dt):
    """One RK4 step under the body-frame rotor `wrench` (`forward_wrench` of
    the actuator state); rotation advanced on the exponential map,
    renormalized.  Plain floats throughout, every sum left to right.
    """
    if contact.attached:
        return state
    (fx, fy, fz), (tx, ty, tz) = wrench.f, wrench.tau
    (nx, ny, nz), (dx, dy, dz) = contact.nearfield_force, dist.delta_f
    (ex, ey, ez), m, g = dist.delta_r, params.m, params.g
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = params.Jb
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = params.Jb_inv
    R, (v1x, v1y, v1z), (w1x, w1y, w1z) = state.R, state.v, state.omega
    # Stage i is (R_i, v_i, w_i) with rates (a_i, b_i); no stage reads
    # position.  The sums s* of weight * (v, a, w, b) start at -0.0, which
    # adds to any float exactly, so they are k1 + 2 k2 + 2 k3 + k4 left to
    # right.  Each row: this stage's weight, the next stage's offset.
    r, vx, vy, vz, wx, wy, wz = R, v1x, v1y, v1z, w1x, w1y, w1z
    svx = svy = svz = sax = say = saz = -0.0
    swx = swy = swz = sbx = sby = sbz = -0.0
    h = 0.5 * dt
    for weight, c in ((1.0, h), (2.0, h), (2.0, dt), (1.0, None)):
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
        jx = j00 * wx + j01 * wy + j02 * wz
        jy = j10 * wx + j11 * wy + j12 * wz
        jz = j20 * wx + j21 * wy + j22 * wz
        ux = jy * wz - jz * wy + tx
        uy = jz * wx - jx * wz + ty
        uz = jx * wy - jy * wx + tz
        ax = (r00 * fx + r01 * fy + r02 * fz + nx + dx) / m
        ay = (r10 * fx + r11 * fy + r12 * fz + ny + dy) / m
        az = (r20 * fx + r21 * fy + r22 * fz + nz + dz) / m - g
        bx = i00 * ux + i01 * uy + i02 * uz + ex
        by = i10 * ux + i11 * uy + i12 * uz + ey
        bz = i20 * ux + i21 * uy + i22 * uz + ez
        svx, svy, svz = svx + weight * vx, svy + weight * vy, svz + weight * vz
        sax, say, saz = sax + weight * ax, say + weight * ay, saz + weight * az
        swx, swy, swz = swx + weight * wx, swy + weight * wy, swz + weight * wz
        sbx, sby, sbz = sbx + weight * bx, sby + weight * by, sbz + weight * bz
        if c is None:
            break
        r = mat_mul(R, exp_so3(c * wx, c * wy, c * wz))
        vx, vy, vz = v1x + c * ax, v1y + c * ay, v1z + c * az
        wx, wy, wz = w1x + c * bx, w1y + c * by, w1z + c * bz

    s, (px, py, pz) = dt / 6.0, state.p
    p_new = (px + s * svx, py + s * svy, pz + s * svz)
    v_new = (v1x + s * sax, v1y + s * say, v1z + s * saz)
    R_new = renormalize(mat_mul(R, exp_so3(s * swx, s * swy, s * swz)))
    w_new = (w1x + s * sbx, w1y + s * sby, w1z + s * sbz)

    if not all(map(math.isfinite, p_new + v_new + R_new + w_new)):
        raise NumericalDivergenceError(
            "non-finite state after integration step")
    return VehicleState(p_new, v_new, R_new, w_new)
