"""Rigid-body tiltrotor dynamics with actuator lag and magnetic wall contact.

The vehicle is a fully actuated rigid body.  While attached to the wall the
pose is rigidly locked (integrate returns the state unchanged) until the
perch servo peels the magnets off tangentially or the normal pull exceeds the
magnet capacity.
"""

import math
from dataclasses import dataclass

from .allocation import RotorGeometry
from .geometry import EYE, ZERO3, exp_so3, floats, mat_mul, mat_vec, \
    renormalize

ETA_ENGAGED = 0.95       # perch servo at or above: magnets hold, may attach
ETA_OPEN = 0.05          # perch servo at or below: magnets peeled off


class NumericalDivergenceError(RuntimeError):
    """Raised when the integrator produces a non-finite state."""


@dataclass
class VehicleParams:
    """Mass properties and actuator limits.  The body axes are principal
    axes: the inertia is diag(J) and its inverse diag(J_inv), J_inv = 1 / J."""
    m: float                         # kg
    J: tuple                         # kg m^2, principal moments (jx, jy, jz)
    g: float                         # m/s^2
    rotors: RotorGeometry
    T_max: float                     # N per rotor
    tau_rotor: float                 # s, thrust first-order lag
    tilt_rate_max: float             # rad/s
    t_ps: float                      # s, perch-servo full travel time

    def __post_init__(self):
        jx, jy, jz = self.J = floats(self.J)
        self.J_inv = (1.0 / jx, 1.0 / jy, 1.0 / jz)


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
class WallModel:
    point: tuple                     # a point on the wall plane, m
    normal: tuple                    # outward unit normal into free space
    F_mag: float                     # magnet pull capacity, N
    d_mag: float                     # near-field range, m
    eps_attach: float                # attach gap tolerance, m
    c_m: tuple                       # magnet face offset in body frame, m

    def __post_init__(self):
        normal = floats(self.normal)
        n = math.hypot(*normal)
        if abs(n - 1.0) > 1e-9:
            normal = tuple([x / n for x in normal])
        self.point = floats(self.point)
        self.normal = normal
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
    """First-order thrust lag, tilt rate limit, perch-servo travel to eta_d.
    Takes `allocate`'s command and returns the new actuator state
    (thrust, tilt, eta): actual thrusts (N) and tilt angles (rad), a float
    per rotor each, and the perch servo, 0 = unperch .. 1 = perch."""
    k, T_max = dt / params.tau_rotor, params.T_max
    hi = params.tilt_rate_max * dt
    # Each clamp is min/max as comparisons, in the builtins' argument order:
    # thrust and tilt step are min(max(x, lo), hi), so a NaN passes through;
    # the eta step is min(step, max(-step, x)), so a NaN becomes -step.
    (thrust_a, tilt_a, eta_a), (thrust_c, tilt_c, _) = act, cmd
    thrust, tilt = [], []
    for a, c, b, d in zip(thrust_a, thrust_c, tilt_a, tilt_c):
        x, y = a + (c - a) * k, d - b
        x, y = (0.0 if 0.0 > x else x), (-hi if -hi > y else y)
        thrust.append(T_max if T_max < x else x)
        tilt.append(b + (hi if hi < y else y))
    step = dt / params.t_ps
    x = eta_d - eta_a
    x = x if x > -step else -step
    eta = eta_a + (x if x < step else step)
    eta = (eta if eta < 1.0 else 1.0) if eta > 0.0 else 0.0
    return tuple(thrust), tuple(tilt), eta


def update_contact(state, act, applied_world_force, contact, wall, params):
    """Attach/release logic, ground-truth contact force, near-field magnet
    pull.  Returns the new ContactState and the edge this tick crossed:
    "attach", "release" (peeled off), "forcible-detach" (pulled off), or
    None.  An attached pose is the state's own, as integrate holds it."""
    gap = wall.gap_of(state)
    (nx, ny, nz), (_, _, eta) = wall.normal, act
    if contact.attached:
        eta_hold = 1.0 if eta >= ETA_ENGAGED else eta
        if eta <= ETA_OPEN:
            # Perch servo finished its unperch travel: tangential peel.
            return ContactState(False, gap, 0.0), "release"
        # Net pull away from the wall; negative when pressing into it.
        fx, fy, fz = applied_world_force
        pull = nx * fx + ny * fy + nz * (fz - params.m * params.g)
        if pull > wall.F_mag * eta_hold:
            return ContactState(False, gap, 0.0), "forcible-detach"
        return ContactState(True, 0.0, wall.F_mag * eta_hold - pull), None
    # Detached.
    if eta >= ETA_ENGAGED and gap <= wall.eps_attach:
        return ContactState(True, 0.0, wall.F_mag), "attach"
    out = ContactState(False, gap, 0.0)
    if eta >= ETA_ENGAGED and 0.0 < gap < wall.d_mag:
        s = -wall.F_mag * (1.0 - gap / wall.d_mag)
        out.nearfield_force = (s * nx, s * ny, s * nz)
    return out, None


def forward_wrench(thrust, tilt, geometry):
    """Exact body wrench (f, tau), three floats each, produced by the given
    thrusts and tilt angles."""
    w0 = w1 = w2 = w3 = w4 = w5 = 0.0
    for T, nu, ((a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5)) in zip(
            thrust, tilt, geometry.columns):
        u, l = T * math.cos(nu), T * math.sin(nu)
        w0 += a0 * u + b0 * l
        w1 += a1 * u + b1 * l
        w2 += a2 * u + b2 * l
        w3 += a3 * u + b3 * l
        w4 += a4 * u + b4 * l
        w5 += a5 * u + b5 * l
    return (w0, w1, w2), (w3, w4, w5)


def integrate(state, wrench, dist, contact, params, dt):
    """One RK4 step under the body-frame rotor `wrench` (`forward_wrench` of
    the actuator state) and the disturbances `dist` (as the harness's
    `_disturbance_at` gives them); rotation advanced on the exponential map,
    renormalized.  Plain floats throughout, every sum left to right.
    """
    if contact.attached:
        return state
    (fx, fy, fz), (tx, ty, tz) = wrench
    (nx, ny, nz), ((dx, dy, dz), (ex, ey, ez)) = contact.nearfield_force, dist
    m, g = params.m, params.g
    (jx, jy, jz), (ix, iy, iz) = params.J, params.J_inv
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
        lx, ly, lz = jx * wx, jy * wy, jz * wz      # body angular momentum
        ux = ly * wz - lz * wy + tx
        uy = lz * wx - lx * wz + ty
        uz = lx * wy - ly * wx + tz
        ax = (r00 * fx + r01 * fy + r02 * fz + nx + dx) / m
        ay = (r10 * fx + r11 * fy + r12 * fz + ny + dy) / m
        az = (r20 * fx + r21 * fy + r22 * fz + nz + dz) / m - g
        bx, by, bz = ix * ux + ex, iy * uy + ey, iz * uz + ez
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
