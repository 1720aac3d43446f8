"""Closed-form trajectory primitives, perch setpoints and the mission planner.

Translation segments are per-axis quintics (minimum integrated squared jerk
for the given boundary states); rotation segments are cubic polynomials in
exponential coordinates anchored at the initial rotation, which makes the
boundary rotations and body rates exact and keeps the sampled body rate the
analytic derivative of the parameterization.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import B3, ZERO3, exp_so3, floats, log_so3, mat_mul, \
    mat_t_mul, right_jacobian, rot_y


@dataclass
class TranslationSegment:
    coeffs: tuple                    # per axis, ascending quintic coefficients
    duration: float

    def eval(self, t):
        """Position, velocity and acceleration at t, each by Horner's rule."""
        (a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5), \
            (c0, c1, c2, c3, c4, c5) = self.coeffs
        t5 = t * 5.0
        p = (a0 + t * (a1 + t * (a2 + t * (a3 + t * (a4 + t * a5)))),
             b0 + t * (b1 + t * (b2 + t * (b3 + t * (b4 + t * b5)))),
             c0 + t * (c1 + t * (c2 + t * (c3 + t * (c4 + t * c5)))))
        v = (a1 + t * (2.0 * a2 + t * (3.0 * a3 + t * (4.0 * a4 + t5 * a5))),
             b1 + t * (2.0 * b2 + t * (3.0 * b3 + t * (4.0 * b4 + t5 * b5))),
             c1 + t * (2.0 * c2 + t * (3.0 * c3 + t * (4.0 * c4 + t5 * c5))))
        a = (2.0 * a2 + t * (6.0 * a3 + t * (12.0 * a4 + t * 20.0 * a5)),
             2.0 * b2 + t * (6.0 * b3 + t * (12.0 * b4 + t * 20.0 * b5)),
             2.0 * c2 + t * (6.0 * c3 + t * (12.0 * c4 + t * 20.0 * c5)))
        return p, v, a

    def jerk_cost(self):
        """Exact integral of squared jerk over the segment."""
        T = self.duration
        total = 0.0
        for ax in range(3):
            c3, c4, c5 = self.coeffs[ax][3:6]
            # jerk = 6 c3 + 24 c4 t + 60 c5 t^2
            j0, j1, j2 = 6.0 * c3, 24.0 * c4, 60.0 * c5
            total += (j0 * j0 * T + j0 * j1 * T ** 2
                      + (j1 * j1 / 3.0 + 2.0 * j0 * j2 / 3.0) * T ** 3
                      + j1 * j2 / 2.0 * T ** 4 + j2 * j2 / 5.0 * T ** 5)
        return total


def min_jerk_segment(p0, v0, a0, pf, vf, af, T):
    """Unique quintic matching both full boundary states."""
    if T <= 0:
        raise ValueError("segment duration must be positive")
    p0, v0, a0 = (np.asarray(x, float) for x in (p0, v0, a0))
    pf, vf, af = (np.asarray(x, float) for x in (pf, vf, af))
    coeffs = np.zeros((3, 6))
    M = np.array([
        [T ** 3, T ** 4, T ** 5],
        [3 * T ** 2, 4 * T ** 3, 5 * T ** 4],
        [6 * T, 12 * T ** 2, 20 * T ** 3],
    ])
    for ax in range(3):
        c0, c1, c2 = p0[ax], v0[ax], 0.5 * a0[ax]
        rhs = np.array([
            pf[ax] - (c0 + c1 * T + c2 * T ** 2),
            vf[ax] - (c1 + 2 * c2 * T),
            af[ax] - 2 * c2,
        ])
        c345 = np.linalg.solve(M, rhs)
        coeffs[ax] = [c0, c1, c2, *c345]
    return TranslationSegment(tuple(map(tuple, coeffs.tolist())), float(T))


@dataclass
class RotationSegment:
    R0: tuple                        # row-major 9-tuple
    coeffs: tuple                    # per axis, (c1, c2, c3) of phi(t)

    def eval(self, t):
        (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = self.coeffs
        phi = (t * (a1 + t * (a2 + t * a3)), t * (b1 + t * (b2 + t * b3)),
               t * (c1 + t * (c2 + t * c3)))
        dphi = (a1 + t * (2.0 * a2 + t * 3.0 * a3),
                b1 + t * (2.0 * b2 + t * 3.0 * b3),
                c1 + t * (2.0 * c2 + t * 3.0 * c3))
        return mat_mul(self.R0, exp_so3(*phi)), right_jacobian(phi, dphi)


def min_accel_rotation(R0, Rf, w0, T):
    """Cubic in exponential coordinates from R0 at rate w0 to Rf at rest."""
    if T <= 0:
        raise ValueError("segment duration must be positive")
    phi_f = log_so3(mat_t_mul(R0, Rf))
    if math.hypot(*phi_f) >= math.pi - 1e-6:
        raise ValueError("rotation endpoints are antipodal or nearly so")
    dphi0 = np.asarray(w0, dtype=float)              # J_r(0) = I
    coeffs = []
    # Solve a T^2 + b T^3 = phi_f - dphi0 T ; 2 a T + 3 b T^2 = 0 - dphi0
    M = np.array([[T ** 2, T ** 3], [2 * T, 3 * T ** 2]])
    for ax in range(3):
        rhs = np.array([phi_f[ax] - dphi0[ax] * T, 0.0 - dphi0[ax]])
        coeffs.append((float(dphi0[ax]), *np.linalg.solve(M, rhs).tolist()))
    return RotationSegment(floats(R0), tuple(coeffs))


@dataclass
class PlanSegment:
    translation: TranslationSegment
    rotation: RotationSegment
    start: float                     # plan-relative start time, s


def perch_orientation(wall):
    """Body attitude at the wall: bottom (-b3) facing the wall, x axis up."""
    n = np.asarray(wall.normal)
    up = B3 - (B3 @ n) * n
    nu = np.linalg.norm(up)
    if nu < 1e-9:
        raise ValueError("wall normal may not be vertical")
    up = up / nu
    return tuple(np.column_stack([up, np.cross(n, up), n]).ravel().tolist())


def hold(p, R):
    """The setpoint (p, v, a, R, omega) at rest at position p and row-major
    rotation R: p, v, a and omega three floats each, R nine."""
    return floats(p), ZERO3, ZERO3, floats(R), ZERO3


def hover_setpoint(cfg):
    """Setpoint (1): the scenario's hover_position at rot_y(hover_pitch)."""
    return hold(cfg.hover_position, rot_y(cfg.hover_pitch))


def perch_setpoints(wall, cfg):
    """Hover (1), standoff (2), and behind-surface (3) pose setpoints; reads
    the keys hover_position, hover_pitch, standoff and penetration of `cfg`."""
    R = perch_orientation(wall)
    n, point = np.asarray(wall.normal), np.asarray(wall.point)
    offset = np.reshape(R, (3, 3)) @ wall.c_m
    p2 = point + cfg.standoff * n - offset
    p3 = point - cfg.penetration * n - offset
    return [hover_setpoint(cfg), hold(p2, R), hold(p3, R)]


def connect(sp_from, sp_to, T, start=0.0):
    """Min-jerk translation + min-accel rotation from `sp_from` to the rest
    setpoint `sp_to`; `connect(sp, sp, T)` holds a rest `sp` for T seconds."""
    (p0, v0, a0, R0, w0), (pf, vf, af, Rf, _) = sp_from, sp_to
    tr = min_jerk_segment(p0, v0, a0, pf, vf, af, T)
    return PlanSegment(tr, min_accel_rotation(R0, Rf, w0, T), start)


class MissionPlanner:
    """The active plan, rebuilt on supervisor edges; holds the terminal pose
    beyond its last segment.  Segments last the scenario's hold_time,
    t_approach (1->2) and t_contact (2->3)."""

    def __init__(self, cfg, wall):
        self.cfg = cfg
        if cfg.mission == "hover":
            sp = hover_setpoint(cfg)
            self.setpoints = [sp, sp, sp]
            self._follow(0.0, connect(sp, sp, 1.0))
            return
        self.setpoints = perch_setpoints(wall, cfg)
        sp1, sp2, _ = self.setpoints
        self._follow(0.0, connect(sp1, sp1, cfg.hold_time),
                     connect(sp1, sp2, cfg.t_approach, start=cfg.hold_time))

    def _follow(self, t0, *segments):
        """Fly `segments` from time t0; the first starts at 0."""
        self.segments = segments
        self.t0 = t0
        last = segments[-1]
        T = last.translation.duration
        self.duration = last.start + T
        p, _, _ = last.translation.eval(T)
        R, _ = last.rotation.eval(T)
        self.terminal = p, ZERO3, ZERO3, R, ZERO3

    def sample(self, t):
        """The setpoint (p, v, a, R, omega) at run time t >= t0, laid out as
        `hold` gives it."""
        t = t - self.t0
        if t >= self.duration:
            return self.terminal
        for seg in reversed(self.segments):
            if t >= seg.start:
                tau = t - seg.start
                p, v, a = seg.translation.eval(tau)
                R, omega = seg.rotation.eval(tau)
                return p, v, a, R, omega

    def start_approach(self, t):
        """Fly from the current setpoint to the behind-surface target (3)."""
        self._follow(t, connect(self.sample(t), self.setpoints[2],
                                self.cfg.t_contact))

    def start_departure(self, t, state):
        """Fly from `state` (the wall pose while attached) to (2), then (1)."""
        sp1, sp2, _ = self.setpoints
        cfg = self.cfg
        self._follow(t, connect(hold(state.p, state.R), sp2, cfg.t_contact),
                     connect(sp2, sp1, cfg.t_approach, start=cfg.t_contact))
