"""Closed-form trajectory primitives, perch setpoints and the mission planner.

Translation segments are per-axis quintics (minimum integrated squared jerk
for the given boundary states); rotation segments are cubic polynomials in
exponential coordinates anchored at the initial rotation, which makes the
boundary rotations and body rates exact and keeps the sampled body rate the
analytic derivative of the parameterization.
"""

import math

from .geometry import B3, ZERO3, cross, exp_so3, floats, log_so3, mat_mul, \
    mat_t_mul, mat_vec, right_jacobian, rot_y


def quintic(coeffs, t):
    """Position, velocity and acceleration at t of the per-axis ascending
    quintic coefficients `coeffs`, each by Horner's rule."""
    (a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5), \
        (c0, c1, c2, c3, c4, c5) = coeffs
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


def jerk_cost(coeffs, T):
    """Exact integral of squared jerk of the quintic `coeffs` over [0, T]."""
    total = 0.0
    for ax in range(3):
        c3, c4, c5 = coeffs[ax][3:6]
        # jerk = 6 c3 + 24 c4 t + 60 c5 t^2
        j0, j1, j2 = 6.0 * c3, 24.0 * c4, 60.0 * c5
        total += (j0 * j0 * T + j0 * j1 * T ** 2
                  + (j1 * j1 / 3.0 + 2.0 * j0 * j2 / 3.0) * T ** 3
                  + j1 * j2 / 2.0 * T ** 4 + j2 * j2 / 5.0 * T ** 5)
    return total


def min_jerk_segment(p0, v0, a0, pf, vf, af, T):
    """The unique quintic matching both full boundary states, as three
    6-tuples of ascending coefficients, one per axis; c3..c5 in closed form."""
    if T <= 0:
        raise ValueError("segment duration must be positive")
    coeffs = []
    for c0, c1, a, p, v, acc in zip(*map(floats, (p0, v0, a0, pf, vf, af))):
        c2 = 0.5 * a
        dp = p - (c0 + c1 * T + c2 * T ** 2)
        dv, da = v - (c1 + 2 * c2 * T), acc - 2 * c2
        coeffs.append((c0, c1, c2,
                       (10 * dp - 4 * dv * T + da * T ** 2 / 2) / T ** 3,
                       (-15 * dp + 7 * dv * T - da * T ** 2) / T ** 4,
                       (6 * dp - 3 * dv * T + da * T ** 2 / 2) / T ** 5))
    return tuple(coeffs)


def rotation_at(R0, coeffs, t):
    """Rotation and body rate at t of the cubic `coeffs` in exponential
    coordinates anchored at the row-major rotation R0."""
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = coeffs
    phi = (t * (a1 + t * (a2 + t * a3)), t * (b1 + t * (b2 + t * b3)),
           t * (c1 + t * (c2 + t * c3)))
    dphi = (a1 + t * (2.0 * a2 + t * 3.0 * a3),
            b1 + t * (2.0 * b2 + t * 3.0 * b3),
            c1 + t * (2.0 * c2 + t * 3.0 * c3))
    return mat_mul(R0, exp_so3(*phi)), right_jacobian(phi, dphi)


def rotation_between(R0, Rf):
    """Exponential coordinates of R0^T Rf; raises ValueError when the two
    rotations are antipodal or nearly so."""
    phi_f = log_so3(mat_t_mul(R0, Rf))
    if math.hypot(*phi_f) >= math.pi - 1e-6:
        raise ValueError("rotation endpoints are antipodal or nearly so")
    return phi_f


def min_accel_rotation(R0, Rf, w0, T):
    """Cubic in exponential coordinates from R0 at rate w0 to Rf at rest, as
    three (c1, c2, c3) tuples of phi(t), one per axis, in closed form."""
    if T <= 0:
        raise ValueError("segment duration must be positive")
    coeffs = []
    for phi, w in zip(rotation_between(R0, Rf), floats(w0)):
        e, g = phi - w * T, 0.0 - w             # c1 = w0: J_r(0) = I
        coeffs.append((w, (3 * e - g * T) / T ** 2, (g * T - 2 * e) / T ** 3))
    return tuple(coeffs)


def perch_orientation(wall):
    """Body attitude at the wall: bottom (-b3) facing the wall, x axis up."""
    n = wall.normal
    up = [b - n[2] * x for b, x in zip(B3, n)]           # b3 - (b3 . n) n
    nu = math.hypot(*up)
    if nu < 1e-9:
        raise ValueError("wall normal may not be vertical")
    up = [x / nu for x in up]
    return tuple(x for row in zip(up, cross(n, up), n) for x in row)


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
    sides = zip(wall.point, wall.normal, mat_vec(R, wall.c_m))
    p2, p3 = zip(*[(q + cfg.standoff * n - c, q - cfg.penetration * n - c)
                   for q, n, c in sides])
    return [hover_setpoint(cfg), hold(p2, R), hold(p3, R)]


def connect(sp_from, sp_to, T, start=0.0):
    """Min-jerk translation + min-accel rotation from `sp_from` to the rest
    setpoint `sp_to`.

    The segment is the tuple (start, T, translation, R0, rotation): its
    plan-relative start time, its duration, the `min_jerk_segment`
    coefficients that `quintic` reads, and the row-major start rotation and
    `min_accel_rotation` coefficients that `rotation_at` reads."""
    (p0, v0, a0, R0, w0), (pf, vf, af, Rf, _) = sp_from, sp_to
    tr = min_jerk_segment(p0, v0, a0, pf, vf, af, T)
    return start, float(T), tr, floats(R0), min_accel_rotation(R0, Rf, w0, T)


class MissionPlanner:
    """The active plan, rebuilt on supervisor edges: a rest at setpoints[0]
    until its first segment starts, its segments (none when hovering), then
    a terminal rest at the last one's end pose."""

    def __init__(self, cfg, wall):
        self.cfg = cfg
        if cfg.mission == "hover":
            self.setpoints = [hover_setpoint(cfg)] * 3
            self._follow(0.0)
        else:
            sp1, sp2, _ = self.setpoints = perch_setpoints(wall, cfg)
            self._follow(0.0, connect(sp1, sp2, cfg.t_approach,
                                      start=cfg.hold_time))

    def _follow(self, t0, *segments):
        """Fly `segments` from time t0, each from t0 plus its start."""
        self.segments, self.t0 = segments, t0
        self.duration, self.terminal = 0.0, self.setpoints[0]
        if segments:
            start, T, tr, R0, rot = segments[-1]
            self.duration = start + T
            p, _, _ = quintic(tr, T)
            R, _ = rotation_at(R0, rot, T)
            self.terminal = p, ZERO3, ZERO3, R, ZERO3

    def sample(self, t):
        """The setpoint (p, v, a, R, omega) at run time t >= t0, laid out as
        `hold` gives it."""
        t = t - self.t0
        if t >= self.duration:
            return self.terminal
        for start, _, tr, R0, rot in reversed(self.segments):
            if t >= start:
                tau = t - start
                p, v, a = quintic(tr, tau)
                R, omega = rotation_at(R0, rot, tau)
                return p, v, a, R, omega
        return self.setpoints[0]

    def start_approach(self, t):
        """Fly from the current setpoint to the behind-surface target (3)."""
        self._follow(t, connect(self.sample(t), self.setpoints[2],
                                self.cfg.t_contact))

    def start_departure(self, t, state):
        """Fly from `state`'s (wall) pose to (2), then (1)."""
        p, _, R, _ = state
        sp1, sp2, _ = self.setpoints
        cfg = self.cfg
        self._follow(t, connect(hold(p, R), sp2, cfg.t_contact),
                     connect(sp2, sp1, cfg.t_approach, start=cfg.t_contact))
