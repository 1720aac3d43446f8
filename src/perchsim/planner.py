"""Closed-form trajectory primitives and perch setpoint generation.

Translation segments are per-axis quintics (minimum integrated squared jerk
for the given boundary states); rotation segments are cubic polynomials in
exponential coordinates anchored at the initial rotation, which makes the
boundary rotations and body rates exact and keeps the sampled body rate the
analytic derivative of the parameterization.
"""

import math
from dataclasses import dataclass

import numpy as np

from .control import Setpoint
from .geometry import B3, ZERO3, exp_so3, floats, log_so3, mat_mul, \
    mat_t_mul, right_jacobian, right_jacobian_inv, rot_y


@dataclass
class TranslationSegment:
    coeffs: tuple                    # per axis, ascending quintic coefficients
    duration: float

    def eval(self, t):
        """Position, velocity and acceleration at t, each by Horner's rule."""
        p, v, a = [], [], []
        for c0, c1, c2, c3, c4, c5 in self.coeffs:
            p.append(c0 + t * (c1 + t * (c2 + t * (c3 + t * (c4 + t * c5)))))
            v.append(c1 + t * (2.0 * c2 + t * (3.0 * c3 + t * (
                4.0 * c4 + t * 5.0 * c5))))
            a.append(2.0 * c2 + t * (6.0 * c3 + t * (
                12.0 * c4 + t * 20.0 * c5)))
        return tuple(p), tuple(v), tuple(a)

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
        phi, dphi = [], []
        for c1, c2, c3 in self.coeffs:
            phi.append(t * (c1 + t * (c2 + t * c3)))
            dphi.append(c1 + t * (2.0 * c2 + t * 3.0 * c3))
        return (mat_mul(self.R0, exp_so3(*phi)),
                right_jacobian(phi, dphi))


def min_accel_rotation(R0, Rf, w0, wf, T):
    """Cubic in exponential coordinates from R0, exact at both endpoints."""
    if T <= 0:
        raise ValueError("segment duration must be positive")
    phi_f = log_so3(mat_t_mul(R0, Rf))
    if math.hypot(*phi_f) >= math.pi - 1e-6:
        raise ValueError("rotation endpoints are antipodal or nearly so")
    dphi0 = np.asarray(w0, dtype=float)              # J_r(0) = I
    dphif = right_jacobian_inv(phi_f, wf)
    coeffs = []
    # Solve a T^2 + b T^3 = phi_f - dphi0 T ; 2 a T + 3 b T^2 = dphif - dphi0
    M = np.array([[T ** 2, T ** 3], [2 * T, 3 * T ** 2]])
    for ax in range(3):
        rhs = np.array([phi_f[ax] - dphi0[ax] * T, dphif[ax] - dphi0[ax]])
        coeffs.append((float(dphi0[ax]), *np.linalg.solve(M, rhs).tolist()))
    return RotationSegment(floats(R0), tuple(coeffs))


@dataclass
class PlanSegment:
    translation: TranslationSegment
    rotation: RotationSegment
    start: float                     # plan-relative start time, s


class Plan:
    """Piecewise trajectory; holds the terminal pose beyond the last segment."""

    def __init__(self, segments):
        self.segments = segments
        last = segments[-1]
        T = last.translation.duration
        self.duration = last.start + T
        p, _, _ = last.translation.eval(T)
        R, _ = last.rotation.eval(T)
        # Shared by every sample past the end; no caller mutates a Setpoint.
        self.terminal = Setpoint(p, ZERO3, ZERO3, R, ZERO3)

    def sample(self, t):
        if t < 0:
            t = 0.0
        if t >= self.duration:
            return self.terminal
        for seg in reversed(self.segments):
            if t >= seg.start:
                tau = t - seg.start
                p, v, a = seg.translation.eval(tau)
                R, omega = seg.rotation.eval(tau)
                return Setpoint(p, v, a, R, omega)
        raise AssertionError("unreachable")


def perch_orientation(wall):
    """Body attitude at the wall: bottom (-b3) facing the wall, x axis up."""
    n = np.asarray(wall.normal)
    up = B3 - (B3 @ n) * n
    nu = np.linalg.norm(up)
    if nu < 1e-9:
        raise ValueError("wall normal may not be vertical")
    up = up / nu
    return tuple(np.column_stack([up, np.cross(n, up), n]).ravel().tolist())


def hover_setpoint(cfg):
    """Setpoint (1): the scenario's hover_position at rot_y(hover_pitch)."""
    return Setpoint.hold(cfg.hover_position, rot_y(cfg.hover_pitch))


def perch_setpoints(wall, cfg):
    """Hover (1), standoff (2), and behind-surface (3) pose setpoints; reads
    the keys hover_position, hover_pitch, standoff and penetration of `cfg`."""
    R = perch_orientation(wall)
    n, point = np.asarray(wall.normal), np.asarray(wall.point)
    offset = np.reshape(R, (3, 3)) @ wall.c_m
    p2 = point + cfg.standoff * n - offset
    p3 = point - cfg.penetration * n - offset
    return [
        hover_setpoint(cfg),
        Setpoint.hold(p2, R),
        Setpoint.hold(p3, R),
    ]


def connect(sp_from, sp_to, T, start=0.0):
    """Min-jerk translation + min-accel rotation between two setpoints;
    `connect(sp, sp, T)` holds a rest setpoint `sp` for T seconds."""
    tr = min_jerk_segment(sp_from.p, sp_from.v, sp_from.a,
                          sp_to.p, sp_to.v, sp_to.a, T)
    rot = min_accel_rotation(sp_from.R, sp_to.R, sp_from.omega, sp_to.omega, T)
    return PlanSegment(tr, rot, start)
