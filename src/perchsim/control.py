"""Wrench-level controllers: free-flight tracking, rejection, perch force.

The nominal controller tracks a full pose setpoint; the rejection force
cancels the estimated external force; the perch wrench presses a configurable
fraction of gravity compensation while the vehicle is rigidly attached.
"""

from dataclasses import dataclass

from .allocation import Wrench
from .geometry import ZERO3, floats, mat_t_vec, mat_vec


@dataclass
class Setpoint:
    p: tuple                         # three floats each; R a row-major 9-tuple
    v: tuple
    a: tuple
    R: tuple
    omega: tuple

    @staticmethod
    def hold(p, R):
        return Setpoint(floats(p), ZERO3, ZERO3, floats(R), ZERO3)


def nominal_wrench(state, sp, e_R, cfg, integ, params, dt):
    """PD + feedforward force, PID torque on e_R = Log(R^T R_d)^vee, with the
    keys k_tp, k_td, k_rp, k_rd, k_ri and integral_clamp of `cfg`; returns
    the wrench and the updated attitude integral (three floats)."""
    K_tp, K_td, g = cfg.k_tp, cfg.k_td, params.g
    (px, py, pz), (vx, vy, vz) = state.p, state.v
    (dpx, dpy, dpz), (dvx, dvy, dvz), (ax, ay, az) = sp.p, sp.v, sp.a
    u = mat_t_vec(state.R, (K_tp * (dpx - px) + K_td * (dvx - vx) + ax,
                            K_tp * (dpy - py) + K_td * (dvy - vy) + ay,
                            g + K_tp * (dpz - pz) + K_td * (dvz - vz) + az))
    m = params.m
    f = (m * u[0], m * u[1], m * u[2])
    e_w = mat_t_vec(state.R, mat_vec(sp.R, sp.omega))
    clamp = cfg.integral_clamp
    acc = tuple([min(max(i + e * dt, -clamp), clamp)
                 for i, e in zip(integ, e_R)])
    K_rp, K_rd, K_ri = cfg.k_rp, cfg.k_rd, cfg.k_ri
    tau = mat_vec(params.Jb, [K_rp * e + K_rd * (w_d - w) + K_ri * i
                              for e, w_d, w, i
                              in zip(e_R, e_w, state.omega, acc)])
    return Wrench(f, tau), acc


def rejection_force(est, R):
    """Body-frame force canceling the estimated world-frame external force."""
    x, y, z = mat_t_vec(R, est.delta_hat)
    return -x, -y, -z


def perch_wrench(rho, state, params):
    """Press wrench while perched: rho * m * g anti-gravity, zero torque."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if rho == 0.0:
        return Wrench.zero()
    s = rho * params.m * params.g
    R = state.R
    return Wrench((s * R[6], s * R[7], s * R[8]), ZERO3)
