"""Wrench-level controllers: free-flight tracking, rejection, perch force.

The nominal controller tracks a full pose setpoint; the rejection force
cancels the estimated external force; the perch wrench presses a configurable
fraction of gravity compensation while the vehicle is rigidly attached.
"""

from .geometry import ZERO3, mat_t_vec, mat_vec


def nominal_wrench(state, sp, e_R, cfg, integ, params, dt):
    """PD + feedforward force, PID torque on e_R = Log(R^T R_d)^vee, tracking
    the setpoint sp = (p, v, a, R_d, omega_d), with the keys k_tp, k_td,
    k_rp, k_rd, k_ri and integral_clamp of `cfg`.  Returns the body wrench
    (f, tau), three floats each, and the updated attitude integral."""
    K_tp, K_td, g, m = cfg.k_tp, cfg.k_td, params.g, params.m
    (px, py, pz), (vx, vy, vz), R, (wx, wy, wz) = state
    (dpx, dpy, dpz), (dvx, dvy, dvz), (ax, ay, az), R_d, w_d = sp
    ux, uy, uz = mat_t_vec(R, (
        K_tp * (dpx - px) + K_td * (dvx - vx) + ax,
        K_tp * (dpy - py) + K_td * (dvy - vy) + ay,
        g + K_tp * (dpz - pz) + K_td * (dvz - vz) + az))
    (ex, ey, ez), (ix, iy, iz) = e_R, integ
    wdx, wdy, wdz = mat_t_vec(R, mat_vec(R_d, w_d))
    # min(max(i + e dt, -c), c) per axis as comparisons: a NaN passes through.
    lo, hi = -cfg.integral_clamp, cfg.integral_clamp
    ix, iy, iz = ix + ex * dt, iy + ey * dt, iz + ez * dt
    ix, iy, iz = (lo if lo > ix else ix, lo if lo > iy else iy,
                  lo if lo > iz else iz)
    ix, iy, iz = (hi if hi < ix else ix, hi if hi < iy else iy,
                  hi if hi < iz else iz)
    (jx, jy, jz), K_rp, K_rd, K_ri = params.J, cfg.k_rp, cfg.k_rd, cfg.k_ri
    tau = (jx * (K_rp * ex + K_rd * (wdx - wx) + K_ri * ix),
           jy * (K_rp * ey + K_rd * (wdy - wy) + K_ri * iy),
           jz * (K_rp * ez + K_rd * (wdz - wz) + K_ri * iz))
    return ((m * ux, m * uy, m * uz), tau), (ix, iy, iz)


def rejection_force(delta_hat, R):
    """Body-frame force canceling the estimated world-frame external force."""
    x, y, z = mat_t_vec(R, delta_hat)
    return -x, -y, -z


def perch_wrench(rho, R, params):
    """Press wrench (f, tau) while perched at rotation R: rho * m * g
    anti-gravity, zero torque."""
    s = rho * params.m * params.g
    return (s * R[6], s * R[7], s * R[8]), ZERO3
