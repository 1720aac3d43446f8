"""Wrench-level controllers: free-flight tracking, rejection, perch force.

The nominal controller tracks a full pose setpoint; the rejection force
cancels the estimated external force; the perch wrench presses a configurable
fraction of gravity compensation while the vehicle is rigidly attached.
"""

from dataclasses import dataclass

import numpy as np

from .allocation import Wrench
from .geometry import B3


@dataclass(frozen=True)
class Gains:
    K_tp: float = 10.0
    K_td: float = 6.0
    K_rp: float = 60.0
    K_rd: float = 15.0
    K_ri: float = 3.0
    integral_clamp: float = 0.5      # rad s per attitude-integral component


@dataclass
class Setpoint:
    p: np.ndarray
    v: np.ndarray
    a: np.ndarray
    R: np.ndarray
    omega: np.ndarray

    @staticmethod
    def hold(p, R):
        return Setpoint(np.asarray(p, float), np.zeros(3), np.zeros(3),
                        np.asarray(R, float), np.zeros(3))


def nominal_wrench(state, sp, e_R, gains, integ, params, dt):
    """PD + feedforward force, PID torque on e_R = Log(R^T R_d)^vee; returns
    the wrench and the updated attitude integral (a 3-array)."""
    e_p = sp.p - state.p
    e_v = sp.v - state.v
    f = params.m * (state.R.T @ (params.g * B3 + gains.K_tp * e_p
                                 + gains.K_td * e_v + sp.a))
    psi = state.R.T @ sp.R
    e_w = psi @ sp.omega - state.omega
    clamp = gains.integral_clamp
    acc = np.clip(integ + e_R * dt, -clamp, clamp)
    tau = params.Jb @ (gains.K_rp * e_R + gains.K_rd * e_w + gains.K_ri * acc)
    return Wrench(f, tau), acc


def rejection_force(est, R):
    """Body-frame force canceling the estimated world-frame external force."""
    return -(R.T @ est.delta_hat)


def perch_wrench(rho, state, params):
    """Press wrench while perched: rho * m * g anti-gravity, zero torque."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if rho == 0.0:
        return Wrench.zero()
    f = rho * params.m * params.g * (state.R.T @ B3)
    return Wrench(f, np.zeros(3))
