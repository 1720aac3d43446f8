"""Momentum-based external-force estimation with freeze semantics.

Two instances of the same estimator are run by the harness: one whose output
feeds the rejection term of the free-flight controller (frozen outside free
flight), and one that tracks the total external force at the wall interface
to produce the normal contact force that drives mode switching.
"""

from dataclasses import dataclass, replace

from .geometry import ZERO3, mat_vec


@dataclass
class EstimatorState:
    delta_hat: tuple                 # estimated world-frame force, N
    accumulator: tuple               # integral of R f - m g b3 + delta_hat
    p_m0: tuple                      # reference momentum, kg m/s
    K_e: float                       # positive scalar gain, 1/s
    frozen: bool = False

    @staticmethod
    def fresh(state, params, K_e):
        return EstimatorState(ZERO3, ZERO3, _momentum(state, params), K_e)


def _momentum(state, params):
    m = params.m
    return tuple([m * v for v in state.v])


def update(est, state, f_body, params, dt):
    """One explicit-Euler estimator step; identity while frozen."""
    if est.frozen:
        return est
    fx, fy, fz = mat_vec(state.R, f_body)
    (ax, ay, az), (dx, dy, dz) = est.accumulator, est.delta_hat
    m, K_e = params.m, est.K_e
    ax, ay, az = (ax + (fx + dx) * dt, ay + (fy + dy) * dt,
                  az + (fz - m * params.g + dz) * dt)
    (vx, vy, vz), (qx, qy, qz) = state.v, est.p_m0
    return EstimatorState((K_e * (m * vx - qx - ax), K_e * (m * vy - qy - ay),
                           K_e * (m * vz - qz - az)),
                          (ax, ay, az), est.p_m0, K_e, False)


def freeze(est):
    if est.frozen:
        return est
    return replace(est, frozen=True)


def unfreeze(est, state, params):
    """Clear the freeze flag, re-based so delta_hat resumes continuously."""
    if not est.frozen:
        return est
    p_m0 = tuple([mv - d / est.K_e
                  for mv, d in zip(_momentum(state, params), est.delta_hat)])
    return EstimatorState(est.delta_hat, ZERO3, p_m0, est.K_e, False)


def rebase(est, state, params):
    """Restart the estimate from zero at the current momentum."""
    return EstimatorState(ZERO3, ZERO3, _momentum(state, params), est.K_e,
                          est.frozen)


def contact_normal_force(est, wall):
    """Estimated contact force along the wall normal; compression positive."""
    (nx, ny, nz), (dx, dy, dz) = wall.normal, est.delta_hat
    return nx * dx + ny * dy + nz * dz
