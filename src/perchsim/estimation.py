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
    frozen: bool = False

    @staticmethod
    def fresh(state, params, K_e, delta_hat=ZERO3):
        """Start the observer of gain K_e (1/s) at this momentum with this
        estimate, so that delta_hat resumes continuously (from zero)."""
        m = params.m
        return EstimatorState(delta_hat, ZERO3, tuple(
            [m * v - d / K_e for v, d in zip(state.v, delta_hat)]))


def update(est, state, f_body, K_e, params, dt):
    """One explicit-Euler step of gain K_e (1/s); identity while frozen."""
    if est.frozen:
        return est
    fx, fy, fz = mat_vec(state.R, f_body)
    (ax, ay, az), (dx, dy, dz) = est.accumulator, est.delta_hat
    m = params.m
    ax, ay, az = (ax + (fx + dx) * dt, ay + (fy + dy) * dt,
                  az + (fz - m * params.g + dz) * dt)
    (vx, vy, vz), (qx, qy, qz) = state.v, est.p_m0
    return EstimatorState((K_e * (m * vx - qx - ax), K_e * (m * vy - qy - ay),
                           K_e * (m * vz - qz - az)),
                          (ax, ay, az), est.p_m0, False)


def freeze(est):
    if est.frozen:
        return est
    return replace(est, frozen=True)


def contact_normal_force(est, wall):
    """Estimated contact force along the wall normal; compression positive."""
    (nx, ny, nz), (dx, dy, dz) = wall.normal, est.delta_hat
    return nx * dx + ny * dy + nz * dz
