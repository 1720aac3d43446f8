"""Momentum-based external-force estimation with freeze semantics.

Two instances of the same estimator are run by the harness: one whose output
feeds the rejection term of the free-flight controller (frozen outside free
flight), and one that tracks the total external force at the wall interface
to produce the normal contact force that drives mode switching.
"""

from .geometry import ZERO3, mat_vec


def fresh(state, params, K_e, delta_hat=ZERO3):
    """Start the observer of gain K_e (1/s) at the momentum of the vehicle
    state with this estimate, so that delta_hat resumes continuously (from
    zero).  An estimator state is (delta_hat, accumulator, p_m0, frozen):
    the estimated world-frame force (N), the integral of R f - m g b3 +
    delta_hat, the reference momentum (kg m/s), and the hold flag."""
    _, v, _, _ = state
    m = params.m
    return delta_hat, ZERO3, tuple(
        [m * x - d / K_e for x, d in zip(v, delta_hat)]), False


def update(est, state, f_body, K_e, params, dt):
    """One explicit-Euler step of gain K_e (1/s); identity while frozen."""
    (dx, dy, dz), (ax, ay, az), (qx, qy, qz), frozen = est
    if frozen:
        return est
    _, (vx, vy, vz), R, _ = state
    fx, fy, fz = mat_vec(R, f_body)
    m = params.m
    ax, ay, az = (ax + (fx + dx) * dt, ay + (fy + dy) * dt,
                  az + (fz - m * params.g + dz) * dt)
    return ((K_e * (m * vx - qx - ax), K_e * (m * vy - qy - ay),
             K_e * (m * vz - qz - az)), (ax, ay, az), (qx, qy, qz), False)


def freeze(est):
    delta_hat, accumulator, p_m0, frozen = est
    if frozen:
        return est
    return delta_hat, accumulator, p_m0, True


def contact_normal_force(delta_hat, wall):
    """Estimated contact force along the wall normal; compression positive."""
    (nx, ny, nz), (dx, dy, dz) = wall.normal, delta_hat
    return nx * dx + ny * dy + nz * dz
