"""Momentum-based external-force estimation with freeze semantics.

Two instances of the same estimator are run by the harness: one whose output
feeds the rejection term of the free-flight controller (frozen outside free
flight), and one that tracks the total external force at the wall interface
to produce the normal contact force that drives mode switching.
"""

from dataclasses import dataclass, replace

import numpy as np

from .geometry import B3


@dataclass
class EstimatorState:
    delta_hat: np.ndarray            # estimated world-frame force, N
    accumulator: np.ndarray          # integral of (R f - m g b3 + delta_hat), N s
    p_m0: np.ndarray                 # reference momentum, kg m/s
    K_e: float                       # positive scalar gain, 1/s
    frozen: bool = False

    @staticmethod
    def fresh(state, params, K_e):
        return EstimatorState(np.zeros(3), np.zeros(3),
                              params.m * state.v.copy(), K_e)


def update(est, state, f_body, params, dt):
    """One explicit-Euler estimator step; identity while frozen."""
    if est.frozen:
        return est
    acc = est.accumulator + (state.R @ f_body - params.m * params.g * B3
                             + est.delta_hat) * dt
    delta_hat = est.K_e * (params.m * state.v - est.p_m0 - acc)
    return EstimatorState(delta_hat, acc, est.p_m0, est.K_e, False)


def freeze(est):
    if est.frozen:
        return est
    return replace(est, frozen=True)


def unfreeze(est, state, params):
    """Clear the freeze flag, re-based so delta_hat resumes continuously."""
    if not est.frozen:
        return est
    p_m0 = params.m * state.v - est.delta_hat / est.K_e
    return EstimatorState(est.delta_hat.copy(), np.zeros(3), p_m0,
                          est.K_e, False)


def rebase(est, state, params):
    """Restart the estimate from zero at the current momentum."""
    return EstimatorState(np.zeros(3), np.zeros(3),
                          params.m * state.v.copy(), est.K_e, est.frozen)


def contact_normal_force(est, wall):
    """Estimated contact force along the wall normal; compression positive."""
    return float(wall.normal @ est.delta_hat)
