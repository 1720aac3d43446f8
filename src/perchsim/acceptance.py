"""Acceptance suite: twelve property and ablation-ordering checks.

CHECKS lists them in order, the one list that `perchsim verify` and the
tests run; each returns a CheckResult with one pass/fail line.  Full-scenario
runs are memoized so the pipeline, ablation, and determinism checks share
work.
"""

import hashlib
import itertools
import math
import time
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import estimation
from .allocation import allocate, x_config
from .control import nominal_wrench, rejection_force
from .geometry import EYE, ZERO3, mat_vec, rotation_error
from .harness import run_scenario
from .metrics import settle_index
from .planner import jerk_cost, min_jerk_segment, perch_setpoints, quintic
from .scenario import ScenarioConfig, default_scenario
from .supervisor import FOUR_MODE, Mode, SupervisorState, transition
from .vehicle import ContactState, at_rest, forward_wrench, integrate

# SHA-256 of the default proposed-variant CSV log; regenerated whenever the
# default configuration or the tick loop changes (see criterion 11).
GOLDEN_SHA256 = "56ebe4b24049259e873f942193a5b5c34a4f6eb2d11f071f0d0d8cb162523937"


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str = ""

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.number:2d} ({self.name}): {self.detail}"


_RUNS = {}                           # variant -> (result, wall time in s)


def run_variant(variant):
    """Default-scenario run for one controller variant, memoized."""
    if variant not in _RUNS:
        cfg = default_scenario()
        cfg.variant = variant
        t0 = time.perf_counter()
        result = run_scenario(cfg)
        _RUNS[variant] = result, time.perf_counter() - t0
    return _RUNS[variant][0]


def _expected_transition(mode, s_f2p, s_p2f, lam, gap, cfg):
    """Independent statement of the transition table of the four-mode machine."""
    if mode is Mode.F and s_f2p:
        return Mode.F2P, 1.0
    if mode is Mode.F2P and lam > cfg.lambda_f2p and gap <= cfg.magnet_range:
        return Mode.P, 1.0
    if mode is Mode.P and s_p2f:
        return Mode.P2F, 1.0
    if mode is Mode.P2F and lam < cfg.lambda_p2f:
        return Mode.F, 0.0
    eta = 0.0 if mode is Mode.F else 1.0
    return mode, eta


def check_1_mode_machine():
    cfg = ScenarioConfig(lambda_f2p=1.0, lambda_p2f=-1.0)
    bands = {"tension": -2.0, "neutral": 0.0, "compression": 2.0}
    # The magnet-face gap: at the edge of magnet_range, and just beyond it.
    gaps = {"near": cfg.magnet_range,
            "far": math.nextafter(cfg.magnet_range, math.inf)}
    t0 = time.perf_counter()
    bad = []
    for mode, s_f2p, s_p2f, (band, lam), (reach, gap) in itertools.product(
            Mode, (False, True), (False, True), bands.items(), gaps.items()):
        eta0 = 0.0 if mode is Mode.F else 1.0
        sup = SupervisorState(mode=mode, eta_d=eta0)
        out = transition(sup, lam, gap, s_f2p, s_p2f, cfg, FOUR_MODE)
        want_mode, want_eta = _expected_transition(
            mode, s_f2p, s_p2f, lam, gap, cfg)
        if out.mode is not want_mode or out.eta_d != want_eta:
            bad.append((mode.value, s_f2p, s_p2f, band, reach,
                        out.mode.value, out.eta_d))
        # eta_d edges only on F->F2P and P2F->F
        edge = out.eta_d != eta0
        legal = (mode is Mode.F and out.mode is Mode.F2P) or \
                (mode is Mode.P2F and out.mode is Mode.F)
        if edge and not legal:
            bad.append(("eta edge", mode.value, s_f2p, s_p2f, band, reach))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    return CheckResult(1, "mode machine table", ok,
                       f"96 cases, {len(bad)} mismatches, {elapsed:.3f} s")


def check_2_estimator_law():
    params, _ = ScenarioConfig().build()
    dt = 1e-3
    delta = np.array([5.0, 0.0, 0.0])
    state = p, _, R, omega = at_rest([0.0, 0.0, 0.0])
    est = estimation.fresh(state, params, 20.0)
    f_body = params.m * params.g * np.array([0.0, 0.0, 1.0])
    worst = 0.0
    for k in range(1, int(0.3 / dt) + 1):
        t = k * dt
        state = p, delta * t / params.m, R, omega    # exact plant
        delta_hat, _, _, _ = est = estimation.update(est, state, f_body,
                                                     20.0, params, dt)
        err = np.linalg.norm(delta - delta_hat)
        worst = max(worst, abs(err - 5.0 * math.exp(-20.0 * t)))
    ok = worst < 0.1                      # 2% of the 5 N step
    return CheckResult(2, "estimator first-order law", ok,
                       f"max |err - 5e^(-20t)| = {worst:.4f} N (tol 0.1)")


def check_3_freeze_semantics():
    cfg = default_scenario()
    params, wall = cfg.build()
    sp3 = perch_setpoints(wall, cfg)[2]
    _, _, _, R3, _ = sp3
    # Pose-locked on the wall surface, setpoint (3) inside the wall.
    lock = at_rest(np.subtract(wall.point, mat_vec(R3, wall.c_m)), R3)
    _, _, R, _ = lock
    e_R = rotation_error(R, R3)
    dt = 1e-3

    # Frozen estimator: bitwise constant over 10 s of updates.
    K_e = cfg.estimator_gain
    est = estimation.fresh(lock, params, K_e)
    integ = ZERO3
    for _ in range(100):
        (f, _), integ = nominal_wrench(lock, sp3, e_R, cfg, integ, params, dt)
        est = estimation.update(est, lock, f, K_e, params, dt)
    delta_hat, _, _, _ = est = estimation.freeze(est)
    snap = np.array(delta_hat).tobytes()
    for k in range(10_000):
        (f, _), integ = nominal_wrench(lock, sp3, e_R, cfg, integ, params, dt)
        est = estimation.update(est, lock, np.add(f, float(k) * 0.001),
                                K_e, params, dt)
    delta_hat, _, _, _ = est
    frozen_ok = np.array(delta_hat).tobytes() == snap

    # No-freeze: active estimator on the locked plant winds up monotonically.
    delta_hat, _, _, _ = est = estimation.fresh(lock, params, K_e)
    integ = ZERO3
    norms = []
    t_pass = None
    for k in range(int(3.0 / dt)):
        (f, _), integ = nominal_wrench(lock, sp3, e_R, cfg, integ, params, dt)
        f = np.add(f, rejection_force(delta_hat, R))
        delta_hat, _, _, _ = est = estimation.update(est, lock, f, K_e,
                                                     params, dt)
        norms.append(np.linalg.norm(delta_hat))
        if t_pass is None and norms[-1] > 5.0:
            t_pass = (k + 1) * dt
    diffs = np.diff(norms)
    monotone = bool((diffs >= -1e-12).all())
    ok = frozen_ok and monotone and t_pass is not None
    return CheckResult(3, "freeze semantics", ok,
                       f"frozen bitwise={frozen_ok}, windup monotone="
                       f"{monotone}, >5 N at t={t_pass} s")


def check_4_allocation():
    cfg = ScenarioConfig()
    rows, columns = cfg.build()[0].rotors
    A = x_config(cfg.arm_length, cfg.k_tau)
    rng = np.random.default_rng(4)
    worst_rt = 0.0
    worst_mn = 0.0
    n = len(rows)
    # KKT oracle for the min-norm solution of A x = w.
    K = np.zeros((2 * n + 6, 2 * n + 6))
    K[:2 * n, :2 * n] = 2.0 * np.eye(2 * n)
    K[:2 * n, 2 * n:] = A.T
    K[2 * n:, :2 * n] = A
    for _ in range(1000):
        f = rng.normal(size=3)
        f *= 10.0 * rng.random() ** (1 / 3) / np.linalg.norm(f)
        tau = rng.normal(size=3)
        tau *= 0.5 * rng.random() ** (1 / 3) / np.linalg.norm(tau)
        thrust, tilt, _ = allocate((f, tau), rows, 50.0, (0.0,) * n)
        w_vec = np.concatenate([f, tau])
        worst_rt = max(worst_rt, np.max(np.abs(np.concatenate(
            forward_wrench(thrust, tilt, columns)) - w_vec)))
        rhs = np.concatenate([np.zeros(2 * n), w_vec])
        x_kkt = np.linalg.solve(K, rhs)[:2 * n]
        x_got = np.concatenate([thrust * np.cos(tilt),
                                thrust * np.sin(tilt)])
        worst_mn = max(worst_mn, np.max(np.abs(x_got - x_kkt)))
    ok = worst_rt < 1e-9 and worst_mn < 1e-8
    return CheckResult(4, "allocation round-trip and min-norm", ok,
                       f"round-trip {worst_rt:.2e} (tol 1e-9), "
                       f"vs KKT oracle {worst_mn:.2e} (tol 1e-8)")


def check_5_pitch90_hover():
    cfg = ScenarioConfig(mission="hover", hover_pitch=math.pi / 2,
                         initial_offset=(0.1, 0.0, 0.0), duration=5.0)
    result = run_scenario(cfg)
    ep = result.column("ep_norm")
    eR = result.column("eR_norm")
    sat = result.column("sat_any")
    t = result.column("t")
    j = settle_index((ep < 0.01) & (eR < 0.01))
    conv = None if j is None else t[j]
    ok = conv is not None and conv <= 5.0 and not sat.any()
    return CheckResult(5, "90-degree-pitch hover", ok,
                       f"converged at t={conv} s, saturated ticks="
                       f"{int(sat.sum())}")


def _collocation_jerk_cost(p0, v0, a0, pf, vf, af, T, n_knots=200):
    """Piecewise-constant-jerk transcription oracle (scalar axis).

    The jerk is held constant over each of n_knots intervals and the triple
    integrator is propagated exactly, so the result is a feasible trajectory
    whose cost upper-bounds the continuous optimum.
    """
    M = n_knots
    h = T / M
    A = np.array([[1.0, h, 0.5 * h * h],
                  [0.0, 1.0, h],
                  [0.0, 0.0, 1.0]])
    B = np.array([h ** 3 / 6.0, 0.5 * h * h, h])
    # x_M = A^M x_0 + sum_k A^(M-1-k) B j_k = target  ->  C j = d
    C = np.empty((3, M))
    G = B.copy()
    for k in range(M - 1, -1, -1):
        C[:, k] = G
        G = A @ G
    d = np.array([pf, vf, af]) \
        - np.linalg.matrix_power(A, M) @ np.array([p0, v0, a0])
    j = C.T @ np.linalg.solve(C @ C.T, d)   # min ||j||^2 s.t. C j = d
    return float(h * j @ j)


def check_6_trajectory_optimality():
    rng = np.random.default_rng(6)
    worst_ratio = 0.0
    worst_bc = 0.0
    worst_fd = 0.0
    for _ in range(50):
        p0, v0, a0 = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        pf, vf, af = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        T = 1.0 + 3.0 * rng.random()
        coeffs = min_jerk_segment(p0, v0, a0, pf, vf, af, T)
        for t_b, want in ((0.0, (p0, v0, a0)), (T, (pf, vf, af))):
            got = np.array(quintic(coeffs, t_b))
            for g, w in zip(got, want):
                worst_bc = max(worst_bc, np.max(np.abs(g - w)))
        oracle = sum(
            _collocation_jerk_cost(p0[ax], v0[ax], a0[ax],
                                   pf[ax], vf[ax], af[ax], T)
            for ax in range(3))
        if oracle > 1e-12:
            worst_ratio = max(worst_ratio, jerk_cost(coeffs, T) / oracle)
        dh = 1e-4
        for tq in (0.3 * T, 0.7 * T):
            pp, vp, ap = np.array(quintic(coeffs, tq + dh))
            pm, vm, am = np.array(quintic(coeffs, tq - dh))
            _, v, a = np.array(quintic(coeffs, tq))
            worst_fd = max(worst_fd, np.max(np.abs((pp - pm) / (2 * dh) - v)),
                           np.max(np.abs((vp - vm) / (2 * dh) - a)))
    ok = worst_ratio <= 1.01 and worst_bc < 1e-9 and worst_fd < 1e-5
    return CheckResult(6, "trajectory optimality", ok,
                       f"cost/oracle {worst_ratio:.6f} (tol 1.01), boundary "
                       f"{worst_bc:.2e}, derivative {worst_fd:.2e}")


def check_7_full_pipeline():
    m = run_variant("proposed").metrics
    wall_s = _RUNS["proposed"][1]
    checks = {
        "perch within 30 s of signal": m.perch_achieved
                                       and m.time_to_perch_s <= 30.0,
        "release occurs": m.unperch_achieved,
        "min_clearance > 0.05 m": m.min_clearance_m > 0.05,
        "z_drop < 0.2 m": m.z_drop_m < 0.2,
        "settles within 5 s": m.settle_time_after_release_s <= 5.0,
        "runtime < 60 s": wall_s < 60.0,
    }
    bad = [k for k, v in checks.items() if not v]
    return CheckResult(7, "full pipeline (proposed)", not bad,
                       f"perch {m.time_to_perch_s:.3f} s, clearance "
                       f"{m.min_clearance_m:.4f} m, drop {m.z_drop_m:.4f} m, "
                       f"settle {m.settle_time_after_release_s:.3f} s, wall "
                       f"{wall_s:.1f} s"
                       + (f"; failed: {bad}" if bad else ""))


def check_8_ablation_drop():
    base = run_variant("proposed").metrics
    ab = run_variant("no-transitions-rho0").metrics
    ok = ab.unperch_achieved and ab.z_drop_m >= 2.0 * base.z_drop_m
    return CheckResult(8, "ablation B drop (rho=0)", ok,
                       f"z_drop {ab.z_drop_m:.4f} m vs 2x proposed "
                       f"{2.0 * base.z_drop_m:.4f} m")


def check_9_ablation_recontact():
    base = run_variant("proposed").metrics
    ab = run_variant("no-transitions-rho0.5").metrics
    ok = ab.min_clearance_m <= 0.0 and base.min_clearance_m > 0.05
    return CheckResult(9, "ablation C re-contact (rho=0.5)", ok,
                       f"min_clearance {ab.min_clearance_m:.4f} m (<= 0) vs "
                       f"proposed {base.min_clearance_m:.4f} m (> 0.05)")


def check_10_saturation_ablation():
    base = run_variant("proposed").metrics
    ab = run_variant("no-freeze").metrics
    sat = ab.saturation_fraction.get("P", 0.0)
    base_sat = base.saturation_fraction.get("P", 0.0)
    ok = sat > 0.2 and base_sat == 0.0
    return CheckResult(10, "saturation ablation (no-freeze)", ok,
                       f"P saturation {sat:.3f} (> 0.2) vs proposed "
                       f"{base_sat:.3f} (= 0)")


def _sha256_sink():
    """A text sink that keeps only the SHA-256 of the lines written to it,
    so the whole CSV text is never held."""
    sha = hashlib.sha256()

    def writelines(lines):
        for line in lines:
            sha.update(line.encode())
    return SimpleNamespace(writelines=writelines, hexdigest=sha.hexdigest)


def check_11_determinism():
    # The first run's CSV is rendered from its rows by to_csv, the repeat's
    # streamed from the tick loop as `perchsim run` writes it.
    first, again = _sha256_sink(), _sha256_sink()
    run_variant("proposed").to_csv(first)
    run_scenario(default_scenario(), again)
    sha, repeat = first.hexdigest(), again.hexdigest()
    ok = sha == repeat and sha == GOLDEN_SHA256
    return CheckResult(11, "determinism", ok,
                       f"repeat identical={sha == repeat}, sha256 "
                       f"{'matches' if sha == GOLDEN_SHA256 else sha}")


def _orthonormality(state):
    _, _, R, _ = state
    R = np.reshape(R, (3, 3))
    return np.max(np.abs(R.T @ R - np.eye(3)))


def check_12_physics_sanity():
    params = replace(ScenarioConfig().build()[0], g=0.0)
    state = ZERO3, (0.3, -0.2, 0.5), EYE, (2.0, -1.5, 1.0)
    wrench = forward_wrench((0.0,) * 4, (0.0,) * 4, params.rotors[1])
    dist = ZERO3, ZERO3
    contact = ContactState(gap=1e6)
    dt = 1e-3

    (jx, jy, jz), m = params.J, params.m

    def energy(s):
        _, (vx, vy, vz), _, (wx, wy, wz) = s
        return 0.5 * m * (vx * vx + vy * vy + vz * vz) \
            + 0.5 * (jx * wx * wx + jy * wy * wy + jz * wz * wz)

    e0 = energy(state)
    worst_e = 0.0
    worst_orth = 0.0
    for k in range(1_000_000):
        state = integrate(state, wrench, dist, contact, params, dt)
        if k < 10_000:
            worst_e = max(worst_e, abs(energy(state) - e0) / e0)
        if k % 1000 == 999:
            worst_orth = max(worst_orth, _orthonormality(state))
    worst_orth = max(worst_orth, _orthonormality(state))
    ok = worst_e < 1e-6 and worst_orth < 1e-8
    return CheckResult(12, "physics sanity", ok,
                       f"energy drift {worst_e:.2e} (tol 1e-6), "
                       f"orthonormality {worst_orth:.2e} (tol 1e-8)")


CHECKS = [
    check_1_mode_machine,
    check_2_estimator_law,
    check_3_freeze_semantics,
    check_4_allocation,
    check_5_pitch90_hover,
    check_6_trajectory_optimality,
    check_7_full_pipeline,
    check_8_ablation_drop,
    check_9_ablation_recontact,
    check_10_saturation_ablation,
    check_11_determinism,
    check_12_physics_sanity,
]
