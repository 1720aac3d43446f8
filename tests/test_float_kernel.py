"""The plain-float tick against numpy statements of the same formulas.

Each stage of the 1 kHz loop runs on float tuples.  Every test here restates
a stage's formula with numpy arrays, as the stage was written before it moved
to floats, and requires agreement to 1e-12, on inputs that also reach the
branches the default mission never takes.  The last tests keep `sum()` out
of the tick, so its output does not depend on the interpreter's summation,
keep the tick's clamps in their comparison form, and keep comprehensions
(a function frame each) out of the stages that run every tick.
"""

import ast
import inspect
import math
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from perchsim import allocation, control, estimation, geometry, harness, \
    planner, supervisor, vehicle
from perchsim.scenario import ScenarioConfig, default_scenario
from perchsim.vehicle import ContactState
from so3 import flat, mat, right_jacobian_inv, rot_x, rot_z

TOL = 1e-12
DEFAULT_PARAMS, DEFAULT_WALL = ScenarioConfig().build()
# Three distinct principal moments, so the gyroscopic terms do not cancel.
PARAMS = replace(DEFAULT_PARAMS, J=(9e-3, 8e-3, 1.4e-2))
WALL = replace(DEFAULT_WALL, point=(1.0, 0.2, 1.2), normal=(-0.8, 0.5, 0.2))
B3 = np.array([0.0, 0.0, 1.0])


def close(new, ref, tol=TOL):
    return np.max(np.abs(np.subtract(new, ref))) < tol


def hat(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def axis_angle(axis, angle):
    """R = exp(angle * hat(axis)) for a unit axis, as a 3x3 array."""
    K = hat(np.asarray(axis, float) / np.linalg.norm(axis))
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * K @ K


def np_log(R):
    theta = math.acos(min(1.0, max(-1.0, 0.5 * (np.trace(R) - 1.0))))
    w = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0],
                        R[1, 0] - R[0, 1]])
    if theta < 1e-8:
        return w
    if math.pi - theta > 1e-6:
        return (theta / math.sin(theta)) * w
    S = 0.5 * (R + np.eye(3))
    k = int(np.argmax(np.diag(S)))
    axis = S[:, k] / math.sqrt(S[k, k])
    axis = axis / np.linalg.norm(axis)
    s = np.linalg.norm(w)
    if s > 1e-12:
        theta = math.pi - math.asin(min(1.0, s))
        if np.dot(w, axis) < 0.0:
            axis = -axis
    else:
        for c in axis:
            if abs(c) > 1e-12:
                if c < 0.0:
                    axis = -axis
                break
    return theta * axis


def np_quat(R):
    tr = np.trace(R)
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    else:
        k = int(np.argmax(np.diag(R)))
        i, j = (k + 1) % 3, (k + 2) % 3
        s = math.sqrt(1.0 + R[k, k] - R[i, i] - R[j, j]) * 2.0
        q = np.empty(4)
        q[0] = (R[j, i] - R[i, j]) / s
        q[1 + k] = 0.25 * s
        q[1 + i] = (R[i, k] + R[k, i]) / s
        q[1 + j] = (R[j, k] + R[k, j]) / s
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def np_right_jacobian(v, inverse=False):
    theta2 = float(v @ v)
    K = hat(v)
    if theta2 < 1e-8:
        c1, c2 = (0.5, 1.0 / 12.0) if inverse else (-0.5, 1.0 / 6.0)
    elif inverse:
        theta = math.sqrt(theta2)
        c1 = 0.5
        c2 = 1.0 / theta2 - (1.0 + math.cos(theta)) \
            / (2.0 * theta * math.sin(theta))
    else:
        theta = math.sqrt(theta2)
        c1 = -(1.0 - math.cos(theta)) / theta2
        c2 = (theta - math.sin(theta)) / (theta2 * theta)
    return np.eye(3) + c1 * K + c2 * K @ K


ROTATIONS = {
    "identity": np.eye(3),
    "small": axis_angle([0.3, -0.5, 0.8], 3e-9),
    "generic": rot_z(0.4) @ mat(geometry.rot_y(-0.3)) @ rot_x(0.2),
    "large": axis_angle([0.2, 0.9, -0.4], 2.9),
    "near-pi": axis_angle([0.6, -0.3, 0.7], math.pi - 3e-7),
    "near-pi-flipped": axis_angle([0.6, -0.3, -0.7], math.pi - 3e-7),
    "pi-x": np.diag([1.0, -1.0, -1.0]),
    "pi-y": np.diag([-1.0, 1.0, -1.0]),
    "pi-z": np.diag([-1.0, -1.0, 1.0]),
    "pi-oblique": axis_angle([-0.3, 0.5, 0.8], math.pi),
    # Trace <= 0 with the largest diagonal entry at each index, and w < 0.
    "trace<0-x": axis_angle([1.0, 0.1, 0.2], 2.5),
    "trace<0-y": axis_angle([0.1, -1.0, 0.2], 2.5),
    "trace<0-z": axis_angle([0.2, 0.1, 1.0], -2.5),
}


@pytest.mark.parametrize("name", sorted(ROTATIONS))
def test_rotation_readouts_match_numpy(name):
    R = ROTATIONS[name]
    Rd = ROTATIONS["generic"]
    assert close(geometry.log_so3(flat(R)), np_log(R))
    assert close(geometry.rotation_error(flat(R), flat(Rd)), np_log(R.T @ Rd))
    assert close(geometry.quat_of(flat(R)), np_quat(R))
    assert geometry.pitch_of(flat(R)) == math.asin(min(1.0, max(-1.0,
                                                                -R[2, 0])))


def test_log_branches_reached():
    # The cases above cover every branch of log_so3 and quat_of.
    traces = {n: np.trace(R) for n, R in ROTATIONS.items()}
    assert math.acos(0.5 * (traces["small"] - 1.0)) < 1e-8
    assert 0.0 < math.pi - math.acos(0.5 * (traces["near-pi"] - 1.0)) < 1e-6
    R = ROTATIONS["near-pi-flipped"]
    assert np_log(R)[int(np.argmax(np.diag(R)))] < 0.0   # the axis flips
    assert np.linalg.norm(np_log(ROTATIONS["pi-oblique"])) \
        == pytest.approx(math.pi)
    for k, axis in enumerate("xyz"):
        R = ROTATIONS[f"trace<0-{axis}"]
        assert np.trace(R) <= 0.0 and int(np.argmax(np.diag(R))) == k
    R = ROTATIONS["trace<0-z"]
    assert R[1, 0] - R[0, 1] < 0.0      # the quaternion flips sign


@pytest.mark.parametrize("scale", [0.0, 1e-5, 0.7, 2.5])
def test_right_jacobians_match_numpy(scale):
    rng = np.random.default_rng(31)
    for _ in range(20):
        phi = scale * rng.normal(size=3) / math.sqrt(3.0)
        x = rng.normal(size=3)
        assert close(geometry.right_jacobian(phi, x),
                     np_right_jacobian(phi) @ x)
        # The planner oracle's closed-form inverse (tests/so3.py).
        assert close(right_jacobian_inv(phi, x),
                     np_right_jacobian(phi, inverse=True) @ x)


def test_matrix_helpers_match_numpy():
    rng = np.random.default_rng(32)
    for _ in range(20):
        A, B, x = rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), \
            rng.normal(size=3)
        assert close(geometry.mat_vec(flat(A), x), A @ x)
        assert close(geometry.mat_t_vec(flat(A), x), A.T @ x)
        assert close(geometry.mat_mul(flat(A), flat(B)), flat(A @ B))
        assert close(geometry.mat_t_mul(flat(A), flat(B)), flat(A.T @ B))


def _state(R=ROTATIONS["generic"]):
    return (0.1, -0.2, 1.3), (0.4, -0.1, 0.2), flat(R), (1.5, -2.0, 0.7)


def test_controllers_match_numpy():
    state = p, v, R_flat, omega = _state()
    R = mat(R_flat)
    Rd = ROTATIONS["large"]
    sp = p_d, v_d, a_d, R_d, w_d = ((0.3, 0.1, 1.1), (0.2, 0.0, -0.1),
                                    (0.5, -0.3, 0.2), flat(Rd),
                                    (0.1, 0.4, -0.2))
    cfg = ScenarioConfig(integral_clamp=0.05)
    e_R = geometry.rotation_error(R_flat, R_d)
    integ = (0.049, -0.04, 0.0)
    (f_out, tau_out), acc = control.nominal_wrench(state, sp, e_R, cfg, integ,
                                                   PARAMS, 0.01)

    e_p = np.subtract(p_d, p)
    e_v = np.subtract(v_d, v)
    f = PARAMS.m * (R.T @ (PARAMS.g * B3 + cfg.k_tp * e_p
                           + cfg.k_td * e_v + np.array(a_d)))
    e_w = R.T @ Rd @ w_d - np.array(omega)
    acc_ref = np.clip(np.add(integ, np.multiply(e_R, 0.01)), -0.05, 0.05)
    tau = np.diag(PARAMS.J) @ (cfg.k_rp * np.array(e_R) + cfg.k_rd * e_w
                               + cfg.k_ri * acc_ref)
    assert acc_ref[1] == -0.05          # one component clamps
    assert close(f_out, f) and close(tau_out, tau) and close(acc, acc_ref)

    delta_hat = (1.5, -0.4, 2.0)
    assert close(control.rejection_force(delta_hat, R_flat),
                 -(R.T @ delta_hat))
    assert control.perch_wrench(0.0, R_flat, PARAMS) \
        == (geometry.ZERO3,) * 2
    pw_f, pw_tau = control.perch_wrench(0.5, R_flat, PARAMS)
    assert close(pw_f, 0.5 * PARAMS.m * PARAMS.g * (R.T @ B3))
    assert pw_tau == (0.0, 0.0, 0.0)


def _idle_and_saturated_wrench(geom):
    """A wrench whose min-norm solution idles rotor 0 and saturates one."""
    A = geom.A
    # Row-space vectors A^T y with both of rotor 0's components zero.
    null = np.linalg.svd(A[:, [0, 4]].T)[2][2:]
    x = A.T @ null.T @ np.array([1.0, -0.5, 0.3, 0.8])
    x *= 12.0 / np.max(np.hypot(x[:4], x[4:]))
    return tuple(np.split(A @ x, 2))


def test_allocation_matches_numpy():
    geom = DEFAULT_PARAMS.rotors
    A = geom.A
    prev = (0.3, -0.2, 0.1, 0.05)
    w = _idle_and_saturated_wrench(geom)
    cmd_thrust, cmd_tilt, cmd_saturated = allocation.allocate(w, geom, 8.0,
                                                              prev)

    x = np.linalg.pinv(A) @ np.concatenate(w)
    thrust = np.hypot(x[:4], x[4:])
    tilt = np.arctan2(x[4:], x[:4])
    idle = thrust < allocation.THRUST_EPS
    tilt[idle] = np.array(prev)[idle]
    saturated = thrust > 8.0
    thrust[saturated] = 8.0
    assert idle[0] and saturated.any() and not saturated.all()
    assert close(cmd_thrust, thrust) and close(cmd_tilt, tilt)
    assert cmd_saturated is bool(saturated.any())

    back_f, back_tau = vehicle.forward_wrench(cmd_thrust, cmd_tilt, geom)
    ref = A @ np.concatenate([thrust * np.cos(tilt), thrust * np.sin(tilt)])
    assert close(back_f, ref[:3]) and close(back_tau, ref[3:])


def test_estimator_matches_numpy():
    state = _, v, R_flat, _ = _state()
    R = mat(R_flat)
    m, g = PARAMS.m, PARAMS.g
    est = delta_hat, accumulator, p_m0, _ = \
        (1.5, -0.4, 2.0), (0.2, 0.1, -0.3), (0.5, 0.2, 0.1), False
    f_body, K_e = (0.4, -0.3, 16.5), 20.0
    out_hat, out_acc, _, _ = estimation.update(est, state, f_body, K_e,
                                               PARAMS, 0.002)
    acc = np.array(accumulator) + (R @ f_body - m * g * B3
                                   + delta_hat) * 0.002
    delta = K_e * (m * np.array(v) - p_m0 - acc)
    assert close(out_acc, acc) and close(out_hat, delta)

    out_hat, _, out_p_m0, out_frozen = estimation.fresh(state, PARAMS, K_e,
                                                        delta_hat)
    assert close(out_p_m0, m * np.array(v) - np.array(delta_hat) / K_e)
    assert out_hat == delta_hat and not out_frozen
    out_hat, out_acc, out_p_m0, _ = estimation.fresh(state, PARAMS, K_e)
    assert close(out_p_m0, m * np.array(v))
    assert out_hat == out_acc == (0.0, 0.0, 0.0)
    assert close(estimation.contact_normal_force(delta_hat, WALL),
                 np.dot(WALL.normal, delta_hat))


def test_actuators_match_numpy():
    params = replace(DEFAULT_PARAMS, T_max=5.0)
    act = act_T, act_nu, act_eta = ((0.02, 4.99, 3.0, 2.0),
                                    (0.1, -0.2, 0.0, 0.3), 0.5)
    cmd = cmd_T, cmd_nu, _ = ((-3.0, 9.0, 3.5, 2.0),
                              (0.5, -0.2002, -1.0, 0.3), False)
    dt = 0.001
    out_T, out_nu, out_eta = vehicle.step_actuators(act, cmd, 1.0, dt, params)
    a_T, a_nu = np.array(act_T), np.array(act_nu)
    thrust = np.clip(a_T + (np.array(cmd_T) - a_T)
                     * (dt / params.tau_rotor), 0.0, params.T_max)
    d = params.tilt_rate_max * dt
    tilt = a_nu + np.clip(np.array(cmd_nu) - a_nu, -d, d)
    assert thrust[0] == 0.0 and thrust[1] == params.T_max
    assert close(out_T, thrust) and close(out_nu, tilt)
    assert out_eta == act_eta + dt / params.t_ps


def _at_gap(gap, R=ROTATIONS["generic"]):
    """A state whose magnet face sits `gap` in front of WALL."""
    p = np.array(WALL.point) + gap * np.array(WALL.normal) - R @ WALL.c_m
    return flat(p), (0.1, 0.0, 0.0), flat(R), (0.0,) * 3


def np_gap(state):
    p, _, R, _ = state
    face = np.array(p) + mat(R) @ WALL.c_m
    return float(np.dot(WALL.normal, face - WALL.point))


CONTACT_CASES = {
    # name: (gap, eta, attached before, applied pull along the normal)
    "attached": (0.0, 1.0, True, 2.0),
    "attached-partial-servo": (0.0, 0.5, True, -3.0),
    "peeling": (0.0, 0.04, True, 0.0),
    "pulled-off": (0.0, 0.9, True, 40.0),
    "attach": (0.0008, 0.96, False, 0.0),
    "near-field": (0.02, 0.97, False, 0.0),
    "far": (0.2, 1.0, False, 0.0),
    "servo-open": (0.02, 0.5, False, 0.0),
}


@pytest.mark.parametrize("name", sorted(CONTACT_CASES))
def test_contact_matches_numpy(name):
    gap, eta, attached, pull = CONTACT_CASES[name]
    state = _at_gap(gap)
    act = (0.0,) * 4, (0.0,) * 4, eta
    before = ContactState(attached, 0.0 if attached else gap, 0.0)
    n = np.array(WALL.normal)
    applied = PARAMS.m * PARAMS.g * B3 + pull * n + (0.3, -0.4, 0.0)
    out, edge = vehicle.update_contact(state, act, applied, before, WALL,
                                       PARAMS)

    g = np_gap(state)
    assert abs(WALL.gap_of(state) - g) < TOL
    near = np.zeros(3)
    if attached:
        hold = 1.0 if eta >= 0.95 else eta
        np_pull = float(n @ (applied - PARAMS.m * PARAMS.g * B3))
        if eta <= 0.05:
            want = (False, g, 0.0, "release")
        elif np_pull > WALL.F_mag * hold:
            want = (False, g, 0.0, "forcible-detach")
        else:
            want = (True, 0.0, WALL.F_mag * hold - np_pull, None)
    elif eta >= 0.95 and g <= WALL.eps_attach:
        want = (True, 0.0, WALL.F_mag, "attach")
    else:
        want = (False, g, 0.0, None)
        if eta >= 0.95 and 0.0 < g < WALL.d_mag:
            near = -WALL.F_mag * (1.0 - g / WALL.d_mag) * n
    assert (out.attached, edge) == (want[0], want[3])
    assert close((out.gap, out.lambda_true), want[1:3])
    assert close(out.nearfield_force, near)


def test_contact_cases_reach_every_branch():
    kinds = set()
    for gap, eta, attached, pull in CONTACT_CASES.values():
        out, edge = vehicle.update_contact(
            _at_gap(gap), ((0.0,) * 4, (0.0,) * 4, eta),
            PARAMS.m * PARAMS.g * B3 + np.multiply(pull, WALL.normal),
            ContactState(attached), WALL, PARAMS)
        kinds.add((attached, out.attached, any(out.nearfield_force), edge))
    assert kinds == {(True, True, False, None),
                     (True, False, False, "release"),
                     (True, False, False, "forcible-detach"),
                     (False, True, False, "attach"),
                     (False, False, True, None), (False, False, False, None)}


def test_plan_segments_match_numpy():
    rng = np.random.default_rng(33)
    b = rng.normal(size=(6, 3))
    coeffs = planner.min_jerk_segment(*b, 2.5)
    c = np.array(coeffs)
    R0 = ROTATIONS["generic"]
    rot = planner.min_accel_rotation(flat(R0), flat(ROTATIONS["large"]),
                                     b[0], 2.5)
    cr = np.column_stack([np.zeros(3), rot])
    for t in (0.0, 1e-4, 0.7, 2.5):
        ref = (c @ [1.0, t, t ** 2, t ** 3, t ** 4, t ** 5],
               c @ [0.0, 1.0, 2 * t, 3 * t ** 2, 4 * t ** 3, 5 * t ** 4],
               c @ [0.0, 0.0, 2.0, 6 * t, 12 * t ** 2, 20 * t ** 3])
        assert all(close(x, y) for x, y in zip(planner.quintic(coeffs, t),
                                               ref))
        phi = cr[:, 1] * t + cr[:, 2] * t ** 2 + cr[:, 3] * t ** 3
        dphi = cr[:, 1] + 2 * cr[:, 2] * t + 3 * cr[:, 3] * t ** 2
        R, omega = planner.rotation_at(flat(R0), rot, t)
        assert close(R, flat(R0 @ mat(geometry.exp_so3(*phi))))
        assert close(omega, np_right_jacobian(phi) @ dphi)


def test_disturbance_matches_numpy():
    cfg = ScenarioConfig(disturbances=[
        (0.0, 2.0, 1.0, -0.5, 0.25, 0.1, 0.2, -0.3),
        (1.0, 3.0, 0.3, 0.2, -0.1, 0.05, -0.1, 0.4),
        (2.5, 4.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0)])
    for t in (0.5, 1.0, 2.0, 2.5, 5.0):
        df, dr = np.zeros(3), np.zeros(3)
        for t0, t1, *vals in cfg.disturbances:
            if t0 <= t < t1:
                df += vals[:3]
                dr += vals[3:]
        assert harness._disturbance_at(cfg, t) == (tuple(df), tuple(dr))


# The values passed from stage to stage, as their tuple layout with each
# leaf's type: a wrench (f, tau), the disturbances (delta_f, delta_r), a
# command (thrust, tilt, saturated), an actuator state (thrust, tilt, eta),
# a setpoint (p, v, a, R, omega), a vehicle state (p, v, R, omega), an
# estimator state (delta_hat, accumulator, p_m0, frozen) and a plan segment
# (start, T, translation, R0, rotation).  nominal_wrench also returns the
# attitude integral.
VEC3 = (float,) * 3
WRENCH = (VEC3, VEC3)
ESTIMATOR = (VEC3, VEC3, VEC3, bool)
PLAIN_OUTPUTS = {
    "nominal_wrench": (WRENCH, VEC3), "perch_wrench": WRENCH,
    "forward_wrench": WRENCH, "_disturbance_at": (VEC3, VEC3),
    "allocate": ((float,) * 4, (float,) * 4, bool),
    "step_actuators": ((float,) * 4, (float,) * 4, float),
    "sample": (VEC3, VEC3, VEC3, (float,) * 9, VEC3),
    "integrate": (VEC3, VEC3, (float,) * 9, VEC3),
    "fresh": ESTIMATOR, "update": ESTIMATOR, "freeze": ESTIMATOR,
    "connect": (float, float, ((float,) * 6,) * 3, (float,) * 9, (VEC3,) * 3)}
# Where the run looks each stage up, if not in the harness's globals.
OWNERS = {"sample": harness.MissionPlanner, "fresh": estimation,
          "update": estimation, "freeze": estimation, "connect": planner}


def layout(x):
    """x's nesting of exact tuples (a subclass is a leaf), leaves as types."""
    return tuple(map(layout, x)) if type(x) is tuple else type(x)


def test_stage_outputs_are_plain_tuples(monkeypatch):
    seen = {name: set() for name in PLAIN_OUTPUTS}

    def spy(name, fn):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen[name].add(layout(out))
            return out
        return recorded
    for name in PLAIN_OUTPUTS:
        owner = OWNERS.get(name, harness)
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    # The default mission, shortened: every mode, and its disturbance pulse.
    cfg = default_scenario()
    cfg.events, cfg.duration = [(1.0, "s_f2p"), (4.5, "s_p2f")], 6.0
    cfg.disturbances = [(0.5, 30.0, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0)]
    result = harness.run_scenario(cfg)
    assert set(result.modes) == {"F", "F2P", "P", "P2F"}
    assert {name: [want] for name, want in PLAIN_OUTPUTS.items()} \
        == {name: sorted(layouts, key=str) for name, layouts in seen.items()}


TICK_MODULES = (allocation, control, estimation, geometry, harness, planner,
                vehicle)


def _calls(node, name):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == name


@pytest.mark.parametrize("module", TICK_MODULES, ids=lambda m: m.__name__)
def test_tick_modules_sum_left_to_right(module):
    # Python 3.12 made sum() of floats compensated, and math.fsum always is:
    # either in the tick would tie the pinned CSV bytes to the interpreter.
    # A clamp is written as comparisons (about 190 ns cheaper per call than
    # min(max(..))), so a nested min/max pair is rejected too.
    calls = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in ("sum", "fsum") or \
                    isinstance(f, ast.Attribute) and f.attr == "fsum":
                calls.append(f"line {node.lineno}")
            for outer, inner in (("min", "max"), ("max", "min")):
                if _calls(node, outer) \
                        and any(_calls(arg, inner) for arg in node.args):
                    calls.append(f"{outer}({inner}(..)) line {node.lineno}")
    assert not calls, \
        f"sum()/fsum() or a min/max clamp in {module.__name__}: {calls}"


# The stages run_scenario calls on every tick; the guard below also reads
# everything they call.
EVERY_TICK = (harness.MissionPlanner.sample, supervisor.transition,
              estimation.freeze, estimation.update,
              estimation.contact_normal_force, geometry.rotation_error,
              control.perch_wrench, control.nominal_wrench,
              control.rejection_force, allocation.allocate,
              vehicle.step_actuators, vehicle.forward_wrench, geometry.mat_vec,
              vehicle.update_contact, geometry.pitch_of, geometry.quat_of,
              vehicle.integrate)
# The loop's other calls run at mode, contact and disturbance-pulse edges,
# and once per block of the log: the whole log for a library run, _BLOCK
# rows when the log streams to a file.
ON_EDGES = (harness.MissionPlanner.start_approach,
            harness.MissionPlanner.start_departure, harness._disturbance_at,
            estimation.fresh, vehicle.at_rest, harness._flush_block)
# Their comprehensions sit only in branches that run rarely: log_so3's near
# pi, quat_of's for a rotation with a negative quaternion scalar part.
RARE_BRANCHES = (geometry.log_so3, geometry.quat_of)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _methods():
    """Method name -> the methods of that name in the tick's modules."""
    found = {}
    for module in TICK_MODULES + (supervisor,):
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                for name, attr in vars(cls).items():
                    fn = getattr(attr, "__func__", attr)   # staticmethod
                    if inspect.isfunction(fn):
                        found.setdefault(name, []).append(fn)
    return found


METHODS = _methods()


def _source_tree(fn):
    return ast.parse(textwrap.dedent(inspect.getsource(fn)))


def _callees(tree, namespace):
    """The perchsim functions called in `tree`: by name or dotted path
    through `namespace`, or, for a call on an object, every tick-module
    method of that name."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f, path = node.func, []
        while isinstance(f, ast.Attribute):
            path.insert(0, f.attr)
            f = f.value
        target = namespace.get(f.id) if isinstance(f, ast.Name) else None
        for attr in path:
            target = getattr(target, attr, None)
        if target is None and path:
            found += METHODS.get(path[-1], [])
        elif inspect.isfunction(target) \
                and target.__module__.startswith("perchsim"):
            found.append(target)
    return found


def _reached(roots):
    seen, todo = [], list(roots)
    while todo:
        fn = todo.pop()
        if fn not in seen:
            seen.append(fn)
            todo += _callees(_source_tree(fn), fn.__globals__)
    return seen


def test_every_tick_stage_list_is_complete():
    loop = next(node for node in ast.walk(_source_tree(harness.run_scenario))
                if isinstance(node, ast.For) and _calls(node.iter, "range"))
    known = _reached(EVERY_TICK) + list(ON_EDGES)
    missing = [fn.__qualname__ for fn in _callees(loop, vars(harness))
               if fn not in known]
    assert not missing, f"list {missing} in EVERY_TICK or ON_EDGES"


def test_every_tick_stages_build_no_comprehension():
    # A comprehension runs in a function frame of its own on Python 3.11,
    # so a stage that runs every tick writes its loop out instead.
    found = [f"{fn.__qualname__} line "
             f"{fn.__code__.co_firstlineno + node.lineno - 1}"
             for fn in _reached(EVERY_TICK) if fn not in RARE_BRANCHES
             for node in ast.walk(_source_tree(fn))
             if isinstance(node, COMPREHENSIONS)]
    assert not found, f"comprehension in an every-tick stage: {found}"
