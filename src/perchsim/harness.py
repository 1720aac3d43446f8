"""Deterministic fixed-step simulation loop, telemetry, and outcome metrics.

Tick order is fixed: planner -> supervisor -> estimation -> control ->
allocation -> actuators -> contact -> integrate.  Reordering is a breaking
change (guarded by a golden-file test).  One log record is emitted per tick;
identical configuration and seed produce byte-identical CSV output.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import estimation
from .allocation import Wrench, allocate, forward_wrench
from .control import AttitudeIntegral, Setpoint, nominal_wrench, perch_wrench, \
    rejection_force
from .geometry import B3, pitch_of, quat_of, rotation_error
from .planner import Plan, connect, hold_segment, perch_setpoints
from .scenario import ScenarioConfig
from .supervisor import VARIANTS, Mode, SupervisorState, transition, \
    transition_two_mode
from .vehicle import ActuatorState, ContactState, Disturbances, \
    NumericalDivergenceError, VehicleState, integrate, step_actuators, \
    update_contact

CSV_COLUMNS = [
    "t", "px", "py", "pz", "vx", "vy", "vz", "pitch",
    "qw", "qx", "qy", "qz", "wx", "wy", "wz",
    "mode", "attached", "eta_d", "eta",
    "T1", "T2", "T3", "T4", "Tcmd1", "Tcmd2", "Tcmd3", "Tcmd4",
    "nu1", "nu2", "nu3", "nu4",
    "dhatx", "dhaty", "dhatz", "lambda_hat", "lambda_true",
    "eR_norm", "ep_norm", "sat_any",
]

# Numeric columns in row order (mode is interleaved only at CSV render time).
_NUM_COLUMNS = [c for c in CSV_COLUMNS if c != "mode"]
_COL = {name: i for i, name in enumerate(_NUM_COLUMNS)}


@dataclass
class Metrics:
    perch_achieved: bool = False
    perch_time: float = math.nan
    time_to_perch: float = math.nan
    unperch_achieved: bool = False
    release_time: float = math.nan
    z_drop: float = math.nan
    min_clearance: float = math.nan
    saturation_fraction: dict = field(default_factory=dict)
    max_eR: dict = field(default_factory=dict)
    settle_time_after_release: float = math.nan
    completed: bool = True
    failure: str = ""

    def to_dict(self):
        def clean(x):
            return None if isinstance(x, float) and math.isnan(x) else x
        return {
            "perch_achieved": self.perch_achieved,
            "perch_time_s": clean(self.perch_time),
            "time_to_perch_s": clean(self.time_to_perch),
            "unperch_achieved": self.unperch_achieved,
            "release_time_s": clean(self.release_time),
            "z_drop_m": clean(self.z_drop),
            "min_clearance_m": clean(self.min_clearance),
            "saturation_fraction": self.saturation_fraction,
            "max_eR_rad": self.max_eR,
            "settle_time_after_release_s": clean(
                self.settle_time_after_release),
            "completed": self.completed,
            "failure": self.failure,
        }


@dataclass
class SimResult:
    cfg: ScenarioConfig
    rows: np.ndarray                 # (n, len(_NUM_COLUMNS))
    modes: list                      # mode name per tick
    gaps: np.ndarray                 # magnet-face gap per tick (not in CSV)
    events: list                     # (t, kind, detail)
    metrics: Metrics = None

    def column(self, name):
        return self.rows[:, _COL[name]]

    def to_csv(self):
        lines = [",".join(CSV_COLUMNS)]
        mode_pos = CSV_COLUMNS.index("mode")
        for i in range(len(self.modes)):
            vals = [format(x, ".12g") for x in self.rows[i]]
            vals.insert(mode_pos, self.modes[i])
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"


class MissionPlanner:
    """Owns the active plan; rebuilds it on supervisor edges."""

    def __init__(self, cfg, wall, plan_cfg):
        self.plan_cfg = plan_cfg
        self.t0 = 0.0
        if cfg.mission == "hover":
            sp = Setpoint.hold(plan_cfg.hover_p, plan_cfg.hover_R)
            self.setpoints = [sp, sp, sp]
            self.plan = Plan([hold_segment(sp.p, sp.R, 1.0)])
            return
        self.setpoints = perch_setpoints(wall, plan_cfg)
        sp1, sp2, _ = self.setpoints
        self.plan = Plan([
            hold_segment(sp1.p, sp1.R, cfg.hold_time),
            connect(sp1, sp2, plan_cfg.T12, start=cfg.hold_time),
        ])

    def sample(self, t):
        return self.plan.sample(t - self.t0)

    def start_approach(self, t):
        """Fly from the current setpoint to the behind-surface target (3)."""
        cur = self.sample(t)
        self.plan = Plan([connect(cur, self.setpoints[2], self.plan_cfg.T23)])
        self.t0 = t

    def start_departure(self, t, contact, state):
        """Fly from the anchored pose out to (2) and back to hover (1)."""
        if contact.attached:
            start = Setpoint.hold(contact.anchor_p, contact.anchor_R)
        else:
            start = Setpoint.hold(state.p, state.R)
        sp1, sp2, _ = self.setpoints
        self.plan = Plan([
            connect(start, sp2, self.plan_cfg.T23),
            connect(sp2, sp1, self.plan_cfg.T12, start=self.plan_cfg.T23),
        ])
        self.t0 = t


def _disturbance_at(cfg, t):
    df = np.zeros(3)
    dr = np.zeros(3)
    for (t0, t1, fx, fy, fz, rx, ry, rz) in cfg.disturbances:
        if t0 <= t < t1:
            df += (fx, fy, fz)
            dr += (rx, ry, rz)
    return Disturbances(df, dr)


def run_scenario(cfg):
    """Run one scenario to completion; deterministic for a given config+seed."""
    params, wall, gains, switch, plan_cfg = cfg.build()
    rotors = params.rotors
    variant = VARIANTS[cfg.variant]
    transition_fn = transition_two_mode if variant.two_mode else transition

    state = VehicleState.at_rest(
        np.asarray(plan_cfg.hover_p) + np.asarray(cfg.initial_offset),
        plan_cfg.hover_R)
    # Start at hover trim for the initial attitude, not from dead rotors.
    trim = Wrench(params.m * params.g * state.R.T @ B3, np.zeros(3))
    trim_cmd = allocate(trim, rotors, params.T_max, np.zeros(rotors.n_rotors))
    act = ActuatorState(trim_cmd.thrust.copy(), trim_cmd.tilt.copy(), 0.0)
    w_act = forward_wrench(act.thrust, act.tilt, rotors)
    contact = ContactState(gap=wall.gap_of(state))
    sup = SupervisorState()
    integ = AttitudeIntegral(clamp=cfg.integral_clamp)
    planner = MissionPlanner(cfg, wall, plan_cfg)
    est_rej = estimation.EstimatorState.fresh(state, params, cfg.estimator_gain)
    est_con = estimation.EstimatorState.fresh(state, params, cfg.estimator_gain)
    contact_was_active = False
    lam_c = 0.0
    prev_tilt = trim_cmd.tilt.copy()

    noisy = cfg.noise_std_pos > 0 or cfg.noise_std_vel > 0
    rng = np.random.default_rng(cfg.seed) if noisy else None

    n_ticks = int(round(cfg.duration / cfg.dt))
    event_ticks = {}
    for t_ev, kind in cfg.events:
        event_ticks.setdefault(int(round(t_ev / cfg.dt)), []).append(kind)

    rows = np.empty((n_ticks, len(_NUM_COLUMNS)))
    modes = []
    gaps = np.empty(n_ticks)
    events = []
    completed = True
    failure = ""
    n_done = 0

    for k in range(n_ticks):
        t = k * cfg.dt

        if noisy:
            meas = state.copy()
            meas.p = meas.p + rng.normal(0.0, cfg.noise_std_pos, 3)
            meas.v = meas.v + rng.normal(0.0, cfg.noise_std_vel, 3)
        else:
            meas = state

        # 1. planner
        sp = planner.sample(t)

        # 2. supervisor
        kinds = event_ticks.get(k, ())
        s_f2p = "s_f2p" in kinds
        s_p2f = "s_p2f" in kinds
        for kind in kinds:
            events.append((t, "operator", kind))
        new_sup = transition_fn(sup, lam_c, s_f2p, s_p2f, switch)
        if new_sup.mode is not sup.mode:
            events.append((t, "mode",
                           f"{sup.mode.value}->{new_sup.mode.value}"))
            integ = integ.reset()
            if new_sup.mode is Mode.F2P:
                planner.start_approach(t)
            elif new_sup.mode is Mode.P2F:
                planner.start_departure(t, contact, state)
            # Two-mode ablation: P -> F keeps the stale approach plan, so no
            # control inputs for detaching are generated in advance.
            sp = planner.sample(t)
        if new_sup.eta_d != sup.eta_d:
            events.append((t, "eta_d",
                           "perch" if new_sup.eta_d else "unperch"))
            if variant.two_mode and new_sup.eta_d == 1.0:
                planner.start_approach(t)
                sp = planner.sample(t)
        sup = new_sup
        pol = variant.policies[sup.mode]

        # 3. estimation (consumes the wrench applied over the last interval)
        if pol.rejection_frozen or (variant.freeze_while_attached
                                    and contact.attached):
            # While attached the estimate would absorb the constraint force,
            # so the hold extends until the wall actually lets go.
            est_rej = estimation.freeze(est_rej)
        else:
            if est_rej.frozen:
                est_rej = estimation.unfreeze(est_rej, meas, params)
            est_rej = estimation.update(est_rej, meas, w_act.f, params,
                                        cfg.dt)
        if pol.contact_active:
            if not contact_was_active:
                est_con = estimation.rebase(est_con, meas, params)
            est_con = estimation.update(est_con, meas, w_act.f, params,
                                        cfg.dt)
            lam_c = estimation.contact_normal_force(est_con, wall)
        contact_was_active = pol.contact_active

        # 4. control
        if pol.wrench == "perch":
            wrench = perch_wrench(switch.rho, meas, params)
        else:
            wrench, integ = nominal_wrench(meas, sp, gains, integ, params,
                                           cfg.dt)
            if pol.wrench == "full":
                wrench.f = wrench.f + rejection_force(est_rej, meas.R)

        # 5. allocation
        cmd = allocate(wrench, rotors, params.T_max, prev_tilt)
        cmd.eta_d = sup.eta_d
        prev_tilt = cmd.tilt

        # 6. actuators
        act = step_actuators(act, cmd, cfg.dt, params)

        # 7. contact
        dist = _disturbance_at(cfg, t)
        w_act = forward_wrench(act.thrust, act.tilt, rotors)
        applied_world = state.R @ w_act.f + dist.delta_f
        new_contact = update_contact(state, act, applied_world, contact,
                                     wall, params)
        if new_contact.attached and not contact.attached:
            # Rigid inelastic lock: the impact velocity is absorbed by the
            # wall, so the state snaps to the anchored pose at rest.
            state = VehicleState(new_contact.anchor_p.copy(), np.zeros(3),
                                 new_contact.anchor_R.copy(), np.zeros(3))
            events.append((t, "contact", "attach"))
        elif contact.attached and not new_contact.attached:
            detail = "release" if act.eta <= 0.05 else "forcible-detach"
            events.append((t, "contact", detail))
        contact = new_contact

        # log the state the controller acted on, plus this tick's outputs
        e_R = rotation_error(state.R, sp.R)
        q = quat_of(state.R)
        row = rows[k]
        row[0] = t
        row[1:4] = state.p
        row[4:7] = state.v
        row[7] = pitch_of(state.R)
        row[8:12] = q
        row[12:15] = state.omega
        row[15] = 1.0 if contact.attached else 0.0
        row[16] = sup.eta_d
        row[17] = act.eta
        row[18:22] = act.thrust
        row[22:26] = cmd.thrust
        row[26:30] = act.tilt
        row[30:33] = est_rej.delta_hat
        row[33] = lam_c
        row[34] = contact.lambda_true
        row[35] = np.linalg.norm(e_R)
        row[36] = np.linalg.norm(sp.p - state.p)
        row[37] = 1.0 if cmd.saturated.any() else 0.0
        modes.append(sup.mode.value)
        gaps[k] = contact.gap if not contact.attached else 0.0
        n_done = k + 1

        # 8. integrate
        try:
            state = integrate(state, act, dist, contact, wall, params, cfg.dt)
        except NumericalDivergenceError as exc:
            events.append((t, "failure", f"numerical-abort: {exc}"))
            completed = False
            failure = "numerical-abort"
            break
        if state.p[2] <= 0.0:
            events.append((t, "failure", "ground-contact"))
            completed = False
            failure = "ground-contact"
            break

    result = SimResult(cfg, rows[:n_done], modes, gaps[:n_done], events)
    result.metrics = compute_metrics(result, completed=completed,
                                     failure=failure)
    return result


def settle_index(ok):
    """First index from which `ok` stays true to the end, or None."""
    bad = np.flatnonzero(~ok)
    j = bad[-1] + 1 if len(bad) else 0
    return int(j) if j < len(ok) else None


def compute_metrics(result, completed=True, failure=""):
    """Derive outcome measures from a finished (possibly aborted) run."""
    if len(result.modes) == 0:
        raise ValueError("cannot compute metrics from an empty log")
    cfg = result.cfg
    t = result.column("t")
    z = result.column("pz")
    attached = result.column("attached") > 0.5
    ep = result.column("ep_norm")
    eR = result.column("eR_norm")
    sat = result.column("sat_any") > 0.5
    modes = np.array(result.modes)

    m = Metrics(completed=completed, failure=failure)

    t_signal = next((te for te, kind, detail in result.events
                     if kind == "operator" and detail == "s_f2p"), None)
    t_attach = next((te for te, kind, detail in result.events
                     if kind == "contact" and detail == "attach"), None)
    if t_attach is not None:
        m.perch_achieved = True
        m.perch_time = t_attach
        if t_signal is not None:
            m.time_to_perch = t_attach - t_signal
    t_release = next((te for te, kind, detail in result.events
                      if kind == "contact" and detail == "release"), None)
    if t_release is not None:
        m.unperch_achieved = True
        m.release_time = t_release
        after = t > t_release
        if after.any():
            z_rel = float(z[np.searchsorted(t, t_release, side="right") - 1])
            m.z_drop = float(np.max(z_rel - z[after]))
            g_after = result.gaps[after]
            armed = np.nonzero(g_after >= cfg.clearance_arm)[0]
            if g_after.min() < 0.0:
                # Wall penetration after release is re-contact regardless of
                # how far the vehicle got first.
                m.min_clearance = float(g_after.min())
            elif len(armed):
                m.min_clearance = float(np.min(g_after[armed[0]:]))
            else:
                m.min_clearance = float(np.min(g_after))
            # settling: first time ep stays below tolerance for good
            idx = np.nonzero(after)[0]
            j = settle_index(ep[idx] < cfg.settle_tol)
            if j is not None:
                m.settle_time_after_release = float(t[idx[j]] - t_release)

    for mode in ("F", "F2P", "P", "P2F"):
        sel = modes == mode
        n = int(sel.sum())
        if n:
            m.saturation_fraction[mode] = float(sat[sel].sum() / n)
            m.max_eR[mode] = float(eR[sel].max())
    return m


@dataclass
class ComparisonReport:
    base_variant: str
    other_variant: str
    deltas: dict
    orderings: list                  # (description, bool)

    def to_dict(self):
        return {
            "base_variant": self.base_variant,
            "other_variant": self.other_variant,
            "metric_deltas": self.deltas,
            "orderings": [
                {"check": desc, "holds": ok} for desc, ok in self.orderings],
        }


def compare(run_a, run_b):
    """Side-by-side metric deltas and ablation-ordering checks."""
    ma, mb = run_a.metrics.to_dict(), run_b.metrics.to_dict()
    deltas = {}
    for key in ("z_drop_m", "min_clearance_m", "time_to_perch_s",
                "settle_time_after_release_s"):
        if isinstance(ma.get(key), (int, float)) \
                and isinstance(mb.get(key), (int, float)):
            deltas[key] = mb[key] - ma[key]
    orderings = []
    if ma.get("z_drop_m") is not None and mb.get("z_drop_m") is not None:
        orderings.append(("other z_drop >= base z_drop",
                          mb["z_drop_m"] >= ma["z_drop_m"]))
    if ma.get("min_clearance_m") is not None \
            and mb.get("min_clearance_m") is not None:
        orderings.append(("other min_clearance <= base min_clearance",
                          mb["min_clearance_m"] <= ma["min_clearance_m"]))
    return ComparisonReport(run_a.cfg.variant, run_b.cfg.variant,
                            deltas, orderings)
