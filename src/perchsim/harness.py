"""Deterministic fixed-step simulation loop, telemetry, and outcome metrics.

Tick order is fixed: supervisor -> planner -> estimation -> control ->
allocation -> actuators -> contact -> integrate.  Reordering is a breaking
change (guarded by a golden-file test).  One log record is emitted per tick;
identical configuration and seed produce byte-identical CSV output.
"""

import math
import struct
from dataclasses import asdict, dataclass, field
from itertools import chain
from operator import add, mod

import numpy as np

from . import estimation
from .allocation import allocate
from .control import nominal_wrench, perch_wrench, rejection_force
from .geometry import ZERO3, mat_t_vec, mat_vec, pitch_of, quat_of, \
    rotation_error
from .planner import MissionPlanner
from .scenario import ScenarioConfig
from .supervisor import VARIANTS, Mode, SupervisorState, transition
from .vehicle import ContactState, NumericalDivergenceError, at_rest, \
    forward_wrench, integrate, step_actuators, update_contact

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
# A row is one float64 record; its CSV line is _CSV_LINE[mode] % row.
_ROW = struct.Struct("%dd" % len(_NUM_COLUMNS))
_MODE_POS = CSV_COLUMNS.index("mode")
_CSV_LINE = {m.value: "%.12g," * _MODE_POS + m.value
             + ",%.12g" * (len(_NUM_COLUMNS) - _MODE_POS) + "\n" for m in Mode}
# perfbench/tracer.py still wraps this name; ROADMAP item 7 step 2 removes it.
transition_two_mode = transition
# Ticks of measurement noise drawn per numpy call; small, so the block's
# floats stay a few kB.
_NOISE_BLOCK = 64


@dataclass
class Metrics:
    """Outcome measures; each attribute is named as its metrics.json key."""
    perch_achieved: bool = False
    perch_time_s: float = math.nan
    time_to_perch_s: float = math.nan
    unperch_achieved: bool = False
    release_time_s: float = math.nan
    z_drop_m: float = math.nan
    min_clearance_m: float = math.nan
    saturation_fraction: dict = field(default_factory=dict)
    max_eR_rad: dict = field(default_factory=dict)
    settle_time_after_release_s: float = math.nan
    completed: bool = True
    failure: str = ""

    def to_dict(self):
        """The JSON form: NaN (not measured) becomes None."""
        return {k: None if isinstance(v, float) and math.isnan(v) else v
                for k, v in asdict(self).items()}


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

    def to_csv(self, fh=None):
        """The log as CSV text, or, given a text file `fh`, written to it a
        line at a time: at most one row is held as floats and text."""
        rows = np.ascontiguousarray(self.rows, dtype=np.float64)
        if rows.shape != (len(self.modes), len(_NUM_COLUMNS)):
            raise ValueError(f"{rows.shape} rows for {len(self.modes)} modes")
        lines = chain((",".join(CSV_COLUMNS) + "\n",), map(mod, map(
            _CSV_LINE.__getitem__, self.modes), _ROW.iter_unpack(rows)))
        if fh is None:
            return "".join(lines)
        fh.writelines(lines)


def _disturbance_at(cfg, t):
    """The disturbances (delta_f, delta_r) at time t, summed over the pulses
    of `cfg`: a world-frame force (N) and a body-frame angular acceleration
    (rad/s^2), three floats each."""
    fx = fy = fz = rx = ry = rz = 0.0
    for (t0, t1, dfx, dfy, dfz, drx, dry, drz) in cfg.disturbances:
        if t0 <= t < t1:
            fx, fy, fz = fx + dfx, fy + dfy, fz + dfz
            rx, ry, rz = rx + drx, ry + dry, rz + drz
    return (fx, fy, fz), (rx, ry, rz)


def _noise(rng, sd_p, sd_v, n_ticks):
    """Each tick's position and velocity noise, six floats: the stream of
    rng.normal(0.0, sd, 3) for p, then for v, drawn _NOISE_BLOCK ticks at
    a time."""
    scale = (sd_p, sd_p, sd_p, sd_v, sd_v, sd_v)
    for k in range(0, n_ticks, _NOISE_BLOCK):
        z = rng.standard_normal((min(_NOISE_BLOCK, n_ticks - k), 6))
        yield from (0.0 + scale * z).tolist()


def run_scenario(cfg):
    """Run one scenario to completion; deterministic for a given config+seed."""
    params, wall = cfg.build()
    rotors = params.rotors
    machine, policies, rho, freeze_while_attached = VARIANTS[cfg.variant]
    rho = cfg.rho if rho is None else rho
    planner = MissionPlanner(cfg, wall)

    hover_p, _, _, hover_R, _ = planner.setpoints[0]
    state = (px, py, pz), v, R, omega = at_rest(
        map(add, hover_p, cfg.initial_offset), hover_R)
    # Start at hover trim for the initial attitude, not from dead rotors.
    trim = mat_t_vec(R, (0.0, 0.0, params.m * params.g)), ZERO3
    thrust, tilt_cmd, _ = allocate(trim, rotors, params.T_max,
                                   (0.0,) * rotors.n_rotors)
    act = thrust, tilt_cmd, 0.0
    f_act, tau_act = forward_wrench(thrust, tilt_cmd, rotors)
    contact = ContactState(gap=wall.gap_of(state))
    sup = SupervisorState()
    integ = ZERO3                    # attitude integral of nominal_wrench
    K_e = cfg.estimator_gain
    est_rej = estimation.fresh(state, params, K_e)
    contact_was_active = False       # est_con starts on its first active tick
    lam_c = 0.0

    n_ticks = int(round(cfg.duration / cfg.dt))
    sd_p, sd_v = cfg.noise_std_pos, cfg.noise_std_vel
    noise = _noise(np.random.default_rng(cfg.seed), sd_p, sd_v, n_ticks) \
        if sd_p > 0 or sd_v > 0 else None
    edges = sorted({e for pulse in cfg.disturbances for e in pulse[:2]})
    next_edge = -math.inf

    event_ticks = {}
    for t_ev, kind in cfg.events:
        if t_ev < cfg.duration:      # a later event could never fire
            event_ticks.setdefault(int(round(t_ev / cfg.dt)), []).append(kind)

    rows = np.empty((n_ticks, len(_NUM_COLUMNS)))
    modes = []
    gaps = np.empty(n_ticks)
    events = []
    perch, rejection_frozen, contact_active = policies[sup.mode]
    mode_name = sup.mode.value

    for k in range(n_ticks):
        t = k * cfg.dt

        if noise is not None:
            z0, z1, z2, z3, z4, z5 = next(noise)
            vx, vy, vz = v
            meas = ((px + z0, py + z1, pz + z2), (vx + z3, vy + z4, vz + z5),
                    R, omega)
        else:
            meas = state

        # 1. supervisor
        kinds = event_ticks.get(k, ())
        s_f2p = "s_f2p" in kinds
        s_p2f = "s_p2f" in kinds
        for kind in kinds:
            events.append((t, "operator", kind))
        new_sup = transition(sup, lam_c, s_f2p, s_p2f, cfg, machine)
        # The approach starts when eta_d rises (F -> F2P with four modes),
        # the departure on entering P2F.  Two-mode P -> F keeps the stale
        # approach plan, so no inputs for detaching are generated in advance.
        if new_sup.mode is not sup.mode:
            perch, rejection_frozen, contact_active = policies[new_sup.mode]
            events.append((t, "mode", f"{mode_name}->{new_sup.mode.value}"))
            mode_name = new_sup.mode.value
            integ = ZERO3
            if new_sup.mode is Mode.P2F:
                planner.start_departure(t, state)
        if new_sup.eta_d != sup.eta_d:
            events.append((t, "eta_d",
                           "perch" if new_sup.eta_d else "unperch"))
            if new_sup.eta_d == 1.0:
                planner.start_approach(t)
        sup = new_sup

        # 2. planner
        sp = planner.sample(t)

        # 3. estimation (consumes the wrench applied over the last interval)
        if rejection_frozen or freeze_while_attached and contact.attached:
            # While attached the estimate would absorb the constraint force,
            # so the hold extends until the wall actually lets go.
            est_rej = estimation.freeze(est_rej)
        else:
            delta_hat, _, _, frozen = est_rej
            if frozen:               # resume from the held estimate
                est_rej = estimation.fresh(meas, params, K_e, delta_hat)
            est_rej = estimation.update(est_rej, meas, f_act, K_e, params,
                                        cfg.dt)
        delta_hat, _, _, _ = est_rej
        if contact_active:
            if not contact_was_active:
                est_con = estimation.fresh(meas, params, K_e)
            con_hat, _, _, _ = est_con = estimation.update(
                est_con, meas, f_act, K_e, params, cfg.dt)
            lam_c = estimation.contact_normal_force(con_hat, wall)
        contact_was_active = contact_active

        # 4. control (noise and the attach snap leave R alone, so e_R is
        # also the logged attitude error)
        sp_p, _, _, R_d, _ = sp
        e_R = rotation_error(R, R_d)
        if perch:
            wrench = perch_wrench(rho, R, params)
        else:
            wrench, integ = nominal_wrench(meas, sp, e_R, cfg, integ, params,
                                           cfg.dt)
            if not rejection_frozen:
                rx, ry, rz = rejection_force(delta_hat, R)
                (fx, fy, fz), tau = wrench
                wrench = (fx + rx, fy + ry, fz + rz), tau

        # 5. allocation
        cmd = allocate(wrench, rotors, params.T_max, tilt_cmd)
        thrust_cmd, tilt_cmd, saturated = cmd

        # 6. actuators
        act = step_actuators(act, cmd, sup.eta_d, cfg.dt, params)
        thrust, tilt, eta = act

        # 7. contact
        if t >= next_edge:           # a pulse starts or ends: sum again
            dist = _disturbance_at(cfg, t)
            (dfx, dfy, dfz), _ = dist
            next_edge = next((e for e in edges if e > t), math.inf)
        f_act, tau_act = forward_wrench(thrust, tilt, rotors)
        fx, fy, fz = mat_vec(R, f_act)
        applied_world = (fx + dfx, fy + dfy, fz + dfz)
        contact, edge = update_contact(state, act, applied_world, contact,
                                       wall, params)
        if edge is not None:
            events.append((t, "contact", edge))
        if edge == "attach":
            # Rigid inelastic lock: the impact velocity is absorbed by the
            # wall, so the state comes to rest at its current pose, which
            # integrate then holds until the magnets let go.
            state = (px, py, pz), v, R, omega = at_rest((px, py, pz), R)

        # log the state the controller acted on, plus this tick's outputs;
        # on the attach tick, the state at rest instead (v = w = 0)
        ex, ey, ez = e_R
        spx, spy, spz = sp_p
        dx, dy, dz = spx - px, spy - py, spz - pz
        _ROW.pack_into(rows, k * _ROW.size, t, px, py, pz, *v, pitch_of(R),
                       *quat_of(R), *omega,
                       1.0 if contact.attached else 0.0, sup.eta_d, eta,
                       *thrust, *thrust_cmd, *tilt,
                       *delta_hat, lam_c, contact.lambda_true,
                       math.sqrt(ex * ex + ey * ey + ez * ez),
                       math.sqrt(dx * dx + dy * dy + dz * dz),
                       1.0 if saturated else 0.0)
        modes.append(mode_name)
        gaps[k] = contact.gap

        # 8. integrate (an overflowing body rate fails in exp_so3's math)
        try:
            state = integrate(state, (f_act, tau_act), dist, contact, params,
                              cfg.dt)
        except (NumericalDivergenceError, ArithmeticError, ValueError) as exc:
            events.append((t, "failure", f"numerical-abort: {exc}"))
            break
        (px, py, pz), v, R, omega = state
        if pz <= 0.0:
            events.append((t, "failure", "ground-contact"))
            break

    n = len(modes)
    result = SimResult(cfg, rows[:n], modes, gaps[:n], events)
    result.metrics = compute_metrics(result)
    return result


def settle_index(ok):
    """First index from which `ok` stays true to the end, or None."""
    bad = np.flatnonzero(~ok)
    j = bad[-1] + 1 if len(bad) else 0
    return int(j) if j < len(ok) else None


def compute_metrics(result):
    """Outcome measures of a run, read from its log and its events."""
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

    first = {}                       # (kind, detail up to ":") -> time
    for te, kind, detail in result.events:
        first.setdefault((kind, detail.partition(":")[0]), te)
    failure = next((d for k, d in first if k == "failure"), "")
    m = Metrics(completed=not failure, failure=failure)

    t_signal = first.get(("operator", "s_f2p"))
    t_attach = first.get(("contact", "attach"))
    if t_attach is not None:
        m.perch_achieved = True
        m.perch_time_s = t_attach
        if t_signal is not None:
            m.time_to_perch_s = t_attach - t_signal
    t_release = first.get(("contact", "release"))
    if t_release is not None:
        m.unperch_achieved = True
        m.release_time_s = t_release
        after = t > t_release
        if after.any():
            z_rel = float(z[np.searchsorted(t, t_release, side="right") - 1])
            m.z_drop_m = float(np.max(z_rel - z[after]))
            g_after = result.gaps[after]
            armed = np.nonzero(g_after >= cfg.clearance_arm)[0]
            if g_after.min() < 0.0:
                # Wall penetration after release is re-contact regardless of
                # how far the vehicle got first.
                m.min_clearance_m = float(g_after.min())
            elif len(armed):
                m.min_clearance_m = float(np.min(g_after[armed[0]:]))
            else:
                m.min_clearance_m = float(np.min(g_after))
            # settling: first time ep stays below tolerance for good
            idx = np.nonzero(after)[0]
            j = settle_index(ep[idx] < cfg.settle_tol)
            if j is not None:
                m.settle_time_after_release_s = float(t[idx[j]] - t_release)

    for mode in Mode:
        sel = modes == mode.value
        n = int(sel.sum())
        if n:
            m.saturation_fraction[mode.value] = float(sat[sel].sum() / n)
            m.max_eR_rad[mode.value] = float(eR[sel].max())
    return m


def compare(variant_a, metrics_a, variant_b, metrics_b):
    """Side-by-side metric deltas and ablation-ordering checks, as JSON."""
    ma, mb = metrics_a.to_dict(), metrics_b.to_dict()
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
    return {
        "base_variant": variant_a,
        "other_variant": variant_b,
        "metric_deltas": deltas,
        "orderings": [{"check": desc, "holds": ok} for desc, ok in orderings],
    }
