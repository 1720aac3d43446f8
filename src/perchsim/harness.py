"""Deterministic fixed-step simulation loop and telemetry.

Tick order is fixed: supervisor -> planner -> estimation -> control ->
allocation -> actuators -> contact -> integrate.  Reordering is a breaking
change (guarded by a golden-file test).  One log record is emitted per tick;
identical configuration and seed produce byte-identical CSV output.
"""

import math
import struct
from dataclasses import dataclass
from itertools import chain
from operator import add, mod

import numpy as np

from . import estimation
from .allocation import allocate
from .control import nominal_wrench, perch_wrench, rejection_force
from .geometry import ZERO3, mat_t_vec, mat_vec, pitch_of, quat_of, \
    rotation_error
from .metrics import CSV_COLUMNS, _COL, _NUM_COLUMNS, _RECORD, Metrics, \
    MetricsFold, compute_metrics
from .planner import MissionPlanner
from .scenario import ScenarioConfig
from .supervisor import VARIANTS, Mode, SupervisorState, transition
from .vehicle import ContactState, NumericalDivergenceError, at_rest, \
    forward_wrench, integrate, step_actuators, update_contact

# A row packs one _RECORD of float64s; _PRINTED unpacks all but the gap.
_ROW = struct.Struct("%dd" % len(_RECORD))
_PRINTED = struct.Struct("%dd8x" % len(_NUM_COLUMNS))
_MODE_POS = CSV_COLUMNS.index("mode")
_CSV_LINE = {m.value: "%.12g," * _MODE_POS + m.value
             + ",%.12g" * (len(_NUM_COLUMNS) - _MODE_POS) + "\n" for m in Mode}
_HEADER = ",".join(CSV_COLUMNS) + "\n"
# A run folds each block of its rows into its outcome metrics.  A library
# run's one block is its whole log; a run streamed to a text file packs its
# rows into a block of _BLOCK rows (319 kB of floats), writes each a CSV line
# at a time, and keeps only the column perfbench's tick counter reads.
_BLOCK = 1024
_KEPT = ("attached",)
_KEPT_INDEX = [_COL[c] for c in _KEPT]
# perfbench/tracer.py still wraps this name; ROADMAP item 7 step 2 removes it.
transition_two_mode = transition
# Ticks of measurement noise drawn per numpy call; small, so the block's
# floats stay a few kB.
_NOISE_BLOCK = 64


def _csv_lines(rows, modes):
    """The CSV line of each row, a C-order float64 record, and its mode."""
    return map(mod, map(_CSV_LINE.__getitem__, modes),
               _PRINTED.iter_unpack(rows))


@dataclass
class SimResult:
    cfg: ScenarioConfig
    rows: np.ndarray                 # (n, len(columns)), one row per tick
    modes: list                      # mode name per tick
    events: list                     # (t, kind, detail)
    metrics: Metrics = None
    columns: tuple = _RECORD         # _KEPT for a streamed run

    def column(self, name):
        return self.rows[:, self.columns.index(name)]

    def to_csv(self, fh=None):
        """The log as CSV text, or, given a text file `fh`, written to it a
        line at a time: at most one row is held as floats and text.  A run
        streamed to a file keeps only some columns, and raises ValueError."""
        if self.columns != _RECORD:
            raise ValueError("a run streamed to a file keeps only the "
                             f"columns {', '.join(self.columns)}")
        rows = np.ascontiguousarray(self.rows, dtype=np.float64)
        if rows.shape != (len(self.modes), len(_RECORD)):
            raise ValueError(f"{rows.shape} rows for {len(self.modes)} modes")
        lines = chain((_HEADER,), _csv_lines(rows, self.modes))
        if fh is None:
            return "".join(lines)
        fh.writelines(lines)


def _flush_block(log, fold, block, n, kept, modes):
    """Feed the first `n` rows of `block` and the last `n` ticks of `modes`
    to `fold`; given a text file `log`, also write them to it as CSV lines
    and copy their _KEPT columns to `kept`."""
    k0 = len(modes) - n
    tail = modes[k0:] if k0 else modes    # a whole log is fed uncopied
    fold.feed(block[:n], tail)
    if log is not None:
        kept[k0:k0 + n] = block[:n, _KEPT_INDEX]
        log.writelines(_csv_lines(block[:n], tail))


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


def run_scenario(cfg, log=None):
    """Run one scenario to completion; deterministic for a given config+seed.

    The result holds every log row, folded into the outcome metrics as one
    block.  Given a text file `log` (anything with `writelines`), the CSV
    is written there and folded while the run goes, a block of _BLOCK rows
    at a time, and the result keeps only the _KEPT columns and the modes.
    """
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
    contact = ContactState()
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

    events = []
    fold = MetricsFold(cfg, events)
    if log is None:                  # one block: the whole log
        rows = block = np.empty((n_ticks, len(_RECORD)))
        columns, block_len = _RECORD, n_ticks
    else:
        log.writelines((_HEADER,))
        block = np.empty((min(_BLOCK, n_ticks), len(_RECORD)))
        rows = np.empty((n_ticks, len(_KEPT)))
        columns, block_len = _KEPT, _BLOCK
    block_end = block_len - 1
    modes = []
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
        j = k % block_len
        _ROW.pack_into(block, j * _ROW.size, t, px, py, pz, *v, pitch_of(R),
                       *quat_of(R), *omega,
                       1.0 if contact.attached else 0.0, sup.eta_d, eta,
                       *thrust, *thrust_cmd, *tilt,
                       *delta_hat, lam_c, contact.lambda_true,
                       math.sqrt(ex * ex + ey * ey + ez * ez),
                       math.sqrt(dx * dx + dy * dy + dz * dz),
                       1.0 if saturated else 0.0, contact.gap)
        modes.append(mode_name)
        if j == block_end:
            _flush_block(log, fold, block, block_len, rows, modes)

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
    if n % block_len:
        _flush_block(log, fold, block, n % block_len, rows, modes)
    result = SimResult(cfg, rows[:n], modes, events, columns=columns)
    result.metrics = compute_metrics(fold)
    return result
