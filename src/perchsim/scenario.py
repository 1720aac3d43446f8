"""Scenario configuration: declarative experiment description and file format.

Scenario files are flat ``key = value`` text with ``#`` comments.  Vector
values are whitespace-separated numbers; ``event`` and ``disturbance`` keys
may repeat.  The first non-comment line must set ``schema_version = 1``.
"""

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .allocation import RotorGeometry
from .geometry import ZERO3, rot_y
from .planner import min_accel_rotation, perch_orientation
from .supervisor import VARIANTS
from .vehicle import VehicleParams, WallModel

SCHEMA_VERSION = 1

MISSIONS = ("perch", "hover")
_NAMES = {"variant": VARIANTS, "mission": MISSIONS}   # key -> allowed names

# Fields that must be > 0 and >= 0; every number must also be finite.
_POSITIVE = ("duration", "mass", "inertia_diag", "gravity", "arm_length",
             "thrust_max", "rotor_tau", "tilt_rate_max", "perch_servo_time",
             "magnet_force", "magnet_range", "attach_tol", "integral_clamp",
             "estimator_gain", "standoff", "t_approach", "t_contact",
             "hold_time", "clearance_arm", "settle_tol")
_NONNEGATIVE = ("seed", "k_tau", "k_tp", "k_td", "k_rp", "k_rd", "k_ri",
                "penetration", "noise_std_pos", "noise_std_vel")
# Plan segments last [dt, MAX_SEGMENT_S] and dt >= MIN_DT_S, so T ** 5 in
# the quintic solve neither overflows nor underflows.
_SEGMENTS = ("hold_time", "t_approach", "t_contact")
MAX_SEGMENT_S = 1e4
MIN_DT_S = 1e-6
# A library run holds 320 bytes a tick (38 logged floats, the gap and the
# mode), near 640 MB; a CLI run streams its log and holds 16 (the attached
# flag and the mode), near 32 MB.
MAX_TICKS = 2_000_000


class ScenarioError(ValueError):
    """Malformed scenario file or invalid configuration value."""


@dataclass
class ScenarioConfig:
    name: str = "default"
    variant: str = "proposed"
    mission: str = "perch"
    dt: float = 0.001
    duration: float = 30.0
    seed: int = 0
    # vehicle
    mass: float = 1.65
    inertia_diag: tuple = (0.008, 0.008, 0.014)
    gravity: float = 9.81
    arm_length: float = 0.13
    k_tau: float = 0.016
    thrust_max: float = 8.0
    rotor_tau: float = 0.05
    tilt_rate_max: float = 8.0
    perch_servo_time: float = 0.05
    # wall
    wall_point: tuple = (1.0, 0.0, 1.2)
    wall_normal: tuple = (-1.0, 0.0, 0.0)
    magnet_force: float = 40.0
    magnet_range: float = 0.05
    attach_tol: float = 0.001
    magnet_offset: tuple = (0.0, 0.0, -0.05)
    # gains
    k_tp: float = 10.0
    k_td: float = 6.0
    k_rp: float = 60.0
    k_rd: float = 15.0
    k_ri: float = 3.0
    integral_clamp: float = 0.5
    estimator_gain: float = 20.0
    # switching
    lambda_f2p: float = 1.0
    lambda_p2f: float = -1.0
    rho: float = 0.5
    # planning
    hover_position: tuple = (0.0, 0.0, 1.2)
    hover_pitch: float = 0.0
    standoff: float = 0.5
    penetration: float = 0.1
    t_approach: float = 4.0
    t_contact: float = 3.0
    hold_time: float = 1.0
    initial_offset: tuple = (0.0, 0.0, 0.0)
    # metrics
    clearance_arm: float = 0.05
    settle_tol: float = 0.02
    # noise (off by default; acceptance runs are noise-free)
    noise_std_pos: float = 0.0
    noise_std_vel: float = 0.0
    # schedules
    events: list = field(default_factory=list)        # (time, "s_f2p"|"s_p2f")
    disturbances: list = field(default_factory=list)  # (t0, t1, fx..rz)

    def build(self):
        """(VehicleParams, WallModel) of a valid config; raises ScenarioError.

        The one place the schema's rules are checked: the stages trust the
        config and the records built here.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "events":
                value = [t for t, _ in value]
            if not isinstance(value, str) \
                    and not np.isfinite(np.asarray(value, float)).all():
                raise ScenarioError(f"{f.name} must be finite")
        for name in _POSITIVE:
            if np.min(getattr(self, name)) <= 0:
                raise ScenarioError(f"{name} must be positive")
        for name in _NONNEGATIVE:
            if getattr(self, name) < 0:
                raise ScenarioError(f"{name} must not be negative")
        if not 1e-9 <= math.hypot(*self.wall_normal) < math.inf:
            raise ScenarioError("wall_normal must have finite nonzero length")
        if not self.lambda_f2p > self.lambda_p2f:
            raise ScenarioError("lambda_f2p must exceed lambda_p2f")
        if not 0.0 <= self.rho < 1.0:
            raise ScenarioError("rho must lie in [0, 1)")
        if not MIN_DT_S <= self.dt <= 0.01:
            raise ScenarioError(f"dt must lie in [{MIN_DT_S:g}, 0.01]")
        ticks = self.duration / self.dt           # round(ticks) are run
        if not 0.5 < ticks <= MAX_TICKS:
            raise ScenarioError("duration must last at least one tick (dt) "
                                f"and at most {MAX_TICKS} ticks")
        for name in _SEGMENTS:
            if not self.dt <= getattr(self, name) <= MAX_SEGMENT_S:
                raise ScenarioError(
                    f"{name} must lie in [dt, {MAX_SEGMENT_S:g}] s")
        _check_names(self)
        if sorted(t for t, _ in self.events) != [t for t, _ in self.events]:
            raise ScenarioError("events must be time-sorted")
        for t, kind in self.events:
            if kind not in ("s_f2p", "s_p2f"):
                raise ScenarioError(f"unknown event kind {kind!r}")
            if t < 0.0:
                raise ScenarioError("event times must not be negative")
        for t0, t1, *_ in self.disturbances:
            if not t1 > t0:
                raise ScenarioError("a disturbance must end after it starts")
        try:
            # Full-rank rotors; on a perch mission, a wall that is not
            # horizontal and a hover attitude not antipodal to the perch one.
            rotors = RotorGeometry.x_config(self.arm_length, self.k_tau)
            params = VehicleParams(
                m=self.mass, J=self.inertia_diag, g=self.gravity,
                rotors=rotors, T_max=self.thrust_max,
                tau_rotor=self.rotor_tau, tilt_rate_max=self.tilt_rate_max,
                t_ps=self.perch_servo_time)
            wall = WallModel(
                point=self.wall_point, normal=self.wall_normal,
                F_mag=self.magnet_force, d_mag=self.magnet_range,
                eps_attach=self.attach_tol, c_m=self.magnet_offset)
            if self.mission == "perch":
                min_accel_rotation(rot_y(self.hover_pitch),
                                   perch_orientation(wall), ZERO3, 1.0)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        return params, wall


def _check_names(cfg):
    """Raise ScenarioError for a `variant` or `mission` not in its set."""
    for key, allowed in _NAMES.items():
        if getattr(cfg, key) not in allowed:
            raise ScenarioError(f"unknown {key} {getattr(cfg, key)!r}")


def _numbers(lineno, key, raw, n):
    """The `n` whitespace-separated floats of `raw`, as a tuple."""
    parts = raw.split()
    if len(parts) != n:
        raise ScenarioError(f"line {lineno}: {key} expects {n} number"
                            + ("s" if n > 1 else ""))
    try:
        return tuple(float(x) for x in parts)
    except ValueError as exc:
        raise ScenarioError(
            f"line {lineno}: bad number for {key}: {raw!r}") from exc


def _value(lineno, key, raw, default):
    """`raw` parsed as the type of the field's default value."""
    if isinstance(default, str):
        return raw
    if isinstance(default, tuple):
        return _numbers(lineno, key, raw, len(default))
    (x,) = _numbers(lineno, key, raw, 1)
    if isinstance(default, int):
        if not x.is_integer():
            raise ScenarioError(f"line {lineno}: {key} expects an integer")
        return int(x)
    return x


def parse_scenario(text):
    """Parse scenario text into a ScenarioConfig; raises ScenarioError on
    malformed text or an unknown name.  `ScenarioConfig.build()` checks the
    other values, after any command-line overrides."""
    cfg = ScenarioConfig()
    defaults = {k: v for k, v in asdict(cfg).items()
                if k not in ("events", "disturbances")}
    saw_version = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key, raw = (s.strip() for s in line.split("=", 1))
        if not saw_version:
            if key != "schema_version":
                raise ScenarioError("first entry must be schema_version")
            if _value(lineno, key, raw, SCHEMA_VERSION) != SCHEMA_VERSION:
                raise ScenarioError(f"unsupported schema_version {raw}")
            saw_version = True
            continue
        if key == "event":
            parts = raw.split()
            if len(parts) != 2:
                raise ScenarioError(f"line {lineno}: event expects 'time kind'")
            cfg.events.append((_numbers(lineno, key, parts[0], 1)[0],
                               parts[1].lower()))
        elif key == "disturbance":
            cfg.disturbances.append(_numbers(
                lineno, "disturbance (start end fx fy fz rx ry rz)", raw, 8))
        elif key in defaults:
            setattr(cfg, key, _value(lineno, key, raw, defaults[key]))
        else:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
    if not saw_version:
        raise ScenarioError("missing schema_version header")
    _check_names(cfg)
    return cfg


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    return parse_scenario(text)


def default_scenario():
    """Built-in perch/unperch mission mirroring the reference experiment."""
    cfg = ScenarioConfig()
    cfg.events = [(6.0, "s_f2p"), (15.0, "s_p2f")]
    # Near-wall attraction/aero bias, active once the approach begins.
    cfg.disturbances = [(4.0, 30.0, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0)]
    return cfg


SCHEMA_DOC = """\
Scenario file schema (version 1)
================================
Flat text, one `key = value` per line, `#` starts a comment.
The first entry must be `schema_version = 1`.

Every number must be finite.  Of the scalars, lambda_f2p, lambda_p2f and
hover_pitch take any sign, rho lies in [0, 1), the gains, k_tau,
penetration, noise levels and seed must not be negative, and all others
must be positive, as must inertia_diag.  lambda_f2p must exceed
lambda_p2f; duration must last at least one tick of dt and at most
2000000 ticks (also after --dt); hold_time, t_approach and t_contact lie
in [dt, 1e4] s; arm_length and k_tau must give a full-rank rotor
geometry.  wall_normal must have finite nonzero length; on a perch
mission it may not be vertical, and the hover attitude may not be
antipodal to the perch attitude (as hover_pitch = pi/2 is to the default
wall's pitch of -pi/2).
Event times must not be negative, and a disturbance must end after it
starts.

Scalars (floats unless noted):
  name, variant, mission           strings; variant in {proposed,
                                   no-transitions-rho0, no-transitions-rho0.5,
                                   no-freeze}; mission in {perch, hover}
  dt (s, in [1e-6, 0.01]), duration (s), seed (int)
  mass (kg), gravity (m/s^2), arm_length (m), k_tau (m), thrust_max (N),
  rotor_tau (s), tilt_rate_max (rad/s), perch_servo_time (s)
  magnet_force (N), magnet_range (m), attach_tol (m)
  k_tp, k_td, k_rp, k_rd, k_ri     scalar controller gains
  integral_clamp (rad s), estimator_gain (1/s)
  lambda_f2p (N), lambda_p2f (N), rho
  hover_pitch (rad), standoff (m), penetration (m),
  t_approach (s), t_contact (s), hold_time (s)
  clearance_arm (m), settle_tol (m)
  noise_std_pos (m), noise_std_vel (m/s)

Vectors (three numbers):
  inertia_diag (kg m^2), wall_point (m), wall_normal,
  magnet_offset (m, body frame), hover_position (m), initial_offset (m)

Repeatable:
  event = <time_s> <s_f2p|s_p2f>
  disturbance = <start_s> <end_s> <fx> <fy> <fz> <rx> <ry> <rz>
                (world-frame force N, body-frame angular accel rad/s^2)

Exit codes of the CLI: 0 ok, 2 scenario/schema error or an --out path
that cannot be written, 3 run failed (numerical abort or ground contact);
verify exits 1 when an acceptance criterion fails.
"""
