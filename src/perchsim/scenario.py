"""Scenario configuration: the `ScenarioConfig` keys and their file format."""

import math
import numbers
import operator
import textwrap
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .allocation import rotor_rows, x_config
from .geometry import rot_y
from .planner import perch_orientation, rotation_between
from .supervisor import VARIANTS
from .vehicle import VehicleParams, WallModel

SCHEMA_VERSION = 1

MISSIONS = ("perch", "hover")
# A library run holds 312 bytes a tick (its record: 38 printed floats and
# the gap), near 624 MB; a CLI run streams its log and holds one block.
MAX_TICKS = 2_000_000
# Two intervals as an error message words them.
_SAYS = {"(0, inf)": "be positive", "[0, inf)": "not be negative"}


class ScenarioError(ValueError):
    """Malformed scenario file or invalid configuration value."""


def _key(default, unit="", rule=None):
    """A key's field.  Its rule is a tuple of allowed names, an interval that
    holds each of its numbers, as "(lo, hi]" with a parenthesis for an open
    end and a bracket for a closed one, or None: any finite value."""
    return field(default=default, metadata={"unit": unit, "rule": rule})


def _flat(value):
    """The numbers in a number, a sequence of them or a sequence of those."""
    if isinstance(value, numbers.Real):
        return [value]
    return [x for v in value for x in _flat(v)]


def _within(rule, value):
    """Whether every number of `value` lies in the interval `rule`."""
    lo, hi = (float(x) for x in rule[1:-1].split(","))
    above = operator.gt if rule[0] == "(" else operator.ge
    below = operator.lt if rule[-1] == ")" else operator.le
    return all(above(x, lo) and below(x, hi) for x in _flat(value))


def _is_numbers(value, n=None):
    """Whether `value` is a real number (n None) or a sequence of `n` ones."""
    if n is None:
        return isinstance(value, numbers.Real)
    return isinstance(value, (tuple, list, np.ndarray)) and len(value) == n \
        and all(map(_is_numbers, value))


def _check_rules(cfg, ranges=True):
    """Raise ScenarioError for the first key, in field order, whose value
    breaks its rule: its names, and also its interval if `ranges`."""
    for f in fields(cfg):
        rule, value = f.metadata.get("rule"), getattr(cfg, f.name)
        if isinstance(rule, tuple) and value not in rule:
            raise ScenarioError(f"unknown {f.name} {value!r}")
        if isinstance(rule, str) and ranges and not _within(rule, value):
            raise ScenarioError(
                f"{f.name} must " + _SAYS.get(rule, f"lie in {rule}"))


@dataclass
class ScenarioConfig:
    # Each length lies within 1e3 m and each segment time in [dt, 1e4] s,
    # with dt >= 1e-6 s, so every quintic coefficient of a leg stays finite,
    # also of one started from a moving approach sample: about 2.4e34 with
    # every length at 1e3 m and both legs at 1e-6 s.
    name: str = _key("default")
    variant: str = _key("proposed", rule=tuple(VARIANTS))
    mission: str = _key("perch", rule=MISSIONS)
    dt: float = _key(0.001, "s", "[1e-6, 0.01]")
    duration: float = _key(30.0, "s", "(0, inf)")
    seed: int = _key(0, rule="[0, inf)")
    # vehicle
    mass: float = _key(1.65, "kg", "(0, inf)")
    inertia_diag: tuple = _key((0.008, 0.008, 0.014), "kg m^2", "(0, inf)")
    gravity: float = _key(9.81, "m/s^2", "(0, inf)")
    arm_length: float = _key(0.13, "m", "(0, 1e3]")
    k_tau: float = _key(0.016, "m", "[0, inf)")
    thrust_max: float = _key(8.0, "N", "(0, inf)")
    rotor_tau: float = _key(0.05, "s", "(0, inf)")
    tilt_rate_max: float = _key(8.0, "rad/s", "(0, inf)")
    perch_servo_time: float = _key(0.05, "s", "(0, inf)")
    # wall
    wall_point: tuple = _key((1.0, 0.0, 1.2), "m", "[-1e3, 1e3]")
    wall_normal: tuple = _key((-1.0, 0.0, 0.0))
    magnet_force: float = _key(40.0, "N", "(0, inf)")
    magnet_range: float = _key(0.05, "m", "(0, 1e3]")
    attach_tol: float = _key(0.001, "m", "(0, 1e3]")
    magnet_offset: tuple = _key((0.0, 0.0, -0.05), "m, body frame",
                                "[-1e3, 1e3]")
    # gains, per unit mass (k_tp, k_td) and per unit inertia (k_rp .. k_ri)
    k_tp: float = _key(10.0, "1/s^2", "[0, inf)")
    k_td: float = _key(6.0, "1/s", "[0, inf)")
    k_rp: float = _key(60.0, "1/s^2", "[0, inf)")
    k_rd: float = _key(15.0, "1/s", "[0, inf)")
    k_ri: float = _key(3.0, "1/s^3", "[0, inf)")
    integral_clamp: float = _key(0.5, "rad s", "(0, inf)")
    estimator_gain: float = _key(20.0, "1/s", "(0, inf)")
    # switching
    lambda_f2p: float = _key(1.0, "N")
    lambda_p2f: float = _key(-1.0, "N")
    rho: float = _key(0.5, rule="[0, 1)")
    # planning
    hover_position: tuple = _key((0.0, 0.0, 1.2), "m", "[-1e3, 1e3]")
    hover_pitch: float = _key(0.0, "rad")
    standoff: float = _key(0.5, "m", "(0, 1e3]")
    penetration: float = _key(0.1, "m", "[0, 1e3]")
    t_approach: float = _key(4.0, "s", "(0, 1e4]")
    t_contact: float = _key(3.0, "s", "(0, 1e4]")
    hold_time: float = _key(1.0, "s", "(0, 1e4]")
    initial_offset: tuple = _key((0.0, 0.0, 0.0), "m", "[-1e3, 1e3]")
    # metrics
    clearance_arm: float = _key(0.05, "m", "(0, inf)")
    settle_tol: float = _key(0.02, "m", "(0, inf)")
    # noise and the observers' thrust error, a fraction (off by default;
    # acceptance runs are noise-free and know their thrust exactly)
    noise_std_pos: float = _key(0.0, "m", "[0, inf)")
    noise_std_vel: float = _key(0.0, "m/s", "[0, inf)")
    thrust_model_error: float = _key(0.0, "", "(-0.5, 0.5)")
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
                if not isinstance(value, (tuple, list)) or not all(
                        isinstance(e, (tuple, list)) and len(e) == 2
                        and _is_numbers(e[0]) for e in value):
                    raise ScenarioError("events must be (time, kind) pairs")
                value = [t for t, _ in value]
            elif f.name == "disturbances":
                if not isinstance(value, (tuple, list)) or not all(
                        _is_numbers(d, 8) for d in value):
                    raise ScenarioError("each disturbance must be 8 numbers")
            elif isinstance(f.default, str):
                if not isinstance(value, str):
                    raise ScenarioError(f"{f.name} must be a string")
                continue
            elif isinstance(f.default, int):
                if not (isinstance(value, (int, np.integer))
                        and abs(value) < 2 ** 53):
                    raise ScenarioError(f"{f.name} must be an integer of "
                                        "magnitude below 2**53")
            else:
                n = len(f.default) if isinstance(f.default, tuple) else None
                if not _is_numbers(value, n):
                    raise ScenarioError(f"{f.name} must be " + (
                        "a number" if n is None else f"{n} numbers"))
            try:
                finite = all(map(math.isfinite, _flat(value)))
            except OverflowError:                 # an int no float holds
                finite = False
            if not finite:
                raise ScenarioError(f"{f.name} must be finite")
        _check_rules(self)
        if not 1e-9 <= math.hypot(*self.wall_normal) < math.inf:
            raise ScenarioError("wall_normal must have finite nonzero length")
        if not self.lambda_f2p > self.lambda_p2f:
            raise ScenarioError("lambda_f2p must exceed lambda_p2f")
        ticks = self.duration / self.dt           # round(ticks) are run
        if not 0.5 < ticks <= MAX_TICKS:
            raise ScenarioError("duration must last at least one tick (dt) "
                                f"and at most {MAX_TICKS} ticks")
        for name in ("hold_time", "t_approach", "t_contact"):
            if not self.dt <= getattr(self, name):
                raise ScenarioError(f"{name} must last at least dt")
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
            # horizontal and attitudes not antipodal.
            params = VehicleParams(
                m=self.mass, J=self.inertia_diag, g=self.gravity,
                rotors=rotor_rows(x_config(self.arm_length, self.k_tau)),
                T_max=self.thrust_max, tau_rotor=self.rotor_tau,
                tilt_rate_max=self.tilt_rate_max, t_ps=self.perch_servo_time)
            wall = WallModel(
                point=self.wall_point, normal=self.wall_normal,
                F_mag=self.magnet_force, d_mag=self.magnet_range,
                eps_attach=self.attach_tol, c_m=self.magnet_offset)
            if self.mission == "perch":
                rotation_between(rot_y(self.hover_pitch),
                                 perch_orientation(wall))
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        return params, wall


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
    defaults = {f.name: f.default for f in fields(cfg)
                if f.default is not MISSING}     # not events, disturbances
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
    _check_rules(cfg, ranges=False)
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


def _schema_row(f):
    """`key = default  # unit, rule` of field `f`, wrapped to 79 columns."""
    value, rule = f.default, f.metadata["rule"]
    if isinstance(value, tuple):
        value = " ".join(map(str, value))
    if isinstance(rule, tuple):
        rule = "one of " + ", ".join(rule)
    elif rule:
        rule = "in " + rule
    head = f"  {f.name} = {value}"
    note = ", ".join(s for s in (f.metadata["unit"], rule) if s)
    return textwrap.fill(note, 79, initial_indent=head.ljust(36) + "# ",
                         subsequent_indent=" " * 36 + "#   ",
                         break_on_hyphens=False) or head


SCHEMA_DOC = f"""\
Scenario file schema (version {SCHEMA_VERSION})
================================
Flat text, one `key = value` per line, `#` starts a comment.
The first entry must be `schema_version = {SCHEMA_VERSION}`.

Keys, each shown as the line that sets its default, with its unit and its
rule: the allowed names, or an interval that holds every number of the key,
"(" and ")" marking open ends and "[" and "]" closed ones.  A length lies
within 1e3 m, so that every planned leg stays finite:
""" + "\n".join(_schema_row(f) for f in fields(ScenarioConfig)
                if f.default is not MISSING) + f"""

Repeatable:
  event = <time_s> <s_f2p|s_p2f>
  disturbance = <start_s> <end_s> <fx> <fy> <fz> <rx> <ry> <rz>
                (world-frame force N, body-frame angular accel rad/s^2)

Every number must be finite; seed is an integer of magnitude below 2**53.
Rules that span keys:
lambda_f2p must exceed lambda_p2f; duration must last at least one tick of
dt and at most {MAX_TICKS} ticks (also after --dt); hold_time, t_approach
and t_contact must last at least dt; arm_length and k_tau must give a
full-rank rotor geometry.  wall_normal must have finite nonzero length; on
a perch mission it may not be vertical, and the hover attitude may not be
antipodal to the perch attitude (as hover_pitch = pi/2 is to the default
wall's pitch of -pi/2).  Event lines must be time-sorted, their times not
negative, and a disturbance must end after it starts.

Exit codes of the CLI: 0 ok, 2 scenario/schema error or an --out path
that cannot be written, 3 run failed (numerical abort or ground contact);
verify exits 1 when an acceptance criterion fails.
"""
