"""Scenario format tests: parsing, validation, schema documentation."""

import math
import re
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perchsim import harness
from perchsim.control import perch_wrench
from perchsim.geometry import ZERO3
from perchsim.harness import run_scenario
from perchsim.planner import MissionPlanner
from perchsim.scenario import (MISSIONS, SCHEMA_DOC, VARIANTS, ScenarioConfig,
                               ScenarioError, default_scenario,
                               parse_scenario)

MINIMAL = "schema_version = 1\n"


def test_parse_minimal():
    cfg = parse_scenario(MINIMAL)
    assert cfg.variant == "proposed"
    assert cfg.dt == 0.001


def test_parse_full_example():
    text = """\
schema_version = 1
# comment line
name = demo
variant = no-freeze
mission = perch
dt = 0.002
duration = 12.5
seed = 7
mass = 1.5
wall_point = 2.0 0.0 1.0
wall_normal = -1 0 0
event = 3.0 s_f2p
event = 8.0 s_p2f
disturbance = 1.0 5.0 0.5 0 0 0 0 0
"""
    cfg = parse_scenario(text)
    assert cfg.name == "demo"
    assert cfg.variant == "no-freeze"
    assert cfg.dt == 0.002 and cfg.seed == 7
    assert cfg.wall_point == (2.0, 0.0, 1.0)
    assert cfg.events == [(3.0, "s_f2p"), (8.0, "s_p2f")]
    assert cfg.disturbances == [(1.0, 5.0, 0.5, 0, 0, 0, 0, 0)]


def test_missing_schema_version():
    with pytest.raises(ScenarioError):
        parse_scenario("mass = 1.65\n")
    with pytest.raises(ScenarioError):
        parse_scenario("")


def test_wrong_schema_version():
    with pytest.raises(ScenarioError):
        parse_scenario("schema_version = 2\n")


def test_unknown_key():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "warp_drive = 9\n")


def test_bad_value():
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario(MINIMAL + "mass = heavy\n")


def test_vector_arity():
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario(MINIMAL + "wall_point = 1.0 2.0\n")


def test_bad_event():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "event = 3.0\n")
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "event = 3.0 s_warp\n").build()
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario(MINIMAL + "event = abc s_f2p\n")


def test_unsorted_events():
    with pytest.raises(ScenarioError, match="time-sorted"):
        parse_scenario(
            MINIMAL + "event = 8.0 s_p2f\nevent = 3.0 s_f2p\n").build()
    # print-schema and the README's scenario section both state the rule.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    for doc in (SCHEMA_DOC, section):
        words = " ".join(doc.split()).lower()
        assert "event lines must be time-sorted" in words


def test_bad_disturbance_arity():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "disturbance = 1.0 5.0 0.5\n")
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario(MINIMAL + "disturbance = 0 1 x 0 0 0 0 0\n")


def test_missing_equals():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "just some words\n")


@pytest.mark.parametrize("line", ["variant = bogus", "mission = swim"])
def test_unknown_name_fails_to_parse(line):
    # Checked before any override can replace it, by the rule build()
    # applies.  The free-form `name` is not checked.
    with pytest.raises(ScenarioError) as parsed:
        parse_scenario(MINIMAL + line + "\n")
    key, value = line.split(" = ")
    with pytest.raises(ScenarioError) as built:
        ScenarioConfig(**{key: value}).build()
    assert str(parsed.value) == str(built.value) == f"unknown {key} {value!r}"
    assert parse_scenario(MINIMAL + "name = bogus\n").name == "bogus"


def test_validate_ranges():
    with pytest.raises(ScenarioError):
        ScenarioConfig(dt=0.05).build()
    with pytest.raises(ScenarioError):
        ScenarioConfig(duration=-1.0).build()
    with pytest.raises(ScenarioError):
        ScenarioConfig(variant="bogus").build()
    with pytest.raises(ScenarioError):
        ScenarioConfig(mission="swim").build()


def test_default_scenario_valid():
    cfg = default_scenario()
    assert cfg.events == [(6.0, "s_f2p"), (15.0, "s_p2f")]
    assert len(cfg.disturbances) == 1
    cfg.build()


def test_build_instantiates_params():
    params, wall = default_scenario().build()
    assert params.m == 1.65
    assert np.allclose(wall.normal, [-1.0, 0.0, 0.0])
    # A huge normal scales to the same unit normal instead of overflowing.
    huge = ScenarioConfig(wall_normal=(1e308,) * 3).build()[1].normal
    assert huge == ScenarioConfig(wall_normal=(1, 1, 1)).build()[1].normal
    assert math.isclose(math.hypot(*huge), 1.0)


def test_variant_overrides_rho(monkeypatch):
    # The two-mode variants press with their own rho and proposed with the
    # scenario's; no-freeze flies its full controller in P and never presses.
    pressed = []

    def spy(rho, R, params):
        pressed.append(rho)
        return perch_wrench(rho, R, params)

    monkeypatch.setattr(harness, "perch_wrench", spy)
    cfg = default_scenario()
    cfg.duration, cfg.rho = 9.0, 0.3
    for variant, want in (("no-transitions-rho0", {0.0}),
                          ("no-transitions-rho0.5", {0.5}),
                          ("proposed", {0.3}), ("no-freeze", set())):
        cfg.variant = variant
        pressed.clear()
        assert "P" in run_scenario(cfg).modes, variant
        assert set(pressed) == want, variant


def test_schema_doc_mentions_exit_codes():
    assert "schema_version" in SCHEMA_DOC
    assert "0 ok" in SCHEMA_DOC and "2" in SCHEMA_DOC and "3" in SCHEMA_DOC


# Each key's interval, grouped by rule: the sign rules that two hand-written
# tuples held before each key declared its own, now closed at 1e3 m for a
# length and at 1e4 s for a segment time.
POSITIVE = {"duration", "mass", "inertia_diag", "gravity", "thrust_max",
            "rotor_tau", "tilt_rate_max", "perch_servo_time", "magnet_force",
            "integral_clamp", "estimator_gain", "clearance_arm",
            "settle_tol"}
NONNEGATIVE = {"seed", "k_tau", "k_tp", "k_td", "k_rp", "k_rd", "k_ri",
               "noise_std_pos", "noise_std_vel"}
INTERVALS = {
    "(0, inf)": POSITIVE,
    "[0, inf)": NONNEGATIVE,
    "(0, 1e3]": {"arm_length", "magnet_range", "attach_tol", "standoff"},
    "[0, 1e3]": {"penetration"},
    "[-1e3, 1e3]": {"wall_point", "magnet_offset", "hover_position",
                    "initial_offset"},
    "(0, 1e4]": {"t_approach", "t_contact", "hold_time"},
    "[1e-6, 0.01]": {"dt"},
    "[0, 1)": {"rho"},
    "(-0.5, 0.5)": {"thrust_model_error"}}
KEYS = [f for f in fields(ScenarioConfig)
        if f.name not in ("events", "disturbances")]


def test_every_key_declares_unit_and_rule():
    assert len(fields(ScenarioConfig)) == 46
    for f in KEYS:
        assert set(f.metadata) == {"unit", "rule"}, f.name
    rules = {f.name: f.metadata["rule"] for f in KEYS}
    for interval, keys in INTERVALS.items():
        assert {k for k, rule in rules.items() if rule == interval} == keys
    assert rules["variant"] == tuple(VARIANTS)
    assert rules["mission"] == MISSIONS
    assert {k for k, rule in rules.items() if rule is None} == {
        "name", "wall_normal", "lambda_f2p", "lambda_p2f", "hover_pitch"}


@pytest.mark.parametrize("interval, keys", INTERVALS.items(),
                         ids=list(INTERVALS))
def test_interval_rules_hold_at_their_ends(interval, keys):
    # Each key takes its interval's closed ends and refuses its open ends
    # and the numbers just beyond them, with the same message; beyond an
    # end of an integer key's interval lies the next integer.
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    for key in keys:
        default = getattr(ScenarioConfig(), key)
        integer = isinstance(default, int)
        for x, inside in ((lo, interval[0] == "["), (hi, interval[-1] == "]"),
                          (lo - 1 if integer else np.nextafter(lo, -math.inf),
                           False),
                          (hi + 1 if integer else np.nextafter(hi, math.inf),
                           False)):
            if not math.isfinite(x):
                continue
            value = (x,) * 3 if isinstance(default, tuple) \
                else int(x) if integer else x
            cfg = ScenarioConfig(mission="hover", **{key: value})
            if key == "dt":
                cfg.duration = 1e3 * x
            try:
                cfg.build()
            except ScenarioError as exc:
                assert not inside and str(exc) in (
                    f"{key} must be positive", f"{key} must not be negative",
                    f"{key} must lie in {interval}"), (key, x, exc)
            else:
                assert inside, (key, x)


@pytest.mark.parametrize("value", [
    2.5, 10 ** 400, -2 ** 60, 2 ** 53, -2 ** 53, "3", 2.0, 2.0 ** 60, None],
    ids=["2.5", "10**400", "-2**60", "2**53", "-2**53", "str", "2.0",
         "2.0**60", "None"])
def test_integer_keys_take_only_integers(value):
    # A library config is not parsed, so build() checks an integer key's
    # type: seed 2.5 would fail in default_rng once the run started, and
    # 10**400 overflow in the finite check.  2**53 is refused too: a file's
    # 2**53 + 1 reads as the float 2**53.
    cfg = ScenarioConfig(mission="hover", noise_std_pos=0.001, seed=value)
    with pytest.raises(ScenarioError) as exc:
        cfg.build()
    assert str(exc.value) == "seed must be an integer of magnitude below 2**53"


def test_integer_keys_take_numpy_integers():
    cfg = ScenarioConfig(mission="hover", duration=0.01,
                         noise_std_pos=0.001, seed=np.uint64(2 ** 53 - 1))
    assert run_scenario(cfg).metrics.completed


# (key, library value, the one message build() gives); the file parser fixes
# every length and type, but unchecked, each of these would build and then
# fail to unpack in the run, or raise TypeError or ValueError from build().
# An int no float holds: a finite number that build() cannot run with.
HUGE = 10 ** 400
MISSHAPEN = [
    ("wall_point", (1.0, 2.0), "wall_point must be 3 numbers"),
    ("hover_position", (0.0, 0.0, 1.2, 1.0),
     "hover_position must be 3 numbers"),
    ("inertia_diag", (0.008, 0.008, "0.014"),
     "inertia_diag must be 3 numbers"),
    ("mass", "abc", "mass must be a number"),
    ("mass", "1.65", "mass must be a number"),
    ("mass", None, "mass must be a number"),
    ("mass", [1.65], "mass must be a number"),
    ("events", [(1.0,)], "events must be (time, kind) pairs"),
    ("events", [(1.0, "s_f2p", 2.0)], "events must be (time, kind) pairs"),
    ("events", [("1.0", "s_f2p")], "events must be (time, kind) pairs"),
    ("events", ["ab"], "events must be (time, kind) pairs"),
    ("disturbances", [(0, 1, 2)], "each disturbance must be 8 numbers"),
    ("disturbances", [(0, 1, 0, 0, 0, 0, 0, 0, 0)],
     "each disturbance must be 8 numbers"),
    ("disturbances", [(0, 1, "2", 0, 0, 0, 0, 0)],
     "each disturbance must be 8 numbers"),
    ("name", ["a"], "name must be a string"),
    ("name", None, "name must be a string"),
    ("name", 5, "name must be a string"),
    ("variant", ["x"], "variant must be a string"),
    ("mission", ["hover"], "mission must be a string"),
    ("mass", HUGE, "mass must be finite"),
    ("wall_point", (HUGE, 0.0, 1.2), "wall_point must be finite"),
    ("disturbances", [(0, 1, HUGE, 0, 0, 0, 0, 0)],
     "disturbances must be finite"),
    ("events", [(HUGE, "s_f2p")], "events must be finite"),
]


@pytest.mark.parametrize(
    "key, value, message", MISSHAPEN,
    ids=[f"{k}={v!r}".replace(str(HUGE), "HUGE") for k, v, _ in MISSHAPEN])
def test_library_values_keep_their_shape(key, value, message):
    cfg = ScenarioConfig(**{"mission": "hover", key: value})
    with pytest.raises(ScenarioError) as exc:
        cfg.build()
    assert str(exc.value) == message


def test_library_values_may_be_lists_and_numpy_numbers():
    cfg = ScenarioConfig(
        mission="hover", duration=0.01, mass=np.float32(1.65), gravity=10,
        wall_point=np.array([1.0, 0.0, 1.2]), hover_position=[0.0, 0, 1.2],
        events=[[0.005, "s_f2p"]], disturbances=[np.arange(8.0) / 1e3])
    assert run_scenario(cfg).metrics.completed


def test_schema_doc_rows_read_back_as_defaults():
    # print-schema shows each key as the file line that sets its default,
    # and names every repeatable key, variant and mission.
    rows = [row for row in SCHEMA_DOC.split("Repeatable:")[0].splitlines()
            if re.match(r"  \w+ = ", row)]
    assert [row.split("=")[0].strip() for row in rows] == \
        [f.name for f in KEYS]
    cfg = parse_scenario("schema_version = 1\n" + "\n".join(rows))
    for f in KEYS:
        value = getattr(cfg, f.name)
        assert value == f.default and type(value) is type(f.default), f.name
    assert "\n  event = " in SCHEMA_DOC and "\n  disturbance = " in SCHEMA_DOC
    words = set(re.split(r"[\s,]+", SCHEMA_DOC))
    for name in (*VARIANTS, *MISSIONS):
        assert name in words, name


def test_readme_scenario_example_builds():
    # The example under "## Scenario files" in README.md parses and builds,
    # so a renamed key or variant fails here rather than in the docs.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "\n## Scenario files\n", 1)[1]
    example = section.split("```")[1]
    cfg = parse_scenario(example)
    assert cfg.name == "demo" and cfg.events and cfg.disturbances
    cfg.build()


_NUMBER = st.floats() | st.integers(-3, 3)


def _numbers(n):
    return st.lists(_NUMBER, min_size=n, max_size=n).map(
        lambda xs: " ".join(map(repr, xs)))


def _entry(key, default):
    """`key = value` lines whose value has the default's type and arity."""
    if isinstance(default, str):
        raw = st.sampled_from([*VARIANTS, *MISSIONS, "demo", "bogus"])
    elif isinstance(default, tuple):
        raw = _numbers(len(default))
    else:
        raw = _numbers(1)
    return raw.map(lambda v: f"{key} = {v}")


_ENTRIES = st.one_of(
    *[_entry(k, v) for k, v in asdict(ScenarioConfig()).items()
      if k not in ("events", "disturbances")],
    st.tuples(_numbers(1), st.sampled_from(["s_f2p", "s_p2f"])).map(
        lambda e: f"event = {e[0]} {e[1]}"),
    _numbers(8).map(lambda v: f"disturbance = {v}"))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.lists(_ENTRIES, max_size=6))
@example(["hold_time = 1e62"])          # far beyond its 1e4 s bound
@example(["t_approach = 3e-279"])       # the quintic solve is singular
def test_parsed_scenario_builds(lines):
    # Whatever build() accepts must also plan: run_scenario builds the
    # MissionPlanner before its first tick.
    try:
        cfg = parse_scenario("\n".join(["schema_version = 1", *lines]))
        _, wall = cfg.build()
    except ScenarioError:
        return
    MissionPlanner(cfg, wall)


# The length keys and the segment times, each drawn within its rule: the
# bounds that keep every leg of a perch plan finite.
_POINTS = sorted(INTERVALS["[-1e3, 1e3]"])
_SIZES = sorted(INTERVALS["(0, 1e3]"] | INTERVALS["[0, 1e3]"])
_POINT = st.floats(-1e3, 1e3) | st.sampled_from([-1e3, 1e3])
_SIZE = st.floats(0.0, 1e3, exclude_min=True) | st.just(1e3)
_TIME = st.floats(1e-6, 1e4) | st.sampled_from([1e-6, 1e4])
_PERCH = st.fixed_dictionaries({
    **{k: st.tuples(_POINT, _POINT, _POINT) for k in _POINTS},
    **{k: _SIZE for k in _SIZES},
    "dt": st.floats(1e-6, 0.01) | st.just(1e-6),
    "t_approach": _TIME, "t_contact": _TIME, "hold_time": _TIME,
    "wall_normal": st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    "hover_pitch": st.floats(-4.0, 4.0)})
# The corner: every length 1e3 m in size, the shortest dt and legs.
_CORNER = {**{k: (1e3, 1e3, 1e3) for k in _POINTS},
           **{k: 1e3 for k in _SIZES},
           "hover_position": (-1e3, -1e3, -1e3), "dt": 1e-6,
           "t_approach": 1e-6, "t_contact": 1e-6, "hold_time": 1e4,
           "wall_normal": (-1.0, 0.0, 0.0), "hover_pitch": 0.0}


def _leg_numbers(planner):
    """Every number of the planner's legs and of its terminal setpoint."""
    return np.concatenate([np.ravel(x) for leg in planner.segments
                           for x in leg] +
                          [np.ravel(x) for x in planner.terminal])


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_PERCH)
@example(_CORNER)
def test_perch_legs_stay_finite(keys):
    # Any perch scenario that builds flies finite legs, with no warning,
    # whenever its perch signal comes during the approach: the contact leg
    # starts from the approach's moving sample, and a departure from a pose
    # on that leg.
    cfg = ScenarioConfig(mission="perch", duration=keys["dt"], **keys)
    try:
        _, wall = cfg.build()
    except ScenarioError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            t = cfg.hold_time + f * cfg.t_approach
            for g in (0.5, 1.0):
                planner = MissionPlanner(cfg, wall)
                planner.start_approach(t)
                assert np.isfinite(_leg_numbers(planner)).all(), (f, g)
                t_dep = t + g * cfg.t_contact
                p, _, _, R, _ = planner.sample(t_dep)
                planner.start_departure(t_dep, (p, ZERO3, R, ZERO3))
                assert np.isfinite(_leg_numbers(planner)).all(), (f, g)
