"""Scenario format tests: parsing, validation, schema documentation."""

import math
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perchsim import harness
from perchsim.control import perch_wrench
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


# The keys that must be positive, and that must not be negative, as two
# hand-written tuples held them before each key declared its own rule.
POSITIVE = {"duration", "mass", "inertia_diag", "gravity", "arm_length",
            "thrust_max", "rotor_tau", "tilt_rate_max", "perch_servo_time",
            "magnet_force", "magnet_range", "attach_tol", "integral_clamp",
            "estimator_gain", "standoff", "t_approach", "t_contact",
            "hold_time", "clearance_arm", "settle_tol"}
NONNEGATIVE = {"seed", "k_tau", "k_tp", "k_td", "k_rp", "k_rd", "k_ri",
               "penetration", "noise_std_pos", "noise_std_vel"}
KEYS = [f for f in fields(ScenarioConfig)
        if f.name not in ("events", "disturbances")]


def test_every_key_declares_unit_and_rule():
    assert len(fields(ScenarioConfig)) == 45
    for f in KEYS:
        assert set(f.metadata) == {"unit", "rule"}, f.name
    rules = {f.name: f.metadata["rule"] for f in KEYS}
    assert {k for k, rule in rules.items() if rule == "> 0"} == POSITIVE
    assert {k for k, rule in rules.items() if rule == ">= 0"} == NONNEGATIVE
    assert rules["variant"] == tuple(VARIANTS)
    assert rules["mission"] == MISSIONS
    assert {k for k, rule in rules.items() if rule is None} == {
        "name", "dt", "wall_point", "wall_normal", "magnet_offset",
        "lambda_f2p", "lambda_p2f", "rho", "hover_position", "hover_pitch",
        "initial_offset"}


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
@example(["hold_time = 1e62"])          # far beyond MAX_SEGMENT_S
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
