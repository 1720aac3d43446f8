"""Scenario format tests: parsing, validation, schema documentation."""

import math
from dataclasses import asdict

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
    with pytest.raises(ScenarioError):
        parse_scenario(
            MINIMAL + "event = 8.0 s_p2f\nevent = 3.0 s_f2p\n").build()


def test_bad_disturbance_arity():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "disturbance = 1.0 5.0 0.5\n")
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario(MINIMAL + "disturbance = 0 1 x 0 0 0 0 0\n")


def test_missing_equals():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "just some words\n")


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
@example(["hold_time = 1e62"])          # T ** 5 overflows
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
