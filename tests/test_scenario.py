"""Scenario format tests: parsing, validation, schema documentation."""

import numpy as np
import pytest

from perchsim.scenario import (SCHEMA_DOC, ScenarioConfig, ScenarioError,
                               default_scenario, parse_scenario)

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
        parse_scenario(MINIMAL + "event = 3.0 s_warp\n")
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario(MINIMAL + "event = abc s_f2p\n")


def test_unsorted_events():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "event = 8.0 s_p2f\nevent = 3.0 s_f2p\n")


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
        ScenarioConfig(dt=0.05).validate()
    with pytest.raises(ScenarioError):
        ScenarioConfig(duration=-1.0).validate()
    with pytest.raises(ScenarioError):
        ScenarioConfig(variant="bogus").validate()
    with pytest.raises(ScenarioError):
        ScenarioConfig(mission="swim").validate()


def test_default_scenario_valid():
    cfg = default_scenario()
    assert cfg.events == [(6.0, "s_f2p"), (15.0, "s_p2f")]
    assert len(cfg.disturbances) == 1
    cfg.validate()


def test_build_instantiates_params():
    params, wall, gains, switch, plan = default_scenario().build()
    assert params.m == 1.65
    assert np.allclose(wall.normal, [-1.0, 0.0, 0.0])
    assert gains.K_tp == 10.0
    assert switch.lambda_f2p == 1.0
    assert plan.d_off == 0.5


def test_variant_overrides_rho():
    cfg = default_scenario()
    cfg.variant = "no-transitions-rho0"
    assert cfg.build()[3].rho == 0.0
    cfg.variant = "no-transitions-rho0.5"
    assert cfg.build()[3].rho == 0.5
    cfg.rho = 0.3
    for variant in ("proposed", "no-freeze"):
        cfg.variant = variant
        assert cfg.build()[3].rho == 0.3


def test_schema_doc_mentions_exit_codes():
    assert "schema_version" in SCHEMA_DOC
    assert "0 ok" in SCHEMA_DOC and "2" in SCHEMA_DOC and "3" in SCHEMA_DOC
