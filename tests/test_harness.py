"""Harness tests: metrics arithmetic, determinism, regulation, comparisons."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from perchsim.acceptance import run_variant
from perchsim.cli import _write_run
from perchsim.harness import (CSV_COLUMNS, _COL, _NUM_COLUMNS, SimResult,
                              compare, compute_metrics, run_scenario,
                              settle_index)
from perchsim.scenario import ScenarioConfig, default_scenario, \
    parse_scenario


def synthetic_result(z_after, gaps_after, ep_after, sat_p):
    """Ten-tick log at 1 s spacing with a release event at t = 2."""
    n = 10
    rows = np.zeros((n, len(_NUM_COLUMNS)))
    rows[:, _COL["t"]] = np.arange(n, dtype=float)
    z = np.array([1.2, 1.2, 1.2] + list(z_after))
    rows[:, _COL["pz"]] = z
    rows[:, _COL["ep_norm"]] = np.array([0.0, 0.0, 0.0] + list(ep_after))
    modes = ["F", "F2P", "P", "P", "P", "P", "P", "F", "F", "F"]
    sat = np.zeros(n)
    for i in sat_p:
        sat[i] = 1.0
    rows[:, _COL["sat_any"]] = sat
    gaps = np.array([0.3, 0.0, 0.0] + list(gaps_after))
    events = [(0.0, "operator", "s_f2p"), (1.0, "contact", "attach"),
              (2.0, "contact", "release")]
    return SimResult(default_scenario(), rows, modes, gaps, events)


def test_metrics_z_drop_arithmetic():
    res = synthetic_result(
        z_after=[1.1, 0.9, 0.8, 1.0, 1.2, 1.2, 1.2],
        gaps_after=[0.1, 0.2, 0.3, 0.3, 0.3, 0.3, 0.3],
        ep_after=[0.5, 0.5, 0.1, 0.01, 0.01, 0.01, 0.01],
        sat_p=[])
    m = compute_metrics(res)
    assert m.perch_achieved and m.perch_time_s == 1.0
    assert m.time_to_perch_s == 1.0
    assert m.unperch_achieved and m.release_time_s == 2.0
    assert abs(m.z_drop_m - 0.4) < 1e-12
    assert abs(m.min_clearance_m - 0.1) < 1e-12
    assert m.settle_time_after_release_s == 4.0


def test_metrics_saturation_counting():
    res = synthetic_result(
        z_after=[1.2] * 7, gaps_after=[0.3] * 7, ep_after=[0.0] * 7,
        sat_p=[3, 5])  # 2 saturated ticks of the 5 in mode P
    m = compute_metrics(res)
    assert abs(m.saturation_fraction["P"] - 0.4) < 1e-12
    assert m.saturation_fraction["F"] == 0.0


def test_metrics_no_saturation_anywhere():
    res = synthetic_result(
        z_after=[1.2] * 7, gaps_after=[0.3] * 7, ep_after=[0.0] * 7,
        sat_p=[])
    m = compute_metrics(res)
    assert all(v == 0.0 for v in m.saturation_fraction.values())


def test_metrics_penetration_counts_as_recontact():
    res = synthetic_result(
        z_after=[1.2] * 7,
        gaps_after=[0.1, 0.2, -0.05, 0.2, 0.3, 0.3, 0.3],
        ep_after=[0.0] * 7, sat_p=[])
    m = compute_metrics(res)
    assert m.min_clearance_m == -0.05


def test_settle_index_matches_brute_force():
    def brute(ok):
        return next((j for j in range(len(ok)) if ok[j:].all()), None)

    rng = np.random.default_rng(5)
    cases = [np.ones(6, bool), np.zeros(6, bool), np.zeros(0, bool),
             np.array([True, True, False])]
    cases += [rng.random(rng.integers(1, 40)) < p
              for p in (0.5, 0.9, 0.99) for _ in range(100)]
    for ok in cases:
        assert settle_index(ok) == brute(ok)


def test_compare_identical_runs():
    res = synthetic_result(
        z_after=[1.1, 0.9, 0.8, 1.0, 1.2, 1.2, 1.2],
        gaps_after=[0.1, 0.2, 0.3, 0.3, 0.3, 0.3, 0.3],
        ep_after=[0.0] * 7, sat_p=[])
    res.metrics = compute_metrics(res)
    report = compare(res, res)
    assert all(d == 0.0 for d in report["metric_deltas"].values())
    assert all(o["holds"] for o in report["orderings"])


def test_compare_orderings():
    a = synthetic_result(
        z_after=[1.15, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2],
        gaps_after=[0.1, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3],
        ep_after=[0.0] * 7, sat_p=[])
    b = synthetic_result(
        z_after=[0.7, 0.8, 1.2, 1.2, 1.2, 1.2, 1.2],
        gaps_after=[0.1, -0.02, 0.3, 0.3, 0.3, 0.3, 0.3],
        ep_after=[0.0] * 7, sat_p=[])
    a.metrics, b.metrics = compute_metrics(a), compute_metrics(b)
    report = compare(a, b)
    assert report["metric_deltas"]["z_drop_m"] > 0.0
    checks = {o["check"]: o["holds"] for o in report["orderings"]}
    assert checks["other z_drop >= base z_drop"]
    assert checks["other min_clearance <= base min_clearance"]


def _hover_cfg():
    cfg = ScenarioConfig(mission="hover", duration=2.0)
    return cfg.validate()


def test_hover_regulation():
    res = run_scenario(_hover_cfg())
    assert res.metrics.completed
    assert res.column("ep_norm").max() < 0.01


def test_determinism_byte_identical_csv():
    a = run_scenario(_hover_cfg()).to_csv()
    b = run_scenario(_hover_cfg()).to_csv()
    assert a == b


def test_csv_header_and_shape():
    res = run_scenario(_hover_cfg())
    lines = res.to_csv().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(res.modes) + 1
    assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines[1:])
    mode_pos = CSV_COLUMNS.index("mode")
    assert lines[1].split(",")[mode_pos] == "F"


def test_mission_chain_events():
    # Full proposed mission: every edge shows up in the event log in order.
    res = run_variant("proposed")
    kinds = [(k, d) for _, k, d in res.events]
    for needed in [("operator", "s_f2p"), ("mode", "F->F2P"),
                   ("eta_d", "perch"), ("contact", "attach"),
                   ("mode", "F2P->P"), ("operator", "s_p2f"),
                   ("mode", "P->P2F"), ("mode", "P2F->F"),
                   ("eta_d", "unperch"), ("contact", "release")]:
        assert needed in kinds
    order = [kinds.index(k) for k in
             [("mode", "F->F2P"), ("contact", "attach"), ("mode", "F2P->P"),
              ("mode", "P->P2F"), ("mode", "P2F->F"),
              ("contact", "release")]]
    assert order == sorted(order)


def test_mission_metrics_sane():
    m = run_variant("proposed").metrics
    assert m.perch_achieved and m.unperch_achieved
    assert m.completed and m.failure == ""
    assert m.min_clearance_m > 0.05
    assert m.z_drop_m < 0.2


# SHA-256 of the default-mission CSV of each ablation variant.  Criterion 11
# pins only the proposed variant, so these guard the VARIANTS table wiring of
# the other three (two-mode machine, rho override, no-freeze policies).
ABLATION_SHA256 = {
    "no-transitions-rho0":
        "147ff198701fc866da28e56e99f38eccd22223b5dc24907b5343c5a63fc0cca1",
    "no-transitions-rho0.5":
        "54f4d97f891a9d3d0e201fe77988e52a6efe6efdb7d2bc9ff2d5f60864f12b9b",
    "no-freeze":
        "41e38b56374543b9afa520b935a8d9166ce45bd6d340b91cdad9fe7570478176",
}


@pytest.mark.parametrize("variant", sorted(ABLATION_SHA256))
def test_ablation_csv_pinned(variant):
    csv = run_variant(variant).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == ABLATION_SHA256[variant]


# SHA-256 of each default-mission variant's metrics.json as `perchsim run`
# writes it: every metric key in order, null for an unmeasured one, and the
# event log.  The CSV pins above do not cover these bytes.
METRICS_JSON_SHA256 = {
    "proposed":
        "0743dc7459b12f92abd74b7c13df944e619fb97d27dbc0bfdf9852708070c9f7",
    "no-transitions-rho0":
        "8f0ada614de8f406e2e70b55fa183c5a455a8a2b6a248855c021de8ba0a2572e",
    "no-transitions-rho0.5":
        "50a87eddba47ffdae5a38a17845d670959a740f4d02ee7f396e064690ce5129f",
    "no-freeze":
        "a625aa4d9f1bbd51b3d19fec1c80944f1168da6d45768b9b821fc9f736beb296",
}


@pytest.mark.parametrize("variant", sorted(METRICS_JSON_SHA256))
def test_metrics_json_pinned(variant, tmp_path):
    _write_run(run_variant(variant), tmp_path)
    data = (tmp_path / "metrics.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == METRICS_JSON_SHA256[variant]


# SHA-256 of a short noisy, disturbed, pitched hover CSV.  The default
# mission is noise-free, so this is the only pin on the measurement-noise
# path and the disturbance schedule in free flight.
NOISY_HOVER = """\
schema_version = 1
mission = hover
duration = 0.5
seed = 5
noise_std_pos = 0.002
noise_std_vel = 0.01
hover_pitch = 0.4
initial_offset = 0.02 -0.01 0.03
disturbance = 0.1 0.3 0.8 -0.5 0.3 0.2 -0.1 0.3
"""
NOISY_HOVER_SHA256 = \
    "d53cf85373145947b4b65ff80384fbc64b4f24b3772a0326b15d676550919efd"


def test_noisy_hover_pinned():
    csv = run_scenario(parse_scenario(NOISY_HOVER)).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == NOISY_HOVER_SHA256


def _make_reference():
    path = Path(__file__).parent / "data" / "make_reference.py"
    spec = importlib.util.spec_from_file_location("make_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFERENCE = _make_reference()
REF_RTOL = 1e-9   # |new - ref| <= REF_RTOL * max(1, |ref|)


def _leaves(metrics, prefix=""):
    """Flatten a metrics dict into {dotted key: leaf value}."""
    out = {}
    for key, value in metrics.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


@pytest.mark.parametrize("name", [*REFERENCE.VARIANTS, "noisy-hover"])
def test_matches_pre_scalar_reference(name):
    """Runs match traces recorded with the numpy-array implementation.

    The traces predate the plain-float integrator and the plain-float tick.

    Modes, events and tick counts must be identical; every sampled CSV value
    and every numeric metric must lie within REF_RTOL (relative above 1).
    """
    with np.load(REFERENCE.OUT) as npz:
        ref = {key.rsplit(".", 1)[1]: npz[key] for key in npz.files
               if key.rsplit(".", 1)[0] == name}
    if name == "noisy-hover":
        result = run_scenario(parse_scenario(NOISY_HOVER))
    else:
        result = run_variant(name)
    new = REFERENCE.summary(result, int(ref["stride"]))
    for key in ("ticks", "mode_names", "mode_runs", "events"):
        assert np.array_equal(new[key], ref[key]), key
    assert new["rows"].shape == ref["rows"].shape
    scale = np.maximum(1.0, np.abs(ref["rows"]))
    worst = np.max(np.abs(new["rows"] - ref["rows"]) / scale)
    assert worst <= REF_RTOL, f"rows deviate by {worst:.3g}"
    m_new = _leaves(json.loads(str(new["metrics"])))
    m_ref = _leaves(json.loads(str(ref["metrics"])))
    assert m_new.keys() == m_ref.keys()
    for key, r in m_ref.items():
        x = m_new[key]
        if isinstance(r, float) and isinstance(x, float):
            assert abs(x - r) <= REF_RTOL * max(1.0, abs(r)), key
        else:
            assert x == r, key
