"""Fast tests of the benchmark itself: inputs, tracer and correctness gates."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from perchsim import acceptance, harness, scenario  # noqa: E402

SHORT_HOVER = """\
schema_version = 1
name = traced-hover
mission = hover
duration = 0.2
noise_std_pos = 0.001
noise_std_vel = 0.01
disturbance = 0.05 0.15 0.5 0 0 0 0.1 0
"""


def test_seed_generator_is_deterministic():
    a, b = inputs.hover_sweep_texts(7), inputs.hover_sweep_texts(7)
    assert a == b
    assert inputs.digest(a) == inputs.digest(b)
    assert inputs.digest(a) != inputs.digest(inputs.hover_sweep_texts(8))
    for text in a:
        cfg = scenario.parse_scenario(text)
        assert cfg.mission == "hover"
        assert cfg.duration == inputs.HOVER_DURATION_S
        assert cfg.noise_std_pos > 0 and cfg.noise_std_vel > 0
        assert len(cfg.disturbances) == inputs.HOVER_DISTURBANCES
    assert inputs.workload_inputs("mission", 1) == []
    assert inputs.workload_inputs("ablate", 2) == []


def _sweep(texts):
    return [harness.run_scenario(scenario.parse_scenario(t)) for t in texts]


def test_tracer_leaves_perchsim_unchanged():
    before = tracer.targets()
    plain = _sweep([SHORT_HOVER])[0]

    t = tracer.Tracer()
    traced = t.run(worker.run_hover_sweep, [SHORT_HOVER])[0]
    assert tracer.targets() == before
    assert traced.rows.tobytes() == plain.rows.tobytes()
    assert traced.modes == plain.modes and traced.events == plain.events

    totals = t.totals()
    assert sum(v["self_ns"] for v in totals.values()) \
        == totals[tracer.ROOT]["total_ns"]
    ticks = len(plain.modes)
    assert t.counts["ticks"] == ticks
    assert totals["vehicle.integrate"]["calls"] == ticks
    assert totals["geometry.exp_so3"]["calls"] == 4 * ticks
    metrics = tracer.layer_metrics(totals, t.counts, 0, 1.0)
    assert set(metrics) == set(tracer.PER_LAYER)
    assert metrics["vehicle.integrate.free_ratio"] == 1.0

    # An excluded interval inside a leaf span leaves it and its ancestors.
    a = t.arrays()
    leaf = int((a["layer"] == t.names.index("geometry.exp_so3")).argmax())
    s0 = int(a["start_ns"][leaf])
    cut = int(a["end_ns"][leaf] - s0) // 2
    less = t.totals([(s0 + 1, s0 + 1 + cut)])
    for name in ("geometry.exp_so3", "vehicle.integrate", tracer.ROOT):
        assert less[name]["total_ns"] == totals[name]["total_ns"] - cut
    assert sum(v["self_ns"] for v in less.values()) \
        == less[tracer.ROOT]["total_ns"]

    def boom(text):
        harness.run_scenario(scenario.parse_scenario(text))
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        tracer.Tracer().run(boom, SHORT_HOVER)
    assert tracer.targets() == before


def test_gate_rejects_one_altered_csv_byte(tmp_path, monkeypatch):
    result = _sweep([SHORT_HOVER])[0]
    csv = result.to_csv().encode()
    (tmp_path / "log.csv").write_bytes(csv)
    (tmp_path / "metrics.json").write_text(json.dumps({
        "perch_achieved": True, "time_to_perch_s": 1.7,
        "unperch_achieved": True, "min_clearance_m": 0.0501,
        "z_drop_m": 1e-4, "settle_time_after_release_s": 0.001}))
    monkeypatch.setattr(acceptance, "GOLDEN_SHA256",
                        hashlib.sha256(csv).hexdigest())
    assert worker.check_mission(str(tmp_path), 12.0) == []

    altered = bytearray(csv)
    altered[len(altered) // 2] ^= 1
    (tmp_path / "log.csv").write_bytes(bytes(altered))
    fails = worker.check_mission(str(tmp_path), 12.0)
    assert len(fails) == 1 and "GOLDEN_SHA256" in fails[0]


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == tracer.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
