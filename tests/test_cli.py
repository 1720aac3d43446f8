"""CLI tests: subcommands, output files, exit codes."""

import json

from perchsim.cli import EXIT_FAILED, EXIT_OK, EXIT_SCHEMA, main

HOVER = """\
schema_version = 1
name = hover-short
mission = hover
duration = 1.0
"""


def test_run_writes_outputs(tmp_path, capsys):
    scen = tmp_path / "hover.scn"
    scen.write_text(HOVER)
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scen), "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "log.csv").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["completed"] is True
    header = (out / "log.csv").read_text().splitlines()[0]
    assert header.startswith("t,px,py,pz,")
    printed = json.loads(capsys.readouterr().out)
    assert printed["completed"] is True


def test_run_dt_override(tmp_path):
    scen = tmp_path / "hover.scn"
    scen.write_text(HOVER)
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scen), "--out", str(out),
                 "--dt", "0.005", "--seed", "3"])
    assert code == EXIT_OK
    body = (out / "log.csv").read_text().splitlines()
    assert body[2].startswith("0.005,")


def test_ground_contact_exit_code(tmp_path, capsys):
    # Rotors too weak to hold altitude: the run ends on the ground.
    scen = tmp_path / "weak.scn"
    scen.write_text(HOVER + "thrust_max = 1\n")
    code = main(["run", "--scenario", str(scen), "--out", str(tmp_path / "o")])
    assert code == EXIT_FAILED
    printed = json.loads(capsys.readouterr().out)
    assert printed["failure"] == "ground-contact"


def test_malformed_scenario_exit_code(tmp_path, capsys):
    scen = tmp_path / "bad.scn"
    scen.write_text("mass = 1.65\n")
    assert main(["run", "--scenario", str(scen)]) == EXIT_SCHEMA
    assert "scenario error" in capsys.readouterr().err


def test_missing_scenario_exit_code(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.scn")]) \
        == EXIT_SCHEMA


def test_bad_dt_override_exit_code(tmp_path):
    scen = tmp_path / "hover.scn"
    scen.write_text(HOVER)
    assert main(["run", "--scenario", str(scen), "--out",
                 str(tmp_path / "o"), "--dt", "0.5"]) == EXIT_SCHEMA


def test_print_schema(capsys):
    assert main(["print-schema"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "schema_version" in out
    assert "event = " in out
