"""CLI tests: subcommands, output files, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from perchsim import acceptance, allocation, cli
from perchsim.cli import EXIT_FAILED, EXIT_OK, EXIT_SCHEMA, main
from perchsim.harness import _BLOCK, run_scenario
from perchsim.scenario import ScenarioConfig, parse_scenario

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


def test_ground_contact_mid_block_writes_partial_log(tmp_path, capsys):
    # Weak rotors land the hover 1346 ticks in, past at least one full
    # block of the streamed log and part-way through another: the full
    # blocks and the partial last one are written and folded.  The library
    # run folds its log as one partial block, cut short of its 5000 ticks,
    # into the same metrics.
    scen = tmp_path / "weak.scn"
    scen.write_text(HOVER + "duration = 5\nthrust_max = 3.5\n")
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scen), "--out", str(out)]) \
        == EXIT_FAILED
    full = run_scenario(parse_scenario(scen.read_text()))
    assert full.metrics.failure == "ground-contact"
    assert len(full.modes) > _BLOCK and len(full.modes) % _BLOCK
    assert (out / "log.csv").read_text() == full.to_csv()
    assert json.loads(capsys.readouterr().out) == full.metrics.to_dict()


def test_malformed_scenario_exit_code(tmp_path, capsys):
    scen = tmp_path / "bad.scn"
    scen.write_text("mass = 1.65\n")
    assert main(["run", "--scenario", str(scen)]) == EXIT_SCHEMA
    assert "scenario error" in capsys.readouterr().err


# (scenario line, the one stderr message it must give); unchecked, each of
# these would run, crash or exit 0.
MID_APPROACH = ("mission = perch\nstandoff = 1e300\nt_approach = 1\n"
                "t_contact = 10000\nhold_time = 0.5\nduration = 2\n"
                "event = 0.6 s_f2p")
INVALID = [
    ("estimator_gain = 0", "estimator_gain must be positive"),
    ("estimator_gain = -1", "estimator_gain must be positive"),
    ("duration = inf", "duration must be finite"),
    ("magnet_force = -1", "magnet_force must be positive"),
    ("mass = nan", "mass must be finite"),
    ("wall_normal = 0 0 0", "wall_normal must have finite nonzero length"),
    ("thrust_max = inf", "thrust_max must be finite"),
    ("inertia_diag = 0.008 0 0.014", "inertia_diag must be positive"),
    ("rho = 1", "rho must lie in [0, 1)"),
    ("hold_time = 0", "hold_time must lie in (0, 1e4]"),
    ("seed = -1", "seed must not be negative"),
    # An integer key holds an integer that a float64 holds exactly: the
    # file's 2**53 + 1 reads as 2**53 and is refused, not run as 2**53.
    ("seed = 2.5", "line 5: seed expects an integer"),
    ("seed = inf", "line 5: seed expects an integer"),
    ("seed = 1e300", "seed must be an integer of magnitude below 2**53"),
    ("seed = 9007199254740993",
     "seed must be an integer of magnitude below 2**53"),
    ("seed = 9007199254740994",
     "seed must be an integer of magnitude below 2**53"),
    ("noise_std_vel = -0.1", "noise_std_vel must not be negative"),
    ("disturbance = 0 inf 1 0 0 0 0 0", "disturbances must be finite"),
    ("event = nan s_f2p", "events must be finite"),
    ("mission = perch\nwall_normal = 0 0 1",
     "wall normal may not be vertical"),
    ("lambda_f2p = -2", "lambda_f2p must exceed lambda_p2f"),
    ("duration = 0.0001", "duration must last at least one tick (dt) and "
     "at most 2000000 ticks"),
    ("arm_length = 1e-10", "rotor positions must be nonzero"),
    ("arm_length = 1e300", "arm_length must lie in (0, 1e3]"),
    ("arm_length = 1e200", "arm_length must lie in (0, 1e3]"),
    # Drag ratios whose A is numerically rank deficient (cond(A) about 1e13
    # and 1e17): the rotors' right inverse misses A P = I by more than 1e-9.
    ("k_tau = 1e8", "rotor geometry is rank deficient"),
    ("k_tau = 1e6", "rotor geometry is rank deficient"),
    ("mission = perch\nhover_pitch = 1.5707963267948966",
     "rotation endpoints are antipodal or nearly so"),
    ("mission = perch\nhold_time = 1e62", "hold_time must lie in (0, 1e4]"),
    ("mission = perch\nt_approach = 3e-279",
     "t_approach must last at least dt"),
    ("t_contact = 0.0005", "t_contact must last at least dt"),
    ("duration = 1e300", "duration must last at least one tick (dt) and "
     "at most 2000000 ticks"),
    ("duration = 2000.5", "duration must last at least one tick (dt) and "
     "at most 2000000 ticks"),
    ("mass = -1", "mass must be positive"),
    ("thrust_max = 0", "thrust_max must be positive"),
    ("rotor_tau = 0", "rotor_tau must be positive"),
    ("magnet_range = 0", "magnet_range must lie in (0, 1e3]"),
    ("rho = -0.1", "rho must lie in [0, 1)"),
    ("dt = 0", "dt must lie in [1e-6, 0.01]"),
    ("disturbance = 5 1 3 0 0 0 0 0",
     "a disturbance must end after it starts"),
    ("event = -1 s_f2p", "event times must not be negative"),
    ("wall_normal = 1.5e308 1.5e308 1.5e308",
     "wall_normal must have finite nonzero length"),
    # Two faults: the first message is set by the order of build()'s checks
    # (finite, then each key's rule, each in field order, then the rules
    # that span keys) and by names being checked when the file is parsed.
    ("seed = -1\nmass = -1", "seed must not be negative"),
    ("duration = inf\nmass = -1", "duration must be finite"),
    ("k_tp = -1\nestimator_gain = 0", "k_tp must not be negative"),
    ("hold_time = 0\nt_contact = 1e5", "t_contact must lie in (0, 1e4]"),
    ("variant = bogus\nrho = 2", "unknown variant 'bogus'"),
    # Two keys at extremes, each finite, whose perch setpoints or approach
    # would overflow: the first out of range in field order is named.
    ("mission = perch\nwall_point = 1e308 1e308 1e308\n"
     "magnet_offset = 1e308 1e308 1e308",
     "wall_point must lie in [-1e3, 1e3]"),
    ("mission = perch\nwall_point = 1e308 1e308 1e308\npenetration = 1e308",
     "wall_point must lie in [-1e3, 1e3]"),
    ("mission = perch\nwall_point = -1e308 -1e308 -1e308\nstandoff = 1e308",
     "wall_point must lie in [-1e3, 1e3]"),
    ("mission = perch\nwall_point = 1e308 1e308 1e308\n"
     "hover_position = -1e308 -1e308 -1e308",
     "wall_point must lie in [-1e3, 1e3]"),
    ("mission = perch\nmagnet_offset = 1e308 1e308 1e308\npenetration = 1e308",
     "magnet_offset must lie in [-1e3, 1e3]"),
    ("mission = perch\nmagnet_offset = -1e308 -1e308 -1e308\n"
     "standoff = 1e308", "magnet_offset must lie in [-1e3, 1e3]"),
    ("mission = perch\nmagnet_offset = 1e308 1e308 1e308\n"
     "hover_position = 1e308 1e308 1e308",
     "magnet_offset must lie in [-1e3, 1e3]"),
    ("mission = perch\nhover_position = 1e308 1e308 1e308\nstandoff = 1e308",
     "hover_position must lie in [-1e3, 1e3]"),
    # A finite approach whose contact leg, flown at the perch signal, would
    # overflow in its short t_contact.
    ("mission = perch\npenetration = 1e300\nt_contact = 0.001\n"
     "hold_time = 0.5\nduration = 2\nevent = 1.0 s_f2p",
     "penetration must lie in [0, 1e3]"),
    # A perch signal mid-approach, whose contact leg would start from a
    # moving sample and overflow.
    (MID_APPROACH, "standoff must lie in (0, 1e3]"),
]


@pytest.mark.parametrize("line, message", INVALID,
                         ids=[line for line, _ in INVALID])
def test_invalid_value_exit_code(tmp_path, capsys, line, message):
    # Exit 2 with exactly this one line on stderr; none may warn.
    scen = tmp_path / "bad.scn"
    scen.write_text(HOVER + line + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--scenario", str(scen), "--out",
                     str(tmp_path / "o")]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"scenario error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_mid_approach_overflow_exits_2_under_warnings_as_errors(tmp_path):
    # In a fresh `python -W error` too: one line, no traceback, no output.
    scen = tmp_path / "bad.scn"
    scen.write_text(HOVER + MID_APPROACH + "\n")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "perchsim.cli", "run",
         "--scenario", str(scen), "--out", str(tmp_path / "o")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == EXIT_SCHEMA
    assert proc.stderr == "scenario error: standoff must lie in (0, 1e3]\n"
    assert not (tmp_path / "o").exists()


def test_huge_seed_exits_2_under_warnings_as_errors(tmp_path):
    # --seed takes any integer; one that no float64 holds is refused before
    # the run, also in a fresh `python -W error`.
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "perchsim.cli", "run",
         "--seed", "1" + "0" * 400, "--out", str(tmp_path / "o")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == EXIT_SCHEMA
    assert proc.stderr \
        == "scenario error: seed must be an integer of magnitude below " \
        "2**53\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_empty_out_exit_code(tmp_path, capsys, monkeypatch, command):
    # An empty --out names no directory: both commands refuse it before any
    # run, and write nothing in the working directory.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_scenario",
                        lambda *args: pytest.fail("run_scenario was called"))
    scen = tmp_path / "hover.scn"
    scen.write_text(HOVER)
    assert main([command, "--scenario", str(scen), "--out", ""]) \
        == EXIT_SCHEMA
    assert capsys.readouterr().err \
        == "cannot write : No such file or directory\n"
    assert list(tmp_path.iterdir()) == [scen]


@pytest.mark.parametrize("line", ["rho = 1", "event = 3 s_warp",
                                  "variant = bogus", "mission = bogus"])
@pytest.mark.parametrize("command", ["run", "run --variant proposed",
                                     "ablate"])
def test_build_error_writes_nothing(tmp_path, capsys, command, line):
    # parse_scenario rejects an unknown name, build() the other values, both
    # before tick 0, so no output directory is made.  The name is checked
    # even where an override (--variant, or ablate's loop) replaces it.
    scen = tmp_path / "bad.scn"
    scen.write_text(HOVER + line + "\n")
    out = tmp_path / "o"
    assert main(command.split() + ["--scenario", str(scen),
                                   "--out", str(out)]) == EXIT_SCHEMA
    assert "scenario error" in capsys.readouterr().err
    assert not out.exists()


# (command, --out, the path in the way): a file at or above --out, or a
# directory where the run would write one of its files.
UNWRITABLE = {
    "run": ("run", "taken", "taken"),
    "ablate": ("ablate", "taken", "taken"),
    "run-sub": ("run", "taken/sub", "taken"),
    "ablate-sub": ("ablate", "taken/sub", "taken"),
    "run-metrics-dir": ("run", "o", "o/metrics.json"),
    "run-log-dir": ("run", "o", "o/log.csv"),
    "ablate-comparison-dir": ("ablate", "o", "o/comparison.json"),
    "ablate-metrics-dir": ("ablate", "o", "o/no-freeze/metrics.json"),
    "ablate-log-dir": ("ablate", "o", "o/proposed/log.csv"),
}


@pytest.mark.parametrize("command, out, blocked", UNWRITABLE.values(),
                         ids=UNWRITABLE)
def test_unwritable_out_exit_code(tmp_path, capsys, monkeypatch, command,
                                  out, blocked):
    # An --out that is, or lies under, an existing file, or that holds a
    # directory named as an output file: one line, no traceback, exit 2,
    # and no run is flown and nothing written to find that out.
    monkeypatch.setattr(cli, "run_scenario",
                        lambda *args: pytest.fail("run_scenario was called"))
    scen = tmp_path / "hover.scn"
    scen.write_text(HOVER)
    out, blocked = tmp_path / out, tmp_path / blocked
    if blocked.suffix:
        blocked.mkdir(parents=True)
        named = blocked
    else:
        blocked.write_text("")
        named = out
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--scenario", str(scen), "--out", str(out)]) \
        == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {named}") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert blocked.is_dir() or blocked.read_text() == ""


def test_missing_scenario_exit_code(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.scn")]) \
        == EXIT_SCHEMA


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"schema_version = 1\nname = caf\xe9\n")],
    ids=["directory", "not-utf8"])
def test_unreadable_scenario_exit_code(tmp_path, capsys, make):
    scen = tmp_path / "bad.scn"
    make(scen)
    assert main(["run", "--scenario", str(scen), "--out",
                 str(tmp_path / "o")]) == EXIT_SCHEMA
    assert "scenario error" in capsys.readouterr().err


def test_bad_dt_override_exit_code(tmp_path):
    scen = tmp_path / "hover.scn"
    scen.write_text(HOVER)
    assert main(["run", "--scenario", str(scen), "--out",
                 str(tmp_path / "o"), "--dt", "0.5"]) == EXIT_SCHEMA
    # Four ticks at the default dt, but less than one at dt = 0.01.
    scen.write_text(HOVER + "duration = 0.004\n")
    assert main(["run", "--scenario", str(scen), "--out",
                 str(tmp_path / "o"), "--dt", "0.01"]) == EXIT_SCHEMA
    # duration / dt is inf; over the tick cap; dt under its 1e-6 floor.
    for duration, dt in (("1", "1e-320"), ("3", "1e-6"), ("1", "1e-7")):
        scen.write_text(HOVER + f"duration = {duration}\n")
        assert main(["run", "--scenario", str(scen), "--out",
                     str(tmp_path / "o"), "--dt", dt]) == EXIT_SCHEMA


def test_ablate_exit_code(tmp_path, capsys):
    # Every variant writes its outputs; any failed run makes ablate fail.
    scen = tmp_path / "hover.scn"
    for extra, code in (("", EXIT_OK), ("thrust_max = 1\n", EXIT_FAILED)):
        scen.write_text(HOVER + extra)
        out = tmp_path / ("o" + str(code))
        assert main(["ablate", "--scenario", str(scen), "--out",
                     str(out)]) == code
        report = json.loads((out / "comparison.json").read_text())
        for variant, metrics in report["metrics"].items():
            assert (out / variant / "log.csv").exists()
            assert metrics["completed"] is (code == EXIT_OK)


def test_ablate_rejects_variant(tmp_path, capsys):
    # ablate runs every variant; a --variant would be silently overridden.
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--variant", "no-freeze", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_SCHEMA
    assert "--variant" in capsys.readouterr().err


def test_rotor_geometry_built_once_per_build(tmp_path, monkeypatch):
    # ScenarioConfig.build() is the one place that makes the rotor geometry,
    # and run_scenario the one caller: parse_scenario only parses.
    built = []
    allocation_matrix = allocation.allocation_matrix

    def spy(*args):
        built.append(args)
        return allocation_matrix(*args)

    monkeypatch.setattr(allocation, "allocation_matrix", spy)
    run_scenario(ScenarioConfig(mission="hover", duration=0.01))
    assert len(built) == 1
    scen = tmp_path / "hover.scn"
    scen.write_text(HOVER)
    built.clear()
    assert main(["run", "--scenario", str(scen), "--out",
                 str(tmp_path / "o")]) == EXIT_OK
    assert len(built) == 1


def test_event_past_run_end_is_ignored(tmp_path, capsys):
    # An event time whose tick index overflows an int cannot fire.
    text = HOVER + "duration = 0.05\n"
    scen = tmp_path / "late.scn"
    scen.write_text(text + "event = 1e308 s_f2p\n")
    assert main(["run", "--scenario", str(scen), "--out",
                 str(tmp_path / "o")]) == EXIT_OK
    late = run_scenario(parse_scenario(scen.read_text()))
    plain = run_scenario(parse_scenario(text))
    assert late.rows.tobytes() == plain.rows.tobytes()
    assert late.events == plain.events and late.modes == plain.modes


OVERFLOWS = (
    ("inertia_diag = 1e-308 1e-308 1e-308", "math domain error"),
    ("disturbance = 0 1 0 0 0 1e308 0 0", "math domain error"),
    ("disturbance = 0 1 1e308 0 0 0 0 0",
     "non-finite state after integration step"),
    ("noise_std_pos = 1e308", "non-finite state after integration step"),
    ("noise_std_vel = 1e308", "non-finite state after integration step"))


@pytest.mark.parametrize("line, detail", [
    pytest.param(line, detail, id=line) for line, detail in OVERFLOWS])
def test_overflowing_body_rate_aborts(tmp_path, capsys, line, detail):
    # The body rate overflows to inf inside an RK4 stage, and exp_so3's
    # trigonometry raises, or the velocity overflows, or the sensor noise
    # overflows and the controller acts on it, and integrate raises
    # FloatingPointError; either way the run ends as a numerical abort.
    scen = tmp_path / "wild.scn"
    scen.write_text(HOVER + "duration = 0.05\n" + line + "\n")
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scen), "--out", str(out)]) \
        == EXIT_FAILED
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["failure"] == "numerical-abort"
    assert metrics["events"][-1] == {
        "t": 0.0, "kind": "failure", "detail": "numerical-abort: " + detail}
    assert (out / "log.csv").read_text().startswith("t,px,")


EXTREMES = ("1e308", "-1e308", "1e-308", "5e-324")


def test_input_contract_sweep(tmp_path, capsys):
    # Every numeric key at each extreme value, on short perch and hover
    # missions: the CLI accepts (0), rejects (2) or reports a failed run
    # (3), and never raises.
    cfg = ScenarioConfig()
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, (int, float, tuple)):
            n = len(value) if isinstance(value, tuple) else 1
            lines += [f"{f.name} = " + " ".join([x] * n) for x in EXTREMES]
    lines += [f"event = {x} s_f2p" for x in EXTREMES]
    lines += [f"disturbance = 0 1 {x} {x} {x} {x} {x} {x}" for x in EXTREMES]
    lines += ["disturbance = 0 1 0 0 0 1e308 0 0"]
    scen, out = tmp_path / "x.scn", str(tmp_path / "o")
    codes = {}
    for mission in ("perch", "hover"):
        head = f"schema_version = 1\nmission = {mission}\nduration = 0.05\n"
        for line in lines:
            scen.write_text(head + line + "\n")
            code = main(["run", "--scenario", str(scen), "--out", out])
            assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_FAILED), (mission, line)
            codes[code] = codes.get(code, 0) + 1
    assert set(codes) == {EXIT_OK, EXIT_SCHEMA, EXIT_FAILED}


def test_print_schema(capsys):
    assert main(["print-schema"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "schema_version" in out
    assert "event = " in out


def _fake_check(number, passed):
    return lambda: acceptance.CheckResult(number, "fake", passed, "detail")


@pytest.mark.parametrize("first_passes", [True, False])
def test_verify_runs_every_check(monkeypatch, capsys, first_passes):
    # verify runs acceptance.CHECKS in order and prints each one's line; a
    # failed check makes it exit 1 after the checks behind it have run.
    monkeypatch.setattr(acceptance, "CHECKS",
                        [_fake_check(1, first_passes), _fake_check(2, True)])
    assert main(["verify"]) == (EXIT_OK if first_passes else 1)
    first = "PASS" if first_passes else "FAIL"
    assert capsys.readouterr().out \
        == (f"{first} criterion  1 (fake): detail\n"
            "PASS criterion  2 (fake): detail\n")


def test_run_path_does_not_import_acceptance():
    # Only `verify` imports the acceptance suite (about 1.3 MB compiled), so
    # `run` and `ablate` never pay for it.
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, perchsim.cli; "
         "print('perchsim.acceptance' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
