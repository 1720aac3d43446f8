"""Harness tests: metrics arithmetic, determinism, regulation, comparisons."""

import ast
import bisect
import hashlib
import importlib.util
import inspect
import io
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perchsim.acceptance import GOLDEN_SHA256, run_variant
from perchsim.cli import EXIT_OK, _stream_run, _write_run, main
from perchsim import acceptance, harness
from perchsim.harness import _disturbance_at, run_scenario
from perchsim.metrics import (CSV_COLUMNS, _COL, _RECORD, _ROW, MetricsFold,
                              SimResult, compare, compute_metrics,
                              settle_index, tick_runs)
from perchsim.scenario import ScenarioConfig, default_scenario, \
    parse_scenario
from perchsim.supervisor import VARIANTS, Mode, SupervisorState

FIRST_MODE = SupervisorState().mode.value


def mode_events(modes, dt):
    """The "mode" events of a log whose ticks, dt apart, are in `modes`: one
    on each tick whose mode differs from the tick before (tick 0's, from
    the supervisor's first mode)."""
    return [(k * dt, "mode", f"{a}->{b}")
            for k, (a, b) in enumerate(zip([FIRST_MODE] + modes, modes))
            if a != b]


def synthetic_result(z_after, gaps_after, ep_after, sat_p):
    """A fold fed a ten-tick log at 1 s spacing with a release event at
    t = 2, and mode events F -> F2P -> P -> F at t = 1, 2 and 7."""
    n = 10
    rows = np.zeros((n, len(_RECORD)))
    rows[:, _COL["t"]] = np.arange(n, dtype=float)
    z = np.array([1.2, 1.2, 1.2] + list(z_after))
    rows[:, _COL["pz"]] = z
    rows[:, _COL["ep_norm"]] = np.array([0.0, 0.0, 0.0] + list(ep_after))
    sat = np.zeros(n)
    for i in sat_p:
        sat[i] = 1.0
    rows[:, _COL["sat_any"]] = sat
    rows[:, _COL["gap"]] = np.array([0.3, 0.0, 0.0] + list(gaps_after))
    events = [(0.0, "operator", "s_f2p"), (1.0, "mode", "F->F2P"),
              (1.0, "contact", "attach"), (2.0, "mode", "F2P->P"),
              (2.0, "contact", "release"), (7.0, "mode", "P->F")]
    cfg = default_scenario()
    cfg.dt = 1.0
    fold = MetricsFold(cfg, events)
    fold.feed(rows)
    return fold


def test_metrics_z_drop_arithmetic():
    fold = synthetic_result(
        z_after=[1.1, 0.9, 0.8, 1.0, 1.2, 1.2, 1.2],
        gaps_after=[0.1, 0.2, 0.3, 0.3, 0.3, 0.3, 0.3],
        ep_after=[0.5, 0.5, 0.1, 0.01, 0.01, 0.01, 0.01],
        sat_p=[])
    m = compute_metrics(fold)
    assert m.perch_achieved and m.perch_time_s == 1.0
    assert m.time_to_perch_s == 1.0
    assert m.unperch_achieved and m.release_time_s == 2.0
    assert abs(m.z_drop_m - 0.4) < 1e-12
    assert abs(m.min_clearance_m - 0.1) < 1e-12
    assert m.settle_time_after_release_s == 4.0


def test_metrics_saturation_counting():
    fold = synthetic_result(
        z_after=[1.2] * 7, gaps_after=[0.3] * 7, ep_after=[0.0] * 7,
        sat_p=[3, 5])  # 2 saturated ticks of the 5 in mode P
    m = compute_metrics(fold)
    assert abs(m.saturation_fraction["P"] - 0.4) < 1e-12
    assert m.saturation_fraction["F"] == 0.0


def test_metrics_no_saturation_anywhere():
    fold = synthetic_result(
        z_after=[1.2] * 7, gaps_after=[0.3] * 7, ep_after=[0.0] * 7,
        sat_p=[])
    m = compute_metrics(fold)
    assert all(v == 0.0 for v in m.saturation_fraction.values())


def test_metrics_penetration_counts_as_recontact():
    fold = synthetic_result(
        z_after=[1.2] * 7,
        gaps_after=[0.1, 0.2, -0.05, 0.2, 0.3, 0.3, 0.3],
        ep_after=[0.0] * 7, sat_p=[])
    m = compute_metrics(fold)
    assert m.min_clearance_m == -0.05


@pytest.mark.parametrize("failure, kind", [
    ([(8.0, "failure", "numerical-abort: math domain error")],
     "numerical-abort"),
    ([(8.0, "failure", "ground-contact")], "ground-contact"),
    ([], "")])
def test_metrics_outcome_from_failure_event(failure, kind):
    fold = synthetic_result(
        z_after=[1.2] * 7, gaps_after=[0.3] * 7, ep_after=[0.0] * 7,
        sat_p=[])
    fold.events += failure
    m = compute_metrics(fold)
    assert m.completed is (kind == "") and m.failure == kind
    assert m.perch_achieved and m.unperch_achieved


def test_metrics_of_a_fold_fed_no_rows_raise():
    fold = MetricsFold(default_scenario(), [])
    fold.feed(np.zeros((0, len(_RECORD))))
    with pytest.raises(ValueError, match="empty log"):
        compute_metrics(fold)


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
    fold = synthetic_result(
        z_after=[1.1, 0.9, 0.8, 1.0, 1.2, 1.2, 1.2],
        gaps_after=[0.1, 0.2, 0.3, 0.3, 0.3, 0.3, 0.3],
        ep_after=[0.0] * 7, sat_p=[])
    m = compute_metrics(fold)
    report = compare("proposed", m, "proposed", m)
    assert all(d == 0.0 for d in report["metric_deltas"].values())
    assert all(o["holds"] for o in report["orderings"])
    assert report["base_variant"] == report["other_variant"] == "proposed"


def test_compare_orderings():
    a = synthetic_result(
        z_after=[1.15, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2],
        gaps_after=[0.1, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3],
        ep_after=[0.0] * 7, sat_p=[])
    b = synthetic_result(
        z_after=[0.7, 0.8, 1.2, 1.2, 1.2, 1.2, 1.2],
        gaps_after=[0.1, -0.02, 0.3, 0.3, 0.3, 0.3, 0.3],
        ep_after=[0.0] * 7, sat_p=[])
    report = compare("proposed", compute_metrics(a), "no-freeze",
                     compute_metrics(b))
    assert report["metric_deltas"]["z_drop_m"] > 0.0
    assert report["other_variant"] == "no-freeze"
    checks = {o["check"]: o["holds"] for o in report["orderings"]}
    assert checks["other z_drop >= base z_drop"]
    assert checks["other min_clearance <= base min_clearance"]


def _hover_cfg():
    return ScenarioConfig(mission="hover", duration=2.0)


def test_hover_regulation():
    res = run_scenario(_hover_cfg())
    assert res.metrics.completed
    assert res.column("ep_norm").max() < 0.01


DT = 0.001
PULSES = {
    "none": [],
    "on ticks": [(37 * DT, 80 * DT, 1.0, -0.5, 0.25, 0.1, 0.2, -0.3)],
    "between ticks": [(0.0375, 0.0805, 1.0, -0.5, 0.25, 0.1, 0.2, -0.3)],
    "overlapping": [(0.02, 0.09, 0.3, 0.2, -0.1, 0.05, -0.1, 0.4),
                    (0.05, 0.07, 1.0, -0.5, 0.25, 0.1, 0.2, -0.3),
                    (0.05, 0.12, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0)],
    "from t = 0": [(0.0, 0.04, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0),
                   (0.04, 1e4, 0.0, 0.7, 0.0, 0.0, 0.0, 0.1)],
}


@pytest.mark.parametrize("pulses", PULSES.values(), ids=PULSES.keys())
def test_disturbance_edges_match_full_rescan(pulses, monkeypatch):
    # run_scenario re-sums the pulses only when t reaches an edge; the sum
    # handed to integrate must equal a rescan of every pulse at each tick.
    seen = []

    def spy(state, w_act, dist, *rest):
        seen.append(dist)
        return integrate(state, w_act, dist, *rest)
    integrate = harness.integrate
    monkeypatch.setattr(harness, "integrate", spy)
    cfg = ScenarioConfig(mission="hover", duration=0.15, dt=DT,
                         disturbances=pulses)
    run_scenario(cfg)
    assert len(seen) == 150
    for k, got in enumerate(seen):
        assert got == _disturbance_at(cfg, k * DT), k


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


def test_record_carries_each_ticks_gap(monkeypatch):
    """The magnet gap rides as the record's last float: a library run's
    `gap` column is, bit for bit, what each tick's update_contact returned
    (0.0 while attached), and the CSV still prints CSV_COLUMNS only."""
    gaps = []

    def spy(*args):
        out = update_contact(*args)      # (contact, edge, state)
        gaps.append(out[0].gap)
        return out

    update_contact = harness.update_contact
    monkeypatch.setattr(harness, "update_contact", spy)
    cfg = default_scenario()
    cfg.events, cfg.duration = [(1.0, "s_f2p"), (3.5, "s_p2f")], 5.0
    result = run_scenario(cfg)
    assert set(result.modes) == {"F", "F2P", "P", "P2F"}
    assert result.metrics.unperch_achieved
    gap = result.column("gap")
    assert gap.tobytes() == np.array(gaps).tobytes()
    attached = result.column("attached") > 0.5
    assert attached.any()
    assert gap[attached].tobytes() == bytes(8 * int(attached.sum()))
    lines = result.to_csv().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(result.modes) + 1
    assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)


def test_contact_and_integrate_read_the_same_forces(monkeypatch):
    """Contact checks the forces the dynamics integrate: on every tick of
    a mission through all four modes, with one disturbance pulse while it
    perches, update_contact is given the rotor wrench and the disturbances
    that integrate is given next."""
    seen = {"update_contact": [], "integrate": []}

    def spy(name, fn, at):
        def call(*args):
            seen[name].append((args[at], args[at + 1], args[at + 2].attached))
            return fn(*args)
        monkeypatch.setattr(harness, name, call)

    spy("update_contact", harness.update_contact, 2)  # wrench, dist, contact
    spy("integrate", harness.integrate, 1)
    cfg = default_scenario()
    cfg.events, cfg.duration = [(1.0, "s_f2p"), (3.5, "s_p2f")], 5.0
    cfg.disturbances = [(0.5, 3.5, 1.5, -0.5, 0.2, 0.1, 0.0, 0.0)]
    result = run_scenario(cfg)
    assert set(result.modes) == {"F", "F2P", "P", "P2F"}
    contact, dynamics = seen["update_contact"], seen["integrate"]
    assert len(contact) == len(dynamics) == len(result.modes)
    assert [c[:2] for c in contact] == [d[:2] for d in dynamics]
    # Both branches of update_contact saw the pulse and saw it end.
    pushed = {(attached, dist != ((0.0,) * 3,) * 2)
              for _, dist, attached in contact}
    assert pushed == {(False, False), (False, True), (True, False),
                      (True, True)}


def random_log(n):
    """An n-tick SimResult of random values, no simulation, and its random
    modes as a list: every tick after the first changes mode, and each
    change is a mode event."""
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(n, len(_RECORD)))
    steps = rng.integers(1, len(Mode), n)      # to one of the other modes
    steps[:1] = rng.integers(len(Mode))        # tick 0: any mode
    modes = [list(Mode)[c].value for c in np.cumsum(steps) % len(Mode)]
    cfg = default_scenario()
    return SimResult(cfg, mode_events(modes, cfg.dt), None, n, rows), modes


def reference_csv(rows, modes):
    """The CSV with each value formatted on its own, one line per tick: each
    column of CSV_COLUMNS read from the record by name."""
    lines = [",".join(CSV_COLUMNS)] + [
        ",".join(mode if c == "mode" else "%.12g" % vals[_COL[c]]
                 for c in CSV_COLUMNS)
        for vals, mode in zip(rows, modes)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [0, 1, 2, 4099])
def test_csv_streamed_across_block_boundaries(n):
    res, modes = random_log(n)
    assert res.modes == modes
    sink = io.StringIO()
    assert res.to_csv(sink) is None
    text = sink.getvalue()
    assert text == res.to_csv() == reference_csv(res.rows.tolist(), modes)
    assert text.count("\n") == n + 1


def test_csv_renders_any_float_layout():
    # A Fortran-order or float32 array built by hand renders as its float64
    # C-order copy would.
    res, modes = random_log(5)
    want = res.to_csv()
    res.rows = np.asfortranarray(res.rows)
    assert res.to_csv() == want
    res.rows = res.rows.astype(np.float32)
    assert res.to_csv() == reference_csv(
        res.rows.astype(np.float64).tolist(), modes)


def expected_value(events, kind, k):
    """The value the signal `kind` has on tick k: that set by the last of
    its events on or before tick k, else its value from tick 0."""
    first, edges, of = {
        "mode": (FIRST_MODE, {"mode"}, lambda d: d.partition("->")[2]),
        "contact": (0.0, {"contact"}, lambda d: float(d == "attach")),
        "released": (False, {"contact", "eta_d"},
                     lambda d: {"release": True, "perch": False}.get(d))}[kind]
    ticks = [(round(t / DT), of(detail)) for t, k_, detail in events
             if k_ in edges and of(detail) is not None
             and round(t / DT) <= k]
    return ticks[-1][1] if ticks else first


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tick_runs_match_per_tick_expansion(data):
    # A random chain of mode events and contact events, some on one tick,
    # among other events, read over a window whose first or last tick may
    # be an edge, with edges outside it; given every event, as a library
    # run has them, or those up to its last tick, as a streamed block has.
    events, mode = [], FIRST_MODE
    for tick in sorted(data.draw(st.lists(st.integers(0, 40), max_size=12))):
        kind = data.draw(st.sampled_from(["mode", "contact", "operator"]))
        if kind == "mode":
            new = data.draw(st.sampled_from(
                [m.value for m in Mode if m.value != mode]))
            detail, mode = f"{mode}->{new}", new
        else:
            detail = data.draw(st.sampled_from(
                ["attach", "release", "forcible-detach", "s_f2p"]))
        events.append((tick * DT, kind, detail))
    # Perch commands, which close the window after a release, some on the
    # tick of another event, before or after it.
    for tick in data.draw(st.lists(st.integers(0, 40), max_size=4)):
        at = [round(t / DT) for t, _, _ in events]
        i = data.draw(st.sampled_from([bisect.bisect_left(at, tick),
                                       bisect.bisect_right(at, tick)]))
        events.insert(i, (tick * DT, "eta_d", "perch"))
    edges = [round(t / DT) for t, _, _ in events]
    anchor = st.integers(0, 42) | st.sampled_from(edges or [0])
    start, last = sorted((data.draw(anchor), data.draw(anchor)))
    n = last - start + data.draw(st.sampled_from([0, 1]))
    for known in (events, [e for e in events if round(e[0] / DT) < start + n]):
        for kind in ("mode", "contact", "released"):
            runs = list(tick_runs(known, DT, kind, start, n))
            assert all(i < j for _, i, j in runs), runs
            # Contiguous, from 0 to n: each run ends where the next starts.
            assert [0] + [j for _, _, j in runs] \
                == [i for _, i, _ in runs] + [n], runs
            assert [v for v, i, j in runs for _ in range(i, j)] \
                == [expected_value(events, kind, k)
                    for k in range(start, start + n)], (kind, runs)


def test_tick_loop_grows_only_its_event_list():
    # A tick's record is its packed row: the loop keeps nothing per tick
    # beside it, such as a list of each tick's mode, only an event at an
    # edge.
    tree = ast.parse(textwrap.dedent(inspect.getsource(run_scenario)))
    loop, = [node for node in ast.walk(tree) if isinstance(node, ast.For)
             and ast.unparse(node.target) == "k"
             and ast.unparse(node.iter) == "range(n_ticks)"]
    grown = [ast.unparse(node.func.value) for node in ast.walk(loop)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("append", "extend")]
    assert grown and set(grown) == {"events"}, grown


# Every float64 class: signed zeros, infinities, nan, subnormals, extremes.
_ROW_VALUES = st.lists(
    st.floats(width=64) | st.sampled_from(
        [-0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
         2.2250738585072014e-308, 1.7e308, -1.7e308]),
    min_size=len(_RECORD), max_size=len(_RECORD))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(_ROW_VALUES, st.sampled_from(Mode)), max_size=4))
@example([(([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7e308,
             -1.7e308] * 6)[:len(_RECORD)], Mode.P2F)])
def test_csv_packed_rows_match_reference(ticks):
    n = len(ticks)
    packed = np.empty((n, len(_RECORD)))
    assigned = np.empty((n, len(_RECORD)))
    for k, (vals, _) in enumerate(ticks):
        _ROW.pack_into(packed, k * _ROW.size, *vals)
        assigned[k] = tuple(vals)
    assert packed.tobytes() == assigned.tobytes()
    modes = [mode.value for _, mode in ticks]
    cfg = default_scenario()
    res = SimResult(cfg, mode_events(modes, cfg.dt), None, n, packed)
    assert res.modes == modes
    want = reference_csv([vals for vals, _ in ticks], modes)
    sink = io.StringIO()
    res.to_csv(sink)
    assert res.to_csv() == sink.getvalue() == want


class CharCounter(io.TextIOBase):
    """A text sink that counts the characters written and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, s):
        self.chars += len(s)
        return len(s)


def test_csv_stream_memory_bounded():
    # Streamed a line at a time, the traced peak is one row's floats and
    # text (about 2 KB measured) at any length, also with a mode change, and
    # so a run of one row, on every tick; these CSVs are 12 and 24 MB.
    for n in (20480, 40960):
        res, _ = random_log(n)
        sink = CharCounter()
        tracemalloc.start()
        try:
            res.to_csv(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, n
        assert sink.chars > 500 * n


def test_streamed_run_holds_one_small_block():
    # A streamed run's largest allocation is its block of _BLOCK rows: 80 kB
    # of floats in 256 rows, 94 kB traced in all for this 1100-tick hover
    # (334 kB with 1024-row blocks, which 1100 ticks fill).
    run_scenario(ScenarioConfig(mission="hover", duration=0.01), CharCounter())
    sink = CharCounter()
    tracemalloc.start()
    try:
        result = run_scenario(ScenarioConfig(mission="hover", duration=1.1),
                              sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_ticks == 1100 and result.metrics.completed
    assert sink.chars > 400 * 1100
    assert peak < 160e3


# A fresh interpreter's own peak resident set, in bytes.  Its ru_maxrss
# would start at the peak of the process that spawned it (Linux keeps it
# across exec), so a child of a large pytest process would show no growth.
PEAK_RSS = """\
def peak_rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh
                    if line.startswith("VmHWM:"))
"""


def _child_output(code, *args):
    """What `code` prints, run in a fresh interpreter on this perchsim with
    `peak_rss()` defined."""
    src = Path(harness.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", PEAK_RSS + code, *args],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=300).stdout


# Peak RSS growth of `perchsim run` on the 30 000-tick default mission over
# a warmed-up 1 000-tick run, in a fresh interpreter.  tracemalloc would
# make the mission about 30 times slower, so this reads the kernel's peak
# resident set instead.
STREAMED_RUN_GROWTH = """\
import contextlib, io, os, sys
from perchsim import cli
out = sys.argv[1]
with open(os.path.join(out, "short.scn"), "w") as fh:
    fh.write("schema_version = 1\\nduration = 1.0\\n")
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["run", "--scenario", fh.name, "--out", os.path.join(out, "w")])
    before = peak_rss()
    cli.main(["run", "--out", os.path.join(out, "o")])
print(peak_rss() - before)
"""


def test_streamed_run_memory_bounded(tmp_path):
    # A streamed mission keeps no whole log: it grows less than 1.2 MB over
    # the warm-up run, where its 9.4 MB float log would show.  The warm-up
    # run has already allocated a block, so this does not see the block's
    # size; test_streamed_run_holds_one_small_block guards that.
    assert int(_child_output(STREAMED_RUN_GROWTH, str(tmp_path))) < 1.2e6
    assert (tmp_path / "o" / "log.csv").stat().st_size > 400 * 30000


# Peak RSS growth of a run's set-up, the default scenario's build() and its
# first plan, in a fresh interpreter that has imported the CLI and made one
# small matrix product, so that BLAS is paged in, as in a run by then.
SETUP_GROWTH = """\
import numpy as np
import perchsim.cli
from perchsim.planner import MissionPlanner
from perchsim.scenario import default_scenario
np.ones((3, 3)) @ np.ones((3, 3))
before = peak_rss()
cfg = default_scenario()
_, wall = cfg.build()
MissionPlanner(cfg, wall)
print(peak_rss() - before)
"""


def test_setup_pages_in_no_lapack():
    # With LAPACK's pinv, matrix_rank and solve on their first call, this
    # read 1.88-1.99 MB; the plain-float right inverse, the closed-form plan
    # legs and plain-float setpoints leave numpy's first elementwise calls,
    # 0.33-0.40 MB.
    assert int(_child_output(SETUP_GROWTH)) < 0.5e6


# Peak RSS growth of a 120 s hover streamed to a sink that renders and drops
# its lines, over the same hover for 30 s, in a fresh interpreter.
LONG_RUN_GROWTH = """\
import collections
from types import SimpleNamespace
from perchsim.harness import run_scenario
from perchsim.scenario import ScenarioConfig
sink = SimpleNamespace(writelines=collections.deque(maxlen=0).extend)
for duration in (30.0, 120.0):
    result = run_scenario(ScenarioConfig(mission="hover", duration=duration),
                          sink)
    assert result.n_ticks == 1000 * duration and result.metrics.completed
    if duration == 30.0:
        before = peak_rss()
print(peak_rss() - before)
"""


def test_streamed_run_memory_flat_in_length():
    # 90 000 more ticks hold no more (4 kB measured): 16.7 B a tick of kept
    # attached flags and modes grew 1.95 MB.
    assert int(_child_output(LONG_RUN_GROWTH)) < 0.3e6


@pytest.mark.parametrize("ticks", [1, 4 * harness._BLOCK - 1,
                                   4 * harness._BLOCK, 4 * harness._BLOCK + 1,
                                   8 * harness._BLOCK + 1])
def test_streamed_log_across_block_edges(ticks):
    # A log streamed from the tick loop is the CSV to_csv renders from the
    # full rows, with the same metrics, folded block by block: one tick, and
    # several full blocks then a tick before, on and after a block edge.
    cfg = ScenarioConfig(mission="hover", duration=ticks * 0.001)
    full = run_scenario(cfg)
    sink = io.StringIO()
    streamed = run_scenario(cfg, sink)
    assert len(streamed.modes) == ticks
    assert sink.getvalue() == full.to_csv()
    assert streamed.metrics.to_dict() == full.metrics.to_dict()
    assert streamed.modes == full.modes
    assert streamed.column("attached").tobytes() \
        == full.column("attached").tobytes()
    with pytest.raises(ValueError):
        streamed.column("pz")
    with pytest.raises(ValueError):
        streamed.to_csv()


def test_library_and_streamed_runs_share_one_result_type():
    cfg = ScenarioConfig(mission="hover", duration=0.01)
    full, streamed = run_scenario(cfg), run_scenario(cfg, io.StringIO())
    assert type(full) is type(streamed)
    assert full.rows.shape == (10, len(_RECORD)) and streamed.rows is None


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


def test_thin_thrust_margin_keeps_proposed_and_breaks_rho0():
    # At thrust_max = 6 N (default 8 N) the proposed controller still perches
    # and releases with no P-mode saturation and a drop under 1 mm, while
    # rho0's drop grows from 0.129 m at the default to over 0.5 m.
    metrics = {}
    for variant in ("proposed", "no-transitions-rho0"):
        cfg = default_scenario()
        cfg.thrust_max, cfg.variant = 6.0, variant
        metrics[variant] = run_scenario(cfg).metrics
    m = metrics["proposed"]
    assert m.completed and m.unperch_achieved
    assert m.saturation_fraction["P"] == 0.0 and m.z_drop_m < 1e-3
    assert metrics["no-transitions-rho0"].z_drop_m > 0.5


def _thrust_error_runs(eps, variants):
    """Each variant's default mission with the observers' thrust off by the
    fraction `eps`, as acceptance memoizes runs: variant -> (result, wall
    time in s)."""
    runs = {}
    for variant in variants:
        cfg = default_scenario()
        cfg.variant, cfg.thrust_model_error = variant, eps
        t0 = time.perf_counter()
        runs[variant] = run_scenario(cfg), time.perf_counter() - t0
    return runs


def test_thrust_model_error_is_a_standing_offset():
    # The observers read (1 + eps) f_act.  Rejection cancels the phantom
    # force eps T and leaves a real eps m g, which the PD position loop
    # holds as an offset of eps g / k_tp, 4.9 cm at eps = -0.05.  Perched,
    # rejection is frozen and the vehicle sits on the plan; after release
    # it sinks by that offset, and ep stays above settle_tol.
    cfg = default_scenario()
    cfg.thrust_model_error = -0.05
    m = run_scenario(cfg).metrics
    assert abs(cfg.thrust_model_error * cfg.gravity / cfg.k_tp + 0.049) \
        < 1e-3
    assert m.completed and m.unperch_achieved
    assert abs(m.z_drop_m - 0.048) <= 0.002
    assert m.to_dict()["settle_time_after_release_s"] is None


def test_criteria_7_to_10_hold_at_one_percent_thrust_error(monkeypatch):
    # Criteria 7-10 as written, read from the four variants' runs at
    # eps = -0.01; the default mission assumes exact thrust knowledge.
    runs = _thrust_error_runs(-0.01, METRICS_JSON_SHA256)
    monkeypatch.setattr(acceptance, "_RUNS", runs)
    results = [check() for check in acceptance.CHECKS[6:10]]
    assert [res.number for res in results] == [7, 8, 9, 10]
    for res in results:
        assert res.passed, res.line()
    m = {v: result.metrics for v, (result, _) in runs.items()}
    assert round(m["proposed"].z_drop_m, 4) == 0.0095
    assert round(m["no-transitions-rho0"].z_drop_m, 4) == 0.1280
    assert round(m["no-transitions-rho0.5"].min_clearance_m, 4) == -0.1009
    assert round(m["no-freeze"].saturation_fraction["P"], 3) == 0.851


def test_ten_percent_thrust_error_closes_the_drop_gap():
    # A measured fact, not a defect: at eps = -0.10 the proposed variant's
    # offset is most of rho0's drop (0.0962 m against 0.1127 m).
    runs = _thrust_error_runs(-0.10, ["proposed", "no-transitions-rho0"])
    drop = {v: result.metrics.z_drop_m for v, (result, _) in runs.items()}
    assert round(drop["proposed"], 4) == 0.0962
    assert round(drop["no-transitions-rho0"], 4) == 0.1127
    assert drop["no-transitions-rho0"] < 2.0 * drop["proposed"]


@pytest.mark.parametrize("magnet_force, edge, t_end", [
    (30.0, "release", 15.431), (20.0, "forcible-detach", 15.430)])
def test_magnet_strength_boundary(magnet_force, edge, t_end):
    # The hold F_mag * eta falls as the servo opens while the departure plan
    # already pulls away: at 20 N the pull exceeds the hold before the peel
    # completes.  A forcible detach still reports completed.
    cfg = default_scenario()
    cfg.duration, cfg.magnet_force = 16.0, magnet_force
    res = run_scenario(cfg)
    contact = [(t, d) for t, k, d in res.events if k == "contact"]
    assert [d for _, d in contact] == ["attach", edge]
    assert contact[1][0] == pytest.approx(t_end, abs=1e-9)
    assert res.metrics.unperch_achieved is (edge == "release")
    assert res.metrics.completed is True


def _unbiased_noisy_mission(seed, disturbances=()):
    """The default mission with p/v measurement noise and `disturbances` in
    place of its wall-ward one, cut at 16 s, after the release."""
    cfg = default_scenario()
    cfg.disturbances, cfg.duration, cfg.seed = list(disturbances), 16.0, seed
    cfg.noise_std_pos, cfg.noise_std_vel = 0.002, 0.01
    return run_scenario(cfg)


def _contact_events(res):
    return [(round(t, 3), k, d) for t, k, d in res.events
            if k in ("mode", "contact", "failure")]


def test_unbiased_noise_seed_2_perches_and_releases():
    # Without the bias the contact estimate's white noise (about 0.33 N)
    # crosses lambda_f2p = 1 N in mid-air.  Compression counts only within
    # magnet_range of the wall, so F2P -> P waits for the attach and the
    # perch wrench never flies the vehicle into the ground.
    res = _unbiased_noisy_mission(2)
    assert _contact_events(res) == [
        (6.0, "mode", "F->F2P"), (8.013, "contact", "attach"),
        (8.015, "mode", "F2P->P"), (15.0, "mode", "P->P2F"),
        (15.254, "mode", "P2F->F"), (15.301, "contact", "release")]
    assert res.metrics.completed and res.metrics.unperch_achieved
    # Seed 1's switch also waits for its attach.
    assert _contact_events(_unbiased_noisy_mission(1))[:3] == [
        (6.0, "mode", "F->F2P"), (8.015, "contact", "attach"),
        (8.017, "mode", "F2P->P")]


@pytest.mark.parametrize("variant, events", [
    ("proposed", [(6.0, "mode", "F->F2P"), (8.264, "mode", "F2P->P"),
                  (8.38, "contact", "attach"), (15.0, "mode", "P->P2F"),
                  (15.384, "mode", "P2F->F"), (15.431, "contact", "release")]),
    ("no-transitions-rho0", [(7.922, "mode", "F->P"),
                             (8.013, "contact", "attach"),
                             (15.0, "mode", "P->F"),
                             (15.047, "contact", "release")])])
def test_outward_load_is_not_contact(variant, events):
    # The default load flipped to push away from the wall: the contact
    # estimate reads it as compression from the perch signal on, and only
    # the wall's proximity holds the switch back until the vehicle is near.
    cfg = default_scenario()
    cfg.variant, cfg.duration = variant, 16.0
    cfg.disturbances = [(4.0, 30.0, -1.5, 0.0, 0.0, 0.0, 0.0, 0.0)]
    res = run_scenario(cfg)
    assert _contact_events(res) == events
    assert res.metrics.completed and res.metrics.unperch_achieved


# SHA-256 of the default-mission CSV of each ablation variant.  Criterion 11
# pins only the proposed variant, so these guard the VARIANTS table wiring of
# the other three (two-mode machine, rho override, no-freeze policies).
ABLATION_SHA256 = {
    "no-transitions-rho0":
        "6e001329069cba61305be70c8d58d66a91f43c8c104d6faec4af8be4fefcdddf",
    "no-transitions-rho0.5":
        "1868e705ccc04d4f9af1698d806ca31f982e5fe1a69413ffc89f4006acc1871a",
    "no-freeze":
        "5cf83e43d5161bfcf0459a7c0c2b080eac30daaf6ed21c07bbab4e9d7b21acba",
}


@pytest.mark.parametrize("variant", sorted(ABLATION_SHA256))
def test_ablation_csv_pinned(variant):
    csv = run_variant(variant).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == ABLATION_SHA256[variant]


# The default mission's ticks attached in mode F (count, first and last t)
# and whether its P policy freezes rejection.  Only such a variant holds the
# estimate there, until the wall lets go: the proposed one after P2F -> F,
# not the two-mode ones around their P, nor no-freeze after its detach.
ATTACHED_IN_F = {
    "proposed": (47, 15.384, 15.43, True),
    "no-transitions-rho0": (49, 8.022, 15.046, False),
    "no-transitions-rho0.5": (49, 8.022, 15.046, False),
    "no-freeze": (42, 16.255, 16.296, False),
}


@pytest.mark.parametrize("variant", ATTACHED_IN_F)
def test_rejection_held_while_attached_when_frozen_in_p(variant):
    n, t_first, t_last, held = ATTACHED_IN_F[variant]
    _, policies, _ = VARIANTS[variant]
    _, rejection_frozen, _ = policies[Mode.P]
    assert rejection_frozen is held
    result = run_variant(variant)
    ticks = (result.column("attached") == 1.0) \
        & (np.array(result.modes) == Mode.F.value)
    t = result.column("t")[ticks]
    assert (len(t), round(t[0], 3), round(t[-1], 3)) == (n, t_first, t_last)
    d_hat = np.stack([result.column(c) for c in ("dhatx", "dhaty", "dhatz")],
                     axis=1)[ticks]
    # Held: one value, bit for bit.  Else a new estimate every tick.
    assert len({row.tobytes() for row in d_hat}) == (1 if held else n)


# SHA-256 of each default-mission variant's metrics.json as `perchsim run`
# writes it: every metric key in order, null for an unmeasured one, and the
# event log.  The CSV pins above hash `to_csv()`; the test below also holds
# the log.csv that `perchsim run` streams from the tick loop to them.
METRICS_JSON_SHA256 = {
    "proposed":
        "aa578f3f55982e9b7af9f8bfec8c9b373e90bd0d4287d1d1a927da67272ed577",
    "no-transitions-rho0":
        "35eec537abfcc2d65ea1192656e117f5991a7c05196e00ee17b475f4f57eb3f0",
    "no-transitions-rho0.5":
        "fb548bad00ae8d4b29553e32b473fd147c663092df7c6a96fe754202b11e5f8b",
    "no-freeze":
        "6cf4fa018eef8f744cd34d9359a5d431f5b3d49e6206c4e2d956a64d47330a05",
}


@pytest.mark.parametrize("variant", sorted(METRICS_JSON_SHA256))
def test_metrics_json_pinned(variant, tmp_path, capsys):
    # Both from the full rows of a library run and from the kept columns
    # of a streamed CLI run.
    _write_run(run_variant(variant), tmp_path)
    out = tmp_path / "cli"
    assert main(["run", "--variant", variant, "--out", str(out)]) == EXIT_OK
    for data in ((tmp_path / "metrics.json").read_bytes(),
                 (out / "metrics.json").read_bytes()):
        assert hashlib.sha256(data).hexdigest() == METRICS_JSON_SHA256[variant]
    csv = (out / "log.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == (
        GOLDEN_SHA256 if variant == "proposed" else ABLATION_SHA256[variant])


# The default mission's post-release metrics, which the first cycle of the
# two-cycle mission also reads, bit for bit: its window closes at the second
# perch command, so the second perch does not reach it.
RELEASE_METRICS = {"z_drop_m": 7.943131049392704e-05,
                   "min_clearance_m": 0.05009595302419512,
                   "settle_time_after_release_s": 0.0009999999999994458}


def release_metrics(result):
    return {k: getattr(result.metrics, k) for k in RELEASE_METRICS}


@pytest.mark.parametrize("block", [7, 4093])
def test_streamed_mission_across_block_sizes(block, monkeypatch, tmp_path):
    # Blocks of 7 rows put a block edge near every window the metrics fold
    # over: the release, the clearance arm and the settle run.  Blocks of
    # 4093 rows end mid-mission, off the default 256-row edges.  Both stream
    # the pinned log.csv and metrics.json of each default-mission variant,
    # and the two-cycle mission's first-cycle metrics.
    cfgs = {}
    for variant in METRICS_JSON_SHA256:
        cfgs[variant] = default_scenario()
        cfgs[variant].variant = variant
    cfgs["two-cycle"] = _two_cycle_cfg()
    full = {v: run_variant(v) for v in METRICS_JSON_SHA256}
    full["two-cycle"] = run_scenario(cfgs["two-cycle"])
    monkeypatch.setattr(harness, "_BLOCK", block)
    fed = []

    def spy(fold, rows):
        assert 0 < len(rows) <= harness._BLOCK
        fed.append(rows.copy())
        return feed(fold, rows)

    feed = MetricsFold.feed
    monkeypatch.setattr(MetricsFold, "feed", spy)
    for variant, cfg in cfgs.items():
        fed.clear()
        out = tmp_path / variant
        streamed = _stream_run(cfg, str(out))
        if variant == "two-cycle":
            assert release_metrics(streamed) == RELEASE_METRICS
            assert streamed.metrics.to_dict() \
                == full[variant].metrics.to_dict()
        else:
            csv_pin = GOLDEN_SHA256 if variant == "proposed" \
                else ABLATION_SHA256[variant]
            for name, sha in (("log.csv", csv_pin),
                              ("metrics.json", METRICS_JSON_SHA256[variant])):
                data = (out / name).read_bytes()
                assert hashlib.sha256(data).hexdigest() == sha, (variant, name)
        # The blocks hold the library run's rows in tick order, each once,
        # and the result holds no per-tick container...
        n_ticks = full[variant].n_ticks
        assert len(fed) == -(-n_ticks // block), variant
        assert np.concatenate(fed).tobytes() \
            == full[variant].rows.tobytes(), variant
        assert sorted(vars(streamed)) \
            == ["cfg", "events", "metrics", "n_ticks", "rows"]
        assert streamed.rows is None
        # ...yet reads the modes and attached flags back from its events,
        # as a library run has them.
        assert streamed.n_ticks == len(full[variant].modes) == n_ticks
        assert streamed.modes == full[variant].modes, variant
        assert streamed.column("attached").tobytes() \
            == full[variant].column("attached").tobytes(), variant


def _two_cycle_cfg():
    """The default mission flown twice in 60 s: perch at 6 and 30 s, unperch
    at 15 and 40 s, under the wall-ward bias from 4 s on."""
    cfg = default_scenario()
    cfg.duration = 60.0
    cfg.events = [(6.0, "s_f2p"), (15.0, "s_p2f"), (30.0, "s_f2p"),
                  (40.0, "s_p2f")]
    cfg.disturbances = [(4.0, 60.0, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0)]
    return cfg


def _two_cycle_mission():
    return run_scenario(_two_cycle_cfg())


LIBRARY_RUNS = {
    **{v: lambda v=v: run_variant(v) for v in METRICS_JSON_SHA256},
    "two-cycle": _two_cycle_mission,
    # Pulled off the wall at 10 s by more than the magnets hold, the
    # perched vehicle falls.
    "noisy-ground-contact": lambda: _unbiased_noisy_mission(
        2, [(10.0, 16.0, -45.0, 0.0, 0.0, 0.0, 0.0, 0.0)]),
}


@pytest.mark.parametrize("name", LIBRARY_RUNS)
def test_library_result_reads_its_modes_from_its_events(name):
    # A library run keeps its rows and no per-tick mode container: its mode
    # events chain from the first mode, each from the mode the one before
    # entered, and its modes are that chain, tick by tick.
    result = LIBRARY_RUNS[name]()
    if name == "noisy-ground-contact":
        assert result.metrics.failure == "ground-contact"
    assert sorted(vars(result)) \
        == ["cfg", "events", "metrics", "n_ticks", "rows"]
    assert result.n_ticks == len(result.rows) == len(result.modes)
    edges = [detail.split("->") for _, kind, detail in result.events
             if kind == "mode"]
    assert edges, name
    assert [a for a, _ in edges] == [FIRST_MODE] + [b for _, b in edges][:-1]
    assert [m for m, _ in itertools.groupby(result.modes)] \
        == [FIRST_MODE] + [b for _, b in edges]


def test_forcible_detach_chatters_known_defect():
    # Known defect, pinned so that ROADMAP items 4 and 8 (an honest attach,
    # a finite lock) change it on purpose.  Right after a forcible detach
    # the gap is still within attach_tol with the servo engaged, so the next
    # tick attaches again and at_rest zeroes the velocity the pull built:
    # the vehicle chatters on and off the wall for 24 ms, then falls.
    result = LIBRARY_RUNS["noisy-ground-contact"]()
    events = _contact_events(result)
    assert events[:3] == [(6.0, "mode", "F->F2P"),
                          (8.013, "contact", "attach"),
                          (8.015, "mode", "F2P->P")]
    assert events[3:-1] == [
        (round(10.0 + 0.001 * k, 3), "contact",
         "attach" if k % 2 else "forcible-detach") for k in range(25)]
    assert events[-1] == (10.723, "failure", "ground-contact")
    details = [detail for _, kind, detail in events if kind == "contact"]
    assert details.count("forcible-detach") == details.count("attach") == 13


def test_two_cycle_contact_event_times():
    # Both cycles perch and release.
    events = [(round(t, 3), detail) for t, kind, detail
              in _two_cycle_mission().events if kind == "contact"]
    assert events == [(7.748, "attach"), (15.431, "release"),
                      (32.037, "attach"), (40.429, "release")]


def test_two_cycle_metrics_read_the_first_window():
    # The top-level metrics are the first cycle's: its post-release window
    # ends at the second perch command, 30 s in, as the default mission
    # ends then, so its drop, clearance and settle time are the default
    # mission's, bit for bit, not read across the second perch.
    assert release_metrics(run_variant("proposed")) == RELEASE_METRICS
    assert release_metrics(_two_cycle_mission()) == RELEASE_METRICS


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
    "997bc0f9568c4de5a3b8032dc2bad1fd495877f013a5186866e90e15da24f524"


def test_noisy_hover_pinned():
    csv = run_scenario(parse_scenario(NOISY_HOVER)).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == NOISY_HOVER_SHA256


# The same hover for 2300 ticks, recorded while the harness drew one
# standard_normal(6) per tick: the noise is now drawn 64 ticks at a time, so
# this run crosses 35 block edges and ends 60 ticks into a block.
NOISY_HOVER_LONG = NOISY_HOVER.replace("duration = 0.5", "duration = 2.3")
NOISY_HOVER_LONG_SHA256 = \
    "7b030351e108f66081879c472177d552cc9c42ae9c0cd0d39db315a2f3d53afe"


def test_long_noisy_hover_pinned():
    result = run_scenario(parse_scenario(NOISY_HOVER_LONG))
    assert len(result.modes) == 2300 and result.metrics.completed
    csv = result.to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == NOISY_HOVER_LONG_SHA256


def test_tick_calls_kernels_through_module_globals(monkeypatch):
    """perfbench's tracer replaces module attributes, so it sees a kernel
    only if the tick calls it through its module global: 4 exp_so3 calls
    per free integrate step (3 stages, 1 update) and none while attached,
    and one forward_wrench per tick plus the initial trim.  The plan is
    sampled once per tick, after any replan, plus once inside
    start_approach."""
    from perchsim import vehicle
    calls = {"exp_so3": 0, "forward_wrench": 0, "sample": 0, "free": 0,
             "attached": 0}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    def integrate_spy(state, wrench, dist, contact, params, dt):
        before = calls["exp_so3"]
        out = integrate(state, wrench, dist, contact, params, dt)
        free = not contact.attached
        calls["free" if free else "attached"] += 1
        assert calls["exp_so3"] - before == (4 if free else 0)
        return out

    integrate = harness.integrate
    monkeypatch.setattr(vehicle, "exp_so3", spy("exp_so3", vehicle.exp_so3))
    monkeypatch.setattr(harness, "forward_wrench",
                        spy("forward_wrench", harness.forward_wrench))
    monkeypatch.setattr(harness, "integrate", integrate_spy)
    monkeypatch.setattr(harness.MissionPlanner, "sample",
                        spy("sample", harness.MissionPlanner.sample))
    cfg = default_scenario()
    cfg.events, cfg.duration = [(1.0, "s_f2p"), (3.5, "s_p2f")], 5.0
    result = run_scenario(cfg)
    assert set(result.modes) == {"F", "F2P", "P", "P2F"}
    ticks = len(result.modes)
    assert ticks == 5000 and calls["attached"] > 0
    assert calls["free"] + calls["attached"] == ticks
    assert calls["exp_so3"] == 4 * calls["free"]
    assert calls["forward_wrench"] == ticks + 1
    assert calls["sample"] == ticks + 1


def test_run_computes_metrics_once_through_module_global(monkeypatch):
    """perfbench's tracer wraps harness.compute_metrics, so a library run
    and a run streamed to a file each call it once, through that name."""
    calls = []

    def counted(fold):
        calls.append(fold)
        return compute_metrics(fold)

    monkeypatch.setattr(harness, "compute_metrics", counted)
    for log in (None, io.StringIO()):
        calls.clear()
        result = run_scenario(_hover_cfg(), log)
        assert len(calls) == 1
        assert result.metrics.to_dict() == compute_metrics(calls[0]).to_dict()


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
