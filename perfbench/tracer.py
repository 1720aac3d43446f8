"""Per-layer span tracer that works on perchsim from outside the program.

`Tracer.install` replaces the module and class attributes that perchsim looks
up at call time (the `perchsim.harness` globals, `estimation.update`,
`MissionPlanner.sample`, `SimResult.to_csv`, `vehicle.forward_wrench`,
`vehicle.exp_so3`, ...) with wrappers that record one span per call: layer
id, parent span, start and end in `perf_counter_ns`.  Spans stay in flat
in-memory arrays until the run ends; `uninstall` puts every original back.

A layer's self time is its span time minus the time of its direct child
spans, so the self times of all layers add up to the root span.
"""

import importlib
import time
from array import array
from collections import Counter

import numpy as np

ROOT = "workload"


def _free(counts, args, out):
    if not args[3].attached:        # integrate(state, act, dist, contact, ...)
        counts["vehicle.integrate.free"] += 1


def _edge(counts, args, out):
    if out.mode is not args[0].mode:      # transition(sup, ...) -> new sup
        counts["supervisor.mode_edges"] += 1


def _ticks(counts, args, out):
    counts["ticks"] += len(out.modes)
    counts["attached_ticks"] += int(out.column("attached").sum())


# (module, attribute, layer, count hook).  The harness binds `transition_fn`,
# `policy_fn` and the stage functions through these names on every call, and
# the CLI calls `run_scenario`, `_write_run` and `default_scenario` through
# its own module globals.
LAYERS = (
    ("perchsim.cli", "run_scenario", "harness.loop", _ticks),
    ("perchsim.harness", "run_scenario", "harness.loop", _ticks),
    ("perchsim.cli", "_write_run", "cli.write", None),
    ("perchsim.cli", "default_scenario", "scenario.parse", None),
    ("perchsim.scenario", "parse_scenario", "scenario.parse", None),
    ("perchsim.scenario", "ScenarioConfig.build", "scenario.build", None),
    ("perchsim.harness", "MissionPlanner.sample", "planner.sample", None),
    ("perchsim.harness", "MissionPlanner.start_approach", "planner.replan",
     None),
    ("perchsim.harness", "MissionPlanner.start_departure", "planner.replan",
     None),
    ("perchsim.harness", "transition", "supervisor.transition", _edge),
    ("perchsim.harness", "transition_two_mode", "supervisor.transition",
     _edge),
    ("perchsim.estimation", "update", "estimation.update", None),
    ("perchsim.estimation", "freeze", "estimation.freeze", None),
    ("perchsim.harness", "nominal_wrench", "control.nominal_wrench", None),
    ("perchsim.harness", "perch_wrench", "control.perch_wrench", None),
    ("perchsim.harness", "rejection_force", "control.rejection_force", None),
    ("perchsim.harness", "allocate", "allocation.allocate", None),
    ("perchsim.harness", "forward_wrench", "allocation.forward_wrench", None),
    ("perchsim.vehicle", "forward_wrench", "allocation.forward_wrench", None),
    ("perchsim.harness", "step_actuators", "vehicle.step_actuators", None),
    ("perchsim.harness", "update_contact", "vehicle.update_contact", None),
    ("perchsim.harness", "integrate", "vehicle.integrate", _free),
    ("perchsim.vehicle", "exp_so3", "geometry.exp_so3", None),
    ("perchsim.harness", "quat_of", "geometry.log", None),
    ("perchsim.harness", "rotation_error", "geometry.log", None),
    ("perchsim.harness", "pitch_of", "geometry.log", None),
    ("perchsim.harness", "compute_metrics", "harness.metrics", None),
    ("perchsim.harness", "SimResult.to_csv", "harness.to_csv", None),
)


def _owner(module, attr):
    """The object holding `attr` (a module or a class in it) and its name."""
    obj = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


def targets():
    """Current value of every attribute the tracer replaces."""
    out = {}
    for module, attr, _, _ in LAYERS:
        obj, name = _owner(module, attr)
        out[(module, attr)] = getattr(obj, name)
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.layer = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = Counter()
        self._stack = [-1]
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, hook=None):
        """`fn` with each call recorded as a span of layer `name`."""
        lid = self._id(name)
        layer, parent, start, end = self.layer, self.parent, self.start, \
            self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(layer)
            layer.append(lid)
            parent.append(stack[-1])
            stack.append(i)
            start.append(clock())
            end.append(0)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out

        return traced

    def install(self):
        """Replace every attribute in LAYERS with its traced wrapper."""
        try:
            for module, attr, name, hook in LAYERS:
                obj, key = _owner(module, attr)
                original = getattr(obj, key)
                setattr(obj, key, self.wrap(name, original, hook))
                self._saved.append((obj, key, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            obj, key, original = self._saved.pop()
            setattr(obj, key, original)

    def run(self, fn, *args):
        """Call `fn(*args)` as the root span with every layer traced."""
        self.install()
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self.uninstall()

    def arrays(self):
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path):
        """Write the spans and the layer-name table as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self, excluded=()):
        """Per-layer {calls, total_ns, self_ns}, less the `excluded` intervals.

        `excluded` holds (start_ns, end_ns) of work that ran inside spans but
        is not perchsim's, such as speed probes from a signal handler.  Such
        an interval never straddles a span boundary, because both the handler
        and the span clocks run between bytecodes of the one thread.
        """
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        if len(excluded):
            ex = np.array(sorted(excluded), dtype=np.int64)
            cum = np.concatenate([[0], np.cumsum(ex[:, 1] - ex[:, 0])])
            dur -= cum[np.searchsorted(ex[:, 0], a["end_ns"])] \
                - cum[np.searchsorted(ex[:, 0], a["start_ns"])]
        child = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        n = len(self.names)
        # float64 sums of integer nanoseconds are exact below 2**53 ns.
        calls = np.bincount(a["layer"], minlength=n)
        total = np.bincount(a["layer"], weights=dur, minlength=n)
        own = np.bincount(a["layer"], weights=dur - child, minlength=n)
        return {name: {"calls": int(calls[i]), "total_ns": int(total[i]),
                       "self_ns": int(own[i])}
                for i, name in enumerate(self.names)}


# Per-layer metric names and units, as listed in BENCHMARK.json.
PER_LAYER = {
    "vehicle.integrate.us_per_call": "us",
    "vehicle.integrate.self_s": "s",
    "vehicle.integrate.free_ratio": "ratio",
    "geometry.exp_so3.us_per_call": "us",
    "geometry.exp_so3.calls_per_integrate": "calls/call",
    "planner.sample.us_per_call": "us",
    "planner.replan.calls": "count",
    "control.nominal_wrench.us_per_call": "us",
    "control.perch_wrench.calls": "count",
    "allocation.allocate.us_per_call": "us",
    "allocation.forward_wrench.us_per_call": "us",
    "allocation.forward_wrench.calls_per_tick": "calls/tick",
    "estimation.update.us_per_call": "us",
    "estimation.frozen_ratio": "ratio",
    "supervisor.transition.us_per_call": "us",
    "supervisor.mode_edges": "count",
    "vehicle.step_actuators.us_per_call": "us",
    "vehicle.update_contact.us_per_call": "us",
    "harness.loop.self_us_per_tick": "us/tick",
    "geometry.log.us_per_tick": "us/tick",
    "harness.to_csv.s": "s",
    "cli.write.s": "s",
    "cli.write.mb": "MB",
    "scenario.parse.s": "s",
    "scenario.build.s": "s",
}


def layer_metrics(totals, counts, output_bytes, scale):
    """PER_LAYER's values from one traced run.

    `us_per_call` is a layer's span time per call, children included.  Times
    are multiplied by `scale`, the run's reference seconds per host second.
    `output_bytes` is what the CLI wrote; the tracer cannot see file sizes.
    """
    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def sec(name, kind="total_ns"):
        return totals.get(name, {}).get(kind, 0) / 1e9 * scale

    def us_per_call(name):
        n = calls(name)
        return sec(name) * 1e6 / n if n else 0.0

    ticks = counts["ticks"]
    free = counts["vehicle.integrate.free"]
    return {
        "vehicle.integrate.us_per_call": us_per_call("vehicle.integrate"),
        "vehicle.integrate.self_s": sec("vehicle.integrate", "self_ns"),
        "vehicle.integrate.free_ratio": free / calls("vehicle.integrate"),
        "geometry.exp_so3.us_per_call": us_per_call("geometry.exp_so3"),
        "geometry.exp_so3.calls_per_integrate":
            calls("geometry.exp_so3") / free,
        "planner.sample.us_per_call": us_per_call("planner.sample"),
        "planner.replan.calls": calls("planner.replan"),
        "control.nominal_wrench.us_per_call":
            us_per_call("control.nominal_wrench"),
        "control.perch_wrench.calls": calls("control.perch_wrench"),
        "allocation.allocate.us_per_call": us_per_call("allocation.allocate"),
        "allocation.forward_wrench.us_per_call":
            us_per_call("allocation.forward_wrench"),
        "allocation.forward_wrench.calls_per_tick":
            calls("allocation.forward_wrench") / ticks,
        "estimation.update.us_per_call": us_per_call("estimation.update"),
        "estimation.frozen_ratio": calls("estimation.freeze") / ticks,
        "supervisor.transition.us_per_call":
            us_per_call("supervisor.transition"),
        "supervisor.mode_edges": counts["supervisor.mode_edges"],
        "vehicle.step_actuators.us_per_call":
            us_per_call("vehicle.step_actuators"),
        "vehicle.update_contact.us_per_call":
            us_per_call("vehicle.update_contact"),
        "harness.loop.self_us_per_tick":
            sec("harness.loop", "self_ns") * 1e6 / ticks,
        "geometry.log.us_per_tick": sec("geometry.log") * 1e6 / ticks,
        "harness.to_csv.s": sec("harness.to_csv"),
        "cli.write.s": sec("cli.write", "self_ns"),
        "scenario.parse.s": sec("scenario.parse"),
        "scenario.build.s": sec("scenario.build"),
        "cli.write.mb": output_bytes / 1e6,
    }
