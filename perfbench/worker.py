"""One benchmark run of perchsim, executed in a fresh interpreter.

`run.py` starts this script once per sample and writes a JSON request to its
standard input:

    {"mode": "setup" | "run", "workload": ..., "texts": [...],
     "out": <output dir>, "trace": bool, "spans": <.npz path or null>}

`setup` imports perchsim, parses and builds the run's scenarios and prints
the monotonic clock, so the parent can time interpreter start to first tick.
`run` executes the workload once through perchsim's public entry points,
times it with `speed.SpeedProbe` running, checks its outputs and prints one
JSON line with the results.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time

from speed import SpeedProbe

SETTLE_WINDOW_S = 0.5             # hover error must stay below settle_tol here
MISSION_RUNTIME_LIMIT_S = 60.0    # criterion 7's runtime predicate


def build_configs(workload, texts):
    """Parse and build the scenarios one run of the workload flies."""
    from perchsim.scenario import VARIANTS, default_scenario, parse_scenario
    if workload == "hover-sweep":
        configs = [parse_scenario(text) for text in texts]
    else:
        variants = VARIANTS if workload == "ablate" else ("proposed",)
        configs = []
        for variant in variants:
            cfg = default_scenario()
            cfg.variant = variant
            configs.append(cfg)
    for cfg in configs:
        cfg.build()
    return configs


# --- workloads ---------------------------------------------------------------

def run_cli(argv):
    from perchsim import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_hover_sweep(texts):
    from perchsim import harness, scenario
    return [harness.run_scenario(scenario.parse_scenario(text))
            for text in texts]


# --- correctness gates -------------------------------------------------------

def _num(x):
    return float(x) if isinstance(x, (int, float)) else math.nan


def csv_failures(path):
    """The CSV at `path` must hash to perchsim's pinned GOLDEN_SHA256."""
    from perchsim import acceptance
    with open(path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    if sha != acceptance.GOLDEN_SHA256:
        return [f"{os.path.basename(os.path.dirname(path))}/log.csv sha256 "
                f"{sha} != GOLDEN_SHA256"]
    return []


def check_mission(out, wall_s):
    """Criterion 11's golden CSV and criterion 7's predicates."""
    fails = csv_failures(os.path.join(out, "log.csv"))
    with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
        m = json.load(fh)
    preds = {
        "perch within 30 s of signal": bool(m.get("perch_achieved"))
        and _num(m.get("time_to_perch_s")) <= 30.0,
        "release occurs": bool(m.get("unperch_achieved")),
        "min_clearance > 0.05 m": _num(m.get("min_clearance_m")) > 0.05,
        "z_drop < 0.2 m": _num(m.get("z_drop_m")) < 0.2,
        "settles within 5 s":
            _num(m.get("settle_time_after_release_s")) <= 5.0,
        "runtime < 60 s": wall_s < MISSION_RUNTIME_LIMIT_S,
    }
    return fails + [f"criterion 7: {k}" for k, ok in preds.items() if not ok]


def check_ablate(out):
    """Criteria 8-10 from comparison.json, plus the golden proposed CSV."""
    fails = csv_failures(os.path.join(out, "proposed", "log.csv"))
    with open(os.path.join(out, "comparison.json"), encoding="utf-8") as fh:
        m = json.load(fh)["metrics"]
    base, rho0 = m["proposed"], m["no-transitions-rho0"]
    rho05, nofreeze = m["no-transitions-rho0.5"], m["no-freeze"]
    preds = {
        "criterion 8: rho0 releases and drops >= 2x proposed":
            bool(rho0.get("unperch_achieved"))
            and _num(rho0.get("z_drop_m")) >= 2.0 * _num(base.get("z_drop_m")),
        "criterion 9: rho0.5 re-contacts, proposed clears 0.05 m":
            _num(rho05.get("min_clearance_m")) <= 0.0
            and _num(base.get("min_clearance_m")) > 0.05,
        "criterion 10: no-freeze P saturation > 0.2, proposed = 0":
            _num(nofreeze["saturation_fraction"].get("P")) > 0.2
            and _num(base["saturation_fraction"].get("P", 0.0)) == 0.0,
    }
    return fails + [k for k, ok in preds.items() if not ok]


def check_hover(results):
    """Every hover completes, never saturates and settles below settle_tol."""
    fails = []
    for r in results:
        name = r.cfg.name
        if not r.metrics.completed:
            fails.append(f"{name}: failed with {r.metrics.failure}")
            continue
        if r.column("sat_any").any():
            fails.append(f"{name}: rotor saturation")
        t, ep = r.column("t"), r.column("ep_norm")
        tail = ep[t >= t[-1] - SETTLE_WINDOW_S]
        if not (tail < r.cfg.settle_tol).all():
            fails.append(f"{name}: position error {tail.max():.4f} m not "
                         f"below settle_tol {r.cfg.settle_tol} m")
    return fails


# --- exact counts and output digests -----------------------------------------

def _files(out):
    for dirpath, _, names in os.walk(out):
        for name in names:
            yield os.path.join(dirpath, name)


def cli_counts(out):
    """Ticks, attached ticks, mode edges and bytes from the CLI's files."""
    counts = {"ticks": 0, "attached_ticks": 0, "mode_edges": 0,
              "csv_bytes": 0, "output_bytes": 0}
    digests = {}
    for path in sorted(_files(out)):
        with open(path, "rb") as fh:
            data = fh.read()
        rel = os.path.relpath(path, out)
        digests[rel] = hashlib.sha256(data).hexdigest()
        counts["output_bytes"] += len(data)
        if rel.endswith("log.csv"):
            lines = data.decode().splitlines()
            col = lines[0].split(",").index("attached")
            counts["csv_bytes"] += len(data)
            counts["ticks"] += len(lines) - 1
            counts["attached_ticks"] += sum(
                float(line.split(",")[col]) > 0.5 for line in lines[1:])
        elif rel.endswith("metrics.json"):
            events = json.loads(data)["events"]
            counts["mode_edges"] += sum(e["kind"] == "mode" for e in events)
    return counts, digests


def hover_counts(results):
    counts = {"ticks": 0, "attached_ticks": 0, "mode_edges": 0,
              "csv_bytes": 0, "output_bytes": 0}
    digests = {}
    for r in results:
        counts["ticks"] += len(r.modes)
        counts["attached_ticks"] += int(r.column("attached").sum())
        counts["mode_edges"] += sum(kind == "mode" for _, kind, _ in r.events)
        h = hashlib.sha256(r.rows.tobytes())
        h.update(json.dumps([r.modes, r.events,
                             r.metrics.to_dict()]).encode())
        digests[r.cfg.name] = h.hexdigest()
    return counts, digests


# --- one run -----------------------------------------------------------------

def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb * 1024 / 1e6


def run(req):
    import numpy
    import perchsim
    # Imported before timing: import cost belongs to setup_s.
    from perchsim import cli, harness, scenario  # noqa: F401

    workload, out = req["workload"], req["out"]
    shutil.rmtree(out, ignore_errors=True)
    if workload == "hover-sweep":
        call, args = run_hover_sweep, (req["texts"],)
    else:
        verb = "run" if workload == "mission" else "ablate"
        call, args = run_cli, ([verb, "--out", out],)

    tracer = None
    if req["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        call, args = tracer.run, (call, *args)

    probe = SpeedProbe()
    probe.burst()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with probe:
        value = call(*args)
    wall = time.perf_counter() - t0 - probe.window_s
    cpu = _cpu_s() - cpu0 - probe.window_cpu_s
    peak = _peak_rss_mb()
    probe.burst()
    scale = probe.scale()

    if workload == "hover-sweep":
        fails = check_hover(value)
        counts, digests = hover_counts(value)
    else:
        fails = [] if value == cli.EXIT_OK else [f"exit code {value}"]
        fails += check_mission(out, wall) if workload == "mission" \
            else check_ablate(out)
        counts, digests = cli_counts(out)

    res = {"wall_s": wall * scale, "cpu_s": cpu * scale, "peak_rss_mb": peak,
           "host_wall_s": wall, "host_cpu_s": cpu, "scale": scale,
           "failures": fails, "counts": counts, "digests": digests,
           "perchsim": os.path.dirname(perchsim.__file__),
           "numpy": numpy.__version__}
    if tracer is not None:
        from tracer import layer_metrics
        totals = tracer.totals(probe.window)
        res.update(layers=totals,
                   layer_metrics=layer_metrics(totals, tracer.counts,
                                               counts["output_bytes"], scale),
                   self_sum_s=sum(v["self_ns"] for v in totals.values())
                   / 1e9)
        if req.get("spans"):
            tracer.save(req["spans"])
    return res


def main():
    req = json.loads(sys.stdin.read())
    if req["mode"] == "setup":
        import perchsim.cli  # noqa: F401  (the run imports the whole package)
        build_configs(req["workload"], req["texts"])
        print(json.dumps({"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}))
    else:
        print(json.dumps(run(req)))


if __name__ == "__main__":
    main()
