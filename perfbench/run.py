"""perchsim benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload mission|ablate|hover-sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; perchsim is imported from its `src/`.
Load is a closed loop with one caller: this process starts one run in a
fresh interpreter (`worker.py`), waits for it to end, and starts the next
until `--seconds` have passed.  Each run's outputs go through the workload's
correctness gate.

`--trace 0` reports the end-to-end metrics as medians over the runs, and
`setup_s` as the median of several fresh interpreters that import perchsim
and build the run's scenarios.  Times are in reference seconds, corrected
for the host's drifting speed (see speed.py and START_REF_S).  `--trace 1`
makes one untraced and one traced run and reports the per-layer metrics of
the traced one; the traced outputs must be byte-identical to the untraced
ones.

The last line of standard output is the result object; the line before it
holds the details (samples, exact counts, tracing overhead, environment),
which are also written to `.perfbench_out/`.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, digest, workload_inputs
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5          # measured fresh-interpreter set-ups, after a warm-up
DEADLINE_S = 170.0        # the whole benchmark must end within 180 s

# Interpreter start plus `import numpy`, the part of set-up perchsim does not
# own.  It is timed right before every set-up probe, and the probe is scaled
# by START_REF_S / its time: like speed.REF_S, but for start-up work (file
# reads, page faults, unmarshalling), which the in-process kernel does not
# track.  0.13 s is about its fastest time on the 2-vCPU virtual machine
# the benchmark was defined on (Python 3.11, numpy 2.4; median 0.19 s when
# busy).
START_REF_S = 0.13
START_CMD = (sys.executable, "-c", "import numpy")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Worker:
    """Starts worker.py processes one at a time, each under the deadline."""

    def __init__(self, t_begin):
        self.t_begin = t_begin
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def call(self, req, argv=(sys.executable, str(HERE / "worker.py"))):
        """(parsed last line, None) on success, (None, reason) otherwise."""
        timeout = DEADLINE_S - (now() - self.t_begin)
        if timeout <= 0:
            return None, "deadline reached"
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(json.dumps(req), timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, f"{argv[-1]} timed out"
        if proc.returncode != 0:
            return None, f"{argv[-1]} exited {proc.returncode}: {err[-2000:]}"
        lines = out.strip().splitlines()
        return (json.loads(lines[-1]) if lines else {}), None


def setup_times(worker, workload, texts):
    """Set-up probes as (reference s, host s, START_CMD host s), and errors.

    A probe is the time from spawning an interpreter until it has imported
    perchsim and built the run's scenarios.
    """
    req = {"mode": "setup", "workload": workload, "texts": texts}
    probes = []
    for i in range(SETUP_PROBES + 1):   # probe 0 warms page and .pyc caches
        t0 = now()
        _, err = worker.call({}, START_CMD)
        t1 = now()
        res, err = (None, err) if err else worker.call(req)
        if res is None:
            return probes, [f"setup: {err}"]
        host = res["ready"] - t1
        if i:
            probes.append((host * START_REF_S / (t1 - t0), host, t1 - t0))
    return probes, []


def measure(worker, req, seconds):
    """Back-to-back runs until `seconds` have passed; stops at a crash."""
    runs, errors = [], []
    t0 = now()
    while not runs or now() - t0 < seconds:
        last = runs[-1]["host_wall_s"] if runs else 0.0
        if now() - worker.t_begin + 1.5 * last > DEADLINE_S:
            break
        res, err = worker.call(req)
        if res is None:
            errors.append(err)
            break
        runs.append(res)
    return runs, errors


def environment():
    env = {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": None,
    }
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "perchsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = h.hexdigest()
    return env


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    t_begin = now()
    if not (SRC / "perchsim" / "__init__.py").is_file():
        print(f"perfbench: no perchsim sources under {SRC}", file=sys.stderr)
        return 2

    texts = workload_inputs(args.workload, args.seed)
    out_dir = OUT / args.workload
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "input_sha256": digest(texts),
               "loadavg_start": loadavg(), "env": environment()}
    worker = Worker(t_begin)
    req = {"mode": "run", "workload": args.workload, "texts": texts,
           "out": str(out_dir), "trace": False, "spans": None}
    OUT.mkdir(exist_ok=True)

    if args.trace == 0:
        setups, errors = setup_times(worker, args.workload, texts)
        runs, run_errors = measure(worker, req, args.seconds) \
            if not errors else ([], [])
        errors += run_errors
        keys = ("setup_s", "host_setup_s", "host_start_s")
        details["setup"] = [dict(zip(keys, p)) for p in setups]
    else:
        runs, errors = [], []
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        for traced in (False, True):
            res, err = worker.call(dict(req, trace=traced,
                                        spans=str(spans) if traced else None))
            if res is None:
                errors.append(err)
                break
            runs.append(res)
    for err in errors:
        print(f"perfbench: {err}", file=sys.stderr)
    if not runs or (args.trace and len(runs) < 2):
        return 1

    for r in runs[1:]:
        if r["counts"] != runs[0]["counts"]:
            r["failures"].append("exact counts differ from the first run")
    details["samples"] = [
        {k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "host_wall_s",
                           "host_cpu_s", "scale")} for r in runs]
    details["counts"] = runs[0]["counts"]
    details["env"].update(numpy=runs[0]["numpy"],
                          perchsim=runs[0]["perchsim"])

    if args.trace == 0:
        metrics = {name: statistics.median(r[name] for r in runs)
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(p[0] for p in setups)
        units = END_TO_END
    else:
        plain, traced = runs
        if plain["digests"] != traced["digests"]:
            traced["failures"].append(
                "traced outputs differ from untraced outputs")
        gap = abs(traced["self_sum_s"] - traced["host_wall_s"])
        if gap > 0.01 * traced["host_wall_s"]:
            traced["failures"].append(
                f"layer self times miss the traced wall by {gap:.6f} s")
        metrics = traced["layer_metrics"]
        units = PER_LAYER
        details["counts"]["replans"] = metrics["planner.replan.calls"]
        details.update(
            trace_overhead_s=traced["wall_s"] - plain["wall_s"],
            trace_overhead_ratio=traced["wall_s"] / plain["wall_s"] - 1.0,
            traced_host_wall_s=traced["host_wall_s"],
            self_sum_s=traced["self_sum_s"],
            layers=traced["layers"], spans_file=str(spans))

    failed = sum(bool(r["failures"]) for r in runs) + len(errors)
    attempted = len(runs) + len(errors)
    details.update(failures=[r["failures"] for r in runs if r["failures"]]
                   + errors,
                   error_rate=failed / attempted, loadavg_end=loadavg())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"details": details, "result": result},
                                       indent=2) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
