"""Command-line interface: run scenarios, ablation sweeps, verification."""

import argparse
import errno
import json
import os
import sys
from contextlib import closing
from dataclasses import replace

from .harness import run_scenario
from .metrics import compare
from .scenario import SCHEMA_DOC, VARIANTS, ScenarioError, default_scenario, \
    load_scenario

EXIT_OK = 0
EXIT_SCHEMA = 2                   # bad input: scenario, option or --out path
EXIT_FAILED = 3                   # a run aborted numerically or hit the ground
RUN_FILES = ("log.csv", "metrics.json")     # what a run writes in its --out


def _load(args):
    if args.scenario:
        cfg = load_scenario(args.scenario)
    else:
        cfg = default_scenario()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.dt is not None:
        cfg.dt = args.dt
    return cfg


def _check_out(path, files):
    """Fail before the run, creating nothing, where os.makedirs(path) would
    meet a file at `path` or above it, or where one of the `files` to be
    written in `path` is a directory."""
    head = path
    while head and not os.path.lexists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise NotADirectoryError(errno.ENOTDIR, "Not a directory", path)
    for name in files:
        file = os.path.join(path, name)
        if os.path.isdir(file):
            raise IsADirectoryError(errno.EISDIR, "Is a directory", file)


class _LogFile:
    """`out_dir/log.csv` as a text sink that makes the directory and opens
    the file on its first write.  run_scenario checks the scenario before
    it writes, so a scenario error creates nothing."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.fh = None

    def writelines(self, lines):
        if self.fh is None:
            os.makedirs(self.out_dir, exist_ok=True)
            self.fh = open(os.path.join(self.out_dir, "log.csv"), "w",
                           encoding="utf-8")
        self.fh.writelines(lines)

    def close(self):
        if self.fh is not None:
            self.fh.close()


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_run(result, out_dir):
    """Write the run's metrics.json into `out_dir`, which exists."""
    payload = result.metrics.to_dict()
    payload["events"] = [{"t": t, "kind": kind, "detail": detail}
                         for t, kind, detail in result.events]
    _write_json(os.path.join(out_dir, "metrics.json"), payload)


def _stream_run(cfg, out_dir):
    """Fly `cfg` with its log.csv streamed into `out_dir`, then write its
    metrics.json there; the result keeps events and metrics, not rows."""
    with closing(_LogFile(out_dir)) as log:
        result = run_scenario(cfg, log)
    _write_run(result, out_dir)
    return result


def cmd_run(args):
    cfg = _load(args)
    if args.variant is not None:
        cfg.variant = args.variant
    _check_out(args.out, RUN_FILES)
    result = _stream_run(cfg, args.out)
    print(json.dumps(result.metrics.to_dict(), indent=2))
    return EXIT_OK if result.metrics.completed else EXIT_FAILED


def cmd_ablate(args):
    cfg = _load(args)
    metrics = {}
    _check_out(args.out, ("comparison.json",))
    for variant in VARIANTS:
        _check_out(os.path.join(args.out, variant), RUN_FILES)
    for variant in VARIANTS:
        metrics[variant] = _stream_run(replace(cfg, variant=variant),
                                       os.path.join(args.out, variant)).metrics
    report = {"comparisons": [
        compare("proposed", metrics["proposed"], v, metrics[v])
        for v in VARIANTS if v != "proposed"]}
    report["metrics"] = {v: m.to_dict() for v, m in metrics.items()}
    _write_json(os.path.join(args.out, "comparison.json"), report)
    print(json.dumps(report["comparisons"], indent=2))
    ok = all(m.completed for m in metrics.values())
    return EXIT_OK if ok else EXIT_FAILED


def cmd_verify(args):
    from .acceptance import CHECKS
    passed = True
    for check in CHECKS:
        result = check()
        print(result.line())
        passed = passed and result.passed
    return EXIT_OK if passed else 1


def cmd_print_schema(args):
    print(SCHEMA_DOC, end="")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="perchsim",
        description="Perching/unperching tiltrotor simulation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_default):
        p.add_argument("--scenario", help="scenario file (default: built-in)")
        p.add_argument("--out", default=out_default, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--dt", type=float, default=None)

    p_run = sub.add_parser("run", help="run one scenario, write logs+metrics")
    add_common(p_run, "out/run")
    p_run.add_argument("--variant", choices=VARIANTS, default=None)
    p_run.set_defaults(func=cmd_run)

    p_ab = sub.add_parser("ablate",
                          help="run all controller variants and compare")
    add_common(p_ab, "out/ablate")
    p_ab.set_defaults(func=cmd_ablate)

    p_ver = sub.add_parser("verify", help="run the acceptance suite")
    p_ver.set_defaults(func=cmd_verify)

    p_sch = sub.add_parser("print-schema",
                           help="print the scenario file schema")
    p_sch.set_defaults(func=cmd_print_schema)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        if exc.filename is None:  # not a path, e.g. a closed stdout pipe
            raise
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
