"""Command-line interface: run scenarios, ablation sweeps, verification."""

import argparse
import json
import os
import sys

from .harness import compare, run_scenario
from .scenario import SCHEMA_DOC, VARIANTS, ScenarioError, default_scenario, \
    load_scenario
from .vehicle import NumericalDivergenceError

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_FAILED = 3                   # numerical abort or ground contact


def _load(args):
    if args.scenario:
        cfg = load_scenario(args.scenario)
    else:
        cfg = default_scenario()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.dt is not None:
        cfg.dt = args.dt
    if args.variant is not None:
        cfg.variant = args.variant
    cfg.validate()
    return cfg


def _write_run(result, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "log.csv"), "w", encoding="utf-8") as fh:
        fh.write(result.to_csv())
    payload = result.metrics.to_dict()
    payload["events"] = [
        {"t": t, "kind": kind, "detail": detail}
        for t, kind, detail in result.events]
    with open(os.path.join(out_dir, "metrics.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def cmd_run(args):
    cfg = _load(args)
    result = run_scenario(cfg)
    _write_run(result, args.out)
    print(json.dumps(result.metrics.to_dict(), indent=2))
    return EXIT_OK if result.metrics.completed else EXIT_FAILED


def cmd_ablate(args):
    results = {}
    for variant in VARIANTS:
        cfg_v = _load(args)
        cfg_v.variant = variant
        result = run_scenario(cfg_v)
        results[variant] = result
        _write_run(result, os.path.join(args.out, variant))
    base = results["proposed"]
    report = {"comparisons": []}
    for variant in VARIANTS:
        if variant == "proposed":
            continue
        report["comparisons"].append(compare(base, results[variant]).to_dict())
    report["metrics"] = {v: r.metrics.to_dict() for v, r in results.items()}
    path = os.path.join(args.out, "comparison.json")
    os.makedirs(args.out, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report["comparisons"], indent=2))
    return EXIT_OK


def cmd_verify(args):
    from .acceptance import run_all
    results = run_all(verbose=True)
    return EXIT_OK if all(r.passed for r in results) else 1


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
        p.add_argument("--variant", choices=VARIANTS, default=None)

    p_run = sub.add_parser("run", help="run one scenario, write logs+metrics")
    add_common(p_run, "out/run")
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
    except (ScenarioError, FileNotFoundError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericalDivergenceError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
