"""Command-line entry point: run, sweep, replay, validate.

Exit codes: 0 success, 2 scenario validation failure, 3 I/O failure,
4 runtime invariant violation, 1 anything else.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys

from .controller import IntervalRow
from .errors import Corrupt, InvariantViolation, ScenarioInvalid, UnknownParameter
from .kernel import SimulationTrace
from .runner import ARTIFACT_VERSION, replay, run_traced, sweep, sweep_csv
from .scenario import SweepSpec, parse_scenario, scenario_hash

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_INVARIANT = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario file path")
    parser.add_argument("--seed", type=int, default=None, help="override [sim] seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--format", choices=("csv", "structured"), default="structured",
                        help="summary format on stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rrrt",
                                     description="Delay-constrained reliable WSN transport simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    _add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="sweep one parameter over values x seeds")
    _add_common(sweep_p)
    sweep_p.add_argument("--param", required=True, help="dotted path, e.g. controller.f_init")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 1,2,4,8")
    sweep_p.add_argument("--reps", type=int, default=None,
                         help="seeds per value (default: [sim] repetitions)")

    replay_p = sub.add_parser("replay", help="recompute metrics from a serialized trace")
    replay_p.add_argument("--trace", required=True, help="trace file path")
    replay_p.add_argument("--format", choices=("csv", "structured"), default="structured")

    val_p = sub.add_parser("validate", help="validate a scenario file")
    val_p.add_argument("--scenario", required=True)
    return parser


def _print_summary(report_dict: dict, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(report_dict, indent=2))
    else:
        for key, value in report_dict.items():
            if key in ("per_interval", "delay_budget"):
                continue
            print(f"{key},{value}")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)


def _write_outputs(out_dir: str, preamble: dict, report, trace: SimulationTrace) -> None:
    os.makedirs(out_dir, exist_ok=True)
    header = "".join(f"# {k}={v}\n" for k, v in preamble.items())
    _write(os.path.join(out_dir, "trace.csv"), trace.serialize(preamble))
    _write(os.path.join(out_dir, "summary.json"),
           json.dumps({"preamble": preamble, **report.to_dict()}, indent=2) + "\n")
    intervals = header + IntervalRow.CSV_HEADER + "\n"
    intervals += "".join(row.csv() + "\n" for row in report.per_interval)
    _write(os.path.join(out_dir, "intervals.csv"), intervals)
    conn = header + "time,phase,r_c,r_f,r_min,missed_feedback,retransmit_count\n"
    for time, _, kind, _, _, _, _, info in trace.records:
        if kind != "conn" or not info:  # a deadline_expired row carries no state
            continue
        state = dict(part.split("=", 1) for part in info.split(";"))
        conn += (f"{time!r},{state['phase']},{state['r_c']},{state['r_f']},"
                 f"{state['r_min']},{state['missed']},{state['retx']}\n")
    _write(os.path.join(out_dir, "connection.csv"), conn)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            cfg = parse_scenario(args.scenario)
            print(f"ok: {args.scenario} (hash {scenario_hash(cfg)})")
            return EXIT_OK

        if args.command == "replay":
            report = replay(args.trace)
            _print_summary(report.to_dict(), args.format)
            return EXIT_OK

        cfg = parse_scenario(args.scenario)
        if args.seed is not None:
            cfg.sim.seed = args.seed

        if args.command == "run":
            report, trace, preamble = run_traced(cfg)
            if args.out:
                _write_outputs(args.out, preamble, report, trace)
            _print_summary(report.to_dict(), args.format)
            return EXIT_OK

        if args.command == "sweep":
            values = [ast.literal_eval(v) for v in args.values.split(",")]
            reps = args.reps if args.reps is not None else cfg.sim.repetitions
            rows = sweep(cfg, SweepSpec(args.param, values, reps))
            text = sweep_csv(rows, {"artifact_version": ARTIFACT_VERSION,
                                    "scenario_hash": scenario_hash(cfg),
                                    "seed": cfg.sim.seed})
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                _write(os.path.join(args.out, "sweep.csv"), text)
            print(text, end="")
            return EXIT_OK

        return EXIT_OTHER
    except ScenarioInvalid as exc:
        for violation in exc.violations:
            print(f"validation: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnknownParameter as exc:
        print(f"unknown parameter: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Corrupt as exc:
        print(f"corrupt trace: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
