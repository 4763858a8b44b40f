"""Command-line entry point: run, sweep, replay, validate.

`run --out` writes trace.csv, summary.json, intervals.csv and connection.csv,
each as it is formed: the trace block by block, the CSVs a row at a time, and
the JSON as it is encoded by the one JSON writer, which prints the summary on
stdout too. The report's `to_dict()` is built once per `run` or `replay`: it
is what stdout prints, what summary.json holds after the preamble, and
intervals.csv holds its `per_interval`.

Exit codes: 0 success, 2 scenario validation failure, 3 I/O failure,
4 runtime invariant violation. Any other error is not caught and exits with
Python's own status for an uncaught exception, 1, after its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, TextIO

from .controller import IntervalRow
from .errors import Corrupt, InvariantViolation, ScenarioInvalid, UnknownParameter
from .kernel import SimulationTrace, decode_info, format_preamble, open_text
from .nodes import TransportSenderApp
from .runner import ARTIFACT_VERSION, replay, run_traced, sweep, sweep_csv
from .scenario import SweepSpec, parse_scenario, parse_value, scenario_hash, set_param

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_INVARIANT = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario file path")
    parser.add_argument("--seed", type=int, default=None, help="override [sim] seed")
    parser.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rrrt",
                                     description="Delay-constrained reliable WSN transport simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    _add_common(run_p)
    run_p.add_argument("--format", choices=("csv", "structured"), default="structured",
                       help="summary format on stdout")

    sweep_p = sub.add_parser("sweep", help="sweep one parameter over values x seeds")
    _add_common(sweep_p)
    sweep_p.add_argument("--param", required=True, help="dotted path, e.g. controller.f_init")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values in scenario-file syntax, e.g. 1,2,4,8")
    sweep_p.add_argument("--reps", type=int, default=None,
                         help="seeds per value: sets [sim] repetitions")

    replay_p = sub.add_parser("replay", help="recompute metrics from a serialized trace")
    replay_p.add_argument("--trace", required=True, help="trace file path")
    replay_p.add_argument("--format", choices=("csv", "structured"), default="structured")

    val_p = sub.add_parser("validate", help="validate a scenario file")
    val_p.add_argument("--scenario", required=True)
    return parser


def _dump_json(value, fp: TextIO) -> None:
    """The one JSON writer, of stdout and summary.json: `value` written as it
    is encoded, so a long run's per-interval history is not held a second
    time as one string, then a newline."""
    json.dump(value, fp, indent=2)
    fp.write("\n")


def _print_summary(summary: dict, fmt: str) -> None:
    """The report's `to_dict()` on stdout."""
    if fmt == "structured":
        _dump_json(summary, sys.stdout)
    else:
        for key, value in summary.items():
            if key in ("per_interval", "delay_budget"):
                continue
            print(f"{key},{value}")


def _write_csv(path: str, preamble: dict, header: str, rows: Iterable[str]) -> None:
    """`path` as a CSV output: the preamble, `header`, then `rows` a line at a time."""
    with open_text(path, "w") as fp:
        fp.write(format_preamble(preamble) + header + "\n")
        fp.writelines(f"{row}\n" for row in rows)


def _write_outputs(out_dir: str, preamble: dict, summary: dict, trace: SimulationTrace) -> None:
    """The four files of `rrrt run --out`, of a run's trace and its report's
    `to_dict()`, which summary.json holds after the preamble. Each file is
    written as it is formed, so no text of a file is held whole: trace.csv
    block by block, intervals.csv from the summary's `per_interval` and
    connection.csv from the trace's `conn` rows, a row at a time."""
    os.makedirs(out_dir, exist_ok=True)
    with open_text(os.path.join(out_dir, "trace.csv"), "w") as fp:
        trace.write_to(fp, preamble)
    with open_text(os.path.join(out_dir, "summary.json"), "w") as fp:
        _dump_json({"preamble": preamble, **summary}, fp)
    _write_csv(os.path.join(out_dir, "intervals.csv"), preamble, IntervalRow.CSV_HEADER,
               summary["per_interval"])
    _write_csv(os.path.join(out_dir, "connection.csv"), preamble,
               TransportSenderApp.CONN_CSV_HEADER,  # deadline_expired rows carry no state
               (f"{time!r},{','.join(decode_info(info).values())}"
                for time, _, kind, _, _, _, _, info in trace if kind == "conn" and info))


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
            summary = report.to_dict()
            if args.out:
                _write_outputs(args.out, preamble, summary, trace)
            _print_summary(summary, args.format)
            return EXIT_OK

        # sweep: argparse admits no other command
        if args.reps is not None:
            set_param(cfg, "sim.repetitions", args.reps)
        values = [parse_value(v) for v in args.values.split(",")]
        rows = sweep(cfg, SweepSpec(args.param, values))
        text = sweep_csv(rows, {"artifact_version": ARTIFACT_VERSION,
                                "scenario_hash": scenario_hash(cfg),
                                "seed": cfg.sim.seed})
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open_text(os.path.join(args.out, "sweep.csv"), "w") as fp:
                fp.write(text)
        print(text, end="")
        return EXIT_OK
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
    except UnicodeDecodeError as exc:  # a scenario file that is not UTF-8 text
        print(f"io error: {args.scenario} is not UTF-8 text ({exc})", file=sys.stderr)
        return EXIT_IO
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
