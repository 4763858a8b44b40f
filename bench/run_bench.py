"""rrrt benchmark: repeated, checked runs of one workload at one seed.

    python3 bench/run_bench.py --workload field_congested --seed 1 --seconds 30 --trace 0

Runs repetitions of one workload at one seed, each in a fresh interpreter
(pipeline.py), until `--seconds` have passed, and at least three of them,
but none past RUN_LIMIT_S. A repetition that crashes or times out counts as
failed; the run exits non-zero without a result when none has figures.
Every repetition is checked (audit, replay equals live, full delivery on
transport, golden trace hash at the default seed, one hash per seed). The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are at a reference machine speed measured throughout each repetition
(see pipeline.REFERENCE_S). With `--trace 0` the metrics are the end-to-end
medians over the repetitions. With `--trace 1` untraced and traced
repetitions alternate and the metrics are the per-layer figures (see
tracer.py).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pipeline

HERE = Path(__file__).resolve().parent

# name -> unit; every one is host-side and lower is better.
END_TO_END = {"wall_s": "s", "setup_s": "s", "loop_s": "s", "serialize_s": "s",
              "replay_s": "s", "peak_rss_mb": "MB"}
MIN_REPETITIONS = 3
# No repetition starts, or runs on, after this many seconds of a run.
RUN_LIMIT_S = 150


def worker(workload: str, seed: int, traced: bool = False, extra: dict | None = None,
           timeout: float = RUN_LIMIT_S) -> dict:
    """One repetition in a fresh interpreter. One that crashes or times out
    comes back with no figures and its failure."""
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", workload,
           "--seed", str(seed)]
    for key, value in (extra or {}).items():
        cmd += ["--set", f"{key}={value!r}"]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=pipeline.ROOT)
    except subprocess.TimeoutExpired:
        return {"sha256": None, "failures": [f"repetition timed out after {timeout:.0f} s"]}
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"sha256": None,
                "failures": [f"repetition exited with code {proc.returncode}: {tail}"]}
    return json.loads(proc.stdout.splitlines()[-1])


def finished(reps: list[dict]) -> list[dict]:
    """The repetitions that ran to the end and so have figures."""
    return [rep for rep in reps if rep["sha256"] is not None]


def tally(reps: list[dict]) -> tuple[int, int]:
    """(attempted, failed); a repetition whose trace hash differs from the
    first one's at the same seed fails too."""
    done = finished(reps)
    for rep in done:
        if rep["sha256"] != done[0]["sha256"]:
            rep["failures"].append(f"trace sha256 {rep['sha256'][:12]} differs from "
                                   f"{done[0]['sha256'][:12]} at the same seed")
    return len(reps), sum(bool(rep["failures"]) for rep in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", type=int, default=pipeline.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    deadline = start + args.seconds

    def time_left() -> float:
        return start + RUN_LIMIT_S - time.monotonic()

    while (len(untraced) < MIN_REPETITIONS or time.monotonic() < deadline) and time_left() > 0:
        untraced.append(worker(args.workload, args.seed, timeout=time_left()))
        if args.trace and time_left() > 0:
            traced.append(worker(args.workload, args.seed, traced=True, timeout=time_left()))

    reps = untraced + traced
    attempted, failed = tally(reps)
    for rep in reps:
        for failure in rep["failures"]:
            print(f"FAILED: {failure}")
    untraced, traced = finished(untraced), finished(traced)
    if not untraced or (args.trace and not traced):
        sys.exit(f"error: {failed} of {attempted} {args.workload} repetitions failed "
                 "and none left figures to report")
    reps = untraced + traced
    speed = statistics.median(rep["speed"] for rep in reps)
    print(f"{args.workload} seed {args.seed}: trace sha256 {reps[0]['sha256']}, "
          f"{len(untraced)} untraced and {len(traced)} traced repetitions; "
          f"times are at reference speed, {speed:.3f} x as measured")

    if args.trace:
        import tracer
        missing = sorted({name for rep in traced for name in rep["missing"]})
        if missing:
            print(f"missing spans: {', '.join(missing)}")
        values = tracer.per_layer(traced, untraced)
        result = {name: {"value": value, "unit": tracer.unit_of(name)}
                  for name, value in values.items()}
    else:
        result = {name: {"value": statistics.median(rep[name] for rep in untraced),
                         "unit": unit} for name, unit in END_TO_END.items()}
    for name, metric in result.items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
