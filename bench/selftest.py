"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. Each workload at a tiny size, untraced twice and traced once, each in a
   fresh interpreter: every check passes, all three give one trace hash, no
   span is missing, the field workloads spend no time in transport, and the
   metric names and units match BENCHMARK.json.
2. A trace with one row altered fails the audit and the hash check, and
   counts as a failed run.
3. A repetition that raises counts as a failed run, with its error.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pipeline
import run_bench
import tracer
from rrrt.errors import InvariantViolation
from rrrt.kernel import SimulationTrace

TINY = {
    "field_congested": {"sim.horizon": 30.0},
    "field_wide": {"topology.n_sources": 81, "controller.dr_d": 400, "sim.horizon": 3.0},
    "transport_bulk": {"transport.goal_packets": 300, "transport.delta_e2a": 18.0,
                       "sim.horizon": 18.0},
}


def require(ok: bool, what: str, detail: object = "") -> None:
    if not ok:
        sys.exit(f"FAIL: {what} {detail}")
    print(f"ok: {what}")


def tiny_runs(spec: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    require([w["name"] for w in spec["workloads"]] == list(pipeline.WORKLOADS),
            "BENCHMARK.json names the workloads of pipeline.py")
    require(end_to_end == run_bench.END_TO_END,
            "BENCHMARK.json names the end-to-end metrics run_bench.py reports")
    for workload, extra in TINY.items():
        reps = [run_bench.worker(workload, pipeline.DEFAULT_SEED, extra=extra),
                run_bench.worker(workload, pipeline.DEFAULT_SEED, extra=extra),
                run_bench.worker(workload, pipeline.DEFAULT_SEED, traced=True, extra=extra)]
        _, failed = run_bench.tally(reps)
        require(failed == 0, f"{workload}: every check passes",
                [failure for rep in reps for failure in rep["failures"]])
        require(len({rep["sha256"] for rep in reps}) == 1,
                f"{workload}: two untraced runs and a traced one give one trace hash")
        require(not reps[2]["missing"], f"{workload}: no span is missing")
        layers = tracer.per_layer(reps[2:], reps[:2])
        require({name: tracer.unit_of(name) for name in layers} == per_layer,
                f"{workload}: BENCHMARK.json names the per-layer metrics tracer.py reports")
        if workload.startswith("field"):
            require(layers["transport.self_s"] == 0, f"{workload}: no transport time")


def altered_trace() -> None:
    workload = "transport_bulk"
    failures, text, live, goal, _ = pipeline.simulate(
        workload, pipeline.DEFAULT_SEED, TINY[workload], pipeline.Stopwatch())
    require(not failures, "unaltered trace passes the audit")
    golden = hashlib.sha256(text.encode()).hexdigest()
    lines = text.split("\n")
    row = next(i for i, line in enumerate(lines) if ",receive," in line)
    time_text, rest = lines[row].split(",", 1)
    lines[row] = f"{float(time_text) + 1e-3!r},{rest}"
    altered = "\n".join(lines)

    trace, _ = SimulationTrace.parse(altered)
    try:
        pipeline.metrics.audit_trace(trace)
        audit = []
    except InvariantViolation as exc:
        audit = [f"audit: {exc}"]
    require(bool(audit), "altered trace fails the audit")
    replayed = pipeline.runner.replay_text(altered).to_dict()
    sha, failed = pipeline.check(altered, live, replayed, goal, golden)
    require(any("sha256" in failure for failure in failed), "altered trace fails the hash check")
    reps = [{"sha256": golden, "failures": []}, {"sha256": sha, "failures": audit + failed}]
    require(run_bench.tally(reps) == (2, 1), "altered trace counts as a failed run")


def crashed_repetition() -> None:
    workload = "field_wide"
    reps = [run_bench.worker(workload, pipeline.DEFAULT_SEED, extra=TINY[workload]),
            run_bench.worker(workload, pipeline.DEFAULT_SEED,
                             extra={**TINY[workload], "topology.n_sources": -1})]
    require(run_bench.tally(reps) == (2, 1) and "ScenarioInvalid" in reps[1]["failures"][0],
            "a repetition that raises counts as a failed run", reps[1]["failures"])


def main() -> int:
    spec = json.loads((pipeline.ROOT / "BENCHMARK.json").read_text())
    tiny_runs(spec)
    altered_trace()
    crashed_repetition()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
