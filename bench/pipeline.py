"""One benchmark repetition: build a workload in memory and run it the way
`rrrt run` does (minus file writes), then replay the serialized trace the way
`rrrt replay` does, timing each phase from outside and checking the output.

Run as a script it is the worker that `run_bench.py` starts in a fresh
interpreter for every repetition, so that peak memory is the repetition's
own. It prints one JSON object on its last line:

    python3 bench/pipeline.py --workload field_congested --seed 1 [--traced]

With `--traced` the public functions of every `rrrt` module are wrapped
(see tracer.py) before anything is built; without it tracer.py is never
imported.
"""

from __future__ import annotations

import argparse
import ast
import gc
import hashlib
import heapq
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"

DEFAULT_SEED = 1

# Each workload is a shipped scenario plus overrides applied with
# `set_param`, as `rrrt sweep` applies them. BENCHMARK.json says why each
# was chosen.
WORKLOADS = {
    "field_congested": {"scenario": "field_congested.cfg", "overrides": {}},
    "field_wide": {
        "scenario": "field_baseline.cfg",
        "overrides": {"topology.n_sources": 1296, "controller.dr_d": 6400,
                      "sim.horizon": 10.0},
    },
    "transport_bulk": {
        "scenario": "transport_lossy.cfg",
        "overrides": {"transport.goal_packets": 10000, "transport.delta_e2a": 600.0,
                      "sim.horizon": 600.0},
    },
}

# sha256 of the serialized trace (preamble included) of each workload at
# DEFAULT_SEED with no extra overrides. A change that only speeds the
# simulator up keeps these.
GOLDEN_SHA256 = {
    "field_congested": "1faf114ffecde893c4fac1cd3c023bcb93a0a1bc4ca89bbd2b0fa379d250c6a5",
    "field_wide": "f897be6350b37007c171cbdf23eb039ad076356065fe4dac2294c46ce6753d55",
    "transport_bulk": "a13d70b060fd356bdb6c229f02fe636a2fa29cd992205ea969b27279119d484c",
}

# Extra set-ups after the timed repetition; setup_s is the median of all.
# Each starts after a full collection, so that none pays for collecting the
# garbage its predecessors and the run left behind.
EXTRA_SETUPS = 20
# Serialize and replay are one call each, of a few tenths of a second: too
# few samples for a steady figure. Each is timed this many more times and its
# figure is the median. Only the first serialize, like only the first set-up,
# counts in wall_s, and peak_rss_mb is read before the extra replays.
EXTRA_REPEATS = 2

# On a shared host, other tenants change how fast this process runs by up to
# a third, within seconds, and every phase moves with it. So a short fixed
# pure-Python task, with the heap, dict and string work the simulator does,
# is timed after every timed piece, and each piece is scaled to the speed at
# which that task takes REFERENCE_S, using the samples around it. The event
# loop is timed in LOOP_PIECES slices of the horizon for the same reason;
# the golden trace hashes show that slicing changes nothing.
REFERENCE_S = 0.008
LOOP_PIECES = 20


def reference_task() -> float:
    heap: list = []
    counts: dict = {}
    rows = []
    total = 0.0
    for i in range(5000):
        heapq.heappush(heap, ((i * 7919) % 1000 / 7.0, i, "x"))
        counts[i & 1023] = counts.get((i * 31) & 1023, 0) + 1
        if len(heap) > 64:
            t, ordinal, tag = heapq.heappop(heap)
            total += t
            rows.append(f"{t!r},{ordinal},{tag}")
    return total


def calibration_sample() -> float:
    """Time of one reference_task. It creates no cycles, so it runs with the
    collector off: a collection it set off would walk the program's heap."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_task()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Stopwatch:
    """Times pieces of work; a calibration sample follows every piece.

    A piece's speed is the median of the WINDOW samples on each side of it,
    which smooths the sampling noise of one short calibration.
    """

    WINDOW = 3

    def __init__(self):
        self.samples = [calibration_sample()]
        self.pieces: list[tuple[str, float, int]] = []  # phase, seconds, next sample

    def time(self, phase: str, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self.pieces.append((phase, time.perf_counter() - t0, len(self.samples)))
        self.samples.append(calibration_sample())
        return result

    def times(self, phase: str) -> list[tuple[float, float]]:
        """(measured, reference-speed) seconds of each piece of `phase`."""
        result = []
        for name, elapsed, after in self.pieces:
            if name == phase:
                window = self.samples[max(0, after - self.WINDOW):after + self.WINDOW]
                result.append((elapsed, elapsed * REFERENCE_S / statistics.median(window)))
        return result


def import_rrrt():
    """Import the package from the checkout's `src`; exit non-zero when it is absent."""
    if not (SRC / "rrrt" / "__init__.py").is_file():
        sys.exit(f"error: no rrrt package under {SRC}")
    sys.path.insert(0, str(SRC))
    from rrrt import errors, metrics, runner, scenario
    return errors, metrics, runner, scenario


errors, metrics, runner, scenario = import_rrrt()


def setup(workload: str, seed: int, extra: dict):
    """parse_scenario, overrides, then build_field or build_transport."""
    spec = WORKLOADS[workload]
    cfg = scenario.parse_scenario(str(SCENARIOS / spec["scenario"]))
    for key, value in {**spec["overrides"], **extra}.items():
        scenario.set_param(cfg, key, value)
    cfg.sim.seed = seed
    invalid = scenario.validate_scenario(cfg)
    if invalid:
        raise errors.ScenarioInvalid(invalid)
    build = runner.build_field if cfg.scenario.mode == "field" else runner.build_transport
    return cfg, build(cfg, seed)


def check(text: str, live: dict, replayed: dict, goal: int | None,
          expected_sha: str | None) -> tuple[str, list[str]]:
    """Hash of the serialized trace and every check it fails."""
    failures = []
    if replayed != live:
        failures.append("replay report differs from the live report")
    if goal is not None and live["aggregate_throughput"] != goal:
        failures.append(f"delivered {live['aggregate_throughput']} of {goal} packets")
    sha = hashlib.sha256(text.encode()).hexdigest()
    if expected_sha is not None and sha != expected_sha:
        failures.append(f"trace sha256 {sha[:12]} is not the golden {expected_sha[:12]}")
    return sha, failures


def simulate(workload: str, seed: int, extra: dict, watch: Stopwatch,
             extra_serializes: int = 0, probe=None):
    """What `rrrt run` does, minus file writes, timed phase by phase, with
    `extra_serializes` more timed serializes.

    Returns (failures, serialized trace, live report as a dict, goal packets
    or None, counts); `probe(cfg, harness)` adds counts read off the run.
    """
    failures = []
    cfg, harness = watch.time("setup_s", setup, workload, seed, extra)
    horizon = cfg.sim.horizon
    for piece in range(1, LOOP_PIECES):
        watch.time("loop_s", harness.sim.run_until, horizon * piece / LOOP_PIECES)
    watch.time("loop_s", harness.sim.run_until, horizon)
    watch.time("loop_s", harness.finalize)
    try:
        watch.time("audit_s", metrics.audit_trace, harness.sim.trace)
    except errors.InvariantViolation as exc:
        failures.append(f"audit: {exc}")
    budget = getattr(harness, "sink_app", None)
    live = watch.time("report_s", runner.report_from_trace, harness.sim.trace, cfg, seed,
                      budget).to_dict()

    def serialize():
        return harness.sim.trace.serialize(runner.trace_preamble(cfg, seed))

    text = watch.time("serialize_s", serialize)
    for _ in range(extra_serializes):
        watch.time("serialize_s", serialize)
    counts = {"trace_rows": len(harness.sim.trace), "trace_mb": len(text) / 1e6}
    if probe is not None:
        counts.update(probe(cfg, harness))
    goal = cfg.transport.goal_packets if cfg.scenario.mode == "transport" else None
    return failures, text, live, goal, counts


WALL = ("setup_s", "loop_s", "audit_s", "report_s", "serialize_s")
REPEATED = ("setup_s", "serialize_s", "replay_s")


def repetition(workload: str, seed: int, extra: dict | None = None, repeat: bool = True,
               probe=None) -> dict:
    """One run, its replay and its checks. With `repeat`, the phases in
    REPEATED are timed again and their figures are medians; the traced run
    does not repeat them, so that its spans count each phase once.

    Times are at reference speed; `measured` holds them as measured, and
    `speed` is the ratio of the two for wall_s.
    """
    extra = extra or {}
    more = EXTRA_REPEATS if repeat else 0
    watch = Stopwatch()
    failures, text, live, goal, counts = simulate(workload, seed, extra, watch, more, probe)
    replayed = watch.time("replay_s", runner.replay_text, text).to_dict()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(more):
        watch.time("replay_s", runner.replay_text, text)

    golden = GOLDEN_SHA256[workload] if seed == DEFAULT_SEED and not extra else None
    sha, failed = check(text, live, replayed, goal, golden)
    del text, live, replayed

    for _ in range(EXTRA_SETUPS if repeat else 0):
        gc.collect()
        watch.time("setup_s", setup, workload, seed, extra)
    figures, measured = {}, {}
    for name in WALL + ("replay_s",):
        pieces = watch.times(name)[:1] if name in REPEATED else watch.times(name)
        measured[name] = sum(piece[0] for piece in pieces)
        figures[name] = sum(piece[1] for piece in pieces)
    measured["wall_s"] = sum(measured[name] for name in WALL)
    figures["wall_s"] = sum(figures[name] for name in WALL)
    for name in REPEATED:
        figures[name] = statistics.median(piece[1] for piece in watch.times(name))
    figures.update(peak_rss_mb=peak_rss_mb, sha256=sha, failures=failures + failed,
                   measured=measured, speed=figures["wall_s"] / measured["wall_s"], **counts)
    return figures


def parse_override(text: str) -> tuple[str, object]:
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    return key.strip(), ast.literal_eval(value.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--set", dest="extra", action="append", default=[],
                        type=parse_override, metavar="KEY=VALUE",
                        help="extra scenario override, e.g. transport.goal_packets=1000")
    parser.add_argument("--traced", action="store_true",
                        help="wrap every layer's public functions and report spans")
    args = parser.parse_args(argv)
    # One CPU for the whole repetition, so that the calibration samples time
    # the CPU that the pieces around them ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    extra = dict(args.extra)
    if args.traced:
        import tracer
        spans = tracer.Tracer()
        spans.install()
        result = repetition(args.workload, args.seed, extra, repeat=False,
                            probe=tracer.probe)
        result.update(spans.report())
        for span in result["spans"].values():
            span[1] *= result["speed"]
            span[2] *= result["speed"]
    else:
        result = repetition(args.workload, args.seed, extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
