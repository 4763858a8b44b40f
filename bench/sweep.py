"""Scaling sweep: how the event loop's cost grows with the workload.

    python3 bench/sweep.py

Transport at 1k, 5k and 10k packets, with deadline and horizon at 60 s per
1000 packets as in transport_lossy.cfg, and field at 81, 324 and 1296
sources, with dr_d scaled as in field_baseline.cfg and a 10 s horizon. Each
point gives loop_s (median of untraced repetitions, at reference speed),
kernel.events (one traced repetition) and kernel.us_per_event. It is a
separate mode, not part of the per-check runs of run_bench.py.
"""

from __future__ import annotations

import json
import statistics
import sys

import pipeline
import run_bench
import tracer

REPETITIONS = 3  # untraced repetitions per point; one traced one gives the event count

POINTS = [("transport_bulk", "packets", n,
           {"transport.goal_packets": n, "transport.delta_e2a": 60.0 * n / 1000,
            "sim.horizon": 60.0 * n / 1000}) for n in (1000, 5000, 10000)]
POINTS += [("field_wide", "sources", n,
            {"topology.n_sources": n, "controller.dr_d": 400 * n // 81, "sim.horizon": 10.0})
           for n in (81, 324, 1296)]


def main() -> int:
    points = []
    for workload, size_name, size, extra in POINTS:
        untraced = [run_bench.worker(workload, pipeline.DEFAULT_SEED, extra=extra)
                    for _ in range(REPETITIONS)]
        traced = run_bench.worker(workload, pipeline.DEFAULT_SEED, traced=True, extra=extra)
        reps = untraced + [traced]
        _, failed = run_bench.tally(reps)
        if len(run_bench.finished(reps)) < len(reps):  # one crashed: no figures
            print(f"{workload:15s} {size:6d} {size_name:8s} "
                  f"failed: {[failure for rep in reps for failure in rep['failures']]}")
            points.append({"workload": workload, size_name: size, "failed": failed})
            continue
        layers = tracer.per_layer([traced], untraced)
        point = {"workload": workload, size_name: size, "failed": failed,
                 "loop_s": statistics.median(rep["loop_s"] for rep in untraced),
                 "kernel.events": layers["kernel.events"],
                 "kernel.us_per_event": layers["kernel.us_per_event"]}
        points.append(point)
        print(f"{workload:15s} {size:6d} {size_name:8s} loop_s {point['loop_s']:8.3f}  "
              f"events {point['kernel.events']:7d}  "
              f"us/event {point['kernel.us_per_event']:6.2f}  failed {failed}", flush=True)
    print(json.dumps({"points": points}))
    return 1 if any(point["failed"] for point in points) else 0


if __name__ == "__main__":
    sys.exit(main())
