"""Print a benchmark workload's memory after each phase of its run.

    python3 tools/rss_phases.py WORKLOAD [--seed N]

Runs the phases of one `bench/pipeline.py` repetition in this interpreter, in
its order and through its own functions and Stopwatch: setup, the event loop
in LOOP_PIECES slices, finalize, audit, report, each serialize (the first one's
text is kept, as the pipeline keeps it) and the replay of that text. After
each phase it prints the resident set from `/proc/self/statm` and the peak so
far from `ru_maxrss`, in MB, so a change can show which phase its megabytes
came from or went from. The pipeline reads its `peak_rss_mb` right after the
replay: the last line's peak. Run it as a script, so that the interpreter is
fresh and the peak is the run's own. Linux only (`/proc`). `bench/pipeline.py`
is imported, never changed.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def memory_mb() -> tuple[float, float]:
    """(resident now, peak resident so far) of this process, in MB."""
    with open("/proc/self/statm", encoding="ascii") as fp:
        resident = int(fp.read().split()[1]) * PAGE_MB
    return resident, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    import pipeline  # noqa: E402  (the bench's own module, read-only)
    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(pipeline.WORKLOADS)}")
    runner, seed = pipeline.runner, args.seed
    watch = pipeline.Stopwatch()
    print(f"{args.workload}, seed {seed}")
    print(f"{'phase':<12} {'seconds':>8} {'rss_mb':>8} {'peak_mb':>8}")

    def phase(name: str, fn, *fn_args):
        value = watch.time(name, fn, *fn_args)
        resident, peak = memory_mb()
        print(f"{name:<12} {watch.pieces[-1][1]:8.3f} {resident:8.1f} {peak:8.1f}")
        return value

    print(f"{'start':<12} {'':>8} {memory_mb()[0]:8.1f} {memory_mb()[1]:8.1f}")
    cfg, harness = phase("setup", pipeline.setup, args.workload, seed, {})
    horizon = cfg.sim.horizon
    for piece in range(1, pipeline.LOOP_PIECES + 1):
        watch.time("loop", harness.sim.run_until, horizon * piece / pipeline.LOOP_PIECES)
    resident, peak = memory_mb()
    loop_s = sum(seconds for name, seconds, _ in watch.pieces if name == "loop")
    print(f"{'loop':<12} {loop_s:8.3f} {resident:8.1f} {peak:8.1f}")
    phase("finalize", harness.finalize)
    trace = harness.sim.trace
    phase("audit", pipeline.metrics.audit_trace, trace)
    phase("report", runner.report_from_trace, trace, cfg, seed)
    preamble = runner.trace_preamble(cfg, seed)
    text = phase("serialize 1", trace.serialize, preamble)
    for extra in range(pipeline.EXTRA_REPEATS):
        phase(f"serialize {extra + 2}", trace.serialize, preamble)
    phase("replay", runner.replay_text, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
