"""Time two checkouts' event loops, or their replays, against each other in one process.

    python3 tools/loop_ab.py PARENT_DIR CHANGE_DIR --workload field_congested [--pairs 10]
        [--phase {loop,replay}]

Each checkout's `src/rrrt` is copied under its own package name (`rrrt_a`,
`rrrt_b`) into a temporary directory, so both load side by side. Each pair
builds and runs the workload once on each side, in alternating order, and
times one phase as `bench/pipeline.py` does, scaled to reference speed by a
`Stopwatch`. With `--phase loop` (the default) that is the event loop:
LOOP_PIECES slices of the horizon plus `finalize`. With `--phase replay` it
is `runner.replay_text` of the side's own serialized trace, and the two
sides' replayed reports must be equal. The serialized traces of the two
sides must have the same sha256. The report gives each side's median and
quartiles and the number of pairs that the second checkout won.

Two runs in one process share its speed, but that does not make small
differences visible: on a shared 2-CPU VM an A/A run (a checkout against a
copy of itself) gave a median of +0.7%, and 20-pair medians of one real
change ranged from +5.9% to -5.8% within an hour. So it cannot resolve a
loop change under about 3%; use it to screen larger ones and to check that
both sides write the same trace. A claim still comes from `run_bench.py`.
`bench/pipeline.py` is imported, never changed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_side(checkout: Path, name: str, into: Path):
    """The rrrt package of `checkout`, imported as `name` from a copy in `into`."""
    source = checkout / "src" / "rrrt"
    if not (source / "__init__.py").is_file():
        sys.exit(f"error: no rrrt package under {checkout / 'src'}")
    shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return {module: importlib.import_module(f"{name}.{module}")
            for module in ("runner", "scenario")}


def time_phase(pipeline, side: dict, scenarios: Path, workload: str, seed: int, phase: str):
    """(reference-speed seconds of `phase`, sha256 of the serialized trace,
    replayed report as a dict or None) of one run."""
    runner, scenario = side["runner"], side["scenario"]
    spec = pipeline.WORKLOADS[workload]
    cfg = scenario.parse_scenario(str(scenarios / spec["scenario"]))
    for key, value in spec["overrides"].items():
        scenario.set_param(cfg, key, value)
    cfg.sim.seed = seed
    harness = (runner.build_field if cfg.scenario.mode == "field"
               else runner.build_transport)(cfg, seed)
    gc.collect()
    watch = pipeline.Stopwatch()
    horizon = cfg.sim.horizon
    for piece in range(1, pipeline.LOOP_PIECES):
        watch.time("loop_s", harness.sim.run_until, horizon * piece / pipeline.LOOP_PIECES)
    watch.time("loop_s", harness.sim.run_until, horizon)
    watch.time("loop_s", harness.finalize)
    text = harness.sim.trace.serialize(runner.trace_preamble(cfg, seed))
    report = None
    if phase == "replay":
        del harness  # as in bench/pipeline.py, where the run is gone by replay
        report = watch.time("replay_s", runner.replay_text, text).to_dict()
    seconds = sum(reference for _, reference in watch.times(f"{phase}_s"))
    return seconds, hashlib.sha256(text.encode()).hexdigest(), report


def summary(label: str, values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{label}: median {median:.4f} s, quartiles {q1:.4f}-{q3:.4f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout timed as side A")
    parser.add_argument("change", type=Path, help="checkout timed as side B")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--phase", choices=("loop", "replay"), default="loop")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    sys.path.insert(0, str(BENCH))
    import pipeline  # noqa: E402  (the bench's own module, read-only)
    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(pipeline.WORKLOADS)}")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {label: (load_side(checkout.resolve(), f"rrrt_{label.lower()}", Path(tmp)),
                         checkout.resolve() / "scenarios")
                 for label, checkout in (("A", args.parent), ("B", args.change))}
        times = {"A": [], "B": []}
        won = 0
        for pair in range(args.pairs):
            hashes, reports = {}, {}
            for label in ("AB" if pair % 2 == 0 else "BA"):
                side, scenarios = sides[label]
                seconds, hashes[label], reports[label] = time_phase(
                    pipeline, side, scenarios, args.workload, args.seed, args.phase)
                times[label].append(seconds)
            if hashes["A"] != hashes["B"]:
                print(f"pair {pair + 1}: traces differ, sha256 {hashes['A'][:12]} (A) "
                      f"against {hashes['B'][:12]} (B)")
                return 1
            if reports["A"] != reports["B"]:
                print(f"pair {pair + 1}: replayed reports differ")
                return 1
            won += times["B"][-1] < times["A"][-1]
            print(f"pair {pair + 1}: A {times['A'][-1]:.4f} s, B {times['B'][-1]:.4f} s")
    equal = "traces and replayed reports" if args.phase == "replay" else "traces"
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, {equal} equal")
    print(summary(f"A {args.parent}", times["A"]))
    print(summary(f"B {args.change}", times["B"]))
    gain = 1.0 - statistics.median(times["B"]) / statistics.median(times["A"])
    print(f"B faster in {won}/{args.pairs} pairs; median {args.phase} {gain:+.1%} faster")
    return 0


if __name__ == "__main__":
    sys.exit(main())
