"""Print the peak memory of the rrrt commands on a shipped scenario, each in a fresh interpreter.

    python3 tools/cli_rss.py [SCENARIO] [--seed N] [--longer K]

SCENARIO is the name of a file under `scenarios/` (default field_congested).
Each command runs as its own Python process, with this checkout's `src` first
on its path, as the `rrrt` entry point would run it: `import rrrt.cli` alone,
`rrrt run`, `rrrt run --out DIR` and `rrrt replay --trace DIR/trace.csv`.
Then the scenario with its horizon K times as long (default 4) is run with
`--out`, and its trace is replayed. Each command runs RUNS times, and for
each it prints the median and the least and greatest of the peak resident
sets that the kernel reports when a process is reaped (`ru_maxrss` from
`os.wait4`), in MB, and the size of each `trace.csv` written. Every command
must exit 0. The outputs go to a temporary directory that is removed.
Unix only (`os.wait4`).

A peak moves with where the checkout lies: one tree at two directory names
gave `rrrt replay` of field_congested's x4 trace 23.60 and 23.28 MB (medians
of 4-6 runs each), with an equal `tracemalloc` peak. So compare two checkouts
only from paths of the same length, and read a difference of 0.3 MB or less
between them as no change.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY = "import sys; from rrrt.cli import main; sys.exit(main(sys.argv[1:]))"
RUNS = 3  # processes a command: a peak spreads by a few tenths of a MB from run to run


def peak_mb(code: str, *argv: str) -> float:
    """`ru_maxrss` of a fresh interpreter that runs `code` with `argv`, in MB;
    SystemExit if it does not exit 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(argv) or code} exited {proc.returncode}")
    return usage.ru_maxrss / 1024  # KiB on Linux


def peaks(code: str, *argv: str) -> str:
    """The median, least and greatest `peak_mb(code, *argv)` of RUNS processes."""
    runs = [peak_mb(code, *argv) for _ in range(RUNS)]
    return f"{statistics.median(runs):8.1f} {min(runs):6.1f}-{max(runs):.1f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scenario", nargs="?", default="field_congested")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--longer", type=int, default=4,
                        help="horizon multiple of the second run (default 4)")
    args = parser.parse_args(argv)
    scenario = ROOT / "scenarios" / f"{args.scenario}.cfg"
    if not scenario.is_file():
        parser.error(f"no scenario {scenario}")
    sys.path.insert(0, str(SRC))
    from rrrt.scenario import parse_scenario, serialize_scenario, set_param

    print(f"{args.scenario}, seed {args.seed}")
    print(f"{'command':<36} {'trace_mb':>9} {'peak_mb':>8} {'min-max':>10}")
    print(f"{'import rrrt.cli':<36} {'':>9} {peaks('import rrrt.cli')}")
    seed = ["--seed", str(args.seed)]
    with tempfile.TemporaryDirectory() as tmp:
        longer = parse_scenario(str(scenario))
        set_param(longer, "sim.horizon", longer.sim.horizon * args.longer)
        longer_cfg = Path(tmp, "longer.cfg")
        longer_cfg.write_text(serialize_scenario(longer), encoding="utf-8")
        print(f"{'rrrt run':<36} {'':>9} {peaks(ENTRY, 'run', '--scenario', str(scenario), *seed)}")
        for label, cfg in (("", scenario), (f" (horizon x{args.longer})", longer_cfg)):
            out = Path(tmp, cfg.stem)
            run = peaks(ENTRY, "run", "--scenario", str(cfg), *seed, "--out", str(out))
            trace = out / "trace.csv"
            size = trace.stat().st_size / 1e6
            replay = peaks(ENTRY, "replay", "--trace", str(trace))
            print(f"{'rrrt run --out' + label:<36} {size:9.1f} {run}")
            print(f"{'rrrt replay' + label:<36} {size:9.1f} {replay}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
