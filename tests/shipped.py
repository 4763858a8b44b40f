"""The shipped scenarios, and their seed-1 run shared by the tests that check it.

`test_golden.py` and `test_trace_text.py` both check each shipped scenario's
seed-1 trace; `shipped_run` runs a scenario once per test session and keeps
only digests and reports, not the trace or its text.
"""

from __future__ import annotations

import functools
import hashlib
import os
from typing import Any, NamedTuple

from oracles import serialize_oracle
from rrrt.kernel import SimulationTrace
from rrrt.metrics import reduce_trace
from rrrt.runner import replay_text, run_traced
from rrrt.scenario import parse_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SHIPPED = ("field_baseline", "field_burst", "field_congested", "transport_comparison",
           "transport_lossy")


def shipped(name):
    return parse_scenario(os.path.join(SCENARIO_DIR, f"{name}.cfg"))


class ShippedRun(NamedTuple):
    text_sha256: str  # of `trace.serialize(preamble)`
    oracle_sha256: str  # of `serialize_oracle(trace.records, preamble)`
    live: Any  # the report of the run itself
    streamed: Any  # `replay_text(text)`
    listed: Any  # `reduce_trace(*SimulationTrace.parse(text))`


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def shipped_run(name: str) -> ShippedRun:
    report, trace, preamble = run_traced(shipped(name), 1)
    text = trace.serialize(preamble)
    oracle_sha256 = sha256(serialize_oracle(trace.records, preamble))
    del trace
    return ShippedRun(sha256(text), oracle_sha256, report, replay_text(text),
                      reduce_trace(*SimulationTrace.parse(text)))
