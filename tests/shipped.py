"""The shipped scenarios, and their seed-1 run shared by the tests that check it.

`test_golden.py`, `test_trace_text.py` and `test_metrics.py` all check each
shipped scenario's seed-1 trace; `shipped_run` runs a scenario once per test
session and keeps only digests, reports and audit outcomes, not the trace or
its text. The one exception is field_congested's run, which `congested_run`
keeps for the whole test run (its trace is about 30 MB): the memory tests of
`test_trace_text.py` write, replay and audit that trace whole.
"""

from __future__ import annotations

import functools
import hashlib
import os
from typing import Any, NamedTuple

from oracles import audit_trace_oracle, serialize_oracle
from rrrt.errors import InvariantViolation
from rrrt.kernel import SimulationTrace
from rrrt.metrics import audit_trace, reduce_trace
from rrrt.runner import replay_text, run_traced
from rrrt.scenario import parse_scenario
from util import run_outputs_sha256

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
SHIPPED = ("field_baseline", "field_burst", "field_congested", "transport_comparison",
           "transport_lossy")


def scenario_path(name):
    return os.path.join(SCENARIO_DIR, f"{name}.cfg")


def shipped(name):
    return parse_scenario(scenario_path(name))


class ShippedRun(NamedTuple):
    text_sha256: str  # of `trace.serialize(preamble)`
    oracle_sha256: str  # of `serialize_oracle(trace, preamble)`
    written_sha256: str  # of the trace.csv `rrrt run --out` writes
    outputs: dict  # `util.run_outputs_sha256`: of each file `rrrt run --out` writes, and stdout
    live: Any  # the report of the run itself
    streamed: Any  # `replay_text(text)`
    listed: Any  # `reduce_trace(*SimulationTrace.parse(text))`
    audits: tuple  # `audit_outcomes(trace)`
    written: frozenset  # the (kind, reason) of every row


def audit_outcomes(trace) -> tuple:
    """What `metrics.audit_trace` and `oracles.audit_trace_oracle` make of
    `trace`: each one's counts, or the message of the InvariantViolation it
    raised."""
    outcomes = []
    for audit in (audit_trace, audit_trace_oracle):
        try:
            outcomes.append(audit(trace))
        except InvariantViolation as exc:
            outcomes.append(str(exc))
    return tuple(outcomes)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_sha256(name: str, horizon: float) -> str:
    """sha256 of the serialized seed-1 trace of `name`, run to `horizon`."""
    cfg = shipped(name)
    cfg.sim.horizon = horizon
    _, trace, preamble = run_traced(cfg, 1)
    return sha256(trace.serialize(preamble))


@functools.cache
def congested_run() -> tuple:
    """The report, trace and preamble of field_congested at seed 1, whose text
    is about 15.5 MB."""
    return run_traced(shipped("field_congested"), 1)


@functools.cache
def shipped_run(name: str) -> ShippedRun:
    report, trace, preamble = (congested_run() if name == "field_congested"
                               else run_traced(shipped(name), 1))
    text = trace.serialize(preamble)
    oracle_sha256 = sha256(serialize_oracle(trace, preamble))
    outputs = run_outputs_sha256(scenario_path(name), report, trace, preamble)
    audits = audit_outcomes(trace)
    written = frozenset((row[2], row[5]) for row in trace)
    del trace
    return ShippedRun(sha256(text), oracle_sha256, outputs["trace.csv"], outputs, report,
                      replay_text(text),
                      reduce_trace(*SimulationTrace.parse(text)), audits, written)
