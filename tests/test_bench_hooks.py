"""The benchmark's hooks: its tracer finds every function it wraps, and its
workloads write the traces it pins.

`bench/tracer.py` patches named functions of each `rrrt` layer; a name that
no longer exists is reported as missing and the traced run loses that span.
Patching each name with the identity puts back the same function, so this
checks every hook without changing anything.

`bench/pipeline.py` checks each workload's trace against its
`GOLDEN_SHA256` at seed 1 on every repetition. These tests build the
workloads as it does, through its own `setup`, so a change that moves one of
those traces fails here too, not only in a benchmark run.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))

import pipeline  # noqa: E402
import tracer  # noqa: E402
from rrrt.runner import trace_preamble  # noqa: E402
from shipped import sha256  # noqa: E402
from test_golden import GOLDEN_SHA256  # noqa: E402


def test_every_traced_name_resolves():
    spans = tracer.Tracer()
    for name in tracer.TARGETS + [tracer.REGISTER]:
        spans._patch(name, lambda fn: fn)
    assert spans.missing == []


@pytest.mark.parametrize("workload", ["field_wide", "transport_bulk"])
def test_a_benchmark_workload_writes_its_pinned_trace(workload):
    cfg, harness = pipeline.setup(workload, 1, {})
    harness.sim.run_until(cfg.sim.horizon)
    harness.finalize()
    text = harness.sim.trace.serialize(trace_preamble(cfg, 1))
    assert sha256(text) == pipeline.GOLDEN_SHA256[workload]


def test_the_benchmark_pins_the_golden_field_congested_trace():
    """field_congested is the shipped scenario as it is, whose trace
    test_golden.py already runs and checks."""
    assert pipeline.GOLDEN_SHA256["field_congested"] == GOLDEN_SHA256["field_congested"]
