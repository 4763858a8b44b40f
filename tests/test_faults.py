"""Fault-path traces: a node or link fault injected into a shipped scenario.

No shipped scenario has a fault, so the golden hashes do not cover the fault
checks of the data, control and broadcast planes. Each case here builds a
shipped scenario at seed 1, injects one fault, runs to the horizon and pins
the sha256 of the serialized trace; the trace must also pass the audit and
replay to the live report.

Until the first `inject_fault` a run takes the no-fault fast path, which looks
up no fault at all; the tests at the end check that it writes the same trace
as the fault-checking path and that the flag is read on every hop.
"""

import pytest

from rrrt.metrics import audit_trace, reduce_trace
from rrrt.runner import build_field, build_transport, replay_text, run_experiment, trace_preamble
from rrrt.topology import Topology
from shipped import SHIPPED, sha256, shipped
from test_golden import GOLDEN_SHA256

# (scenario, fault target, time, mode) -> sha256 of the trace at seed 1
FAULT_SHA256 = {
    ("transport_lossy", "r1", 3.0, "crash"):
        "3ed40f449a18294a897a970cde2b2f82296f5db7da9e99db8b28559b05f74b44",
    ("transport_lossy", "r1", 3.0, "drop-all"):
        "f1a2abde0f8f3eac444c20cb1e2e2dee7b39bbe7fdac9e9b64260142f5f0263d",
    ("transport_lossy", ("r1", "r2"), 2.0, "crash"):
        "f9306cde201fb5f71fdf25f70f0062b6033d398b551cbf24c9b09ad3f3687ed1",
    ("transport_lossy", ("dst_ss", "r2"), 4.0, "drop-all"):
        "b5e0c5b2aae5225e812c14db3b6ad8b32ac84693ebb9abb62f8ebff28e52965b",
    ("field_congested", "relay", 2.0, "drop-all"):
        "eb17f6b7bdc26690137551878d48b93aca046ed8b409a6eeb39f9c3f5a7f460f",
    ("field_congested", ("relay", "s003"), 1.0, "crash"):
        "52c10cffead0ce9522ed97bb5e21c613b59de3e00d617724ec4dce4924d2abe5",
}


def build(cfg):
    return (build_field if cfg.scenario.mode == "field" else build_transport)(cfg, 1)


def finish(cfg, harness):
    harness.sim.run_until(cfg.sim.horizon)
    harness.finalize()
    return harness.sim.trace


def run_with_fault(name, target, at, mode):
    cfg = shipped(name)
    if cfg.scenario.mode == "field":
        cfg.sim.horizon = 10.0
    harness = build(cfg)
    harness.runtime.topo.inject_fault(target, at, mode)
    return cfg, finish(cfg, harness)


@pytest.mark.parametrize("case", sorted(FAULT_SHA256, key=repr), ids=repr)
def test_fault_run_trace_hash_audit_and_replay(case):
    cfg, trace = run_with_fault(*case)
    audit_trace(trace)
    preamble = trace_preamble(cfg, 1)
    text = trace.serialize(preamble)
    assert replay_text(text) == reduce_trace(trace, preamble)
    assert sha256(text) == FAULT_SHA256[case]


def broadcast_rows(trace, node, kind):
    """Times of `node`'s broadcast rows of `kind`: the rows a broadcast pid
    logs carry no copy number."""
    return [r[0] for r in trace if r[1] == node and r[2] == kind and r[4] == -1]


def test_a_crashed_sink_closes_no_interval_and_sends_no_broadcast():
    """A crashed node's app timers stop: the sink neither reports an interval
    nor tries to broadcast."""
    _, trace = run_with_fault("field_congested", "sink", 1.0, "crash")
    assert [r for r in trace if r[2] == "interval"] == []
    assert broadcast_rows(trace, "sink", "send") == []
    assert broadcast_rows(trace, "sink", "drop") == []


def test_a_drop_all_sink_drops_its_broadcasts():
    """A drop-all node keeps running its apps, so its broadcasts meet its fault."""
    _, trace = run_with_fault("field_congested", "sink", 1.0, "drop-all")
    assert broadcast_rows(trace, "sink", "send") == []
    assert broadcast_rows(trace, "sink", "drop") == [float(t) for t in range(1, 11)]
    assert broadcast_rows(trace, "relay", "receive") == []


def test_a_child_behind_a_crashed_link_gets_no_broadcast():
    _, trace = run_with_fault("field_congested", ("relay", "s003"), 1.0, "crash")
    assert len(broadcast_rows(trace, "sink", "send")) == 10
    assert broadcast_rows(trace, "s003", "receive") == []
    assert len(broadcast_rows(trace, "s004", "receive")) >= 9


@pytest.mark.parametrize("name", SHIPPED)
def test_the_fault_checking_path_writes_the_golden_trace(name):
    """A fault due after the horizon sets the fault flag but never fires, so
    every hop takes the fault-checking path and must write the trace of the
    no-fault fast path."""
    cfg = shipped(name)
    harness = build(cfg)
    topo = harness.runtime.topo
    topo.inject_fault(next(iter(topo.nodes)), cfg.sim.horizon + 1.0, "crash")
    assert sha256(finish(cfg, harness).serialize(trace_preamble(cfg, 1))) == GOLDEN_SHA256[name]


def test_a_fault_injected_mid_run_takes_effect():
    """The fault flag is read on every hop, not cached when the run starts."""
    cfg = shipped("transport_lossy")
    harness = build(cfg)
    harness.sim.run_until(2.5)
    harness.runtime.topo.inject_fault("r1", 3.0, "crash")
    text = finish(cfg, harness).serialize(trace_preamble(cfg, 1))
    assert sha256(text) == FAULT_SHA256[("transport_lossy", "r1", 3.0, "crash")]


@pytest.mark.parametrize("name, horizon", [("field_congested", 10.0), ("transport_lossy", 60.0)])
def test_a_run_without_faults_never_looks_one_up(name, horizon, monkeypatch):
    cfg = shipped(name)
    cfg.sim.horizon = horizon
    expected = run_experiment(cfg, 1)

    def lookup(*args, **kwargs):
        raise AssertionError("fault lookup in a run without faults")

    for attr in ("next_hop", "fault_mode", "link_fault_mode"):
        monkeypatch.setattr(Topology, attr, lookup)
    assert run_experiment(cfg, 1) == expected  # run_experiment audits the trace
