"""Fault-path traces: a node or link fault injected into a shipped scenario.

No shipped scenario has a fault, so the golden hashes do not cover the fault
checks of the data, control and broadcast planes. Each case here builds a
shipped scenario at seed 1, injects one fault, runs to the horizon and pins
the sha256 of the serialized trace; the trace must also pass the audit and
replay to the live report.

Until the first `inject_fault` a run takes the no-fault fast path, which looks
up no fault at all and gives a copy that is not lost no `dep` event. The tests
at the end check that it writes the same trace as the fault-checking `dep`
path (`util.force_dep_path`), with a fault injected mid-run, with copies still
queued at the horizon, with an event tied with an arrival, and over a space
of small scenarios, and that the flag is read on every hop.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from rrrt.metrics import audit_trace, reduce_trace
from rrrt.runner import build_field, build_transport, replay_text, run_experiment, trace_preamble
from rrrt.scenario import set_param, validate_scenario
from rrrt.topology import Topology
from shipped import SHIPPED, sha256, shipped
from test_golden import GOLDEN_SHA256
from util import FIXED_CA, chain_network, data_packet, force_dep_path

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
    # A crashed node never receives a copy that arrives after its crash: these
    # reach it with broadcast copies (8), data copies (14), and a feedback
    # copy sent at 2.0 that is in flight to r2 at 2.001 (with 2 data copies).
    ("field_congested", "relay", 2.0, "crash"):
        "4aab7e20d20a1ed5776fdb71417cb9b9877705ab99348e54514bd15bf32c94fa",
    ("field_congested", "sink", 1.0, "crash"):
        "09e57a80bbd044a432cc49eed47f0c8a80a512dbc647aae7b8bfd71ceda0c21b",
    ("transport_lossy", "r2", 2.001, "crash"):
        "85d047b5522226940229b743cdbcf618c01b01866d9504cfc3adcb65b84d4e2f",
}


def build(cfg, seed=1):
    return (build_field if cfg.scenario.mode == "field" else build_transport)(cfg, seed)


def finish(cfg, harness):
    harness.sim.run_until(cfg.sim.horizon)
    harness.finalize()
    return harness.sim.trace


def run_with_fault(name, target, at, mode):
    cfg = shipped(name)
    if cfg.scenario.mode == "field":
        cfg.sim.horizon = 10.0
    harness = build(cfg)
    harness.runtime.inject_fault(target, at, mode)
    return cfg, finish(cfg, harness)


def trace_text(cfg, seed=1, dep_path=False, mid_run=None):
    """The serialized trace of `cfg` at `seed`. `dep_path` forces the `dep`
    path from the start; `mid_run` is `(t, target, at, mode)`: run to `t`,
    then inject that fault."""
    harness = build(cfg, seed)
    if dep_path:
        force_dep_path(harness.runtime, cfg.sim.horizon)
    if mid_run is not None:
        t, *fault = mid_run
        harness.sim.run_until(t)
        harness.runtime.inject_fault(*fault)
    return finish(cfg, harness).serialize(trace_preamble(cfg, seed))


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
    assert sha256(trace_text(cfg, dep_path=True)) == GOLDEN_SHA256[name]


def test_a_fault_injected_mid_run_takes_effect():
    """The fault flag is read on every hop, not cached when the run starts."""
    cfg = shipped("transport_lossy")
    text = trace_text(cfg, mid_run=(2.5, "r1", 3.0, "crash"))
    assert sha256(text) == FAULT_SHA256[("transport_lossy", "r1", 3.0, "crash")]


def test_a_fault_injected_mid_run_drops_what_the_dep_path_drops():
    """A fault due at once meets the copies queued before it was injected:
    injection gives each its `dep` event back, so the run equals one that
    took the `dep` path from the start."""
    cfg = shipped("transport_lossy")
    fault = (3.0, "r1", 3.0, "drop-all")
    text = trace_text(cfg, mid_run=fault)
    assert text == trace_text(cfg, dep_path=True, mid_run=fault)
    assert ",r1,drop," in text


def test_copies_queued_at_the_horizon_are_logged_as_on_the_dep_path():
    """At 2 s the relay's buffer is still full from the initial overload, so
    the horizon cuts its queue: 11 copies are logged `queued`."""
    cfg = shipped("field_congested")
    cfg.sim.horizon = 2.0
    text = trace_text(cfg)
    assert text == trace_text(cfg, dep_path=True)
    assert len([line for line in text.split("\n") if line.endswith(",queued,,")]) == 11


class TieApp:
    """At n0, a `send` timer admits one data copy towards the chain's end and
    queues a `tick` timer at n1 at exactly the copy's arrival time there; at
    n1, the `tick` logs a row."""

    def __init__(self, runtime, names):
        self.runtime = runtime
        self.names = names

    def on_event(self, sim, tag):
        n0, n1 = self.names[:2]
        if tag == "tick":
            sim.trace.log(sim.now, n1, "tick")
            return
        self.runtime.forward_data(n0, data_packet(sim, n0, self.names[-1]))
        link = self.runtime.topo.links[(n0, n1)]
        depart = 0.0 + FIXED_CA.value + self.runtime.packet_len / link.bit_rate  # no wait
        sim.schedule((0.0 + depart) + link.propagation(), "app", n1, "tick")


def tie_trace(dep_path):
    sim, runtime, names, _ = chain_network()
    runtime.apps[names[0]] = runtime.apps[names[1]] = TieApp(runtime, names)
    if dep_path:
        force_dep_path(runtime, 1.0)
    sim.schedule(0.0, "app", names[0], "send")
    sim.run_until(1.0)
    return sim.trace.serialize()


def test_an_arrival_tied_with_an_event_queued_after_its_admission_fires_first():
    """The copy's `arr` (or its `dep`, which queues the `arr` under its own
    ordinal) is queued before the tick, so at the tied time n1 receives and
    forwards the copy before the tick, on either path."""
    text = tie_trace(dep_path=False)
    assert text == tie_trace(dep_path=True)
    rows = [line.split(",")[:3] for line in text.split("\n")[1:] if line]
    at = [row[1:] for row in rows].index(["n1", "receive"])
    assert rows[at:at + 3] == [[rows[at][0], "n1", kind] for kind in ("receive", "send", "tick")]


@st.composite
def small_runs(draw):
    """(config, seed, mid-run node or link fault or None) of a short
    shipped-scenario run with a few parameters redrawn: channel access, loss,
    buffers and load."""
    cfg = shipped(draw(st.sampled_from(SHIPPED)))
    set_param(cfg, "sim.horizon", draw(st.sampled_from((0.5, 1.0, 2.0, 3.0))))
    set_param(cfg, "topology.ca_model", draw(st.sampled_from(("fixed", "exponential"))))
    if cfg.scenario.mode == "field":
        set_param(cfg, "topology.n_sources", draw(st.integers(1, 16)))
        set_param(cfg, "topology.layout", draw(st.sampled_from(("direct", "relay"))))
        set_param(cfg, "topology.link_loss", draw(st.sampled_from((0.0, 0.1, 0.5))))
        set_param(cfg, "topology.relay_service_rate", draw(st.sampled_from((20.0, 70.0))))
        set_param(cfg, "congestion.buffer_capacity", draw(st.integers(1, 20)))
        set_param(cfg, "controller.f_init", draw(st.sampled_from((2.0, 12.0, 40.0))))
    else:
        set_param(cfg, "transport.data_loss", draw(st.sampled_from((0.0, 0.1, 0.5))))
        set_param(cfg, "transport.capacity", draw(st.integers(1, 20)))
        set_param(cfg, "transport.goal_packets", draw(st.integers(10, 300)))
        set_param(cfg, "transport.sender", draw(st.sampled_from(("adaptive", "fixed"))))
    assume(not validate_scenario(cfg))
    fault = None
    if draw(st.booleans()):
        topo = build(cfg).runtime.topo
        t = draw(st.floats(0.0, cfg.sim.horizon))
        target = draw(st.sampled_from(sorted(topo.nodes) + sorted(topo.links)))
        fault = (t, target, t + draw(st.sampled_from((0.0, 0.3))),
                 draw(st.sampled_from(("crash", "drop-all"))))
    return cfg, draw(st.integers(1, 3)), fault


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_runs())
def test_the_fast_path_writes_the_trace_of_the_dep_path(run):
    cfg, seed, fault = run
    assert trace_text(cfg, seed, mid_run=fault) == \
        trace_text(cfg, seed, dep_path=True, mid_run=fault)


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
