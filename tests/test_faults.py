"""Fault-path traces: a node or link fault injected into a shipped scenario.

No shipped scenario has a fault, so the golden hashes do not cover the fault
checks of the data, control and broadcast planes. Each case here builds a
shipped scenario at seed 1, injects one fault, runs to the horizon and pins
the sha256 of the serialized trace, which `rrrt run --out` must write as it
is; the trace must also pass the audit and replay to the live report.

Faults are set before the run: once a copy waits on a buffer, `inject_fault`
raises PastTime. A run with no fault looks none up. The tests at the end
check that a fault due after the horizon (`util.set_a_late_fault`), which
makes every hop and arrival look faults up, changes no byte: with copies still
queued at the horizon, with an event tied with an arrival, and over short runs
of valid scenarios drawn from the whole scenario space (`space.scenarios`).
Over those runs a drawn fault due inside the horizon must pass the audit and
replay to the live report, a run to `T` must be the prefix of the same run to
`2T`, and four times the energy costs must change only the total energy. The
last test checks that a run with no fault never looks one up.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rrrt.errors import PastTime
from rrrt.metrics import audit_trace, reduce_trace
from rrrt.runner import (build_field, build_field_topology, build_transport,
                         build_transport_topology, replay_text, run_experiment, trace_preamble)
from rrrt.scenario import set_param, validate_scenario
from rrrt.topology import Topology
from shipped import SHIPPED, sha256, shipped
from space import scenarios
from test_golden import GOLDEN_SHA256
from util import FIXED_CA, chain_network, data_packet, set_a_late_fault, written_trace_sha256

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


def trace_text(cfg, seed=1, late_fault=False):
    """The serialized trace of `cfg` at `seed`; `late_fault` sets a fault due
    after the horizon first."""
    harness = build(cfg, seed)
    if late_fault:
        set_a_late_fault(harness.runtime, cfg.sim.horizon)
    return finish(cfg, harness).serialize(trace_preamble(cfg, seed))


@pytest.mark.parametrize("case", sorted(FAULT_SHA256, key=repr), ids=repr)
def test_fault_run_trace_hash_audit_and_replay(case):
    """The pinned trace, audited, replayed to the live report, and written by
    `rrrt run --out` as serialize gives it."""
    cfg, trace = run_with_fault(*case)
    audit_trace(trace)
    preamble = trace_preamble(cfg, 1)
    text = trace.serialize(preamble)
    report = reduce_trace(trace, preamble)
    assert replay_text(text) == report
    assert sha256(text) == written_trace_sha256(report, trace, preamble) == FAULT_SHA256[case]


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
    every hop and arrival looks faults up and must write the trace of the run
    without it."""
    cfg = shipped(name)
    assert sha256(trace_text(cfg, late_fault=True)) == GOLDEN_SHA256[name]


def test_a_fault_set_after_a_copy_is_queued_raises():
    """A copy on a `due` FIFO has no `dep` event to meet a fault, so a fault
    set once one waits is refused, and the network stays unfaulted."""
    cfg = shipped("field_congested")
    harness = build(cfg)
    harness.sim.run_until(1.0)
    assert any(buf.due for buf in harness.runtime.buffers.values())
    with pytest.raises(PastTime, match="after a copy was queued at"):
        harness.runtime.inject_fault("relay", 2.0, "crash")
    assert not harness.runtime.topo.has_faults


def test_copies_queued_at_the_horizon_are_logged_as_on_the_dep_path():
    """At 2 s the relay's buffer is still full from the initial overload, so
    the horizon cuts its queue: 11 copies are logged `queued`."""
    cfg = shipped("field_congested")
    cfg.sim.horizon = 2.0
    text = trace_text(cfg)
    assert text == trace_text(cfg, late_fault=True)
    assert len([line for line in text.split("\n") if line.endswith(",queued,,")]) == 11


def test_a_copy_queued_at_the_horizon_is_logged_in_its_departures_place():
    """Over a link whose propagation (2 ms) outlasts a copy's service (1 ms),
    the second of two copies is still queued at 1.5 ms, when the first is in
    flight. It departs at 2 ms, before the first arrives at 3 ms, so its
    pending row comes first, with or without a late fault."""
    texts = []
    for late_fault in (False, True):
        sim, runtime, names, _ = chain_network(services=(1000.0,), distance=6e5)
        if late_fault:
            set_a_late_fault(runtime, 1.0)
        for _ in range(2):
            runtime.forward_data(names[0], data_packet(sim, names[0], names[1]))
        sim.run_until(0.0015)
        runtime.log_pending()
        texts.append(sim.trace.serialize())
    assert texts[0] == texts[1]
    pending = [line.split(",")[1:6] for line in texts[0].split("\n") if ",pending," in line]
    assert pending == [["n0", "pending", "2", "2", "queued"],
                       ["n1", "pending", "1", "1", "in_flight"]]


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


def tie_trace(late_fault):
    sim, runtime, names, _ = chain_network()
    runtime.apps[names[0]] = runtime.apps[names[1]] = TieApp(runtime, names)
    if late_fault:
        set_a_late_fault(runtime, 1.0)
    sim.schedule(0.0, "app", names[0], "send")
    sim.run_until(1.0)
    return sim.trace.serialize()


def test_an_arrival_tied_with_an_event_queued_after_its_admission_fires_first():
    """The copy's `arr` is queued on its admission, before the tick, so at the
    tied time n1 receives and forwards the copy before the tick, with or
    without a late fault."""
    text = tie_trace(late_fault=False)
    assert text == tie_trace(late_fault=True)
    rows = [line.split(",")[:3] for line in text.split("\n")[1:] if line]
    at = [row[1:] for row in rows].index(["n1", "receive"])
    assert rows[at:at + 3] == [[rows[at][0], "n1", kind] for kind in ("receive", "send", "tick")]


@st.composite
def small_runs(draw):
    """(config, seed, fault) of a short run: a valid configuration drawn from
    the whole scenario space by `space.scenarios`, a seed and a fault. The
    fault is None or `(target, at, mode)`, set before the run: a node or a
    link, crash or drop-all, due inside the horizon."""
    cfg = draw(scenarios())
    assert validate_scenario(cfg) == []
    seed = draw(st.integers(1, 3))
    if not draw(st.booleans()):
        return cfg, seed, None
    topo = (build_field_topology(cfg)[0] if cfg.scenario.mode == "field"
            else build_transport_topology(cfg))
    target = draw(st.sampled_from(list(topo.nodes)) | st.sampled_from(sorted(topo.links)))
    at = draw(st.floats(0.0, cfg.sim.horizon, exclude_max=True))
    return cfg, seed, (target, at, draw(st.sampled_from(("crash", "drop-all"))))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_runs())
def test_a_fault_inside_the_horizon_audits_and_replays_and_a_later_one_changes_no_byte(run):
    cfg, seed, fault = run
    if fault is None:
        assert trace_text(cfg, seed) == trace_text(cfg, seed, late_fault=True)
        return
    harness = build(cfg, seed)
    harness.runtime.inject_fault(*fault)
    trace = finish(cfg, harness)
    audit_trace(trace)
    preamble = trace_preamble(cfg, seed)
    assert replay_text(trace.serialize(preamble)) == reduce_trace(trace, preamble)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_runs())
def test_a_run_to_t_is_the_prefix_of_the_same_run_to_2t(run):
    """The horizon-prefix relation of test_metamorphic.py over the drawn runs:
    apart from its `pending` rows, a run to `T` writes exactly the rows at or
    before `T` of the same run, drawn fault included, to `2T`."""
    cfg, seed, fault = run
    horizon = cfg.sim.horizon
    rows = []
    for end in (horizon, 2 * horizon):
        set_param(cfg, "sim.horizon", end)
        harness = build(cfg, seed)
        if fault is not None:
            harness.runtime.inject_fault(*fault)
        rows.append(list(finish(cfg, harness)))
    short, long = rows
    assert [row for row in short if row[2] != "pending"] == [row for row in long
                                                              if row[0] <= horizon]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_runs())
def test_four_times_the_energy_costs_changes_only_total_energy(run):
    """The energy-scaling relation of test_metamorphic.py over the drawn runs:
    with `e_tx` and `e_rx` times 4, every row is the same and `total_energy`
    is exactly 4 times; the rest of the report is equal."""
    cfg, seed, fault = run
    runs = []
    for scale in (1.0, 4.0):
        cfg.energy.e_tx *= scale
        cfg.energy.e_rx *= scale
        harness = build(cfg, seed)
        if fault is not None:
            harness.runtime.inject_fault(*fault)
        trace = finish(cfg, harness)
        runs.append((reduce_trace(trace, trace_preamble(cfg, seed)), list(trace)))
    (report, rows), (scaled, scaled_rows) = runs
    assert scaled_rows == rows
    assert scaled.total_energy == 4 * report.total_energy
    assert dataclasses.replace(scaled, total_energy=report.total_energy) == report


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
