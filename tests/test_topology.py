"""Routing, per-hop delay sampling, grid placement and fault injection."""

import math
import random

import pytest

from rrrt.errors import NoRoute, UnknownLink, UnknownTarget
from rrrt.kernel import Simulator
from rrrt.metrics import audit_trace
from rrrt.nodes import NetworkRuntime
from rrrt.topology import CaModel, Link, Topology, bit_rate_for_service, grid_positions
from util import FIXED_CA, chain_network, data_packet


def link(src, dst, distance, bit_rate=250_000.0, service_rate=100.0):
    """A lossless link whose rates a test does not care about unless it names them."""
    return Link(src, dst, distance, bit_rate, service_rate, 0.0)


def small_chain_topo():
    links = [link("A", "B", 30.0), link("B", "C", 30.0)]
    topo = Topology(["A", "B", "C"], links, CaModel("fixed", 0.001, 0.001))
    topo.build_routes()
    return topo


def test_sample_channel_delays_component_formulas():
    topo = small_chain_topo()
    rng = Simulator(1).rng("x")
    link = topo.link("A", "B")
    delay = topo.sample_channel_delays(link, packet_len=1000.0, rng=rng)
    assert link.propagation() == pytest.approx(1e-7)  # 30 m / 3e8 m/s
    # fixed channel access, then 1000 bits at 250 kbit/s, then propagation
    assert delay == 0.001 + 1000.0 / 250_000.0 + link.propagation()


def test_self_link_is_rejected_and_unknown():
    with pytest.raises(ValueError):
        Topology(["A"], [link("A", "A", 0.0)], FIXED_CA)
    topo = small_chain_topo()
    with pytest.raises(UnknownLink):
        topo.link("A", "A")
    with pytest.raises(UnknownLink):
        topo.link("A", "C")


@pytest.mark.parametrize("make, message", [
    (lambda: Topology(["A", "B", "A"], [], FIXED_CA), "duplicate node id"),
    (lambda: Topology(["A"], [link("A", "B", 10.0)], FIXED_CA), "references unknown node"),
    (lambda: Topology(["A", "B"], [link("A", "B", 10.0, bit_rate=0.0)], FIXED_CA),
     "must be positive"),
    (lambda: Topology(["A", "B"], [link("A", "B", 10.0, service_rate=-1.0)], FIXED_CA),
     "must be positive"),
    (lambda: Topology(["A", "B"], [link("A", "B", -1.0)], FIXED_CA), "must be positive"),
    (lambda: small_chain_topo().inject_fault("B", 1.0, "reboot"), "unknown fault mode"),
    # one 2 ms service slot is all channel access, so no bit rate is fast enough
    (lambda: bit_rate_for_service(500.0, 0.002, 1000.0), "unachievable"),
], ids=["duplicate node", "unknown node", "zero bit rate", "negative service rate",
        "negative distance", "unknown fault mode", "unachievable service rate"])
def test_a_topology_contract_violation_raises_value_error(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_next_hop_chain_lookup():
    topo = small_chain_topo()
    assert topo.next_hop("A", "C") == "B"
    assert topo.next_hop("B", "C") == "C"


def test_next_hop_to_self_is_no_route():
    topo = small_chain_topo()
    with pytest.raises(NoRoute):
        topo.next_hop("C", "C")


def test_next_hop_missing_route():
    topo = Topology(["A", "B"], [link("A", "B", 10.0)], FIXED_CA)
    topo.build_routes()
    with pytest.raises(NoRoute):
        topo.next_hop("B", "A")  # only A->B exists


def test_inject_fault_unknown_target():
    topo = small_chain_topo()
    with pytest.raises(UnknownTarget):
        topo.inject_fault("nope", at=1.0)
    with pytest.raises(UnknownTarget):
        topo.inject_fault(("A", "C"), at=1.0)


def test_crash_fault_routes_to_alternate_when_configured():
    topo = small_chain_topo()
    topo.inject_fault("B", at=10.0, mode="crash")
    assert topo.next_hop("A", "C", now=5.0) == "B"
    with pytest.raises(NoRoute):
        topo.next_hop("A", "C", now=10.0)


def test_drop_all_fault_is_invisible_to_routing():
    topo = small_chain_topo()
    topo.inject_fault("B", at=0.0, mode="drop-all")
    assert topo.next_hop("A", "C", now=5.0) == "B"
    assert topo.fault_mode("B", 5.0) == "drop-all"


def test_link_fault_blackholes_traffic_on_that_link():
    sim, runtime, names, catcher = chain_network(services=(100.0, 100.0))
    runtime.inject_fault((names[1], names[2]), at=0.0, mode="drop-all")
    pkt = data_packet(sim, names[0], names[-1])
    sim.trace.log(0.0, names[0], "generate", pkt.pid)
    runtime.forward_data(names[0], pkt)
    sim.run_until(5.0)
    assert catcher.got == []
    drops = [r for r in sim.trace if r[2] == "drop"]
    assert len(drops) == 1 and drops[0][1] == names[1] and drops[0][5] == "fault"


def test_a_drop_all_node_sends_none_of_its_own_packets():
    """A drop-all node's apps run on, but a data or control packet it would
    send is dropped before any copy leaves."""
    sim, runtime, names, catcher = chain_network(services=(100.0, 100.0))
    runtime.inject_fault(names[0], at=0.0, mode="drop-all")
    data = data_packet(sim, names[0], names[-1])
    ctl = data_packet(sim, names[0], names[-1], flow="ctl")
    runtime.forward_data(names[0], data)
    runtime.forward_control(names[0], ctl)
    sim.run_until(5.0)
    assert catcher.got == []
    assert [r[1:6] for r in sim.trace] == [(names[0], "drop", data.pid, -1, "fault"),
                                           (names[0], "drop", ctl.pid, -1, "fault")]


def test_crash_cutoff_semantics_in_simulation():
    """Traffic clearing the relay before the fault arrives; anything touching it later drops."""
    sim, runtime, names, catcher = chain_network(services=(100.0, 100.0))
    runtime.inject_fault(names[1], at=10.0, mode="crash")
    early = data_packet(sim, names[0], names[-1])
    sim.trace.log(0.0, names[0], "generate", early.pid)
    runtime.forward_data(names[0], early)
    sim.run_until(9.9999)

    caught = data_packet(sim, names[0], names[-1])  # reaches the relay after it dies
    sim.trace.log(sim.now, names[0], "generate", caught.pid)
    runtime.forward_data(names[0], caught)
    sim.run_until(15.0)

    late = data_packet(sim, names[0], names[-1])  # routing already knows the relay is dead
    sim.trace.log(sim.now, names[0], "generate", late.pid)
    runtime.forward_data(names[0], late)
    sim.run_until(20.0)

    assert [pid for pid, _, _ in catcher.got] == [early.pid]
    drops = {r[3]: r[5] for r in sim.trace if r[2] == "drop"}
    assert drops == {caught.pid: "fault", late.pid: "no_route"}


def no_route_rows(fault):
    """The trace of a packet generated at a node with no link and forwarded
    towards another node. With `fault`, a link the packet never meets is
    crashed first, so the hop asks `next_hop` instead of the hop table."""
    links = [link("a", "b", 10.0, 1e6), link("b", "a", 10.0, 1e6)]
    topo = Topology(["a", "b", "lone"], links, FIXED_CA)
    topo.build_routes()
    sim = Simulator(1)
    runtime = NetworkRuntime(sim, topo, packet_len=1000.0, ctl_len=200.0,
                             buffer_capacity=5, epoch_len=0.1)
    if fault:
        runtime.inject_fault(("b", "a"), 0.0, "crash")
    pkt = data_packet(sim, "lone", "b")
    sim.trace.log(0.0, "lone", "generate", pkt.pid)
    runtime.forward_data("lone", pkt)
    sim.run_until(1.0)
    audit_trace(sim.trace)
    return list(sim.trace)


def test_a_node_without_a_route_drops_the_packet_on_either_path():
    rows = no_route_rows(fault=False)
    assert rows[1] == (0.0, "lone", "drop", 1, -1, "no_route", None, "")
    assert len(rows) == 2 and no_route_rows(fault=True) == rows


def test_grid_positions_fit_inside_radius():
    for count, radius in ((81, 45.0), (9, 45.0), (5, 10.0), (1, 3.0)):
        points = grid_positions(count, radius)
        assert len(points) == count
        assert all(math.hypot(x, y) <= radius + 1e-9 for x, y in points)


def test_grid_positions_are_distinct():
    points = grid_positions(81, 45.0)
    assert len(set(points)) == 81


def test_ca_model_fixed_and_exponential():
    rng = Simulator(3).rng("ca")
    fixed = CaModel("fixed", 0.002, 0.05)
    assert fixed.sample(rng) == 0.002
    exp = CaModel("exponential", 0.002, 0.005)
    draws = [exp.sample(rng) for _ in range(200)]
    assert all(0.0 <= d <= 0.005 for d in draws)
    assert len(set(draws)) > 100  # actually random


@pytest.mark.parametrize("model", [
    CaModel("exponential", 0.002, 0.005),  # the cap binds on about 8% of draws
    CaModel("exponential", 0.002, 1.0),  # the cap never binds
    CaModel("fixed", 0.002, 0.05),
], ids=["capped", "uncapped", "fixed"])
def test_ca_model_sample_equals_expovariate_draw_for_draw(model):
    """`sample` computes `expovariate`'s expression inline; on twin streams
    each draw must be the very float `min(expovariate(1 / value), cap)` gives."""
    ours, reference = random.Random(11), random.Random(11)
    draws = [model.sample(ours) for _ in range(10_000)]
    if model.kind == "fixed":
        expected = [model.value] * len(draws)
    else:
        expected = [min(reference.expovariate(1.0 / model.value), model.cap)
                    for _ in range(len(draws))]
    assert draws == expected
    assert ours.getstate() == reference.getstate()
    if model.cap == 0.005:
        assert 0 < draws.count(model.cap) < len(draws)
    elif model.kind != "fixed":
        assert model.cap not in draws
