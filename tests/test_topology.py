"""Routing, per-hop delay sampling, grid placement and fault injection."""

import math

import pytest

from rrrt.errors import NoRoute, UnknownLink, UnknownTarget
from rrrt.kernel import Simulator
from rrrt.topology import (CaModel, DelayBreakdown, Link, NodeSpec, Topology,
                           grid_positions)
from util import chain_network, data_packet


def small_chain_topo():
    nodes = [NodeSpec("A", "sensor"), NodeSpec("B", "sensor"), NodeSpec("C", "sub_sink")]
    links = [Link("A", "B", 30.0, 250_000.0, 100.0), Link("B", "C", 30.0, 250_000.0, 100.0)]
    topo = Topology(nodes, links, CaModel("fixed", 0.001, 0.001))
    topo.build_routes()
    return topo


def test_delay_breakdown_total():
    bd = DelayBreakdown(0.1, 0.2, 0.3, 0.4)
    assert bd.total() == pytest.approx(1.0)


def test_sample_channel_delays_component_formulas():
    topo = small_chain_topo()
    rng = Simulator(1).rng("x")
    bd = topo.sample_channel_delays(("A", "B"), packet_len=1000.0, wait=0.0, rng=rng)
    assert bd.t_del == pytest.approx(0.004)      # 1000 bits / 250 kbit/s
    assert bd.p_del == pytest.approx(1e-7)        # 30 m / 3e8 m/s
    assert bd.b_del == 0.0
    assert bd.ca_del == pytest.approx(0.001)


def test_sample_channel_delays_buffering_ratio():
    topo = small_chain_topo()
    rng = Simulator(1).rng("x")
    bd = topo.sample_channel_delays(("A", "B"), 1000.0, wait=0.1, rng=rng)
    assert bd.b_del == 0.1  # the queue wait is the caller's, passed through unchanged


def test_self_link_is_rejected_and_unknown():
    with pytest.raises(ValueError):
        Topology([NodeSpec("A", "sensor")], [Link("A", "A", 0.0)])
    topo = small_chain_topo()
    rng = Simulator(1).rng("x")
    with pytest.raises(UnknownLink):
        topo.sample_channel_delays(("A", "A"), 1000.0, 0, rng)
    with pytest.raises(UnknownLink):
        topo.sample_channel_delays(("A", "C"), 1000.0, 0, rng)


def test_next_hop_chain_lookup():
    topo = small_chain_topo()
    assert topo.next_hop("A", "C") == "B"
    assert topo.next_hop("B", "C") == "C"


def test_next_hop_to_self_is_no_route():
    topo = small_chain_topo()
    with pytest.raises(NoRoute):
        topo.next_hop("C", "C")


def test_next_hop_missing_route():
    nodes = [NodeSpec("A", "sensor"), NodeSpec("B", "sensor")]
    topo = Topology(nodes, [Link("A", "B", 10.0)])
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
    topo.nodes["D"] = NodeSpec("D", "sensor")
    topo.links[("A", "D")] = Link("A", "D", 30.0)
    topo.links[("D", "C")] = Link("D", "C", 30.0)
    topo.alternates[("A", "C")] = "D"
    topo.inject_fault("B", at=10.0, mode="crash")
    assert topo.next_hop("A", "C", now=5.0) == "B"
    assert topo.next_hop("A", "C", now=10.0) == "D"
    del topo.alternates[("A", "C")]
    with pytest.raises(NoRoute):
        topo.next_hop("A", "C", now=10.0)


def test_drop_all_fault_is_invisible_to_routing():
    topo = small_chain_topo()
    topo.inject_fault("B", at=0.0, mode="drop-all")
    assert topo.next_hop("A", "C", now=5.0) == "B"
    assert topo.fault_mode("B", 5.0) == "drop-all"


def test_link_fault_blackholes_traffic_on_that_link():
    sim, runtime, names, catcher = chain_network(services=(100.0, 100.0))
    runtime.topo.inject_fault((names[1], names[2]), at=0.0, mode="drop-all")
    pkt = data_packet(sim, names[0], names[-1])
    sim.trace.log(0.0, names[0], "generate", pkt.pid)
    runtime.forward_data(names[0], pkt)
    sim.run_until(5.0)
    assert catcher.got == []
    drops = [r for r in sim.trace.records if r[2] == "drop"]
    assert len(drops) == 1 and drops[0][1] == names[1] and drops[0][5] == "fault"


def test_crash_cutoff_semantics_in_simulation():
    """Traffic clearing the relay before the fault arrives; anything touching it later drops."""
    sim, runtime, names, catcher = chain_network(services=(100.0, 100.0))
    runtime.topo.inject_fault(names[1], at=10.0, mode="crash")
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
    drops = {r[3]: r[5] for r in sim.trace.records if r[2] == "drop"}
    assert drops == {caught.pid: "fault", late.pid: "no_route"}


def test_fault_reroute_keeps_delivery_going():
    sim, runtime, names, catcher = chain_network(services=(100.0, 100.0), alternates=True)
    runtime.topo.alternates[(names[0], names[2])] = "alt"
    runtime.topo.inject_fault(names[1], at=0.5, mode="crash")
    for when in (0.0, 1.0):
        sim.run_until(when)
        pkt = data_packet(sim, names[0], names[2])
        sim.trace.log(sim.now, names[0], "generate", pkt.pid)
        runtime.forward_data(names[0], pkt)
    sim.run_until(5.0)
    assert len(catcher.got) == 2  # second packet went via the alternate


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
