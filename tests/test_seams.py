"""Calls through each seam the benchmark's tracer counts by, pinned.

`bench/tracer.py` reads its per-layer counts (`congestion.enqueues`,
`topology.calls`, `kernel.scheduled`, `nodes.data_hops`,
`controller.packets`, `transport.sack_builds`, ...) off the calls of a few
named functions. A change that speeds the data plane up by folding one of
them into its caller, or by calling it twice, would keep every trace byte
and still change what those counts mean. So each seam is patched here at the
same attribute the tracer patches, and its calls are pinned on two shipped
runs.
"""

import collections

import pytest

from rrrt import congestion, controller, kernel, nodes, topology, transport
from rrrt.runner import build_field, build_transport
from shipped import shipped

# (owner, attribute): the tracer's target for each seam
SEAMS = {
    "NodeBuffer.try_enqueue": (congestion.NodeBuffer, "try_enqueue"),
    "mark_packet": (nodes, "mark_packet"),
    "CaModel.sample": (topology.CaModel, "sample"),
    "Simulator.schedule": (kernel.Simulator, "schedule"),
    "NetworkRuntime.forward_data": (nodes.NetworkRuntime, "forward_data"),
    "ReliabilityController.on_data_packet": (controller.ReliabilityController,
                                             "on_data_packet"),
    "build_sack": (transport, "build_sack"),
}

# scenario -> calls through each seam at seed 1 (field_congested to 100 s)
SEAM_CALLS = {
    "field_congested": {
        "NodeBuffer.try_enqueue": 9142, "mark_packet": 9116, "CaModel.sample": 9315,
        "Simulator.schedule": 15778, "NetworkRuntime.forward_data": 9142,
        "ReliabilityController.on_data_packet": 4544, "build_sack": 0,
    },
    "transport_lossy": {
        "NodeBuffer.try_enqueue": 3771, "mark_packet": 3771, "CaModel.sample": 4135,
        "Simulator.schedule": 5636, "NetworkRuntime.forward_data": 3771,
        "ReliabilityController.on_data_packet": 0, "build_sack": 121,
    },
}


def count_seams(monkeypatch) -> collections.Counter:
    calls = collections.Counter()
    for name, (owner, attr) in SEAMS.items():
        fn = getattr(owner, attr)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    return calls


@pytest.mark.parametrize("name", sorted(SEAM_CALLS))
def test_calls_through_each_traced_seam(name, monkeypatch):
    cfg = shipped(name)
    if name == "field_congested":
        cfg.sim.horizon = 100.0
    calls = count_seams(monkeypatch)
    harness = (build_field if cfg.scenario.mode == "field" else build_transport)(cfg, 1)
    harness.sim.run_until(cfg.sim.horizon)
    assert {seam: calls[seam] for seam in SEAMS} == SEAM_CALLS[name]
