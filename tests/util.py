"""Shared mini-network builders for tests."""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path
from unittest import mock

from rrrt import cli
from rrrt.cli import _write_outputs
from rrrt.kernel import Simulator
from rrrt.nodes import NetworkRuntime
from rrrt.packet import Packet
from rrrt.runner import run_traced, trace_preamble
from rrrt.scenario import ScenarioConfig
from rrrt.topology import CaModel, Link, Topology, bit_rate_for_service

# The scenario defaults, the one source of every value a test does not choose itself.
DEFAULTS = ScenarioConfig()
# A short fixed channel access, so a chain's delays are known in advance.
FIXED_CA = CaModel(kind="fixed", value=0.0002, cap=0.0002)


class Catcher:
    """Terminal app that records delivered packets."""

    def __init__(self, runtime, node):
        self.runtime = runtime
        self.node = node
        self.got = []

    def on_packet(self, pkt, now):
        self.got.append((pkt.pid, now, pkt.cn))
        self.runtime.sim.trace.log(now, self.node, "deliver", pkt.pid, -1, "",
                                   pkt.gen_time, pkt.flow)

    def on_control(self, pkt, now):
        self.got.append((pkt.pid, now, pkt.flow))

    def on_event(self, sim, tag):
        pass


def chain_network(seed=1, services=(100.0, 100.0), capacity=DEFAULTS.transport.capacity,
                  ca=FIXED_CA, loss=None, distance=10.0):
    """Linear chain n0 -> n1 -> ... -> nk with one service rate per link, each
    link `distance` metres long; packet and control lengths and the congestion
    epoch are the scenario defaults.

    Returns (sim, runtime, node names, catcher at the last node).
    """
    count = len(services) + 1
    names = [f"n{i}" for i in range(count)]
    topo_cfg = DEFAULTS.topology
    links = []
    for i, service in enumerate(services):
        lr = loss[i] if loss else topo_cfg.link_loss
        rate = bit_rate_for_service(service, ca.value, topo_cfg.packet_len)
        links.append(Link(names[i], names[i + 1], distance, rate, service, lr))
        links.append(Link(names[i + 1], names[i], distance, rate, service, topo_cfg.link_loss))
    topo = Topology(names, links, ca)
    topo.build_routes()
    sim = Simulator(seed)
    runtime = NetworkRuntime(sim, topo, topo_cfg.packet_len, topo_cfg.ctl_len, capacity,
                             DEFAULTS.congestion.epoch)
    catcher = Catcher(runtime, names[-1])
    runtime.apps[names[-1]] = catcher
    return sim, runtime, names, catcher


def data_packet(sim, src, dst, flow="data", gen_time=None):
    return Packet(pid=sim.new_pid(), flow=flow, src=src, dst=dst,
                  gen_time=sim.now if gen_time is None else gen_time)


def set_a_late_fault(runtime, horizon):
    """Inject a crash due after `horizon`. It never fires, but from now on
    every hop and arrival looks faults up, as in a run with a fault."""
    runtime.inject_fault(next(iter(runtime.topo.nodes)), horizon + 1.0, "crash")


def run_and_serialize(cfg, seed=None):
    """Run and return (report, serialized trace with preamble)."""
    report, trace, preamble = run_traced(cfg, seed)
    return report, trace.serialize(preamble)


def written_trace_sha256(report, trace, preamble) -> str:
    """sha256 of the trace.csv that `rrrt run --out` writes of a finished run."""
    with tempfile.TemporaryDirectory() as out:
        _write_outputs(out, preamble, report.to_dict(), trace)
        return hashlib.sha256(Path(out, "trace.csv").read_bytes()).hexdigest()


RUN_OUTPUTS = ("trace.csv", "summary.json", "intervals.csv", "connection.csv")


def run_outputs_sha256(scenario: str, report, trace, preamble) -> dict[str, str]:
    """sha256 of each file that `rrrt run --scenario SCENARIO --seed 1 --out DIR`
    writes, and of what it prints ("stdout"), for a finished seed-1 run of that
    scenario: the command runs as it is, handed this run instead of a new one."""
    def same_run(cfg):
        assert trace_preamble(cfg, cfg.sim.seed) == preamble  # the run the command would make
        return report, trace, preamble

    with tempfile.TemporaryDirectory() as out, mock.patch.object(cli, "run_traced", same_run), \
            contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert cli.main(["run", "--scenario", scenario, "--seed", "1", "--out", out]) == 0
        digests = {name: hashlib.sha256(Path(out, name).read_bytes()).hexdigest()
                   for name in RUN_OUTPUTS}
    digests["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return digests
