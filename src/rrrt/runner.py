"""Experiment orchestration: build a scenario into a live network, run it,
extract metrics, sweep parameters, replay serialized traces."""

from __future__ import annotations

import copy
import statistics
from dataclasses import dataclass
from typing import Optional, TextIO

from . import transport as tp
from .controller import ReliabilityController
from .errors import Corrupt, ScenarioInvalid
from .kernel import SimulationTrace, Simulator, format_preamble, open_text, read_rows
from .metrics import MetricsReport, audit_trace, reduce_trace
from .nodes import (CrossTrafficSource, FixedRateSenderApp, NetworkRuntime, SensorSource,
                    SubSinkApp, TransportReceiverApp, TransportSenderApp)
from .scenario import ScenarioConfig, SweepSpec, scenario_hash, set_param, validate_scenario
from .topology import CaModel, Link, Topology, bit_rate_for_service, grid_positions

ARTIFACT_VERSION = "0.1.0"

SINK = "sink"
RELAY = "relay"
CROSS = "cross"
XP_SENDER = "src_ss"
XP_RECEIVER = "dst_ss"


def _ca_model(cfg: ScenarioConfig) -> CaModel:
    topo = cfg.topology
    return CaModel(kind=topo.ca_model, value=topo.ca_value, cap=topo.ca_cap)


def build_field_topology(cfg: ScenarioConfig) -> tuple[Topology, list[str]]:
    """Sensor grid inside the event radius plus the sub-sink (and optional relay)."""
    topo_cfg = cfg.topology
    positions = grid_positions(topo_cfg.n_sources, topo_cfg.event_radius)
    sources = [f"s{idx:03d}" for idx in range(topo_cfg.n_sources)]
    nodes = [SINK] + sources
    links: list[Link] = []

    def both_ways(a: str, b: str, dist: float, service: float) -> None:
        rate = bit_rate_for_service(service, topo_cfg.ca_value, topo_cfg.packet_len)
        links.append(Link(a, b, dist, rate, service, loss=topo_cfg.link_loss))
        links.append(Link(b, a, dist, rate, service, loss=topo_cfg.link_loss))

    if topo_cfg.layout == "direct":
        for name, pos in zip(sources, positions):
            dist = (pos[0] ** 2 + (pos[1] - topo_cfg.event_radius - 5.0) ** 2) ** 0.5
            both_ways(name, SINK, dist, topo_cfg.source_service_rate)
    else:
        nodes += [RELAY, CROSS]
        for name, pos in zip(sources, positions):
            dist = max((pos[0] ** 2 + pos[1] ** 2) ** 0.5, 1.0)
            both_ways(name, RELAY, dist, topo_cfg.source_service_rate)
        both_ways(RELAY, SINK, 5.0, topo_cfg.relay_service_rate)
        both_ways(CROSS, RELAY, 5.0, topo_cfg.cross_service_rate)
    topo = Topology(nodes, links, _ca_model(cfg))
    topo.build_routes([SINK])
    return topo, sources


def build_transport_topology(cfg: ScenarioConfig) -> Topology:
    """Chain of relays between two sub-sinks; the first relay is the bottleneck."""
    xp = cfg.transport
    relays = [f"r{i + 1}" for i in range(xp.relays)]
    chain = [XP_SENDER] + relays + [XP_RECEIVER]
    links: list[Link] = []
    topo_cfg = cfg.topology
    for i in range(len(chain) - 1):
        a, b = chain[i], chain[i + 1]
        if a == XP_SENDER:
            service = xp.sender_service
        elif a == relays[0]:
            service = xp.bottleneck_service
        else:
            service = xp.relay_service
        loss = xp.data_loss if b == XP_RECEIVER else 0.0
        rate = bit_rate_for_service(service, topo_cfg.ca_value, topo_cfg.packet_len)
        back = bit_rate_for_service(xp.relay_service, topo_cfg.ca_value, topo_cfg.packet_len)
        links.append(Link(a, b, 10.0, rate, service, loss=loss))
        links.append(Link(b, a, 10.0, back, xp.relay_service))
    topo = Topology(chain, links, _ca_model(cfg))
    topo.build_routes([XP_SENDER, XP_RECEIVER])
    return topo


@dataclass
class Harness:
    """A built network: its simulator, its runtime and, for a transfer, the sender."""

    sim: Simulator
    runtime: NetworkRuntime
    sender: object = None

    def finalize(self) -> None:
        """End the run: log what is still queued, then close the runtime and
        the simulator. That unhooks the apps and the handlers, which hold the
        runtime, which holds the simulator, so until then the network and its
        trace records are freed only by a full collection, not when the last
        reference to them goes; and it drops every random stream of the run,
        whether the kernel, a hop record or a source held it. A finished run
        keeps its trace, its queue, its network and, for a transfer, its
        sender, and nothing else that grows with the run."""
        self.runtime.log_pending()
        if isinstance(self.sender, TransportSenderApp):
            self.sender.log_pending()
        self.runtime.close()
        self.sim.close()


def build_field(cfg: ScenarioConfig, seed: int) -> Harness:
    topo, source_names = build_field_topology(cfg)
    sim = Simulator(seed)
    runtime = NetworkRuntime(sim, topo, cfg.topology.packet_len, cfg.topology.ctl_len,
                             cfg.congestion.buffer_capacity, cfg.congestion.epoch)
    runtime.children = topo.downstream_children(SINK)

    controller = ReliabilityController(cfg.controller, eq4_alt=cfg.switches.eq4_alt,
                                       eq6_alt=cfg.switches.eq6_alt)
    budget = cfg.budget if cfg.budget.delta_e2a > 0 else None
    sink_app = SubSinkApp(runtime, SINK, controller, budget)
    runtime.apps[SINK] = sink_app

    sources = []
    for name in source_names:
        src = SensorSource(runtime, name, SINK, cfg.controller.f_init)
        runtime.apps[name] = src
        sources.append(src)
    if cfg.topology.layout == "relay" and cfg.cross_traffic.rate > 0:
        cross = CrossTrafficSource(runtime, CROSS, SINK, cfg.cross_traffic.rate,
                                   cfg.cross_traffic.start, cfg.cross_traffic.stop)
        runtime.apps[CROSS] = cross
        cross.start(0.0)

    sink_app.start(0.0)
    for src in sources:
        src.start(0.0)
    return Harness(sim, runtime)


def build_transport(cfg: ScenarioConfig, seed: int) -> Harness:
    topo = build_transport_topology(cfg)
    sim = Simulator(seed)
    runtime = NetworkRuntime(sim, topo, cfg.topology.packet_len, cfg.topology.ctl_len,
                             cfg.transport.capacity, cfg.congestion.epoch)
    xp = cfg.transport
    receiver = TransportReceiverApp(runtime, XP_RECEIVER, XP_SENDER, xp.t_fdbk)
    runtime.apps[XP_RECEIVER] = receiver
    if xp.sender == "adaptive":
        goal = tp.DeliveryGoal(xp.goal_packets, xp.delta_e2a)
        state = tp.start_connection(goal, 0.0, xp.rtt_estimate, xp.t_fdbk, xp.t_p,
                                    hold_band=xp.hold_band,
                                    decrease_factor=xp.decrease_factor)
        sender = TransportSenderApp(runtime, XP_SENDER, XP_RECEIVER, goal, state,
                                    sack_enabled=cfg.switches.sack)
    else:
        sender = FixedRateSenderApp(runtime, XP_SENDER, XP_RECEIVER, xp.goal_packets,
                                    xp.fixed_rate)
    runtime.apps[XP_SENDER] = sender
    receiver.start(0.0)
    sender.start(0.0)
    return Harness(sim, runtime, sender)


def measured_flow(cfg: ScenarioConfig) -> str:
    return "data" if cfg.scenario.mode == "field" else "xfer"


def trace_preamble(cfg: ScenarioConfig, seed: int) -> dict:
    return {
        "artifact_version": ARTIFACT_VERSION,
        "scenario_hash": scenario_hash(cfg),
        "seed": seed,
        "flow": measured_flow(cfg),
        "beta": repr(cfg.controller.beta),
        "e_tx": repr(cfg.energy.e_tx),
        "e_rx": repr(cfg.energy.e_rx),
        "eq2_mode": cfg.switches.eq2_mode,
    }


def run_traced(cfg: ScenarioConfig,
               seed: Optional[int] = None) -> tuple[MetricsReport, SimulationTrace, dict]:
    """One deterministic run: build, run to the horizon, audit, reduce.

    Returns the report, the finished trace and the preamble that goes with it.
    """
    seed = cfg.sim.seed if seed is None else seed
    build = build_field if cfg.scenario.mode == "field" else build_transport
    harness = build(cfg, seed)
    harness.sim.run_until(cfg.sim.horizon)
    harness.finalize()
    trace = harness.sim.trace
    audit_trace(trace)
    preamble = trace_preamble(cfg, seed)
    return reduce_trace(trace, preamble), trace, preamble


def run_experiment(cfg: ScenarioConfig, seed: Optional[int] = None) -> MetricsReport:
    """The report of one run (see run_traced)."""
    return run_traced(cfg, seed)[0]


def report_from_trace(trace: SimulationTrace, cfg: ScenarioConfig, seed: int,
                      budget=None) -> MetricsReport:
    """Report of a live run's finished trace.

    `budget` is ignored and kept only for callers that still pass it: the
    delay budget is reduced from the trace's deliver rows, as on replay.
    """
    return reduce_trace(trace, trace_preamble(cfg, seed))


def replay_text(text: str | TextIO) -> MetricsReport:
    """Recompute the metrics of a serialized trace, a string or an open text
    file; matches the original exactly.

    The records stream from the text into the reducer, so replay never holds
    them. A value that parses but cannot be reduced (an interval row whose info
    does not decode, a deliver row without its generation time, a preamble
    number that is not one) raises Corrupt, as an unparsable row does.
    """
    preamble, records = read_rows(text)
    try:
        return reduce_trace(records, preamble)
    except (KeyError, TypeError, ValueError) as exc:
        raise Corrupt(None, f"value that does not reduce ({exc!r})") from None


def replay(path: str) -> MetricsReport:
    """replay_text of a trace file, passed the open file: read_rows reads it
    a chunk at a time, so neither its text nor its records are held whole,
    and replay's memory follows one chunk, not the length of the run. It is
    opened by open_text, so its line breaks are read as they are and a
    carriage return is corrupt, as in replay_text; a piece of the file that
    is not UTF-8 raises Corrupt at the line it starts in."""
    with open_text(path) as fp:
        return replay_text(fp)


METRIC_NAMES = ("convergence_time", "total_energy", "aggregate_throughput",
                "average_packet_delay")


def sweep(cfg: ScenarioConfig, spec: SweepSpec) -> list[dict]:
    """One row per swept value: mean and population std-dev of each metric over
    `sim.repetitions` seeds. Every cell is validated before any of them runs."""
    cells = []
    for value in spec.values:
        cell_cfg = copy.deepcopy(cfg)
        set_param(cell_cfg, spec.parameter, value)
        cells.append(cell_cfg)
    invalid = [violation for cell_cfg in cells for violation in validate_scenario(cell_cfg)]
    if invalid:
        raise ScenarioInvalid(invalid)
    rows = []
    for value, cell_cfg in zip(spec.values, cells):
        reps = cell_cfg.sim.repetitions
        reports = [run_experiment(cell_cfg, seed=cell_cfg.sim.seed + i) for i in range(reps)]
        row: dict = {"parameter": spec.parameter, "value": value, "repetitions": reps}
        for name in METRIC_NAMES:
            samples = [getattr(r, name) for r in reports]
            present = [s for s in samples if s is not None]
            row[f"{name}_mean"] = statistics.fmean(present) if present else None
            row[f"{name}_std"] = statistics.pstdev(present) if len(present) > 1 else 0.0
            if name == "convergence_time":
                row["converged_runs"] = len(present)
        rows.append(row)
    return rows


def sweep_csv(rows: list[dict], preamble: Optional[dict] = None) -> str:
    if not rows:
        return ""
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if row[k] is None else str(row[k]) for k in header))
    return format_preamble(preamble) + "\n".join(lines) + "\n"
