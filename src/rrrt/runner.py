"""Experiment orchestration: build a scenario into a live network, run it,
extract metrics, sweep parameters, replay serialized traces."""

from __future__ import annotations

import copy
import statistics
from dataclasses import dataclass
from typing import Optional

from . import transport as tp
from .controller import (DelayBudget, FrequencyBounds, ReliabilityController,
                         ReliabilityTargets)
from .kernel import SimulationTrace, Simulator
from .metrics import MetricsReport, audit_trace, reduce_trace
from .nodes import (CrossTrafficSource, FixedRateSenderApp, NetworkRuntime, SensorSource,
                    SubSinkApp, TransportReceiverApp, TransportSenderApp)
from .scenario import ScenarioConfig, SweepSpec, get_param, scenario_hash, set_param
from .topology import (CaModel, Link, NodeSpec, Topology, bit_rate_for_service,
                       grid_positions)

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
    nodes = [NodeSpec(SINK, "sub_sink", (0.0, topo_cfg.event_radius + 5.0))]
    nodes += [NodeSpec(name, "sensor", pos) for name, pos in zip(sources, positions)]
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
        nodes.append(NodeSpec(RELAY, "sensor", (0.0, 0.0)))
        nodes.append(NodeSpec(CROSS, "sensor", (5.0, 0.0)))
        for name, pos in zip(sources, positions):
            dist = max((pos[0] ** 2 + pos[1] ** 2) ** 0.5, 1.0)
            both_ways(name, RELAY, dist, topo_cfg.source_service_rate)
        both_ways(RELAY, SINK, 5.0, topo_cfg.relay_service_rate)
        both_ways(CROSS, RELAY, 5.0, topo_cfg.cross_service_rate)
    topo = Topology(nodes, links, _ca_model(cfg))
    topo.build_routes([SINK])
    return topo, sources


def build_transport_topology(cfg: ScenarioConfig) -> tuple[Topology, list[str]]:
    """Chain of relays between two sub-sinks; the first relay is the bottleneck."""
    xp = cfg.transport
    relays = [f"r{i + 1}" for i in range(xp.relays)]
    chain = [XP_SENDER] + relays + [XP_RECEIVER]
    nodes = [NodeSpec(name, "sub_sink" if name in (XP_SENDER, XP_RECEIVER) else "sensor",
                      (10.0 * i, 0.0)) for i, name in enumerate(chain)]
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
    topo = Topology(nodes, links, _ca_model(cfg))
    topo.build_routes([XP_SENDER, XP_RECEIVER])
    return topo, relays


@dataclass
class FieldHarness:
    sim: Simulator
    runtime: NetworkRuntime
    sink_app: SubSinkApp
    sources: list[SensorSource]

    def finalize(self) -> None:
        self.runtime.log_pending()


@dataclass
class TransportHarness:
    sim: Simulator
    runtime: NetworkRuntime
    sender: object
    receiver: TransportReceiverApp

    def finalize(self) -> None:
        self.runtime.log_pending()
        if isinstance(self.sender, TransportSenderApp):
            self.sender.log_pending()


def build_field(cfg: ScenarioConfig, seed: int) -> FieldHarness:
    topo, source_names = build_field_topology(cfg)
    sim = Simulator(seed)
    runtime = NetworkRuntime(sim, topo, cfg.topology.packet_len, cfg.topology.ctl_len,
                             cfg.congestion.buffer_capacity, cfg.congestion.epoch)
    runtime.children = topo.downstream_children(SINK)

    ctl = cfg.controller
    targets = ReliabilityTargets(dr_d=ctl.dr_d, t_sa=ctl.t_sa, beta=ctl.beta,
                                 interval_len=ctl.effective_interval())
    bounds = FrequencyBounds(f_min=ctl.f_min, f_cap=ctl.f_cap)
    controller = ReliabilityController(targets, bounds, ctl.f_init,
                                       eq4_alt=cfg.switches.eq4_alt,
                                       eq6_alt=cfg.switches.eq6_alt)
    budget = None
    if cfg.budget.delta_e2a > 0:
        budget = DelayBudget(cfg.budget.delta_e2a, cfg.budget.ep_del, cfg.budget.a_del)
    sink_app = SubSinkApp(runtime, SINK, controller, budget)
    runtime.attach_app(SINK, sink_app)

    sources = []
    for name in source_names:
        src = SensorSource(runtime, name, SINK, ctl.f_init)
        runtime.attach_app(name, src)
        sources.append(src)
    if cfg.topology.layout == "relay" and cfg.cross_traffic.rate > 0:
        cross = CrossTrafficSource(runtime, CROSS, SINK, cfg.cross_traffic.rate,
                                   cfg.cross_traffic.start, cfg.cross_traffic.stop)
        runtime.attach_app(CROSS, cross)
        cross.start(0.0)

    sink_app.start(0.0)
    for src in sources:
        src.start(0.0)
    return FieldHarness(sim, runtime, sink_app, sources)


def build_transport(cfg: ScenarioConfig, seed: int) -> TransportHarness:
    topo, _ = build_transport_topology(cfg)
    sim = Simulator(seed)
    runtime = NetworkRuntime(sim, topo, cfg.topology.packet_len, cfg.topology.ctl_len,
                             cfg.transport.capacity, cfg.congestion.epoch)
    xp = cfg.transport
    receiver = TransportReceiverApp(runtime, XP_RECEIVER, XP_SENDER, xp.t_fdbk,
                                    sack_enabled=cfg.switches.sack)
    runtime.attach_app(XP_RECEIVER, receiver)
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
    runtime.attach_app(XP_SENDER, sender)
    receiver.start(0.0)
    sender.start(0.0)
    return TransportHarness(sim, runtime, sender, receiver)


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


def run_and_serialize(cfg: ScenarioConfig, seed: Optional[int] = None) -> tuple[MetricsReport, str]:
    """Run and return (report, serialized trace with preamble)."""
    report, trace, preamble = run_traced(cfg, seed)
    return report, trace.serialize(preamble)


def report_from_trace(trace: SimulationTrace, cfg: ScenarioConfig, seed: int,
                      budget=None) -> MetricsReport:
    """Report of a live run's finished trace.

    `budget` is ignored and kept only for callers that still pass it: the
    delay budget is reduced from the trace's deliver rows, as on replay.
    """
    return reduce_trace(trace, trace_preamble(cfg, seed))


def replay_text(text: str) -> MetricsReport:
    """Recompute the metrics of a serialized trace; matches the original exactly."""
    return reduce_trace(*SimulationTrace.parse(text))


def replay(path: str) -> MetricsReport:
    with open(path, "r", encoding="utf-8") as fp:
        return replay_text(fp.read())


METRIC_NAMES = ("convergence_time", "total_energy", "aggregate_throughput",
                "average_packet_delay")


def sweep(cfg: ScenarioConfig, spec: SweepSpec) -> list[dict]:
    """One row per swept value: mean and population std-dev of each metric."""
    get_param(cfg, spec.parameter)  # raises UnknownParameter early
    rows = []
    for value in spec.values:
        cell_cfg = copy.deepcopy(cfg)
        set_param(cell_cfg, spec.parameter, value)
        reports = [run_experiment(cell_cfg, seed=cell_cfg.sim.seed + i)
                   for i in range(spec.repetitions)]
        row: dict = {"parameter": spec.parameter, "value": value,
                     "repetitions": spec.repetitions}
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
    lines = [f"# {k}={v}" for k, v in (preamble or {}).items()]
    header = list(rows[0].keys())
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join("" if row[k] is None else str(row[k]) for k in header))
    return "\n".join(lines) + "\n"
