"""Spans around the public functions of each `rrrt` layer, for the traced run.

Each target is patched where its caller looks it up: a class attribute for
methods, the module attribute for functions that callers reach through the
module (`tp.build_sack` in `rrrt.nodes`), and the importing module's own
name for functions imported by name (`rrrt.nodes.mark_packet`). Every span
aggregates calls, total time and self time (total minus the time of the
spans it encloses) in memory. A target that no longer exists is reported as
missing and left alone.

Importing this module patches nothing; `Tracer.install()` does.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

# Span names are "<rrrt module>:<attribute path>".
REGISTER = "kernel:Simulator.register"
HANDLER = "kernel:handler"  # spans every handler that register() receives
KERNEL = ["kernel:Simulator.run_until", "kernel:Simulator.schedule"]
LOG = "kernel:SimulationTrace.log"
PARSE = "kernel:SimulationTrace.parse"
TOPOLOGY = [f"topology:Topology.{name}" for name in
            ("next_hop", "fault_mode", "link_fault_mode", "link", "sample_channel_delays")]
TOPOLOGY.append("topology:CaModel.sample")
ENQUEUE = "congestion:NodeBuffer.try_enqueue"
MARK = "nodes:mark_packet"
CONGESTION = [ENQUEUE, "congestion:NodeBuffer.release", "congestion:NodeBuffer.flag", MARK]
CONTROLLER = [f"controller:ReliabilityController.{name}" for name in
              ("on_data_packet", "close_interval", "broadcast_packet")]
CONTROLLER.append("nodes:check_delay_budget")
BUILD_SACK = "transport:build_sack"
SACK = [BUILD_SACK, "transport:on_sack", "transport:overdue_tail",
        "transport:SackInfo.received_set"]
TRANSPORT = [f"transport:{name}" for name in
             ("min_transmission_rate", "start_connection", "on_probe_forward",
              "feedback_from_probe", "apply_rate_feedback", "on_feedback_timeout",
              "build_sack", "on_sack", "overdue_tail", "SackInfo.highest",
              "SackInfo.received_set", "DeliveryGoal.delta_re2a")]
FORWARD_DATA = "nodes:NetworkRuntime.forward_data"
BROADCAST = "nodes:NetworkRuntime.broadcast"
CONTROL = ["nodes:NetworkRuntime.forward_control", BROADCAST]
APPS = [f"nodes:{cls}.{name}" for cls, names in (
    ("SensorSource", ("on_event", "on_frequency")),
    ("CrossTrafficSource", ("on_event", "on_frequency")),
    ("SubSinkApp", ("on_packet", "on_event")),
    ("TransportSenderApp", ("on_event", "on_control", "on_frequency")),
    ("TransportReceiverApp", ("on_packet", "on_control", "on_event")),
    ("FixedRateSenderApp", ("on_event", "on_control", "on_frequency")),
) for name in names]
AUDIT = "metrics:audit_trace"
REPORT = "runner:report_from_trace"
REPLAY = "runner:replay_text"
BUILD = ["runner:build_field", "runner:build_transport"]
PARSE_SCENARIO = "scenario:parse_scenario"

TARGETS = sorted(set(KERNEL + [LOG, PARSE] + TOPOLOGY + CONGESTION + CONTROLLER + TRANSPORT
                     + [FORWARD_DATA] + CONTROL + APPS
                     + [AUDIT, REPORT, REPLAY, PARSE_SCENARIO] + BUILD))


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.counters = defaultdict(int)
        self.missing: list[str] = []
        self._inner = [0.0]  # time covered by child spans, one slot per open span

    def span(self, name: str, fn, observe=None):
        clock = time.perf_counter
        inner, calls, total, own = self._inner, self.calls, self.total, self.own

        def wrapper(*args, **kwargs):
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = inner.pop()
                inner[-1] += elapsed
                calls[name] += 1
                total[name] += elapsed
                own[name] += elapsed - covered
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _patch(self, name: str, make) -> None:
        module_name, _, path = name.partition(":")
        *owners, attr = path.split(".")
        try:
            owner = importlib.import_module(f"rrrt.{module_name}")
        except ModuleNotFoundError:
            owner = None
        for part in owners:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            self.missing.append(name)
            return
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> None:
        from rrrt import congestion
        dropped = getattr(congestion, "DROPPED", None)
        counters = self.counters

        def count_overflow(args, result):
            counters["overflows"] += result == dropped

        def count_mark(args, result):
            counters["cn_marks"] += bool(args[1])

        def count_sack_input(args, result):
            counters["sack_input_seqs"] += len(args[0])

        observers = {ENQUEUE: count_overflow, MARK: count_mark, BUILD_SACK: count_sack_input}
        for name in TARGETS:
            self._patch(name, lambda fn, name=name: self.span(name, fn, observers.get(name)))

        def wrap_register(register):
            def traced_register(sim, node_id, handler):
                return register(sim, node_id, self.span(HANDLER, handler))
            return traced_register

        self._patch(REGISTER, wrap_register)

    def report(self) -> dict:
        return {
            "spans": {name: [self.calls[name], self.total[name], self.own[name]]
                      for name in self.calls},
            "counters": dict(self.counters),
            "missing": self.missing,
        }


def probe(cfg, harness) -> dict:
    """Counts read off the finished harness: queued events and retransmissions."""
    sender = getattr(harness, "sender", None)
    return {
        "pending": sum(1 for _ in harness.sim.pending_events()),
        "retx_count": getattr(sender, "retx_count", 0),
        "goal_packets": cfg.transport.goal_packets if sender is not None else 0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rep: dict) -> dict:
    """Per-layer figures of one traced repetition, before untraced normalisers."""
    spans = rep["spans"]
    counters = rep["counters"]

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    events = calls(HANDLER)
    scheduled = calls("kernel:Simulator.schedule")
    enqueues = calls(ENQUEUE)
    return {
        "kernel.events": events,
        "kernel.scheduled": scheduled,
        "kernel.cancelled_ratio": _ratio(scheduled - events - rep["pending"], scheduled),
        "kernel.self_s": own(*KERNEL),
        "kernel.log_self_s": own(LOG),
        "kernel.trace_rows": rep["trace_rows"],
        "kernel.trace_mb": rep["trace_mb"],
        "kernel.parse_s": total(PARSE),
        "topology.calls": calls(*TOPOLOGY),
        "topology.self_s": own(*TOPOLOGY),
        "congestion.enqueues": enqueues,
        "congestion.overflow_ratio": _ratio(counters.get("overflows", 0), enqueues),
        "congestion.cn_mark_ratio": _ratio(counters.get("cn_marks", 0), calls(MARK)),
        "congestion.self_s": own(*CONGESTION),
        "controller.packets": calls(CONTROLLER[0]),
        "controller.intervals": calls(CONTROLLER[1]),
        "controller.self_s": own(*CONTROLLER),
        "transport.feedbacks": calls("transport:apply_rate_feedback"),
        "transport.retx_ratio": _ratio(rep["retx_count"], rep["goal_packets"]),
        "transport.sack_builds": calls(BUILD_SACK),
        "transport.sack_input_seqs": counters.get("sack_input_seqs", 0),
        "transport.sack_self_s": own(*SACK),
        "transport.self_s": own(*TRANSPORT),
        "nodes.data_hops": calls(FORWARD_DATA),
        "nodes.data_self_s": own(FORWARD_DATA),
        "nodes.broadcasts": calls(BROADCAST),
        "nodes.control_self_s": own(*CONTROL),
        "nodes.app_self_s": own(*APPS),
        "nodes.dispatch_self_s": own(HANDLER),
        "metrics.audit_s": total(AUDIT),
        "metrics.report_s": total(REPORT),
        "metrics.replay_reduce_s": total(REPLAY) - total(PARSE),
        "runner.build_s": total(*BUILD),
        "scenario.parse_s": total(PARSE_SCENARIO),
    }


UNITS = {"_s": "s", "_ratio": "ratio", "_mb": "MB", "us_per_event": "us",
         "trace_overhead": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Lower median of each per-layer figure over the traced repetitions (so
    counts stay whole), plus the two figures that need the untraced ones: µs
    per event and the tracing overhead."""
    per_rep = [layer_metrics(rep) for rep in traced]
    result = {name: statistics.median_low(rep[name] for rep in per_rep) for name in per_rep[0]}
    loop_s = statistics.median(rep["loop_s"] for rep in untraced)
    result["kernel.us_per_event"] = _ratio(loop_s * 1e6, result["kernel.events"])
    result["bench.trace_overhead"] = (statistics.median(rep["wall_s"] for rep in traced)
                                      / statistics.median(rep["wall_s"] for rep in untraced))
    return result
