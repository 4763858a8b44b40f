"""Node actors and the shared forwarding runtime.

The runtime owns the data-plane pipeline (buffer admission, the sampled
per-hop delay, link loss, fault handling) and the control plane (unbuffered
probe/feedback forwarding, frequency-broadcast flooding down the reverse
route tree). Applications sit on top: sensor sources, the sub-sink
reliability controller, the rate-controlled transport sender/receiver, a
cross-traffic generator and a naive fixed-rate sender for comparisons.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from . import transport as tp
from .congestion import DROPPED, NodeBuffer, mark_packet
from .controller import DelayBudget, ReliabilityController, check_delay_budget
from .errors import NoRoute, StaleFeedback
from .kernel import SimEvent, Simulator
from .packet import KIND_DATA, KIND_FEEDBACK, KIND_PROBE, Packet
from .topology import DelayBreakdown, Topology

_TIME_EPS = 1e-12


class NetworkRuntime:
    """Packet movement over a topology: one egress buffer per node, faults, loss."""

    def __init__(self, sim: Simulator, topo: Topology, packet_len: float, ctl_len: float,
                 buffer_capacity: int, epoch_len: float):
        self.sim = sim
        self.topo = topo
        self.packet_len = packet_len
        self.ctl_len = ctl_len
        self.buffers = {node: NodeBuffer(buffer_capacity, epoch_len) for node in topo.nodes}
        self.busy_until = {node: 0.0 for node in topo.nodes}  # egress radio virtual clock
        self.apps: dict[str, object] = {}
        self.children: dict[str, list[str]] = {}
        self._rngs = {}
        for node in topo.nodes:
            sim.register(node, self._dispatch)

    def rng_of(self, node: str):
        rng = self._rngs.get(node)
        if rng is None:
            rng = self.sim.rng(f"node:{node}")
            self._rngs[node] = rng
        return rng

    def attach_app(self, node: str, app) -> None:
        self.apps[node] = app

    # -- data plane ----------------------------------------------------------

    def forward_data(self, node: str, pkt: Packet) -> None:
        """Admit a packet to `node`'s egress buffer towards pkt.dst, or drop it."""
        sim = self.sim
        now = sim.now
        try:
            hop = self.topo.next_hop(node, pkt.dst, now)
        except NoRoute:
            sim.trace.log(now, node, "drop", pkt.pid, -1, "no_route")
            return
        if self.topo.fault_mode(node, now) is not None:
            sim.trace.log(now, node, "drop", pkt.pid, -1, "fault")
            return
        buf = self.buffers[node]
        depth = buf.occupancy
        if buf.try_enqueue(now) == DROPPED:
            sim.trace.log(now, node, "drop", pkt.pid, -1, "overflow")
            return
        link = self.topo.links[(node, hop)]
        wait = max(self.busy_until[node] - now, 0.0)
        bd = self.topo.sample_channel_delays((node, hop), self.packet_len, wait,
                                             self.rng_of(node))
        self.busy_until[node] = now + bd.b_del + bd.ca_del + bd.t_del
        mark_packet(pkt, buf.flag(now))
        if pkt.bottleneck_delay is not None and node != pkt.src:
            tp.on_probe_forward(pkt, (depth + 1) / link.service_rate)
        pkt.b_sum += bd.b_del
        pkt.ca_sum += bd.ca_del
        pkt.t_sum += bd.t_del
        pkt.p_sum += bd.p_del
        copy = sim.new_copy()
        sim.trace.log(now, node, "send", pkt.pid, copy, "", bd.total())
        lost = link.loss > 0.0 and self.rng_of(node).random() < link.loss
        depart = bd.b_del + bd.ca_del + bd.t_del
        sim.schedule(SimEvent(now + depart, node, "dep", (pkt, hop, copy, bd.p_del, lost)))

    def _on_depart(self, sim: Simulator, event: SimEvent) -> None:
        pkt, hop, copy, p_del, lost = event.payload
        node = event.target
        now = sim.now
        self.buffers[node].release(now)
        if (self.topo.fault_mode(node, now) is not None
                or self.topo.link_fault_mode(node, hop, now) is not None):
            sim.trace.log(now, node, "drop", pkt.pid, copy, "fault")
            return
        if lost:
            sim.trace.log(now, node, "drop", pkt.pid, copy, "loss")
            return
        sim.schedule(SimEvent(now + p_del, hop, "arr", (pkt, copy)))

    def _survives_arrival(self, node: str, pkt: Packet, copy: int) -> bool:
        """Log a copy's arrival at `node` under the node's fault mode.

        A crashed node never receives it; a drop-all node receives and then
        drops it. Returns whether the packet lives on at `node`.
        """
        sim = self.sim
        now = sim.now
        mode = self.topo.fault_mode(node, now)
        if mode == "crash":
            sim.trace.log(now, node, "drop", pkt.pid, copy, "fault")
            return False
        sim.trace.log(now, node, "receive", pkt.pid, copy)
        if mode == "drop-all":
            sim.trace.log(now, node, "drop", pkt.pid, copy, "fault")
            return False
        return True

    def _on_arrive(self, sim: Simulator, event: SimEvent) -> None:
        pkt, copy = event.payload
        node = event.target
        if not self._survives_arrival(node, pkt, copy):
            return
        if node == pkt.dst:
            self.apps[node].on_packet(pkt, sim.now)
        else:
            self.forward_data(node, pkt)

    # -- control plane ---------------------------------------------------------

    def forward_control(self, node: str, pkt: Packet) -> None:
        """Unbuffered hop towards pkt.dst; probes measure the data queue in passing."""
        sim = self.sim
        now = sim.now
        try:
            hop = self.topo.next_hop(node, pkt.dst, now)
        except NoRoute:
            sim.trace.log(now, node, "drop", pkt.pid, -1, "no_route")
            return
        if (self.topo.fault_mode(node, now) is not None
                or self.topo.link_fault_mode(node, hop, now) is not None):
            sim.trace.log(now, node, "drop", pkt.pid, -1, "fault")
            return
        link = self.topo.links[(node, hop)]
        if pkt.kind == KIND_PROBE and node != pkt.src:
            occupancy = self.buffers[node].occupancy
            tp.on_probe_forward(pkt, (occupancy + 1) / link.service_rate)
        delay = (self.topo.ca_model.sample(self.rng_of(node))
                 + self.ctl_len / link.bit_rate + link.propagation())
        copy = sim.new_copy()
        sim.trace.log(now, node, "send", pkt.pid, copy, "", delay)
        sim.schedule(SimEvent(now + delay, hop, "ctl_arr", (pkt, copy)))

    def _on_ctl_arrive(self, sim: Simulator, event: SimEvent) -> None:
        pkt, copy = event.payload
        node = event.target
        if not self._survives_arrival(node, pkt, copy):
            return
        if node == pkt.dst:
            self.apps[node].on_control(pkt, sim.now)
        else:
            self.forward_control(node, pkt)

    # -- frequency broadcast -----------------------------------------------------

    def broadcast(self, node: str, pkt: Packet) -> None:
        """Flood down the reverse route tree: one transmission reaches all children."""
        kids = self.children.get(node)
        if not kids:
            return
        sim = self.sim
        now = sim.now
        sim.trace.log(now, node, "send", pkt.pid, -1)
        ca = self.topo.ca_model.sample(self.rng_of(node))
        for kid in kids:
            link = self.topo.links[(node, kid)]
            delay = ca + self.ctl_len / link.bit_rate + link.propagation()
            sim.schedule(SimEvent(now + delay, kid, "bcast_arr", pkt))

    def _on_broadcast_arrive(self, sim: Simulator, event: SimEvent) -> None:
        pkt = event.payload
        node = event.target
        if not self._survives_arrival(node, pkt, -1):
            return
        app = self.apps.get(node)
        if app is not None and hasattr(app, "on_frequency"):
            app.on_frequency(pkt.payload, sim.now)
        self.broadcast(node, pkt)

    # -- dispatch / horizon -----------------------------------------------------

    def _dispatch(self, sim: Simulator, event: SimEvent) -> None:
        kind = event.kind
        if kind == "dep":
            self._on_depart(sim, event)
        elif kind == "arr":
            self._on_arrive(sim, event)
        elif kind == "ctl_arr":
            self._on_ctl_arrive(sim, event)
        elif kind == "bcast_arr":
            self._on_broadcast_arrive(sim, event)
        else:
            self.apps[event.target].on_event(sim, event)

    def log_pending(self) -> None:
        """Account for packets still queued or in flight when the horizon hits."""
        sim = self.sim
        now = sim.now
        for event in sim.pending_events():
            if event.kind == "dep":
                pkt, _, copy, _, _ = event.payload
                sim.trace.log(now, event.target, "pending", pkt.pid, copy, "queued")
            elif event.kind in ("arr", "ctl_arr"):
                pkt, copy = event.payload
                sim.trace.log(now, event.target, "pending", pkt.pid, copy, "in_flight")
            elif event.kind == "bcast_arr":
                pkt = event.payload
                sim.trace.log(now, event.target, "pending", pkt.pid, -1, "in_flight")


class SensorSource:
    """Event source: reports at the broadcast frequency with a dithered phase."""

    def __init__(self, runtime: NetworkRuntime, node: str, sink: str, f_init: float,
                 flow: str = "data"):
        self.runtime = runtime
        self.node = node
        self.sink = sink
        self.flow = flow
        self.f = f_init
        self.rng = runtime.sim.rng(f"src:{node}")
        self._gen_handle = None

    def start(self, now: float) -> None:
        self._schedule_next(now, dither=True)

    def _schedule_next(self, now: float, dither: bool = False) -> None:
        period = 1.0 / self.f
        delay = self.rng.random() * period if dither else period
        self._gen_handle = self.runtime.sim.schedule(
            SimEvent(now + delay, self.node, "gen", None))

    def on_event(self, sim: Simulator, event: SimEvent) -> None:
        if event.kind != "gen":
            return
        now = sim.now
        pkt = Packet(pid=sim.new_pid(), kind=KIND_DATA, flow=self.flow, src=self.node,
                     dst=self.sink, gen_time=now)
        sim.trace.log(now, self.node, "generate", pkt.pid)
        self.runtime.forward_data(self.node, pkt)
        self._schedule_next(now)

    def on_frequency(self, f_new: float, now: float) -> None:
        # Re-dither on every broadcast, not only on changes: keeps the field
        # desynchronized so per-interval counts do not beat quasi-periodically.
        self.f = f_new
        if self._gen_handle is not None:
            self._gen_handle.cancel()
        self._schedule_next(now, dither=True)


class CrossTrafficSource:
    """Background load within a time window; packets are not counted by the controller."""

    def __init__(self, runtime: NetworkRuntime, node: str, sink: str, rate: float,
                 start: float, stop: float):
        self.runtime = runtime
        self.node = node
        self.sink = sink
        self.rate = rate
        self.stop = stop
        self.start_at = start

    def start(self, now: float) -> None:
        if self.rate > 0.0:
            self.runtime.sim.schedule(
                SimEvent(max(now, self.start_at), self.node, "gen", None))

    def on_event(self, sim: Simulator, event: SimEvent) -> None:
        now = sim.now
        if now >= self.stop:
            return
        pkt = Packet(pid=sim.new_pid(), kind=KIND_DATA, flow="cross", src=self.node,
                     dst=self.sink, gen_time=now)
        sim.trace.log(now, self.node, "generate", pkt.pid)
        self.runtime.forward_data(self.node, pkt)
        sim.schedule(SimEvent(now + 1.0 / self.rate, self.node, "gen", None))

    def on_frequency(self, f_new: float, now: float) -> None:
        pass  # cross traffic ignores controller broadcasts


class SubSinkApp:
    """Sub-sink endpoint: interval accounting, frequency updates, broadcasts.

    With a delay budget, a data delivery's reason says whether the budget held
    in literal and in full-sum mode ("10": literal only); the report reads it.
    """

    def __init__(self, runtime: NetworkRuntime, node: str, controller: ReliabilityController,
                 budget: Optional[DelayBudget] = None):
        self.runtime = runtime
        self.node = node
        self.controller = controller
        self.budget = budget

    def start(self, now: float) -> None:
        interval = self.controller.targets.interval_len
        self.runtime.sim.schedule(SimEvent(now + interval, self.node, "interval", None))

    def on_packet(self, pkt: Packet, now: float) -> None:
        sim = self.runtime.sim
        reason = ""
        if self.budget is not None and pkt.flow == "data":
            observed = DelayBreakdown(pkt.b_sum, pkt.ca_sum, pkt.t_sum, pkt.p_sum)
            lit = check_delay_budget(self.budget, observed, mode="literal")
            full = check_delay_budget(self.budget, observed, mode="full-sum")
            reason = f"{int(lit)}{int(full)}"
        sim.trace.log(now, self.node, "deliver", pkt.pid, -1, reason, pkt.gen_time, pkt.flow)
        if pkt.flow == "data":
            self.controller.on_data_packet(pkt, now)

    def on_event(self, sim: Simulator, event: SimEvent) -> None:
        if event.kind != "interval":
            return
        now = sim.now
        row = self.controller.close_interval(now)
        sim.trace.log(now, self.node, "interval", -1, -1, "", None, row.encode())
        bcast = self.controller.broadcast_packet(sim.new_pid(), self.node, now)
        self.runtime.broadcast(self.node, bcast)
        interval = self.controller.targets.interval_len
        sim.schedule(SimEvent(now + interval, self.node, "interval", None))


class TransportSenderApp:
    """Rate-controlled reliable sender between two sub-sinks."""

    def __init__(self, runtime: NetworkRuntime, node: str, peer: str,
                 goal: tp.DeliveryGoal, state: tp.TransportState, sack_enabled: bool = True,
                 flow: str = "xfer"):
        self.runtime = runtime
        self.node = node
        self.peer = peer
        self.goal = goal
        self.state = state
        self.sack_enabled = sack_enabled
        self.flow = flow
        self.total = goal.b_remaining
        self.next_new = 1
        self.seq_pid: dict[int, int] = {}
        self.seq_gen: dict[int, float] = {}
        self.retx_buffer: dict[int, float] = {}
        self.retx_queue: deque[int] = deque()
        self.queued: set[int] = set()
        self.last_fb_arrival = -math.inf
        self.start_time = 0.0
        self.retx_count = 0
        self.deadline_logged = False
        self._pace_handle = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, now: float) -> None:
        self.start_time = now
        self._send_probe(now)
        self.runtime.sim.schedule(
            SimEvent(now + self._miss_threshold(), self.node, "watchdog", None))
        self._log_state(now, 0.0)

    def _miss_threshold(self) -> float:
        # one feedback period plus one RTT estimate of grace for control latency
        return self.state.t_fdbk + self.state.rtt_estimate

    def _send_probe(self, now: float) -> None:
        sim = self.runtime.sim
        pkt = Packet(pid=sim.new_pid(), kind=KIND_PROBE, flow="ctl", src=self.node,
                     dst=self.peer, gen_time=now, bottleneck_delay=0.0)
        self.runtime.forward_control(self.node, pkt)

    def on_event(self, sim: Simulator, event: SimEvent) -> None:
        kind = event.kind
        if kind == "pace":
            self._pace_handle = None
            self._pace(sim.now)
        elif kind == "watchdog":
            self._watchdog(sim.now)
        elif kind == "probe_tick":
            if self.state.phase is tp.Phase.PROBE:
                self._send_probe(sim.now)
                sim.schedule(SimEvent(sim.now + self.state.t_p, self.node, "probe_tick", None))

    def _watchdog(self, now: float) -> None:
        sim = self.runtime.sim
        last = self.last_fb_arrival if self.last_fb_arrival > -math.inf else self.start_time
        due = last + self._miss_threshold()
        if now < due - _TIME_EPS:
            sim.schedule(SimEvent(due, self.node, "watchdog", None))
            return
        was_probing = self.state.phase is tp.Phase.PROBE
        tp.on_feedback_timeout(self.state, now)
        self._log_state(now, 0.0)
        if self.state.phase is tp.Phase.PROBE and not was_probing:
            self._send_probe(now)
            sim.schedule(SimEvent(now + self.state.t_p, self.node, "probe_tick", None))
        sim.schedule(SimEvent(now + self.state.t_fdbk, self.node, "watchdog", None))

    # -- control arrivals -----------------------------------------------------

    def on_control(self, pkt: Packet, now: float) -> None:
        if pkt.kind != KIND_FEEDBACK:
            return
        fb, sack = pkt.payload
        self.last_fb_arrival = now
        try:
            tp.apply_rate_feedback(self.state, fb)
        except StaleFeedback:
            return
        if self.sack_enabled and sack is not None:
            batch = tp.on_sack(self.state, sack, self.retx_buffer, now)
            tail = tp.overdue_tail(self.state, sack, self.retx_buffer, now,
                                   all_sent=self.next_new > self.total)
            for seq in batch + tail:
                if seq not in self.queued:
                    self.queued.add(seq)
                    self.retx_queue.append(seq)
        else:
            # without SACK the buffer only shrinks via the cumulative ack
            if sack is not None:
                for seq in list(self.retx_buffer):
                    if seq <= sack.cumulative_ack:
                        del self.retx_buffer[seq]
        self._log_state(now, fb.r_f)
        self._ensure_pacing(now)

    def _ensure_pacing(self, now: float) -> None:
        if self._pace_handle is not None:
            return
        if self.state.phase not in (tp.Phase.INCREASE, tp.Phase.DECREASE, tp.Phase.HOLD):
            return
        if not self.retx_queue and self.next_new > self.total:
            return
        self._pace_handle = self.runtime.sim.schedule(
            SimEvent(now, self.node, "pace", None))

    # -- data path --------------------------------------------------------------

    def _pace(self, now: float) -> None:
        state = self.state
        if state.phase not in (tp.Phase.INCREASE, tp.Phase.DECREASE, tp.Phase.HOLD):
            return
        if not self.retx_queue and self.next_new > self.total:
            return
        remaining = len(self.retx_buffer) + max(self.total - self.next_new + 1, 0)
        delta = self.goal.delta_re2a(now)
        if delta > 0:
            floor = tp.min_transmission_rate(remaining, delta)
            state.r_min = floor
            if state.r_c < floor:
                state.r_c = floor
        elif remaining > 0 and not self.deadline_logged:
            self.deadline_logged = True
            self.runtime.sim.trace.log(now, self.node, "conn", -1, -1, "deadline_expired")
        self._send_one(now)
        self._pace_handle = self.runtime.sim.schedule(
            SimEvent(now + 1.0 / state.r_c, self.node, "pace", None))

    def _send_one(self, now: float) -> None:
        sim = self.runtime.sim
        if self.retx_queue:
            seq = self.retx_queue.popleft()
            self.queued.discard(seq)
            if seq not in self.retx_buffer:  # acked while waiting in the queue
                return
            self.retx_count += 1
            pid = self.seq_pid[seq]
        else:
            seq = self.next_new
            self.next_new += 1
            pid = sim.new_pid()
            self.seq_pid[seq] = pid
            self.seq_gen[seq] = now
            sim.trace.log(now, self.node, "generate", pid)
        pkt = Packet(pid=pid, kind=KIND_DATA, flow=self.flow, src=self.node, dst=self.peer,
                     gen_time=self.seq_gen[seq], seq=seq, bottleneck_delay=0.0)
        self.retx_buffer[seq] = now
        self.runtime.forward_data(self.node, pkt)

    def _log_state(self, now: float, r_f: float) -> None:
        state = self.state
        info = (f"phase={state.phase.value};r_c={state.r_c!r};r_f={r_f!r};"
                f"r_min={state.r_min!r};missed={state.missed_feedback};retx={self.retx_count}")
        self.runtime.sim.trace.log(now, self.node, "conn", -1, -1, "", None, info)

    def log_pending(self) -> None:
        sim = self.runtime.sim
        for seq in sorted(self.retx_buffer):
            sim.trace.log(sim.now, self.node, "pending", self.seq_pid[seq], -1, "unacked")

    def on_frequency(self, f_new: float, now: float) -> None:
        pass


class TransportReceiverApp:
    """Receiving sub-sink: dedup delivery, path estimation, periodic feedback."""

    def __init__(self, runtime: NetworkRuntime, node: str, peer: str, t_fdbk: float,
                 sack_enabled: bool = True):
        self.runtime = runtime
        self.node = node
        self.peer = peer
        self.t_fdbk = t_fdbk
        self.sack_enabled = sack_enabled
        self.received: set[int] = set()
        self.path: Optional[Packet] = None  # latest arrival carrying a path measurement

    def start(self, now: float) -> None:
        self.runtime.sim.schedule(SimEvent(now + self.t_fdbk, self.node, "fb_tick", None))

    def _note_path(self, pkt: Packet) -> None:
        if pkt.bottleneck_delay is not None and pkt.bottleneck_delay > 0.0:
            self.path = pkt

    def on_packet(self, pkt: Packet, now: float) -> None:
        self._note_path(pkt)
        if pkt.seq is not None:
            if pkt.seq in self.received:
                return  # duplicate: already handed to the application
            self.received.add(pkt.seq)
        self.runtime.sim.trace.log(now, self.node, "deliver", pkt.pid, -1, "",
                                   pkt.gen_time, pkt.flow)

    def on_control(self, pkt: Packet, now: float) -> None:
        if pkt.kind == KIND_PROBE:
            self._note_path(pkt)
            self._send_feedback(now)

    def on_event(self, sim: Simulator, event: SimEvent) -> None:
        if event.kind != "fb_tick":
            return
        self._send_feedback(sim.now)
        sim.schedule(SimEvent(sim.now + self.t_fdbk, self.node, "fb_tick", None))

    def _send_feedback(self, now: float) -> None:
        if self.path is None:
            return
        sim = self.runtime.sim
        fb = tp.feedback_from_probe(self.path, issued_at=now)
        sack = tp.build_sack(self.received) if self.sack_enabled else tp.build_sack(set())
        pkt = Packet(pid=sim.new_pid(), kind=KIND_FEEDBACK, flow="ctl", src=self.node,
                     dst=self.peer, gen_time=now, payload=(fb, sack))
        self.runtime.forward_control(self.node, pkt)


class FixedRateSenderApp:
    """Naive comparison sender: constant rate, no feedback handling, no recovery."""

    def __init__(self, runtime: NetworkRuntime, node: str, peer: str, total: int,
                 rate: float, flow: str = "xfer"):
        self.runtime = runtime
        self.node = node
        self.peer = peer
        self.total = total
        self.rate = rate
        self.flow = flow
        self.next_seq = 1

    def start(self, now: float) -> None:
        self.runtime.sim.schedule(SimEvent(now, self.node, "pace", None))

    def on_event(self, sim: Simulator, event: SimEvent) -> None:
        if event.kind != "pace" or self.next_seq > self.total:
            return
        now = sim.now
        seq = self.next_seq
        self.next_seq += 1
        pkt = Packet(pid=sim.new_pid(), kind=KIND_DATA, flow=self.flow, src=self.node,
                     dst=self.peer, gen_time=now, seq=seq, bottleneck_delay=0.0)
        sim.trace.log(now, self.node, "generate", pkt.pid)
        self.runtime.forward_data(self.node, pkt)
        if self.next_seq <= self.total:
            sim.schedule(SimEvent(now + 1.0 / self.rate, self.node, "pace", None))

    def on_control(self, pkt: Packet, now: float) -> None:
        pass  # ignores feedback entirely

    def on_frequency(self, f_new: float, now: float) -> None:
        pass
