"""Node actors and the shared forwarding runtime.

The runtime owns the data-plane pipeline (buffer admission, the sampled
per-hop delay, link loss, fault handling) and the control plane (unbuffered
probe/feedback forwarding, frequency-broadcast flooding down the reverse
route tree). Each node's `NodeBuffer` is its egress queue, its CN flag and
its radio's clock. Data and control hops share one send-side step (`_route`:
next hop, sender fault, path measurement). Every hop of the three planes
reads its delays and the sender's random stream from one hop record (`_hop`).
A hop's delay is channel access, transmission and propagation; a data hop
waits for its buffer first, and a flood draws one channel access.
Applications sit on top: sensor sources, the sub-sink reliability
controller, the rate-controlled transport sender/receiver, a cross-traffic
generator and a naive fixed-rate sender for comparisons.

The runtime handles the kernel's event kinds `dep`, `app` and one arrival
kind per plane (`PLANES`), whose payload is `(pkt, copy)`, copy -1 for a
broadcast: one step (`_arrival`) handles them all. An `app` event is an app
timer whose payload is its tag (`gen`, `interval`, `pace`, ...), passed to
the node's app as `on_event(sim, tag)` unless the node has crashed. A source
keeps the ordinal of its live `gen` timer; one superseded by a broadcast's
re-dither fires and does nothing.

A data copy's fate is decided on admission, where its departure time is
known (`busy_until` is the FIFO server's recursion) and every fault is already
set. A copy lost on its link (drawn at send), or whose node or link is faulted
at its departure, gets a `dep` event then, which only logs its drop; any other
copy gets its `arr` at its arrival. The copy's one ordinal is that event's,
and its departure waits on the buffer's `due` FIFO under it. `NodeBuffer.settle`
frees the departures that come before the event being handled, ties included:
before an admission and before a probe reads the occupancy. At the horizon a
copy still on a FIFO is logged `queued`, in its departure's place.

Faults are set before the run: `inject_fault` refuses once a copy waits on a
FIFO, since that copy's departure was decided without the fault. Until a
fault is set (`topo.has_faults`), no hop or arrival looks one up. The rows of
every packet (generate, send, receive, deliver) are written with
`SimulationTrace.append_row`, and `settle` is called only while `due` holds a
copy.
"""

from __future__ import annotations

from collections import deque
from random import Random
from typing import Optional

from . import transport as tp
from .congestion import DROPPED, NodeBuffer, mark_packet
from .controller import ReliabilityController, check_delay_budget
from .errors import NoRoute, PastTime, StaleFeedback
from .kernel import Simulator
from .packet import Packet
from .scenario import BudgetCfg
from .topology import Link, Topology

_TIME_EPS = 1e-12
Hop = tuple[Link, float, float, float, Random]  # see NetworkRuntime._hop

# arrival kind -> (app method at pkt's destination, runtime method elsewhere)
PLANES = {"arr": ("on_packet", "forward_data"), "ctl_arr": ("on_control", "forward_control"),
          "bcast_arr": (None, "_relay_broadcast")}


class NetworkRuntime:
    """Packet movement over a topology: one egress buffer per node, faults, loss."""

    def __init__(self, sim: Simulator, topo: Topology, packet_len: float, ctl_len: float,
                 buffer_capacity: int, epoch_len: float):
        self.sim = sim
        self.topo = topo
        self.packet_len = packet_len
        self.ctl_len = ctl_len
        self.buffers = {node: NodeBuffer(buffer_capacity, epoch_len) for node in topo.nodes}
        self.apps: dict[str, object] = {}
        self.children: dict[str, list[str]] = {}
        self._hops: dict[tuple[str, str], Hop] = {}
        sim.register("dep", self._on_depart)
        sim.register("app", self._on_app)
        for kind, (deliver, forward) in PLANES.items():
            sim.register(kind, self._arrival(deliver, forward))

    def _hop(self, node: str, dst: str, next_node: str) -> Hop:
        """Record `node`'s hop towards `dst` through `next_node`: the link, its data
        and control transmission delays, its propagation delay and `node`'s stream."""
        link = self.topo.links[(node, next_node)]
        hop = self._hops[node, dst] = (link, self.packet_len / link.bit_rate,
                                       self.ctl_len / link.bit_rate, link.propagation(),
                                       self.sim.rng(f"node:{node}"))
        return hop

    def _arrival(self, deliver: Optional[str], forward: str):
        """The kernel's handler for one plane's arrivals: `node` logs its receive,
        unless it has crashed; then a faulty node drops the copy, the packet's
        destination delivers it and any other node forwards it. `forward` is
        bound now, and each app's `deliver` at its node's first delivery: a
        getattr per delivery measurably slows the loop."""
        topo, apps, forward = self.topo, self.apps, getattr(self, forward)
        delivers = {}  # node -> its app's bound `deliver` method

        def on_arrive(sim: Simulator, node: str, payload: tuple) -> None:
            pkt, copy = payload
            now = sim.now
            mode = topo.fault_mode(node, now) if topo.has_faults else None
            if mode is None or mode == "drop-all":
                sim.trace.append_row((now, node, "receive", pkt.pid, copy, "", None, ""))
            if mode is not None:
                sim.trace.log(now, node, "drop", pkt.pid, copy, "fault")
            elif node == pkt.dst:
                take = delivers.get(node)
                if take is None:
                    take = delivers[node] = getattr(apps[node], deliver)
                take(pkt, now)
            else:
                forward(node, pkt)
        return on_arrive

    # -- data plane ----------------------------------------------------------

    def _route(self, node: str, pkt: Packet) -> Optional[Hop]:
        """The hop record towards pkt.dst, or None after logging why pkt cannot
        leave `node`. Past its source, a packet that carries a path measurement
        has its bottleneck raised to this node's per-packet queue delay."""
        sim = self.sim
        now = sim.now
        topo = self.topo
        if topo.has_faults:
            try:
                topo.next_hop(node, pkt.dst, now)
            except NoRoute:
                sim.trace.log(now, node, "drop", pkt.pid, -1, "no_route")
                return None
            if topo.fault_mode(node, now) is not None:
                sim.trace.log(now, node, "drop", pkt.pid, -1, "fault")
                return None
        hop = self._hops.get((node, pkt.dst))
        if hop is None:
            next_node = topo.routes.get((node, pkt.dst))  # never set for node == dst
            if next_node is None:
                sim.trace.log(now, node, "drop", pkt.pid, -1, "no_route")
                return None
            hop = self._hop(node, pkt.dst, next_node)
        if pkt.bottleneck_delay is not None and node != pkt.src:
            buf = self.buffers[node]
            if buf.due:
                buf.settle(now, sim.ordinal)
            tp.on_probe_forward(pkt, (buf.occupancy + 1) / hop[0].service_rate)
        return hop

    def forward_data(self, node: str, pkt: Packet) -> None:
        """Admit a packet to `node`'s egress buffer towards pkt.dst, or drop it."""
        hop = self._route(node, pkt)
        if hop is None:
            return
        link, t_del, _, p_del, rng = hop
        sim = self.sim
        now = sim.now
        buf = self.buffers[node]
        if buf.due:
            buf.settle(now, sim.ordinal)
        if buf.try_enqueue(now) == DROPPED:
            sim.trace.log(now, node, "drop", pkt.pid, -1, "overflow")
            return
        # Buffering (waiting for the radio), channel access, transmission, propagation.
        b_del = buf.busy_until - now
        if b_del < 0.0:
            b_del = 0.0
        ca_del = self.topo.ca_model.sample(rng)
        buf.busy_until = now + b_del + ca_del + t_del
        mark_packet(pkt, buf.cn)
        pkt.b_sum += b_del
        copy = sim.new_copy()
        depart = b_del + ca_del + t_del
        sim.trace.append_row((now, node, "send", pkt.pid, copy, "", depart + p_del, ""))
        # Drawn before the fault check, so a fault never shifts the stream's later draws.
        lost = link.loss > 0.0 and rng.random() < link.loss
        departs = now + depart
        topo = self.topo
        if topo.has_faults and (topo.fault_mode(node, departs) is not None
                                or topo.link_fault_mode(node, link.dst, departs) is not None):
            ordinal = sim.schedule(departs, "dep", node, (pkt, copy, "fault"))
        elif lost:
            ordinal = sim.schedule(departs, "dep", node, (pkt, copy, "loss"))
        else:
            ordinal = sim.schedule(departs + p_del, "arr", link.dst, (pkt, copy))
        buf.due.append((departs, ordinal))

    def inject_fault(self, target, at: float, mode: str = "crash") -> None:
        """Fault a node or a link from `at` on (see `Topology.inject_fault`),
        before the run: PastTime while a buffer's `due` FIFO holds a copy,
        whose departure was decided on admission without the fault."""
        for node, buf in self.buffers.items():
            if buf.due:
                raise PastTime(f"fault set at t={self.sim.now} after a copy was queued at {node}")
        self.topo.inject_fault(target, at, mode)

    def _on_depart(self, sim: Simulator, node: str, payload: tuple) -> None:
        """A copy found lost or faulted on admission leaves `node`: log its drop.
        Its slot is freed from the `due` FIFO, as every copy's is."""
        pkt, copy, reason = payload
        sim.trace.log(sim.now, node, "drop", pkt.pid, copy, reason)

    # -- control plane ---------------------------------------------------------

    def forward_control(self, node: str, pkt: Packet) -> None:
        """Unbuffered hop towards pkt.dst; probes measure the data queue in passing."""
        hop = self._route(node, pkt)
        if hop is None:
            return
        link, _, t_ctl, p_del, rng = hop
        sim = self.sim
        now = sim.now
        topo = self.topo
        if topo.has_faults and topo.link_fault_mode(node, link.dst, now) is not None:
            sim.trace.log(now, node, "drop", pkt.pid, -1, "fault")
            return
        delay = topo.ca_model.sample(rng) + t_ctl + p_del
        copy = sim.new_copy()
        sim.trace.append_row((now, node, "send", pkt.pid, copy, "", delay, ""))
        sim.schedule(now + delay, "ctl_arr", link.dst, (pkt, copy))

    # -- frequency broadcast -----------------------------------------------------

    def broadcast(self, node: str, pkt: Packet) -> None:
        """Flood down the reverse route tree: one transmission reaches all children.
        A faulty node sends nothing; a child behind a faulty link gets no copy."""
        kids = self.children.get(node)
        if not kids:
            return
        sim = self.sim
        now = sim.now
        topo = self.topo
        if topo.has_faults and topo.fault_mode(node, now) is not None:
            sim.trace.log(now, node, "drop", pkt.pid, -1, "fault")
            return
        sim.trace.append_row((now, node, "send", pkt.pid, -1, "", None, ""))
        hops, arrival = self._hops, (pkt, -1)  # one payload, shared by every child
        ca = topo.ca_model.sample(sim.rng(f"node:{node}"))
        for kid in kids:
            if topo.has_faults and topo.link_fault_mode(node, kid, now) is not None:
                continue
            hop = hops.get((node, kid)) or self._hop(node, kid, kid)
            # channel access, control transmission, propagation
            sim.schedule(now + (ca + hop[2] + hop[3]), "bcast_arr", kid, arrival)

    def _relay_broadcast(self, node: str, pkt: Packet) -> None:
        """A broadcast goes to "*", so each node it reaches relays it: the node's
        app, if any, takes the new frequency, then the node floods it on."""
        app = self.apps.get(node)
        if app is not None:  # a relay has no app
            app.on_frequency(pkt.payload, self.sim.now)
        self.broadcast(node, pkt)

    # -- app timers / horizon ---------------------------------------------------

    def _on_app(self, sim: Simulator, node: str, tag: str) -> None:
        # An app timer on a crashed node neither fires nor re-arms; drop-all apps run on.
        if not self.topo.has_faults or self.topo.fault_mode(node, sim.now) != "crash":
            self.apps[node].on_event(sim, tag)

    def log_pending(self) -> None:
        """Account for packets still queued or in flight when the horizon hits,
        in firing order: a copy still on a `due` FIFO in its departure's place."""
        sim = self.sim
        now = sim.now
        queued = {}  # ordinal of a waiting copy's event -> (its departure, its node)
        for node, buf in self.buffers.items():
            if buf.due:
                buf.settle(now, sim.ordinal)
                for departs, ordinal in buf.due:
                    queued[ordinal] = (departs, node)
        pending = []
        for time, ordinal, kind, node, payload in sim.pending_events():
            if kind == "dep" or kind in PLANES:
                state = "in_flight"
                if ordinal in queued:
                    (time, node), state = queued[ordinal], "queued"
                pending.append((time, ordinal, node, payload[0].pid, payload[1], state))
        for _, _, node, pid, copy, state in sorted(pending):
            sim.trace.log(now, node, "pending", pid, copy, state)

    def close(self) -> None:
        """Unhook the apps and drop the hop records, which hold each node's
        random stream, once the run is over."""
        self.apps.clear()
        self._hops.clear()


class SensorSource:
    """Event source: reports at the broadcast frequency with a dithered phase."""

    def __init__(self, runtime: NetworkRuntime, node: str, sink: str, f_init: float):
        self.runtime = runtime
        self.node = node
        self.sink = sink
        self.f = f_init
        self.rng = runtime.sim.rng(f"src:{node}")
        self._gen_ordinal = None

    def start(self, now: float) -> None:
        self._dither(now)

    def _dither(self, now: float) -> None:
        """Arm the next report at a uniformly drawn phase of one period."""
        delay = self.rng.random() * (1.0 / self.f)
        self._gen_ordinal = self.runtime.sim.schedule(now + delay, "app", self.node, "gen")

    def on_event(self, sim: Simulator, tag: str) -> None:
        if sim.ordinal != self._gen_ordinal:
            return  # superseded by a re-dither
        now = sim.now
        node = self.node
        pid = sim.new_pid()
        sim.trace.append_row((now, node, "generate", pid, -1, "", None, ""))
        self.runtime.forward_data(node, Packet(pid, "data", node, self.sink, now))
        self._gen_ordinal = sim.schedule(now + 1.0 / self.f, "app", node, "gen")

    def on_frequency(self, f_new: float, now: float) -> None:
        # Re-dither on every broadcast, not only on changes: keeps the field
        # desynchronized so per-interval counts do not beat quasi-periodically.
        self.f = f_new
        self._dither(now)


class CrossTrafficSource:
    """Background load within a time window; packets are not counted by the controller.
    Its rate is above 0: runner.build_field builds none otherwise."""

    def __init__(self, runtime: NetworkRuntime, node: str, sink: str, rate: float,
                 start: float, stop: float):
        self.runtime = runtime
        self.node = node
        self.sink = sink
        self.rate = rate
        self.stop = stop
        self.start_at = start

    def start(self, now: float) -> None:
        self.runtime.sim.schedule(max(now, self.start_at), "app", self.node, "gen")

    def on_event(self, sim: Simulator, tag: str) -> None:
        now = sim.now
        if now >= self.stop:
            return
        pkt = Packet(pid=sim.new_pid(), flow="cross", src=self.node, dst=self.sink,
                     gen_time=now)
        sim.trace.append_row((now, self.node, "generate", pkt.pid, -1, "", None, ""))
        self.runtime.forward_data(self.node, pkt)
        sim.schedule(now + 1.0 / self.rate, "app", self.node, "gen")

    def on_frequency(self, f_new: float, now: float) -> None:
        pass  # cross traffic ignores controller broadcasts


class SubSinkApp:
    """Sub-sink endpoint: interval accounting, frequency updates, broadcasts. Under a
    delay budget, a data delivery's reason holds its flags (`kernel.ROW_KINDS`)."""

    def __init__(self, runtime: NetworkRuntime, node: str, controller: ReliabilityController,
                 budget: Optional[BudgetCfg] = None):
        self.runtime = runtime
        self.node = node
        self.controller = controller
        self.budget = budget

    def start(self, now: float) -> None:
        interval = self.controller.ctl.effective_interval()
        self.runtime.sim.schedule(now + interval, "app", self.node, "interval")

    def on_packet(self, pkt: Packet, now: float) -> None:
        sim = self.runtime.sim
        reason = ""
        if self.budget is not None and pkt.flow == "data":
            lit = check_delay_budget(self.budget, pkt.b_sum)
            full = check_delay_budget(self.budget, now - pkt.gen_time)
            reason = f"{int(lit)}{int(full)}"
        sim.trace.append_row((now, self.node, "deliver", pkt.pid, -1, reason, pkt.gen_time,
                              pkt.flow))
        if pkt.flow == "data":
            self.controller.on_data_packet(pkt, now)

    def on_event(self, sim: Simulator, tag: str) -> None:
        now = sim.now
        row = self.controller.close_interval(now)
        sim.trace.log(now, self.node, "interval", -1, -1, "", None, row.encode())
        bcast = self.controller.broadcast_packet(sim.new_pid(), self.node, now)
        self.runtime.broadcast(self.node, bcast)
        interval = self.controller.ctl.effective_interval()
        sim.schedule(now + interval, "app", self.node, "interval")


class TransportSenderApp:
    """Rate-controlled reliable sender between two sub-sinks."""

    def __init__(self, runtime: NetworkRuntime, node: str, peer: str,
                 goal: tp.DeliveryGoal, state: tp.TransportState, sack_enabled: bool = True):
        self.runtime = runtime
        self.node = node
        self.peer = peer
        self.goal = goal
        self.state = state
        self.sack_enabled = sack_enabled
        self.total = goal.b_remaining
        self.next_new = 1
        self.retx_buffer: dict[int, float] = {}  # unacked seq -> last send time
        # (pid, generation time) of each seq in retx_buffer, for its retransmissions
        self.origin: dict[int, tuple[int, float]] = {}
        self.retx_queue: deque[int] = deque()
        self.queued: set[int] = set()
        self.last_fb_arrival = 0.0  # the last feedback's arrival, or start() before one
        self.retx_count = 0
        self.deadline_logged = False
        self._pacing = False  # a `pace` timer is queued

    # -- lifecycle ---------------------------------------------------------

    def start(self, now: float) -> None:
        self.last_fb_arrival = now
        self._send_probe(now)
        self.runtime.sim.schedule(now + self._miss_threshold(), "app", self.node, "watchdog")
        self._log_state(now, 0.0)

    def _miss_threshold(self) -> float:
        # one feedback period plus one RTT estimate of grace for control latency
        return self.state.t_fdbk + self.state.rtt_estimate

    def _send_probe(self, now: float) -> None:
        sim = self.runtime.sim
        pkt = Packet(pid=sim.new_pid(), flow="ctl", src=self.node, dst=self.peer,
                     gen_time=now, bottleneck_delay=0.0)
        self.runtime.forward_control(self.node, pkt)

    def on_event(self, sim: Simulator, tag: str) -> None:
        if tag == "pace":
            self._pacing = False
            self._pace(sim.now)
        elif tag == "watchdog":
            self._watchdog(sim.now)
        elif tag == "probe_tick":
            if self.state.phase is tp.Phase.PROBE:
                self._send_probe(sim.now)
                sim.schedule(sim.now + self.state.t_p, "app", self.node, "probe_tick")

    def _watchdog(self, now: float) -> None:
        sim = self.runtime.sim
        due = self.last_fb_arrival + self._miss_threshold()
        if now < due - _TIME_EPS:
            sim.schedule(due, "app", self.node, "watchdog")
            return
        was_probing = self.state.phase is tp.Phase.PROBE
        tp.on_feedback_timeout(self.state, now)
        self._log_state(now, 0.0)
        if self.state.phase is tp.Phase.PROBE and not was_probing:
            self._send_probe(now)
            sim.schedule(now + self.state.t_p, "app", self.node, "probe_tick")
        sim.schedule(now + self.state.t_fdbk, "app", self.node, "watchdog")

    # -- control arrivals -----------------------------------------------------

    def on_control(self, pkt: Packet, now: float) -> None:
        fb, sack = pkt.payload
        self.last_fb_arrival = now
        try:
            tp.apply_rate_feedback(self.state, fb)
        except StaleFeedback:
            return
        if self.sack_enabled:
            batch = tp.on_sack(self.state, sack, self.retx_buffer, now)
            if len(self.origin) > len(self.retx_buffer):  # forget what on_sack acked
                for seq in [seq for seq in self.origin if seq not in self.retx_buffer]:
                    del self.origin[seq]
            tail = tp.overdue_tail(self.state, sack, self.retx_buffer, now,
                                   all_sent=self.next_new > self.total)
            for seq in batch + tail:
                if seq not in self.queued:
                    self.queued.add(seq)
                    self.retx_queue.append(seq)
        self._log_state(now, fb.r_f)
        self._ensure_pacing(now)

    def _can_send(self) -> bool:
        """A sending phase, and a retransmission or a new sequence to send."""
        return (self.state.phase in (tp.Phase.INCREASE, tp.Phase.DECREASE, tp.Phase.HOLD)
                and (bool(self.retx_queue) or self.next_new <= self.total))

    def _ensure_pacing(self, now: float) -> None:
        if not self._pacing and self._can_send():
            self._pacing = True
            self.runtime.sim.schedule(now, "app", self.node, "pace")

    # -- data path --------------------------------------------------------------

    def _pace(self, now: float) -> None:
        if not self._can_send():
            return
        state = self.state
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
        self._pacing = True
        self.runtime.sim.schedule(now + 1.0 / state.r_c, "app", self.node, "pace")

    def _send_one(self, now: float) -> None:
        sim = self.runtime.sim
        if self.retx_queue:
            seq = self.retx_queue.popleft()
            self.queued.discard(seq)
            if seq not in self.retx_buffer:  # acked while waiting in the queue
                return
            self.retx_count += 1
            pid, gen_time = self.origin[seq]
        else:
            seq = self.next_new
            self.next_new += 1
            pid, gen_time = sim.new_pid(), now
            sim.trace.append_row((now, self.node, "generate", pid, -1, "", None, ""))
        pkt = Packet(pid=pid, flow="xfer", src=self.node, dst=self.peer,
                     gen_time=gen_time, seq=seq, bottleneck_delay=0.0)
        if self.sack_enabled:  # without SACK nothing is ever retransmitted
            self.retx_buffer[seq] = now
            self.origin[seq] = (pid, gen_time)
        self.runtime.forward_data(self.node, pkt)

    # connection.csv's header: `time`, then a column for each field of the info
    # that _log_state writes, in its order; `rrrt run --out` writes each one's value.
    CONN_CSV_HEADER = "time,phase,r_c,r_f,r_min,missed_feedback,retransmit_count"

    def _log_state(self, now: float, r_f: float) -> None:
        state = self.state
        info = (f"phase={state.phase.value};r_c={state.r_c!r};r_f={r_f!r};"
                f"r_min={state.r_min!r};missed={state.missed_feedback};retx={self.retx_count}")
        self.runtime.sim.trace.log(now, self.node, "conn", -1, -1, "", None, info)

    def log_pending(self) -> None:
        sim = self.runtime.sim
        for seq in sorted(self.retx_buffer):
            sim.trace.log(sim.now, self.node, "pending", self.origin[seq][0], -1, "unacked")

    def on_frequency(self, f_new: float, now: float) -> None:
        pass


class TransportReceiverApp:
    """Receiving sub-sink: dedup delivery, path estimation, periodic feedback.
    Both senders give every data packet a seq, which the dedup reads."""

    def __init__(self, runtime: NetworkRuntime, node: str, peer: str, t_fdbk: float):
        self.runtime = runtime
        self.node = node
        self.peer = peer
        self.t_fdbk = t_fdbk
        self.received = tp.ReceivedRuns()
        self.path: Optional[Packet] = None  # latest arrival carrying a path measurement

    def start(self, now: float) -> None:
        self.runtime.sim.schedule(now + self.t_fdbk, "app", self.node, "fb_tick")

    def _note_path(self, pkt: Packet) -> None:
        if pkt.bottleneck_delay is not None and pkt.bottleneck_delay > 0.0:
            self.path = pkt

    def on_packet(self, pkt: Packet, now: float) -> None:
        self._note_path(pkt)
        if not self.received.add(pkt.seq):
            return  # duplicate: already handed to the application
        self.runtime.sim.trace.append_row((now, self.node, "deliver", pkt.pid, -1, "",
                                           pkt.gen_time, pkt.flow))

    def on_control(self, pkt: Packet, now: float) -> None:
        self._note_path(pkt)  # only probes are addressed to the receiver
        self._send_feedback(now)

    def on_event(self, sim: Simulator, tag: str) -> None:
        self._send_feedback(sim.now)
        sim.schedule(sim.now + self.t_fdbk, "app", self.node, "fb_tick")

    def _send_feedback(self, now: float) -> None:
        if self.path is None:
            return
        sim = self.runtime.sim
        fb = tp.feedback_from_probe(self.path, issued_at=now)
        pkt = Packet(pid=sim.new_pid(), flow="ctl", src=self.node, dst=self.peer,
                     gen_time=now, payload=(fb, tp.build_sack(self.received)))
        self.runtime.forward_control(self.node, pkt)


class FixedRateSenderApp:
    """Naive comparison sender: constant rate, no feedback handling, no recovery."""

    def __init__(self, runtime: NetworkRuntime, node: str, peer: str, total: int,
                 rate: float):
        self.runtime = runtime
        self.node = node
        self.peer = peer
        self.total = total
        self.rate = rate
        self.next_seq = 1

    def start(self, now: float) -> None:
        self.runtime.sim.schedule(now, "app", self.node, "pace")

    def on_event(self, sim: Simulator, tag: str) -> None:
        if self.next_seq > self.total:
            return
        now = sim.now
        seq = self.next_seq
        self.next_seq += 1
        pkt = Packet(pid=sim.new_pid(), flow="xfer", src=self.node, dst=self.peer,
                     gen_time=now, seq=seq, bottleneck_delay=0.0)
        sim.trace.append_row((now, self.node, "generate", pkt.pid, -1, "", None, ""))
        self.runtime.forward_data(self.node, pkt)
        if self.next_seq <= self.total:
            sim.schedule(now + 1.0 / self.rate, "app", self.node, "pace")

    def on_control(self, pkt: Packet, now: float) -> None:
        pass  # ignores feedback entirely

    def on_frequency(self, f_new: float, now: float) -> None:
        pass
