"""Topology: nodes, links, static routes, per-hop delay model, fault injection.

Routes are supplied or computed once by shortest hop count at load time; the
kernel never recomputes them. Fault injection flips nodes or links into
`crash` (routing-visible: a route through it raises NoRoute) or `drop-all`
(silent blackhole: routing is unaware) from a given time onward. It also sets
`has_faults`, which stays False until the first injection: while it is False
the forwarding runtime skips every fault lookup (`next_hop`, `fault_mode`,
`link_fault_mode`), since none could find a fault. The forwarding runtime
sums a hop's delay from its hop record (`nodes.py`) and a channel-access
draw. `CaModel.sample` draws the truncated exponential as `random.expovariate`
does, `-log(1 - random()) / rate`, without its call, so every draw equals
`min(rng.expovariate(rate), cap)` bit for bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from math import log
from typing import Optional

from .errors import NoRoute, UnknownLink, UnknownTarget
from .kernel import SIGNAL_SPEED


@dataclass(frozen=True)
class CaModel:
    """Channel-access delay distribution: fixed(value) or exponential(mean) truncated at cap."""

    kind: str = "exponential"  # "fixed" | "exponential"
    value: float = 0.002
    cap: float = 0.050

    def sample(self, rng) -> float:
        if self.kind == "fixed":
            return self.value
        return min(-log(1.0 - rng.random()) / (1.0 / self.value), self.cap)


@dataclass(slots=True)
class Link:
    """Directed link parameters.

    bit_rate drives the transmission delay of one packet; service_rate is the
    packet service rate of the sender-side forwarding queue (buffering delay);
    loss is an i.i.d. per-copy drop probability on the link.
    """

    src: str
    dst: str
    distance: float
    bit_rate: float = 250_000.0
    service_rate: float = 200.0
    loss: float = 0.0

    def propagation(self) -> float:
        return self.distance / SIGNAL_SPEED


@dataclass(slots=True)
class Fault:
    at: float
    mode: str  # "crash" | "drop-all"


class Topology:
    """Static node/link/route tables with fault state."""

    def __init__(self, nodes: list[str], links: list[Link], ca_model: CaModel = CaModel()):
        self.nodes: dict[str, None] = {}  # insertion-ordered ids, O(1) membership
        for node in nodes:
            if node in self.nodes:
                raise ValueError(f"duplicate node id {node!r}")
            self.nodes[node] = None
        self.links: dict[tuple[str, str], Link] = {}
        for link in links:
            if link.src == link.dst:
                raise ValueError(f"self-link on {link.src!r} disallowed")
            if link.src not in self.nodes or link.dst not in self.nodes:
                raise ValueError(f"link {link.src}->{link.dst} references unknown node")
            if link.bit_rate <= 0 or link.service_rate <= 0 or link.distance < 0:
                raise ValueError(f"link {link.src}->{link.dst} parameters must be positive")
            self.links[(link.src, link.dst)] = link
        self.ca_model = ca_model
        self.routes: dict[tuple[str, str], str] = {}
        self.node_faults: dict[str, Fault] = {}
        self.link_faults: dict[tuple[str, str], Fault] = {}
        self.has_faults = False  # set by inject_fault, read on every hop

    # -- routing -----------------------------------------------------------

    def build_routes(self, dests: Optional[list[str]] = None) -> None:
        """Shortest-hop next-hop table towards each destination (BFS over reverse links)."""
        adjacency: dict[str, list[str]] = {n: [] for n in self.nodes}
        for (src, dst) in self.links:
            adjacency[dst].append(src)  # reverse edge: BFS outward from the destination
        for dest in dests if dests is not None else list(self.nodes):
            parent = {dest: dest}
            frontier = deque([dest])
            while frontier:
                here = frontier.popleft()
                for neighbour in adjacency[here]:
                    if neighbour not in parent:
                        parent[neighbour] = here
                        frontier.append(neighbour)
            for node, hop in parent.items():
                if node != dest:
                    self.routes[(node, dest)] = hop

    def next_hop(self, node: str, dest: str, now: float = math.inf) -> str:
        """Configured next hop; a crashed next hop or link severs the route."""
        if node == dest:
            raise NoRoute("destination is self; delivery is handled locally")
        hop = self.routes.get((node, dest))
        if hop is None:
            raise NoRoute(f"no route {node}->{dest}")
        if (self.fault_mode(hop, now) == "crash"
                or self.link_fault_mode(node, hop, now) == "crash"):
            raise NoRoute(f"route {node}->{dest} severed by fault")
        return hop

    def downstream_children(self, dest: str) -> dict[str, list[str]]:
        """Reverse route tree of `dest`: node -> nodes whose next hop towards dest is it."""
        children: dict[str, list[str]] = {}
        for (node, d), hop in sorted(self.routes.items()):
            if d == dest:
                children.setdefault(hop, []).append(node)
        return children

    # -- faults ------------------------------------------------------------

    def inject_fault(self, target, at: float, mode: str = "crash") -> None:
        """Fault the node or (src, dst) link `target` from `at` on. A built
        network is faulted through `NetworkRuntime.inject_fault`, which also
        gives the copies it has queued their `dep` events back."""
        if mode not in ("crash", "drop-all"):
            raise ValueError(f"unknown fault mode {mode!r}")
        if isinstance(target, tuple):
            if target not in self.links:
                raise UnknownTarget(f"no such link {target}")
            self.link_faults[target] = Fault(at, mode)
        else:
            if target not in self.nodes:
                raise UnknownTarget(f"no such node {target!r}")
            self.node_faults[target] = Fault(at, mode)
        self.has_faults = True

    def fault_mode(self, node: str, now: float) -> Optional[str]:
        """Active fault mode on a node at `now`, if any."""
        fault = self.node_faults.get(node)
        if fault is not None and now >= fault.at:
            return fault.mode
        return None

    def link_fault_mode(self, src: str, dst: str, now: float) -> Optional[str]:
        fault = self.link_faults.get((src, dst))
        if fault is not None and now >= fault.at:
            return fault.mode
        return None

    # -- delay model ---------------------------------------------------------

    def link(self, src: str, dst: str) -> Link:
        link = self.links.get((src, dst))
        if link is None:
            raise UnknownLink(f"no such link {src}->{dst}")
        return link

    def sample_channel_delays(self, link: Link, packet_len: float, rng) -> float:
        """Channel access, transmission and propagation of one unbuffered packet on `link`.
        No hop calls it; it stays while the benchmark's tracer names it."""
        if packet_len <= 0:
            raise ValueError("packet_len must be positive")
        return self.ca_model.sample(rng) + packet_len / link.bit_rate + link.propagation()


def bit_rate_for_service(service_rate: float, ca_mean: float, packet_len: float) -> float:
    """Bit rate at which one transmission plus the mean channel access fills a service slot.

    Keeps a link's physical drain rate equal to its configured packet service
    rate: 1/service_rate = ca_mean + packet_len/bit_rate.
    """
    slot = 1.0 / service_rate
    if slot <= ca_mean:
        raise ValueError(
            f"service rate {service_rate}/s unachievable with {ca_mean}s channel access")
    return packet_len / (slot - ca_mean)


def grid_positions(count: int, radius: float) -> list[tuple[float, float]]:
    """Uniform square grid of `count` points fitting inside a circle of `radius`.

    Spacing is chosen so the grid corners touch the circle; cells fill row-major.
    """
    side = math.ceil(math.sqrt(count))
    if side == 1:
        return [(0.0, 0.0)]
    spacing = 2.0 * radius / ((side - 1) * math.sqrt(2.0))
    offset = (side - 1) / 2.0
    positions = []
    for index in range(count):
        row, col = divmod(index, side)
        positions.append(((col - offset) * spacing, (row - offset) * spacing))
    return positions
