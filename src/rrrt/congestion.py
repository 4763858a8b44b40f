"""Forwarding-buffer model with overflow accounting and CN-bit marking.

Congestion is detected with a predictive buffer-growth rule sampled once per
epoch: the node reports congestion for the coming epoch when the occupancy
plus its last-epoch growth would exceed the buffer capacity. Forwarded
packets pick the flag up as a monotone OR, and only the sub-sink aggregates
the marks into a per-interval verdict.
"""

from __future__ import annotations

from .errors import InvariantViolation
from .packet import Packet

ENQUEUED = "enqueued"
DROPPED = "dropped"


def congestion_flag(buf: "NodeBuffer") -> bool:
    """Predictive rule: occupancy plus last-epoch growth exceeds capacity."""
    delta = buf.occupancy - buf.prev_occupancy
    return buf.occupancy + delta > buf.capacity


def mark_packet(pkt: Packet, local_cn: bool) -> Packet:
    pkt.cn = pkt.cn or local_cn
    return pkt


class NodeBuffer:
    """Egress queue of one node: bounded occupancy, overflow refusal, epoch sampling.

    Epoch boundaries are rolled lazily: occupancy only changes on events at
    this node, so the occupancy at any passed boundary is whatever it has
    been since the last event. Results are identical to a periodic sampler.
    A method enters `_roll` only when its time lies past epoch `_epoch`, so
    the many calls within the epoch last rolled to cost one division.
    `cn` is the flag of the epoch last rolled to, in force at `now` right
    after `try_enqueue(now)`; `busy_until` is when the radio next falls idle.

    `due` holds every admitted copy that has not yet left, in FIFO order:
    entries exactly `(departure time, ordinal of the copy's arr or dep)`. It
    is a list from construction on, and never longer than `capacity`. `settle`
    releases them as one event per departure would have, so it runs before
    `occupancy` is read or changed.
    """

    __slots__ = ("capacity", "occupancy", "prev_occupancy", "epoch_len", "cn", "busy_until",
                 "due", "_epoch")

    def __init__(self, capacity: int, epoch_len: float):
        self.capacity = capacity
        self.occupancy = 0
        self.prev_occupancy = 0
        self.epoch_len = epoch_len
        self.cn = False
        self.busy_until = 0.0
        self.due: list[tuple] = []
        self._epoch = 0

    def _roll(self, target: int) -> None:
        """Roll to epoch `target`; a no-op unless it is past `_epoch`."""
        if target <= self._epoch:
            return
        # First pending boundary sees the growth since the previous sample.
        self.cn = congestion_flag(self)
        self.prev_occupancy = self.occupancy
        self._epoch += 1
        if target > self._epoch:
            # No events in between: growth is zero, and occupancy never exceeds capacity.
            self.cn = False
            self._epoch = target

    def try_enqueue(self, now: float) -> str:
        """ENQUEUED with occupancy+1, or DROPPED (overflow) on a full buffer."""
        if (epoch := int(now / self.epoch_len)) > self._epoch:
            self._roll(epoch)
        if self.occupancy < self.capacity:
            self.occupancy += 1
            return ENQUEUED
        return DROPPED

    def release(self, now: float) -> None:
        if (epoch := int(now / self.epoch_len)) > self._epoch:
            self._roll(epoch)
        self.occupancy -= 1
        if self.occupancy < 0:
            raise InvariantViolation("buffer occupancy went negative")

    def settle(self, now: float, ordinal: float) -> None:
        """Release each departure in `due` that comes before the event
        `(now, ordinal)` in the kernel's order, each at its own time, so the
        epochs roll as they would have with one event per departure."""
        due = self.due
        while due:
            head = due[0]
            time = head[0]
            if time > now or (time == now and head[1] > ordinal):
                return
            del due[0]
            if (epoch := int(time / self.epoch_len)) > self._epoch:
                self._roll(epoch)
            self.occupancy -= 1  # each entry holds the slot it was admitted to

    def flag(self, now: float) -> bool:
        """Congestion flag in force during the epoch containing `now`."""
        self._roll(int(now / self.epoch_len))
        return self.cn
