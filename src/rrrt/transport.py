"""Rate-controlled reliable transport between sub-sinks.

A connection starts by probing the path: every intermediate node raises the
probe's bottleneck-delay field to its own per-packet service delay, so the
receiver learns the slowest hop and feeds its inverse back as the available
rate. In steady state the sender moves between Increase / Decrease / Hold on
periodic receiver feedback, never dropping below the deadline-derived floor,
halves its rate for each silent feedback period, and falls back to probing
after two. Selective acknowledgments describe the exact received set so every
hole is retransmitted in one batch.

The receiver's scoreboard (`ReceivedRuns`) is a cumulative ack plus the sorted
disjoint runs received above the first hole, merged on each arrival, so
building a SACK costs O(blocks) and the sender's `on_sack` walks only its
unacked entries (SACK blocks as in RFC 2018, the scoreboard as in RFC 6675).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import DeadlineExpired, DegenerateProbe, StaleFeedback
from .packet import Packet


class Phase(Enum):
    START_UP = "StartUp"
    INCREASE = "Increase"
    DECREASE = "Decrease"
    HOLD = "Hold"
    PROBE = "Probe"


@dataclass(slots=True)
class RateFeedback:
    r_f: float
    hop_count: int
    issued_at: float


@dataclass(slots=True)
class SackInfo:
    """Cumulative ack plus the received ranges beyond the first hole."""

    cumulative_ack: int
    blocks: list[tuple[int, int]]

    def highest(self) -> int:
        return self.blocks[-1][1] if self.blocks else self.cumulative_ack

    def received_set(self) -> set[int]:
        received = set(range(1, self.cumulative_ack + 1))
        for lo, hi in self.blocks:
            received.update(range(lo, hi + 1))
        return received


class ReceivedRuns:
    """The receiver's scoreboard: every sequence up to `cum`, plus `runs`, the
    sorted, disjoint, non-adjacent [lo, hi] runs received above cum + 1."""

    __slots__ = ("cum", "runs", "count")

    def __init__(self, seqs: Iterable[int] = ()):
        self.cum = 0
        self.runs: list[list[int]] = []
        self.count = 0
        for seq in seqs:
            self.add(seq)

    def __len__(self) -> int:
        """Sequences received; the benchmark's tracer reads it for `transport.sack_input_seqs`."""
        return self.count

    def add(self, seq: int) -> bool:
        """Record one arrival (seq >= 1); False when it was already received."""
        if seq <= self.cum:
            return False
        runs = self.runs
        i = bisect_left(runs, [seq])  # first run starting at or above seq
        if (i < len(runs) and runs[i][0] == seq) or (i > 0 and runs[i - 1][1] >= seq):
            return False
        self.count += 1
        joins_next = i < len(runs) and runs[i][0] == seq + 1
        if i == 0 and seq == self.cum + 1:
            self.cum = runs.pop(0)[1] if joins_next else seq
        elif i > 0 and runs[i - 1][1] == seq - 1:
            runs[i - 1][1] = runs.pop(i)[1] if joins_next else seq
        elif joins_next:
            runs[i][0] = seq
        else:
            runs.insert(i, [seq, seq])
        return True


@dataclass(slots=True)
class DeliveryGoal:
    """Remaining workload against an absolute event-to-action deadline."""

    b_remaining: int
    deadline: float

    def delta_re2a(self, now: float) -> float:
        return self.deadline - now


@dataclass(slots=True)
class TransportState:
    phase: Phase
    r_c: float
    r_min: float
    rtt_estimate: float
    t_fdbk: float
    t_p: float
    m: int = 1
    missed_feedback: int = 0
    hold_band: float = 0.02
    decrease_factor: float = 0.5
    last_feedback_issued: float = -math.inf


def min_transmission_rate(b: float, delta_re2a: float) -> float:
    """Deadline-derived rate floor: remaining packets over remaining time."""
    if b <= 0:
        return 0.0
    if delta_re2a <= 0:
        raise DeadlineExpired(f"{b} packets remain with no time left")
    return b / delta_re2a


def start_connection(goal: DeliveryGoal, now: float, rtt_estimate: float,
                     t_fdbk: float, t_p: float, hold_band: float = 0.02,
                     decrease_factor: float = 0.5) -> TransportState:
    """Fresh sender state: probing, no data until the first rate feedback."""
    if t_fdbk <= rtt_estimate:
        raise ValueError("feedback period must exceed the round-trip estimate")
    if t_p <= rtt_estimate:
        raise ValueError("probe period must exceed the round-trip estimate")
    r_min = min_transmission_rate(goal.b_remaining, goal.delta_re2a(now))
    return TransportState(
        phase=Phase.START_UP, r_c=0.0, r_min=r_min, rtt_estimate=rtt_estimate,
        t_fdbk=t_fdbk, t_p=t_p, hold_band=hold_band, decrease_factor=decrease_factor)


def on_probe_forward(probe: Packet, node_delay: float) -> Packet:
    """Intermediate-node update: keep the larger of the field and the local delay."""
    if node_delay > probe.bottleneck_delay:
        probe.bottleneck_delay = node_delay
    probe.hop_count += 1
    return probe


def feedback_from_probe(probe: Packet, issued_at: float = 0.0) -> RateFeedback:
    """Receiver-side conversion: available rate is the inverse of the slowest hop."""
    if probe.bottleneck_delay <= 0.0:
        raise DegenerateProbe("probe arrived with no intermediate delay update")
    return RateFeedback(r_f=1.0 / probe.bottleneck_delay, hop_count=probe.hop_count,
                        issued_at=issued_at)


def apply_rate_feedback(state: TransportState, fb: RateFeedback) -> TransportState:
    """One feedback application: fraction-of-difference increase, floored decrease, or hold.

    The first feedback after StartUp or Probe adopts the estimated rate
    directly (that is what probing is for); afterwards the step towards r_f
    is scaled by 1/m with m = min(hop_count, 4), so longer paths move more
    gently.
    """
    if fb.issued_at <= state.last_feedback_issued:
        raise StaleFeedback(f"feedback from t={fb.issued_at} already superseded")
    state.m = min(max(fb.hop_count, 1), 4)
    state.last_feedback_issued = fb.issued_at
    state.missed_feedback = 0
    if state.phase in (Phase.START_UP, Phase.PROBE):
        state.r_c = max(fb.r_f, state.r_min)
        state.phase = Phase.HOLD
        return state
    gap = fb.r_f - state.r_c
    if abs(gap) <= state.hold_band * fb.r_f:
        state.phase = Phase.HOLD
    elif gap > 0:
        state.phase = Phase.INCREASE
        state.r_c = state.r_c + gap / state.m
    else:
        state.phase = Phase.DECREASE
        state.r_c = max(fb.r_f, state.r_min)
    return state


def on_feedback_timeout(state: TransportState, now: float) -> TransportState:
    """One silent feedback period: halve the rate; the second in a row enters Probe."""
    if state.missed_feedback >= 2:
        return state
    state.missed_feedback += 1
    state.r_c = max(state.r_c * state.decrease_factor, state.r_min)
    if state.missed_feedback == 2:
        state.phase = Phase.PROBE
    return state


def build_sack(received: ReceivedRuns) -> SackInfo:
    """Cumulative prefix plus maximal contiguous runs above the first hole.

    A snapshot: the SACK is in flight while later arrivals change the runs.
    """
    return SackInfo(received.cum, [(lo, hi) for lo, hi in received.runs])


def on_sack(state: TransportState, sack: SackInfo, retx_buffer: dict[int, float],
            now: float) -> list[int]:
    """Acknowledged entries leave the buffer; every hole below the highest ack
    that is not already in flight (sent within one RTT estimate) is returned
    for retransmission, all in one batch."""
    top = sack.highest()
    cum = sack.cumulative_ack
    blocks = sack.blocks
    guard = state.rtt_estimate
    batch: list[int] = []
    b = 0
    for seq in sorted(retx_buffer):
        if seq > top:
            break
        if seq > cum:
            while blocks[b][1] < seq:  # seq <= top keeps b in range
                b += 1
            if seq < blocks[b][0]:
                if now - retx_buffer[seq] >= guard:
                    batch.append(seq)
                continue
        del retx_buffer[seq]
    return batch


def overdue_tail(state: TransportState, sack: SackInfo, retx_buffer: dict[int, float],
                 now: float, all_sent: bool) -> list[int]:
    """Unacked sequences above the highest ack, once every original has gone out.

    SACK can only describe holes below something it received; losses at the
    very end of the stream surface here instead.
    """
    if not all_sent:
        return []
    top = sack.highest()
    guard = state.rtt_estimate
    return [seq for seq in sorted(retx_buffer)
            if seq > top and now - retx_buffer[seq] >= guard]
