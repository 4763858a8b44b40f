"""Trace reduction to a metrics report, and trace auditing.

Everything here is a pure function of an immutable trace, so recomputing a
report from a serialized trace reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .controller import IntervalRow
from .errors import InvariantViolation


def convergence_time(rows: list[IntervalRow]) -> Optional[float]:
    """End time of the first interval from which every later one stays adequate."""
    end = None
    for row in reversed(rows):
        if row.condition != "AdequateRelNoCong":
            break
        end = row.end_time
    return end


@dataclass
class MetricsReport:
    """Headline metrics of one run plus the per-interval controller history."""

    convergence_time: Optional[float]
    total_energy: float
    aggregate_throughput: int
    average_packet_delay: Optional[float]
    per_interval: list[IntervalRow]
    per_run_seed: int
    delay_budget: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "convergence_time": self.convergence_time,
            "total_energy": self.total_energy,
            "aggregate_throughput": self.aggregate_throughput,
            "average_packet_delay": self.average_packet_delay,
            "per_interval": [row.csv() for row in self.per_interval],
            "per_run_seed": self.per_run_seed,
            "delay_budget": self.delay_budget,
        }


def reduce_trace(records: Iterable[tuple], preamble: dict) -> MetricsReport:
    """The one reduction from trace records and their preamble to a report, live
    or replayed.

    `records` is any iterable of records: a live `SimulationTrace`, or the
    `kernel.read_rows` iterator that replay streams from the text. One walk
    over it: send and receive rows count towards the energy, each delivery of
    the measured flow towards the throughput, the delay and the delay budget,
    and each interval row is decoded. The preamble must hold `flow`, `e_tx`,
    `e_rx`, `seed` and, once a delivery is budgeted, `eq2_mode` (KeyError if
    not), as the live values or their serialized strings; floats are written
    with repr(), so both read back to the same numbers.
    """
    flow = preamble["flow"]
    tx = rx = delivered = budgeted = lit = full = 0
    delay_sum = 0.0
    rows: list[IntervalRow] = []
    for time, _, kind, _, _, reason, value, info in records:
        if kind == "send":
            tx += 1
        elif kind == "receive":
            rx += 1
        elif kind == "deliver":
            if info == flow:
                delivered += 1
                delay_sum += time - value  # deliver records carry gen_time in `value`
                if len(reason) == 2:  # "10": the budget held in literal mode only
                    budgeted += 1
                    lit += reason[0] == "1"
                    full += reason[1] == "1"
        elif kind == "interval":
            rows.append(IntervalRow.decode(info, time))

    budget = None
    if budgeted:
        mode = preamble["eq2_mode"]
        lit_frac, full_frac = lit / budgeted, full / budgeted
        budget = {
            "mode": mode,
            "deliveries": budgeted,
            "literal_ok_fraction": lit_frac,
            "full_sum_ok_fraction": full_frac,
            "satisfied_fraction": lit_frac if mode == "literal" else full_frac,
        }
    return MetricsReport(
        convergence_time=convergence_time(rows),
        total_energy=tx * float(preamble["e_tx"]) + rx * float(preamble["e_rx"]),
        aggregate_throughput=delivered,
        average_packet_delay=delay_sum / delivered if delivered else None,
        per_interval=rows,
        per_run_seed=int(preamble["seed"]),
        delay_budget=budget,
    )


# The kinds of row that must follow their copy's send, by the word their
# messages use.
_LOGGED = {"receive": "received", "drop": "dropped", "pending": "pending"}


def audit_trace(records: Iterable[tuple]) -> dict:
    """Verify kernel invariants over a finished trace; raise InvariantViolation.

    Checks: nondecreasing timestamps; per-copy lifecycle (one send, then one
    receive or drop, or accounted as pending at the horizon; at most one
    receive and one drop; no pending row after the receive, and a drop after
    it only in the receive's instant); strict per-hop causality; packet
    conservation (every generated pid is delivered, dropped, or pending,
    exactly one category); unique delivery per pid, and only of a pid
    generated earlier.

    One rule holds every copy row to its send: a receive, drop or pending row
    that names a copy must come after that copy's send row and carry the
    send's pid. It is checked where the row is read.

    Conservation is checked by `unaccounted` alone: a delivered pid was
    generated, so once no generated pid is left out of delivered, pending and
    dropped, the counts split `generated` exactly, delivered first, then
    pending, then dropped, with no pid in two of them.

    `records` is any iterable of rows, such as a `SimulationTrace`, walked
    once. No row is kept. Per copy the audit keeps only what a later row can
    contradict: the pid of its send (`sent`), its send time and sampled hop
    delay until it is received (`flight`), the time of its drop (`dropped`),
    and whether a pending row named it (`pending_copies`). A dropped copy
    still in flight at the end is one that was dropped and never received.
    Only the copies received at the current time are kept (`received_now`).
    """
    last_time = -1.0
    sent: dict[int, int] = {}  # copy -> pid of its send row
    flight: dict[int, tuple] = {}  # copy -> (send time, sampled hop delay), until it is received
    dropped: dict[int, float] = {}  # copy -> time of its drop row
    pending_copies: set[int] = set()
    received_now: set[int] = set()
    copies_received = 0
    generated: set[int] = set()
    delivered: set[int] = set()
    pending_pids: set[int] = set()
    dropped_pids: set[int] = set()

    for time, _, kind, pid, copy, _, value, _ in records:
        if time != last_time:
            if time < last_time:
                raise InvariantViolation(f"trace time went backwards at {time}")
            last_time = time
            received_now.clear()
        if kind == "send":
            if copy >= 0:
                if copy in sent:
                    raise InvariantViolation(f"copy {copy} sent twice")
                sent[copy] = pid
                flight[copy] = (time, value)  # send records carry the sampled hop delay in `value`
            continue
        if copy >= 0 and kind in _LOGGED:  # after the copy's send, with its pid
            sender = sent.get(copy)
            if sender != pid:
                if sender is None:
                    raise InvariantViolation(f"copy {copy} {_LOGGED[kind]} before it was sent")
                raise InvariantViolation(f"copy {copy} sent with pid {sender} but logged with another pid")
            if kind == "receive":
                sending = flight.pop(copy, None)
                if sending is None:
                    raise InvariantViolation(f"copy {copy} received twice")
                send_time, expected = sending
                lost = dropped.get(copy)
                if lost is not None and lost < time:
                    raise InvariantViolation(f"copy {copy} dropped before it was received")
                delay = time - send_time
                if delay <= 0:
                    raise InvariantViolation(f"copy {copy} arrived without positive delay")
                if expected is not None and abs(delay - expected) > 1e-9:
                    raise InvariantViolation(
                        f"copy {copy} hop delay {delay} != sampled breakdown {expected}")
                copies_received += 1
                received_now.add(copy)
                continue
            if kind == "drop":
                if copy in dropped:
                    raise InvariantViolation(f"copy {copy} dropped twice")
                if copy not in flight and copy not in received_now:
                    raise InvariantViolation(f"copy {copy} dropped after it was received")
                dropped[copy] = time
            elif copy in flight:
                pending_copies.add(copy)
            else:
                raise InvariantViolation(f"copy {copy} pending after it was received")
        if kind == "drop":
            if pid >= 0:
                dropped_pids.add(pid)
        elif kind == "pending":
            if pid >= 0:
                pending_pids.add(pid)
        elif kind == "generate":
            generated.add(pid)
        elif kind == "deliver":
            if pid in delivered:
                raise InvariantViolation(f"pid {pid} delivered twice to the application")
            if pid not in generated:
                raise InvariantViolation(f"pid {pid} delivered but never generated")
            delivered.add(pid)

    copies_dropped = 0
    for copy in flight:  # sent and never received
        if copy in dropped:
            copies_dropped += 1
        elif copy not in pending_copies:
            raise InvariantViolation(f"copy {copy} vanished (no receive/drop/pending)")

    unaccounted = generated - delivered - pending_pids - dropped_pids
    if unaccounted:
        raise InvariantViolation(f"pids neither delivered, dropped nor pending: {sorted(unaccounted)[:5]}")
    pending_g = (pending_pids & generated) - delivered
    dropped_g = (dropped_pids & generated) - delivered - pending_g
    return {
        "generated": len(generated),
        "delivered": len(delivered),
        "dropped": len(dropped_g),
        "pending": len(pending_g),
        "copies_sent": len(sent),
        "copies_received": copies_received,
        "copies_dropped": copies_dropped,
        "copies_pending": len(pending_copies),
    }
