"""Trace reduction to a metrics report, and trace auditing.

Everything here is a pure function of an immutable trace, so recomputing a
report from a serialized trace reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ulp
from typing import Iterable, Optional

from .controller import IntervalRow, NetworkCondition
from .errors import InvariantViolation
from .kernel import BARE_KINDS, ROW_KINDS, ROW_PAIRS


def convergence_time(rows: list[IntervalRow]) -> Optional[float]:
    """End time of the first interval from which every later one stays adequate."""
    end = None
    for row in reversed(rows):
        if row.condition != NetworkCondition.ADEQUATE_REL_NO_CONG.value:
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


# The kinds of row that carry a copy, by their messages' word: each but a send follows its send.
_LOGGED = {kind: row.event for kind, row in ROW_KINDS.items() if "copy" in row.carries}

# The flags the audit keeps per pid, one byte a pid: which rows named it.
_GENERATED, _DELIVERED, _PENDING, _DROPPED = 1, 2, 4, 8


def audit_trace(records: Iterable[tuple]) -> dict:
    """Verify kernel invariants over a finished trace; raise InvariantViolation.

    Checks: nondecreasing timestamps; every row's kind and reason a pair of
    kernel.ROW_PAIRS, as read_rows checks the text; ids in order (below);
    per-copy lifecycle (one send, then one receive or drop, or accounted as
    pending at the horizon; at most one receive and one drop; no pending row
    after the receive, and a drop after it only in the receive's instant);
    strict per-hop causality, each received copy's hop delay its send's
    sampled one (below); packet conservation (every pid generated once,
    then delivered, dropped, or pending, exactly one category); unique
    delivery per pid, and only of a pid generated earlier; no generate or
    deliver row of a pid below 0.

    Ids in order, as a run draws them from 1 (`Simulator.new_copy`,
    `new_pid`): the n-th send row that carries a copy names copy n, and the
    first row to name a pid names the one after the highest pid named so
    far. Each rule is checked on the row that breaks it.

    A copy arrives at `(now + depart) + p_del` and its send samples
    `depart + p_del`, so the two differ by the roundings of sums as large as
    the time. They must agree within 1e-9 s, or within four ULPs of the
    receive time, which is wider only past 2**21 s; the ULPs are computed
    only for a gap past 1e-9 s.

    One rule holds every copy row to its send: a receive, drop or pending row
    that names a copy must come after that copy's send row and carry the
    send's pid. It is checked where the row is read.

    Conservation is checked on the pid flags alone: a delivered pid was
    generated, so once no pid is flagged generated and nothing else, the
    counts split the generated pids exactly, delivered first, then pending,
    then dropped, with no pid in two of them.

    `records` is any iterable of rows, such as a `SimulationTrace`, walked
    once. No row is kept. Per copy the audit keeps only what a later row can
    contradict: the pid of its send (`sent`, a list indexed by copy, 8 bytes
    a copy), its send time and sampled hop delay until it is received
    (`flight`), the time of its drop (`dropped`), and whether a pending row
    named it (`pending_copies`). A dropped copy still in flight at the end is
    one that was dropped and never received. Only the copies received at the
    current time are kept (`received_now`). Per pid it keeps one byte of
    flags in a bytearray indexed by pid (`flags`): generated, delivered,
    pending, dropped. By the id rules a row grows `sent` or `flags` by at
    most one slot, whatever ids a trace holds.
    """
    last_time = -1.0
    sent: list = [None]  # copy -> pid of its send row; no run sends copy 0
    flight: dict[int, tuple] = {}  # copy -> (send time, sampled hop delay), until it is received
    dropped: dict[int, float] = {}  # copy -> time of its drop row
    pending_copies: set[int] = set()
    received_now: set[int] = set()
    copies_received = 0
    flags = bytearray(1)  # pid -> its flags, up to the highest pid named
    top = 0  # the highest pid named

    for time, _, kind, pid, copy, reason, value, _ in records:
        if time != last_time:
            if time < last_time:
                raise InvariantViolation(f"trace time went backwards at {time}")
            last_time = time
            received_now.clear()
        # A row of a bare kind with no reason, most of a trace, skips the pair test.
        if (reason or kind not in BARE_KINDS) and (kind, reason) not in ROW_PAIRS:
            raise InvariantViolation(f"no {kind!r} row carries the reason {reason!r}")
        if pid > top:  # a pid no row named before
            if pid != top + 1:
                raise InvariantViolation(f"pid {pid} named before pid {top + 1}")
            top = pid
            flags.append(0)
        if kind == "send":
            if copy >= 0:
                if copy != len(sent):  # not the next copy
                    if 0 < copy < len(sent):
                        raise InvariantViolation(f"copy {copy} sent twice")
                    raise InvariantViolation(f"copy {copy} sent before copy {len(sent)}")
                sent.append(pid)
                flight[copy] = (time, value)  # send records carry the sampled hop delay in `value`
            continue
        if copy >= 0 and kind in _LOGGED:  # after the copy's send, with its pid
            try:
                sender = sent[copy]
            except IndexError:  # a copy not sent yet
                sender = None
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
                if (expected is not None and abs(delay - expected) > 1e-9
                        and abs(delay - expected) > 4 * ulp(time)):
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
        if kind == "generate" or kind == "deliver":
            if pid < 0:  # flags[-1] would be the highest pid's
                raise InvariantViolation(f"a {kind} row names pid {pid}, below 0")
            state = flags[pid]
            if kind == "generate":
                if state & _GENERATED:
                    raise InvariantViolation(f"pid {pid} generated twice")
                flags[pid] = state | _GENERATED
            elif state & _DELIVERED:
                raise InvariantViolation(f"pid {pid} delivered twice to the application")
            elif not state & _GENERATED:
                raise InvariantViolation(f"pid {pid} delivered but never generated")
            else:
                flags[pid] = state | _DELIVERED
        elif pid >= 0 and (kind == "drop" or kind == "pending"):
            flags[pid] |= _DROPPED if kind == "drop" else _PENDING

    copies_dropped = 0
    for copy in flight:  # sent and never received
        if copy in dropped:
            copies_dropped += 1
        elif copy not in pending_copies:
            raise InvariantViolation(f"copy {copy} vanished (no receive/drop/pending)")

    pids = [flags.count(state) for state in range(16)]  # state -> the pids with those flags

    def count(has: int, lacks: int = 0) -> int:
        return sum(n for state, n in enumerate(pids) if state & has == has and not state & lacks)

    if count(_GENERATED, _DELIVERED | _PENDING | _DROPPED):
        unaccounted = [pid for pid, state in enumerate(flags) if state == _GENERATED]
        raise InvariantViolation(f"pids neither delivered, dropped nor pending: {unaccounted[:5]}")
    return {
        "generated": count(_GENERATED),
        "delivered": count(_GENERATED | _DELIVERED),
        "dropped": count(_GENERATED | _DROPPED, _DELIVERED | _PENDING),
        "pending": count(_GENERATED | _PENDING, _DELIVERED),
        "copies_sent": len(sent) - 1,
        "copies_received": copies_received,
        "copies_dropped": copies_dropped,
        "copies_pending": len(pending_copies),
    }
