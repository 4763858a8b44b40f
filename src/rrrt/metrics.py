"""Trace reduction to a metrics report, and trace auditing.

Everything here is a pure function of an immutable trace, so recomputing a
report from a serialized trace reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .controller import IntervalRow
from .errors import InvariantViolation
from .kernel import SimulationTrace


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
    for rec in records:
        kind = rec[2]
        if kind == "send":
            tx += 1
        elif kind == "receive":
            rx += 1
        elif kind == "deliver":
            if rec[7] == flow:
                delivered += 1
                delay_sum += rec[0] - rec[6]  # deliver records carry gen_time in `value`
                reason = rec[5]  # "10": the budget held in literal mode only
                if len(reason) == 2:
                    budgeted += 1
                    lit += reason[0] == "1"
                    full += reason[1] == "1"
        elif kind == "interval":
            rows.append(IntervalRow.decode(rec[7], rec[0]))

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


def audit_trace(trace: SimulationTrace) -> dict:
    """Verify kernel invariants over a finished trace; raise InvariantViolation.

    Checks: nondecreasing timestamps; per-copy lifecycle (one send, then one
    receive or drop, or accounted as pending at the horizon; at most one drop;
    every row of a copy carries the pid of its send);
    strict per-hop causality; packet conservation (every generated pid is
    delivered, dropped, or pending, exactly one category); unique delivery per
    pid, and only of a pid generated earlier.
    """
    last_time = -1.0
    sends: dict[int, tuple] = {}
    receives: dict[int, tuple] = {}
    copy_drops: dict[int, tuple] = {}
    pending_copies: dict[int, int] = {}
    generated: set[int] = set()
    delivered: set[int] = set()
    pending_pids: set[int] = set()
    dropped_pids: set[int] = set()

    for rec in trace.records:
        time, node, kind, pid, copy = rec[0], rec[1], rec[2], rec[3], rec[4]
        if time < last_time:
            raise InvariantViolation(f"trace time went backwards at {time}")
        last_time = time
        if kind == "send" and copy >= 0:
            if copy in sends:
                raise InvariantViolation(f"copy {copy} sent twice")
            sends[copy] = rec
        elif kind == "receive" and copy >= 0:
            if copy in receives:
                raise InvariantViolation(f"copy {copy} received twice")
            receives[copy] = rec
        elif kind == "drop":
            if copy >= 0:
                if copy in copy_drops:
                    raise InvariantViolation(f"copy {copy} dropped twice")
                copy_drops[copy] = rec
            if pid >= 0:
                dropped_pids.add(pid)
        elif kind == "pending":
            if copy >= 0:
                pending_copies[copy] = pid
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

    for copy, rec in sends.items():
        pid = rec[3]
        got = receives.get(copy)
        lost = copy_drops.get(copy)
        if ((got is not None and got[3] != pid) or (lost is not None and lost[3] != pid)
                or pending_copies.get(copy, pid) != pid):
            raise InvariantViolation(
                f"copy {copy} sent with pid {pid} but logged with another pid")
        if got and lost and lost[0] < got[0]:
            raise InvariantViolation(f"copy {copy} dropped before it was received")
        if not got and not lost and copy not in pending_copies:
            raise InvariantViolation(f"copy {copy} vanished (no receive/drop/pending)")
        if got:
            delay = got[0] - rec[0]
            if delay <= 0:
                raise InvariantViolation(f"copy {copy} arrived without positive delay")
            expected = rec[6]  # send records carry the sampled hop delay in `value`
            if expected is not None and abs(delay - expected) > 1e-9:
                raise InvariantViolation(
                    f"copy {copy} hop delay {delay} != sampled breakdown {expected}")
    for copy in receives:
        if copy not in sends:
            raise InvariantViolation(f"copy {copy} received but never sent")

    unaccounted = generated - delivered - pending_pids - dropped_pids
    if unaccounted:
        raise InvariantViolation(f"pids neither delivered, dropped nor pending: {sorted(unaccounted)[:5]}")
    pending_g = (pending_pids & generated) - delivered
    dropped_g = (dropped_pids & generated) - delivered - pending_g
    counts = {
        "generated": len(generated),
        "delivered": len(delivered),
        "dropped": len(dropped_g),
        "pending": len(pending_g),
        "copies_sent": len(sends),
        "copies_received": len(receives),
        "copies_dropped": len(set(copy_drops) - set(receives)),
        "copies_pending": len(pending_copies),
    }
    if counts["generated"] != counts["delivered"] + counts["dropped"] + counts["pending"]:
        raise InvariantViolation(f"conservation failed: {counts}")
    return counts
