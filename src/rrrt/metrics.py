"""Trace reduction to a metrics report, and trace auditing.

Everything here is a pure function of an immutable trace, so recomputing a
report from a serialized trace reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .controller import IntervalRow, classify_condition, reliability_indicator
from .errors import InvariantViolation
from .kernel import SimulationTrace


def convergence_time(rows: list[IntervalRow], beta: float) -> Optional[float]:
    """End time of the first interval from which every later one stays adequate."""
    if not rows:
        return None
    adequate = []
    for row in rows:
        cond = row.condition
        if not cond:  # re-derive if a row came without a recorded condition
            cond = classify_condition(
                reliability_indicator(row.dr_o, row.dr_d), row.cn, beta).value
        adequate.append(cond == "AdequateRelNoCong")
    first = None
    for i in range(len(rows) - 1, -1, -1):
        if adequate[i]:
            first = i
        else:
            break
    if first is None:
        return None
    return rows[first].end_time


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


def reduce_trace(trace: SimulationTrace, preamble: dict) -> MetricsReport:
    """The one reduction from a trace and its preamble to a report, live or replayed.

    One walk over the records: send and receive rows count towards the
    energy, each delivery of the measured flow towards the throughput, the
    delay and the delay budget, and each interval row is decoded. Preamble
    values may be the live ones or their serialized strings; floats are
    written with repr(), so both read back to the same numbers.
    """
    flow = preamble.get("flow", "data")
    tx = rx = delivered = budgeted = lit = full = 0
    delay_sum = 0.0
    rows: list[IntervalRow] = []
    for rec in trace.records:
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
        mode = preamble.get("eq2_mode", "literal")
        lit_frac, full_frac = lit / budgeted, full / budgeted
        budget = {
            "mode": mode,
            "deliveries": budgeted,
            "literal_ok_fraction": lit_frac,
            "full_sum_ok_fraction": full_frac,
            "satisfied_fraction": lit_frac if mode == "literal" else full_frac,
        }
    return MetricsReport(
        convergence_time=convergence_time(rows, float(preamble.get("beta", "0.05"))),
        total_energy=(tx * float(preamble.get("e_tx", "50e-6"))
                      + rx * float(preamble.get("e_rx", "25e-6"))),
        aggregate_throughput=delivered,
        average_packet_delay=delay_sum / delivered if delivered else None,
        per_interval=rows,
        per_run_seed=int(preamble.get("seed", "0")),
        delay_budget=budget,
    )


def audit_trace(trace: SimulationTrace) -> dict:
    """Verify kernel invariants over a finished trace; raise InvariantViolation.

    Checks: nondecreasing timestamps; per-copy lifecycle (one send, then one
    receive or drop, or accounted as pending at the horizon); strict per-hop
    causality; packet conservation (every generated pid is delivered, dropped,
    or pending, exactly one category); unique delivery per pid.
    """
    last_time = -1.0
    sends: dict[int, tuple] = {}
    receives: dict[int, tuple] = {}
    copy_drops: dict[int, tuple] = {}
    pending_copies: set[int] = set()
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
                copy_drops[copy] = rec
            if pid >= 0:
                dropped_pids.add(pid)
        elif kind == "pending":
            if copy >= 0:
                pending_copies.add(copy)
            if pid >= 0:
                pending_pids.add(pid)
        elif kind == "generate":
            generated.add(pid)
        elif kind == "deliver":
            if pid in delivered:
                raise InvariantViolation(f"pid {pid} delivered twice to the application")
            delivered.add(pid)

    for copy, rec in sends.items():
        got = copy in receives
        lost = copy in copy_drops
        if got and lost and copy_drops[copy][0] < receives[copy][0]:
            raise InvariantViolation(f"copy {copy} dropped before it was received")
        if not got and not lost and copy not in pending_copies:
            raise InvariantViolation(f"copy {copy} vanished (no receive/drop/pending)")
        if got:
            delay = receives[copy][0] - rec[0]
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
    delivered_g = delivered & generated
    pending_g = (pending_pids & generated) - delivered_g
    dropped_g = (dropped_pids & generated) - delivered_g - pending_g
    counts = {
        "generated": len(generated),
        "delivered": len(delivered_g),
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
