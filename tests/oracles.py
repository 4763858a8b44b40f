"""Independent reference implementations used only by the tests.

These are deliberately written as straight-line transcriptions or brute-force
procedures, structured differently from the library code they check.
"""

from __future__ import annotations

import math

from rrrt.congestion import DROPPED, ENQUEUED, NodeBuffer
from rrrt.errors import Corrupt, InvariantViolation
from rrrt.kernel import ROW_KINDS, TRACE_COLUMNS
from rrrt.transport import SackInfo


def update_law_transcription(f_i, dr_o, dr_d, t_i, t_sa, cn, beta, x, f_min, f_cap,
                             eq4_alt=False, eq6_alt=False):
    """Nested-branch rendition of the five frequency-update rules.

    Mirrors the published decision structure directly: congestion first, then
    the reliability indicator against 1 (strict band tests without
    congestion), with the same tie and degenerate-case choices as the
    library: indicator exactly 1 under congestion takes the early branch,
    zero on-time packets without congestion jump to f_cap, and the congested
    exponential decrease never raises the frequency.
    """
    delta = dr_o / dr_d
    if cn:
        if delta < 1:
            if eq6_alt:
                f_next = f_i * dr_o / (dr_d * x)
            else:
                f_next = min(f_i, f_i ** (dr_o / (dr_d * x)))
            x_next = x + 1
        else:
            if eq4_alt:
                f_next = min(f_i * (t_i / t_sa), f_i * (dr_d / dr_o))
            else:
                f_next = min(f_i * (t_i / t_sa), f_i * (t_i / t_sa))
            x_next = 1
    else:
        if delta < 1 - beta:
            if dr_o < 1:
                f_next = f_cap
            else:
                f_next = f_i * (dr_d / dr_o)
        elif delta > 1 + beta:
            f_next = f_i * (t_i / t_sa)
        else:
            f_next = f_i
        x_next = 1
    if f_next < f_min:
        f_next = f_min
    if f_next > f_cap:
        f_next = f_cap
    return f_next, x_next


def condition_table(alpha, cn, beta):
    """Independently coded classification table (strings, decision-table style)."""
    rows = [
        (lambda: cn and alpha < 1.0, "LowRelCong"),
        (lambda: cn and alpha >= 1.0, "EarlyRelCong"),
        (lambda: not cn and alpha < 1.0 - beta, "LowRelNoCong"),
        (lambda: not cn and alpha > 1.0 + beta, "EarlyRelNoCong"),
        (lambda: not cn and 1.0 - beta <= alpha <= 1.0 + beta, "AdequateRelNoCong"),
    ]
    matches = [name for pred, name in rows if pred()]
    assert len(matches) == 1, f"classification not total/unique at {(alpha, cn, beta)}"
    return matches[0]


def linear_field_step(f, n_sources, dr_d, t_sa, beta, f_min, f_cap,
                      service_rate=None, cross_rate=0.0, x=1):
    """One decision interval of a brute-force fluid model of the sensor field.

    On-time deliveries scale linearly with the reporting frequency until the
    shared relay saturates; under overload the relay serves at its rate and
    flags congestion. Returns (f_next, x_next, condition).
    """
    offered = n_sources * f + cross_rate
    if service_rate is None or offered <= service_rate:
        congested = False
        delivered = n_sources * f * t_sa
    else:
        congested = True
        delivered = service_rate * t_sa * (n_sources * f) / offered
    dr_o = math.floor(delivered)
    alpha = dr_o / dr_d
    cond = condition_table(alpha, congested, beta)
    arrival_rate = delivered / t_sa
    t_i = dr_d / arrival_rate if dr_o >= dr_d else math.inf
    f_next, x_next = update_law_transcription(
        f, dr_o, dr_d, t_i, t_sa, congested, beta, x, f_min, f_cap)
    return f_next, x_next, cond


def intervals_to_adequate(f_init, n_sources, dr_d, t_sa=1.0, beta=0.05,
                          f_min=0.1, f_cap=50.0, service_rate=None,
                          cross_rate=0.0, cross_intervals=0, max_intervals=60):
    """Brute-force convergence count: intervals until the fluid model stays adequate."""
    f, x = f_init, 1
    for i in range(1, max_intervals + 1):
        cross = cross_rate if i <= cross_intervals else 0.0
        f_next, x, cond = linear_field_step(
            f, n_sources, dr_d, t_sa, beta, f_min, f_cap, service_rate, cross, x)
        if cond == "AdequateRelNoCong" and cross == 0.0:
            return i
        f = f_next
    return None


def sack_holes_oracle(received: set[int]) -> list[int]:
    """Holes below the highest received sequence, by exhaustive scan."""
    if not received:
        return []
    top = max(received)
    return [seq for seq in range(1, top + 1) if seq not in received]


def build_sack_oracle(received: set[int]) -> SackInfo:
    """Sort-based SACK construction: cumulative prefix, then maximal runs."""
    if not received:
        return SackInfo(0, [])
    seqs = sorted(received)
    cum = 0
    i = 0
    while i < len(seqs) and seqs[i] == cum + 1:
        cum += 1
        i += 1
    blocks: list[tuple[int, int]] = []
    while i < len(seqs):
        lo = hi = seqs[i]
        i += 1
        while i < len(seqs) and seqs[i] == hi + 1:
            hi = seqs[i]
            i += 1
        blocks.append((lo, hi))
    return SackInfo(cum, blocks)


def on_sack_oracle(state, sack: SackInfo, retx_buffer: dict[int, float],
                   now: float) -> list[int]:
    """Set-based SACK processing: drop every acknowledged sequence from the
    buffer, then return the holes up to the highest ack that are past the
    RTT guard, in ascending order."""
    for seq in sack.received_set():
        retx_buffer.pop(seq, None)
    top = sack.highest()
    guard = state.rtt_estimate
    return [seq for seq in sorted(retx_buffer)
            if seq <= top and now - retx_buffer[seq] >= guard]


def serialize_oracle(records, preamble=None) -> str:
    """Line-list trace serialization: every row formatted on its own, its
    time through repr(), and one join over the whole trace. A line with other
    than seven commas, or with a double quote, a carriage return or a line
    break, raises ValueError naming its row."""
    lines = [f"# {key}={val}" for key, val in (preamble or {}).items()]
    lines.append(",".join(TRACE_COLUMNS))
    append = lines.append
    for time, node, kind, pid, copy, reason, value, info in records:
        val = "" if value is None else repr(value)
        line = f"{time!r},{node},{kind},{pid},{copy},{reason},{val},{info}"
        if line.count(",") != 7 or '"' in line or "\r" in line or "\n" in line:
            raise ValueError(f"trace row {(time, node, kind, pid, copy)!r} cannot be read back")
        append(line)
    return "\n".join(lines) + "\n"


def read_rows_oracle(text: str):
    """Row-by-row trace reader: the preamble, and an iterator that takes every
    line after the header on its own, splits it at its commas and converts
    each field, reusing the previous row's float when its time string
    repeats. Every line before the header is `# key=value`, kept as written;
    any other line there raises Corrupt(line number, "unexpected trace
    header"), and a text that ends before the header, "missing trace header".
    Every line after the header, up to the final newline, is a row, a blank
    one too: a line with a quote or a carriage return, of other than eight
    fields, whose kind is not one of ROW_KINDS or whose reason is not one of
    its kind's, or with a field that does not convert raises Corrupt(line
    number), checked in that order, as kernel.read_rows does."""
    preamble: dict = {}
    lines = text.split("\n")
    for header_line, line in enumerate(lines, start=1):
        if line == ",".join(TRACE_COLUMNS):
            break
        if header_line == len(lines) and line == "":
            raise Corrupt(header_line, "missing trace header")
        if not line.startswith("# ") or "=" not in line:
            raise Corrupt(header_line, "unexpected trace header")
        key, _, val = line[2:].partition("=")
        preamble[key] = val
    else:
        raise Corrupt(header_line, "missing trace header")
    rows = lines[header_line:]
    if rows[-1:] == [""]:
        del rows[-1]  # what follows the final newline

    def records():
        last_text = last_time = None
        for number, line in enumerate(rows, start=header_line + 1):
            if '"' in line or "\r" in line:
                raise Corrupt(number, "unparsable field")
            row = line.split(",")
            if len(row) != 8:
                raise Corrupt(number, "wrong column count")
            time, node, kind, pid, copy, reason, value, info = row
            if kind not in ROW_KINDS or reason not in ROW_KINDS[kind].reasons:
                raise Corrupt(number, f"no {kind!r} row carries the reason {reason!r}")
            try:
                if time != last_text:
                    last_time = float(time)
                    last_text = time
                record = (last_time, node, kind, int(pid), int(copy), reason,
                          None if value == "" else float(value), info)
            except ValueError:
                raise Corrupt(number, "unparsable field") from None
            yield record

    return preamble, records()


def audit_trace_oracle(trace) -> dict:
    """The checks of metrics.audit_trace, made over the whole trace: every
    send, receive and drop row of a copy, and the pids of its pending rows,
    are kept until the walk over the rows ends, and then each sent copy is
    checked against them in send order. Where a row is read, in this order:
    a kind that is not one of ROW_KINDS or a reason that is not one of its
    kind's; a row whose pid, not named before, is not the one after the
    highest named so far; a send row of a copy already sent, or whose copy
    is not the one after the copies sent so far; a receive, drop or pending
    row of a copy not yet sent, a pending row of a copy already received, a
    drop row of one received before this row's time; a generate or deliver
    row of a pid below 0, or a second generate row of a pid. Raises
    InvariantViolation with the message of the first check that fails, as
    metrics.audit_trace does on a trace with one defect, and otherwise
    returns the same counts."""
    last_time = -1.0
    sends: dict[int, tuple] = {}
    receives: dict[int, tuple] = {}
    copy_drops: dict[int, tuple] = {}
    pending_copies: dict[int, set[int]] = {}
    received_now: set[int] = set()  # copies received at last_time
    generated: set[int] = set()
    delivered: set[int] = set()
    pending_pids: set[int] = set()
    dropped_pids: set[int] = set()
    top = 0  # the highest pid named

    for rec in trace:
        time, node, kind, pid, copy, reason = rec[:6]
        if time < last_time:
            raise InvariantViolation(f"trace time went backwards at {time}")
        if time != last_time:
            received_now.clear()
        last_time = time
        if kind not in ROW_KINDS or reason not in ROW_KINDS[kind].reasons:
            raise InvariantViolation(f"no {kind!r} row carries the reason {reason!r}")
        if pid > top:
            if pid != top + 1:
                raise InvariantViolation(f"pid {pid} named before pid {top + 1}")
            top = pid
        if kind == "send" and copy >= 0:
            if copy in sends:
                raise InvariantViolation(f"copy {copy} sent twice")
            if copy != len(sends) + 1:
                raise InvariantViolation(f"copy {copy} sent before copy {len(sends) + 1}")
            sends[copy] = rec
        elif kind == "receive" and copy >= 0:
            if copy not in sends:
                raise InvariantViolation(f"copy {copy} received before it was sent")
            if copy in receives:
                raise InvariantViolation(f"copy {copy} received twice")
            receives[copy] = rec
            received_now.add(copy)
        elif kind == "drop":
            if copy >= 0:
                if copy not in sends:
                    raise InvariantViolation(f"copy {copy} dropped before it was sent")
                if copy in copy_drops:
                    raise InvariantViolation(f"copy {copy} dropped twice")
                if copy in receives and copy not in received_now:
                    raise InvariantViolation(f"copy {copy} dropped after it was received")
                copy_drops[copy] = rec
            if pid >= 0:
                dropped_pids.add(pid)
        elif kind == "pending":
            if copy >= 0:
                if copy not in sends:
                    raise InvariantViolation(f"copy {copy} pending before it was sent")
                if copy in receives:
                    raise InvariantViolation(f"copy {copy} pending after it was received")
                pending_copies.setdefault(copy, set()).add(pid)
            if pid >= 0:
                pending_pids.add(pid)
        elif kind in ("generate", "deliver") and pid < 0:
            raise InvariantViolation(f"a {kind} row names pid {pid}, below 0")
        elif kind == "generate":
            if pid in generated:
                raise InvariantViolation(f"pid {pid} generated twice")
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
                or pending_copies.get(copy, {pid}) != {pid}):
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


class EagerRollBuffer(NodeBuffer):
    """A NodeBuffer whose every method calls `_roll` for its time, whether or
    not that time has left the epoch last rolled to: the reference for the
    buffer's methods, which enter `_roll` only when it has."""

    def try_enqueue(self, now):
        self._roll(int(now / self.epoch_len))
        if self.occupancy < self.capacity:
            self.occupancy += 1
            return ENQUEUED
        return DROPPED

    def release(self, now):
        self._roll(int(now / self.epoch_len))
        self.occupancy -= 1
        if self.occupancy < 0:
            raise InvariantViolation("buffer occupancy went negative")

    def settle(self, now, ordinal):
        while self.due:
            time, entry_ordinal = self.due[0][:2]
            if time > now or (time == now and entry_ordinal > ordinal):
                return
            del self.due[0]
            self._roll(int(time / self.epoch_len))
            self.occupancy -= 1

    def flag(self, now):
        self._roll(int(now / self.epoch_len))
        return self.cn
