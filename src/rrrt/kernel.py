"""Deterministic discrete-event kernel: virtual clock, event queue, seeded RNG, trace.

A single run is strictly single-threaded. Every source of randomness is a
named stream derived from (seed, stream-id), so a fixed (scenario, seed)
pair reproduces the exact event sequence and therefore a byte-identical
trace.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from .errors import Corrupt, PastTime

SIGNAL_SPEED = 3.0e8  # m/s, free-space propagation


def derive_stream_seed(seed: int, stream_id: str) -> int:
    """Stable 64-bit seed for a named stream. hash() is process-salted; sha256 is not."""
    digest = hashlib.sha256(f"{seed}:{stream_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(slots=True)
class SimEvent:
    """One scheduled occurrence. `ordinal` is the monotone tiebreaker assigned at schedule time;
    a cancelled event stays queued and is skipped when it comes up."""

    time: float
    target: str
    kind: str
    payload: Any = None
    ordinal: int = -1
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True


# Trace rows are plain tuples for speed:
#   (time, node, kind, pid, copy, reason, value, info)
# pid/copy are -1 when not applicable, value is None when not applicable.
TRACE_COLUMNS = ("time", "node", "kind", "pid", "copy", "reason", "value", "info")


class SimulationTrace:
    """Append-only, time-ordered record of everything that happened in a run."""

    __slots__ = ("records",)

    def __init__(self, records: Optional[list] = None):
        self.records = records if records is not None else []

    def log(self, time, node, kind, pid=-1, copy=-1, reason="", value=None, info=""):
        self.records.append((time, node, kind, pid, copy, reason, value, info))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.records)

    def to_csv_lines(self, preamble: Optional[dict] = None) -> Iterator[str]:
        """Serialize deterministically. Floats use repr() so parsing round-trips exactly."""
        for key, val in (preamble or {}).items():
            yield f"# {key}={val}"
        yield ",".join(TRACE_COLUMNS)
        for time, node, kind, pid, copy, reason, value, info in self.records:
            val = "" if value is None else repr(value)
            if "," in info or '"' in info:
                info = '"' + info.replace('"', '""') + '"'
            yield f"{time!r},{node},{kind},{pid},{copy},{reason},{val},{info}"

    def serialize(self, preamble: Optional[dict] = None) -> str:
        return "\n".join(self.to_csv_lines(preamble)) + "\n"

    @classmethod
    def parse(cls, text: str) -> tuple["SimulationTrace", dict]:
        """Inverse of serialize(). Raises Corrupt(line number) on malformed input."""
        preamble: dict = {}
        records = []
        lines = text.split("\n")
        header_seen = False
        for lineno, line in enumerate(lines, start=1):
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    preamble[key.strip()] = val
                continue
            if not header_seen:
                if line != ",".join(TRACE_COLUMNS):
                    raise Corrupt(lineno, "unexpected trace header")
                header_seen = True
                continue
            records.append(_parse_trace_row(line, lineno))
        if not header_seen:
            raise Corrupt(len(lines), "missing trace header")
        return cls(records), preamble


def _parse_trace_row(line: str, lineno: int) -> tuple:
    if line.count('"') % 2:
        raise Corrupt(lineno, "unbalanced quote")
    if '"' in line:
        head, quoted, tail = line.partition('"')[0], line.split('"', 1)[1], ""
        # only the final info column may be quoted
        info = quoted.rsplit('"', 1)[0].replace('""', '"')
        parts = head.split(",")[:-1] + [""]
    else:
        parts = line.split(",")
        info = parts[7] if len(parts) == 8 else None
    if len(parts) < 7 or info is None:
        raise Corrupt(lineno, "wrong column count")
    try:
        time = float(parts[0])
        pid = int(parts[3])
        copy = int(parts[4])
        value = None if parts[6] == "" else float(parts[6])
    except ValueError:
        raise Corrupt(lineno, "unparsable field") from None
    return (time, parts[1], parts[2], pid, copy, parts[5], value, info)


class Simulator:
    """Virtual clock plus priority event queue with deterministic tie-breaking."""

    def __init__(self, seed: int):
        self.now = 0.0
        self.seed = seed
        self.trace = SimulationTrace()
        self._heap: list = []
        self._ordinal = 0
        self._handlers: dict[str, Callable[["Simulator", SimEvent], None]] = {}
        self._rngs: dict[str, random.Random] = {}
        self._next_pid = 0
        self._next_copy = 0

    # -- identity helpers -------------------------------------------------

    def rng(self, stream_id: str) -> random.Random:
        """Named random stream; same (seed, stream-id) yields the same draws."""
        stream = self._rngs.get(stream_id)
        if stream is None:
            stream = random.Random(derive_stream_seed(self.seed, stream_id))
            self._rngs[stream_id] = stream
        return stream

    def new_pid(self) -> int:
        self._next_pid += 1
        return self._next_pid

    def new_copy(self) -> int:
        self._next_copy += 1
        return self._next_copy

    # -- event queue -------------------------------------------------------

    def register(self, node_id: str, handler: Callable[["Simulator", SimEvent], None]) -> None:
        self._handlers[node_id] = handler

    def schedule(self, event: SimEvent) -> SimEvent:
        """Queue `event` and return it; its cancel() keeps it from firing."""
        if event.time < self.now:
            raise PastTime(f"event at t={event.time} before clock t={self.now}")
        self._ordinal += 1
        event.ordinal = self._ordinal
        heapq.heappush(self._heap, (event.time, self._ordinal, event))
        return event

    def run_until(self, t_end: float) -> SimulationTrace:
        """Process every event with time <= t_end in (time, ordinal) order."""
        heap = self._heap
        handlers = self._handlers
        while heap and heap[0][0] <= t_end:
            time, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self.now = time
            handlers[event.target](self, event)
        if t_end > self.now:
            self.now = t_end
        return self.trace

    def pending_events(self) -> Iterator[SimEvent]:
        """Events still queued (used to account for in-flight packets at the horizon)."""
        for _, _, event in sorted(self._heap):
            if not event.cancelled:
                yield event
