"""Deterministic discrete-event kernel: virtual clock, event queue, seeded RNG, trace.

A single run is strictly single-threaded. Every source of randomness is a
named stream derived from (seed, stream-id), so a fixed (scenario, seed)
pair reproduces the exact event sequence and therefore a byte-identical
trace.

The event queue is a heap of tuples `(time, ordinal, kind, target, payload)`;
the ordinal breaks ties in schedule order. One handler per kind is called as
`handler(sim, target, payload)`, with `sim.ordinal` set to the ordinal of the
event being handled. `schedule` returns the ordinal, the one identity an
event has: an app that supersedes a timer keeps the live one's ordinal and
ignores the others when they fire. A queued event fires at its time under its
ordinal, and nothing takes it off the queue.

A trace holds its rows as one flat list of their fields, eight to a row, so a
row costs its eight list slots (64 bytes on a 64-bit build, plus the list's
over-allocation) and no tuple of its own; iterating the trace rebuilds the
rows in C. The fields themselves are shared objects: every row of one event
holds the same `sim.now` float, and a node or kind name is one string for the
whole run. There is one write path, `append_row`, the flat list's bound
`extend`: the rows written for every packet (generate, send, receive,
deliver) pass it one eight-field tuple, which is one C call and no Python
frame; `log` takes the fields by keyword for the rarer rows and calls it.

A trace goes to text through one block formatter, `SimulationTrace._format`,
and comes back with `read_rows`, which yields the records one at a time, so a
consumer such as replay reduces them as they arrive and never holds them all.
`SimulationTrace.parse` collects them into a trace. read_rows reads only what
the writer writes: `# key=value` lines (format_preamble), the header, and a
row on every line up to the final newline, so a blank line is corrupt. A row is
one line of eight comma-separated fields, none holding a comma, a double quote,
a carriage return or a line break; nothing is quoted; its kind and reason are a
pair of ROW_KINDS.
Neither side holds a second copy of the text: the formatter's blocks are
grown into one string by `serialize`, or written to a file one at a time by
`write_to` (which `rrrt run --out` calls), and read_rows splits the text
straight into fields READ_CHUNK characters at a time and yields each chunk's
rows from its converted columns, in C; a chunk that is refused is split into
lines only to find its first bad one, and none of its rows is yielded.
read_rows takes the text or an open text file (`rrrt replay` passes the
file), and both are cut into chunks by one helper, `_cut`, the only caller of
the file's `read`, which reads it a piece at a time; so neither writing nor
reading a trace file holds its text: each holds about one block or one chunk
of it. Every file rrrt reads or
writes is opened by `open_text`: UTF-8, its line breaks as they are.
"""

from __future__ import annotations

import hashlib
import math
import random
from heapq import heappop, heappush
from itertools import accumulate, chain, compress, count, islice
from operator import ne
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, TextIO

from .errors import Corrupt, PastTime

SIGNAL_SPEED = 3.0e8  # m/s, free-space propagation


def derive_stream_seed(seed: int, stream_id: str) -> int:
    """Stable 64-bit seed for a named stream. hash() is process-salted; sha256 is not."""
    digest = hashlib.sha256(f"{seed}:{stream_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


TRACE_COLUMNS = ("time", "node", "kind", "pid", "copy", "reason", "value", "info")


class RowKind(NamedTuple):
    """A kind of trace row, as the README's table of row kinds lists it: what it records (in
    the audit's words), what each field it carries holds (of pid, copy, reason, value, info;
    any other is -1, "" or None), and its reasons."""

    event: str
    carries: dict[str, str]
    reasons: tuple[str, ...]


ROW_KINDS = {
    "generate": RowKind("generated", {"pid": "the new packet"}, ("",)),
    "send": RowKind("sent", {"pid": "the packet", "copy": "the new copy; -1 for a broadcast",
                             "value": "its sampled hop delay; empty for a broadcast"}, ("",)),
    "receive": RowKind("received", {"pid": "the packet", "copy": "the copy; -1 for a broadcast"},
                       ("",)),
    "drop": RowKind("dropped", {"pid": "the packet", "copy": "the copy; -1 for a broadcast or "
                                "before a copy is sent", "reason": "why"},
                    ("fault", "loss", "no_route", "overflow")),
    "pending": RowKind("pending", {"pid": "the packet", "copy": "the copy; -1 for a broadcast or "
                                   "an unacked packet", "reason": "where it is at the horizon"},
                       ("queued", "in_flight", "unacked")),
    "deliver": RowKind("delivered", {"pid": "the packet handed to its application", "reason":
                                     "under a delay budget, a data packet's flags: the budget held "
                                     "(1) or not (0) in literal, then in full-sum mode",
                                     "value": "its generation time", "info": "its flow"},
                       ("", "00", "10", "11")),  # full-sum holds only where literal does
    "interval": RowKind("closed", {"info": "the decision interval that ends at `time`: i, dr_o, "
                                           "dr_d, alpha, t_i, cn, cond, f_i, f_next, x"}, ("",)),
    "conn": RowKind("logged", {"reason": "set once, when the deadline passes with data left",
                               "info": "the transport sender's state: phase, r_c, r_f, r_min, "
                                       "missed, retx, or empty"}, ("", "deadline_expired")),
}
# Each (kind, reason) a row may carry, and the kinds that may carry none: read_rows takes no other.
ROW_PAIRS = frozenset((kind, reason) for kind, row in ROW_KINDS.items() for reason in row.reasons)
BARE_KINDS = frozenset(kind for kind, reason in ROW_PAIRS if not reason)


def decode_info(info: str) -> dict[str, str]:
    """The `k=v;...` state in an interval or conn row's info; ValueError on a part without `=`."""
    return dict(part.split("=", 1) for part in info.split(";"))


SERIALIZE_BLOCK = 1024  # rows formatted into one block of text by SimulationTrace._format
# About this many characters are split into fields at a time by read_rows, and
# read from a file at a time (positive: a file read of 0 characters reads none).
READ_CHUNK = 1 << 16


class SimulationTrace:
    """Append-only, time-ordered record of everything that happened in a run.

    The rows are held as one flat list of their fields, row after row, and
    iterating the trace yields each row as a tuple.
    """

    __slots__ = ("_fields", "append_row")

    def __init__(self, rows: Iterable[tuple] = ()):
        """A trace of `rows`, any iterable of eight-field rows; ValueError on a
        row of another length, since the flat list could not tell it apart."""
        fields = self._fields = []
        # One eight-field tuple a call, unchecked: another length shifts every later row.
        self.append_row = fields.extend
        width = len(TRACE_COLUMNS)
        for row in rows:
            if len(row) != width:
                raise ValueError(f"trace row of {len(row)} fields, not {width}: {row!r}")
            fields += row

    def log(self, time, node, kind, pid=-1, copy=-1, reason="", value=None, info=""):
        self.append_row((time, node, kind, pid, copy, reason, value, info))

    def __len__(self) -> int:
        return len(self._fields) // len(TRACE_COLUMNS)

    def __iter__(self) -> Iterator[tuple]:
        """The rows as tuples, rebuilt in C: zip takes eight fields at a time
        from one iterator, and reuses its tuple when the caller unpacks it."""
        return zip(*[iter(self._fields)] * len(TRACE_COLUMNS))

    def serialize(self, preamble: Optional[dict] = None) -> str:
        """Deterministic trace text, grown block by block into one string (see _format)."""
        return self._format(preamble, None)

    def write_to(self, fp, preamble: Optional[dict] = None) -> None:
        """Write the text serialize() returns to `fp`, anything with a
        `write(str)` method, one block at a time as each is formed: the text is
        never held whole."""
        self._format(preamble, fp.write)

    def _format(self, preamble: Optional[dict], write: Optional[Callable[[str], Any]]) -> str:
        """The one formatter of trace text: the preamble and header, then
        SERIALIZE_BLOCK rows at a time, each block ending with a newline. Each
        block is passed to `write` as it is formed, or, without one, appended
        to `text`, which is returned. Floats use repr() so parsing round-trips
        exactly, and a row whose time `is` the previous row's (rows logged in
        one event share the `sim.now` float) reuses its repr.

        A block and the lines it is joined from take about 150 bytes a row
        above the text. At SERIALIZE_BLOCK = 1024 rows that is about 0.15 MB,
        and a block of a run's rows is about 56 KB, under glibc's 128 KiB mmap
        threshold, so each comes from the heap, where the last one's space is
        free again. Blocks of 8192 rows held 1.2 MB above the text, which
        raised the peak resident set of a process that serializes by as much.

        `text` is the only reference to the string, which CPython then resizes
        in place: the text is never held twice. The append stays in this loop:
        CPython 3.11 resizes in place only once the code is specialized, which
        the row loop does within the first block, where a loop over the blocks
        alone would copy the text at each of its first blocks. Each block is
        dropped before the next is formed, which can then take its place, so
        the text can grow into the space after it. Other Python
        implementations return the same text but may copy it on each append.

        A field that holds a comma, a double quote, a carriage return or a line
        break raises ValueError naming its row before its block is written:
        read_rows splits a line at every comma and refuses the others, so it
        could not be read back. Each block is checked at once, in C: its n
        rows hold 7n commas and n line breaks, and no quote or carriage return.
        """
        text = format_preamble(preamble) + ",".join(TRACE_COLUMNS) + "\n"
        if write is not None:
            write(text)
            text = ""
        rows = iter(self)
        last_time = stamp = None
        for start in range(0, len(self), SERIALIZE_BLOCK):
            lines = []
            append = lines.append
            for time, node, kind, pid, copy, reason, value, info in islice(rows, SERIALIZE_BLOCK):
                if time is not last_time:
                    last_time = time
                    stamp = repr(time)
                val = "" if value is None else repr(value)
                append(f"{stamp},{node},{kind},{pid},{copy},{reason},{val},{info}")
            n = len(lines)
            append("")  # so the block ends with a newline
            block = "\n".join(lines)
            if block.count(",") != 7 * n or block.count("\n") != n or '"' in block or "\r" in block:
                _refuse(islice(self, start, start + n))
            if write is None:
                text += block
            else:
                write(block)
            del block
        return text

    @classmethod
    def parse(cls, text: str) -> tuple["SimulationTrace", dict]:
        """Inverse of serialize(): read_rows() collected into a trace."""
        preamble, rows = read_rows(text)
        return cls(rows), preamble


def _refuse(rows: Iterable[tuple]) -> None:
    """Raise ValueError naming the first of `rows` with a field that, as
    SimulationTrace._format writes it, holds a comma, a double quote, a
    carriage return or a line break."""
    for row in rows:
        time, value = row[0], row[6]
        texts = (repr(time), *row[1:6], "" if value is None else repr(value), row[7])
        for column, text in zip(TRACE_COLUMNS, map(str, texts)):
            if "," in text or '"' in text or "\r" in text or "\n" in text:
                raise ValueError(f"trace row {row[:5]!r}: {column} {text!r} holds a comma, "
                                 "a quote or a line break")


def format_preamble(preamble: Optional[dict]) -> str:
    """The `# key=value` lines that head every CSV output; read_rows() reads them."""
    return "".join(f"# {key}={val}\n" for key, val in (preamble or {}).items())


def open_text(path: str, mode: str = "r") -> TextIO:
    """`path` opened in `mode` ("r" or "w") as every text rrrt reads or writes
    is: UTF-8, with its line breaks as they are (`newline=""`) on every
    platform, so a "\r" is read back, and a trace refuses it."""
    return open(path, mode, encoding="utf-8", newline="")


def read_rows(source: str | TextIO) -> tuple[dict, Iterator[tuple]]:
    """Read serialized trace text, a string or an open text file, as
    (preamble, iterator over its records).

    The text is what format_preamble and SimulationTrace._format write, and
    nothing else: every line before the header is `# key=value`, read into
    the preamble with its key and value as written, and every line after it,
    up to the final newline, is a row of exactly the eight columns
    serialize() writes; a blank line is neither. The preamble and header are
    read at once, the rows only as the iterator is advanced, one chunk of
    about READ_CHUNK characters at a time. A file is read READ_CHUNK
    characters at a time, as its lines are needed, so neither its text nor
    its records are held whole; its line breaks are read as `fp.read` returns
    them (a file opened by open_text keeps a carriage return, which is
    corrupt). Raises Corrupt(line number) on malformed input: any other line
    before the header, or a text that ends before it, here; a bad row once
    the chunks before its own are read; and a piece of a file that is not
    UTF-8 at the line it starts in, once the lines before it are.
    """
    text, read = (source, None) if isinstance(source, str) else ("", source.read)
    preamble: dict = {}
    start = 0
    for line in count(1):
        text, start, stop, read = _cut(text, start, 0, read, line)
        if stop < 0:
            stop = len(text)
        head = text[start:stop]
        if head == ",".join(TRACE_COLUMNS):
            return preamble, chain.from_iterable(_chunks(text, stop + 1, line, read))
        key, sep, val = head[2:].partition("=")
        if not (sep and head.startswith("# ")):
            raise Corrupt(line, "unexpected trace header" if start < len(text)
                          else "missing trace header")  # nothing is left: the text ended
        if stop == len(text):
            raise Corrupt(line, "missing trace header")
        preamble[key] = val
        start = stop + 1


def _cut(text: str, start: int, least: int, read: Optional[Callable[[int], str]],
         line: int) -> tuple[str, int, int, Optional[Callable[[int], str]]]:
    """Cut the text at its first newline `least` or more characters after
    `start`, which is in line `line`: (text, start, stop, read), with `stop`
    that newline's index, or -1 and `read` None if the text ends without one.
    `read` is the file's read method, or None for a string, and no other
    function calls it: while the newline is not found, the file's next piece
    is read onto what is left of the text from `start`, and the returned
    text starts there. A piece is READ_CHUNK characters, or half of what is
    left if that is more: what is left holds less than two chunks unless a
    line is longer than a chunk, and such a line is then read in pieces that
    grow by half each time, not copied once per chunk. Corrupt at the line
    the piece starts in if the file is not UTF-8 there."""
    stop = text.find("\n", start + least)
    while stop < 0 and read is not None:
        try:
            piece = read(max(READ_CHUNK, (len(text) - start) // 2))
        except UnicodeDecodeError as exc:
            raise Corrupt(line + text.count("\n", start), f"text that is not UTF-8 ({exc})") from None
        if not piece:
            return text, start, -1, None
        text, start = text[start:] + piece, 0
        stop = text.find("\n", least)
    return text, start, stop, read


def _chunks(text: str, start: int, line: int,
            read: Optional[Callable[[int], str]]) -> Iterator[Iterator[tuple]]:
    """A zip over the columns of each chunk of the text from `start`, after line
    `line`, then of what `read` returns until the end of the file; _cut ends
    each chunk at the first newline READ_CHUNK or more characters after its
    start, so both inputs are cut alike, and the final newline ends the last
    row. The lines of each chunk read are counted from its columns. A chunk
    that _columns refuses is split into lines only to find its first bad one,
    which raises Corrupt; none of its rows is yielded."""
    last_text = last_time = None
    while True:
        text, start, stop, read = _cut(text, start, READ_CHUNK, read, line + 1)
        if stop < 0:
            if start >= len(text):
                return
            stop = len(text) - text.endswith("\n")
        chunk = text[start:stop]
        parsed = _columns(chunk, last_text, last_time)
        if isinstance(parsed, str):
            for number, row in enumerate(chunk.split("\n"), line + 1):
                if isinstance(error := _columns(row, None, None), str):
                    raise Corrupt(number, error)
        last_text, columns = parsed
        last_time = columns[0][-1]
        line += len(columns[0])
        yield zip(*columns)
        del parsed, columns  # the zip is read: free its columns before the next chunk
        start = stop + 1


def _columns(chunk: str, last_text: Optional[str], last_time: Optional[float]):
    """The time text of the last line of `chunk` and the eight converted columns of
    its lines, a time string equal to the previous line's (`last_text` before the
    first) reusing that line's float; or, for a line with a quote or a carriage
    return, of other than eight fields, with a kind and reason not in ROW_PAIRS or
    with a field that does not convert, the reason it is corrupt, checked in that
    order (for more lines, the reason of the first check that fails)."""
    if '"' in chunk or "\r" in chunk:
        return "unparsable field"
    # The fields of every line with a "\n" field between two lines: 9n - 1
    # fields, every ninth one "\n", only if each line has eight.
    n = chunk.count("\n") + 1
    fields = chunk.replace("\n", ",\n,").split(",")
    if len(fields) != 9 * n - 1 or fields[8::9].count("\n") != n - 1:
        return "wrong column count"
    kinds, reasons = fields[2::9], fields[5::9]
    if not (ROW_PAIRS.issuperset(zip(kinds, reasons)) if any(reasons)
            else BARE_KINDS.issuperset(kinds)):
        return f"no {kinds[0]!r} row carries the reason {reasons[0]!r}"
    texts = fields[0::9]
    try:
        new = [texts[0] != last_text, *map(ne, texts[1:], texts)]
        floats = [last_time, *map(float, compress(texts, new))]
        times = list(map(floats.__getitem__, accumulate(new)))
        pids = list(map(int, fields[3::9]))
        copies = list(map(int, fields[4::9]))
        values = [None if value == "" else float(value) for value in fields[6::9]]
    except ValueError:
        return "unparsable field"
    return texts[-1], (times, fields[1::9], kinds, pids, copies, reasons, values, fields[7::9])


class Simulator:
    """Virtual clock plus priority event queue with deterministic tie-breaking."""

    def __init__(self, seed: int):
        self.now = 0.0
        self.seed = seed
        self.trace = SimulationTrace()
        self._heap: list = []
        self._ordinal = 0
        # The ordinal of the event being handled. Between runs it is inf: every
        # event due by `now` has been handled, and none due later has.
        self.ordinal: float = math.inf
        self._handlers: dict[str, Callable[["Simulator", str, Any], None]] = {}
        self._rngs: dict[str, random.Random] = {}
        self._closed = False
        # Identities: `new_pid()` and `new_copy()` return the next packet and
        # copy id, each counted densely from 1 by a bound C method, so drawing
        # one opens no Python frame. A trace names them in the order drawn,
        # and `metrics.audit_trace` refuses one that does not: the n-th send
        # row with a copy names copy n, and the first row to name a pid names
        # the one after the highest pid named so far.
        self.new_pid: Callable[[], int] = count(1).__next__
        self.new_copy: Callable[[], int] = count(1).__next__

    # -- random streams ---------------------------------------------------

    def rng(self, stream_id: str) -> random.Random:
        """Named random stream; same (seed, stream-id) yields the same draws."""
        stream = self._rngs.get(stream_id)
        if stream is None:
            if self._closed:  # a new stream would restart from its seed
                raise RuntimeError(f"random stream {stream_id!r} drawn after the run was closed")
            stream = random.Random(derive_stream_seed(self.seed, stream_id))
            self._rngs[stream_id] = stream
        return stream

    # -- event queue -------------------------------------------------------

    def register(self, kind: str, handler: Callable[["Simulator", str, Any], None]) -> None:
        """Call `handler(sim, target, payload)` for every event of `kind`."""
        self._handlers[kind] = handler

    def close(self) -> None:
        """Drop every handler and every random stream once the run is over.
        The queue and the trace stay readable, and they are all a closed
        simulator keeps that grows with the run; run_until cannot dispatch
        again, and `rng` raises RuntimeError rather than restart a stream."""
        self._handlers.clear()
        self._rngs.clear()
        self._closed = True

    def schedule(self, time: float, kind: str, target: str, payload: Any = None) -> int:
        """Queue an event and return its ordinal."""
        if time < self.now:
            raise PastTime(f"event at t={time} before clock t={self.now}")
        self._ordinal += 1
        heappush(self._heap, (time, self._ordinal, kind, target, payload))
        return self._ordinal

    def run_until(self, t_end: float) -> SimulationTrace:
        """Process every event with time <= t_end in (time, ordinal) order."""
        heap = self._heap
        handlers = self._handlers
        while heap and heap[0][0] <= t_end:
            time, ordinal, kind, target, payload = heappop(heap)
            self.now = time
            self.ordinal = ordinal
            handlers[kind](self, target, payload)
        self.ordinal = math.inf
        if t_end > self.now:
            self.now = t_end
        return self.trace

    def pending_events(self) -> list[tuple]:
        """The entries `(time, ordinal, kind, target, payload)` still queued, in
        firing order."""
        return sorted(self._heap)
