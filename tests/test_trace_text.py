"""Trace text: serialize against its line-list oracle, read_rows of a string
and of a file against its row-by-row oracle, the streaming replay against the
list path and the live report, replay of a file against replay of its text,
replay of mutated traces, the table of row kinds against the rows that runs
write, and the memory that writing, auditing and replaying a finished run take."""

import io
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import read_rows_oracle, serialize_oracle
from rrrt import kernel
from rrrt.cli import _write_outputs, main
from rrrt.errors import Corrupt
from rrrt.kernel import (ROW_KINDS, ROW_PAIRS, SERIALIZE_BLOCK, TRACE_COLUMNS, SimulationTrace,
                         read_rows)
from rrrt.metrics import audit_trace
from rrrt.runner import replay, replay_text, run_traced
from rrrt.scenario import set_param
from shipped import SHIPPED, congested_run, shipped, shipped_run
from test_faults import FAULT_SHA256, run_with_fault
from test_runner import BUDGET_PINS, budget_pin, expired_deadline_cfg
from util import run_and_serialize


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_trace_serializes_as_the_oracle_and_streams_as_the_list(name):
    run = shipped_run(name)
    assert run.text_sha256 == run.oracle_sha256 == run.written_sha256
    assert run.streamed == run.listed == run.live


def test_replay_streams_without_building_the_record_list(monkeypatch):
    _, text = run_and_serialize(shipped("transport_lossy"), 1)
    expected = replay_text(text)

    def collect(cls, text):
        raise AssertionError("replay built the record list")

    monkeypatch.setattr(SimulationTrace, "parse", classmethod(collect))
    assert replay_text(text) == expected


def as_file(text: str) -> io.TextIOWrapper:
    """`text` as `runner.replay` opens a trace file: UTF-8, its line breaks as
    they are."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline="")


# read_rows takes the text, or an open file that it reads READ_CHUNK characters at a time.
SOURCES = {"text": lambda text: text, "file": as_file}


@pytest.mark.parametrize("source", SOURCES)
def test_read_rows_reuses_the_float_of_a_repeated_time(source):
    text = "time,node,kind,pid,copy,reason,value,info\n0.5,a,send,1,1,,,\n0.5,b,send,2,2,,,\n"
    first, second = read_rows(SOURCES[source](text))[1]
    assert first[0] is second[0]
    # The last row of one chunk and the first of the next.
    edge = 64
    rows = [f"{i / 8},a,send,{i},{i},,," for i in range(2 * edge)]
    rows[edge - 1] = rows[edge] = "0.5,b,send,1,1,,,"
    # The first chunk ends with row edge - 1, which starts READ_CHUNK
    # characters after the first row.
    chunk = sum(len(row) + 1 for row in rows[:edge - 1])
    text = "\n".join([",".join(TRACE_COLUMNS)] + rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "READ_CHUNK", chunk)
        records = list(read_rows(SOURCES[source](text))[1])
        # A blank line in the first chunk or the second is Corrupt at its
        # line, and no row of its chunk is read.
        for blank, read in ((0, 0), (edge + 1, edge)):
            lines = text.split("\n")
            lines[blank + 1] = ""
            _, records_read, error = read_all(read_rows, SOURCES[source]("\n".join(lines)))
            expected = (blank + 2, f"wrong column count at line {blank + 2}")
            assert (len(records_read), error) == (read, expected)
    assert records[edge - 1][1] == records[edge][1] == "b"
    assert records[edge - 1][0] is records[edge][0]


def test_a_file_is_read_in_pieces_that_cut_rows(monkeypatch):
    """A file is read READ_CHUNK characters at a time, here 64, so most rows
    are cut across two pieces; its preamble and records are those of its text.
    A line longer than a chunk is not read a chunk at a time."""
    monkeypatch.setattr(kernel, "READ_CHUNK", 64)
    text = long_trace(200).serialize({"seed": 1})
    pieces = []

    def read(size):
        pieces.append(fp.read(size))
        return pieces[-1]

    fp = as_file(text)
    preamble, records = read_rows(SimpleNamespace(read=read))
    assert (preamble, list(records)) == (read_rows(text)[0], list(read_rows(text)[1]))
    assert "".join(pieces) == text
    assert {len(piece) for piece in pieces[:-2]} == {64}
    assert sum(not piece.endswith("\n") for piece in pieces) > 0.9 * len(pieces)
    # A line 100 pieces long is read in pieces that grow by half each time.
    pieces.clear()
    fp = as_file(",".join(TRACE_COLUMNS) + "\n" + "x" * 6400)
    with pytest.raises(Corrupt, match="wrong column count at line 2"):
        list(read_rows(SimpleNamespace(read=read))[1])
    assert len(pieces) < 20


def one_row(time, info=""):
    return (time, "n0", "send", 1, 1, "", None, info)


def test_serialize_matches_the_oracle_on_edge_cases():
    def check(records, preamble=None):
        trace = SimulationTrace(records)
        assert trace.serialize(preamble) == serialize_oracle(records, preamble)

    check([])
    check([], {"seed": 1})
    check([one_row(0.5, "i=1;cond=LowRelCong"), one_row(0.5),
           (0.75, "n1", "deliver", 2, -1, "10", 0.125, "data")], {"seed": 1})
    # Rows over several blocks, one time object on both sides of a block
    # boundary, and the last block full.
    shared = 1.25
    rows = [one_row(i / 7) for i in range(2 * SERIALIZE_BLOCK + 5)]
    rows[SERIALIZE_BLOCK - 1] = rows[SERIALIZE_BLOCK] = one_row(shared)
    check(rows)
    check(rows[:2 * SERIALIZE_BLOCK])
    # Equal but distinct time objects, including the two zeros, which are
    # equal and print differently.
    a, b = float("0.1"), float("0.1")
    assert a is not b
    check([one_row(a), one_row(b), one_row(0.0), one_row(-0.0), one_row(-0.0), one_row(0.0)])


# Fields of a trace row that convert, and the replacements that make a chunk
# corrupt at their line: infos with a quote (as a CSV writer would quote a comma, a
# quote or a line break) or a carriage return, fields that do not convert,
# and a kind or reason outside the table of row kinds.
TIMES = ("0.5", "1.25", "2", "1e-3", "-0.0", "nan")
INTS = ("1", "-1", "12")
VALUES = ("", "0.125", "3")
INFOS = ("", "data", "i=1;cond=LowRelCong")
ODD_INFOS = ('"a,b"', '"say ""hi"""', '"x\ny"', '"data"', "dat\ra", "data\r", '"open')
BAD_FIELDS = ("x", "", "1.5")
# "10" is a reason of deliver rows only, and "" one of every kind but drop and pending.
UNLISTED = ("sned", "lost", "10", "")
LINES = ("", ",".join("1" * 15), "0.5,n0,send,1,1,,", "0.5,0.5,n0,send,1,1,,,", "\r")


@st.composite
def trace_lines(draw):
    """A row of eight fields of any kind, with one of its kind's reasons,
    most of the time, and one in four of them with a field replaced; else
    another line: blank, of 15, 7 or 9 fields, a lone carriage return, or a
    few random characters."""
    how = draw(st.integers(0, 19))
    if how < 16:
        kind = draw(st.sampled_from(tuple(ROW_KINDS)))
        fields = [draw(st.sampled_from(TIMES)), draw(st.sampled_from(("n0", "a b"))), kind,
                  draw(st.sampled_from(INTS)), draw(st.sampled_from(INTS)),
                  draw(st.sampled_from(ROW_KINDS[kind].reasons)), draw(st.sampled_from(VALUES)),
                  draw(st.sampled_from(INFOS))]
        if how >= 12:
            at = draw(st.sampled_from((0, 2, 3, 4, 5, 6, 7)))
            fields[at] = draw(st.sampled_from(
                ODD_INFOS if at == 7 else UNLISTED if at in (2, 5) else BAD_FIELDS))
        return ",".join(fields)
    if how < 19:
        return draw(st.sampled_from(LINES))
    return draw(st.text(alphabet='01.,"\r\nx', max_size=12))


def read_all(read, text):
    """(preamble, records read, (offset, message) of the Corrupt raised or None)."""
    preamble, records = None, []
    try:
        preamble, rows = read(text)
        for record in rows:
            records.append(record)
    except Corrupt as exc:
        return preamble, records, (exc.offset, str(exc))
    return preamble, records, None


ROW = "0.5,n0,send,1,1,,,"


@settings(max_examples=400, deadline=None, database=None)
@given(head=st.sampled_from(("", "# seed=1\n", "# seed=1\n\n", "\n", "# note\n", "#seed=1\n",
                             "time,node\n")),
       lines=st.lists(trace_lines(), max_size=24), chunk=st.integers(0, 40))
@example(head="", lines=[], chunk=1)  # no row
@example(head="", lines=[ROW, "0.5,n0,send,2,2,,,"], chunk=1)  # no trailing newline
@example(head="\n", lines=[ROW], chunk=1)  # a blank line before the header
@example(head="# note\n", lines=[ROW], chunk=1)  # a preamble line that is not `# key=value`
@example(head="", lines=["", ROW], chunk=1)  # a blank line as the first row
@example(head="", lines=[ROW, "", ROW], chunk=len(ROW))  # "\n\n" at the chunk edge
@example(head="", lines=[ROW, "", ""], chunk=1)  # a blank line after the final newline
@example(head="", lines=[ROW + "\r", ROW + "\r"], chunk=len(ROW))  # "\r" at the chunk edge
@example(head="", lines=[ROW, "0.5," + "b" * 40 + ",send,2,2,,,", ROW, ""],
         chunk=3)  # a line longer than the chunk
@example(head="", lines=[ROW, "", ",".join("1" * 15), ROW],
         chunk=80)  # 32 fields in four lines, the blank one first refused
@example(head="", lines=[ROW, '0.5,n0,send,1,1,,,"x\ny"', "0.5,n0,send,2,2,,,"],
         chunk=0)  # a quoted line break across a chunk edge
@example(head="", lines=["0.5,n0,send,1,1,,", "0.5,0.5,n0,send,1,1,,,"],
         chunk=80)  # 7 and 9 fields that would convert as 8 and 8
@example(head="", lines=[ROW, "a,b,c", "d,e,f,g"],
         chunk=80)  # 17 = 9 * 2 - 1 fields in three lines, "\n" the ninth
@example(head="", lines=[ROW, "0.5,n0,drop,1,1,,,"], chunk=80)  # no reason, which a drop needs
@example(head="", lines=[ROW, "", "0.5,n0,send,x,1,,,", ROW],
         chunk=80)  # a blank line, then a bad one, in one chunk: the blank one is refused
@example(head="", lines=[ROW, "", "", ROW], chunk=1)  # a chunk of two blank lines
@example(head="", lines=[ROW, "", "0.5,n0,send,x,1,,,", ROW],
         chunk=len(ROW) + 1)  # a blank line that ends a chunk, before a bad one
@pytest.mark.parametrize("source", SOURCES)
def test_read_rows_matches_the_row_by_row_reader(source, head, lines, chunk):
    """A file is read in pieces of READ_CHUNK characters, here 1 to 40, so its
    rows and its preamble lines are split across pieces. The same preamble
    and the same Corrupt, or none; without one, the same records. No row of a
    refused chunk is read, so before a Corrupt the records read are the first
    ones of the oracle's."""
    text = head + ",".join(TRACE_COLUMNS) + "\n" + "\n".join(lines)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "READ_CHUNK", chunk if source == "text" else max(chunk, 1))
        preamble, records, error = read_all(read_rows, SOURCES[source](text))
        expected_preamble, expected, expected_error = read_all(read_rows_oracle, text)
    assert (preamble, error) == (expected_preamble, expected_error)
    if error is None:
        assert len(records) == len(expected)
    # repr tells -0.0 from 0.0 and compares nan with nan.
    assert list(map(repr, records)) == list(map(repr, expected[:len(records)]))
    for at in range(1, len(records)):
        if expected[at][0] is expected[at - 1][0]:
            assert records[at][0] is records[at - 1][0]


def test_a_quoted_line_break_is_refused_at_its_line(tmp_path):
    """A CSV writer would quote an info with a line break across two lines;
    the trace grammar has no quoting, so the first of them is corrupt."""
    text = ",".join(TRACE_COLUMNS) + '\n0.5,n,send,1,1,,,"a\nb"\n'
    with pytest.raises(Corrupt) as raised:
        list(read_rows(text)[1])
    assert raised.value.offset == 2
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["replay", "--trace", str(path)]) == 3


def test_a_carriage_return_is_refused_at_its_line_in_text_and_file(tmp_path):
    """replay reads a file's line breaks as they are: a CRLF copy of a shipped
    trace exits 3, as replay_text of the same text raises Corrupt (its header
    line ends in "\r")."""
    _, text = run_and_serialize(shipped("transport_lossy"), 1)
    crlf = text.replace("\n", "\r\n")
    with pytest.raises(Corrupt, match="unexpected trace header"):
        replay_text(crlf)
    path = tmp_path / "trace.csv"
    path.write_bytes(crlf.encode("utf-8"))
    assert main(["replay", "--trace", str(path)]) == 3
    # A "\r" inside the info of the third row, whose info is the last field.
    lines = text.split("\n")
    at = lines.index(",".join(TRACE_COLUMNS)) + 3
    lines[at] += "a\rb"
    with pytest.raises(Corrupt, match="unparsable field") as raised:
        list(read_rows("\n".join(lines))[1])
    assert raised.value.offset == at + 1


@pytest.fixture(scope="module")
def lossy_text() -> str:
    """transport_lossy's seed-1 trace text."""
    return run_and_serialize(shipped("transport_lossy"), 1)[1]


def replayed(replay_of, source):
    """The report replay_of(source) returns, or the message of the Corrupt it raises."""
    try:
        return replay_of(source)
    except Corrupt as exc:
        return f"Corrupt: {exc}"


def header_only(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if line.startswith(("#", "time,")))


# A trace text changed as a file on disk may be, and whether replay refuses it.
FILE_CASES = {
    "whole": (lambda text: text, False),
    "empty": (lambda text: "", True),
    "header_only": (header_only, False),
    "last_line_truncated": (lambda text: text[:-10], True),
    "cut_mid_file": (lambda text: text[:len(text) // 2], True),
    "crlf": (lambda text: text.replace("\n", "\r\n"), True),
    # A lone "\r" does not end a line: the flow becomes "xfer\rdata", which no row carries.
    "carriage_return_in_the_preamble": (lambda text: text.replace("=xfer\n", "=xfer\rdata\n"),
                                        False),
    # The text ends in its first `# k=v` line, with no newline after it.
    "cut_in_the_preamble": (lambda text: text[:text.index("\n")], True),
}


@pytest.mark.parametrize("chunk", [64, kernel.READ_CHUNK])
@pytest.mark.parametrize("case", FILE_CASES)
def test_replay_of_a_file_is_replay_text_of_its_text(tmp_path, monkeypatch, lossy_text, case,
                                                     chunk):
    """The file read in pieces of 64 characters, which cut its rows, or of
    READ_CHUNK: the same report, or the same Corrupt line and message, and
    `rrrt replay` exits 3 on the same cases."""
    make, corrupt = FILE_CASES[case]
    text = make(lossy_text)
    assert text != lossy_text or case == "whole"
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(kernel, "READ_CHUNK", chunk)
    expected = replayed(replay_text, text)
    assert isinstance(expected, str) == corrupt
    assert replayed(replay, str(path)) == expected
    assert main(["replay", "--trace", str(path)]) == (3 if corrupt else 0)


HEADER = ",".join(TRACE_COLUMNS)


def second_chunk(text: str, lines: list[str]) -> int:
    """The index in `lines` of the first line of the second chunk read_rows reads."""
    first_row = text.index("\n" + HEADER + "\n") + len(HEADER) + 2
    return text.count("\n", 0, text.index("\n", first_row + kernel.READ_CHUNK)) + 1


# A line that the writer never writes, the index in the trace's lines that it
# is put at, and the message of the Corrupt at its line.
ADDED_LINES = {
    "note_before_the_header": ("# note", lambda text, lines: 0, "unexpected trace header"),
    "blank_before_the_header": ("", lambda text, lines: lines.index(HEADER),
                                "unexpected trace header"),
    "blank_first_row": ("", lambda text, lines: lines.index(HEADER) + 1, "wrong column count"),
    "blank_mid_file": ("", lambda text, lines: len(lines) // 2, "wrong column count"),
    "blank_at_a_chunk_edge": ("", second_chunk, "wrong column count"),
    "extra_newline_at_the_end": ("", lambda text, lines: len(lines) - 1, "wrong column count"),
}


@pytest.mark.parametrize("case", ADDED_LINES)
def test_replay_refuses_a_line_the_writer_never_writes(tmp_path, capsys, lossy_text, case):
    """transport_lossy's seed-1 trace.csv replays to its run's report. With one
    line added that the writer never writes, replay_text of its text and
    replay of the file raise Corrupt at that line, and `rrrt replay` exits 3
    and names it."""
    path = tmp_path / "trace.csv"
    path.write_bytes(lossy_text.encode("utf-8"))
    assert replay(str(path)) == shipped_run("transport_lossy").live
    added, where, message = ADDED_LINES[case]
    lines = lossy_text.split("\n")
    at = where(lossy_text, lines)
    lines.insert(at, added)
    text = "\n".join(lines)
    path.write_bytes(text.encode("utf-8"))
    expected = f"{message} at line {at + 1}"
    assert replayed(replay_text, text) == replayed(replay, str(path)) == f"Corrupt: {expected}"
    assert main(["replay", "--trace", str(path)]) == 3
    assert capsys.readouterr().err == f"corrupt trace: {expected}\n"


def test_a_byte_that_is_not_utf8_past_the_first_piece_is_corrupt_at_its_piece(
        tmp_path, monkeypatch, lossy_text):
    """replay reads the file a piece at a time: a byte that is not UTF-8 in a
    row far into it raises Corrupt at the line its piece starts in, at or
    before the row's, once the rows before that piece are read; the text
    without it replays."""
    monkeypatch.setattr(kernel, "READ_CHUNK", 4096)
    lines = lossy_text.split("\n")
    at = len(lines) // 2
    data = lossy_text.encode("utf-8")
    offset = data.index(lines[at].encode("utf-8"))
    assert offset > 3 * kernel.READ_CHUNK
    path = tmp_path / "trace.csv"
    path.write_bytes(data[:offset + 3] + b"\xff" + data[offset + 4:])
    with pytest.raises(Corrupt, match="text that is not UTF-8") as raised:
        replay(str(path))
    line = raised.value.offset
    assert lines.index(",".join(TRACE_COLUMNS)) + 1 < line <= at + 1
    assert len("\n".join(lines[line - 1:at])) < 2 * kernel.READ_CHUNK + 8192  # its piece
    assert replay_text(lossy_text).aggregate_throughput > 0
    assert main(["replay", "--trace", str(path)]) == 3


def long_trace(rows: int) -> SimulationTrace:
    trace = SimulationTrace()
    for i in range(rows):
        trace.log(i / 7, f"n{i % 9}", "send", i, i, "", 0.125)
    return trace


def chunk_of(lines: list[str], line: int) -> range:
    """The numbers of the lines in the chunk read_rows reads line `line` of
    `lines` in, the header being line 1: a chunk ends at the first newline
    READ_CHUNK or more characters after its start, so a line that starts
    exactly READ_CHUNK characters in is its last."""
    first, length = 2, 0
    for number, text in enumerate(lines[1:], start=2):
        if length > kernel.READ_CHUNK:
            first, length = number, 0
        length += len(text) + 1
        if number == line:
            while length <= kernel.READ_CHUNK and number < len(lines):
                length += len(lines[number]) + 1
                number += 1
            return range(first, number + 1)
    raise ValueError(f"no line {line}")


def test_a_bad_row_past_the_first_chunk_raises_at_its_line(monkeypatch):
    """From the text and from a file, read in pieces of READ_CHUNK characters:
    the same line and the same message."""
    monkeypatch.setattr(kernel, "READ_CHUNK", 4096)
    lines = long_trace(2000).serialize().split("\n")
    # The bad row is the first, a middle or the last line of the chunk that
    # holds line 1701. It takes the place of a row, padded to its length, so
    # that every chunk keeps its lines.
    chunk = chunk_of(lines, 1701)
    for line in (chunk[0], 1701, chunk[-1]):
        for bad in ("0.5,n0,send,1,1,,", "0.5,n0,send,x,1,,,", "0.5,n0,send,1,1,,v,",
                    "0.5,n0,send,1,1,,,,", "0.5,n0,se\rnd,1,1,,,"):
            bad = bad.ljust(len(lines[line - 1]), "x")
            text = "\n".join(lines[:line - 1] + [bad] + lines[line:])
            assert chunk_of(text.split("\n"), line) == chunk
            assert text.index(bad) > 3 * kernel.READ_CHUNK
            with pytest.raises(Corrupt) as parsed:
                SimulationTrace.parse(text)
            with pytest.raises(Corrupt) as streamed:
                list(read_rows(text)[1])
            with pytest.raises(Corrupt) as read:
                list(read_rows(as_file(text))[1])
            assert parsed.value.offset == streamed.value.offset == read.value.offset == line
            assert str(parsed.value) == str(streamed.value) == str(read.value)
            assert text.split("\n")[line - 1] == bad


def traced_peak(fn):
    """The value of fn() and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        value = fn()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_serialize_holds_the_text_once():
    """serialize holds the text once, plus one block and its lines, about
    150 bytes a row of the block: a fifth of a text 17 blocks long."""
    text, peak = traced_peak(long_trace(16 * SERIALIZE_BLOCK + 5).serialize)
    assert peak < 1.3 * len(text)


def read_peak(source) -> int:
    """The peak of the memory allocated while the records of `source`, a
    trace's text or its open file, are read and dropped, in bytes."""
    def consume():
        for _ in read_rows(source)[1]:
            pass

    return traced_peak(consume)[1]


@pytest.mark.parametrize("source", SOURCES)
def test_read_rows_holds_one_chunk_of_lines(monkeypatch, source):
    text = long_trace(20000).serialize()
    monkeypatch.setattr(kernel, "READ_CHUNK", len(text) // 100)
    assert read_peak(SOURCES[source](text)) < 0.25 * len(text)


@pytest.mark.parametrize("source", SOURCES)
def test_read_rows_memory_follows_the_chunk_not_the_text(monkeypatch, source):
    short = long_trace(20000).serialize()
    monkeypatch.setattr(kernel, "READ_CHUNK", len(short) // 20)
    longer = SOURCES[source](long_trace(80000).serialize())
    assert read_peak(longer) < 1.1 * read_peak(SOURCES[source](short))


def test_writing_a_run_holds_one_block_of_its_text(tmp_path):
    """`rrrt run --out` writes trace.csv as its blocks are formed: writing the
    four files peaks at 2 MB of new memory, not the text and its bytes."""
    report, trace, preamble = congested_run()
    _, peak = traced_peak(lambda: _write_outputs(str(tmp_path), preamble, report.to_dict(), trace))
    assert peak <= 2e6
    assert (tmp_path / "trace.csv").stat().st_size > 15e6


def test_replaying_a_written_trace_holds_one_chunk_of_it(tmp_path):
    """`rrrt replay` reads trace.csv a piece at a time: replaying
    field_congested's 15.5 MB file gives the run's report and peaks at 2 MB
    of new memory, not the text and its records."""
    report, trace, preamble = congested_run()
    path = tmp_path / "trace.csv"
    with open(path, "w", encoding="utf-8", newline="") as fp:
        trace.write_to(fp, preamble)
    from_file, peak = traced_peak(lambda: replay(str(path)))
    assert from_file == report
    assert peak <= 2e6


def test_auditing_a_run_holds_no_table_the_size_of_its_trace():
    """The audit indexes its copy and pid tables by id: 90k copies and 45k
    pids peak at 2 MB of new memory, where hash tables took 12 MB."""
    trace = congested_run()[1]
    counts, peak = traced_peak(lambda: audit_trace(trace))
    assert counts["copies_sent"] > 90_000 and counts["generated"] > 45_000
    assert peak <= 2e6


def test_the_runs_write_every_kind_and_reason_of_the_table_and_no_other():
    """Some writers pass the reason as a variable (a departure's drop, a
    pending row's place, a delivery's budget flags): the shipped runs, the
    fault pins, the budget pins and an expired deadline write only the
    table's (kind, reason) pairs, and between them every one of it."""
    written = set()
    for name in SHIPPED:
        written |= shipped_run(name).written
    traces = [run_with_fault(*case)[1] for case in FAULT_SHA256]
    traces += [run_traced(cfg, 1)[1]
               for cfg in [budget_pin(*pin) for pin in BUDGET_PINS] + [expired_deadline_cfg()]]
    for trace in traces:
        written |= {(row[2], row[5]) for row in trace}
    assert written == ROW_PAIRS


@pytest.fixture(scope="module")
def small_trace() -> tuple[list[str], list[list[int]]]:
    """The lines of a shipped field scenario cut to two intervals, and their
    indices grouped by row kind (the preamble and the blank end are one group).
    A fixture, so the run is made once and before Hypothesis draws anything:
    no draw pays for it, even when a tracer slows the run down."""
    cfg = shipped("field_baseline")
    set_param(cfg, "sim.horizon", 2.0)
    lines = run_and_serialize(cfg, 1)[1].split("\n")
    groups: dict[str, list[int]] = {}
    for at, line in enumerate(lines):
        fields = line.split(",")
        groups.setdefault(fields[2] if len(fields) > 2 else "", []).append(at)
    return lines, list(groups.values())


@st.composite
def mutated_traces(draw, lines: list[str], groups: list[list[int]]):
    """The bytes of the trace of `lines` truncated, with one byte set to a value
    that is not UTF-8 on its own, or with one line changed in one character,
    dropped or duplicated, and whether the change left a row (a line of eight
    fields after the header) whose kind and reason are not in the table. The
    line is drawn from `groups` by kind first, so that the two interval rows of
    the small trace are hit as often as the thousand sends."""
    how = draw(st.sampled_from(("truncate", "byte", "flip", "drop", "duplicate")))
    if how in ("truncate", "byte"):
        data = "\n".join(lines).encode("utf-8")
        at = draw(st.integers(0, len(data) - (how == "byte")))
        if how == "truncate":
            return data[:at], False
        return data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at + 1:], False
    changed = list(lines)
    at = draw(st.sampled_from(draw(st.sampled_from(groups))))
    unlisted = False
    if how == "flip":
        line = changed[at]
        col = draw(st.integers(0, max(len(line) - 1, 0)))
        char = draw(st.one_of(st.sampled_from(',;="\n\r#-.0159x'), st.characters()))
        changed[at] = line[:col] + char + line[col + 1:]
        rows = [part.split(",") for part in changed[at].split("\n")]
        unlisted = at > lines.index(",".join(TRACE_COLUMNS)) and any(
            len(row) == 8 and (row[2], row[5]) not in ROW_PAIRS for row in rows)
    elif how == "drop":
        del changed[at]
    else:
        changed.insert(at, changed[at])
    return "\n".join(changed).encode("utf-8"), unlisted


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_replay_of_a_mutated_trace_exits_cleanly(tmp_path_factory, small_trace, data):
    """Replay exits 0, 3 or 4, and 3 once a line's kind or reason is not in the table."""
    mutated, unlisted = data.draw(mutated_traces(*small_trace), label="mutation")
    path = tmp_path_factory.mktemp("fuzz") / "trace.csv"
    path.write_bytes(mutated)
    code = main(["replay", "--trace", str(path), "--format", "csv"])
    assert code == 3 if unlisted else code in (0, 3, 4)


@pytest.mark.parametrize("column, old, new", [(2, "send", "sned"), (5, "loss", "lost")])
def test_replay_refuses_a_kind_or_reason_outside_the_table(tmp_path, capsys, column, old, new):
    """transport_lossy's seed-1 trace with its last send row renamed `sned`,
    or its last drop for loss given the reason `lost`: both still parse, and
    replay must exit 3 at that line, not report a smaller energy or loss."""
    _, text = run_and_serialize(shipped("transport_lossy"), 1)
    lines = text.split("\n")
    at = max(at for at, line in enumerate(lines) if line.split(",")[column:column + 1] == [old])
    fields = lines[at].split(",")
    fields[column] = new
    lines[at] = ",".join(fields)
    assert text.index(lines[at - 1]) > kernel.READ_CHUNK  # past the first chunk
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
    assert main(["replay", "--trace", str(path)]) == 3
    assert capsys.readouterr().err == (f"corrupt trace: no {fields[2]!r} row carries the reason "
                                       f"{fields[5]!r} at line {at + 1}\n")
