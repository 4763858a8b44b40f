"""Event queue, clock, RNG streams, trace storage and trace serialization."""

import ast
import math
import pathlib
import re
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import serialize_oracle
from rrrt import kernel
from rrrt.errors import Corrupt, PastTime
from rrrt.kernel import SimulationTrace, Simulator, derive_stream_seed, read_rows


def make_sim(seed=1, kinds=("tick",)):
    """A simulator whose handler for each of `kinds` records (now, kind, payload)."""
    sim = Simulator(seed)
    fired = []
    for kind in kinds:
        sim.register(kind, lambda s, target, payload, kind=kind:
                     fired.append((s.now, kind, payload)))
    return sim, fired


def test_schedule_future_event_fires_at_its_time():
    sim, fired = make_sim()
    sim.schedule(5.0, "tick", "node")
    sim.run_until(10.0)
    assert fired == [(5.0, "tick", None)]


def test_handler_gets_target_and_payload():
    sim = Simulator(1)
    seen = []
    sim.register("tick", lambda s, target, payload: seen.append((s.now, target, payload)))
    sim.schedule(1.0, "tick", "n7", ("pkt", 3))
    sim.run_until(1.0)
    assert seen == [(1.0, "n7", ("pkt", 3))]


def test_schedule_at_current_clock_is_allowed():
    sim = Simulator(1)
    fired = []

    def reschedule(s, target, payload):
        fired.append(s.now)
        if len(fired) == 1:
            s.schedule(s.now, "tick", target)  # boundary equality

    sim.register("tick", reschedule)
    sim.schedule(1.0, "tick", "node")
    sim.run_until(2.0)
    assert fired == [1.0, 1.0]


def test_schedule_in_the_past_raises():
    sim, _ = make_sim()
    sim.schedule(1.0, "tick", "node")
    sim.run_until(1.0)
    with pytest.raises(PastTime):
        sim.schedule(0.5, "tick", "node")


def test_empty_queue_run_yields_empty_trace_and_advances_clock():
    sim, _ = make_sim()
    trace = sim.run_until(10.0)
    assert len(trace) == 0
    assert sim.now == 10.0


def test_self_rescheduling_tick_counts():
    sim = Simulator(1)
    fired = []

    def tick(s, target, payload):
        fired.append(s.now)
        s.schedule(s.now + 1.0, "tick", target)

    sim.register("tick", tick)
    sim.schedule(1.0, "tick", "node")
    sim.run_until(5.0)
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_same_time_events_fire_in_schedule_order():
    sim, fired = make_sim(kinds=("tick", "tock"))
    for kind, tag in (("tock", "a"), ("tick", "b"), ("tock", "c")):
        sim.schedule(1.0, kind, "node", tag)
    sim.run_until(1.0)
    assert [(k, p) for _, k, p in fired] == [("tock", "a"), ("tick", "b"), ("tock", "c")]


# -- model-based check of the event queue ------------------------------------
#
# A random program of schedule / run_until steps runs on the kernel and on a
# reference that keeps its queue as a plain list and takes the smallest
# (time, order) each time. A fired event may schedule a child event, so
# scheduling at the clock's own time is covered. Times come from a coarse
# grid, so ties are common.

TIMES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
CHILDREN = st.one_of(st.none(), TIMES)  # the delay of the child a fired event schedules
STEPS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.floats(-1.0, 4.0).map(lambda x: round(x * 4) / 4),
              CHILDREN),
    st.tuples(st.just("run"), TIMES),
), max_size=40)


class QueueModel:
    """The reference: `queue` maps label -> (time, child) for every entry
    still queued; labels count successful schedules."""

    def __init__(self):
        self.now = 0.0
        self.queue = {}
        self.labels = 0
        self.fired = []

    def schedule(self, time, child):
        if time < self.now:
            return None
        label = self.labels
        self.labels += 1
        self.queue[label] = (time, child)
        return label

    def run_until(self, t_end):
        while self.queue:
            label = min(self.queue, key=lambda lab: (self.queue[lab][0], lab))
            time, child = self.queue[label]
            if time > t_end:
                break
            del self.queue[label]
            self.now = time
            self.fired.append((time, label))
            if child is not None:
                self.schedule(self.now + child, None)
        self.now = max(self.now, t_end)


@settings(max_examples=300, deadline=None)
@given(STEPS)
def test_event_queue_matches_a_sorted_list_model(steps):
    model = QueueModel()
    sim = Simulator(1)
    ordinals, fired = [], []

    def act(s, target, payload):
        label, child = payload
        assert s.ordinal == ordinals[label]  # the ordinal of the event being handled
        fired.append((s.now, label))
        if child is not None:
            ordinals.append(s.schedule(s.now + child, "ev", "n", (len(ordinals), None)))

    sim.register("ev", act)
    for step in steps:
        if step[0] == "schedule":
            _, time, child = step
            if model.schedule(time, child) is None:
                with pytest.raises(PastTime):
                    sim.schedule(time, "ev", "n", (len(ordinals), child))
            else:
                ordinals.append(sim.schedule(time, "ev", "n", (len(ordinals), child)))
        else:
            t_end = sim.now + step[1]
            model.run_until(t_end)
            sim.run_until(t_end)
        assert len(ordinals) == model.labels
        assert fired == model.fired
        assert sim.now == model.now
        assert sim.ordinal == math.inf  # between runs, after every event due by now
        assert [entry[4][0] for entry in sim.pending_events()] == \
            [label for _, label in sorted((time, label) for label, (time, _)
                                          in model.queue.items())]


def test_rng_streams_are_reproducible_and_independent():
    a1 = Simulator(42).rng("alpha")
    a2 = Simulator(42).rng("alpha")
    b = Simulator(42).rng("beta")
    seq1 = [a1.random() for _ in range(10)]
    seq2 = [a2.random() for _ in range(10)]
    seq3 = [b.random() for _ in range(10)]
    assert seq1 == seq2
    assert seq1 != seq3
    assert derive_stream_seed(42, "alpha") == derive_stream_seed(42, "alpha")
    assert derive_stream_seed(42, "alpha") != derive_stream_seed(43, "alpha")


def test_a_closed_simulator_drops_its_streams_and_refuses_a_draw():
    """close() drops every stream, so a stream drawn after it would restart
    from its seed: the draw raises instead, for a stream drawn before close
    and for a new one alike. The queue stays readable."""
    sim, _ = make_sim()
    sim.rng("alpha").random()
    sim.schedule(1.0, "tick", "n0")
    sim.close()
    assert sim._rngs == {}
    for stream in ("alpha", "beta"):
        with pytest.raises(RuntimeError, match=f"'{stream}' drawn after the run was closed"):
            sim.rng(stream)
    assert [entry[:4] for entry in sim.pending_events()] == [(1.0, 1, "tick", "n0")]


def test_packet_and_copy_ids_count_densely_from_one():
    sim = Simulator(1)
    assert [sim.new_pid() for _ in range(3)] == [1, 2, 3]
    assert [sim.new_copy() for _ in range(2)] == [1, 2]
    assert Simulator(1).new_copy() == 1  # each simulator counts on its own


def test_trace_serialize_parse_round_trip():
    trace = SimulationTrace()
    trace.log(0.5, "n0", "send", 1, 1, "", 0.125)
    trace.log(0.625, "n1", "receive", 1, 1)
    trace.log(1.0, "sink", "interval", -1, -1, "", None, "i=1;dr_o=3;cond=LowRelCong")
    # A value may hold an `=` or a carriage return: both read back as written.
    text = trace.serialize({"seed": 7, "flow": "data", "note": "b=c\rd", "empty": ""})
    parsed, preamble = SimulationTrace.parse(text)
    assert list(parsed) == list(trace)
    assert preamble == {"seed": "7", "flow": "data", "note": "b=c\rd", "empty": ""}
    assert parsed.serialize(preamble) == text
    # A node or a reason that would not read back is refused, as an info is,
    # by serialize and by its oracle.
    for bad in [(1.5, "a,b", "generate", 2, -1, "", None, ""),
                (1.5, "n0", "drop", 2, -1, "x\ny", None, "")]:
        broken = SimulationTrace([*trace, bad])
        for serialize in (broken.serialize, lambda: serialize_oracle(broken)):
            with pytest.raises(ValueError, match=re.escape(f"trace row {bad[:5]!r}")):
                serialize()


BAD_FIELDS = ["a\nb", "a\rb", "a\r\nb", "x,\n", "a,b", 'say "hi"']


@pytest.mark.parametrize("column", ["node", "kind", "reason", "info"])
@pytest.mark.parametrize("field", BAD_FIELDS)
def test_serialize_refuses_a_field_that_would_not_read_back(column, field):
    """read_rows gets each line without its break, splits it at every comma
    and refuses a quote, so a field with any of them would be read back
    altered, or not at all: serialize names the row instead, and the column,
    as the line-list oracle names the row."""
    row = dict(zip(kernel.TRACE_COLUMNS, (0.5, "n1", "interval", 2, 3, "", None, "ok")))
    row[column] = field
    trace = SimulationTrace([(0.25, "n0", "send", 1, 1, "", None, "ok"), tuple(row.values())])
    key = repr((0.5, row["node"], row["kind"], 2, 3))
    with pytest.raises(ValueError) as raised:
        trace.serialize()
    assert str(raised.value).startswith(f"trace row {key}: {column} {field!r} holds")
    with pytest.raises(ValueError, match=f"trace row {re.escape(key)}"):
        serialize_oracle(trace)


def test_a_bad_row_past_the_first_block_is_named_before_its_block_is_written(monkeypatch):
    """write_to writes the header and each block as it is formed, and stops
    at the block that holds a bad field, naming its row, as serialize does."""
    monkeypatch.setattr(kernel, "SERIALIZE_BLOCK", 4)
    rows = [(i / 8, "n0", "send", i, i, "", None, "") for i in range(11)]
    trace = SimulationTrace(rows)
    written = []
    trace.write_to(SimpleNamespace(write=written.append), {"seed": 1})
    assert [block.count("\n") for block in written] == [2, 4, 4, 3]
    assert "".join(written) == trace.serialize({"seed": 1})
    rows[9] = (9 / 8, "n0", "send", 9, 9, "", None, "a,b")
    trace, written = SimulationTrace(rows), []
    message = r"trace row \(1\.125, 'n0', 'send', 9, 9\): info 'a,b'"
    with pytest.raises(ValueError, match=message):
        trace.write_to(SimpleNamespace(write=written.append))
    assert [block.count("\n") for block in written] == [1, 4, 4]
    with pytest.raises(ValueError, match=message):
        trace.serialize()


@pytest.mark.parametrize("preamble", [{"a": "x\ny"}, {"a=b": "c"}, {"a\nb": "c"},
                                      {"seed": 1, "a": "x\r\ny"}])
def test_a_preamble_entry_that_would_not_read_back_is_refused(preamble):
    """read_rows splits a preamble line at its first `=` and ends it at a line
    break, so serialize and write_to refuse a key that holds either, or a value
    that holds a line break, before anything is written."""
    trace = SimulationTrace([(0.25, "n0", "send", 1, 1, "", None, "")])
    with pytest.raises(ValueError, match="preamble entry"):
        trace.serialize(preamble)
    written = []
    with pytest.raises(ValueError, match="preamble entry"):
        trace.write_to(SimpleNamespace(write=written.append), preamble)
    assert written == []


def test_a_trace_row_costs_its_fields_and_no_tuple():
    """The trace holds its rows as one flat list of fields: a row of shared
    field objects costs eight list slots (64 B, plus the list's
    over-allocation), where a tuple per row cost about 112 B with its slot."""
    rows = 50_000
    time, node, value = 1.5, "n0", 0.25
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = SimulationTrace()
        for _ in range(rows):
            trace.log(time, node, "send", 7, 7, "", value)
        per_row = (tracemalloc.get_traced_memory()[0] - before) / rows
    finally:
        tracemalloc.stop()
    assert len(trace) == rows
    assert per_row < 80


@pytest.mark.parametrize("width", [0, 3, 7, 9])
def test_a_trace_rejects_a_row_without_eight_fields(width):
    good = (0.5, "n0", "send", 1, 1, "", 0.5, "")
    with pytest.raises(ValueError):
        SimulationTrace([good, (good * 2)[:width], good])


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rrrt"


def test_every_append_row_call_passes_an_eight_field_tuple_literal():
    """`append_row` is the flat list's `extend` and checks nothing, so a row
    of another length would shift every row after it without an error. Every
    call in the package must pass one tuple literal of the eight fields."""
    calls, bad = 0, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append_row"):
                calls += 1
                args = node.args
                if (node.keywords or len(args) != 1 or not isinstance(args[0], ast.Tuple)
                        or len(args[0].elts) != len(kernel.TRACE_COLUMNS)
                        or any(isinstance(elt, ast.Starred) for elt in args[0].elts)):
                    bad.append(f"{path.name}:{node.lineno}")
    assert calls >= 10  # the per-packet rows: generate, send, receive, deliver
    assert bad == []


def test_every_literal_kind_and_reason_written_is_in_the_table():
    """Each `append_row` and `log` call in the package names a kind of
    `ROW_KINDS`, as a literal, and a literal reason, `log`'s default "" included,
    must be one of that kind's. A reason passed as a variable is checked by the
    runs in `test_trace_text.py`; `SimulationTrace.log` passes its own on."""
    calls, bad = 0, []
    for path in sorted(set(SRC.glob("*.py")) - {SRC / "kernel.py"}):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("append_row", "log")):
                continue
            calls += 1
            args = node.args[0].elts if node.func.attr == "append_row" else node.args
            args = dict(zip(kernel.TRACE_COLUMNS, args))
            args.update((keyword.arg, keyword.value) for keyword in node.keywords)
            kind, reason = args["kind"], args.get("reason", ast.Constant(""))
            if not (isinstance(kind, ast.Constant) and kind.value in kernel.ROW_KINDS):
                bad.append(f"{path.name}:{node.lineno} kind")
            elif isinstance(reason, ast.Constant) and (
                    reason.value not in kernel.ROW_KINDS[kind.value].reasons):
                bad.append(f"{path.name}:{node.lineno} reason")
    assert calls >= 20
    assert bad == []


def declared_row_table():
    """The rows of the README's table of row kinds as `kernel.ROW_KINDS`
    declares them: kind, event, what each of pid, copy, reason, value and
    info holds (— where the kind does not carry it), and its reasons."""
    rows = []
    for kind, row in kernel.ROW_KINDS.items():
        held = [row.carries.get(column, "—") for column in kernel.TRACE_COLUMNS[3:]]
        reasons = [f"`{reason}`" if reason else "empty" for reason in row.reasons]
        if len(reasons) > 1:
            reasons = [", ".join(reasons[:-1]) + " or " + reasons[-1]]
        rows.append(" | ".join([f"| `{kind}`", row.event, *held, *reasons]) + " |")
    return rows


def test_the_readme_table_of_row_kinds_matches_the_declarations():
    with open(SRC.parent.parent / "README.md", encoding="utf-8") as fp:
        section = fp.read().split("## Trace rows", 1)[1].split("\n## ", 1)[0]
    expected = declared_row_table()
    assert [line for line in section.split("\n") if line.startswith("| `")] == expected, \
        "\n".join(expected)


def test_log_and_append_row_of_the_same_rows_leave_equal_traces():
    rows = [(0.5, "n0", "generate", 1, -1, "", None, ""),
            (0.5, "n0", "send", 1, 4, "", 0.0125, ""),
            (0.5125, "sink", "deliver", 1, -1, "10", 0.5, "data"),
            (0.75, "n1", "drop", 2, 5, "overflow", None, "")]
    logged, appended = SimulationTrace(), SimulationTrace()
    for time, node, kind, pid, copy, reason, value, info in rows:
        logged.log(time, node, kind, pid, copy, reason, value, info)
        appended.append_row((time, node, kind, pid, copy, reason, value, info))
    logged.log(1.0, "n0", "pending", 3, 6, "queued")  # the defaults fill the rest
    appended.append_row((1.0, "n0", "pending", 3, 6, "queued", None, ""))
    assert list(logged) == list(appended) == rows + [(1.0, "n0", "pending", 3, 6, "queued",
                                                     None, "")]
    assert logged.serialize({"seed": 1}) == appended.serialize({"seed": 1})


# Time objects that rows share, as the rows of one event share `sim.now`.
SHARED_TIMES = [0.0, -0.0, 0.5, math.nan, 1e-300, 2.5e9]
TRACE_ROWS = st.lists(st.tuples(
    st.one_of(st.sampled_from(SHARED_TIMES), st.floats()),
    st.sampled_from(["n0", "sink", "r1"]),
    st.sampled_from(["send", "receive", "deliver", "interval"]),
    st.integers(-1, 2**40), st.integers(-1, 2**40),
    st.sampled_from(["", "10", "overflow"]),
    st.one_of(st.none(), st.sampled_from(SHARED_TIMES), st.floats()),
    st.one_of(st.sampled_from(["", "data", "i=1;cond=LowRelCong"]),
              st.text(alphabet="a; =", max_size=6)),
), max_size=30)


@settings(max_examples=200, deadline=None)
@given(TRACE_ROWS, st.integers(1, 4))
def test_a_trace_gives_back_its_rows_and_serializes_as_the_oracle(rows, block):
    trace = SimulationTrace(rows)
    assert list(trace) == rows
    assert len(trace) == len(rows)
    with mock.patch.object(kernel, "SERIALIZE_BLOCK", block):
        assert trace.serialize({"seed": 1}) == serialize_oracle(rows, {"seed": 1})


def test_trace_parse_rejects_garbage():
    trace = SimulationTrace()
    trace.log(0.5, "n0", "send", 1, 1)
    text = trace.serialize()  # header on line 1, the row on line 2
    cases = [(text + "not,a,row\n", 3), ("time,node\n0.5,n0\n", 1), ("", 1)]
    for row in ("0.5,n0,send,1,1,,",          # 7 columns
                "0.5,n0,send,1,1,,,extra,x",  # 9 columns
                '0.5,n0,send,1,1,,,"a"'):     # a quote
        cases.append((text + row + "\n", 3))
    for bad, line in cases:
        with pytest.raises(Corrupt) as parsed:
            SimulationTrace.parse(bad)
        with pytest.raises(Corrupt) as streamed:
            list(read_rows(bad)[1])
        assert parsed.value.offset == streamed.value.offset == line
        assert str(parsed.value).endswith(f" at line {line}")


def test_run_until_processes_boundary_inclusive():
    sim, fired = make_sim()
    sim.schedule(5.0, "tick", "node", "at")
    sim.schedule(5.0 + 1e-9, "tick", "node", "after")
    sim.run_until(5.0)
    assert [p for _, _, p in fired] == ["at"]
    sim.run_until(6.0)
    assert [p for _, _, p in fired] == ["at", "after"]


def test_only_the_kernel_touches_the_ordinal_counter():
    """Every model takes ordinals through `schedule`; none reads or writes
    `Simulator._ordinal`."""
    users = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
        users += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_ordinal"]
    assert users and all(user.startswith("kernel.py:") for user in users)
