"""Event queue, clock, RNG streams and trace serialization."""

import pytest

from rrrt.errors import Corrupt, PastTime
from rrrt.kernel import SimEvent, SimulationTrace, Simulator, derive_stream_seed, read_rows


def make_sim(seed=1):
    sim = Simulator(seed)
    fired = []
    sim.register("node", lambda s, ev: fired.append((s.now, ev.kind, ev.payload)))
    return sim, fired


def test_schedule_future_event_fires_at_its_time():
    sim, fired = make_sim()
    sim.schedule(SimEvent(5.0, "node", "tick"))
    sim.run_until(10.0)
    assert fired == [(5.0, "tick", None)]


def test_schedule_at_current_clock_is_allowed():
    sim, fired = make_sim()

    def reschedule(s, ev):
        fired.append(s.now)
        if len(fired) == 1:
            s.schedule(SimEvent(s.now, "node", "again"))  # boundary equality

    sim._handlers["node"] = reschedule
    sim.schedule(SimEvent(1.0, "node", "tick"))
    sim.run_until(2.0)
    assert fired == [1.0, 1.0]


def test_schedule_in_the_past_raises():
    sim, _ = make_sim()
    sim.schedule(SimEvent(1.0, "node", "tick"))
    sim.run_until(1.0)
    with pytest.raises(PastTime):
        sim.schedule(SimEvent(0.5, "node", "tick"))


def test_empty_queue_run_yields_empty_trace_and_advances_clock():
    sim, _ = make_sim()
    trace = sim.run_until(10.0)
    assert len(trace) == 0
    assert sim.now == 10.0


def test_self_rescheduling_tick_counts():
    sim, fired = make_sim()

    def tick(s, ev):
        fired.append(s.now)
        s.schedule(SimEvent(s.now + 1.0, "node", "tick"))

    sim._handlers["node"] = tick
    sim.schedule(SimEvent(1.0, "node", "tick"))
    sim.run_until(5.0)
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_same_time_events_fire_in_schedule_order():
    sim, fired = make_sim()
    for tag in ("a", "b", "c"):
        sim.schedule(SimEvent(1.0, "node", "tick", tag))
    sim.run_until(1.0)
    assert [p for _, _, p in fired] == ["a", "b", "c"]


def test_cancelled_event_does_not_fire():
    sim, fired = make_sim()
    sim.schedule(SimEvent(1.0, "node", "keep"))
    drop = sim.schedule(SimEvent(2.0, "node", "drop"))
    drop.cancel()
    sim.run_until(5.0)
    assert [k for _, k, _ in fired] == ["keep"]


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


def test_trace_serialize_parse_round_trip():
    trace = SimulationTrace()
    trace.log(0.5, "n0", "send", 1, 1, "", 0.125)
    trace.log(0.625, "n1", "receive", 1, 1)
    trace.log(1.0, "sink", "interval", -1, -1, "", None, "i=1;dr_o=3;cond=X,with,commas")
    text = trace.serialize({"seed": 7, "flow": "data"})
    parsed, preamble = SimulationTrace.parse(text)
    assert parsed.records == trace.records
    assert preamble["seed"] == "7"
    assert parsed.serialize({"seed": 7, "flow": "data"}) == text


def test_trace_parse_rejects_garbage():
    trace = SimulationTrace()
    trace.log(0.5, "n0", "send", 1, 1)
    text = trace.serialize()  # header on line 1, the row on line 2
    cases = [(text + "not,a,row\n", 3), ("time,node\n0.5,n0\n", 1), ("", 1)]
    for row in ('0.5,n0,send,1,1,,"a,b"',            # 7 columns
                '0.5,n0,send,1,1,,,extra,"a,b"',     # 9 columns
                '0.5,n0,send,1,1,,,"a,b"junk'):      # text after the closing quote
        cases.append((text + row + "\n", 3))
    for bad, line in cases:
        with pytest.raises(Corrupt) as parsed:
            SimulationTrace.parse(bad)
        with pytest.raises(Corrupt) as streamed:
            list(read_rows(bad)[1])
        assert parsed.value.offset == streamed.value.offset == line


def test_run_until_processes_boundary_inclusive():
    sim, fired = make_sim()
    sim.schedule(SimEvent(5.0, "node", "at"))
    sim.schedule(SimEvent(5.0 + 1e-9, "node", "after"))
    sim.run_until(5.0)
    assert [k for _, k, _ in fired] == ["at"]
    sim.run_until(6.0)
    assert [k for _, k, _ in fired] == ["at", "after"]
