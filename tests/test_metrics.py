"""Convergence time, the trace reducer (energy, throughput, delay, budget), and the audit."""

import math
import re
import tracemalloc
from functools import partial

import pytest

from rrrt.controller import IntervalRow
from rrrt.errors import InvariantViolation
from rrrt.kernel import ROW_KINDS, SimulationTrace
from rrrt.metrics import MetricsReport, audit_trace, convergence_time, reduce_trace
from shipped import SHIPPED, audit_outcomes, shipped_run
from test_faults import FAULT_SHA256, run_with_fault


def row(i, condition, end_time=None):
    return IntervalRow(i, 100, 100, 1.0, math.inf, False, condition,
                       1.0, 1.0, 1, float(i) if end_time is None else end_time)


ADE = "AdequateRelNoCong"
LOW = "LowRelNoCong"


def test_convergence_first_sustained_index():
    rows = [row(1, LOW), row(2, LOW)] + [row(i, ADE) for i in range(3, 12)]
    assert convergence_time(rows) == 3.0


def test_convergence_all_adequate_from_start():
    rows = [row(i, ADE) for i in range(1, 5)]
    assert convergence_time(rows) == 1.0


def test_convergence_never_sustained():
    rows = [row(i, ADE if i % 2 else LOW) for i in range(1, 21)]  # ends on Low
    assert convergence_time(rows) is None
    assert convergence_time([]) is None


def test_convergence_is_the_trailing_adequate_run():
    rows = [row(1, ADE), row(2, LOW), row(3, ADE), row(4, ADE)]
    assert convergence_time(rows) == 3.0  # the early touch does not count


def preamble(**values):
    """A full trace preamble, with `values` replacing its entries."""
    return {"flow": "data", "e_tx": "5e-05", "e_rx": "2.5e-05", "seed": "0",
            "eq2_mode": "literal", **values}


def energy(trace, e_tx=50e-6, e_rx=25e-6):
    return reduce_trace(trace, preamble(e_tx=e_tx, e_rx=e_rx)).total_energy


def test_total_energy_linear_combination():
    trace = SimulationTrace()
    for i in range(1000):
        trace.log(float(i), "a", "send", i, i)
        trace.log(float(i) + 0.5, "b", "receive", i, i)
    assert energy(trace, e_tx=50e-6, e_rx=25e-6) == pytest.approx(0.075)


def test_total_energy_empty_trace():
    assert energy(SimulationTrace()) == 0.0


def test_energy_additivity_over_disjoint_node_sets():
    t1, t2 = SimulationTrace(), SimulationTrace()
    for i in range(10):
        t1.log(float(i), "a", "send", i, i)
        t2.log(float(i), "b", "send", 100 + i, 100 + i)
        t2.log(float(i), "c", "receive", 100 + i, 100 + i)
    merged = SimulationTrace(sorted(list(t1) + list(t2)))
    assert energy(merged) == pytest.approx(energy(t1) + energy(t2))


def test_throughput_counts_unique_flow_deliveries():
    trace = SimulationTrace()
    for i in range(5):
        trace.log(float(i), "sink", "deliver", i, -1, "", 0.0, "data")
    trace.log(9.0, "sink", "deliver", 50, -1, "", 0.0, "cross")
    assert reduce_trace(trace, preamble(flow="data")).aggregate_throughput == 5
    assert reduce_trace(trace, preamble(flow="cross")).aggregate_throughput == 1


def test_average_packet_delay_mean_and_guard():
    trace = SimulationTrace()
    trace.log(1.1, "sink", "deliver", 1, -1, "", 1.0, "data")  # 0.1 s
    trace.log(2.3, "sink", "deliver", 2, -1, "", 2.0, "data")  # 0.3 s
    assert reduce_trace(trace, preamble()).average_packet_delay == pytest.approx(0.2)

    single = SimulationTrace()
    single.log(0.5, "sink", "deliver", 1, -1, "", 0.0, "data")
    assert reduce_trace(single, preamble()).average_packet_delay == pytest.approx(0.5)

    assert reduce_trace(SimulationTrace(), preamble()).average_packet_delay is None

    # Every report field from one trace: hops, budget-flagged and unflagged
    # deliveries, a cross-flow delivery the report ignores, two intervals.
    rows = [row(1, LOW, end_time=1.0), row(2, ADE, end_time=2.0)]
    full = SimulationTrace()
    full.log(0.0, "a", "send", 1, 1, "", 0.1)
    full.log(0.1, "b", "receive", 1, 1)
    full.log(0.1, "b", "send", 1, 2, "", 0.2)
    full.log(0.3, "sink", "receive", 1, 2)
    full.log(0.3, "sink", "deliver", 1, -1, "10", 0.0, "data")
    full.log(0.5, "sink", "deliver", 2, -1, "01", 0.25, "data")
    full.log(0.6, "sink", "deliver", 3, -1, "10", 0.5, "data")
    full.log(0.7, "sink", "deliver", 4, -1, "", 0.5, "data")
    full.log(0.8, "sink", "deliver", 50, -1, "11", 0.0, "cross")
    full.log(1.0, "sink", "interval", -1, -1, "", None, rows[0].encode())
    full.log(2.0, "sink", "interval", -1, -1, "", None, rows[1].encode())
    assert reduce_trace(full, preamble(beta="0.05", seed="7", eq2_mode="full-sum")) == MetricsReport(
        convergence_time=2.0,
        total_energy=2 * 5e-05 + 2 * 2.5e-05,
        aggregate_throughput=4,
        average_packet_delay=((0.3 - 0.0) + (0.5 - 0.25) + (0.6 - 0.5) + (0.7 - 0.5)) / 4,
        per_interval=rows,
        per_run_seed=7,
        delay_budget={"mode": "full-sum", "deliveries": 3,
                      "literal_ok_fraction": 2 / 3, "full_sum_ok_fraction": 1 / 3,
                      "satisfied_fraction": 1 / 3},
    )


def ok_trace():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.5, "b", "receive", 1, 1)
    trace.log(0.5, "b", "deliver", 1, -1, "", 0.0, "data")
    return trace


def test_audit_accepts_conserved_trace():
    counts = audit_trace(ok_trace())
    assert counts["generated"] == counts["delivered"] == 1
    assert counts["dropped"] == counts["pending"] == 0


# Traces with one defect each, by name, with the message the audit refuses
# each with: `test_the_audit_refuses_each_defect_with_its_message` pins it, and
# the agreement with the whole-trace oracle at the end of this file checks the
# oracle on them.
DEFECTS = {}


def defect(message):
    def register(build):
        DEFECTS[build.__name__] = (build, message)
        return build
    return register


@defect("trace time went backwards at 0.1")
def time_regression():
    trace = ok_trace()
    trace.log(0.1, "a", "generate", 2)
    return trace


@defect("copy 1 vanished (no receive/drop/pending)")
def vanished_copy():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.5, "b", "deliver", 1, -1, "", 0.0, "data")  # no receive, no drop
    return trace


@defect("pids neither delivered, dropped nor pending: [1]")
def unaccounted_pid():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    return trace


@defect("pid 1 delivered twice to the application")
def duplicate_delivery():
    trace = ok_trace()
    trace.log(0.6, "b", "deliver", 1, -1, "", 0.0, "data")
    return trace


@defect("pid 1 delivered twice to the application")
def duplicated_deliver_row():
    trace = ok_trace()
    trace.log(0.5, "b", "deliver", 1, -1, "", 0.0, "data")  # the same row again
    return trace


@defect("pid 1 delivered but never generated")
def delivery_of_a_pid_never_generated():
    trace = SimulationTrace()
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.5, "b", "receive", 1, 1)
    trace.log(0.5, "b", "deliver", 1, -1, "", 0.0, "data")
    trace.log(0.6, "a", "generate", 1)  # too late: a delivery needs an earlier generate row
    return trace


@defect("pid 1 generated twice")
def pid_generated_twice():
    trace = ok_trace()
    trace.log(0.5, "b", "generate", 1)  # pid 1 was generated at 0.0
    return trace


@defect("a generate row names pid -1, below 0")
def pid_below_0_generated():
    trace = ok_trace()
    trace.log(0.6, "a", "generate", -1)  # flags[-1] would be pid 1's, generated at 0.0
    return trace


@defect("a deliver row names pid -1, below 0")
def pid_below_0_delivered():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.5, "b", "receive", 1, 1)
    trace.log(0.5, "b", "deliver", -1, -1, "", 0.0, "data")  # flags[-1] would account pid 1
    return trace


@defect("pid 1000000000000 named before pid 2")
def pid_far_past_the_highest():
    trace = ok_trace()
    trace.log(0.6, "a", "generate", 10**12)
    return trace


@defect("copy 1 dropped twice")
def copy_dropped_twice():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.2, "a", "drop", 1, 1, "loss")
    trace.log(0.3, "a", "drop", 1, 1, "fault")
    return trace


@defect("copy 1 hop delay 0.4 != sampled breakdown 0.5")
def wrong_hop_delay():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.4, "b", "receive", 1, 1)  # breakdown said 0.5
    trace.log(0.4, "b", "deliver", 1, -1, "", 0.0, "data")
    return trace


def copy_logged_with_another_pid(kind):
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "generate", 2)
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.5, "b", kind, 2, 1, ROW_KINDS[kind].reasons[0])  # copy 1 was sent as pid 1
    trace.log(0.5, "b", "deliver", 1, -1, "", 0.0, "data")
    trace.log(0.5, "b", "deliver", 2, -1, "", 0.0, "data")
    return trace


for kind in ("receive", "drop", "pending"):
    DEFECTS[f"copy_logged_with_another_pid_{kind}"] = (
        partial(copy_logged_with_another_pid, kind),
        "copy 1 sent with pid 1 but logged with another pid")


@defect("copy 1 sent twice")
def copy_sent_twice():
    trace = ok_trace()
    trace.log(0.5, "b", "send", 1, 1, "", 0.5)
    trace.log(1.0, "c", "receive", 1, 1)
    return trace


@defect("copy 2 sent before copy 1")
def copy_2_sent_before_copy_1():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 2, "", 0.5)
    trace.log(0.5, "b", "receive", 1, 2)
    trace.log(0.5, "b", "send", 1, 1, "", 0.5)
    trace.log(1.0, "c", "receive", 1, 1)
    trace.log(1.0, "c", "deliver", 1, -1, "", 0.0, "data")
    return trace


@defect("copy 2 sent before copy 1")
def sends_swapped_in_one_instant():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "generate", 2)
    trace.log(0.0, "a", "send", 2, 2, "", 0.5)  # a run writes the send of copy 1 first
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    for pid in (1, 2):
        trace.log(0.5, "b", "receive", pid, pid)
        trace.log(0.5, "b", "deliver", pid, -1, "", 0.0, "data")
    return trace


@defect("copy 0 sent before copy 1")
def copy_0_sent():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 0, "", 0.5)  # a run counts copies from 1
    trace.log(0.5, "b", "receive", 1, 0)
    trace.log(0.5, "b", "deliver", 1, -1, "", 0.0, "data")
    return trace


@defect("copy 1000000000000 sent before copy 2")
def copy_far_past_the_next():
    trace = ok_trace()
    trace.log(0.6, "b", "send", 1, 10**12, "", 0.5)
    trace.log(1.1, "c", "receive", 1, 10**12)
    return trace


@defect("copy 1 received twice")
def copy_received_twice():
    trace = ok_trace()
    trace.log(0.5, "b", "receive", 1, 1)
    return trace


@defect("copy 1 received before it was sent")
def receive_before_its_send():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "b", "receive", 1, 1)
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.5, "b", "deliver", 1, -1, "", 0.0, "data")
    return trace


@defect("copy 1 dropped before it was received")
def drop_before_its_receive():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.2, "a", "drop", 1, 1, "loss")
    trace.log(0.5, "b", "receive", 1, 1)
    return trace


@defect("copy 1 received before it was sent")
def receive_with_another_pid_before_its_send():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "b", "receive", 2, 1)  # copy 1 is then sent as pid 1
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    return trace


@defect("copy 1 dropped before it was sent")
def early_drop_before_an_early_receive():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "drop", 1, 1, "loss")
    trace.log(0.1, "b", "receive", 1, 1)
    trace.log(0.1, "a", "send", 1, 1, "", 0.5)
    return trace


@defect("copy 1 dropped before it was sent")
def drop_before_its_send():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "drop", 1, 1, "loss")
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    return trace


@defect("copy 2 received before it was sent")
def copy_received_but_never_sent():
    trace = ok_trace()
    trace.log(0.7, "c", "receive", 1, 2)
    return trace


@defect("copy 1 pending before it was sent")
def pending_of_a_copy_never_sent():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(1.0, "a", "pending", 1, 1, "in_flight")
    return trace


@defect("copy 1 dropped after it was received")
def drop_after_its_receive():
    trace = ok_trace()
    trace.log(0.9, "b", "drop", 1, 1, "fault")  # the copy was received at 0.5
    return trace


@defect("copy 1 pending after it was received")
def pending_after_its_receive():
    trace = ok_trace()
    trace.log(1.0, "b", "pending", 1, 1, "in_flight")
    return trace


@defect("no 'sned' row carries the reason ''")
def kind_outside_the_table():
    trace = ok_trace()
    trace.log(0.6, "a", "sned", 1, -1)  # a misspelt send of no copy
    return trace


@defect("no 'drop' row carries the reason 'lost'")
def reason_outside_the_table():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.2, "a", "drop", 1, 1, "lost")  # the table's reason is "loss"
    return trace


@defect("no 'sned' row carries the reason ''")
def stray_rows():
    """A generate, a `sned`, a deliver and a drop for `lost`: a trace whose
    rows conserve their packet and that read_rows refuses in its text."""
    return SimulationTrace([(0.0, "a", "generate", 1, -1, "", None, ""),
                            (0.0, "a", "sned", 1, -1, "", None, ""),
                            (0.5, "b", "deliver", 1, -1, "", 0.0, "data"),
                            (0.5, "b", "drop", 1, -1, "lost", None, "")])


@defect("copy 1 arrived without positive delay")
def receive_in_the_instant_of_its_send():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 1)  # no sampled delay to compare with
    trace.log(0.0, "b", "receive", 1, 1)
    trace.log(0.0, "b", "deliver", 1, -1, "", 0.0, "data")
    return trace


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_the_audit_refuses_each_defect_with_its_message(name):
    build, message = DEFECTS[name]
    with pytest.raises(InvariantViolation) as refused:
        audit_trace(build())
    assert str(refused.value) == message


@pytest.mark.parametrize("name", ["pid_far_past_the_highest", "copy_far_past_the_next"])
def test_a_far_id_is_refused_at_its_row_and_grows_no_table(name):
    """A pid or a copy of 10**12 breaks the id order: the audit refuses its
    row, and its peak does not follow the id."""
    build, message = DEFECTS[name]
    trace = build()
    tracemalloc.start()
    try:
        with pytest.raises(InvariantViolation) as refused:
            audit_trace(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == message
    assert peak < 100_000


def pending_and_drops():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.5, "b", "receive", 1, 1)
    trace.log(0.5, "b", "drop", 1, -1, "overflow")
    trace.log(1.0, "a", "generate", 2)
    trace.log(1.0, "a", "send", 2, 2, "", 0.5)
    trace.log(2.0, "a", "pending", 2, 2, "in_flight")
    return trace


def test_audit_accounts_pending_and_drops():
    counts = audit_trace(pending_and_drops())
    assert counts == {"generated": 2, "delivered": 0, "dropped": 1, "pending": 1,
                      "copies_sent": 2, "copies_received": 1, "copies_dropped": 0,
                      "copies_pending": 1}


def drop_and_receive_in_one_instant():
    """A drop row before the receive row of its copy, both at one time: not
    dropped before it was received."""
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.5, "b", "drop", 1, 1, "fault")
    trace.log(0.5, "b", "receive", 1, 1)
    trace.log(0.5, "b", "deliver", 1, -1, "", 0.0, "data")
    return trace


# -- the streaming audit against the whole-trace oracle -----------------------

CLEAN = {"conserved": ok_trace, "pending_and_drops": pending_and_drops,
         "drop_and_receive_in_one_instant": drop_and_receive_in_one_instant}
AUDIT_CASES = ([("shipped", name) for name in SHIPPED]
               + [("fault", case) for case in sorted(FAULT_SHA256, key=repr)]
               + [("clean", name) for name in CLEAN]
               + [("defect", name) for name in sorted(DEFECTS)])


@pytest.mark.parametrize("source, case", AUDIT_CASES, ids=repr)
def test_the_streaming_audit_agrees_with_the_whole_trace_oracle(source, case):
    """The same counts on every shipped run at seed 1, every pinned fault run
    and the clean hand-made traces, and the same message on every trace with
    one defect."""
    if source == "shipped":
        streamed, oracle = shipped_run(case).audits
    else:
        if source == "fault":
            trace = run_with_fault(*case)[1]
        else:
            trace = CLEAN[case]() if source == "clean" else DEFECTS[case][0]()
        streamed, oracle = audit_outcomes(trace)
    assert isinstance(oracle, str) == (source == "defect")
    assert streamed == oracle


def shifted(trace, pids: int, copies: int) -> SimulationTrace:
    """`trace` with every pid and copy of 0 or more moved by `pids` and `copies`."""
    return SimulationTrace((time, node, kind, pid + pids if pid >= 0 else pid,
                            copy + copies if copy >= 0 else copy, reason, value, info)
                           for time, node, kind, pid, copy, reason, value, info in trace)


# (pids, copies) shifts that break the id order: every id far past the next
# one, the pids only, the copies only, and copy 0, which no run writes.
SHIFTS = {"far": (10**12, 10**12), "pids_far": (10**12, 0),
          "copies_far": (0, 10**12), "copy_0": (0, -1)}
ORDER = r"(pid \d+ named before pid|copy \d+ sent before copy) \d+"


# copy_0_sent under the copy_0 shift is left out: its copy 0 moves to -1, no copy.
@pytest.mark.parametrize("source, case, shift", [
    (source, case, shift) for source, names in (("clean", CLEAN), ("defect", sorted(DEFECTS)))
    for case in names for shift in SHIFTS if (case, shift) != ("copy_0_sent", "copy_0")],
    ids=repr)
def test_the_audit_agrees_with_the_oracle_on_ids_out_of_order(source, case, shift):
    """The hand-made traces with their ids moved out of order carry the order
    defect besides their own, if any: both audits refuse the row that breaks
    the first rule in their common order, with the same message, which is
    the order rule's or the trace's own with its ids moved."""
    build, message = (CLEAN[case], "") if source == "clean" else DEFECTS[case]
    streamed, oracle = audit_outcomes(shifted(build(), *SHIFTS[shift]))
    assert isinstance(oracle, str)
    assert streamed == oracle
    assert re.fullmatch(ORDER, oracle) or re.sub(r"\d+", "N", oracle) == re.sub(r"\d+", "N", message)
