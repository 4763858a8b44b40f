"""Convergence time, the trace reducer (energy, throughput, delay, budget), and the audit."""

import math

import pytest

from rrrt.controller import IntervalRow
from rrrt.errors import InvariantViolation
from rrrt.kernel import SimulationTrace
from rrrt.metrics import MetricsReport, audit_trace, convergence_time, reduce_trace


def row(i, condition, end_time=None, dr_o=100, dr_d=100, cn=False):
    return IntervalRow(i, dr_o, dr_d, dr_o / dr_d, math.inf, cn, condition,
                       1.0, 1.0, 1, float(i) if end_time is None else end_time)


ADE = "AdequateRelNoCong"
LOW = "LowRelNoCong"


def test_convergence_first_sustained_index():
    rows = [row(1, LOW), row(2, LOW)] + [row(i, ADE) for i in range(3, 12)]
    assert convergence_time(rows, 0.05) == 3.0


def test_convergence_all_adequate_from_start():
    rows = [row(i, ADE) for i in range(1, 5)]
    assert convergence_time(rows, 0.05) == 1.0


def test_convergence_never_sustained():
    rows = [row(i, ADE if i % 2 else LOW) for i in range(1, 21)]  # ends on Low
    assert convergence_time(rows, 0.05) is None
    assert convergence_time([], 0.05) is None


def test_convergence_is_the_trailing_adequate_run():
    rows = [row(1, ADE), row(2, LOW), row(3, ADE), row(4, ADE)]
    assert convergence_time(rows, 0.05) == 3.0  # the early touch does not count


def test_convergence_rederives_condition_when_missing():
    rows = [row(1, "", dr_o=50), row(2, "", dr_o=100), row(3, "", dr_o=100)]
    assert convergence_time(rows, 0.05) == 2.0


def energy(trace, e_tx=50e-6, e_rx=25e-6):
    return reduce_trace(trace, {"e_tx": e_tx, "e_rx": e_rx}).total_energy


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
    merged = SimulationTrace(sorted(t1.records + t2.records))
    assert energy(merged) == pytest.approx(energy(t1) + energy(t2))


def test_throughput_counts_unique_flow_deliveries():
    trace = SimulationTrace()
    for i in range(5):
        trace.log(float(i), "sink", "deliver", i, -1, "", 0.0, "data")
    trace.log(9.0, "sink", "deliver", 50, -1, "", 0.0, "cross")
    assert reduce_trace(trace, {"flow": "data"}).aggregate_throughput == 5
    assert reduce_trace(trace, {"flow": "cross"}).aggregate_throughput == 1


def test_average_packet_delay_mean_and_guard():
    trace = SimulationTrace()
    trace.log(1.1, "sink", "deliver", 1, -1, "", 1.0, "data")  # 0.1 s
    trace.log(2.3, "sink", "deliver", 2, -1, "", 2.0, "data")  # 0.3 s
    assert reduce_trace(trace, {"flow": "data"}).average_packet_delay == pytest.approx(0.2)

    single = SimulationTrace()
    single.log(0.5, "sink", "deliver", 1, -1, "", 0.0, "data")
    assert reduce_trace(single, {"flow": "data"}).average_packet_delay == pytest.approx(0.5)

    assert reduce_trace(SimulationTrace(), {"flow": "data"}).average_packet_delay is None

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
    preamble = {"flow": "data", "beta": "0.05", "e_tx": "5e-05", "e_rx": "2.5e-05",
                "seed": "7", "eq2_mode": "full-sum"}
    assert reduce_trace(full, preamble) == MetricsReport(
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


def test_audit_rejects_time_regression():
    trace = ok_trace()
    trace.log(0.1, "a", "generate", 2)
    with pytest.raises(InvariantViolation):
        audit_trace(trace)


def test_audit_rejects_vanished_copy():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.5, "b", "deliver", 1, -1, "", 0.0, "data")  # no receive, no drop
    with pytest.raises(InvariantViolation):
        audit_trace(trace)


def test_audit_rejects_unaccounted_pid():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    with pytest.raises(InvariantViolation):
        audit_trace(trace)


def test_audit_rejects_duplicate_delivery():
    trace = ok_trace()
    trace.log(0.6, "b", "deliver", 1, -1, "", 0.0, "data")
    with pytest.raises(InvariantViolation):
        audit_trace(trace)


def test_audit_rejects_wrong_hop_delay():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.4, "b", "receive", 1, 1)  # breakdown said 0.5
    trace.log(0.4, "b", "deliver", 1, -1, "", 0.0, "data")
    with pytest.raises(InvariantViolation):
        audit_trace(trace)


def test_audit_accounts_pending_and_drops():
    trace = SimulationTrace()
    trace.log(0.0, "a", "generate", 1)
    trace.log(0.0, "a", "send", 1, 1, "", 0.5)
    trace.log(0.5, "b", "receive", 1, 1)
    trace.log(0.5, "b", "drop", 1, -1, "overflow")
    trace.log(1.0, "a", "generate", 2)
    trace.log(1.0, "a", "send", 2, 2, "", 0.5)
    trace.log(2.0, "a", "pending", 2, 2, "in_flight")
    counts = audit_trace(trace)
    assert counts == {"generated": 2, "delivered": 0, "dropped": 1, "pending": 1,
                      "copies_sent": 2, "copies_received": 1, "copies_dropped": 0,
                      "copies_pending": 1}
