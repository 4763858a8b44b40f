"""Reliability indicator, condition classification, the frequency update law,
interval accounting, the delay budget, and a source's answer to a broadcast."""

import math
import random

import pytest

from rrrt.controller import (IntervalRow, IntervalStats, NetworkCondition,
                             ReliabilityController, check_delay_budget, classify_condition,
                             record_packet_arrival, reliability_indicator, update_frequency)
from rrrt.errors import InconsistentStats, InvalidTarget
from rrrt.kernel import Simulator
from rrrt.nodes import SensorSource
from rrrt.packet import Packet
from rrrt.scenario import BudgetCfg, ControllerCfg, SwitchesCfg
from oracles import condition_table
from util import chain_network


def ctl_cfg(dr_d=100, t_sa=1.0, beta=0.05, f_min=1e-9, f_cap=1e9):
    """A [controller] section; the default frequency bounds are wide enough not to clamp."""
    return ControllerCfg(dr_d=dr_d, t_sa=t_sa, beta=beta, f_min=f_min, f_cap=f_cap)


# The switches of the paper's literal Eq 4 and Eq 6, as a scenario declares them by default.
LITERAL = SwitchesCfg()


def stats(dr_o=0, t_i=math.inf, cn=False, x=1, f_i=1.0):
    return IntervalStats(index=1, f_i=f_i, dr_o=dr_o, t_i=t_i, cn=cn, x=x)


# -- indicator ----------------------------------------------------------------

@pytest.mark.parametrize("dr_o,dr_d,expected", [(80, 100, 0.8), (100, 100, 1.0), (0, 100, 0.0)])
def test_reliability_indicator(dr_o, dr_d, expected):
    assert reliability_indicator(dr_o, dr_d) == expected


def test_reliability_indicator_rejects_zero_target():
    with pytest.raises(InvalidTarget):
        reliability_indicator(10, 0)


# -- classification --------------------------------------------------------------

@pytest.mark.parametrize("alpha,cn,expected", [
    (0.5, True, NetworkCondition.LOW_REL_CONG),
    (1.2, False, NetworkCondition.EARLY_REL_NO_CONG),
    (1.0, False, NetworkCondition.ADEQUATE_REL_NO_CONG),
    (1.0, True, NetworkCondition.EARLY_REL_CONG),  # tie under congestion
    (0.96, False, NetworkCondition.ADEQUATE_REL_NO_CONG),  # inside band
    (0.94, False, NetworkCondition.LOW_REL_NO_CONG),
    (1.05, False, NetworkCondition.ADEQUATE_REL_NO_CONG),  # inclusive upper edge
    (0.99, True, NetworkCondition.LOW_REL_CONG),  # band does not apply under congestion
])
def test_classify_condition(alpha, cn, expected):
    assert classify_condition(alpha, cn, 0.05) is expected


def test_classifier_totality_matches_decision_table():
    """Grid over alpha x cn x beta agrees with the independently coded table."""
    for alpha in [i / 10 for i in range(0, 21)]:
        for cn in (False, True):
            for beta in (0.01, 0.05, 0.2):
                got = classify_condition(alpha, cn, beta).value
                assert got == condition_table(alpha, cn, beta)


# -- update law -------------------------------------------------------------------

def test_eq3_early_no_congestion_spot():
    f_next, x_next = update_frequency(
        NetworkCondition.EARLY_REL_NO_CONG, stats(dr_o=150, t_i=0.5, f_i=10.0),
        ctl_cfg(t_sa=1.0), LITERAL)
    assert f_next == 5.0 and x_next == 1


def test_eq5_low_no_congestion_spot():
    f_next, x_next = update_frequency(
        NetworkCondition.LOW_REL_NO_CONG, stats(dr_o=80, f_i=4.0), ctl_cfg(dr_d=100), LITERAL)
    assert f_next == 5.0 and x_next == 1


def test_eq6_low_congestion_spot():
    f_next, x_next = update_frequency(
        NetworkCondition.LOW_REL_CONG, stats(dr_o=50, cn=True, x=2, f_i=16.0),
        ctl_cfg(dr_d=100), LITERAL)
    assert f_next == 2.0 and x_next == 3  # 16 ** (50 / 200)


def test_eq7_adequate_is_exact_fixed_point():
    f_next, x_next = update_frequency(
        NetworkCondition.ADEQUATE_REL_NO_CONG, stats(dr_o=100, f_i=7.0), ctl_cfg(), LITERAL)
    assert f_next == 7.0 and x_next == 1


def test_eq4_literal_equals_eq3_value():
    st = stats(dr_o=150, t_i=0.5, cn=True, f_i=10.0)
    literal, _ = update_frequency(NetworkCondition.EARLY_REL_CONG, st, ctl_cfg(), LITERAL)
    assert literal == 5.0
    alt, _ = update_frequency(NetworkCondition.EARLY_REL_CONG, st, ctl_cfg(),
                              SwitchesCfg(eq4_alt=True))
    assert alt == min(5.0, 10.0 * 100 / 150)


def test_eq6_sub_unity_frequency_never_increases():
    st = stats(dr_o=50, cn=True, x=1, f_i=0.5)
    f_next, _ = update_frequency(NetworkCondition.LOW_REL_CONG, st, ctl_cfg(dr_d=100), LITERAL)
    assert f_next == 0.5  # raw exponent form would give 0.5**0.5 > 0.5


def test_eq6_congested_low_never_raises_frequency_randomized():
    """Every congested-low case moves the frequency down (or holds), pre- and post-clamp."""
    rng = random.Random(1234)
    for _ in range(2000):
        f_i = rng.uniform(0.01, 100.0)
        dr_d = rng.randint(1, 200)
        dr_o = rng.randint(0, dr_d - 1)  # strictly low reliability
        x = rng.randint(1, 10)
        st = stats(dr_o=dr_o, cn=True, x=x, f_i=f_i)
        f_next, x_next = update_frequency(NetworkCondition.LOW_REL_CONG, st, ctl_cfg(dr_d=dr_d),
                                          LITERAL)
        assert f_next <= f_i + 1e-15
        assert x_next == x + 1


def test_eq6_alt_multiplicative_form():
    st = stats(dr_o=50, cn=True, x=2, f_i=16.0)
    f_next, x_next = update_frequency(NetworkCondition.LOW_REL_CONG, st, ctl_cfg(dr_d=100),
                                      SwitchesCfg(eq6_alt=True))
    assert f_next == 16.0 * 50 / 200 and x_next == 3


def test_d3_zero_on_time_packets_jump_to_cap():
    f_next, _ = update_frequency(NetworkCondition.LOW_REL_NO_CONG, stats(dr_o=0, f_i=2.0),
                                 ctl_cfg(f_min=0.1, f_cap=50.0), LITERAL)
    assert f_next == 50.0


def test_eq3_contracts_whenever_early():
    rng = random.Random(99)
    for _ in range(500):
        t_sa = rng.uniform(0.1, 5.0)
        t_i = rng.uniform(1e-6, t_sa * 0.999)
        f_i = rng.uniform(0.1, 100.0)
        f_next, _ = update_frequency(
            NetworkCondition.EARLY_REL_NO_CONG,
            stats(dr_o=200, t_i=t_i, f_i=f_i), ctl_cfg(dr_d=100, t_sa=t_sa), LITERAL)
        assert f_next < f_i


def test_eq5_expands_whenever_low():
    rng = random.Random(100)
    for _ in range(500):
        dr_d = rng.randint(2, 200)
        dr_o = rng.randint(1, dr_d - 1)
        f_i = rng.uniform(0.1, 100.0)
        f_next, _ = update_frequency(
            NetworkCondition.LOW_REL_NO_CONG, stats(dr_o=dr_o, f_i=f_i), ctl_cfg(dr_d=dr_d),
            LITERAL)
        assert f_next > f_i


def test_eq6_nonincreasing_in_x_with_unit_limit():
    f_i = 16.0
    last = f_i
    for x in (1, 2, 4, 8, 64, 1024):
        f_next, _ = update_frequency(NetworkCondition.LOW_REL_CONG,
                                     stats(dr_o=50, cn=True, x=x, f_i=f_i), ctl_cfg(dr_d=100),
                                     LITERAL)
        assert f_next <= last + 1e-15
        last = f_next
    f_huge_x, _ = update_frequency(NetworkCondition.LOW_REL_CONG,
                                   stats(dr_o=50, cn=True, x=10 ** 9, f_i=f_i),
                                   ctl_cfg(dr_d=100), LITERAL)
    assert f_huge_x == pytest.approx(1.0, abs=1e-6)


def test_results_respect_frequency_bounds():
    high, _ = update_frequency(NetworkCondition.LOW_REL_NO_CONG, stats(dr_o=1, f_i=4.0),
                               ctl_cfg(dr_d=100, f_min=1.0, f_cap=8.0), LITERAL)
    assert high == 8.0
    low, _ = update_frequency(NetworkCondition.EARLY_REL_NO_CONG,
                              stats(dr_o=200, t_i=0.01, f_i=4.0), ctl_cfg(f_min=1.0, f_cap=8.0),
                              LITERAL)
    assert low == 1.0


def test_inconsistent_stats_detected():
    st = stats(dr_o=150, t_i=0.4, cn=True, f_i=4.0)  # reached the target yet classified low
    with pytest.raises(InconsistentStats):
        update_frequency(NetworkCondition.LOW_REL_CONG, st, ctl_cfg(), LITERAL)


# -- interval accounting ---------------------------------------------------------

def packet(gen_time, cn=False):
    return Packet(pid=1, flow="data", src="s", dst="sink",
                  gen_time=gen_time, cn=cn)


def test_record_arrival_within_bound_counts():
    st = stats()
    record_packet_arrival(st, packet(0.0), 0.8, ctl_cfg(t_sa=1.0))
    assert st.dr_o == 1


def test_record_arrival_late_counts_separately():
    st = stats()
    record_packet_arrival(st, packet(0.0), 1.2, ctl_cfg(t_sa=1.0))
    assert st.dr_o == 0


def test_record_arrival_sets_t_i_at_kth_packet():
    st = stats()
    cfg = ctl_cfg(dr_d=3)
    for now in (0.2, 0.5, 0.9):
        record_packet_arrival(st, packet(now - 0.1), now, cfg)
    assert st.t_i == pytest.approx(0.9)
    record_packet_arrival(st, packet(0.95), 1.0, cfg)
    assert st.t_i == pytest.approx(0.9)  # only the k-th arrival sets it


def test_record_arrival_cn_only_from_on_time_packets():
    st = stats()
    cfg = ctl_cfg()
    record_packet_arrival(st, packet(0.0, cn=True), 2.0, cfg)  # late, marked
    assert st.cn is False
    record_packet_arrival(st, packet(1.9, cn=True), 2.0, cfg)  # on time, marked
    assert st.cn is True


# -- delay budget ---------------------------------------------------------------

def test_delay_budget_literal_and_full_sum():
    budget = BudgetCfg(delta_e2a=1.0, ep_del=0.3, a_del=0.4)
    b_del, ca_del, t_del, p_del = 0.2, 0.1, 0.05, 0.05
    assert check_delay_budget(budget, b_del) is True  # literal: 0.9 <= 1.0
    assert check_delay_budget(budget, b_del + ca_del + t_del + p_del) is False  # 1.1 > 1.0


def test_delay_budget_zero_delays_hold_in_both_modes():
    budget = BudgetCfg(0.0, 0.0, 0.0)
    assert check_delay_budget(budget, 0.0) is True  # what both modes charge


def test_delay_budget_explicit_overrides():
    budget = BudgetCfg(1.0, 0.5, 0.4)
    assert check_delay_budget(budget, 0.2) is False


# -- controller composition -------------------------------------------------------

def controller(dr_d=100, f_init=4.0, beta=0.05, f_cap=50.0):
    return ReliabilityController(ControllerCfg(dr_d=dr_d, t_sa=1.0, beta=beta, f_init=f_init,
                                               f_min=0.1, f_cap=f_cap), LITERAL)


def test_adequate_interval_is_a_broadcast_fixed_point():
    ctl = controller(dr_d=10)
    for i in range(10):
        ctl.on_data_packet(packet(0.1 * i), 0.1 * i + 0.05)
    row = ctl.close_interval(1.0)
    assert row.condition == "AdequateRelNoCong"
    assert row.f_next == row.f_i == 4.0
    assert ctl.stats.f_i == 4.0


def test_zero_arrival_interval_broadcasts_cap():
    ctl = controller()
    row = ctl.close_interval(1.0)
    assert row.dr_o == 0 and row.f_next == 50.0
    assert ctl.stats.index == 2 and ctl.stats.start_time == 1.0


def test_x_counter_carries_across_congested_low_intervals():
    ctl = controller(dr_d=100)
    ctl.stats.dr_o = 50
    ctl.stats.cn = True
    first = ctl.close_interval(1.0)
    assert first.condition == "LowRelCong" and first.x == 1
    ctl.stats.dr_o = 50
    ctl.stats.cn = True
    second = ctl.close_interval(2.0)
    assert second.x == 2  # computed with the carried-over counter
    ctl.stats.dr_o = 100
    third = ctl.close_interval(3.0)
    assert third.x == 3 and ctl.stats.x == 1  # any other condition resets


def test_interval_row_encode_decode_round_trip():
    row = IntervalRow(3, 87, 100, 0.87, math.inf, True, "LowRelCong", 4.25, 3.75, 2, 3.0)
    back = IntervalRow.decode(row.encode(), 3.0)
    assert back == row


def test_one_increase_step_lands_in_band_in_linear_regime():
    """Fluid-model closed loop: one multiplicative increase from any low-reliability
    uncongested state reaches the tolerance band up to count discretization."""
    from oracles import linear_field_step

    rng = random.Random(11)
    checked = 0
    while checked < 200:
        n = rng.randint(10, 200)
        dr_d = rng.randint(50, 800)
        f_star = dr_d / n
        f = f_star * rng.uniform(0.2, 0.9)
        if math.floor(n * f) < 24 or math.floor(n * f) >= dr_d * 0.95:
            continue  # keep discretization slack below the band width
        f1, _, cond1 = linear_field_step(f, n, dr_d, 1.0, 0.05, 1e-9, 1e9)
        assert cond1 == "LowRelNoCong"
        _, _, cond2 = linear_field_step(f1, n, dr_d, 1.0, 0.05, 1e-9, 1e9)
        assert cond2 == "AdequateRelNoCong", (n, dr_d, f, f1)
        checked += 1


# -- a source under frequency broadcasts ---------------------------------------------

def test_two_broadcasts_before_a_report_leave_one_report_at_the_last_phase():
    """Each broadcast re-dithers the source's next report. The timers it
    supersedes still come due, but write nothing, so the only report before
    the next period is at the phase the last broadcast drew."""
    sim, runtime, (src, sink), _ = chain_network(services=(100.0,))
    runtime.children[sink] = [src]
    source = runtime.apps[src] = SensorSource(runtime, src, sink, f_init=0.1)
    source.start(0.0)
    pids = []
    for f_new in (0.2, 0.1):
        pids.append(sim.new_pid())
        runtime.broadcast(sink, Packet(pids[-1], "ctl", sink, "*", 0.0, payload=f_new))
    sim.run_until(1.0)
    arrivals = [r[0] for r in sim.trace if r[1] == src and r[2] == "receive" and r[3] in pids]
    assert len(arrivals) == 2 and arrivals[0] == arrivals[1]
    reached = arrivals[0]
    draws = Simulator(1).rng(f"src:{src}")
    first, _, last = (draws.random() * period for period in (10.0, 5.0, 10.0))
    assert reached < first and 0.0 < last  # both came before the first report was due
    sim.run_until(reached + 10.0)  # past both superseded timers, before the next report
    assert [(r[0], r[1]) for r in sim.trace if r[2] == "generate"] == [(reached + last, src)]
