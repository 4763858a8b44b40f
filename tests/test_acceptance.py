"""Acceptance suite: nine criteria, one test per criterion, one PASS line each.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines; every
tolerance and threshold is pinned here, nothing is calibrated at run time.
"""

import math
import random
import statistics
import time

import pytest

from rrrt import transport as tp
from rrrt.controller import IntervalStats, classify_condition, update_frequency
from rrrt.kernel import decode_info
from rrrt.metrics import audit_trace
from rrrt.packet import Packet
from rrrt.runner import build_transport, replay_text, run_experiment
from rrrt.scenario import ControllerCfg, ScenarioConfig, SwitchesCfg, TransportCfg
from oracles import (intervals_to_adequate, sack_holes_oracle, update_law_transcription)
from util import run_and_serialize

F_STAR = 400 / 81  # fixed point of the 81-source, dr_d=400 field


def _passed(num, text):
    print(f"CRITERION {num} PASS - {text}")


# -- scenario builders (frozen; mirror the files under scenarios/) ------------------


def field_cfg(f_init, layout="direct", relay_service=500.0, cross_rate=0.0):
    cfg = ScenarioConfig()
    cfg.topology.n_sources = 81
    cfg.topology.event_radius = 45.0
    cfg.controller.dr_d = 400
    cfg.controller.t_sa = 1.0
    cfg.controller.beta = 0.05
    cfg.controller.f_init = f_init
    cfg.sim.horizon = 25.0
    if layout == "relay":
        cfg.topology.layout = "relay"
        cfg.topology.ca_value = 0.001
        cfg.topology.relay_service_rate = relay_service
        cfg.congestion.buffer_capacity = 80
    if cross_rate:
        cfg.cross_traffic.rate = cross_rate
        cfg.cross_traffic.start = 0.0
        cfg.cross_traffic.stop = 3.0
        cfg.topology.cross_service_rate = 650.0
    return cfg


def congested_cfg():
    cfg = ScenarioConfig()
    cfg.topology.n_sources = 9
    cfg.topology.layout = "relay"
    cfg.topology.relay_service_rate = 70.0
    cfg.controller.dr_d = 45
    cfg.controller.f_init = 12.0
    cfg.congestion.buffer_capacity = 15
    cfg.sim.horizon = 1000.0
    return cfg


def transport_cfg(loss, goal=1000, sender="adaptive"):
    cfg = ScenarioConfig()
    cfg.scenario.mode = "transport"
    cfg.transport.goal_packets = goal
    cfg.transport.data_loss = loss
    cfg.transport.delta_e2a = 60.0
    cfg.transport.sender = sender
    cfg.transport.fixed_rate = 200.0  # twice the 100 pkt/s bottleneck
    cfg.sim.horizon = 60.0
    return cfg


# -- criterion 1: update-law oracle equivalence ---------------------------------------


def test_criterion_1_update_law_matches_transcription_oracle():
    rng = random.Random(20260808)
    f_min, f_cap = 1e-3, 1e6
    started = time.perf_counter()
    for _ in range(10_000):
        f_i = rng.uniform(0.1, 100.0)
        dr_o = rng.randint(1, 200)
        dr_d = rng.randint(1, 200)
        t_i = rng.uniform(1e-3, 5.0)
        t_sa = rng.uniform(1e-3, 5.0)
        cn = rng.random() < 0.5
        beta = rng.choice((0.01, 0.05, 0.2))
        x = rng.randint(1, 10)
        ctl = ControllerCfg(dr_d=dr_d, t_sa=t_sa, beta=beta, f_min=f_min, f_cap=f_cap)
        stats = IntervalStats(index=1, f_i=f_i, dr_o=dr_o, t_i=t_i, cn=cn, x=x)
        cond = classify_condition(dr_o / dr_d, cn, beta)
        got_f, got_x = update_frequency(cond, stats, ctl, SwitchesCfg())
        want_f, want_x = update_law_transcription(
            f_i, dr_o, dr_d, t_i, t_sa, cn, beta, x, f_min, f_cap)
        assert got_x == want_x
        assert got_f == want_f or abs(got_f - want_f) <= 1e-12 * max(abs(want_f), 1.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passed(1, f"10,000 randomized tuples match the transcription oracle in {elapsed:.2f}s")


# -- criterion 2: spot formula checks ---------------------------------------------------


def test_criterion_2_spot_formula_checks():
    ctl = ControllerCfg(dr_d=100, t_sa=1.0, beta=0.05, f_min=1e-9, f_cap=1e9)

    f3, _ = update_frequency(classify_condition(1.5, False, 0.05),
                             IntervalStats(1, 10.0, dr_o=150, t_i=0.5), ctl, SwitchesCfg())
    assert f3 == 5.0

    f5, _ = update_frequency(classify_condition(0.8, False, 0.05),
                             IntervalStats(1, 4.0, dr_o=80), ctl, SwitchesCfg())
    assert f5 == 5.0

    f6, x6 = update_frequency(classify_condition(0.5, True, 0.05),
                              IntervalStats(1, 16.0, dr_o=50, cn=True, x=2), ctl,
                              SwitchesCfg())
    assert f6 == 2.0 and x6 == 3

    f7, _ = update_frequency(classify_condition(1.0, False, 0.05),
                             IntervalStats(1, 7.0, dr_o=100), ctl, SwitchesCfg())
    assert f7 == 7.0
    _passed(2, "frequency-update spot values are exact (5.0, 5.0, 2.0, fixed point)")


# -- criterion 3: closed-loop convergence at evaluation scale ----------------------------


def test_criterion_3_closed_loop_convergence_from_all_four_conditions():
    cases = {
        "EarlyRelNoCong": field_cfg(round(4 * F_STAR, 3)),
        "LowRelNoCong": field_cfg(round(F_STAR / 4, 3)),
        "EarlyRelCong": field_cfg(12.0, layout="relay"),
        "LowRelCong": field_cfg(round(F_STAR / 4, 3), layout="relay", cross_rate=600.0),
    }
    # the frozen 15-interval bound covers the brute-force stepper's worst
    # convergence plus a 50% margin
    oracle_worst = max(
        intervals_to_adequate(round(4 * F_STAR, 3), 81, 400),
        intervals_to_adequate(round(F_STAR / 4, 3), 81, 400),
        intervals_to_adequate(12.0, 81, 400, service_rate=500.0),
        intervals_to_adequate(round(F_STAR / 4, 3), 81, 400, service_rate=500.0,
                              cross_rate=600.0, cross_intervals=3),
    )
    assert math.ceil(oracle_worst * 1.5) <= 15

    started = time.perf_counter()
    summary = []
    for name, cfg in cases.items():
        within = 0
        for seed in range(1, 11):
            report = run_experiment(cfg, seed)
            rows = report.per_interval
            assert rows[0].condition == name, f"{name} seed {seed} started as {rows[0].condition}"
            conv = report.convergence_time
            if conv is not None and conv <= 15.0:
                within += 1
                for row in rows:
                    if row.end_time >= conv:  # hold rule: frequency pinned once adequate
                        assert row.condition == "AdequateRelNoCong"
                        assert row.f_next == row.f_i
        assert within >= 9, f"{name}: only {within}/10 seeds converged within 15 intervals"
        summary.append(f"{name} {within}/10")
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed(3, f"sustained adequacy within 15 intervals: {', '.join(summary)} in {elapsed:.1f}s")


# -- criterion 4: congestion response direction ---------------------------------------------


def test_criterion_4_congestion_clears_and_frequency_never_rises_while_congested():
    cfg = congested_cfg()
    cleared = 0
    for seed in range(1, 11):
        report = run_experiment(cfg, seed)
        rows = report.per_interval
        congested = [r for r in rows if r.condition in ("LowRelCong", "EarlyRelCong")]
        for row in congested:
            assert row.f_next <= row.f_i + 1e-12, f"seed {seed}: f rose under congestion"
        cn_ends = [r.end_time for r in rows if r.cn]
        if cn_ends and max(cn_ends) <= 500.0:  # cleared and stayed clear to the horizon
            cleared += 1
    assert cleared >= 9, f"congestion cleared in only {cleared}/10 seeds"
    _passed(4, f"f never rises while congested; CN intervals cease in {cleared}/10 seeds")


# -- criterion 5: SACK full reliability --------------------------------------------------------


def test_criterion_5_sack_delivers_every_packet_under_iid_loss():
    for loss in (0.05, 0.2, 0.5):
        for seed in range(1, 11):
            report = run_experiment(transport_cfg(loss), seed)
            assert report.aggregate_throughput == 1000, (
                f"loss {loss} seed {seed}: {report.aggregate_throughput}/1000 delivered")
    # exhaustive loss-pattern enumeration on short streams: the holes of every
    # pattern come back from one SACK, in one batch
    state = tp.TransportState(phase=tp.Phase.HOLD, r_c=10.0, r_min=1.0, cfg=TransportCfg())
    for n in range(1, 7):
        for pattern in range(2 ** n):
            received = {seq for seq in range(1, n + 1) if not (pattern >> (seq - 1)) & 1}
            buffer = {seq: [-1.0, seq, 0.0] for seq in range(1, n + 1) if seq not in received}
            batch = tp.on_sack(state, tp.build_sack(tp.ReceivedRuns(received)), buffer, now=0.0)
            assert batch == sack_holes_oracle(received)
    _passed(5, "1000/1000 unique deliveries at p=0.05/0.2/0.5 x 10 seeds; "
               "all 126 short-stream hole patterns retransmitted in one batch")


# -- criterion 6: rate-control convergence ---------------------------------------------------


def test_criterion_6_rate_control_convergence_floor_and_blackout():
    r_f, r_c0 = 240.0, 60.0
    for hops in (1, 2, 3, 4, 7):
        m = min(hops, 4)
        state = tp.TransportState(phase=tp.Phase.HOLD, r_c=r_c0, r_min=1.0,
                                  cfg=TransportCfg(hold_band=0.0))
        for k in range(1, 15):
            tp.apply_rate_feedback(state, tp.RateFeedback(r_f, hops, float(k)))
            want = abs(r_f - r_c0) * (1.0 - 1.0 / m) ** k
            got = abs(r_f - state.r_c)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    # rate floor holds whenever data remains, after the first feedback
    cfg = transport_cfg(0.1, goal=400)
    cfg.transport.delta_e2a = 10.0
    harness = build_transport(cfg, seed=3)
    harness.sim.run_until(cfg.sim.horizon)
    for rec in harness.sim.trace:
        if rec[2] == "conn" and rec[7]:
            fields = decode_info(rec[7])
            if fields["phase"] in ("Increase", "Decrease", "Hold"):
                assert float(fields["r_c"]) >= float(fields["r_min"]) - 1e-9

    # exactly two silent feedback periods: Probe at a quarter of the rate
    state = tp.TransportState(phase=tp.Phase.HOLD, r_c=100.0, r_min=10.0, cfg=TransportCfg())
    tp.on_feedback_timeout(state, 1.0)
    assert state.phase is not tp.Phase.PROBE and state.r_c == 50.0
    tp.on_feedback_timeout(state, 1.5)
    assert state.phase is tp.Phase.PROBE and state.r_c == 25.0
    clamped = tp.TransportState(phase=tp.Phase.HOLD, r_c=100.0, r_min=30.0, cfg=TransportCfg())
    tp.on_feedback_timeout(clamped, 1.0)
    tp.on_feedback_timeout(clamped, 1.5)
    assert clamped.r_c == 30.0  # quartering clamped at the floor
    _passed(6, "geometric convergence exact for h in {1,2,3,4,7}; floor held in-sim; "
               "Probe at r_c0/4 after two misses")


# -- criterion 7: probe bottleneck correctness ----------------------------------------------


def test_criterion_7_probe_bottleneck_field():
    probe = Packet(1, "ctl", "a", "b", 0.0, bottleneck_delay=0.0)
    for ms in (2, 9, 4, 7, 3):
        tp.on_probe_forward(probe, ms / 1000.0)
    assert probe.bottleneck_delay == pytest.approx(0.009)
    fb = tp.feedback_from_probe(probe)
    assert fb.r_f == pytest.approx(1000.0 / 9.0, rel=1e-12)  # about 111.1 packets/s

    rng = random.Random(424242)
    for _ in range(1000):
        delays = [rng.uniform(1e-4, 0.05) for _ in range(rng.randint(1, 10))]
        probe = Packet(1, "ctl", "a", "b", 0.0, bottleneck_delay=0.0)
        for d in delays:
            tp.on_probe_forward(probe, d)
        assert probe.bottleneck_delay == max(delays)  # path-max oracle, exact
    _passed(7, "receiver sees the 9 ms path maximum (111.1 pkt/s); "
               "1000 random delay vectors match the path-max oracle")


# -- criterion 8: determinism and conservation ------------------------------------------------


def test_criterion_8_determinism_conservation_energy():
    field = field_cfg(round(F_STAR / 4, 3))
    field.topology.n_sources = 9
    field.controller.dr_d = 45
    field.sim.horizon = 8.0
    xfer = transport_cfg(0.3, goal=300)
    for cfg in (field, xfer):
        report_a, text_a = run_and_serialize(cfg, seed=12)
        report_b, text_b = run_and_serialize(cfg, seed=12)
        assert text_a == text_b and report_a == report_b

        harness_cfg = cfg
        rep, text = run_and_serialize(harness_cfg, seed=13)
        from rrrt.kernel import SimulationTrace
        trace, _ = SimulationTrace.parse(text)
        counts = audit_trace(trace)  # raises on any conservation/causality breach
        assert counts["generated"] == counts["delivered"] + counts["dropped"] + counts["pending"]

        tx = sum(1 for r in trace if r[2] == "send")
        rx = sum(1 for r in trace if r[2] == "receive")
        assert replay_text(text).total_energy == tx * cfg.energy.e_tx + rx * cfg.energy.e_rx
        assert rep.total_energy == tx * cfg.energy.e_tx + rx * cfg.energy.e_rx
    _passed(8, "byte-identical reruns; generated = delivered + dropped + pending; "
               "energy equals count-weighted sums exactly")


# -- criterion 9: directional comparison against a naive sender ------------------------------


def test_criterion_9_adaptive_beats_fixed_rate_naive_sender():
    adaptive_tp, adaptive_delay, fixed_tp, fixed_delay = [], [], [], []
    for seed in range(1, 11):
        rep = run_experiment(transport_cfg(0.1, goal=3000), seed)
        adaptive_tp.append(rep.aggregate_throughput)
        adaptive_delay.append(rep.average_packet_delay)
        rep = run_experiment(transport_cfg(0.1, goal=3000, sender="fixed"), seed)
        fixed_tp.append(rep.aggregate_throughput)
        fixed_delay.append(rep.average_packet_delay)
    mean_atp = statistics.fmean(adaptive_tp)
    mean_ftp = statistics.fmean(fixed_tp)
    mean_adelay = statistics.fmean(adaptive_delay)
    mean_fdelay = statistics.fmean(fixed_delay)
    assert mean_atp > mean_ftp
    assert mean_adelay < mean_fdelay
    _passed(9, f"throughput {mean_atp:.0f} > {mean_ftp:.0f} packets and delay "
               f"{mean_adelay * 1000:.0f} < {mean_fdelay * 1000:.0f} ms over 10 seeds")
