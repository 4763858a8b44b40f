"""Rate-control state machine, probing, SACK engine, and their sim-level contracts."""

import copy
import os
import random

import pytest

from rrrt import transport as tp
from rrrt.errors import DeadlineExpired, DegenerateProbe, StaleFeedback
from rrrt.kernel import decode_info
from rrrt.packet import Packet
from rrrt.metrics import audit_trace
from rrrt.runner import build_transport, replay_text, run_experiment, run_traced
from rrrt.scenario import ScenarioConfig, TransportCfg, parse_scenario
from oracles import build_sack_oracle, on_sack_oracle, sack_holes_oracle

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def fresh_state(r_c=100.0, r_min=10.0, phase=tp.Phase.HOLD, hold_band=0.0):
    return tp.TransportState(phase=phase, r_c=r_c, r_min=r_min,
                             cfg=TransportCfg(hold_band=hold_band))


def probe_packet(bottleneck_delay=0.0, hop_count=0):
    return Packet(pid=1, flow="ctl", src="a", dst="b", gen_time=0.0,
                  bottleneck_delay=bottleneck_delay, hop_count=hop_count)


def feedback(r_f, hops=2, issued_at=1.0):
    return tp.RateFeedback(r_f=r_f, hop_count=hops, issued_at=issued_at)


def records(sent: dict) -> dict:
    """A retx_buffer of `[send time, pid, generation time]` records, from each
    seq's send time; the pid is the seq."""
    return {seq: [time, seq, 0.0] for seq, time in sent.items()}


# -- rate floor -------------------------------------------------------------------

@pytest.mark.parametrize("b,delta,expected", [(100, 2.0, 50.0), (0, 2.0, 0.0)])
def test_min_transmission_rate(b, delta, expected):
    assert tp.min_transmission_rate(b, delta) == expected


def test_min_transmission_rate_expired_deadline():
    with pytest.raises(DeadlineExpired):
        tp.min_transmission_rate(10, 0.0)


# -- connection start ---------------------------------------------------------------

def test_start_connection_probes_before_any_data():
    goal = tp.DeliveryGoal(b_remaining=100, deadline=2.0)
    cfg = TransportCfg(rtt_estimate=0.05, t_fdbk=0.2, t_p=0.3)
    state = tp.start_connection(goal, now=0.0, cfg=cfg)
    assert state.phase is tp.Phase.START_UP
    assert state.r_min == 50.0
    assert state.r_c == 0.0
    assert state.cfg is cfg


def test_start_connection_rejects_periods_at_or_below_rtt():
    goal = tp.DeliveryGoal(10, 10.0)
    with pytest.raises(ValueError):
        tp.start_connection(goal, 0.0, TransportCfg(rtt_estimate=0.2, t_fdbk=0.2, t_p=0.5))
    with pytest.raises(ValueError):
        tp.start_connection(goal, 0.0, TransportCfg(rtt_estimate=0.2, t_fdbk=0.5, t_p=0.1))


# -- probing -----------------------------------------------------------------------

def test_probe_forward_keeps_the_maximum():
    probe = probe_packet(bottleneck_delay=0.003, hop_count=1)
    tp.on_probe_forward(probe, 0.005)
    assert probe.bottleneck_delay == 0.005 and probe.hop_count == 2
    tp.on_probe_forward(probe, 0.003)
    assert probe.bottleneck_delay == 0.005 and probe.hop_count == 3


def test_probe_starts_from_zero():
    probe = probe_packet()
    assert probe.bottleneck_delay == 0.0
    tp.on_probe_forward(probe, 0.002)
    assert probe.bottleneck_delay == 0.002 and probe.hop_count == 1


@pytest.mark.parametrize("delay,expected", [(0.01, 100.0), (0.5, 2.0)])
def test_feedback_from_probe_inverts_bottleneck(delay, expected):
    fb = tp.feedback_from_probe(probe_packet(bottleneck_delay=delay, hop_count=3))
    assert fb.r_f == expected and fb.hop_count == 3


def test_feedback_from_degenerate_probe():
    with pytest.raises(DegenerateProbe):
        tp.feedback_from_probe(probe_packet())


def test_probe_path_maximum_example():
    probe = probe_packet()
    for ms in (2, 9, 4, 7, 3):
        tp.on_probe_forward(probe, ms / 1000.0)
    assert probe.bottleneck_delay == pytest.approx(0.009)
    assert probe.hop_count == 5
    fb = tp.feedback_from_probe(probe)
    assert fb.r_f == pytest.approx(111.1, abs=0.05)


def test_probe_path_maximum_randomized_oracle():
    rng = random.Random(77)
    for _ in range(1000):
        delays = [rng.uniform(1e-4, 0.05) for _ in range(rng.randint(1, 8))]
        probe = probe_packet()
        for d in delays:
            tp.on_probe_forward(probe, d)
        assert probe.bottleneck_delay == max(delays)
        assert probe.hop_count == len(delays)


# -- feedback application ---------------------------------------------------------------

def test_increase_moves_fraction_of_difference():
    state = fresh_state(r_c=100.0)
    tp.apply_rate_feedback(state, feedback(180.0, hops=2))
    assert state.r_c == 140.0 and state.phase is tp.Phase.INCREASE and state.m == 2


def test_increase_caps_fraction_at_four_hops():
    state = fresh_state(r_c=100.0)
    tp.apply_rate_feedback(state, feedback(180.0, hops=7))
    assert state.r_c == 120.0 and state.m == 4


@pytest.mark.parametrize("hops,m", [(0, 1), (1, 1), (2, 2), (3, 3), (4, 4), (9, 4)])
def test_m_rule(hops, m):
    state = fresh_state(r_c=100.0)
    tp.apply_rate_feedback(state, feedback(500.0, hops=hops))
    assert state.m == m


def test_decrease_towards_feedback_above_floor():
    state = fresh_state(r_c=100.0, r_min=50.0)
    tp.apply_rate_feedback(state, feedback(60.0))
    assert state.r_c == 60.0 and state.phase is tp.Phase.DECREASE


def test_decrease_clamps_at_floor():
    state = fresh_state(r_c=100.0, r_min=50.0)
    tp.apply_rate_feedback(state, feedback(40.0))
    assert state.r_c == 50.0 and state.phase is tp.Phase.DECREASE


def test_hold_band_freezes_rate():
    state = fresh_state(r_c=100.0, hold_band=0.02)
    tp.apply_rate_feedback(state, feedback(101.0))
    assert state.phase is tp.Phase.HOLD and state.r_c == 100.0


def test_stale_feedback_rejected_and_state_unchanged():
    state = fresh_state(r_c=100.0)
    tp.apply_rate_feedback(state, feedback(120.0, issued_at=5.0))
    snapshot = (state.r_c, state.phase, state.m)
    with pytest.raises(StaleFeedback):
        tp.apply_rate_feedback(state, feedback(500.0, hops=1, issued_at=4.0))
    assert (state.r_c, state.phase, state.m) == snapshot


def test_first_feedback_after_probe_adopts_rate():
    state = fresh_state(r_c=0.0, r_min=25.0, phase=tp.Phase.START_UP)
    tp.apply_rate_feedback(state, feedback(90.0))
    assert state.r_c == 90.0 and state.phase is tp.Phase.HOLD
    state.phase = tp.Phase.PROBE
    tp.apply_rate_feedback(state, feedback(10.0, issued_at=2.0))
    assert state.r_c == 25.0  # adopted but floored


def test_geometric_convergence_of_increase():
    for hops in (1, 2, 3, 4, 7):
        m = min(max(hops, 1), 4)
        state = fresh_state(r_c=100.0, r_min=1.0, hold_band=0.0)
        r_f, r_c0 = 200.0, 100.0
        for k in range(1, 12):
            tp.apply_rate_feedback(state, feedback(r_f, hops=hops, issued_at=float(k)))
            expected = abs(r_f - r_c0) * (1.0 - 1.0 / m) ** k
            assert abs(r_f - state.r_c) == pytest.approx(expected, rel=1e-9, abs=1e-12)


# -- feedback blackout -----------------------------------------------------------------

def test_timeout_halves_and_probes_after_two_misses():
    state = fresh_state(r_c=100.0, r_min=10.0)
    tp.on_feedback_timeout(state, 1.0)
    assert state.r_c == 50.0 and state.missed_feedback == 1
    assert state.phase is tp.Phase.HOLD
    tp.on_feedback_timeout(state, 1.5)
    assert state.r_c == 25.0 and state.missed_feedback == 2
    assert state.phase is tp.Phase.PROBE
    tp.on_feedback_timeout(state, 2.0)  # never exceeds two
    assert state.missed_feedback == 2 and state.r_c == 25.0


def test_timeout_respects_rate_floor():
    state = fresh_state(r_c=15.0, r_min=10.0)
    tp.on_feedback_timeout(state, 1.0)
    assert state.r_c == 10.0


# -- SACK -----------------------------------------------------------------------------

def test_build_sack_examples():
    sack = tp.build_sack(tp.ReceivedRuns({1, 2, 3, 5, 6, 9}))
    assert sack.cumulative_ack == 3 and sack.blocks == [(5, 6), (9, 9)]
    assert tp.build_sack(tp.ReceivedRuns({1, 2, 3})) == tp.SackInfo(3, [])
    assert tp.build_sack(tp.ReceivedRuns(set())) == tp.SackInfo(0, [])


def test_build_sack_blocks_partition_received_set():
    rng = random.Random(5)
    for _ in range(300):
        received = {seq for seq in range(1, 30) if rng.random() < 0.6}
        sack = tp.build_sack(tp.ReceivedRuns(received))
        assert sack.received_set() == received


def test_on_sack_retransmits_exactly_the_holes_in_one_batch():
    state = fresh_state()
    buffer = records({seq: -10.0 for seq in range(1, 10)})
    sack = tp.build_sack(tp.ReceivedRuns({1, 2, 3, 5, 6, 9}))
    batch = tp.on_sack(state, sack, buffer, now=0.0)
    assert batch == [4, 7, 8]
    assert sorted(buffer) == [4, 7, 8]


def test_on_sack_complete_ack_empties_buffer():
    state = fresh_state()
    buffer = records({seq: -10.0 for seq in range(1, 6)})
    batch = tp.on_sack(state, tp.build_sack(tp.ReceivedRuns({1, 2, 3, 4, 5})), buffer, now=0.0)
    assert batch == [] and buffer == {}


def test_duplicate_sack_is_idempotent_within_one_rtt():
    state = fresh_state()
    buffer = records({seq: -10.0 for seq in range(1, 6)})
    sack = tp.build_sack(tp.ReceivedRuns({1, 2, 5}))
    first = tp.on_sack(state, sack, buffer, now=0.0)
    assert first == [3, 4]
    buffer[3][0] = buffer[4][0] = 0.0  # retransmitted right away
    again = tp.on_sack(state, sack, buffer, now=0.05)  # within the RTT estimate
    assert again == []
    later = tp.on_sack(state, sack, buffer, now=0.2)  # past the guard
    assert later == [3, 4]


def test_on_sack_matches_enumeration_oracle_for_short_streams():
    state = fresh_state()
    for n in range(1, 7):
        for pattern in range(2 ** n):
            received = {seq for seq in range(1, n + 1) if not (pattern >> (seq - 1)) & 1}
            buffer = records({seq: -10.0 for seq in range(1, n + 1) if seq not in received})
            batch = tp.on_sack(state, tp.build_sack(tp.ReceivedRuns(received)), dict(buffer), now=0.0)
            assert batch == sack_holes_oracle(received)


def test_overdue_tail_covers_losses_past_the_highest_ack():
    state = fresh_state()
    buffer = records({8: -10.0, 9: -10.0, 10: 0.0})
    sack = tp.build_sack(tp.ReceivedRuns({1, 2, 3, 4, 5, 6, 7}))
    assert tp.on_sack(state, sack, buffer, now=0.0) == []
    assert tp.overdue_tail(state, sack, buffer, now=0.0, all_sent=False) == []
    assert tp.overdue_tail(state, sack, buffer, now=0.0, all_sent=True) == [8, 9]
    assert tp.overdue_tail(state, sack, buffer, now=0.2, all_sent=True) == [8, 9, 10]


def test_received_runs_and_sack_match_the_set_based_oracles():
    rng = random.Random(9)
    state = fresh_state()
    for _ in range(300):
        received = {seq for seq in range(1, 41) if rng.random() < rng.random()}
        arrivals = list(received) + rng.choices(sorted(received), k=len(received) // 3)
        rng.shuffle(arrivals)
        runs = tp.ReceivedRuns()
        seen: set[int] = set()
        for seq in arrivals:
            assert runs.add(seq) is (seq not in seen)
            seen.add(seq)
        assert len(runs) == len(received)
        sack = tp.build_sack(runs)
        assert sack == build_sack_oracle(received)
        buffer = records({seq: -rng.uniform(0.0, 0.2) for seq in range(1, 46)
                          if rng.random() < 0.5})
        expected_buffer = dict(buffer)
        expected = on_sack_oracle(state, sack, expected_buffer, now=0.0)
        assert tp.on_sack(state, sack, buffer, now=0.0) == expected
        assert buffer == expected_buffer


def test_sack_is_a_snapshot_of_the_runs():
    runs = tp.ReceivedRuns({1, 2, 5, 9})
    sack = tp.build_sack(runs)
    for seq in (3, 4, 6, 7, 8, 10, 12):
        runs.add(seq)
    assert sack == tp.SackInfo(2, [(5, 5), (9, 9)])
    assert tp.build_sack(runs) == tp.SackInfo(10, [(12, 12)])


def test_transfer_never_rebuilds_the_received_set(monkeypatch):
    """SACK work stays per block: a run that expands a SACK into its full
    received set on any feedback fails here."""
    def expand(self):
        raise AssertionError("received_set() called during a run")

    monkeypatch.setattr(tp.SackInfo, "received_set", expand)
    cfg = parse_scenario(os.path.join(SCENARIO_DIR, "transport_lossy.cfg"))
    assert run_experiment(cfg, 1).aggregate_throughput == 1000


def test_sender_keeps_pid_and_gen_time_only_for_unacked_sequences():
    """retx_buffer holds one record per unacked sequence, so the sender's memory
    follows the packets in flight, not the transfer; with SACK off it keeps none."""
    cfg = parse_scenario(os.path.join(SCENARIO_DIR, "transport_lossy.cfg"))
    harness = build_transport(cfg, 1)
    sender = harness.sender
    widest = 0
    for piece in range(1, 41):
        harness.sim.run_until(cfg.sim.horizon * piece / 40)
        widest = max(widest, len(sender.retx_buffer))
    assert 0 < widest < cfg.transport.goal_packets
    cfg.switches.sack = False
    harness = build_transport(cfg, 1)
    harness.sim.run_until(cfg.sim.horizon)
    assert harness.sender.next_new > cfg.transport.goal_packets
    assert not harness.sender.retx_buffer


# -- sim-level contracts ------------------------------------------------------------------

def transport_cfg(**overrides):
    cfg = ScenarioConfig()
    cfg.scenario.mode = "transport"
    cfg.topology.ca_model = "fixed"
    cfg.topology.ca_value = 0.001
    cfg.transport.goal_packets = 200
    cfg.sim.horizon = 30.0
    for key, value in overrides.items():
        section, _, name = key.partition("__")
        setattr(getattr(cfg, section), name, value)
    return cfg


def test_startup_sends_no_data_before_first_feedback():
    cfg = transport_cfg()
    harness = build_transport(cfg, seed=11)
    harness.sim.run_until(cfg.sim.horizon)
    trace = list(harness.sim.trace)
    first_data = next(r[0] for r in trace if r[2] == "generate")
    feedback_arrivals = [r[0] for r in trace
                         if r[2] == "conn" and "r_f=" in r[7] and "r_f=0.0" not in r[7]]
    assert feedback_arrivals, "no feedback ever applied"
    assert first_data >= feedback_arrivals[0]
    # probing resolves within one feedback period of the connection start
    assert feedback_arrivals[0] <= cfg.transport.t_fdbk + 0.05


def test_first_feedback_arrives_one_round_trip_after_the_probe():
    """The probe response comes back exactly one control-plane RTT after start."""
    cfg = transport_cfg()
    harness = build_transport(cfg, seed=21)
    harness.sim.run_until(5.0)
    records = list(harness.sim.trace)
    # control copies before any data: probe out (3 hops) + feedback back (3 hops)
    ctl_hops = [(r[0], r[6]) for r in records[:40]
                if r[2] == "send" and r[6] is not None and r[0] < 0.4]
    first_fb = next(r[0] for r in records
                    if r[2] == "conn" and "r_f=" in r[7] and "r_f=0.0" not in r[7])
    rtt = sum(delay for _, delay in ctl_hops[:6])
    assert first_fb == pytest.approx(rtt, rel=1e-9)
    assert rtt < first_fb + cfg.transport.t_fdbk  # within [RTT, RTT + t_fdbk]


def test_hop_count_counts_the_relays_between_the_sub_sinks():
    """m counts the intermediate nodes a probe crosses, not the links:
    src_ss -> r1 -> r2 -> dst_ss is three links and two relays."""
    cfg = parse_scenario(os.path.join(SCENARIO_DIR, "transport_lossy.cfg"))
    harness = build_transport(cfg, 1)
    harness.sim.run_until(5.0)
    assert list(harness.runtime.topo.nodes) == ["src_ss", "r1", "r2", "dst_ss"]
    assert harness.sender.state.m == 2


def test_rate_never_below_floor_while_data_remains():
    cfg = transport_cfg(transport__goal_packets=400, transport__delta_e2a=10.0)
    harness = build_transport(cfg, seed=3)
    harness.sim.run_until(cfg.sim.horizon)
    rows = [r[7] for r in harness.sim.trace if r[2] == "conn" and r[7]]
    for info in rows:
        fields = decode_info(info)
        if fields["phase"] in ("Increase", "Decrease", "Hold"):
            assert float(fields["r_c"]) >= float(fields["r_min"]) - 1e-9


def test_feedback_blackout_enters_probe_and_quarters_rate():
    cfg = transport_cfg(sim__horizon=20.0)
    harness = build_transport(cfg, seed=5)
    # From 3.0 on, r1 silences the reverse path: feedback vanishes without
    # routing changes. The forward data direction is blackholed too, so the
    # connection stalls entirely.
    harness.runtime.inject_fault("r1", at=3.0, mode="drop-all")
    sim = harness.sim
    sim.run_until(3.0)  # steady state reached
    r_c0 = harness.sender.state.r_c
    sim.run_until(3.0 + 2.5 * cfg.transport.t_fdbk)
    state = harness.sender.state
    assert state.missed_feedback == 2
    assert state.phase is tp.Phase.PROBE
    assert state.r_c == pytest.approx(max(r_c0 / 4.0, state.r_min))
    probes_after = [r for r in sim.trace
                    if r[2] == "send" and r[1] == "src_ss" and r[0] > 3.0]
    assert probes_after  # probing resumed towards the receiver


def test_data_sends_are_paced_at_exactly_the_current_rate():
    """Between feedbacks the inter-send gap is exactly one over the rate in force."""
    cfg = transport_cfg(transport__goal_packets=300, sim__horizon=30.0)
    harness = build_transport(cfg, seed=6)
    harness.sim.run_until(cfg.sim.horizon)
    records = list(harness.sim.trace)
    generated = {r[3] for r in records if r[2] == "generate"}
    sends = [r[0] for r in records
             if r[2] == "send" and r[1] == "src_ss" and r[3] in generated]
    rate_spans = []  # (start, r_c) at each sender state log
    for r in records:
        if r[2] == "conn" and r[7]:
            fields = decode_info(r[7])
            rate_spans.append((r[0], float(fields["r_c"])))
    assert len(sends) == 300
    checked = 0
    for a, b in zip(sends, sends[1:]):
        spans = [rc for t, rc in rate_spans if t <= a]
        rc = spans[-1]
        changes_between = [t for t, _ in rate_spans if a < t <= b]
        if changes_between or rc <= 0:
            continue
        assert b - a == pytest.approx(1.0 / rc, rel=1e-9)
        checked += 1
    assert checked > 200  # most gaps fall inside a constant-rate span


def test_receiver_periodic_feedback_cadence():
    cfg = transport_cfg(transport__goal_packets=50, sim__horizon=10.0)
    harness = build_transport(cfg, seed=9)
    harness.sim.run_until(cfg.sim.horizon)
    sends = [r[0] for r in harness.sim.trace
             if r[1] == "dst_ss" and r[2] == "send"]
    assert len(sends) >= 18  # one per t_fdbk=0.5 over 10 s, plus the probe response
    gaps = [b - a for a, b in zip(sends, sends[1:])]
    assert max(gaps) <= cfg.transport.t_fdbk + 1e-6


# -- sender branches a normal transfer rarely takes ------------------------------------------

def lossy_sender_with_retransmissions_queued():
    """The lossy transfer run until the sender has sequences waiting in retx_queue."""
    cfg = parse_scenario(os.path.join(SCENARIO_DIR, "transport_lossy.cfg"))
    harness = build_transport(cfg, 1)
    sender = harness.sender
    while not sender.retx_queue:
        harness.sim.run_until(harness.sim.now + 0.05)
        assert harness.sim.now < cfg.sim.horizon
    return harness, sender


def feedback_packet(sender, fb, sack):
    return Packet(pid=0, flow="ctl", src=sender.peer, dst=sender.node,
                  gen_time=fb.issued_at, payload=(fb, sack))


def test_stale_feedback_leaves_the_sender_unchanged():
    """A feedback issued no later than the last one applied changes neither the
    rate state nor the retransmission queue, and logs no conn row, even when
    its SACK would ack every sequence sent."""
    harness, sender = lossy_sender_with_retransmissions_queued()
    sim = harness.sim
    state = copy.copy(sender.state)
    queue, rows = list(sender.retx_queue), len(sim.trace)
    buffered = copy.deepcopy(sender.retx_buffer)  # the records by value, not the same lists
    stale = tp.RateFeedback(r_f=state.r_c * 2, hop_count=1, issued_at=state.last_feedback_issued)
    sender.on_control(feedback_packet(sender, stale, tp.SackInfo(sender.next_new - 1, [])),
                      sim.now)
    assert sender.state == state
    assert list(sender.retx_queue) == queue and sender.retx_buffer == buffered
    assert len(sim.trace) == rows


def test_a_sequence_acked_while_queued_is_not_retransmitted():
    """A SACK that acks a sequence waiting in retx_queue leaves it queued, and the
    next pace tick drops it without a send or a retransmission count."""
    harness, sender = lossy_sender_with_retransmissions_queued()
    sim = harness.sim
    seq = sender.retx_queue[0]
    fresh = tp.RateFeedback(r_f=sender.state.r_c, hop_count=sender.state.m, issued_at=sim.now)
    sender.on_control(feedback_packet(sender, fresh, tp.SackInfo(sender.next_new - 1, [])),
                      sim.now)
    assert sender.retx_queue[0] == seq and seq not in sender.retx_buffer
    retx_count, rows = sender.retx_count, len(sim.trace)
    sender.on_event(sim, "pace")
    assert seq not in sender.retx_queue
    assert sender.retx_count == retx_count
    assert len(sim.trace) == rows


def test_a_queued_sequence_is_not_queued_again():
    """A fresh feedback whose SACK still reports the head of retx_queue as a
    hole, past the RTT guard, leaves it in the queue once."""
    harness, sender = lossy_sender_with_retransmissions_queued()
    sim = harness.sim
    seq = sender.retx_queue[0]
    fresh = tp.RateFeedback(r_f=sender.state.r_c, hop_count=sender.state.m, issued_at=sim.now)
    sack = tp.SackInfo(seq - 1, [(seq + 1, seq + 1)])
    later = sim.now + sender.state.cfg.rtt_estimate  # past the guard for any send so far
    sender.on_control(feedback_packet(sender, fresh, sack), later)
    assert sender.state.last_feedback_issued == sim.now  # the feedback was applied
    assert seq in sender.retx_buffer and list(sender.retx_queue).count(seq) == 1


def test_a_fixed_sender_with_no_goal_sends_nothing():
    cfg = transport_cfg(transport__sender="fixed", transport__goal_packets=0, sim__horizon=5.0)
    report, trace, preamble = run_traced(cfg, 1)  # audits the trace
    assert not [r for r in trace if r[2] == "generate"]
    assert audit_trace(trace)["generated"] == 0
    assert replay_text(trace.serialize(preamble)) == report
