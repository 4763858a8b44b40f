"""Buffer admission, the predictive congestion rule, CN marking."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import EagerRollBuffer
from rrrt.congestion import DROPPED, ENQUEUED, NodeBuffer, congestion_flag, mark_packet
from rrrt.errors import InvariantViolation
from rrrt.kernel import Simulator
from rrrt.packet import Packet
from util import chain_network, data_packet


def make_packet(cn=False):
    return Packet(pid=1, flow="data", src="a", dst="b", gen_time=0.0, cn=cn)


def test_enqueue_boundary_fill():
    buf = NodeBuffer(capacity=100)
    buf.occupancy = 99
    assert buf.try_enqueue(0.01) == ENQUEUED
    assert buf.occupancy == 100


def test_enqueue_overflow_counts_drop():
    buf = NodeBuffer(capacity=100)
    buf.occupancy = 100
    assert buf.try_enqueue(0.01) == DROPPED
    assert buf.occupancy == 100


def test_zero_capacity_drops_everything():
    buf = NodeBuffer(capacity=0)
    for i in range(5):
        assert buf.try_enqueue(0.01 * i) == DROPPED


@pytest.mark.parametrize("capacity,b_k,b_prev,expected", [
    (100, 60, 40, False),   # 60 + 20 = 80 <= 100
    (100, 80, 50, True),    # 80 + 30 = 110 > 100
    (100, 80, 90, False),   # draining: 80 - 10 = 70 <= 100
])
def test_congestion_flag_rule(capacity, b_k, b_prev, expected):
    buf = NodeBuffer(capacity=capacity)
    buf.occupancy = b_k
    buf.prev_occupancy = b_prev
    assert congestion_flag(buf) is expected


def test_mark_packet_is_monotone_or():
    assert mark_packet(make_packet(cn=False), True).cn is True
    assert mark_packet(make_packet(cn=True), False).cn is True
    assert mark_packet(make_packet(cn=False), False).cn is False


def test_epoch_sampling_raises_flag_during_growth():
    buf = NodeBuffer(capacity=100, epoch_len=0.1)
    for i in range(60):  # fill 60 packets inside the first epoch
        buf.try_enqueue(0.001 * i)
    assert buf.flag(0.05) is False  # no boundary crossed yet
    # boundary at 0.1: growth 0 -> 60 predicts 120 > 100
    assert buf.flag(0.11) is True
    # next boundary with no change: growth 0, 60 <= 100
    assert buf.flag(0.21) is False


def test_epoch_sampling_quiet_gap_shortcut():
    buf = NodeBuffer(capacity=10, epoch_len=0.1)
    for i in range(8):
        buf.try_enqueue(0.001 * i)
    assert buf.flag(0.15) is True    # 8 + 8 > 10
    assert buf.flag(5.0) is False    # long quiet gap: growth gone
    assert buf.prev_occupancy == 8


def test_release_below_zero_is_invariant_violation():
    buf = NodeBuffer(capacity=10)
    with pytest.raises(InvariantViolation):
        buf.release(0.0)


def test_occupancy_never_exceeds_capacity_random_walk():
    rng = random.Random(7)
    buf = NodeBuffer(capacity=13, epoch_len=0.1)
    now = 0.0
    drops = 0
    for _ in range(5000):
        now += rng.random() * 0.01
        if rng.random() < 0.55:
            full = buf.occupancy == 13
            if buf.try_enqueue(now) == DROPPED:
                assert full  # overflow is the only refusal
                drops += 1
            else:
                assert buf.cn is buf.flag(now)  # admission already rolled to `now`
        elif buf.occupancy > 0:
            buf.release(now)
        assert 0 <= buf.occupancy <= 13
    assert drops > 0


def test_settle_releases_a_departure_tied_with_the_event_only_if_queued_before_it():
    buf = NodeBuffer(capacity=5)
    buf.try_enqueue(0.0)
    assert buf.due == []  # every buffer owns its FIFO from construction
    buf.due.append((0.5, 7))  # departs at 0.5 under ordinal 7
    buf.settle(0.5, 6)  # the event at 0.5 being handled was queued first
    assert buf.occupancy == 1 and buf.due == [(0.5, 7)]
    buf.settle(0.5, 8)
    assert buf.occupancy == 0 and buf.due == []


def test_settle_rolls_each_epoch_boundary_at_its_own_departure():
    buf = NodeBuffer(capacity=10, epoch_len=0.1)
    for i in range(8):
        buf.try_enqueue(0.001 * i)
    buf.due = [(0.15, 9), (0.25, 10), (0.26, 11), (0.35, 12), (0.45, 13)]
    buf.settle(0.36, 1)  # crosses the boundaries at 0.1, 0.2 and 0.3
    # 0.1 sees 8 after growth 8 (flag), 0.2 sees 7, 0.3 sees 5; one roll at
    # 0.36 would have seen 8 at every boundary.
    assert (buf.occupancy, buf.prev_occupancy, buf.cn) == (4, 5, False)
    assert buf.due == [(0.45, 13)]
    twin = NodeBuffer(capacity=10, epoch_len=0.1)
    for i in range(8):
        twin.try_enqueue(0.001 * i)
    for time in (0.15, 0.25, 0.26, 0.35):
        twin.release(time)
    assert (twin.occupancy, twin.prev_occupancy, twin.cn) == (4, 5, False)


def buffer_states(seed, dep_events):
    """A buffer's state at each admission of a seeded run, and at its end.

    Admissions and departures fall on a grid of 1/32 s, exact in binary, and
    epochs are 1/8 s, so departures tie with admissions and with epoch
    boundaries. Some admissions queue the next, after departures already
    queued at the same time. With `dep_events` each departure is a `dep`
    event that calls `release`; without, its ordinal is reserved and `settle`
    releases it."""
    rng = random.Random(seed)
    sim = Simulator(seed)
    buf = NodeBuffer(capacity=4, epoch_len=0.125)
    states = []

    def admit(sim, target, chained):
        now = sim.now
        if not dep_events:
            buf.settle(now, sim.ordinal)
        if buf.try_enqueue(now) == ENQUEUED:
            buf.busy_until = max(buf.busy_until, now) + rng.randint(1, 3) / 32
            if dep_events:
                sim.schedule(buf.busy_until, "dep", target)
            else:
                sim._ordinal += 1
                buf.due.append((buf.busy_until, sim._ordinal))
        states.append((now, buf.occupancy, buf.prev_occupancy, buf.cn))
        if chained:
            sim.schedule(now + rng.randint(0, 2) / 32, "adm", target, rng.random() < 0.8)

    sim.register("adm", admit)
    sim.register("dep", lambda sim, target, payload: buf.release(sim.now))
    for _ in range(40):
        sim.schedule(rng.randint(0, 64) / 32, "adm", "n", rng.random() < 0.5)
    sim.run_until(4.0)
    buf.settle(sim.now, sim.ordinal)
    return states + [(buf.occupancy, buf.prev_occupancy, buf.cn, buf.flag(sim.now))]


@pytest.mark.parametrize("seed", range(8))
def test_settle_matches_one_release_event_per_departure(seed):
    states = buffer_states(seed, dep_events=True)
    assert len(states) > 40 and any(state[1] == 4 for state in states[:-1])
    assert buffer_states(seed, dep_events=False) == states


# (clock step in 1/32 s, call, service time in 1/32 s for a queued copy or
# the ordinal a settle is handled under)
BUFFER_STEPS = st.lists(st.tuples(
    st.integers(0, 6), st.sampled_from(["admit", "queue", "settle", "release", "flag"]),
    st.integers(0, 12)), max_size=80)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.sampled_from([0.1, 0.125]), BUFFER_STEPS)
def test_a_buffer_that_skips_in_epoch_rolls_matches_one_that_always_rolls(
        capacity, epoch_len, steps):
    """Admissions, queued departures, settles, releases and flag reads at
    times on a 1/32 s grid, so they tie with each other and, at 1/8 s epochs,
    with the boundaries. The buffer must stay equal to the reference that
    calls `_roll` on every call."""
    buf, ref = NodeBuffer(capacity, epoch_len), EagerRollBuffer(capacity, epoch_len)
    now, ordinal, departs = 0.0, 0, 0.0
    for step, call, arg in steps:
        now += step / 32
        if call in ("admit", "queue"):
            ordinal += 1
            admitted = buf.try_enqueue(now)
            assert admitted == ref.try_enqueue(now)
            if call == "queue" and admitted == ENQUEUED:
                departs = max(departs, now) + arg / 32
                buf.due.append((departs, ordinal))
                ref.due = list(buf.due)
        elif call == "settle":
            buf.settle(now, arg)
            ref.settle(now, arg)
        elif call == "release":
            if buf.occupancy > len(buf.due):  # a slot no queued departure holds
                buf.release(now)
                ref.release(now)
        else:
            assert buf.flag(now) is ref.flag(now)
        assert ((buf.occupancy, buf.prev_occupancy, buf.cn, buf._epoch, buf.due)
                == (ref.occupancy, ref.prev_occupancy, ref.cn, ref._epoch, ref.due))


def test_a_forwarded_packet_takes_the_flag_of_its_admission_epoch():
    """The first admission of an epoch rolls the flag before the packet is marked."""
    sim, runtime, names, _ = chain_network(capacity=50)
    buf = runtime.buffers[names[0]]
    buf.occupancy = 30  # grew by 30 in epoch 0: 30 + 30 > 50 predicts overflow
    sim.now = 0.15  # the node's first event in epoch 1
    pkt = data_packet(sim, names[0], names[-1])
    runtime.forward_data(names[0], pkt)
    assert pkt.cn is True and buf.flag(sim.now) is True


class Generator:
    """Source app: one packet to `dst` per `gen` timer, re-armed every `period`
    while the clock is before `stop`."""

    def __init__(self, runtime, src, dst, period, stop=float("inf")):
        self.runtime = runtime
        self.src = src
        self.dst = dst
        self.period = period
        self.stop = stop
        runtime.apps[src] = self
        runtime.sim.schedule(0.0, "app", src, "gen")

    def on_event(self, sim, tag):
        pkt = data_packet(sim, self.src, self.dst)
        sim.trace.log(sim.now, self.src, "generate", pkt.pid)
        self.runtime.forward_data(self.src, pkt)
        if sim.now < self.stop:
            sim.schedule(sim.now + self.period, "app", self.src, "gen")


def test_no_drops_or_flags_below_service_rate():
    """Offered load under every link's rate, fixed CA: clean run, CN never set."""
    sim, runtime, names, catcher = chain_network(services=(100.0, 100.0), capacity=50)
    Generator(runtime, names[0], names[-1], 0.05)  # 20 packets/s vs 100/s links
    sim.run_until(30.0)

    assert not [r for r in sim.trace if r[2] == "drop"]  # overflow included
    assert all(cn is False for _, _, cn in catcher.got)
    assert len(catcher.got) == 600  # one per 0.05 s; the t=30 packet is still in flight


def test_cn_bit_reaches_sink_under_overload():
    """Offered load far above the middle link: flag fires and marks are delivered."""
    sim, runtime, names, catcher = chain_network(services=(2000.0, 40.0), capacity=20)
    Generator(runtime, names[0], names[-1], 0.005, stop=4.0)  # 200/s into a 40/s link
    sim.run_until(10.0)

    assert any(r[2] == "drop" and r[5] == "overflow" for r in sim.trace)
    assert any(cn for _, _, cn in catcher.got)
