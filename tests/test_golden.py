"""Golden trace hashes: the refactoring oracle.

Each shipped scenario at seed 1 must serialize to the same bytes as before a
change that is meant to keep behaviour, and its replayed report must equal the
live one. A change that alters a hash on purpose updates it here and says why.
The run is shared with `test_trace_text.py` through `shipped.shipped_run`.

One more run is pinned: field_congested with a short `t_sa`, where packets
arrive late.

The handler calls per event kind are pinned too, on short field runs: an
app timer that does nothing when it fires, or that re-arms on a crashed
node, moves them even where it leaves no trace row behind. A source's `gen`
timer superseded by a broadcast's re-dither is such a timer: 729 of
field_burst's 4992 `app` calls are superseded timers. A data copy fires a
`dep` event only when it is lost or meets a fault at its departure, and then
instead of its `arr`; any other departure is no event (see `nodes.py`).
"""

import collections
import os
import subprocess
import sys

import pytest

from rrrt.kernel import Simulator
from rrrt.runner import build_field, run_traced
from shipped import SHIPPED, sha256, shipped, shipped_run, trace_sha256

GOLDEN_SHA256 = {
    "field_baseline": "d3bfba28c7c71112f01f692178733488eb27d92230f21d4729cd46238463594f",
    "field_burst": "067ebd3231f6c76492a24cfb61d0d042e70b7a22454bc2e1757df55f242711f0",
    "field_congested": "1faf114ffecde893c4fac1cd3c023bcb93a0a1bc4ca89bbd2b0fa379d250c6a5",
    "transport_lossy": "4af98910d61ea832a65da5709944cf3b0f3c87e40bf8427ecb94142ef783e89c",
    "transport_comparison": "ce8f826baa1fc0ff35744b2af9370208f9460210a473eb606da500e0e2cf65b7",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_shipped_scenario_trace_hash_and_replay(name):
    run = shipped_run(name)
    assert run.text_sha256 == GOLDEN_SHA256[name]
    assert run.streamed == run.live


def test_the_trace_does_not_depend_on_the_hash_seed():
    """Each interpreter salts `hash()` with its own seed, and a run must not
    read it: two interpreters with different seeds write this process's trace."""
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(tests, "..", "src"), tests])
    code = "from shipped import trace_sha256; print(trace_sha256('transport_lossy', 2.0))"
    digests = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                              ).stdout.strip()
               for seed in ("0", "12345")}
    assert digests == {trace_sha256("transport_lossy", 2.0)}


def test_every_shipped_scenario_has_a_golden_hash():
    assert sorted(GOLDEN_SHA256) == sorted(SHIPPED)


# field_congested at seed 1 with t_sa 0.2, to 30 s: about 2,000 data packets
# arrive later than t_sa, and 3 intervals carry a CN mark.
LATE_DELIVERIES_SHA256 = "325bc499313582c6e57ace92207ab9946a46081b74643b68c26f5b3a4805ad35"


def test_a_run_with_late_deliveries_keeps_its_trace():
    """No shipped scenario delivers a packet later than t_sa at seed 1, so
    only this pin covers the rule that an interval takes a CN mark from
    on-time packets alone (`controller.record_packet_arrival`)."""
    cfg = shipped("field_congested")
    cfg.controller.t_sa = 0.2
    cfg.sim.horizon = 30.0
    _, trace, preamble = run_traced(cfg, 1)
    late = [row for row in trace
            if row[2] == "deliver" and row[7] == "data" and row[0] - row[6] > 0.2]
    assert len(late) > 1000
    assert sha256(trace.serialize(preamble)) == LATE_DELIVERIES_SHA256


# (scenario, node fault or None) -> handler calls per event kind at seed 1 over 10 s
EVENT_COUNTS = {
    ("field_burst", None): {"app": 4992, "arr": 8004, "bcast_arr": 747},
    # the relay's crash meets the 11 copies on its FIFO at 2.0
    ("field_congested", ("relay", 2.0, "crash")):
        {"app": 749, "arr": 321, "bcast_arr": 19, "dep": 11},
    ("field_congested", ("sink", 1.0, "crash")): {"app": 1081, "arr": 1164},
}


@pytest.mark.parametrize("name, fault", sorted(EVENT_COUNTS, key=repr), ids=repr)
def test_handler_calls_per_event_kind(name, fault, monkeypatch):
    calls = collections.Counter()
    register = Simulator.register

    def counting_register(sim, kind, handler):
        def counted(sim, target, payload):
            calls[kind] += 1
            handler(sim, target, payload)
        register(sim, kind, counted)

    monkeypatch.setattr(Simulator, "register", counting_register)
    cfg = shipped(name)
    cfg.sim.horizon = 10.0
    harness = build_field(cfg, 1)
    if fault is not None:
        harness.runtime.inject_fault(*fault)
    harness.sim.run_until(cfg.sim.horizon)
    assert dict(calls) == EVENT_COUNTS[name, fault]
