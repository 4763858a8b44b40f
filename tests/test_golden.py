"""Golden trace hashes: the refactoring oracle.

Each shipped scenario at seed 1 must serialize to the same bytes as before a
change that is meant to keep behaviour, and its replayed report must equal the
live one. A change that alters a hash on purpose updates it here and says why.
The run is shared with `test_trace_text.py` through `shipped.shipped_run`.

The handler calls per event kind are pinned too, on short field runs: an
app timer that does nothing when it fires, or that re-arms on a crashed
node, moves them even where it leaves no trace row behind. A source's `gen`
timer superseded by a broadcast's re-dither is such a timer: 729 of
field_burst's 4992 `app` calls are superseded timers. A data copy fires a
`dep` event only on the `dep` path, which a fault run takes and
`util.force_dep_path` forces; without a fault or a loss its departure is no
event (see `nodes.py`).
"""

import collections
import os
import subprocess
import sys

import pytest

from rrrt.kernel import Simulator
from rrrt.runner import build_field
from shipped import SHIPPED, shipped, shipped_run, trace_sha256
from util import force_dep_path

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


DEP_PATH = "dep path"  # no fault that fires, but every copy on the `dep` path
# (scenario, node fault, DEP_PATH or None) -> handler calls per event kind at seed 1 over 10 s
EVENT_COUNTS = {
    ("field_burst", None): {"app": 4992, "arr": 8004, "bcast_arr": 747},
    ("field_burst", DEP_PATH): {"app": 4992, "arr": 8004, "bcast_arr": 747, "dep": 8004},
    ("field_congested", ("sink", 1.0, "crash")): {"app": 1081, "arr": 1164, "dep": 1164},
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
    if fault == DEP_PATH:
        force_dep_path(harness.runtime, cfg.sim.horizon)
    elif fault is not None:
        harness.runtime.inject_fault(*fault)
    harness.sim.run_until(cfg.sim.horizon)
    assert dict(calls) == EVENT_COUNTS[name, fault]
