"""Golden trace hashes: the refactoring oracle.

Each shipped scenario at seed 1 must serialize to the same bytes as before a
change that is meant to keep behaviour, and its replayed report must equal the
live one. A change that alters a hash on purpose updates it here and says why.
The run is shared with `test_trace_text.py` through `shipped.shipped_run`.

The same runs pin the bytes of every output of `rrrt run --seed 1 --out`:
`trace.csv` carries the golden hash, and `summary.json`, `intervals.csv`,
`connection.csv` and what the command prints are pinned beside it
(`util.run_outputs_sha256` runs the command on the shared run).

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


# name -> sha256 of each other output of `rrrt run --seed 1 --out` and of its stdout
OUTPUT_SHA256 = {
    "field_baseline": {
        "summary.json": "6ede22e8c8719cdc8f6c602aba63d0628eab6076dc8703cf1d0ecc3f798e1a34",
        "intervals.csv": "6f60ce690f16b24435eefa590560da82baeacaea9f2e8781c54c32716352c784",
        "connection.csv": "fafb5cd45e873ed63dde485ba0feb073edf3f8f1dd4141ad7779e1a9a17ff246",
        "stdout": "2f92e7d055c2bca867c036c648aa3d0d6ef4bea904e3670124fd69139d594a8f",
    },
    "field_burst": {
        "summary.json": "46c4f84c6df37dcfed96cc0a19e4ef10ea21908e562d7838a31e9591726d73fc",
        "intervals.csv": "14a92da8d41c59d3d0f537688d63b8e7dcf49c4b182984d5d6ff95ed87514fd5",
        "connection.csv": "549153cea29282d808835ced0023c08164e8af5571220bf4b33127223944970f",
        "stdout": "17ee9da6e37055a09655abcee0b4736ed751347ce051781cb91a8e093d845666",
    },
    "field_congested": {
        "summary.json": "c2e1abbf4934f6b8f014fd149c36f7709035a08b2b0fd135c6bae775c65e8e00",
        "intervals.csv": "4e24608004f5445391e73578581e32d090632c2ad637ec706262f353630578dc",
        "connection.csv": "8c22260a1f61be0cd7626ef5e2a85ec188d2f56d69e45e0c4ce64c9f9b5ea8d8",
        "stdout": "d634dac58ae2812b89f8c8166d78fe13a11099a44e2332607a271d782cf45550",
    },
    "transport_comparison": {
        "summary.json": "579ff7f03dfa855a995624ab32362e0cfd62734496001dc9e93b0e1b02709524",
        "intervals.csv": "a12b39f089718b583451192157577c21ab7b942016bacb78b745becca5060a2d",
        "connection.csv": "dae93a0152759c3268a9f98e4c55616c6984c76c9bfe1697d26131d32a08a830",
        "stdout": "bd207c07ef881e24e554fc1b01b6d81a46dfa61fb6964542221627d00c032b8b",
    },
    "transport_lossy": {
        "summary.json": "7430f8694e932d8d1ac1380c47fa6449281707cc716651a448d75786b6bc1b4f",
        "intervals.csv": "200013bef853690805a0c5738e64355349e1477a63ab946b624b2a0ddae10e07",
        "connection.csv": "f179cd4af144f607d3b8da8497005913536455073cf229570f6d6894e533ef1d",
        "stdout": "cf4a3fa681a4124c08cda8720ca97c4336f9f753e04ee94d920d5fdb459b4bb9",
    },
}


@pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
def test_shipped_scenario_run_writes_and_prints_the_same_bytes(name):
    assert shipped_run(name).outputs == {"trace.csv": GOLDEN_SHA256[name], **OUTPUT_SHA256[name]}


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
    assert sorted(GOLDEN_SHA256) == sorted(OUTPUT_SHA256) == sorted(SHIPPED)


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
