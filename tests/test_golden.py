"""Golden trace hashes: the refactoring oracle.

Each shipped scenario at seed 1 must serialize to the same bytes as before a
change that is meant to keep behaviour, and its replayed report must equal the
live one. A change that alters a hash on purpose updates it here and says why.
The run is shared with `test_trace_text.py` through `shipped.shipped_run`.
"""

import pytest

from shipped import SHIPPED, shipped_run

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


def test_every_shipped_scenario_has_a_golden_hash():
    assert sorted(GOLDEN_SHA256) == sorted(SHIPPED)
