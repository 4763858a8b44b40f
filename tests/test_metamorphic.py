"""Metamorphic relations: two runs whose traces must relate in a known way,
checked on every shipped scenario and on one run with a fault, with no stored
answer.

- Horizon prefix: a run to `T` writes, apart from its `pending` rows, exactly
  the rows at or before `T` of the same run to `2T`. Events at `T` itself (an
  interval that closes at `T`, say) run in both.
- Energy scaling: energy enters no decision, so multiplying `e_tx` and `e_rx`
  by 4 leaves every row as it was and multiplies `total_energy` by exactly 4
  (a power of two, so no float rounds differently); the rest of the report is
  equal.
"""

import dataclasses
import functools

import pytest

from rrrt.metrics import audit_trace, reduce_trace
from rrrt.runner import build_field, build_transport, trace_preamble
from shipped import SHIPPED, shipped

T = 2.0
# (scenario, pre-run fault as (target, at, mode) or None)
CASES = [(name, None) for name in SHIPPED] + [("field_congested", ("relay", 1.5, "crash"))]


@functools.cache
def run(name, fault, horizon, energy_scale=1.0):
    """(report, rows) of `name` at seed 1 to `horizon`, with `fault` set
    before the run and both energy costs times `energy_scale`."""
    cfg = shipped(name)
    cfg.sim.horizon = horizon
    cfg.energy.e_tx *= energy_scale
    cfg.energy.e_rx *= energy_scale
    harness = (build_field if cfg.scenario.mode == "field" else build_transport)(cfg, 1)
    if fault is not None:
        harness.runtime.inject_fault(*fault)
    harness.sim.run_until(horizon)
    harness.finalize()
    trace = harness.sim.trace
    audit_trace(trace)
    return reduce_trace(trace, trace_preamble(cfg, 1)), tuple(trace)


@pytest.mark.parametrize("name, fault", CASES, ids=repr)
def test_a_run_to_t_is_the_prefix_of_a_run_to_2t(name, fault):
    _, short = run(name, fault, T)
    _, long = run(name, fault, 2 * T)
    prefix = [row for row in long if row[0] <= T]
    assert [row for row in short if row[2] != "pending"] == prefix
    assert any(row[0] == T for row in prefix)  # rows at T itself are compared too
    assert len(prefix) < len(long)


@pytest.mark.parametrize("name, fault", CASES, ids=repr)
def test_four_times_the_energy_costs_changes_only_total_energy(name, fault):
    report, rows = run(name, fault, 2 * T)
    scaled, scaled_rows = run(name, fault, 2 * T, energy_scale=4.0)
    assert scaled_rows == rows
    assert report.total_energy > 0
    assert scaled.total_energy == 4 * report.total_energy
    assert dataclasses.replace(scaled, total_energy=report.total_energy) == report
