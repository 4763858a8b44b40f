"""Scenario parsing, validation, round-tripping and sweeps."""

import os

import pytest

from rrrt.errors import ScenarioInvalid, UnknownParameter
from rrrt.runner import sweep, sweep_csv
from rrrt.scenario import (ScenarioConfig, SweepSpec, get_param, parse_scenario,
                           parse_scenario_text, scenario_hash, serialize_scenario,
                           set_param, validate_scenario)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def test_defaults_are_valid():
    assert validate_scenario(ScenarioConfig()) == []


def test_evaluation_scale_scenario_file_parses():
    cfg = parse_scenario(os.path.join(SCENARIO_DIR, "field_baseline.cfg"))
    assert cfg.topology.n_sources == 81
    assert cfg.controller.t_sa == 1.0
    assert cfg.controller.beta == 0.05
    assert cfg.topology.event_radius == 45.0
    assert cfg.sim.repetitions == 10


def test_feedback_period_must_exceed_rtt():
    cfg = ScenarioConfig()
    cfg.transport.t_fdbk = 0.05
    cfg.transport.rtt_estimate = 0.1
    bad = validate_scenario(cfg)
    assert any(v.field == "transport.t_fdbk" and "RTT" in v.reason for v in bad)


def test_beta_must_lie_in_open_unit_interval():
    cfg = ScenarioConfig()
    cfg.controller.beta = 0.0
    bad = validate_scenario(cfg)
    assert any(v.field == "controller.beta" for v in bad)


def test_all_violations_are_collected():
    text = """
[controller]
beta = 0.0
dr_d = 0

[transport]
t_fdbk = 0.01
rtt_estimate = 0.1
"""
    with pytest.raises(ScenarioInvalid) as err:
        parse_scenario_text(text)
    fields = {v.field for v in err.value.violations}
    assert {"controller.beta", "controller.dr_d", "transport.t_fdbk"} <= fields


def test_unknown_section_and_key_are_violations():
    with pytest.raises(ScenarioInvalid) as err:
        parse_scenario_text("[nope]\nx = 1\n\n[controller]\nbogus = 2\n")
    fields = {v.field for v in err.value.violations}
    assert "nope" in fields and "controller.bogus" in fields


def test_type_mismatches_are_violations():
    with pytest.raises(ScenarioInvalid) as err:
        parse_scenario_text('[controller]\ndr_d = "lots"\n\n[sim]\nseed = 1.5\n')
    fields = {v.field for v in err.value.violations}
    assert {"controller.dr_d", "sim.seed"} <= fields


@pytest.mark.parametrize("text, message", [
    ("[sim]\nhorizon = 5.0\nseed = 3\nhorizon = 50.0\n", "sim.horizon: given twice (lines 2 and 4)"),
    ("[sim]\nhorizon 5.0\n", "line 2: expected key = value"),
    ("horizon = 5.0\n[sim]\n", "horizon: key outside any section (line 1)"),
    ("[controller]\ndr_d = lots\n", "controller.dr_d: expected an integer"),
])
def test_a_malformed_line_is_one_violation_that_names_it(text, message):
    with pytest.raises(ScenarioInvalid) as err:
        parse_scenario_text(text)
    assert [str(v) for v in err.value.violations] == [message]


def test_a_number_that_is_not_finite_is_a_violation():
    """A scenario file reads 1e999 as inf, and a run to an infinite horizon
    would never end; a value set in code is held to the same rule."""
    with pytest.raises(ScenarioInvalid) as err:
        parse_scenario_text("[sim]\nhorizon = 1e999\n")
    assert [str(v) for v in err.value.violations] == ["sim.horizon: must be finite"]
    cfg = ScenarioConfig()
    set_param(cfg, "sim.horizon", float("inf"))
    assert [str(v) for v in validate_scenario(cfg)] == ["sim.horizon: must be finite"]


def test_a_bare_text_value_is_read_as_that_text():
    assert parse_scenario_text("[scenario]\nname = field run\n").scenario.name == "field run"


def test_round_trip_serialize_parse_equality():
    cfg = ScenarioConfig()
    cfg.scenario.name = "run#2"
    cfg.scenario.mode = "transport"
    cfg.controller.f_init = 7.25
    cfg.transport.data_loss = 0.125
    cfg.switches.eq6_alt = True
    text = serialize_scenario(cfg)
    assert parse_scenario_text(text) == cfg
    assert scenario_hash(parse_scenario_text(text)) == scenario_hash(cfg)


def test_a_hash_inside_double_quotes_is_not_a_comment():
    cfg = parse_scenario_text('# run "a#b"\n[scenario]  # meta\nname = "a#b" # the name\n')
    assert cfg.scenario.name == "a#b"


def test_get_and_set_param_by_dotted_path():
    cfg = ScenarioConfig()
    assert get_param(cfg, "controller.f_init") == 4.0
    set_param(cfg, "controller.f_init", 8)
    assert cfg.controller.f_init == 8.0 and isinstance(cfg.controller.f_init, float)
    for path, wrong in (("controller.f_init", "8"), ("topology.n_sources", 2.5),
                        ("topology.n_sources", True), ("switches.sack", 1)):
        with pytest.raises(ScenarioInvalid):
            set_param(cfg, path, wrong)
    assert cfg.controller.f_init == 8.0 and cfg.topology.n_sources == 81
    for bad in ("controller.nope", "nope.f_init", "controller", ""):
        with pytest.raises(UnknownParameter):
            get_param(cfg, bad)


def small_field_cfg(repetitions=1):
    cfg = ScenarioConfig()
    cfg.topology.n_sources = 9
    cfg.controller.dr_d = 45
    cfg.controller.f_init = 5.0
    cfg.sim.horizon = 5.0
    cfg.sim.repetitions = repetitions
    return cfg


def test_sweep_shape_and_determinism():
    cfg = small_field_cfg(repetitions=2)
    rows = sweep(cfg, SweepSpec("controller.f_init", [1.0, 2.0, 4.0, 8.0]))
    assert len(rows) == 4
    assert [r["value"] for r in rows] == [1.0, 2.0, 4.0, 8.0]
    for r in rows:
        assert r["repetitions"] == 2
        assert r["aggregate_throughput_mean"] > 0
    again = sweep(cfg, SweepSpec("controller.f_init", [1.0, 2.0, 4.0, 8.0]))
    assert rows == again


def test_sweep_single_repetition_reports_zero_std():
    cfg = small_field_cfg()
    rows = sweep(cfg, SweepSpec("controller.f_init", [2.0]))
    assert rows[0]["aggregate_throughput_std"] == 0.0
    assert rows[0]["average_packet_delay_std"] == 0.0


def test_sweep_unknown_parameter():
    with pytest.raises(UnknownParameter):
        sweep(small_field_cfg(), SweepSpec("controller.bogus", [1]))


def test_sweep_csv_has_header_and_preamble():
    cfg = small_field_cfg()
    rows = sweep(cfg, SweepSpec("controller.f_init", [2.0]))
    text = sweep_csv(rows, {"seed": 1})
    lines = text.strip().split("\n")
    assert lines[0] == "# seed=1"
    assert lines[1].startswith("parameter,value,repetitions,convergence_time_mean")
    assert len(lines) == 3
