"""Scenario parsing, validation, round-tripping and sweeps; the key table
in the README and the scenarios that `space.scenarios` draws."""

import math
import os
from collections import defaultdict

import pytest
from hypothesis import Phase, given, settings

from rrrt.errors import ScenarioInvalid, UnknownParameter
from rrrt.runner import replay_text, run_traced, sweep, sweep_csv
from rrrt.scenario import (_RULES, INTERVALS, KEYS, MODE_RATES, ScenarioConfig, SweepSpec,
                           get_param, parse_scenario, parse_scenario_text, scenario_hash,
                           serialize_scenario, set_param, validate_scenario)
from shipped import shipped
from space import UNDRAWN, scenarios

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


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


def boundary_values(path):
    """(the nearest values outside key `path`'s domain, the values at its
    edges inside it). A float's open end is left by one step of the float."""
    key = KEYS[path]
    if isinstance(key.domain, tuple):
        return ["none"], list(key.domain)
    lo, lo_open, hi = INTERVALS[key.domain]
    if key.kind is int:
        return [lo if lo_open else lo - 1], [lo + 1 if lo_open else lo]
    lo = float(lo)
    outside = [lo if lo_open else math.nextafter(lo, -math.inf)]
    inside = [math.nextafter(lo, math.inf) if lo_open else lo]
    if hi < math.inf:
        outside.append(float(hi))
        inside.append(math.nextafter(hi, -math.inf))
    return outside, inside


def edge_cfg():
    """The defaults, moved so that no rule bites at any key's inside edge:
    the fixed model takes `ca_value` 0, and `f_min` and `f_init` sit at the
    smallest positive float, where `f_init` and `f_cap` can go."""
    cfg = ScenarioConfig()
    cfg.topology.ca_model = "fixed"
    cfg.controller.f_min = cfg.controller.f_init = math.ulp(0.0)
    assert validate_scenario(cfg) == []
    return cfg


# Keys whose domain a rule narrows above its low end: at that end, the key
# breaks the rule. At the smallest positive float a field service rate gives
# a bit rate of 0, and the epoch leaves horizon / epoch infinite.
NARROWED = {"transport.t_fdbk": "must exceed RTT", "transport.t_p": "must exceed RTT",
            **{path: "service rate unachievable with 0.002s channel access"
               for path in MODE_RATES["field"]},
            "congestion.epoch": "must keep horizon / epoch finite"}


def violations_with(path, value):
    cfg = edge_cfg()
    set_param(cfg, path, value)
    return [str(v) for v in validate_scenario(cfg)]


@pytest.mark.parametrize("path", [path for path, key in KEYS.items() if key.domain is not None])
def test_each_domain_refuses_the_nearest_value_outside_and_takes_its_edges(path):
    """Each value just outside gives one violation, at `path`; each edge
    inside gives none; a float that is not finite gives "must be finite"."""
    outside, inside = boundary_values(path)
    for value in outside:
        assert [v.partition(":")[0] for v in violations_with(path, value)] == [path], value
    for value in inside:
        expected = [f"{path}: {NARROWED[path]}"] if path in NARROWED else []
        assert violations_with(path, value) == expected, value
    if KEYS[path].kind is float:
        for value in (math.inf, -math.inf, math.nan):
            assert violations_with(path, value) == [f"{path}: must be finite"], value


def with_values(changes):
    """edge_cfg with `changes` (path -> value) set."""
    cfg = edge_cfg()
    for path, value in changes.items():
        set_param(cfg, path, value)
    return cfg


def rate(mode, path, value):
    return {"scenario.mode": mode, "topology.ca_value": 0.002, path: value}


UNACHIEVABLE = "service rate unachievable with 0.002s channel access"
# One case per rule of `_RULES`: (path, violation, changes that break the
# rule, changes that keep it).
RULE_CASES = [
    *((path, UNACHIEVABLE, rate(mode, path, 500.0), rate(mode, path, 499.9))
      for mode, paths in MODE_RATES.items() for path in paths),
    ("topology.ca_value", "must be positive with the exponential model",
     {"topology.ca_model": "exponential", "topology.ca_value": 0.0},
     {"topology.ca_model": "exponential", "topology.ca_value": math.ulp(0.0)}),
    ("controller.f_cap", "must be >= f_min",
     {"controller.f_min": 2.0, "controller.f_init": 2.0, "controller.f_cap": 1.0},
     {"controller.f_min": 2.0, "controller.f_init": 2.0, "controller.f_cap": 2.0}),
    ("controller.f_init", "must lie within [f_min, f_cap]",
     {"controller.f_min": 2.0, "controller.f_init": 3.0, "controller.f_cap": 2.5},
     {"controller.f_min": 2.0, "controller.f_init": 2.5, "controller.f_cap": 2.5}),
    ("transport.t_fdbk", "must exceed RTT",
     {"transport.rtt_estimate": 0.5, "transport.t_fdbk": 0.5},
     {"transport.rtt_estimate": 0.5, "transport.t_fdbk": math.nextafter(0.5, 1.0)}),
    ("transport.t_p", "must exceed RTT",
     {"transport.rtt_estimate": 0.5, "transport.t_fdbk": 1.0, "transport.t_p": 0.5},
     {"transport.rtt_estimate": 0.5, "transport.t_fdbk": 1.0,
      "transport.t_p": math.nextafter(0.5, 1.0)}),
    ("congestion.epoch", "must keep horizon / epoch finite",
     {"sim.horizon": 2.0, "congestion.epoch": 1e-320},
     {"sim.horizon": 2.0, "congestion.epoch": 1e-300}),
    ("cross_traffic.stop", "must be >= start",
     {"cross_traffic.start": 2.0, "cross_traffic.stop": 1.0},
     {"cross_traffic.start": 2.0, "cross_traffic.stop": 2.0}),
]


def test_every_rule_has_a_case():
    assert [case[0] for case in RULE_CASES] == [rule[0] for rule in _RULES]


@pytest.mark.parametrize("path, reason, broken, kept", RULE_CASES, ids=[c[0] for c in RULE_CASES])
def test_each_rule_refuses_one_case_and_takes_another(path, reason, broken, kept):
    assert [str(v) for v in validate_scenario(with_values(broken))] == [f"{path}: {reason}"]
    assert validate_scenario(with_values(kept)) == []


def test_a_rate_is_refused_exactly_where_the_topology_builder_refuses_it():
    """1/499.99999999999994 rounds to 0.002, so the slot does not outlast a
    0.002 s channel access: `bit_rate_for_service` raises for this rate, so
    validation refuses it too, though it lies below 1/0.002 = 500."""
    cfg = with_values(rate("field", "topology.source_service_rate", 499.99999999999994))
    assert [str(v) for v in validate_scenario(cfg)] == [
        f"topology.source_service_rate: {UNACHIEVABLE}"]


def test_a_transport_run_ignores_the_field_service_rates():
    """A transport topology never builds the `topology.*` rates, so one that
    no 0.002 s channel access could serve neither refuses the scenario nor
    changes a row of its run, which replays to its report."""
    cfg = shipped("transport_lossy")
    cfg.sim.horizon = 5.0
    _, rows, _ = run_traced(cfg, 1)
    cfg.topology.relay_service_rate = 600.0
    cfg = parse_scenario_text(serialize_scenario(cfg))
    report, trace, preamble = run_traced(cfg, 1)
    assert list(trace) == list(rows)
    assert replay_text(trace.serialize(preamble)) == report
    assert report.aggregate_throughput > 0


def test_a_field_scenario_is_refused_for_its_unachievable_source_rate():
    cfg = shipped("field_congested")
    cfg.topology.source_service_rate = 600.0
    with pytest.raises(ScenarioInvalid) as err:
        parse_scenario_text(serialize_scenario(cfg))
    assert [str(v) for v in err.value.violations] == [
        f"topology.source_service_rate: {UNACHIEVABLE}"]


def readme_key_table():
    """The rows of the key table under the README's "Scenario format"."""
    with open(README, encoding="utf-8") as fp:
        section = fp.read().split("## Scenario format", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.split("\n") if line.startswith("| `")]


def declared_key_table():
    """The key table's rows as `rrrt.scenario` declares the keys: path, type,
    default as a scenario file writes it, and domain."""
    defaults, section = {}, None
    for line in serialize_scenario(ScenarioConfig()).split("\n"):
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            key, _, value = line.partition(" = ")
            defaults[f"{section}.{key}"] = value
    rows = []
    for path, key in KEYS.items():
        if key.domain is None:
            domain = "any"
        elif isinstance(key.domain, tuple):
            domain = " or ".join(f"`{choice}`" for choice in key.domain)
        else:
            domain = f"`{key.domain}`"
        rows.append(f"| `{path}` | {key.kind.__name__} | `{defaults[path]}` | {domain} |")
    return rows


def test_the_readme_key_table_matches_the_declarations():
    expected = declared_key_table()
    assert readme_key_table() == expected, "\n".join(expected)


def test_scenarios_draw_valid_configurations_that_vary_every_drawn_key():
    """200 draws of `space.scenarios`: each is valid, and every key but the
    name, the seed and the repetitions takes at least two values."""
    seen = defaultdict(set)

    @settings(max_examples=200, database=None, derandomize=True, phases=[Phase.generate],
              deadline=None)
    @given(scenarios())
    def draw(cfg):
        assert validate_scenario(cfg) == []
        for path in KEYS:
            seen[path].add(get_param(cfg, path))

    draw()
    assert sorted(path for path in KEYS if len(seen[path]) < 2) == sorted(UNDRAWN)
