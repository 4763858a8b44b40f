"""Scenario files: sectioned key/value text, fully validated at load.

A scenario plus a seed determines a run completely. Parsing collects every
violation (not just the first) and reports them with field-precise messages.
"""

from __future__ import annotations

import ast
import hashlib
import math
import re
from dataclasses import dataclass, field, fields as dc_fields
from typing import Any

from .errors import ScenarioInvalid, UnknownParameter, Validation


@dataclass
class ScenarioMeta:
    name: str = "scenario"
    mode: str = "field"  # "field" | "transport"


@dataclass
class TopologyCfg:
    n_sources: int = 81
    event_radius: float = 45.0
    layout: str = "direct"  # "direct" | "relay"
    source_service_rate: float = 200.0
    relay_service_rate: float = 400.0
    cross_service_rate: float = 450.0
    packet_len: float = 1000.0
    ctl_len: float = 200.0
    ca_model: str = "exponential"  # "fixed" | "exponential"
    ca_value: float = 0.002
    ca_cap: float = 0.05
    link_loss: float = 0.0


@dataclass
class ControllerCfg:
    dr_d: int = 400
    t_sa: float = 1.0
    beta: float = 0.05
    interval_len: float = 0.0  # 0 means "use t_sa"
    f_init: float = 4.0
    f_min: float = 0.1
    f_cap: float = 50.0

    def effective_interval(self) -> float:
        return self.interval_len if self.interval_len > 0 else self.t_sa


@dataclass
class CongestionCfg:
    buffer_capacity: int = 80
    epoch: float = 0.1


@dataclass
class CrossTrafficCfg:
    rate: float = 0.0
    start: float = 0.0
    stop: float = 0.0


@dataclass
class BudgetCfg:
    delta_e2a: float = 0.0  # 0 disables the budget check
    ep_del: float = 0.0
    a_del: float = 0.0


@dataclass
class TransportCfg:
    relays: int = 2
    bottleneck_service: float = 100.0
    relay_service: float = 400.0
    sender_service: float = 400.0
    capacity: int = 50
    data_loss: float = 0.0
    goal_packets: int = 1000
    delta_e2a: float = 60.0
    t_fdbk: float = 0.5
    t_p: float = 1.0
    rtt_estimate: float = 0.1
    decrease_factor: float = 0.5
    hold_band: float = 0.02
    sender: str = "adaptive"  # "adaptive" | "fixed"
    fixed_rate: float = 200.0


@dataclass
class EnergyCfg:
    e_tx: float = 50e-6
    e_rx: float = 25e-6


@dataclass
class SimCfg:
    horizon: float = 25.0
    seed: int = 1
    repetitions: int = 10


@dataclass
class SwitchesCfg:
    eq4_alt: bool = False
    eq6_alt: bool = False
    eq2_mode: str = "literal"  # "literal" | "full-sum"
    sack: bool = True


@dataclass
class ScenarioConfig:
    scenario: ScenarioMeta = field(default_factory=ScenarioMeta)
    topology: TopologyCfg = field(default_factory=TopologyCfg)
    controller: ControllerCfg = field(default_factory=ControllerCfg)
    congestion: CongestionCfg = field(default_factory=CongestionCfg)
    cross_traffic: CrossTrafficCfg = field(default_factory=CrossTrafficCfg)
    budget: BudgetCfg = field(default_factory=BudgetCfg)
    transport: TransportCfg = field(default_factory=TransportCfg)
    energy: EnergyCfg = field(default_factory=EnergyCfg)
    sim: SimCfg = field(default_factory=SimCfg)
    switches: SwitchesCfg = field(default_factory=SwitchesCfg)


_SECTIONS = {f.name: f.type for f in dc_fields(ScenarioConfig)}
# "section.key" -> the type of the field's default: bool, int, float or str.
_FIELD_TYPES = {f"{name}.{f.name}": type(f.default)
                for name, section in vars(ScenarioConfig()).items()
                for f in dc_fields(section)}
# (section, key) of every float field, each of which must be finite.
_FLOAT_FIELDS = [path.split(".") for path, kind in _FIELD_TYPES.items() if kind is float]
# A line up to its comment: a `#` inside double quotes is part of the value.
_CODE = re.compile(r'(?:[^"#]+|"[^"]*"?)*')
_EXPECTED = {bool: "expected true/false", int: "expected an integer",
             float: "expected a number", str: "expected a string"}


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return f'"{value}"'
    return str(value)


def parse_value(text: str):
    """A scenario-file value: true/false, a Python literal, or else the bare text."""
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _typed(path: str, value):
    """`value` as field `path` takes it: bool, int (not bool), a number as float, or str.

    Raises ScenarioInvalid naming the field for any other value.
    """
    expected = _FIELD_TYPES[path]
    if expected is float and type(value) is int:
        value = float(value)
    if type(value) is not expected:
        raise ScenarioInvalid([Validation(path, _EXPECTED[expected])])
    return value


def serialize_scenario(cfg: ScenarioConfig) -> str:
    lines = []
    for section_name in _SECTIONS:
        section = getattr(cfg, section_name)
        lines.append(f"[{section_name}]")
        for f in dc_fields(section):
            lines.append(f"{f.name} = {_format_value(getattr(section, f.name))}")
        lines.append("")
    return "\n".join(lines)


def parse_scenario_text(text: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    violations: list[Validation] = []
    section_name = None
    section_obj = None
    given: dict[str, int] = {}  # path -> the line that set it
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = (_CODE.match(raw).group() if "#" in raw else raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section_name = line[1:-1].strip()
            if section_name not in _SECTIONS:
                violations.append(Validation(section_name, f"unknown section (line {lineno})"))
                section_obj = None
            else:
                section_obj = getattr(cfg, section_name)
            continue
        if "=" not in line:
            violations.append(Validation(f"line {lineno}", "expected key = value"))
            continue
        key, _, value_text = line.partition("=")
        key = key.strip()
        if section_obj is None:
            if section_name is None:
                violations.append(Validation(key, f"key outside any section (line {lineno})"))
            continue
        path = f"{section_name}.{key}"
        if path not in _FIELD_TYPES:
            violations.append(Validation(path, "unknown key"))
            continue
        if path in given:
            violations.append(Validation(path, f"given twice (lines {given[path]} and {lineno})"))
            continue
        given[path] = lineno
        try:
            setattr(section_obj, key, _typed(path, parse_value(value_text)))
        except ScenarioInvalid as exc:
            violations.extend(exc.violations)
    violations.extend(validate_scenario(cfg))
    if violations:
        raise ScenarioInvalid(violations)
    return cfg


def parse_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_scenario_text(fp.read())


def validate_scenario(cfg: ScenarioConfig) -> list[Validation]:
    """Every constraint violated by the configuration, with field-precise messages."""
    bad: list[Validation] = []

    def check(ok: bool, field_name: str, reason: str) -> None:
        if not ok:
            bad.append(Validation(field_name, reason))

    meta, topo, ctl = cfg.scenario, cfg.topology, cfg.controller
    cong, cross, budget = cfg.congestion, cfg.cross_traffic, cfg.budget
    xp, energy, sim, sw = cfg.transport, cfg.energy, cfg.sim, cfg.switches

    for name, key in _FLOAT_FIELDS:
        if not math.isfinite(getattr(getattr(cfg, name), key)):
            bad.append(Validation(f"{name}.{key}", "must be finite"))

    check(meta.mode in ("field", "transport"), "scenario.mode", "must be field or transport")

    check(topo.n_sources >= 1, "topology.n_sources", "must be >= 1")
    check(topo.event_radius > 0, "topology.event_radius", "must be positive")
    check(topo.layout in ("direct", "relay"), "topology.layout", "must be direct or relay")
    for name in ("source_service_rate", "relay_service_rate", "cross_service_rate",
                 "packet_len", "ctl_len"):
        check(getattr(topo, name) > 0, f"topology.{name}", "must be positive")
    check(topo.ca_model in ("fixed", "exponential"), "topology.ca_model",
          "must be fixed or exponential")
    check(topo.ca_value >= 0, "topology.ca_value", "must be >= 0")
    check(topo.ca_model != "exponential" or topo.ca_value > 0, "topology.ca_value",
          "must be positive with the exponential model")
    check(topo.ca_cap >= 0, "topology.ca_cap", "must be >= 0")
    check(0 <= topo.link_loss < 1, "topology.link_loss", "must be in [0, 1)")
    if topo.ca_value > 0:
        ceiling = 1.0 / topo.ca_value
        field_rates = [("topology.source_service_rate", topo.source_service_rate),
                       ("topology.relay_service_rate", topo.relay_service_rate),
                       ("topology.cross_service_rate", topo.cross_service_rate)]
        if meta.mode == "transport":
            field_rates += [("transport.bottleneck_service", xp.bottleneck_service),
                            ("transport.relay_service", xp.relay_service),
                            ("transport.sender_service", xp.sender_service)]
        for name, rate in field_rates:
            check(rate < ceiling, name,
                  f"service rate unachievable with {topo.ca_value}s channel access")

    check(ctl.dr_d >= 1, "controller.dr_d", "must be >= 1")
    check(ctl.t_sa > 0, "controller.t_sa", "must be positive")
    check(0 < ctl.beta < 1, "controller.beta", "must be in (0,1)")
    check(ctl.interval_len >= 0, "controller.interval_len", "must be >= 0 (0 uses t_sa)")
    check(ctl.f_min > 0, "controller.f_min", "must be positive")
    check(ctl.f_cap >= ctl.f_min, "controller.f_cap", "must be >= f_min")
    check(ctl.f_min <= ctl.f_init <= ctl.f_cap, "controller.f_init",
          "must lie within [f_min, f_cap]")

    check(cong.buffer_capacity >= 0, "congestion.buffer_capacity", "must be >= 0")
    check(cong.epoch > 0, "congestion.epoch", "must be positive")

    check(cross.rate >= 0, "cross_traffic.rate", "must be >= 0")
    check(cross.stop >= cross.start, "cross_traffic.stop", "must be >= start")

    for name in ("delta_e2a", "ep_del", "a_del"):
        check(getattr(budget, name) >= 0, f"budget.{name}", "must be >= 0")

    check(xp.relays >= 1, "transport.relays", "must be >= 1")
    for name in ("bottleneck_service", "relay_service", "sender_service"):
        check(getattr(xp, name) > 0, f"transport.{name}", "must be positive")
    check(xp.capacity >= 1, "transport.capacity", "must be >= 1")
    check(0 <= xp.data_loss < 1, "transport.data_loss", "must be in [0, 1)")
    check(xp.goal_packets >= 0, "transport.goal_packets", "must be >= 0")
    check(xp.delta_e2a > 0, "transport.delta_e2a", "must be positive")
    check(xp.rtt_estimate > 0, "transport.rtt_estimate", "must be positive")
    check(xp.t_fdbk > xp.rtt_estimate, "transport.t_fdbk", "must exceed RTT")
    check(xp.t_p > xp.rtt_estimate, "transport.t_p", "must exceed RTT")
    check(0 < xp.decrease_factor < 1, "transport.decrease_factor", "must be in (0,1)")
    check(0 <= xp.hold_band < 1, "transport.hold_band", "must be in [0, 1)")
    check(xp.sender in ("adaptive", "fixed"), "transport.sender",
          "must be adaptive or fixed")
    check(xp.fixed_rate > 0, "transport.fixed_rate", "must be positive")

    check(energy.e_tx >= 0, "energy.e_tx", "must be >= 0")
    check(energy.e_rx >= 0, "energy.e_rx", "must be >= 0")

    check(sim.horizon > 0, "sim.horizon", "must be positive")
    check(sim.repetitions >= 1, "sim.repetitions", "must be >= 1")

    check(sw.eq2_mode in ("literal", "full-sum"), "switches.eq2_mode",
          "must be literal or full-sum")
    return bad


def scenario_hash(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(serialize_scenario(cfg).encode()).hexdigest()[:12]


def get_param(cfg: ScenarioConfig, path: str):
    if path not in _FIELD_TYPES:
        raise UnknownParameter(path)
    section_name, _, key = path.partition(".")
    return getattr(getattr(cfg, section_name), key)


def set_param(cfg: ScenarioConfig, path: str, value) -> None:
    """Set one field by dotted path, typed as a scenario file would type it.

    Raises UnknownParameter for a bad path and ScenarioInvalid for a value of
    the wrong type; range checks are validate_scenario's.
    """
    get_param(cfg, path)  # raises UnknownParameter on a bad path
    section_name, _, key = path.partition(".")
    setattr(getattr(cfg, section_name), key, _typed(path, value))


@dataclass
class SweepSpec:
    """One swept parameter: dotted path and the values to try."""

    parameter: str
    values: list
