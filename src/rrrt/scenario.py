"""Scenario files: sectioned key/value text, fully validated at load.

A scenario plus a seed determines a run completely. Each key is declared once,
with its default and domain, and every consumer reads it through `KEYS`.
Parsing collects every violation (not just the first) and reports them with
field-precise messages.
"""

from __future__ import annotations

import ast
import hashlib
import math
import operator
import re
from dataclasses import dataclass, field, fields as dc_fields
from functools import partial
from typing import Any, Callable, NamedTuple

from .errors import ScenarioInvalid, UnknownParameter, Validation


# Each interval a key's domain can be, in the README's notation -> (its low
# end, whether that end is left out, its high end, which always is left out).
INTERVALS = {"> 0": (0, True, math.inf), ">= 0": (0, False, math.inf),
             ">= 1": (1, False, math.inf), "[0, 1)": (0, False, 1), "(0, 1)": (0, True, 1)}


def _key(default, domain):
    """A key's field: its default, whose type is the key's, and its domain."""
    return field(default=default, metadata={"domain": domain})


@dataclass
class ScenarioMeta:
    name: str = "scenario"
    mode: str = _key("field", ("field", "transport"))


@dataclass
class TopologyCfg:
    n_sources: int = _key(81, ">= 1")
    event_radius: float = _key(45.0, "> 0")
    layout: str = _key("direct", ("direct", "relay"))
    source_service_rate: float = _key(200.0, "> 0")
    relay_service_rate: float = _key(400.0, "> 0")
    cross_service_rate: float = _key(450.0, "> 0")
    packet_len: float = _key(1000.0, "> 0")
    ctl_len: float = _key(200.0, "> 0")
    ca_model: str = _key("exponential", ("fixed", "exponential"))
    ca_value: float = _key(0.002, ">= 0")
    ca_cap: float = _key(0.05, ">= 0")
    link_loss: float = _key(0.0, "[0, 1)")


@dataclass
class ControllerCfg:
    dr_d: int = _key(400, ">= 1")
    t_sa: float = _key(1.0, "> 0")
    beta: float = _key(0.05, "(0, 1)")
    interval_len: float = _key(0.0, ">= 0")  # 0 means "use t_sa"
    f_init: float = _key(4.0, "> 0")
    f_min: float = _key(0.1, "> 0")
    f_cap: float = _key(50.0, "> 0")

    def effective_interval(self) -> float:
        return self.interval_len if self.interval_len > 0 else self.t_sa


@dataclass
class CongestionCfg:
    buffer_capacity: int = _key(80, ">= 0")
    epoch: float = _key(0.1, "> 0")


@dataclass
class CrossTrafficCfg:
    rate: float = _key(0.0, ">= 0")
    start: float = _key(0.0, ">= 0")
    stop: float = _key(0.0, ">= 0")


@dataclass
class BudgetCfg:
    delta_e2a: float = _key(0.0, ">= 0")  # 0 disables the budget check
    ep_del: float = _key(0.0, ">= 0")
    a_del: float = _key(0.0, ">= 0")


@dataclass
class TransportCfg:
    relays: int = _key(2, ">= 1")
    bottleneck_service: float = _key(100.0, "> 0")
    relay_service: float = _key(400.0, "> 0")
    sender_service: float = _key(400.0, "> 0")
    capacity: int = _key(50, ">= 1")
    data_loss: float = _key(0.0, "[0, 1)")
    goal_packets: int = _key(1000, ">= 0")
    delta_e2a: float = _key(60.0, "> 0")
    t_fdbk: float = _key(0.5, "> 0")
    t_p: float = _key(1.0, "> 0")
    rtt_estimate: float = _key(0.1, "> 0")
    decrease_factor: float = _key(0.5, "(0, 1)")
    hold_band: float = _key(0.02, "[0, 1)")
    sender: str = _key("adaptive", ("adaptive", "fixed"))
    fixed_rate: float = _key(200.0, "> 0")


@dataclass
class EnergyCfg:
    e_tx: float = _key(50e-6, ">= 0")
    e_rx: float = _key(25e-6, ">= 0")


@dataclass
class SimCfg:
    horizon: float = _key(25.0, "> 0")
    seed: int = 1
    repetitions: int = _key(10, ">= 1")


@dataclass
class SwitchesCfg:
    eq4_alt: bool = False
    eq6_alt: bool = False
    eq2_mode: str = _key("literal", ("literal", "full-sum"))
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


class Key(NamedTuple):
    """One scenario key, as every consumer reads it."""

    section: str
    key: str
    path: str  # "section.key"
    kind: type  # of its default: bool, int, float or str
    domain: Any  # one of INTERVALS, a tuple of choices, or None for any `kind`
    get: Callable[[ScenarioConfig], Any]  # its value in a configuration


def _check(kind: type, domain) -> tuple:
    """(`value in domain`, the violation if not). The test is a C call for a
    choice or an integer's bound, and one chained comparison for a float,
    which also leaves out the infinities and NaN."""
    if isinstance(domain, tuple):
        return domain.__contains__, "must be " + " or ".join(domain)
    lo, lo_open, hi = INTERVALS[domain]
    reason = f"must be {'in ' if hi < math.inf else ''}{domain}"
    reason = "must be positive" if domain == "> 0" else reason
    if kind is int:  # no integer key has an upper bound
        return partial(operator.lt if lo_open else operator.le, lo), reason
    return (lambda value: lo < value < hi) if lo_open else (lambda value: lo <= value < hi), reason


def _declared() -> dict[str, list[Key]]:
    """Section name -> its keys, in field order, read from the dataclasses."""
    sections = {}
    for section in dc_fields(ScenarioConfig):
        sections[section.name] = keys = []
        for f in dc_fields(section.default_factory):
            path = f"{section.name}.{f.name}"
            keys.append(Key(section.name, f.name, path, type(f.default), f.metadata.get("domain"),
                            operator.attrgetter(path)))
    return sections


_SECTIONS = _declared()
KEYS = {key.path: key for keys in _SECTIONS.values() for key in keys}
# The rows that validate_scenario walks: (path, get, `value in domain`, violation, kind).
_CHECKS = [(key.path, key.get, *_check(key.kind, key.domain), key.kind)
           for key in KEYS.values() if key.domain is not None]
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


def serialize_scenario(cfg: ScenarioConfig) -> str:
    lines = []
    for section_name, keys in _SECTIONS.items():
        lines.append(f"[{section_name}]")
        lines.extend(f"{key.key} = {_format_value(key.get(cfg))}" for key in keys)
        lines.append("")
    return "\n".join(lines)


def parse_scenario_text(text: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    violations: list[Validation] = []
    section_name = None
    given: dict[str, int] = {}  # path -> the line that set it
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = (_CODE.match(raw).group() if "#" in raw else raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section_name = line[1:-1].strip()
            if section_name not in _SECTIONS:
                violations.append(Validation(section_name, f"unknown section (line {lineno})"))
            continue
        if "=" not in line:
            violations.append(Validation(f"line {lineno}", "expected key = value"))
            continue
        key, _, value_text = line.partition("=")
        key = key.strip()
        if section_name not in _SECTIONS:
            if section_name is None:
                violations.append(Validation(key, f"key outside any section (line {lineno})"))
            continue
        path = f"{section_name}.{key}"
        if path not in KEYS:
            violations.append(Validation(path, "unknown key"))
            continue
        if path in given:
            violations.append(Validation(path, f"given twice (lines {given[path]} and {lineno})"))
            continue
        given[path] = lineno
        try:
            set_param(cfg, path, parse_value(value_text))
        except ScenarioInvalid as exc:
            violations.extend(exc.violations)
    violations.extend(validate_scenario(cfg))
    if violations:
        raise ScenarioInvalid(violations)
    return cfg


def parse_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_scenario_text(fp.read())


MODE_RATES = {"field": ("topology.source_service_rate", "topology.relay_service_rate",
                        "topology.cross_service_rate"),
              "transport": ("transport.bottleneck_service", "transport.relay_service",
                            "transport.sender_service")}
# The rules that tie keys together, each as (path, its violation, the keys it
# reads, the rule). A rule is checked once every key it reads is in its domain.
_RULES = [
    # Each service rate that the mode's topology builds gives `bit_rate_for_service`
    # a positive, finite bit rate: packet_len / (1/rate - ca_value).
    *((path, "service rate unachievable with {cfg.topology.ca_value}s channel access",
       ("scenario.mode", "topology.ca_value", "topology.packet_len", path),
       lambda cfg, mode=mode, get=KEYS[path].get: cfg.scenario.mode != mode
       or (gap := 1.0 / get(cfg) - cfg.topology.ca_value) > 0
       and 0 < cfg.topology.packet_len / gap < math.inf)
      for mode, paths in MODE_RATES.items() for path in paths),
    # The exponential model draws each channel access with mean ca_value.
    ("topology.ca_value", "must be positive with the exponential model",
     ("topology.ca_model", "topology.ca_value"),
     lambda cfg: cfg.topology.ca_model != "exponential" or cfg.topology.ca_value > 0),
    # f_min <= f_init <= f_cap: f_init is held to it once f_min <= f_cap.
    ("controller.f_cap", "must be >= f_min", ("controller.f_min", "controller.f_cap"),
     lambda cfg: cfg.controller.f_cap >= cfg.controller.f_min),
    ("controller.f_init", "must lie within [f_min, f_cap]",
     ("controller.f_min", "controller.f_init", "controller.f_cap"),
     lambda cfg: not cfg.controller.f_min <= cfg.controller.f_cap
     or cfg.controller.f_min <= cfg.controller.f_init <= cfg.controller.f_cap),
    # The feedback and probe periods exceed the round-trip estimate.
    *((path, "must exceed RTT", (path, "transport.rtt_estimate"),
       lambda cfg, get=KEYS[path].get: get(cfg) > cfg.transport.rtt_estimate)
      for path in ("transport.t_fdbk", "transport.t_p")),
    # Each buffer numbers its epochs, int(now / epoch), up to the horizon.
    ("congestion.epoch", "must keep horizon / epoch finite", ("sim.horizon", "congestion.epoch"),
     lambda cfg: math.isfinite(cfg.sim.horizon / cfg.congestion.epoch)),
    # Cross traffic stops no earlier than it starts.
    ("cross_traffic.stop", "must be >= start", ("cross_traffic.start", "cross_traffic.stop"),
     lambda cfg: cfg.cross_traffic.stop >= cfg.cross_traffic.start),
]


def validate_scenario(cfg: ScenarioConfig) -> list[Validation]:
    """Every constraint violated by the configuration, with field-precise
    messages: each key outside its domain, then each rule of `_RULES` whose
    keys all lie in theirs."""
    bad: list[Validation] = []
    for path, get, ok, reason, kind in _CHECKS:
        value = get(cfg)
        if not ok(value):
            finite = kind is not float or math.isfinite(value)
            bad.append(Validation(path, reason if finite else "must be finite"))
    outside = {violation.field for violation in bad}
    for path, reason, reads, holds in _RULES:
        if outside.isdisjoint(reads) and not holds(cfg):
            bad.append(Validation(path, reason.format(cfg=cfg)))
    return bad


def scenario_hash(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(serialize_scenario(cfg).encode()).hexdigest()[:12]


def get_param(cfg: ScenarioConfig, path: str):
    if path not in KEYS:
        raise UnknownParameter(path)
    return KEYS[path].get(cfg)


def set_param(cfg: ScenarioConfig, path: str, value) -> None:
    """Set one field by dotted path, typed as a scenario file would type it:
    bool, int (not bool), a number as float, or str.

    Raises UnknownParameter for a bad path and ScenarioInvalid naming the field
    for a value of any other type; range checks are validate_scenario's.
    """
    get_param(cfg, path)  # raises UnknownParameter on a bad path
    key = KEYS[path]
    if key.kind is float and type(value) is int:
        value = float(value)
    if type(value) is not key.kind:
        raise ScenarioInvalid([Validation(path, _EXPECTED[key.kind])])
    setattr(getattr(cfg, key.section), key.key, value)


@dataclass
class SweepSpec:
    """One swept parameter: dotted path and the values to try."""

    parameter: str
    values: list
