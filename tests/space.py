"""Valid scenarios, drawn from the keys and rules that `rrrt.scenario` declares.

`scenarios()` draws every key but the name, the seed and the repetitions: a
choice from its choices, or a number from its domain cut to BUDGET, plus the
domain's closed low end where BUDGET starts above it. The rules that tie keys
together hold by construction, so every draw is valid:
- the mode's service rates are drawn below the ceiling that `ca_value` sets;
- the exponential model draws a positive `ca_value`;
- `f_min <= f_init <= f_cap`, and cross traffic's `start <= stop`, are sorted draws;
- `t_fdbk` and `t_p` are drawn above `rtt_estimate`.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from rrrt.scenario import INTERVALS, KEYS, MODE_RATES, ScenarioConfig, set_param

UNDRAWN = ("scenario.name", "sim.seed", "sim.repetitions")
# Numeric key -> (lowest, highest) value drawn: inside its domain, and small
# enough that a run stays short (at most 16 sources, 300 packets and 3 s).
# A low end above the domain's keeps a period or a rate away from values so
# small that a run would never end, or whose reciprocal overflows.
BUDGET = {
    "topology.n_sources": (1, 16),
    "topology.event_radius": (0.0, 100.0),
    "topology.source_service_rate": (1.0, 400.0),
    "topology.relay_service_rate": (1.0, 400.0),
    "topology.cross_service_rate": (1.0, 700.0),
    "topology.packet_len": (1.0, 2000.0),
    "topology.ctl_len": (1.0, 500.0),
    "topology.ca_value": (0.0, 0.005),
    "topology.ca_cap": (0.0, 0.05),
    "topology.link_loss": (0.0, 1.0),
    "controller.dr_d": (1, 1000),
    "controller.t_sa": (0.1, 2.0),
    "controller.beta": (0.0, 1.0),
    "controller.interval_len": (0.1, 2.0),
    "controller.f_init": (0.0, 40.0),
    "controller.f_min": (0.0, 40.0),
    "controller.f_cap": (0.0, 40.0),
    "congestion.buffer_capacity": (0, 20),
    "congestion.epoch": (0.01, 1.0),
    "cross_traffic.rate": (0.0, 300.0),
    "cross_traffic.start": (0.0, 4.0),
    "cross_traffic.stop": (0.0, 4.0),
    "budget.delta_e2a": (0.0, 2.0),
    "budget.ep_del": (0.0, 2.0),
    "budget.a_del": (0.0, 2.0),
    "transport.relays": (1, 4),
    "transport.bottleneck_service": (1.0, 400.0),
    "transport.relay_service": (1.0, 400.0),
    "transport.sender_service": (1.0, 400.0),
    "transport.capacity": (1, 20),
    "transport.data_loss": (0.0, 1.0),
    "transport.goal_packets": (0, 300),
    "transport.delta_e2a": (0.1, 60.0),
    "transport.t_fdbk": (None, 2.0),  # drawn above rtt_estimate
    "transport.t_p": (None, 2.0),
    "transport.rtt_estimate": (0.01, 0.5),
    "transport.decrease_factor": (0.0, 1.0),
    "transport.hold_band": (0.0, 1.0),
    "transport.fixed_rate": (0.0, 400.0),
    "energy.e_tx": (0.0, 1e-3),
    "energy.e_rx": (0.0, 1e-3),
    "sim.horizon": (0.1, 3.0),
}


def values(path: str, lo=None, hi=None) -> st.SearchStrategy:
    """Values of key `path`: a bool, one of its choices, or a number of its
    domain from `lo` (BUDGET's by default) to `hi` (likewise), plus the
    domain's closed low end when `lo` lies above it."""
    key = KEYS[path]
    if key.kind is bool:
        return st.booleans()
    if isinstance(key.domain, tuple):
        return st.sampled_from(key.domain)
    low, low_open, high = INTERVALS[key.domain]
    lo = BUDGET[path][0] if lo is None else lo
    hi = BUDGET[path][1] if hi is None else hi
    if key.kind is int:
        drawn = st.integers(lo, hi)
    else:
        drawn = st.floats(lo, hi, exclude_min=low_open and lo == low, exclude_max=hi == high)
    if not low_open and lo > low:
        drawn = st.just(key.kind(low)) | drawn
    return drawn


def rate_ceiling(ca_value: float) -> float:
    """The highest service rate whose slot outlasts `ca_value`: the highest
    `rate` with `1 / rate > ca_value`, as `bit_rate_for_service` needs."""
    if ca_value == 0:
        return math.inf
    rate = 1.0 / ca_value
    while not 1.0 / rate > ca_value:
        rate = math.nextafter(rate, 0.0)
    return rate


# Keys drawn after the others, each under a rule that ties it to them.
TIED = {"topology.ca_value", "controller.f_min", "controller.f_init", "controller.f_cap",
        "cross_traffic.start", "cross_traffic.stop", "transport.t_fdbk", "transport.t_p",
        *MODE_RATES["field"], *MODE_RATES["transport"]}
# The strategy of each drawn key within its budget, built once.
DRAWS = {path: values(path) for path in KEYS if path not in UNDRAWN}


@st.composite
def scenarios(draw) -> ScenarioConfig:
    """A valid configuration with every key but UNDRAWN drawn (see the module)."""
    cfg = ScenarioConfig()
    for path, drawn in DRAWS.items():
        if path not in TIED:
            set_param(cfg, path, draw(drawn))
    if cfg.topology.ca_model == "exponential":
        ca_value = draw(st.floats(0.0, BUDGET["topology.ca_value"][1], exclude_min=True))
    else:
        ca_value = draw(DRAWS["topology.ca_value"])
    set_param(cfg, "topology.ca_value", ca_value)
    ceiling = rate_ceiling(ca_value)
    for mode, paths in MODE_RATES.items():
        for path in paths:
            below = mode == cfg.scenario.mode and ceiling < BUDGET[path][1]
            set_param(cfg, path, draw(values(path, hi=ceiling) if below else DRAWS[path]))
    for paths in (("controller.f_min", "controller.f_init", "controller.f_cap"),
                  ("cross_traffic.start", "cross_traffic.stop")):
        for path, value in zip(paths, sorted(draw(DRAWS[path]) for path in paths)):
            set_param(cfg, path, value)
    above_rtt = math.nextafter(cfg.transport.rtt_estimate, math.inf)
    for path in ("transport.t_fdbk", "transport.t_p"):
        set_param(cfg, path, draw(values(path, lo=above_rtt)))
    return cfg
