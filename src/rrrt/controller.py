"""Sub-sink reliability controller for sensor-to-sub-sink traffic.

Each decision interval the sub-sink counts on-time data packets, derives the
reliability indicator, classifies the network condition using the congestion
verdict, and computes the next reporting frequency to broadcast back to the
sources. The five update rules:

  early reliability, no congestion   f' = f * T_i / T_sa
  early reliability, congestion      f' = min(f * T_i / T_sa, f * T_i / T_sa)
                                     (literal; `eq4_alt` swaps the second
                                     argument for f * DR_d / DR_o)
  low reliability, no congestion     f' = f * DR_d / DR_o
  low reliability, congestion        f' = f ** (DR_o / (DR_d * x)),
                                     clamped to never exceed f
                                     (`eq6_alt` uses f * DR_o / (DR_d * x))
  adequate, no congestion            f' = f

`x` counts successive low-reliability-with-congestion intervals, including
the current one; every other condition resets it to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InconsistentStats, InvalidTarget
from .kernel import decode_info
from .packet import Packet
from .scenario import BudgetCfg, ControllerCfg


class NetworkCondition(Enum):
    EARLY_REL_NO_CONG = "EarlyRelNoCong"
    EARLY_REL_CONG = "EarlyRelCong"
    LOW_REL_NO_CONG = "LowRelNoCong"
    LOW_REL_CONG = "LowRelCong"
    ADEQUATE_REL_NO_CONG = "AdequateRelNoCong"


@dataclass(slots=True)
class IntervalStats:
    """Running per-interval accounting at the sub-sink."""

    index: int
    f_i: float
    start_time: float = 0.0
    dr_o: int = 0
    t_i: float = math.inf  # finite once dr_o first reaches dr_d
    cn: bool = False
    x: int = 1


def reliability_indicator(dr_o: float, dr_d: float) -> float:
    """Ratio of observed to desired delay-constrained reliability."""
    if dr_d < 1:
        raise InvalidTarget(f"desired reliability must be >= 1, got {dr_d}")
    return dr_o / dr_d


def classify_condition(alpha: float, cn: bool, beta: float) -> NetworkCondition:
    """Map (indicator, congestion verdict, tolerance) to exactly one condition.

    Under congestion the indicator is compared against 1 directly; the tie
    alpha == 1 counts as early reliability (the target is met, so the
    conservative decrease applies). Without congestion the tolerance band
    [1-beta, 1+beta] is inclusive on both ends.
    """
    if cn:
        if alpha < 1.0:
            return NetworkCondition.LOW_REL_CONG
        return NetworkCondition.EARLY_REL_CONG
    if alpha < 1.0 - beta:
        return NetworkCondition.LOW_REL_NO_CONG
    if alpha > 1.0 + beta:
        return NetworkCondition.EARLY_REL_NO_CONG
    return NetworkCondition.ADEQUATE_REL_NO_CONG


def update_frequency(cond: NetworkCondition, stats: IntervalStats, ctl: ControllerCfg,
                     eq4_alt: bool = False, eq6_alt: bool = False) -> tuple[float, int]:
    """Next reporting frequency and next same-condition counter for the
    interval `stats` describes, which ran at `stats.f_i`.

    The result is clamped into [f_min, f_cap]. Zero on-time packets without
    congestion jump straight to f_cap (maximal recovery); the congested
    exponent rule is clamped to never raise a sub-unity frequency.
    """
    f_i = stats.f_i
    if cond in (NetworkCondition.LOW_REL_NO_CONG, NetworkCondition.LOW_REL_CONG):
        if math.isfinite(stats.t_i) and stats.dr_o >= ctl.dr_d:
            raise InconsistentStats(
                f"low-reliability condition with dr_o={stats.dr_o} >= dr_d={ctl.dr_d}")

    if cond is NetworkCondition.EARLY_REL_NO_CONG:
        f_next = f_i * (stats.t_i / ctl.t_sa)
        x_next = 1
    elif cond is NetworkCondition.EARLY_REL_CONG:
        first = f_i * (stats.t_i / ctl.t_sa)
        second = f_i * (ctl.dr_d / stats.dr_o) if eq4_alt else first
        f_next = min(first, second)
        x_next = 1
    elif cond is NetworkCondition.LOW_REL_NO_CONG:
        if stats.dr_o < 1:
            f_next = ctl.f_cap
        else:
            f_next = f_i * (ctl.dr_d / stats.dr_o)
        x_next = 1
    elif cond is NetworkCondition.LOW_REL_CONG:
        exponent = stats.dr_o / (ctl.dr_d * stats.x)
        if eq6_alt:
            f_next = f_i * stats.dr_o / (ctl.dr_d * stats.x)
        else:
            f_next = min(f_i, f_i ** exponent)
        x_next = stats.x + 1
    else:
        f_next = f_i
        x_next = 1

    f_next = min(max(f_next, ctl.f_min), ctl.f_cap)
    return f_next, x_next


def check_delay_budget(budget: BudgetCfg, transport: float) -> bool:
    """Whether the event-to-action bound holds for one observed transport delay.

    The caller picks what counts as transport delay: the summed buffering
    component alone (literal mode) or the end-to-end delay, which is the sum
    of all four per-hop components (full-sum mode).
    """
    return budget.delta_e2a >= transport + budget.ep_del + budget.a_del


def record_packet_arrival(stats: IntervalStats, pkt: Packet, now: float,
                          ctl: ControllerCfg) -> IntervalStats:
    """Count one data-packet arrival; only on-time packets count towards dr_o."""
    if now - pkt.gen_time <= ctl.t_sa:
        stats.dr_o += 1
        if stats.dr_o == ctl.dr_d:
            stats.t_i = now - stats.start_time
        stats.cn = stats.cn or pkt.cn
    return stats


@dataclass(slots=True)
class IntervalRow:
    """One closed decision interval, as logged and serialized."""

    interval: int
    dr_o: int
    dr_d: int
    alpha: float
    t_i: float
    cn: bool
    condition: str
    f_i: float
    f_next: float
    x: int
    end_time: float

    CSV_HEADER = "interval,dr_o,dr_d,alpha,t_i,cn,condition,f_i,f_next,x"

    def csv(self) -> str:
        return (f"{self.interval},{self.dr_o},{self.dr_d},{self.alpha!r},{self.t_i!r},"
                f"{int(self.cn)},{self.condition},{self.f_i!r},{self.f_next!r},{self.x}")

    def encode(self) -> str:
        """Compact comma-free form carried in the trace."""
        return (f"i={self.interval};dr_o={self.dr_o};dr_d={self.dr_d};alpha={self.alpha!r};"
                f"t_i={self.t_i!r};cn={int(self.cn)};cond={self.condition};"
                f"f_i={self.f_i!r};f_next={self.f_next!r};x={self.x}")

    @classmethod
    def decode(cls, info: str, end_time: float) -> "IntervalRow":
        """Inverse of encode(); ValueError on an unknown condition or a bad number."""
        fields = decode_info(info)
        return cls(
            interval=int(fields["i"]), dr_o=int(fields["dr_o"]), dr_d=int(fields["dr_d"]),
            alpha=float(fields["alpha"]), t_i=float(fields["t_i"]), cn=fields["cn"] == "1",
            condition=NetworkCondition(fields["cond"]).value,
            f_i=float(fields["f_i"]), f_next=float(fields["f_next"]),
            x=int(fields["x"]), end_time=end_time,
        )


class ReliabilityController:
    """Per-sub-sink controller state: the open interval; closed ones go to the trace."""

    def __init__(self, ctl: ControllerCfg, eq4_alt: bool = False, eq6_alt: bool = False):
        self.ctl = ctl
        self.eq4_alt = eq4_alt
        self.eq6_alt = eq6_alt
        f_i = min(max(ctl.f_init, ctl.f_min), ctl.f_cap)
        self.stats = IntervalStats(index=1, f_i=f_i, start_time=0.0)

    def on_data_packet(self, pkt: Packet, now: float) -> None:
        record_packet_arrival(self.stats, pkt, now, self.ctl)

    def close_interval(self, now: float) -> IntervalRow:
        """Classify the elapsed interval, update the frequency, open the next interval."""
        stats = self.stats
        alpha = reliability_indicator(stats.dr_o, self.ctl.dr_d)
        cond = classify_condition(alpha, stats.cn, self.ctl.beta)
        f_next, x_next = update_frequency(cond, stats, self.ctl,
                                          eq4_alt=self.eq4_alt, eq6_alt=self.eq6_alt)
        row = IntervalRow(
            interval=stats.index, dr_o=stats.dr_o, dr_d=self.ctl.dr_d, alpha=alpha,
            t_i=stats.t_i, cn=stats.cn, condition=cond.value, f_i=stats.f_i, f_next=f_next,
            x=stats.x, end_time=now,
        )
        self.stats = IntervalStats(index=stats.index + 1, f_i=f_next, start_time=now, x=x_next)
        return row

    def broadcast_packet(self, pid: int, node_id: str, now: float) -> Packet:
        """Frequency broadcast carrying the rate now in force, for flooding to sources."""
        return Packet(pid=pid, flow="ctl", src=node_id, dst="*", gen_time=now,
                      payload=self.stats.f_i)
