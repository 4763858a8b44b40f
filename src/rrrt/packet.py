"""Simulated datagram shared by every protocol layer.

One mutable object travels hop to hop inside a run; the trace records the
copies (one per link traversal). Control packets (probes, rate feedback,
frequency broadcasts) reuse the same type; receivers tell them apart by the
handler they reach (`on_packet`, `on_control`, `on_frequency`) and by `flow`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(slots=True)
class Packet:
    pid: int
    flow: str
    src: str
    dst: str
    gen_time: float
    cn: bool = False
    seq: Optional[int] = None
    # Path measurement carried by transport packets (probe and data alike):
    # running maximum of per-node service delay, and hops traversed.
    bottleneck_delay: Optional[float] = None
    hop_count: int = 0
    # Summed per-hop buffering delay, for the literal-mode delay budget. Full-sum
    # mode checks now - gen_time, the sum of all four per-hop delay components.
    b_sum: float = 0.0
    payload: Any = None
