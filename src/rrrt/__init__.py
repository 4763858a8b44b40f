"""Delay-constrained reliable event transport for wireless sensor networks.

A deterministic discrete-event simulator plus the protocol machinery it
exercises: the sensor-to-sub-sink reporting-frequency control loop and the
rate-based reliable transport between sub-sinks.
"""

from .congestion import NodeBuffer, congestion_flag, mark_packet
from .controller import (IntervalStats, NetworkCondition, ReliabilityController,
                         check_delay_budget, classify_condition, record_packet_arrival,
                         reliability_indicator, update_frequency)
from .kernel import SimulationTrace, Simulator
from .metrics import MetricsReport, audit_trace, convergence_time, reduce_trace
from .packet import Packet
from .runner import ARTIFACT_VERSION as __version__
from .runner import replay, run_experiment, sweep
from .scenario import ScenarioConfig, SweepSpec, parse_scenario, serialize_scenario
from .topology import CaModel, Link, Topology
from .transport import (DeliveryGoal, Phase, RateFeedback, SackInfo, TransportState,
                        apply_rate_feedback, build_sack, feedback_from_probe,
                        min_transmission_rate, on_feedback_timeout, on_probe_forward,
                        on_sack, start_connection)
