"""End-to-end runs: determinism, conservation, replay, energy pairing, the CLI."""

import json
import os

import pytest

from rrrt.cli import main
from rrrt.errors import Corrupt
from rrrt.kernel import SimulationTrace
from rrrt.runner import (ARTIFACT_VERSION, build_transport, replay_text, run_and_serialize,
                         run_experiment)
from rrrt.scenario import ScenarioConfig, serialize_scenario


def small_field_cfg(**ctl):
    cfg = ScenarioConfig()
    cfg.topology.n_sources = 9
    cfg.controller.dr_d = 45
    cfg.controller.f_init = ctl.get("f_init", 5.0)
    cfg.sim.horizon = ctl.get("horizon", 8.0)
    return cfg


def transport_cfg(loss=0.0, sender="adaptive", goal=300, horizon=40.0):
    cfg = ScenarioConfig()
    cfg.scenario.mode = "transport"
    cfg.transport.goal_packets = goal
    cfg.transport.data_loss = loss
    cfg.transport.sender = sender
    cfg.sim.horizon = horizon
    return cfg


def test_field_run_is_deterministic():
    r1, t1 = run_and_serialize(small_field_cfg(), seed=4)
    r2, t2 = run_and_serialize(small_field_cfg(), seed=4)
    assert t1 == t2 and r1 == r2
    r3, t3 = run_and_serialize(small_field_cfg(), seed=5)
    assert t3 != t1


def test_transport_run_is_deterministic():
    r1, t1 = run_and_serialize(transport_cfg(loss=0.3), seed=2)
    r2, t2 = run_and_serialize(transport_cfg(loss=0.3), seed=2)
    assert t1 == t2 and r1 == r2


def test_lossless_run_delivers_every_generated_packet():
    cfg = transport_cfg(loss=0.0, goal=250)
    report = run_experiment(cfg, seed=1)
    assert report.aggregate_throughput == 250


def test_sack_recovers_all_losses():
    cfg = transport_cfg(loss=0.25, goal=250)
    report = run_experiment(cfg, seed=1)
    assert report.aggregate_throughput == 250


def test_sack_off_leaves_holes():
    cfg = transport_cfg(loss=0.25, goal=250)
    cfg.switches.sack = False
    report = run_experiment(cfg, seed=1)
    assert report.aggregate_throughput < 250


def test_replay_round_trip_matches_report():
    report, text = run_and_serialize(small_field_cfg(), seed=6)
    assert replay_text(text) == report


def test_replay_rejects_truncated_and_corrupt_traces():
    _, text = run_and_serialize(small_field_cfg(horizon=3.0), seed=6)
    with pytest.raises(Corrupt):
        replay_text(text[: len(text) // 2].rsplit("\n", 1)[0] + "\n0.5,zzz\n")
    with pytest.raises(Corrupt):
        replay_text("")


def test_replay_of_header_only_trace_reports_zero():
    _, text = run_and_serialize(small_field_cfg(), seed=6)
    header_only = "\n".join(line for line in text.split("\n")
                            if line.startswith("#") or line.startswith("time,"))
    report = replay_text(header_only + "\n")
    assert report.aggregate_throughput == 0
    assert report.average_packet_delay is None
    assert report.total_energy == 0.0


def test_retransmissions_cost_strictly_more_energy():
    """Same workload with loss on vs off: recovery transmissions burn extra joules."""
    clean = run_experiment(transport_cfg(loss=0.0, goal=250), seed=3)
    lossy = run_experiment(transport_cfg(loss=0.3, goal=250), seed=3)
    assert clean.aggregate_throughput == lossy.aggregate_throughput == 250
    assert lossy.total_energy > clean.total_energy


def test_field_trace_passes_audit_under_congestion():
    cfg = small_field_cfg(f_init=20.0, horizon=10.0)
    cfg.topology.layout = "relay"
    cfg.topology.relay_service_rate = 60.0
    cfg.congestion.buffer_capacity = 15
    report, text = run_and_serialize(cfg, seed=8)
    assert report.per_interval  # ran and recorded intervals
    overflow = text.count(",drop,") and ",overflow," in text
    assert overflow, "scenario was meant to overflow the relay"


def test_delay_budget_fractions_reported_and_replayed():
    cfg = small_field_cfg()
    cfg.budget.delta_e2a = 0.02
    cfg.budget.ep_del = 0.001
    cfg.budget.a_del = 0.001
    report, text = run_and_serialize(cfg, seed=2)
    budget = report.delay_budget
    assert budget is not None
    assert budget["deliveries"] > 0
    assert 0.0 <= budget["full_sum_ok_fraction"] <= budget["literal_ok_fraction"] <= 1.0
    assert replay_text(text).delay_budget == budget


def test_probe_rate_matches_sustained_bottleneck_throughput():
    """The advertised rate equals what the path can actually sustain.

    An idle path advertises exactly the bottleneck service rate (one packet's
    service time inverted); overdriving the same path sustains deliveries at
    that advertised rate.
    """
    cfg = transport_cfg(goal=400, horizon=30.0)
    cfg.topology.ca_model = "fixed"
    cfg.topology.ca_value = 0.0005
    cfg.transport.bottleneck_service = 80.0
    harness = build_transport(cfg, seed=4)
    harness.sim.run_until(2.0)  # probe + first feedbacks on an idle path
    rows = [r[7] for r in harness.sim.trace.records if r[2] == "conn" and r[7]]
    advertised = [float(dict(p.split("=", 1) for p in info.split(";"))["r_f"])
                  for info in rows]
    assert 80.0 in advertised  # idle bottleneck: (0 + 1) / 80 inverted

    over = transport_cfg(goal=400, horizon=30.0, sender="fixed")
    over.topology.ca_model = "fixed"
    over.topology.ca_value = 0.0005
    over.transport.bottleneck_service = 80.0
    over.transport.fixed_rate = 160.0
    harness2 = build_transport(over, seed=4)
    harness2.sim.run_until(over.sim.horizon)
    deliveries = [r[0] for r in harness2.sim.trace.records if r[2] == "deliver"]
    mid = deliveries[len(deliveries) // 4: -1]  # steady saturated stretch
    sustained = (len(mid) - 1) / (mid[-1] - mid[0])
    assert sustained == pytest.approx(80.0, rel=0.05)


# -- CLI --------------------------------------------------------------------------


def write_cfg(tmp_path, cfg, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(serialize_scenario(cfg))
    return str(path)


def test_cli_validate_ok_and_failure(tmp_path, capsys):
    good = write_cfg(tmp_path, small_field_cfg())
    assert main(["validate", "--scenario", good]) == 0
    bad_cfg = small_field_cfg()
    bad_cfg.controller.beta = 0.0
    bad = write_cfg(tmp_path, bad_cfg, "bad.cfg")
    assert main(["validate", "--scenario", bad]) == 2
    err = capsys.readouterr().err
    assert "controller.beta" in err


def test_cli_missing_file_is_io_error(tmp_path):
    assert main(["validate", "--scenario", str(tmp_path / "absent.cfg")]) == 3


def test_cli_run_writes_outputs_and_replay_agrees(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, small_field_cfg())
    out = tmp_path / "out"
    assert main(["run", "--scenario", cfg_path, "--seed", "3",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["per_run_seed"] == 3
    assert summary["preamble"]["artifact_version"]
    intervals = (out / "intervals.csv").read_text()
    assert intervals.splitlines()[0].startswith("# artifact_version=")
    assert "interval,dr_o,dr_d" in intervals
    capsys.readouterr()
    assert main(["replay", "--trace", str(out / "trace.csv")]) == 0
    replay_out = json.loads(capsys.readouterr().out)
    assert replay_out["aggregate_throughput"] == summary["aggregate_throughput"]
    assert replay_out["per_interval"] == summary["per_interval"]


def test_cli_run_csv_format(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, small_field_cfg(horizon=3.0))
    assert main(["run", "--scenario", cfg_path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert any(line.startswith("aggregate_throughput,") for line in out.splitlines())


def test_cli_sweep_runs_and_writes_csv(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, small_field_cfg(horizon=3.0))
    out = tmp_path / "sweepout"
    assert main(["sweep", "--scenario", cfg_path, "--param", "controller.f_init",
                 "--values", "2.0,4.0", "--reps", "2", "--out", str(out)]) == 0
    text = (out / "sweep.csv").read_text()
    assert text.count("\n") >= 3  # preamble + header + 2 rows
    assert text.splitlines()[0] == f"# artifact_version={ARTIFACT_VERSION}"
    assert main(["sweep", "--scenario", cfg_path, "--param", "controller.zzz",
                 "--values", "1", "--reps", "1"]) == 2


def test_cli_connection_log_written_for_transport(tmp_path):
    cfg_path = write_cfg(tmp_path, transport_cfg(goal=50, horizon=10.0))
    out = tmp_path / "xp"
    assert main(["run", "--scenario", cfg_path, "--out", str(out)]) == 0
    lines = [line for line in (out / "connection.csv").read_text().splitlines()
             if not line.startswith("#")]
    assert lines[0] == "time,phase,r_c,r_f,r_min,missed_feedback,retransmit_count"
    rows = [line.split(",") for line in lines[1:]]
    got = [(float(t), phase, float(r_c), float(r_f), float(r_min), int(missed), int(retx))
           for t, phase, r_c, r_f, r_min, missed, retx in rows]

    trace, _ = SimulationTrace.parse((out / "trace.csv").read_text())
    expected = []
    for rec in trace.records:
        if rec[2] == "conn" and rec[7]:
            state = dict(part.split("=", 1) for part in rec[7].split(";"))
            expected.append((rec[0], state["phase"], float(state["r_c"]), float(state["r_f"]),
                             float(state["r_min"]), int(state["missed"]), int(state["retx"])))
    assert got == expected
    assert {"Hold", "Increase"} & {row[1] for row in got}
