"""End-to-end runs: determinism, conservation, replay, energy pairing, the CLI."""

import gc
import json
import os
import weakref

import pytest

import rrrt
from rrrt import runner
from rrrt.cli import main
from rrrt.errors import Corrupt, InvariantViolation
from rrrt.kernel import SimulationTrace, Simulator, decode_info, format_preamble
from rrrt.metrics import audit_trace
from rrrt.nodes import TransportSenderApp
from rrrt.runner import ARTIFACT_VERSION, build_transport, replay_text, run_experiment, run_traced
from rrrt.scenario import ScenarioConfig, serialize_scenario, set_param
from shipped import SCENARIO_DIR, sha256, shipped
from util import run_and_serialize


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
    report, trace, _ = run_traced(cfg, seed=1)
    assert report.aggregate_throughput < 250
    # a sender without SACK never retransmits, so it keeps nothing to wait for:
    # lost packets count as dropped and the rate floor falls after the last send
    assert not [r for r in trace if r[2] == "pending" and r[5] == "unacked"]
    counts = audit_trace(trace)
    assert counts["dropped"] == counts["generated"] - counts["delivered"]
    last_conn = [r[7] for r in trace if r[2] == "conn" and r[7]][-1]
    assert float(decode_info(last_conn)["r_min"]) < 1


@pytest.mark.parametrize("cfg", [small_field_cfg(horizon=2.0), transport_cfg(goal=50)],
                         ids=["field", "transport"])
def test_a_finished_run_frees_its_simulator_without_a_collection(monkeypatch, cfg):
    made = []

    def simulator(seed):
        sim = Simulator(seed)
        made.append(weakref.ref(sim))
        return sim

    monkeypatch.setattr(runner, "Simulator", simulator)
    gc.collect()
    gc.disable()
    try:
        run_experiment(cfg, seed=1)
        assert len(made) == 1 and made[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("cfg, streams", [
    (small_field_cfg(horizon=2.0), ("src:s000", "node:s000")),
    (transport_cfg(goal=50), ("node:src_ss", "node:r1"))], ids=["field", "transport"])
def test_finalize_leaves_no_random_stream_of_the_run_reachable(cfg, streams):
    """A finished run keeps its trace and its queue, not the streams it drew:
    with the harness still held and no collection, a source's stream and a
    node's stream, which the kernel, an app and a hop record held, are freed
    at finalize, and drawing a stream after it raises."""
    build = runner.build_field if cfg.scenario.mode == "field" else build_transport
    harness = build(cfg, 1)
    drawn = [weakref.ref(harness.sim.rng(name)) for name in streams]
    gc.collect()
    gc.disable()
    try:
        harness.sim.run_until(cfg.sim.horizon)
        harness.finalize()
        assert [ref() for ref in drawn] == [None] * len(streams)
    finally:
        gc.enable()
    harness.sim.pending_events()  # the queue stays readable
    assert len(harness.sim.trace) > 0
    with pytest.raises(RuntimeError, match="drawn after the run was closed"):
        harness.sim.rng(streams[0])


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


# The pinned runs with a delay budget: (shipped scenario, horizon, delta_e2a), at seed 1.
BUDGET_PINS = [("field_congested", 30.0, 0.05), ("field_burst", 10.0, 0.02)]


def with_budget(cfg, delta_e2a):
    cfg.budget.delta_e2a = delta_e2a
    cfg.budget.ep_del = 0.001
    cfg.budget.a_del = 0.001
    return cfg


def budget_pin(name, horizon, delta_e2a):
    cfg = shipped(name)
    cfg.sim.horizon = horizon
    return with_budget(cfg, delta_e2a)


def _budgeted_run(cfg, seed):
    report, text = run_and_serialize(cfg, seed=seed)
    budget = report.delay_budget
    assert budget is not None
    assert budget["deliveries"] > 0
    assert 0.0 <= budget["full_sum_ok_fraction"] <= budget["literal_ok_fraction"] <= 1.0
    assert replay_text(text).delay_budget == budget
    return budget, text


def test_delay_budget_fractions_reported_and_replayed():
    _budgeted_run(with_budget(small_field_cfg(), 0.02), seed=2)
    # A congested relay makes both modes fail some deliveries, so the pinned
    # trace covers both reason bits of every deliver row.
    budget, text = _budgeted_run(budget_pin(*BUDGET_PINS[0]), seed=1)
    assert sha256(text) == "c43d8f263530042a024c0dca5d055b061b6cde26337355d9689147717256554c"
    assert budget["deliveries"] == 1389
    assert budget["literal_ok_fraction"] == pytest.approx(0.8898488120950324, rel=1e-12)
    assert budget["full_sum_ok_fraction"] == pytest.approx(0.8545716342692584, rel=1e-12)
    # The relay and the cross-traffic burst also fail some deliveries in both modes.
    budget, text = _budgeted_run(budget_pin(*BUDGET_PINS[1]), seed=1)
    assert sha256(text) == "94e8db9c29ee22aaf9661c568cb9a1992878e20fa14cb833ec4b80a4c7a96825"
    assert budget["deliveries"] == 2352
    assert budget["literal_ok_fraction"] == pytest.approx(0.9247448979591837, rel=1e-12)
    assert budget["full_sum_ok_fraction"] == pytest.approx(0.8979591836734694, rel=1e-12)


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
    rows = [r[7] for r in harness.sim.trace if r[2] == "conn" and r[7]]
    advertised = [float(decode_info(info)["r_f"]) for info in rows]
    assert 80.0 in advertised  # idle bottleneck: (0 + 1) / 80 inverted

    over = transport_cfg(goal=400, horizon=30.0, sender="fixed")
    over.topology.ca_model = "fixed"
    over.topology.ca_value = 0.0005
    over.transport.bottleneck_service = 80.0
    over.transport.fixed_rate = 160.0
    harness2 = build_transport(over, seed=4)
    harness2.sim.run_until(over.sim.horizon)
    deliveries = [r[0] for r in harness2.sim.trace if r[2] == "deliver"]
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


@pytest.mark.parametrize("ca_model, code", [("exponential", 2), ("fixed", 0)])
def test_cli_run_with_zero_channel_access_exits_by_its_model(tmp_path, capsys, ca_model, code):
    """An exponential draw with mean 0 would divide by zero on the first hop,
    so validation refuses it; a fixed 0 s channel access runs and replays."""
    cfg = small_field_cfg(horizon=2.0)
    cfg.topology.ca_model = ca_model
    cfg.topology.ca_value = 0.0
    out = tmp_path / "out"
    assert main(["run", "--scenario", write_cfg(tmp_path, cfg), "--out", str(out)]) == code
    if code:
        assert "topology.ca_value: must be positive" in capsys.readouterr().err
    else:
        assert main(["replay", "--trace", str(out / "trace.csv")]) == 0


@pytest.mark.parametrize("name, path, value, violation", [
    ("field_congested", "congestion.epoch", 1e-320,
     "must keep horizon / epoch finite"),
    ("field_congested", "topology.source_service_rate", 1e-320, "service rate unachievable"),
    ("transport_lossy", "transport.relay_service", 1e-320, "service rate unachievable"),
])
def test_cli_run_refuses_a_value_that_would_crash_the_run(tmp_path, capsys, name, path, value,
                                                          violation):
    """Each value lies in its key's domain, and a run with it raised in the
    buffers (an epoch number that overflows) or the topology: 1/1e-320 is
    inf, which outlasts any channel access, but the bit rate it gives,
    packet_len / inf, is 0."""
    cfg = shipped(name)
    cfg.sim.horizon = 2.0
    set_param(cfg, path, value)
    assert main(["run", "--scenario", write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert f"validation: {path}: {violation}" in err and "Traceback" not in err


def test_cli_validate_rejects_a_key_given_twice(tmp_path, capsys):
    text = serialize_scenario(small_field_cfg()) + "\n[sim]\nhorizon = 50.0\n"
    first = text.split("\n").index(f"horizon = {small_field_cfg().sim.horizon!r}") + 1
    path = tmp_path / "twice.cfg"
    path.write_text(text)
    assert main(["validate", "--scenario", str(path)]) == 2
    second = text.count("\n")
    assert f"sim.horizon: given twice (lines {first} and {second})" in capsys.readouterr().err


def test_cli_missing_file_is_io_error(tmp_path):
    assert main(["validate", "--scenario", str(tmp_path / "absent.cfg")]) == 3


def test_cli_run_whose_audit_fails_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    def failing_audit(trace):
        raise InvariantViolation("copy 1 vanished (no receive/drop/pending)")

    monkeypatch.setattr(runner, "audit_trace", failing_audit)
    assert main(["run", "--scenario", write_cfg(tmp_path, small_field_cfg())]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invariant violation: copy 1 vanished (no receive/drop/pending)\n"


def test_cli_run_whose_writer_strays_from_the_table_exits_4(tmp_path, capsys, monkeypatch):
    """A writer that strays from the table of row kinds fails the run's audit,
    so `run` never writes a trace that `replay` refuses."""
    log = SimulationTrace.log

    def stray(self, time, node, kind, *fields):
        log(self, time, node, "intervals" if kind == "interval" else kind, *fields)

    monkeypatch.setattr(SimulationTrace, "log", stray)
    assert main(["run", "--scenario", write_cfg(tmp_path, small_field_cfg())]) == 4
    assert capsys.readouterr().err == ("invariant violation: no 'intervals' row carries "
                                       "the reason ''\n")


@pytest.mark.parametrize("argv,message", [
    (["validate", "--scenario"], "io error: "),
    (["run", "--scenario"], "io error: "),
    (["replay", "--trace"], "corrupt trace: "),
])
def test_cli_input_that_is_not_utf8_exits_3_with_one_line(tmp_path, capsys, argv, message):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe[scenario]\n\x80\x81\n")
    assert main(argv + [str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(message) and "UTF-8" in err and err.count("\n") == 1


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
    printed = capsys.readouterr().out
    replay_out = json.loads(printed)
    assert printed == json.dumps(replay_out, indent=2) + "\n"  # the summary is streamed
    assert replay_out["aggregate_throughput"] == summary["aggregate_throughput"]
    assert replay_out["per_interval"] == summary["per_interval"]


def test_connection_csv_names_the_fields_of_a_conn_row_in_order():
    """connection.csv's header is `time`, then one column for each field of
    the info of a logged conn row, in its order: the field's key, or its name
    written out. `rrrt run --out` writes the values of each row under it."""
    _, trace, _ = run_traced(transport_cfg(loss=0.2, goal=50), 1)
    keys = {tuple(decode_info(row[7])) for row in trace if row[2] == "conn" and row[7]}
    assert len(keys) == 1
    written_out = {"missed": "missed_feedback", "retx": "retransmit_count"}
    columns = TransportSenderApp.CONN_CSV_HEADER.split(",")
    assert columns == ["time", *(written_out.get(key, key) for key in keys.pop())]


@pytest.mark.xfail(strict=True, reason="replay does not audit its rows (ROADMAP item 3)")
def test_replay_of_a_trace_with_a_deliver_row_twice_exits_4(tmp_path, capsys):
    """A deliver row of transport_lossy's seed-1 trace written twice: the
    audit of those rows raises "pid 3 delivered twice to the application",
    while replay reduces them to an aggregate_throughput of 1001 of its 1000
    packets and exits 0. Once replay audits what it reads, it exits 4."""
    _, text = run_and_serialize(shipped("transport_lossy"), 1)
    lines = text.splitlines(keepends=True)
    at = next(at for at, line in enumerate(lines) if ",deliver," in line)
    lines.insert(at, lines[at])
    with pytest.raises(InvariantViolation, match="pid 3 delivered twice"):
        audit_trace(SimulationTrace.parse("".join(lines))[0])
    path = tmp_path / "trace.csv"
    path.write_text("".join(lines), encoding="utf-8", newline="")
    assert main(["replay", "--trace", str(path)]) == 4


PREAMBLE = {"seed": "1", "flow": "data", "e_tx": "5e-05", "e_rx": "2.5e-05",
            "eq2_mode": "literal"}


def trace_header(**values):
    """A full preamble, with `values` replacing its entries (None drops one),
    and the column header."""
    preamble = {**PREAMBLE, **values}
    return (format_preamble({k: v for k, v in preamble.items() if v is not None})
            + "time,node,kind,pid,copy,reason,value,info\n")


TRACE_HEADER = trace_header()
INTERVAL_INFO = ("i=1;dr_o={dr_o};dr_d={dr_d};alpha=0.0075;t_i=1.0;cn=0;cond={cond};"
                 "f_i=4.0;f_next=50.0;x=1")


@pytest.mark.parametrize("text", [
    TRACE_HEADER + "1.0,sink,interval,-1,-1,,,"
    + INTERVAL_INFO.format(dr_o="x", dr_d=400, cond="LowRelNoCong") + "\n",
    TRACE_HEADER + "1.0,sink,interval,-1,-1,,,"
    + INTERVAL_INFO.format(dr_o=3, dr_d=0, cond="") + "\n",
    TRACE_HEADER + "1.0,sink,interval,-1,-1,,,"
    + INTERVAL_INFO.format(dr_o=3, dr_d=400, cond="LowRel") + "\n",
    trace_header(e_tx="1e-6x"),
    trace_header(e_rx=""),
    trace_header(seed="1.5"),
    trace_header(e_tx=None),
    TRACE_HEADER + "0.5,s001,generate,3,-1,,,\n1.0,sink,deliver,3,-1,,,data\n",
], ids=["interval_info", "interval_target", "interval_condition", "e_tx", "e_rx", "seed",
        "e_tx_missing", "deliver_value"])
def test_cli_replay_of_a_value_that_does_not_reduce_is_corrupt(tmp_path, capsys, text):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    assert main(["replay", "--trace", str(path)]) == 3
    assert "corrupt trace" in capsys.readouterr().err


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
    # Swept values obey the scenario file's types and validation, every cell
    # before any runs; --reps is sim.repetitions and must be >= 1.
    capsys.readouterr()
    for param, values, reps in (("sim.horizon", "-1", "1"),
                                ("controller.f_init", "4.0,1000", "1"),
                                ("sim.horizon", '"x"', "1"),
                                ("topology.n_sources", "2.5", "1"),
                                ("controller.f_init", "2.0", "0")):
        assert main(["sweep", "--scenario", cfg_path, "--param", param,
                     "--values", values, "--reps", reps]) == 2, (param, values, reps)
        assert capsys.readouterr().out == ""
    xp_path = write_cfg(tmp_path, transport_cfg(goal=20, horizon=5.0), "xp.cfg")
    assert main(["sweep", "--scenario", xp_path, "--param", "switches.sack",
                 "--values", "true,false", "--reps", "1"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[4:]]
    assert [row[:3] for row in rows] == [["switches.sack", "True", "1"],
                                         ["switches.sack", "False", "1"]]


# sha256 of sweep.csv for transport_lossy over two goals, two seeds each
SWEEP_SHA256 = "633f303b5ac98f662b7059d519fb68cf2b63c0773a50e52067750593c4753d42"


def test_cli_sweep_writes_the_pinned_bytes(tmp_path, capsys):
    """The whole file: preamble, header, and each mean and std-dev as repr()."""
    assert main(["sweep", "--scenario", os.path.join(SCENARIO_DIR, "transport_lossy.cfg"),
                 "--param", "transport.goal_packets", "--values", "50,100", "--reps", "2",
                 "--out", str(tmp_path)]) == 0
    text = (tmp_path / "sweep.csv").read_text()
    assert capsys.readouterr().out == text
    assert sha256(text) == SWEEP_SHA256


def test_cli_sweep_takes_no_format(tmp_path, capsys):
    """Only `run` and `replay` print a summary, so only they take --format."""
    cfg_path = write_cfg(tmp_path, small_field_cfg(horizon=3.0))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", cfg_path, "--param", "controller.f_init",
              "--values", "2.0", "--reps", "1", "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


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
    for rec in trace:
        if rec[2] == "conn" and rec[7]:
            state = decode_info(rec[7])
            expected.append((rec[0], state["phase"], float(state["r_c"]), float(state["r_f"]),
                             float(state["r_min"]), int(state["missed"]), int(state["retx"])))
    assert got == expected
    assert {"Hold", "Increase"} & {row[1] for row in got}


def expired_deadline_cfg():
    cfg = shipped("transport_lossy")
    cfg.transport.delta_e2a = 2.0
    cfg.sim.horizon = 10.0
    return cfg


def test_an_expired_deadline_logs_one_row_that_connection_csv_leaves_out(tmp_path):
    """With a 2 s deadline the lossy transfer is not done in time: the sender
    logs one `deadline_expired` row, which carries no connection state, so
    `connection.csv` has a row for every other `conn` row and none for it."""
    cfg = expired_deadline_cfg()
    report, trace, preamble = run_traced(cfg, 1)
    audit_trace(trace)
    assert replay_text(trace.serialize(preamble)) == report
    expired = [rec for rec in trace if rec[2] == "conn" and rec[5] == "deadline_expired"]
    assert [rec[:2] for rec in expired] == [(pytest.approx(2.0035, abs=1e-4), "src_ss")]
    assert expired[0][7] == ""

    out = tmp_path / "out"
    assert main(["run", "--scenario", write_cfg(tmp_path, cfg), "--seed", "1",
                 "--out", str(out)]) == 0
    assert (out / "trace.csv").read_text() == trace.serialize(preamble)
    lines = [line for line in (out / "connection.csv").read_text().splitlines()
             if not line.startswith("#")]
    assert [float(line.split(",")[0]) for line in lines[1:]] == \
        [rec[0] for rec in trace if rec[2] == "conn" and rec[7]]
    assert not any("deadline" in line for line in lines)


def test_package_version_is_the_artifact_version():
    pyproject = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
    with open(pyproject, encoding="utf-8") as fp:
        version = next(line.split("=", 1)[1].strip().strip('"') for line in fp
                       if line.startswith("version"))
    assert version == rrrt.__version__ == ARTIFACT_VERSION
