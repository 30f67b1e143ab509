import hashlib
import json
import pathlib
import random
from fractions import Fraction

import pytest

from genutil import line_scenario
from fogweaver import pipeline
from fogweaver.cli import main
from fogweaver.errors import InfeasibleError
from fogweaver.fixtures import uc1_text
from fogweaver.gclsched import (FrameWindow, NetSchedule, StreamTiming,
                                synthesize_gcl, verify_net_schedule)
from fogweaver.nodesched import node_schedule_from_json, verify_node_schedule
from fogweaver.pipeline import run_pipeline
from fogweaver.reporting import Report, Violation
from fogweaver.scenario import scenario_to_text
from fogweaver.units import time_from_json


@pytest.fixture()
def uc1_file(tmp_path):
    path = tmp_path / "uc1.fog"
    path.write_text(uc1_text(), encoding="utf-8")
    return path


def test_validate_ok(uc1_file, capsys):
    assert main(["validate", str(uc1_file)]) == 0
    assert "10 streams" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.fog"
    bad.write_text('node E1 { cores 2 class 1 }\n'
                   'app "a" on E1 { level 1 tasks 1 period 10ms util 1.2 }\n')
    assert main(["validate", str(bad)]) == 1
    assert "utilization" in capsys.readouterr().err


def test_malformed_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.fog"
    bad.write_text("node { huh }")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err


def test_every_dangling_reference_reported(tmp_path, capsys):
    bad = tmp_path / "bad.fog"
    bad.write_text('switch W1\nlink W1 -> E9\n'
                   'app "a" on E8 { level 1 tasks 1 period 10ms util 0.5 }\n')
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "[unknown-reference] W1->E9: undeclared entity 'E9'",
        "[unknown-reference] a: undeclared fog node 'E8'"]


def test_missing_file_exits_3(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.fog")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_pipeline_end_to_end(uc1_file, tmp_path):
    out = tmp_path / "report.json"
    gantt = tmp_path / "gantt"
    code = main(["pipeline", str(uc1_file), "-o", str(out),
                 "--gantt", str(gantt), "--format", "ascii"])
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["net"]["streams"]) == 10
    assert len(report["nodes"]) == 5
    assert report["net"]["verification"] == "clean"
    assert all(n["verification"] == "clean" for n in report["nodes"])
    assert report["utilization"]["average"] == 0.574
    assert report["tesla"]["security_tasks"] == 20
    assert (gantt / "net.txt").exists()
    assert (gantt / "gcl.json").exists()
    assert (gantt / "node_E3.txt").exists()


def test_pipeline_reports_are_byte_identical(uc1_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["pipeline", str(uc1_file), "-o", str(a)]) == 0
    assert main(["pipeline", str(uc1_file), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


_OVERLOADED = """
switch A
switch B
link A -> B
stream "s1" { src A dst B size 1500B period 200us criticality 3 route A,B }
stream "s2" { src A dst B size 1500B period 200us criticality 3 route A,B }
"""


def test_pipeline_infeasible_exits_2(tmp_path, capsys):
    path = tmp_path / "overloaded.fog"
    path.write_text(_OVERLOADED)
    out = tmp_path / "report.json"
    code = main(["pipeline", str(path), "-o", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["net"] == {"infeasible": "no feasible offset assignment",
                             "unplaced": ["s2"], "gave_up": False}
    assert main(["net-schedule", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "infeasible: no feasible offset assignment\n")


_TIGHT = "switch A\nswitch B\nlink A -> B\n" + "".join(
    f'stream "f{i}" {{ src A dst B size 64B period 1ms criticality 3 route A,B }}\n'
    for i in range(7)) + (
    'stream "tight" { src A dst B size 1500B period 1ms deadline 100us\n'
    '                 criticality 0 route A,B }\n')


def test_deadline_below_the_lower_bound_is_infeasible(tmp_path, capsys):
    # 1500 B take 120 us on the wire, plus one 2 us hop: no offset can meet a
    # 100 us deadline. Without the check up front the search would backtrack
    # through the seven streams placed before it until its budget ran out.
    path = tmp_path / "tight.fog"
    path.write_text(_TIGHT)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["net-schedule", str(path)]) == 2
    assert capsys.readouterr().err == (
        "infeasible: stream tight: delay lower bound 122 us exceeds its "
        "deadline 100 us\n"
        "unplaced: tight\n")


def test_pipeline_marks_a_give_up(uc1_file, tmp_path, monkeypatch, capsys):
    def give_up(s):
        raise InfeasibleError("search budget of 3 placements exhausted",
                              unplaced=["S1 data"], gave_up=True)

    monkeypatch.setattr(pipeline, "synthesize_gcl", give_up)
    out = tmp_path / "report.json"
    assert main(["pipeline", str(uc1_file), "-o", str(out)]) == 2
    assert json.loads(out.read_text())["net"] == {
        "infeasible": "search budget of 3 placements exhausted",
        "unplaced": ["S1 data"], "gave_up": True}
    assert main(["net-schedule", str(uc1_file)]) == 2
    assert capsys.readouterr().err == (
        "gave up: search budget of 3 placements exhausted\n"
        "unplaced: S1 data\n")


# first-fit puts both 4 ms tasks on one core and has no room for the last
# 3 ms one, although {4, 3, 3} per core is a valid EDF partition
_FIRST_FIT_FAILS = "node E1 { cores 2 class 1 }\n" + "".join(
    f'app "{a}" on E1 {{ level 1 tasks 3 period 10ms util 1\n'
    f'  task "{a}0" wcet 4000us period 10ms\n'
    f'  task "{a}1" wcet 3000us period 10ms\n'
    f'  task "{a}2" wcet 3000us period 10ms }}\n' for a in "ab")


def test_failed_first_fit_is_a_give_up(tmp_path, capsys):
    path = tmp_path / "first_fit.fog"
    path.write_text(_FIRST_FIT_FAILS)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["node-schedule", str(path)]) == 2
    assert capsys.readouterr().err == (
        "gave up: cannot pack tasks onto 2 cores (total utilization 2.000)\n"
        "unplaced: b2\n")
    out = tmp_path / "report.json"
    assert main(["pipeline", str(path), "-o", str(out)]) == 2
    assert json.loads(out.read_text())["nodes"] == [{
        "infeasible": "cannot pack tasks onto 2 cores (total utilization 2.000)",
        "unplaced": ["b2"], "gave_up": True}]


@pytest.mark.parametrize("argv", [
    ["pipeline", "UC1", "--seed", "1"],
    ["net-schedule", "UC1", "--seed", "1"],
    ["validate", "UC1", "-o", "out.json"],
    ["validate", "UC1", "--output", "out.json"],
    ["pipeline", "UC1", "--d-hop", "0", "-o", "OUT"],
    ["net-schedule", "UC1", "--d-hop", "0", "-o", "OUT"],
    ["validate", "UC1", "--d-hop", "0"],
])
def test_removed_options_are_rejected(uc1_file, tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    argv = [{"UC1": str(uc1_file), "OUT": str(out)}.get(a, a) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unrecognized arguments: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["pipeline", "--help"],
                                  ["--version"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_net_schedule_subcommand(uc1_file, tmp_path):
    out = tmp_path / "net.json"
    assert main(["net-schedule", str(uc1_file), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    eds = {row["id"]: row["ed_us"] for row in doc["summary"]["streams"]}
    assert eds["S1 data"] == 60
    assert {p["port"] for p in doc["gcl"]} == {
        "S1->W1", "W1->E1", "S2->W1", "W1->E2", "S3->W2", "W2->E3",
        "S4->W2", "W2->E4", "S5->W3", "W3->E5", "E2->W1", "E5->W3",
        "W3->W2", "S6->W3", "E4->W2", "E3->W2", "W2->W1",
    }


def test_node_schedule_single_node(uc1_file, tmp_path):
    out = tmp_path / "nodes.json"
    assert main(["node-schedule", str(uc1_file), "--node", "E3",
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [n["node"] for n in doc["nodes"]] == ["E3"]
    assert doc["tables"][0]["major_frame_us"] == 30_000


def test_extensibility_subcommand(uc1_file, tmp_path):
    out = tmp_path / "ext.json"
    assert main(["extensibility", str(uc1_file), "--optimize",
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["cores"]) == 10
    for row in doc["cores"]:
        assert row["metric_optimized"] <= row["metric"]


def test_admit_subcommand_on_fixture_schedule(uc1_file, tmp_path):
    from fogweaver.fixtures import fixture_text

    sched = tmp_path / "base.json"
    sched.write_text(fixture_text("extensibility_base.json"))
    dyn = tmp_path / "dynamic.json"
    dyn.write_text(json.dumps({"tasks": [
        {"id": "app1", "wcet_us": 1020, "period_ms": 6},
        {"id": "app2", "wcet_us": 1040, "period_ms": 8},
        {"id": "app3", "wcet_us": 1500, "period_ms": 10},
        {"id": "app4", "wcet_us": 1560, "period_ms": 12},
    ]}))
    out = tmp_path / "admit.json"
    code = main(["admit", str(uc1_file), "--dynamic", str(dyn),
                 "--node", "E4", "--core", "2", "--horizon", "120",
                 "--schedule", str(sched), "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["admitted"]["app4"] is False
    assert any(m["deadline_us"] == 12_000 for m in doc["misses"])


def test_tesla_subcommand(uc1_file, tmp_path):
    out = tmp_path / "tesla.json"
    assert main(["tesla", str(uc1_file), "--interval", "1000",
                 "--disclosure", "1", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["security_tasks"] == 20
    assert len(doc["streams"]) == 10
    assert doc["avg_delta_us"] > 0


def _uc1_manifest() -> dict[str, dict[str, str]]:
    """sha256 of every file the uc1 pipeline writes with a chart directory,
    per chart format, read from the ``"<sha256>  <format>/<file>"`` lines
    that CI also checks with ``sha256sum -c`` under ``python -O``."""
    digests: dict[str, dict[str, str]] = {}
    manifest = pathlib.Path(__file__).with_name("uc1_outputs.sha256")
    for line in manifest.read_text(encoding="utf-8").splitlines():
        digest, path = line.split("  ")
        gantt_format, name = path.split("/")
        digests.setdefault(gantt_format, {})[name] = digest
    return digests


UC1_ARTEFACT_SHA256 = _uc1_manifest()
# a change to any reported figure changes the report's digest
UC1_REPORT_SHA256 = UC1_ARTEFACT_SHA256["svg"]["report.json"]


def test_uc1_manifest_pins_one_report_and_table_set():
    # the report and the JSON tables do not depend on the chart format
    json_files = [{name: digest for name, digest in files.items()
                   if name.endswith(".json")}
                  for files in UC1_ARTEFACT_SHA256.values()]
    assert sorted(UC1_ARTEFACT_SHA256) == ["ascii", "svg"]
    assert json_files[0] == json_files[1]
    assert len(json_files[0]) == 7


def test_run_pipeline_api(uc1_file, tmp_path):
    out = tmp_path / "report.json"
    code, report = run_pipeline(uc1_file, out=out)
    assert code == 0
    assert report["scenario"]["streams"] == 10
    assert hashlib.sha256(out.read_bytes()).hexdigest() == UC1_REPORT_SHA256


@pytest.mark.parametrize("gantt_format", ["svg", "ascii"])
def test_every_uc1_artefact_is_pinned(uc1_file, tmp_path, gantt_format):
    out = tmp_path / "out"
    out.mkdir()
    code, _ = run_pipeline(uc1_file, out=out / "report.json", gantt_dir=out,
                           gantt_format=gantt_format)
    assert code == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
    assert written == UC1_ARTEFACT_SHA256[gantt_format]


def _net_from_files(summary: dict, gcl: list[dict], d_hop) -> NetSchedule:
    """The network schedule a written GCL and its summary describe."""
    windows = tuple(FrameWindow(port["port"], e["stream"], e["instance"],
                                time_from_json(e["open_us"]),
                                time_from_json(e["close_us"]))
                    for port in gcl for e in port["entries"])
    rows = summary["streams"]
    return NetSchedule(
        summary["cycle_us"], d_hop,
        {r["id"]: time_from_json(r["offset_us"]) for r in rows}, windows,
        {r["id"]: StreamTiming(time_from_json(r["ed_us"]),
                               time_from_json(r["jitter_us"])) for r in rows})


def test_written_uc1_files_verify(uc1, uc1_net, uc1_file, tmp_path):
    # what is written, read back: gcl.json with the report's offsets, delays
    # and jitters, and every node table
    assert run_pipeline(uc1_file, out=tmp_path / "report.json",
                        gantt_dir=tmp_path)[0] == 0
    report = json.loads((tmp_path / "report.json").read_text())
    gcl = json.loads((tmp_path / "gcl.json").read_text())
    ns = _net_from_files(report["net"], gcl, uc1.params.d_hop_us)
    assert verify_net_schedule(ns, uc1).ok
    assert set(ns.windows) == set(uc1_net.windows)
    assert (ns.offsets, ns.per_stream) == (uc1_net.offsets, uc1_net.per_stream)
    tables = sorted(tmp_path.glob("node_*.json"))
    assert [p.stem for p in tables] == [f"node_{n['node']}" for n in report["nodes"]]
    for path in tables:
        table = node_schedule_from_json(json.loads(path.read_text()))
        assert verify_node_schedule(table).ok, path.name


@pytest.mark.parametrize("d_hop", [0, 2, Fraction(3, 10)])
def test_written_net_schedules_verify(tmp_path, d_hop):
    rng = random.Random(f"written {d_hop}")
    checked = 0
    for i in range(12):
        s = line_scenario(rng, d_hop=d_hop)
        try:  # keep the scenarios a small search schedules
            synthesize_gcl(s, node_budget=2000)
        except InfeasibleError:
            continue
        fog, out, gantt = (tmp_path / f"{i}.fog", tmp_path / f"{i}.json",
                           tmp_path / f"gantt{i}")
        fog.write_text(scenario_to_text(s))
        assert main(["net-schedule", str(fog), "-o", str(out),
                     "--gantt", str(gantt)]) == 0
        summary = json.loads(out.read_text())["summary"]
        gcl = json.loads((gantt / "gcl.json").read_text())
        assert verify_net_schedule(_net_from_files(summary, gcl, s.params.d_hop_us),
                                   s).ok
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("command, verifier", [
    ("net-schedule", "verify_net_schedule"),
    ("node-schedule", "verify_node_schedule"),
])
def test_failed_verification_exits_2_before_writing(
        uc1_file, tmp_path, monkeypatch, capsys, command, verifier):
    broken = Report((Violation("overlap", "x", "injected"),))
    monkeypatch.setattr(pipeline, verifier, lambda *args: broken)
    out, gantt = tmp_path / "out.json", tmp_path / "gantt"
    assert main([command, str(uc1_file), "-o", str(out),
                 "--gantt", str(gantt)]) == 2
    assert "[overlap] x: injected" in capsys.readouterr().err
    assert not out.exists()
    assert not gantt.exists()


@pytest.mark.parametrize("command, extra", [
    ("validate", []),
    ("net-schedule", []),
    ("node-schedule", []),
    ("extensibility", ["--optimize"]),
    ("admit", ["--dynamic", "DYN", "--node", "E1", "--core", "0",
               "--horizon", "10"]),
    ("tesla", []),
    ("pipeline", []),
])
def test_invalid_scenario_returns_1(tmp_path, capsys, command, extra):
    bad = tmp_path / "bad.fog"
    bad.write_text('node E1 { cores 2 class 1 }\n'
                   'app "a" on E1 { level 1 tasks 1 period 10ms util 1.2 }\n')
    dyn = tmp_path / "dynamic.json"
    dyn.write_text(json.dumps({"tasks": []}))
    argv = [command, str(bad)] + [str(dyn) if a == "DYN" else a for a in extra]
    assert main(argv) == 1  # returned, not raised as SystemExit
    assert "utilization" in capsys.readouterr().err


@pytest.mark.parametrize("verifier, written", [
    ("verify_net_schedule", set()),
    ("verify_node_schedule", {"net.svg", "gcl.json"}),
])
def test_pipeline_rejected_schedule_exits_2(uc1_file, tmp_path, monkeypatch,
                                            verifier, written):
    broken = Report((Violation("overlap", "x", "injected"),))
    monkeypatch.setattr(pipeline, verifier, lambda *args: broken)
    out, gantt = tmp_path / "report.json", tmp_path / "gantt"
    assert main(["pipeline", str(uc1_file), "-o", str(out),
                 "--gantt", str(gantt)]) == 2
    report = json.loads(out.read_text())
    rejected = (report["net"] if verifier == "verify_net_schedule"
                else report["nodes"][0])
    assert rejected["verification"] == ["[overlap] x: injected"]
    assert report["extensibility"] is None and report["tesla"] is None
    assert {p.name for p in gantt.iterdir()} == written


def _reject_secured_schedule(monkeypatch):
    """Make the second network verification, the secured one, fail."""
    real = pipeline.verify_net_schedule
    calls = []

    def verify(ns, s):
        calls.append(s)
        if len(calls) == 2:
            return Report((Violation("overlap", "x", "injected"),))
        return real(ns, s)

    monkeypatch.setattr(pipeline, "verify_net_schedule", verify)
    return calls


def test_pipeline_rejected_secured_schedule_exits_2(uc1_file, tmp_path,
                                                    monkeypatch):
    calls = _reject_secured_schedule(monkeypatch)
    out, gantt = tmp_path / "report.json", tmp_path / "gantt"
    assert main(["pipeline", str(uc1_file), "-o", str(out),
                 "--gantt", str(gantt)]) == 2
    assert len(calls) == 2
    assert max(st.size_bytes for st in calls[1].streams) \
        > max(st.size_bytes for st in calls[0].streams)  # the grown frames
    report = json.loads(out.read_text())
    assert report["net"]["verification"] == "clean"
    assert report["tesla"]["verification"] == ["[overlap] x: injected"]
    # the plain schedules passed their verifiers, so their files are written
    assert "gcl.json" in {p.name for p in gantt.iterdir()}


def test_tesla_rejected_secured_schedule_exits_2(uc1_file, tmp_path,
                                                 monkeypatch, capsys):
    _reject_secured_schedule(monkeypatch)
    out = tmp_path / "tesla.json"
    assert main(["tesla", str(uc1_file), "-o", str(out)]) == 2
    assert capsys.readouterr().err == \
        "verification failed: [overlap] x: injected\n"
    assert not out.exists()


def test_tesla_block_equals_the_pipeline_block(uc1_file, tmp_path):
    out = tmp_path / "tesla.json"
    assert main(["tesla", str(uc1_file), "-o", str(out)]) == 0
    _, report = run_pipeline(uc1_file)
    assert json.loads(out.read_text()) == report["tesla"]
    assert "verification" not in report["tesla"]


def _admit(core="0", horizon="30"):
    return ["admit", "UC1", "--dynamic", "DYN", "--node", "E4", "--core", core,
            "--horizon", horizon]


_ONE_TASK = {"tasks": [{"id": "d", "wcet_us": 100, "period_ms": 10}]}


@pytest.mark.parametrize("argv, dynamic", [
    (["tesla", "UC1", "--interval", "0"], None),
    (["tesla", "UC1", "--disclosure", "-1"], None),
    (_admit(), {}),
    (_admit(), {"tasks": [{"wcet_us": 100, "period_ms": 10}]}),
    (_admit(), {"tasks": [{"id": None, "wcet_us": 100, "period_ms": 10}]}),
    (_admit(), {"tasks": [{"id": 7, "wcet_us": 100, "period_ms": 10}]}),
    (_admit(), {"tasks": [{"id": "d", "period_ms": 10}]}),
    (_admit(), {"tasks": [{"id": "d", "wcet_us": 100}]}),
    # JSON true is no whole number, though Python's bool is an int
    (_admit(), {"tasks": [{"id": "d", "wcet_us": 100, "period_us": True}]}),
    (_admit(), {"tasks": [{"id": "d", "wcet_us": 100, "period_ms": True}]}),
    (_admit(), {"tasks": [{"id": "d", "wcet_us": 100, "period_ms": 10,
                           "deadline_us": True}]}),
    (_admit(horizon="0"), _ONE_TASK),
    (_admit(core="7"), _ONE_TASK),  # E4 has two cores
    (_admit(), {"tasks": [_ONE_TASK["tasks"][0]] * 2}),
    # usage errors: exit 1, never argparse's 2, which would read as infeasible
    ([], None),
    (["pipeline"], None),
    (_admit(core="x"), _ONE_TASK),
    (["net-schedule", "UC1", "--format", "png"], None),
], ids=["interval-0", "disclosure-negative", "no-tasks", "no-id", "id-null",
        "id-int", "no-wcet",
        "no-period", "period-us-true", "period-ms-true", "deadline-true",
        "horizon-0", "core-7", "duplicate-id", "no-command", "no-scenario",
        "core-not-int", "format-png"])
def test_bad_input_exits_1_with_one_line(uc1_file, tmp_path, capsys,
                                         argv, dynamic):
    dyn = tmp_path / "dynamic.json"
    dyn.write_text(json.dumps(dynamic))
    argv = [{"UC1": str(uc1_file), "DYN": str(dyn)}.get(a, a) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def _admit_schedule(uc1_file, tmp_path, schedule_text):
    dyn = tmp_path / "dynamic.json"
    dyn.write_text(json.dumps(_ONE_TASK))
    sched = tmp_path / "schedule.json"
    sched.write_text(schedule_text)
    out = tmp_path / "admit.json"
    code = main(["admit", str(uc1_file), "--dynamic", str(dyn), "--node", "E4",
                 "--core", "0", "--horizon", "30", "--schedule", str(sched),
                 "-o", str(out)])
    return code, out


def _base_schedule_doc():
    from fogweaver.fixtures import fixture_text

    return json.loads(fixture_text("extensibility_base.json"))


def _corrupt(**changes):
    doc = _base_schedule_doc()
    doc.update(changes)
    return json.dumps(doc)


def _corrupt_task(key, value):
    doc = _base_schedule_doc()
    next(iter(doc["tasks"].values()))[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize("schedule_text", [
    "{}",
    "not json",
    "[]",
    _corrupt(cores=5),
    _corrupt(major_frame_us="120000"),
    _corrupt(tasks=[]),
    _corrupt(cores=[{"core": -1}]),
    _corrupt_task("wcet_us", True),
    _corrupt_task("period_us", True),
], ids=["empty", "not-json", "list", "cores-int", "frame-string",
        "tasks-list", "core-negative", "wcet-true", "period-true"])
def test_admit_rejects_malformed_schedule_file(uc1_file, tmp_path, capsys,
                                               schedule_text):
    code, out = _admit_schedule(uc1_file, tmp_path, schedule_text)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_admit_verifies_a_loaded_schedule(uc1_file, tmp_path, capsys):
    doc = _base_schedule_doc()
    missing = next(iter(doc["tasks"]))
    del doc["tasks"][missing]
    code, out = _admit_schedule(uc1_file, tmp_path, json.dumps(doc))
    assert code == 2
    err = capsys.readouterr().err
    assert "verification failed: [reference] " + missing in err
    assert not out.exists()


def test_admit_rejects_a_zero_frame_with_slices(uc1_file, tmp_path, capsys):
    # admitting over such a table would tile a frame of 0 us
    doc = _base_schedule_doc()
    doc["major_frame_us"] = 0
    doc["per_core_utilization"] = [0] * len(doc["per_core_utilization"])
    code, out = _admit_schedule(uc1_file, tmp_path, json.dumps(doc))
    assert code == 2
    assert "which the major frame of 0 us does not hold" in capsys.readouterr().err
    assert not out.exists()
