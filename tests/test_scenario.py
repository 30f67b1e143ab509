from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fogweaver import scenario
from fogweaver.cli import main
from fogweaver.dsl import parse_scenario
from fogweaver.errors import FogweaverError, ScenarioSyntaxError
from fogweaver.scenario import (
    ApplicationSpec,
    FogNodeSpec,
    LinkSpec,
    Scenario,
    StreamSpec,
    SwitchSpec,
    TaskSpec,
    expand_tasks,
    hyperperiod,
    scenario_to_text,
    validate,
)
from fogweaver.units import fraction_to_decimal


def test_uc1_counts(uc1):
    assert len(uc1.streams) == 10
    assert len(uc1.applications) == 15
    assert len(uc1.nodes) == 5
    assert len(uc1.switches) == 3
    assert len(uc1.endpoints) == 6


def test_empty_document():
    s = parse_scenario("")
    assert s.nodes == () and s.streams == () and s.applications == ()


def test_comment_only_document():
    s = parse_scenario("# nothing here\n\n# still nothing\n")
    assert s == Scenario()


def test_unknown_route_entity_rejected():
    text = """
    switch W1
    node E1 { cores 2 class 1 }
    endpoint S1 { kind sensor }
    link S1 -> W1
    link W1 -> E1
    stream "x" { src S1 dst E1 size 100B period 1ms criticality 0 route S1,W9,W8,E1 }
    """
    assert [str(v) for v in validate(parse_scenario(text))] == [
        "[unknown-reference] x: undeclared entity 'W9'",
        "[unknown-reference] x: undeclared entity 'W8'"]


def test_duplicate_identifier_rejected():
    s = parse_scenario("switch W1\nnode W1 { cores 2 class 1 }")
    assert [str(v) for v in validate(s)] == [
        "[duplicate-id] W1: declared as node and switch"]


def test_lookups_return_the_first_of_duplicates():
    first, second = (StreamSpec("s", "A", "B", 64, 1000, 1, ("A", "B")),
                     StreamSpec("s", "A", "B", 128, 2000, 2, ("A", "B")))
    s = Scenario(switches=(SwitchSpec("A"), SwitchSpec("B")),
                 links=(LinkSpec("A", "B", 10**6), LinkSpec("A", "B", 10**7)),
                 streams=(first, second))
    assert s.stream("s") is first
    assert s.link("A", "B").rate_bps == 10**6
    assert s.link("B", "A") is None
    with pytest.raises(KeyError):
        s.stream("t")
    assert [str(v) for v in validate(s)] == [
        "[duplicate-id] s: stream declared more than once",
        "[duplicate-id] A->B: link declared more than once"]


def test_syntax_error_carries_position():
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse_scenario("switch W1\nnode !")
    assert exc.value.line == 2


def test_app_must_run_on_fog_node():
    text = 'switch W1\napp "a" on W1 { level 1 tasks 1 period 10ms util 0.5 }'
    assert [str(v) for v in validate(parse_scenario(text))] == [
        "[unknown-reference] a: undeclared fog node 'W1'"]


def test_defaults_filled(uc1):
    st1 = uc1.stream("S1 data")
    assert st1.deadline_us == st1.period_us  # deadline defaults to period
    assert all(l.rate_bps == 100_000_000 for l in uc1.links)
    assert uc1.params.d_hop_us == 2


# -- validate ---------------------------------------------------------------


def test_validate_uc1_is_clean(uc1):
    assert validate(uc1).ok


def test_validate_deadline_exceeding_period():
    s = Scenario(
        nodes=(FogNodeSpec("E1"),),
        switches=(SwitchSpec("W1"),),
        links=(LinkSpec("W1", "E1"),),
        streams=(StreamSpec("x", "W1", "E1", 100, 1000, 0, ("W1", "E1"),
                            deadline_us=2000),),
    )
    report = validate(s)
    assert [v.kind for v in report] == ["deadline"]


def test_validate_utilization_out_of_range():
    s = Scenario(
        nodes=(FogNodeSpec("E1"),),
        applications=(ApplicationSpec("a", "E1", 1, 1, 10_000, Fraction("1.2")),),
    )
    report = validate(s)
    assert [v.kind for v in report] == ["utilization"]


def test_validate_missing_link_in_route():
    s = Scenario(
        nodes=(FogNodeSpec("E1"),),
        switches=(SwitchSpec("W1"),),
        links=(LinkSpec("W1", "E1"),),
        streams=(StreamSpec("x", "E1", "W1", 100, 1000, 0, ("E1", "W1")),),
    )
    assert "no-such-link" in validate(s).kinds()


def test_validate_explicit_task_mismatch():
    app = ApplicationSpec(
        "a", "E1", 1, 2, 10_000, Fraction("0.5"),
        tasks=(TaskSpec("t0", Fraction(1000), 10_000),
               TaskSpec("t1", Fraction(1000), 10_000)),  # sums to 0.2, not 0.5
    )
    s = Scenario(nodes=(FogNodeSpec("E1"),), applications=(app,))
    assert "utilization-mismatch" in validate(s).kinds()


_ONE_TASK_ID_TWICE = """
node N { cores 2 class 1 }
node M { cores 1 class 1 }
app "a" on N { level 1 tasks 1 period 10ms util 0.6 task t wcet 6000us period 10ms }
app "b" on N { level 1 tasks 1 period 10ms util 0.6 task t wcet 6000us period 10ms }
app "c" on M { level 1 tasks 1 period 10ms util 0.6 task t wcet 6000us period 10ms }
"""


def test_validate_rejects_one_task_id_twice_on_a_node(tmp_path, capsys):
    # each core of N could run one of the two tasks, but a node schedule
    # maps a task id to one core; the same id on another node is fine
    s = parse_scenario(_ONE_TASK_ID_TWICE)
    assert [str(v) for v in validate(s)] == [
        "[duplicate-id] t: task declared 2 times on node N (applications a, b)"]
    path = tmp_path / "twice.fog"
    path.write_text(_ONE_TASK_ID_TWICE)
    assert main(["node-schedule", str(path)]) == 1
    assert "[duplicate-id] t" in capsys.readouterr().err


def test_validate_rejects_a_generated_id_that_an_explicit_task_takes():
    s = parse_scenario("""
node N { cores 2 class 1 }
app "b" on N { level 1 tasks 1 period 10ms util 0.1
               task "a/t0" wcet 1000us period 10ms }
app "a" on N { level 1 tasks 1 period 10ms util 0.1 }
""")
    assert [str(v) for v in validate(s)] == [
        "[duplicate-id] a/t0: task declared 2 times on node N (applications b, a)"]


def test_validate_lists_each_task_id_taken_twice_in_order():
    s = parse_scenario("""
node N { cores 2 class 1 }
app "a" on N { level 1 tasks 2 period 10ms util 0.1
               task x wcet 500us period 10ms task y wcet 500us period 10ms }
app "b" on N { level 1 tasks 1 period 10ms util 0.1 task x wcet 1000us period 10ms }
app "c" on N { level 1 tasks 1 period 10ms util 0.1 task y wcet 1000us period 10ms }
""")
    assert [str(v) for v in validate(s)] == [
        "[duplicate-id] x: task declared 2 times on node N (applications a, b)",
        "[duplicate-id] y: task declared 2 times on node N (applications a, c)"]


def test_validate_names_task_ids_of_one_app_id_twice_and_no_count():
    s = parse_scenario("""
node N { cores 2 class 1 }
app "a" on N { level 1 tasks 2 period 10ms util 0.1 }
app "a" on N { level 1 tasks 1 period 10ms util 0.1 }
app "z" on N { level 1 tasks 0 period 10ms util 0.1 }
app "y" on N { level 1 tasks 1 period 10ms util 0.1 }
""")
    s = replace(s, applications=(*s.applications[:3],
                                 replace(s.applications[3], task_count=-1)))
    assert [str(v) for v in validate(s)] == [
        "[duplicate-id] a: application declared more than once",
        "[task-count] z: task count must be >= 1, got 0",
        "[task-count] y: task count must be >= 1, got -1",
        "[duplicate-id] a/t0: task declared 2 times on node N (applications a, a)"]


def test_validate_builds_no_tasks(uc1, monkeypatch):
    # validate counts task ids, so a file with a huge task count is cheap
    # to reject or accept
    def build(app):
        raise AssertionError(f"validate built the tasks of {app.id}")

    monkeypatch.setattr(scenario, "expand_tasks", build)
    assert validate(uc1).ok
    big = replace(uc1, applications=(replace(uc1.applications[0],
                                             task_count=100_000),))
    assert validate(big).ok


# -- hyperperiod ------------------------------------------------------------


def test_hyperperiod_table():
    assert hyperperiod([10_000, 20_000, 30_000, 50_000]) == 300_000
    assert hyperperiod([10_000]) == 10_000
    assert hyperperiod([6_000, 8_000, 10_000, 12_000, 15_000]) == 120_000


def test_hyperperiod_empty_input():
    with pytest.raises(FogweaverError,
                       match="^hyperperiod of an empty period set$"):
        hyperperiod([])


def test_hyperperiod_rejects_nonpositive():
    with pytest.raises(ValueError):
        hyperperiod([10, 0])


# -- expand_tasks -----------------------------------------------------------


def test_expand_equal_split_m1(uc1):
    app = next(a for a in uc1.applications if a.id == "m1 control")
    tasks = expand_tasks(app)
    assert len(tasks) == 3
    assert all(t.wcet_us == Fraction(3500, 3) for t in tasks)  # ~1166.67 us
    total = sum((t.wcet_us / t.period_us for t in tasks), Fraction(0))
    assert total == app.utilization  # exact, not just within 1e-9


def test_expand_equal_split_database_access(uc1):
    app = next(a for a in uc1.applications if a.id == "Database access")
    tasks = expand_tasks(app)
    assert len(tasks) == 8
    assert all(t.wcet_us == Fraction("1106.25") for t in tasks)


def test_expand_explicit_tasks_returned_unchanged():
    explicit = (TaskSpec("t0", Fraction(1500), 10_000),)
    app = ApplicationSpec("a", "E1", 1, 1, 10_000, Fraction("0.15"),
                          tasks=explicit)
    assert tuple(expand_tasks(app)) == explicit


@given(
    task_count=st.integers(1, 12),
    period_ms=st.sampled_from([4, 5, 6, 8, 10, 12, 15, 20]),
    util=st.fractions(min_value=Fraction(1, 100), max_value=1),
)
def test_expand_preserves_utilization(task_count, period_ms, util):
    app = ApplicationSpec("a", "E1", 1, task_count, period_ms * 1000, util)
    tasks = expand_tasks(app)
    assert len(tasks) == task_count
    assert sum((t.wcet_us / t.period_us for t in tasks), Fraction(0)) == util


# -- print/parse round-trip ---------------------------------------------------


def test_uc1_round_trip(uc1):
    assert parse_scenario(scenario_to_text(uc1)) == uc1


def test_round_trip_with_explicit_tasks_and_rates():
    text = """
    switch W1
    node E1 { cores 4 class 2 }
    endpoint S1 { kind actuator }
    link S1 -> W1 rate 1000Mbps
    link W1 -> E1
    params { d_hop 1us weight_base 3 seed 7 }
    stream "s" { src S1 dst E1 size 64B period 2ms deadline 1ms criticality 4 route S1,W1,E1 }
    app "a" on E1 { level 2 tasks 2 period 10ms util 0.25
                    task t0 wcet 1000us period 10ms
                    task t1 wcet 1500us period 10ms deadline 8ms }
    """
    s = parse_scenario(text)
    assert s.params.d_hop_us == 1
    assert s.links[0].rate_bps == 10**9
    printed = scenario_to_text(s)
    assert parse_scenario(printed) == s
    # old files' weight_base and seed parse, but nothing reads them
    assert "weight_base" not in printed and "seed" not in printed


def test_printer_rejects_a_value_with_no_decimal_form(uc1):
    assert fraction_to_decimal(Fraction(-7, 40)) == "-0.175"
    with pytest.raises(ValueError, match="1/3"):
        scenario_to_text(replace(uc1, params=replace(uc1.params,
                                                     d_hop_us=Fraction(1, 3))))


_IDS = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def scenarios(draw):
    """Small structurally-consistent scenarios for round-trip testing."""
    node_ids = draw(st.sets(st.sampled_from(["E1", "E2", "E3"]),
                            min_size=1, max_size=3))
    switch_ids = draw(st.sets(st.sampled_from(["W1", "W2"]), max_size=2))
    nodes = tuple(FogNodeSpec(n, draw(st.integers(1, 4)),
                              draw(st.sampled_from([1, 2, 3])))
                  for n in sorted(node_ids))
    switches = tuple(SwitchSpec(w) for w in sorted(switch_ids))
    entity_ids = sorted(node_ids | switch_ids)
    pairs = [(a, b) for a in entity_ids for b in entity_ids if a != b]
    link_pairs = draw(st.sets(st.sampled_from(pairs), max_size=4)) if pairs else set()
    links = tuple(LinkSpec(a, b) for a, b in sorted(link_pairs))
    streams = []
    for i, link in enumerate(links[:2]):
        period = draw(st.sampled_from([1000, 2000, 5000]))
        streams.append(StreamSpec(f"st{i}", link.src, link.dst,
                                  draw(st.integers(1, 1500)), period,
                                  draw(st.integers(0, 4)),
                                  (link.src, link.dst)))
    apps = []
    for i in range(draw(st.integers(0, 2))):
        node = draw(st.sampled_from(sorted(node_ids)))
        apps.append(ApplicationSpec(
            f"app{i}", node, draw(st.integers(0, 4)), draw(st.integers(1, 3)),
            draw(st.sampled_from([5000, 10_000])),
            Fraction(draw(st.integers(1, 100)), 100)))
    return Scenario(nodes=nodes, switches=switches, links=links,
                    streams=tuple(streams), applications=tuple(apps))


@given(scenarios())
def test_round_trip_random(s):
    assert parse_scenario(scenario_to_text(s)) == s
