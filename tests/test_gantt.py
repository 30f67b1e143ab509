import random
from dataclasses import replace
from fractions import Fraction

import pytest

from gcl_reference import reference_emit_gantt
from genutil import line_scenario, mutate_node_schedule
from fogweaver.errors import InfeasibleError
from fogweaver.fixtures import extensibility_schedule
from fogweaver.gantt import emit_gantt
from fogweaver.scenario import Scenario
from fogweaver.gclsched import synthesize_gcl

FORMATS = ("ascii", "svg")


def test_every_window_listed_exactly_once(uc1_net):
    text = emit_gantt(uc1_net, "ascii")
    listed = [line for line in text.splitlines() if line.startswith("  [")]
    assert len(listed) == len(uc1_net.windows)
    svg = emit_gantt(uc1_net, "svg")
    assert svg.count('<rect') == len(uc1_net.windows)


def test_every_slice_listed_exactly_once(uc1_node_schedules):
    ns = uc1_node_schedules[0]
    text = emit_gantt(ns, "ascii")
    listed = [line for line in text.splitlines() if line.startswith("  [")]
    assert len(listed) == len(ns.slices)
    svg = emit_gantt(ns, "svg")
    total_windows = sum(len(p.windows) for p in ns.partitions)
    assert svg.count("<rect") == len(ns.slices) + total_windows


def test_empty_schedule_axis_only():
    ns = synthesize_gcl(Scenario())
    text = emit_gantt(ns, "ascii")
    assert "network schedule" in text
    assert not any(line.startswith("  [") for line in text.splitlines())
    assert emit_gantt(ns, "svg").startswith("<svg")


def test_partitions_rendered_as_outlines(uc1_node_schedules):
    ns = uc1_node_schedules[0]
    text = emit_gantt(ns, "ascii")
    outlines = [l for l in text.splitlines() if l.startswith("  (partition)")]
    assert len(outlines) == sum(len(p.windows) for p in ns.partitions)
    assert 'stroke-dasharray' in emit_gantt(ns, "svg")


def test_preemption_continuation_marked(uc1_node_schedules):
    # E2 hosts a task that is preempted and resumes, so at least one slice
    # carries the continuation mark
    for ns in uc1_node_schedules:
        split_jobs = {}
        for sl in ns.slices:
            split_jobs[(sl.task, sl.job_index)] = \
                split_jobs.get((sl.task, sl.job_index), 0) + 1
        if any(v > 1 for v in split_jobs.values()):
            assert " >" in emit_gantt(ns, "ascii")
            return
    pytest.fail("no preempted job in any UC1 node schedule")


def test_fixture_core_renders_with_its_tasks():
    from fogweaver.fixtures import extensibility_schedule

    ns = extensibility_schedule("base")  # node E4, workload on core 2
    text = emit_gantt(ns, "ascii")
    assert "core 2:" in text
    assert "log sink/t0 #0" in text and "log rotate/t0 #1" in text


def test_unknown_format_rejected(uc1_net):
    with pytest.raises(ValueError):
        emit_gantt(uc1_net, "png")


def test_rendering_is_deterministic(uc1_net, uc1_node_schedules):
    assert emit_gantt(uc1_net, "svg") == emit_gantt(uc1_net, "svg")
    ns = uc1_node_schedules[2]
    assert emit_gantt(ns, "ascii") == emit_gantt(ns, "ascii")


# emit_gantt scales each schedule's times to whole multiples of 1/D us; the
# Fraction renderer in gcl_reference is the oracle for every byte


@pytest.mark.parametrize("fmt", FORMATS)
def test_charts_match_reference_on_uc1(uc1_net, uc1_node_schedules, fmt):
    for schedule in (uc1_net, *uc1_node_schedules,
                     extensibility_schedule("base"),
                     extensibility_schedule("optimized")):
        assert emit_gantt(schedule, fmt) == reference_emit_gantt(schedule, fmt)


@pytest.mark.parametrize("d_hop", (0, Fraction(3, 10), Fraction(1, 3)))
def test_net_charts_match_reference_on_line_networks(d_hop):
    rng = random.Random(f"gantt {d_hop}")
    checked = 0
    for _ in range(30):
        s = line_scenario(rng, d_hop=d_hop)
        try:
            ns = synthesize_gcl(s, node_budget=2000)
        except InfeasibleError:
            continue
        for fmt in FORMATS:
            assert emit_gantt(ns, fmt) == reference_emit_gantt(ns, fmt)
        checked += 1
    assert checked >= 10


def test_net_charts_match_reference_on_tied_opens():
    # windows of one link that open together are ordered by stream
    rng = random.Random(9)
    for _ in range(40):
        s = line_scenario(rng, d_hop=Fraction(1, 3))
        try:
            ns = synthesize_gcl(s, node_budget=2000)
        except InfeasibleError:
            continue
        windows = list(ns.windows)
        for _ in range(3):
            i, j = rng.randrange(len(windows)), rng.randrange(len(windows))
            windows[i] = replace(windows[i], link=windows[j].link,
                                 open_us=windows[j].open_us)
        mutant = replace(ns, windows=tuple(windows))
        for fmt in FORMATS:
            assert emit_gantt(mutant, fmt) == reference_emit_gantt(mutant, fmt)


def test_node_charts_match_reference_on_mutants(uc1_node_schedules):
    # off-grid times such as 1/7 us, inverted slices and foreign cores
    rng = random.Random(5)
    for _ in range(100):
        ns = rng.choice(uc1_node_schedules)
        for _ in range(rng.randint(1, 3)):
            ns = mutate_node_schedule(rng, ns)
        for fmt in FORMATS:
            assert emit_gantt(ns, fmt) == reference_emit_gantt(ns, fmt)
