import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from gcl_reference import demand_fits, rebuild_partitions
from genutil import random_apps
from fogweaver.errors import InfeasibleError
from fogweaver.extensibility import optimize_extensibility
from fogweaver.fixtures import extensibility_schedule
from fogweaver.nodesched import (
    map_to_cores,
    node_schedule_from_json,
    node_schedule_to_json,
    node_tasks,
    synthesize_node_schedule,
    utilization_report,
    verify_node_schedule,
    with_layouts,
)
from fogweaver.scenario import ApplicationSpec, FogNodeSpec, TaskSpec
from fogweaver.units import time_base, to_ticks


def _app(name, node, level, tasks, period_us, util):
    return ApplicationSpec(name, node, level, tasks, period_us, Fraction(util))


# -- partitions ---------------------------------------------------------------


def _single_core_partitions(apps):
    node = FogNodeSpec("N", cores=1)
    mapping = {t.id: 0 for t in node_tasks(apps)}
    return synthesize_node_schedule(node, apps, mapping).partitions


def test_one_partition_per_level():
    apps = [_app("a", "N", 3, 1, 10_000, "0.1"),
            _app("b", "N", 2, 1, 10_000, "0.1"),
            _app("c", "N", 1, 1, 10_000, "0.1")]
    parts = _single_core_partitions(apps)
    assert sorted(p.criticality for p in parts) == [1, 2, 3]


def test_single_level_single_partition():
    apps = [_app(f"a{i}", "N", 3, 1, 10_000, "0.1") for i in range(4)]
    parts = _single_core_partitions(apps)
    assert len(parts) == 1 and parts[0].criticality == 3


def test_no_apps_no_partitions():
    assert _single_core_partitions([]) == ()


# -- core mapping -------------------------------------------------------------


def test_map_e3_apps_fits_two_cores(uc1):
    apps = list(uc1.apps_on("E3"))
    mapping = map_to_cores(apps, 2)
    per_core = [Fraction(0), Fraction(0)]
    for t in node_tasks(apps):
        per_core[mapping[t.id]] += t.utilization
    assert all(u <= 1 for u in per_core)
    assert sum(per_core) == Fraction("1.48")  # all four E3 apps


def test_map_single_task():
    mapping = map_to_cores([_app("a", "N", 3, 1, 10_000, "0.35")], 1)
    assert mapping == {"a/t0": 0}


def test_map_overload_is_infeasible():
    apps = [_app("a", "N", 1, 2, 10_000, "1.0"),
            _app("b", "N", 1, 2, 10_000, "1.0"),
            _app("c", "N", 1, 1, 10_000, "0.4")]
    with pytest.raises(InfeasibleError) as exc:
        map_to_cores(apps, 2)
    assert exc.value.unplaced
    assert not exc.value.gave_up  # utilization 2.4 on 2 cores: a proof


def test_map_first_fit_failure_is_a_give_up():
    # first-fit puts both 4 ms tasks on core 0 and has no room for the last
    # 3 ms one, although {4, 3, 3} per core is a valid EDF partition
    apps = [ApplicationSpec(a, "N", 1, 3, 10_000, Fraction(1),
                            tuple(TaskSpec(f"{a}/t{k}", wcet, 10_000)
                                  for k, wcet in enumerate((4000, 3000, 3000))))
            for a in ("a", "b")]
    with pytest.raises(InfeasibleError) as exc:
        map_to_cores(apps, 2)
    assert exc.value.gave_up
    assert exc.value.unplaced == ("b/t2",)
    assert _synthesizes(apps, 2, {"a/t0": 0, "a/t1": 0, "a/t2": 0,
                                  "b/t0": 1, "b/t1": 1, "b/t2": 1})


def _task_app(task_id, wcet_us, period_us, deadline_us, level=1):
    return ApplicationSpec(task_id, "N", level, 1, period_us,
                           Fraction(wcet_us) / period_us,
                           (TaskSpec(task_id, wcet_us, period_us, deadline_us),))


def _synthesizes(apps, cores, mapping):
    try:
        ns = synthesize_node_schedule(FogNodeSpec("N", cores=cores), apps,
                                      mapping)
    except InfeasibleError:
        return False
    assert verify_node_schedule(ns).ok
    return True


def test_map_constrained_deadlines_apart():
    # together the two tasks fit by utilization (0.8), but 8 ms of work is
    # due by 5 ms, so they need a core each
    apps = [_task_app("a.t", 4000, 10_000, 4000),
            _task_app("b.t", 4000, 10_000, 5000)]
    mapping = map_to_cores(apps, 2)
    assert mapping == {"a.t": 0, "b.t": 1}
    assert _synthesizes(apps, 2, mapping)


def _random_constrained_apps(rng, grid=10):
    """One-task apps, WCETs on ``1/grid`` us, most deadlines constrained."""
    apps = []
    for i in range(rng.randint(1, 6)):
        period = rng.choice((2000, 4000, 5000, 10_000))
        # up to 0.4 of the period
        wcet = Fraction(rng.randint(1, period * grid * 4 // 10), grid)
        deadline = (period if rng.random() < 0.3
                    else rng.randint(math.ceil(wcet), period))
        apps.append(_task_app(f"t{i}", wcet, period, deadline,
                              rng.randint(0, 4)))
    return apps


def test_map_accepts_a_core_exactly_when_edf_schedules_it():
    # the fit test runs EDF itself, so the verdict is also held to the
    # processor-demand test on Fraction
    rng = random.Random(17)
    seen = {"accepted": 0, "rejected": 0, "rejected at U <= 1": 0}
    for _ in range(300):
        apps = _random_constrained_apps(rng)
        try:
            mapping = map_to_cores(apps, 1)
        except InfeasibleError:
            mapping = None
        everything_on_0 = {a.tasks[0].id: 0 for a in apps}
        assert (mapping is not None) == _synthesizes(apps, 1, everything_on_0)
        tasks = node_tasks(apps)
        assert (mapping is not None) == (
            sum(t.utilization for t in tasks) <= 1 and demand_fits(tasks))
        if mapping is not None:
            seen["accepted"] += 1
        else:
            seen["rejected"] += 1
            seen["rejected at U <= 1"] += sum(a.utilization for a in apps) <= 1
    assert min(seen.values()) >= 20, seen


def test_every_mapping_synthesizes_on_up_to_three_cores():
    rng = random.Random(18)
    mapped = 0
    for _ in range(300):
        apps = _random_constrained_apps(rng)
        cores = rng.randint(1, 3)
        try:
            mapping = map_to_cores(apps, cores)
        except InfeasibleError:
            continue
        mapped += 1
        assert _synthesizes(apps, cores, mapping)
    assert mapped >= 150


def test_tasks_never_migrate(uc1):
    apps = list(uc1.apps_on("E3"))
    mapping = map_to_cores(apps, 2)
    node = uc1.node("E3")
    ns = synthesize_node_schedule(node, apps, mapping)
    for sl in ns.slices:
        assert sl.core == mapping[sl.task]


# -- synthesis ----------------------------------------------------------------


def test_single_task_layout():
    node = FogNodeSpec("N", cores=1)
    apps = [_app("a", "N", 2, 1, 10_000, "0.35")]
    ns = synthesize_node_schedule(node, apps, {"a/t0": 0})
    assert ns.major_frame_us == 10_000
    assert len(ns.partitions) == 1
    assert [(sl.start_us, sl.end_us) for sl in ns.slices] == [(0, 3500)]
    assert ns.per_core_utilization == (Fraction("0.35"),)


def test_uc1_e3_schedule_is_clean(uc1):
    node = uc1.node("E3")
    apps = list(uc1.apps_on("E3"))
    ns = synthesize_node_schedule(node, apps, map_to_cores(apps, node.cores))
    assert verify_node_schedule(ns).ok
    assert ns.major_frame_us == 30_000


def test_all_uc1_nodes_clean(uc1_node_schedules):
    assert len(uc1_node_schedules) == 5
    for ns in uc1_node_schedules:
        assert verify_node_schedule(ns).ok


def test_overloaded_core_is_infeasible():
    node = FogNodeSpec("N", cores=1)
    apps = [_app("a", "N", 1, 1, 10_000, "0.6"),
            _app("b", "N", 1, 1, 10_000, "0.6")]
    with pytest.raises(InfeasibleError):
        synthesize_node_schedule(node, apps, {"a/t0": 0, "b/t0": 0})


def test_conservation_per_task(uc1_node_schedules):
    for ns in uc1_node_schedules:
        for task in ns.tasks.values():
            total = sum((sl.duration_us for sl in ns.slices
                         if sl.task == task.id), Fraction(0))
            jobs = ns.major_frame_us // task.period_us
            assert total == jobs * task.wcet_us


def test_isolation_levels_match_partitions(uc1_node_schedules):
    for ns in uc1_node_schedules:
        parts = {p.id: p for p in ns.partitions}
        for sl in ns.slices:
            assert parts[sl.partition].criticality == ns.tasks[sl.task].criticality


# -- the layout builder --------------------------------------------------------


def _layouts(ns, stretch=1):
    """Each core's slices as ``(scale, runs)`` in ticks, the scale
    ``stretch`` times the time base of the core's slice bounds."""
    out = []
    for core in range(ns.cores):
        own = ns.core_slices(core)
        scale = stretch * time_base(t for sl in own for t in (sl.start_us, sl.end_us))
        out.append((scale, [(sl.task, sl.job_index, to_ticks(sl.start_us, scale),
                             to_ticks(sl.end_us, scale)) for sl in own]))
    return out


def _builder_cases(uc1_node_schedules):
    yield from uc1_node_schedules
    yield extensibility_schedule("base")
    yield extensibility_schedule("optimized")
    rng = random.Random(22)
    for _ in range(60):
        # equal splits such as 3500/3 us, and explicit WCETs on 1/3 us with
        # constrained deadlines
        apps = (random_apps(rng, "N", max_apps=2, max_tasks=3, total_util_limit=0.6)
                + _random_constrained_apps(rng, grid=3))
        cores = rng.randint(1, 3)
        try:
            mapping = map_to_cores(apps, cores)
        except InfeasibleError:
            continue
        yield synthesize_node_schedule(FogNodeSpec("N", cores=cores), apps, mapping)


def test_layout_builder_matches_the_reference(uc1_node_schedules):
    # the reference derives partitions from Fraction slices; the builder
    # merges windows on ticks of any scale, for synthesis and the optimizer
    seen = {"nodes": 0, "cores": 0, "moved": 0}
    for ns in _builder_cases(uc1_node_schedules):
        seen["nodes"] += 1
        seen["cores"] += ns.cores
        optimized = optimize_extensibility(ns)
        seen["moved"] += optimized is not ns
        for sched in (ns, optimized):
            stripped = replace(sched, partitions=(), slices=tuple(
                replace(sl, partition="") for sl in sched.slices))
            expected = rebuild_partitions(stripped)
            assert sched == expected
            for stretch in (1, 7):
                assert with_layouts(stripped, _layouts(sched, stretch)) == expected
    assert seen["nodes"] >= 40 and seen["moved"] >= 20, seen
    assert seen["cores"] > 2 * seen["nodes"], seen


# -- verifier mutation suite ----------------------------------------------------


@pytest.fixture()
def e3(uc1):
    node = uc1.node("E3")
    apps = list(uc1.apps_on("E3"))
    return synthesize_node_schedule(node, apps, map_to_cores(apps, node.cores))


def _mutate_slice(ns, index, **changes):
    slices = list(ns.slices)
    slices[index] = replace(slices[index], **changes)
    return replace(ns, slices=tuple(slices))


def test_verifier_flags_core_overlap(e3):
    target = e3.core_slices(0)[1]
    index = e3.slices.index(target)
    prev = e3.core_slices(0)[0]
    mutant = _mutate_slice(e3, index,
                           start_us=prev.start_us + Fraction(1, 10),
                           end_us=prev.start_us + Fraction(1, 10) + target.duration_us)
    assert "core-overlap" in verify_node_schedule(mutant).kinds()


def test_verifier_flags_containment(e3):
    # move a slice into idle space outside every partition window
    idle_start = Fraction(e3.major_frame_us) - Fraction(1, 2)
    busy_end = max(sl.end_us for sl in e3.slices)
    assert busy_end < idle_start  # the frame has trailing idle on both cores
    target = e3.slices[0]
    mutant = _mutate_slice(e3, 0, start_us=idle_start,
                           end_us=idle_start + Fraction(1, 4))
    kinds = verify_node_schedule(mutant).kinds()
    assert "containment" in kinds


def test_verifier_flags_isolation(e3):
    # retag a slice into a partition of a different criticality level
    sl = next(s for s in e3.slices if e3.tasks[s.task].criticality == 1)
    other = next(p for p in e3.partitions
                 if p.core == sl.core and p.criticality == 3)
    mutant = _mutate_slice(e3, e3.slices.index(sl), partition=other.id)
    assert "isolation" in verify_node_schedule(mutant).kinds()


def test_verifier_flags_deadline_when_slice_removed(e3):
    mutant = replace(e3, slices=e3.slices[1:])
    assert "deadline" in verify_node_schedule(mutant).kinds()


def test_verifier_flags_slices_of_jobs_the_frame_does_not_hold(e3):
    # a zero frame holds no job, so each of its slices is stray; the frame
    # and utilization checks alone pass such a table
    zero = replace(e3, major_frame_us=0,
                   per_core_utilization=tuple(Fraction(0) for _ in range(e3.cores)))
    report = verify_node_schedule(zero)
    assert report.kinds() == {"reference"}
    assert len(report) == len(e3.slices)
    sl = e3.slices[0]
    jobs = e3.major_frame_us // e3.tasks[sl.task].period_us
    assert [str(v) for v in verify_node_schedule(
        _mutate_slice(e3, 0, job_index=jobs)).of_kind("reference")] == [
        f"[reference] {sl.task}: slice of job {jobs}, which the major frame of "
        f"{e3.major_frame_us} us does not hold"]


def test_verifier_flags_window_overlap(e3):
    parts = list(e3.partitions)
    p0 = next(p for p in parts if p.windows)
    grown = replace(p0, windows=tuple(
        (w[0], w[1] + Fraction(e3.major_frame_us)) for w in p0.windows))
    mutant = replace(e3, partitions=tuple(
        grown if p is p0 else p for p in parts))
    kinds = verify_node_schedule(mutant).kinds()
    assert "window-overlap" in kinds or "containment" in kinds


def test_verifier_flags_wrong_utilization(e3):
    mutant = replace(e3, per_core_utilization=(Fraction(0), Fraction(0)))
    assert "utilization" in verify_node_schedule(mutant).kinds()


# -- EDF optimality at desk scale ----------------------------------------------


def test_single_core_full_utilization_schedules():
    node = FogNodeSpec("N", cores=1)
    apps = [_app("a", "N", 1, 2, 10_000, "0.5"),
            _app("b", "N", 1, 1, 5_000, "0.5")]
    mapping = {t.id: 0 for t in node_tasks(apps)}
    ns = synthesize_node_schedule(node, apps, mapping)
    assert verify_node_schedule(ns).ok
    assert ns.per_core_utilization[0] == 1


def test_edf_never_infeasible_under_full_utilization():
    rng = random.Random(7)
    for _ in range(50):
        apps = random_apps(rng, "N", max_apps=3, max_tasks=6,
                           total_util_limit=1.0)
        node = FogNodeSpec("N", cores=1)
        mapping = {t.id: 0 for t in node_tasks(apps)}
        ns = synthesize_node_schedule(node, apps, mapping)
        assert verify_node_schedule(ns).ok


# -- utilization report ---------------------------------------------------------


def test_uc1_average_utilization(uc1_node_schedules):
    report = utilization_report(uc1_node_schedules)
    assert len(report.per_core) == 10
    assert report.average == Fraction("0.574")
    assert report.average <= report.max_value <= 1


def test_idle_core_counts_in_average():
    node = FogNodeSpec("N", cores=2)
    apps = [_app("a", "N", 1, 1, 10_000, "0.5")]
    ns = synthesize_node_schedule(node, apps, {"a/t0": 0})
    report = utilization_report([ns])
    assert report.per_core[1][2] == 0
    assert report.average == Fraction(1, 4)


def test_max_core_named():
    node = FogNodeSpec("N", cores=1)
    apps = [_app("a", "N", 1, 1, 10_000, "0.736")]
    ns = synthesize_node_schedule(node, apps, {"a/t0": 0})
    report = utilization_report([ns])
    assert report.max_value == Fraction("0.736")
    assert (report.max_node, report.max_core) == ("N", 0)


# -- JSON round-trip -------------------------------------------------------------


def _schedule_key(ns):
    return (ns.node, ns.major_frame_us, dict(ns.tasks),
            sorted(ns.partitions, key=lambda p: p.id),
            sorted(ns.slices, key=lambda s: (s.core, s.start_us, s.task)),
            tuple(ns.per_core_utilization))


def test_export_import_round_trip(e3):
    doc = node_schedule_to_json(e3)
    back = node_schedule_from_json(doc)
    assert _schedule_key(back) == _schedule_key(e3)
    assert verify_node_schedule(back).ok  # exactness survives, thirds included
