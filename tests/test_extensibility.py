import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcl_reference import gap_variance
from genutil import random_apps
from fogweaver import extensibility
from fogweaver.extensibility import (
    _idle_gaps,
    admit_dynamic,
    ext_metric,
    optimize_extensibility,
)
from fogweaver.fixtures import (
    EXTENSIBILITY_CORE,
    dynamic_logging_tasks,
    extensibility_schedule,
)
from fogweaver.nodesched import (
    NodeSchedule,
    TaskSlice,
    node_tasks,
    synthesize_node_schedule,
    verify_node_schedule,
    with_layouts,
)
from fogweaver.scenario import ApplicationSpec, FogNodeSpec, TaskSpec
from fogweaver.units import GRID_US, time_base, to_ticks


def floor_to_grid(t) -> Fraction:
    """Round ``t`` down to the 0.1 us grid."""
    return Fraction(math.floor(Fraction(t) / GRID_US)) * GRID_US


def ceil_to_grid(t) -> Fraction:
    """Round ``t`` up to the 0.1 us grid."""
    return Fraction(math.ceil(Fraction(t) / GRID_US)) * GRID_US


def _app(name, level, tasks, period_us, util):
    return ApplicationSpec(name, "N", level, tasks, period_us, Fraction(util))


def _schedule(apps, cores=1):
    node = FogNodeSpec("N", cores=cores)
    mapping = {t.id: 0 for t in node_tasks(apps)}
    return synthesize_node_schedule(node, apps, mapping)


@pytest.fixture(scope="module")
def base():
    return extensibility_schedule("base")


@pytest.fixture(scope="module")
def optimized():
    return extensibility_schedule("optimized")


# -- idle gaps --------------------------------------------------------------


def _gaps(ns, core):
    """The idle gaps of one core over the major frame."""
    return _idle_gaps([(sl.start_us, sl.end_us) for sl in ns.core_slices(core)],
                      ns.major_frame_us)


def _idle_total(ns, core):
    return sum((b - a for a, b in _gaps(ns, core)), Fraction(0))


def test_empty_core_is_one_big_gap():
    ns = _schedule([_app("a", 1, 1, 10_000, "0.3")], cores=2)
    assert _gaps(ns, 1) == [(0, 10_000)]


def test_fully_busy_core_has_no_gaps():
    ns = _schedule([_app("a", 1, 1, 10_000, "1.0")])
    assert _gaps(ns, 0) == []


def test_idle_complement():
    ns = _schedule([_app("a", 1, 1, 10_000, "0.3"),
                    _app("b", 1, 1, 5_000, "0.4")])
    # EDF: b0 [0,2000), a0 [2000,5000), b1 [5000,7000); idle [7000,10000)
    total_busy = sum((sl.duration_us for sl in ns.slices), Fraction(0))
    assert _idle_total(ns, 0) == ns.major_frame_us - total_busy
    busy = sorted((sl.start_us, sl.end_us) for sl in ns.slices)
    for a, b in _gaps(ns, 0):
        assert all(b <= s or e <= a for s, e in busy)


# -- metric -------------------------------------------------------------------


def test_equal_gaps_score_zero():
    # four jobs of one 2.5 ms / 10 ms task leave four equal 7.5 ms gaps
    ns = _schedule([_app("a", 1, 1, 10_000, "0.25")])
    big = replace(ns, major_frame_us=ns.major_frame_us)
    assert ext_metric(big, 0) == 0.0


def test_metric_arithmetic_two_gaps():
    # gaps of 2 ms and 4 ms in a 20 ms frame: stddev 1 ms -> 0.05
    ns = _schedule([_app("a", 1, 1, 20_000, "0.7")])
    slices = (
        replace(ns.slices[0], start_us=Fraction(2000), end_us=Fraction(10_000)),
        replace(ns.slices[0], start_us=Fraction(14_000), end_us=Fraction(20_000)),
    )
    # hand-built two-slice layout is only used to measure gaps
    crafted = replace(ns, slices=slices)
    assert _gaps(crafted, 0) == [(0, 2000), (10_000, 14_000)]
    assert ext_metric(crafted, 0) == pytest.approx(0.05)


def test_fewer_than_two_gaps_scores_zero():
    ns = _schedule([_app("a", 1, 1, 10_000, "1.0")])
    assert ext_metric(ns, 0) == 0.0


def test_fixture_ordering(base, optimized):
    assert ext_metric(optimized, EXTENSIBILITY_CORE) \
        < ext_metric(base, EXTENSIBILITY_CORE)


def test_metric_invariant_under_circular_shift(base):
    core = EXTENSIBILITY_CORE
    frame = base.major_frame_us
    # rotate so the frame boundary lands strictly inside a busy slice:
    # the gap multiset is preserved, hence the metric too
    target = base.core_slices(core)[0]
    cut = (target.start_us + target.end_us) / 2
    delta = frame - cut
    rotated = []
    for sl in base.core_slices(core):
        s, e = sl.start_us + delta, sl.end_us + delta
        if e <= frame:
            rotated.append(replace(sl, start_us=s, end_us=e))
        elif s >= frame:
            rotated.append(replace(sl, start_us=s - frame, end_us=e - frame))
        else:  # the slice crossing the boundary splits in two
            rotated.append(replace(sl, start_us=s, end_us=Fraction(frame)))
            rotated.append(replace(sl, start_us=Fraction(0), end_us=e - frame))
    shifted = replace(base, slices=tuple(rotated))
    assert ext_metric(shifted, core) == ext_metric(base, core)


@st.composite
def _layouts(draw):
    """A frame and busy intervals on a 1/den us grid, den up to 30, so
    bounds fall on thirds of a microsecond; intervals may be empty, touch
    the one before or overlap any other."""
    frame = draw(st.sampled_from((1, 7, 300, 10_000)))
    den = draw(st.sampled_from((1, 3, 10, 30)))
    bounds = []
    for _ in range(draw(st.integers(0, 8))):
        if bounds and draw(st.booleans()):
            start = bounds[-1][1]
        else:
            start = draw(st.integers(0, frame * den))
        bounds.append((start, draw(st.integers(start, frame * den))))
    return frame, [(Fraction(a, den), Fraction(b, den)) for a, b in bounds]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_layouts())
def test_metric_matches_fraction_variance(layout):
    frame, bounds = layout
    ns = NodeSchedule("N", 1, frame, {}, (),
                      tuple(TaskSlice("t", 0, "", a, b, 0) for a, b in bounds),
                      (Fraction(0),))
    n, var = gap_variance(sorted(bounds, key=lambda ab: ab[0]), frame)
    expected = math.sqrt(float(var)) / frame if n >= 2 else 0.0
    assert ext_metric(ns, 0) == expected


# -- optimizer ----------------------------------------------------------------


def test_optimizer_fixed_point_on_uniform_schedule():
    ns = _schedule([_app("a", 1, 1, 10_000, "0.25")])
    assert ext_metric(ns, 0) == 0.0
    out = optimize_extensibility(ns)
    assert out is ns  # no core moved, so the input comes back unchanged


def test_optimizer_strictly_improves_base(base):
    out = optimize_extensibility(base)
    assert ext_metric(out, EXTENSIBILITY_CORE) \
        < ext_metric(base, EXTENSIBILITY_CORE)
    assert verify_node_schedule(out).ok


def test_optimizer_output_always_verifies():
    rng = random.Random(99)
    for _ in range(12):
        apps = random_apps(rng, "N", max_apps=3, max_tasks=3,
                           total_util_limit=0.7)
        ns = _schedule(apps)
        out = optimize_extensibility(ns)
        assert verify_node_schedule(out).ok
        for core in range(ns.cores):
            assert ext_metric(out, core) <= ext_metric(ns, core)


def test_optimizer_never_touches_other_cores(base):
    out = optimize_extensibility(base)
    for core in (0, 1):
        assert out.core_slices(core) == base.core_slices(core)


def test_optimizer_reproduces_checked_in_fixture(base, optimized):
    out = optimize_extensibility(base)
    for core in range(out.cores):
        assert out.core_slices(core) == optimized.core_slices(core)


def _reference_climb(starts, durations, windows, frame, budget):
    """The climb re-scoring every candidate from scratch on Fractions.

    Also returns how many of its accepted moves went to the left edge.
    """
    starts = list(starts)
    left_moves = 0
    for _ in range(budget):
        intervals = [(s, s + d) for s, d in zip(starts, durations)]
        best_var, best_move = gap_variance(intervals, frame)[1], None
        for idx, (start, duration) in enumerate(zip(starts, durations)):
            release, deadline = windows[idx]
            last = idx + 1 == len(starts)
            prev_end = intervals[idx - 1][1] if idx else Fraction(0)
            next_start = frame if last else intervals[idx + 1][0]
            lo = max(release, prev_end)
            hi = (deadline if last else min(deadline, next_start)) - duration
            if hi < lo:
                continue
            center = (prev_end + next_start - duration) / 2
            cands = {lo, hi} | {min(hi, max(lo, snap(center)))
                                for snap in (floor_to_grid, ceil_to_grid)}
            for cand in sorted(cands):
                if cand == start:
                    continue
                intervals[idx] = (cand, cand + duration)
                var = gap_variance(intervals, frame)[1]
                if var < best_var:
                    best_var, best_move = var, (idx, cand, cand == lo)
            intervals[idx] = (start, start + duration)
        if best_move is None:
            break
        idx, cand, to_left_edge = best_move
        starts[idx] = cand
        left_moves += to_left_edge
    intervals = [(s, s + d) for s, d in zip(starts, durations)]
    return starts, gap_variance(intervals, frame)[1], left_moves


def _slid_late(ns, rng):
    """``ns`` with slices slid later by random grid steps inside their
    windows, leaving small idle gaps that only a left-edge move closes."""
    layouts = []
    for core in range(ns.cores):
        own = ns.core_slices(core)
        scale = time_base((GRID_US,), (t for sl in own
                                       for t in (sl.start_us, sl.end_us)))
        grid = to_ticks(GRID_US, scale)
        next_start = ns.major_frame_us * scale
        runs = []
        for sl in reversed(own):
            task = ns.tasks[sl.task]
            deadline = (sl.job_index * task.period_us + task.deadline_us) * scale
            start, end = to_ticks(sl.start_us, scale), to_ticks(sl.end_us, scale)
            steps = (min(next_start, deadline) - end) // grid
            shift = grid * rng.choice([0, rng.randint(0, min(steps, 30))])
            next_start = start + shift
            runs.append((sl.task, sl.job_index, start + shift, end + shift))
        layouts.append((scale, runs[::-1]))
    slid = with_layouts(ns, layouts)
    assert verify_node_schedule(slid).ok
    return slid


def _oracle_nodes():
    # equal splits such as 3500/3 us put slice bounds off the 0.1 us grid;
    # EDF packs slices back to back, so many gaps are zero
    yield _schedule([_app("a", 1, 3, 10_000, "0.35"),
                     _app("b", 2, 1, 5_000, "0.2")])
    rng, slide_rng = random.Random(5), random.Random(6)
    for _ in range(8):
        apps = random_apps(rng, "N", max_apps=3, max_tasks=3,
                           total_util_limit=0.8)
        node = FogNodeSpec("N", cores=2)
        mapping = {t.id: i % 2 for i, t in enumerate(node_tasks(apps))}
        ns = synthesize_node_schedule(node, apps, mapping)
        yield ns
        yield _slid_late(ns, slide_rng)


def test_climb_matches_fraction_reference(monkeypatch):
    # checks every climb the optimizer runs: from the synthesized layout
    # and from the even spread, on every core
    # (the climb works on ticks of 1/scale us; the reference on us)
    fast_climb = extensibility._climb
    climbs = []
    left_moves = 0

    def checked_climb(starts, durations, windows, frame, grid, budget):
        nonlocal left_moves
        out, var = fast_climb(starts, durations, windows, frame, grid, budget)
        scale = grid * GRID_US.denominator

        def us(ticks):
            return [Fraction(t, scale) for t in ticks]

        ref, ref_var, ref_left_moves = _reference_climb(
            us(starts), us(durations), [tuple(us(w)) for w in windows],
            Fraction(frame, scale), budget)
        assert us(out) == ref
        assert var / scale ** 2 == ref_var
        climbs.append(starts)
        left_moves += ref_left_moves
        return out, var

    monkeypatch.setattr(extensibility, "_climb", checked_climb)
    cores = 0
    for ns in _oracle_nodes():
        optimize_extensibility(ns)
        cores += sum(bool(ns.core_slices(c)) for c in range(ns.cores))
    assert len(climbs) > cores  # some cores also climbed from the even spread
    assert left_moves  # and some climbs closed a gap by a left-edge move


# -- dynamic admission -----------------------------------------------------------


def test_no_idle_means_every_job_misses():
    ns = _schedule([_app("a", 1, 1, 10_000, "1.0")])
    report = admit_dynamic(ns, 0, [TaskSpec("d", Fraction(100), 10_000)],
                           40_000)
    assert report.admitted == {"d": False}
    assert len(report.misses) == 4
    assert report.dynamic_slices == ()


def test_node_without_static_tasks_is_idle_throughout():
    ns = _schedule([], cores=1)
    assert ns.major_frame_us == 0 and ns.slices == ()
    dynamic = [TaskSpec("d", Fraction(2500), 10_000),
               TaskSpec("e", Fraction(1, 3), 4_000)]
    report = admit_dynamic(ns, 0, dynamic, 20_000)
    assert report.admitted == {"d": True, "e": True}
    # EDF over [0, 20 ms): e3 (deadline 16 ms) preempts d1 (deadline 20 ms)
    assert [(sl.task, sl.job_index, sl.start_us, sl.end_us)
            for sl in report.dynamic_slices] == [
        ("e", 0, 0, Fraction(1, 3)), ("d", 0, Fraction(1, 3), Fraction(7501, 3)),
        ("e", 1, 4000, Fraction(12001, 3)), ("e", 2, 8000, Fraction(24001, 3)),
        ("d", 1, 10_000, 12_000), ("e", 3, 12_000, Fraction(36001, 3)),
        ("d", 1, Fraction(36001, 3), Fraction(37501, 3)),
        ("e", 4, 16_000, Fraction(48001, 3))]


def test_zero_frame_with_slices_is_rejected(base):
    # a loaded table that was never verified may hold slices in a zero frame
    broken = replace(base, major_frame_us=0)
    dynamic = dynamic_logging_tasks()
    horizon = math.lcm(*(t.period_us for t in (*dynamic, *base.tasks.values())))
    with pytest.raises(ValueError, match=rf"major frame 0 us holds slices on "
                                         rf"core {EXTENSIBILITY_CORE}"):
        admit_dynamic(broken, EXTENSIBILITY_CORE, dynamic, horizon)


def test_frame_longer_than_the_horizon_cycle_repeats(base):
    # a loaded schedule may list two repetitions of its tasks' hyperperiod;
    # over a horizon of three hyperperiods its second frame starts again
    frame = base.major_frame_us
    core = EXTENSIBILITY_CORE
    doubled = replace(
        base, major_frame_us=2 * frame,
        slices=base.slices + tuple(
            replace(sl, start_us=sl.start_us + frame, end_us=sl.end_us + frame,
                    job_index=sl.job_index + frame // base.tasks[sl.task].period_us)
            for sl in base.slices),
        partitions=tuple(replace(p, windows=p.windows + tuple(
            (a + frame, b + frame) for a, b in p.windows)) for p in base.partitions))
    assert verify_node_schedule(doubled).ok
    horizon = 3 * frame
    # y's last job is due after the horizon, which ends its time to run
    dynamic = [TaskSpec("x", Fraction(500), 6000),
               TaskSpec("y", Fraction(6000), 10_000, deadline_us=25_000)]
    report = admit_dynamic(doubled, core, dynamic, horizon)
    assert report == admit_dynamic(base, core, dynamic, horizon)
    assert report.admitted == {"x": True, "y": False}
    assert [(m.task, m.release_us) for m in report.misses] == [("y", 80_000)]
    assert max(sl.end_us for sl in report.dynamic_slices) <= horizon


def test_standard_workload_on_optimized_fixture(optimized):
    report = admit_dynamic(optimized, EXTENSIBILITY_CORE,
                           dynamic_logging_tasks(), 120_000)
    assert report.misses == ()
    assert all(report.admitted.values())


def test_standard_workload_on_base_fixture(base):
    report = admit_dynamic(base, EXTENSIBILITY_CORE,
                           dynamic_logging_tasks(), 120_000)
    assert len(report.misses) >= 1
    assert not all(report.admitted.values())
    for miss in report.misses:
        assert miss.deadline_us == miss.release_us + next(
            t.period_us for t in dynamic_logging_tasks() if t.id == miss.task)


def test_static_slices_untouched_and_disjoint(base):
    before = base.core_slices(EXTENSIBILITY_CORE)
    report = admit_dynamic(base, EXTENSIBILITY_CORE,
                           dynamic_logging_tasks(), 120_000)
    assert base.core_slices(EXTENSIBILITY_CORE) == before  # bit-identical
    frame = base.major_frame_us
    for d in report.dynamic_slices:
        for sl in before:
            for rep in range(120_000 // frame):
                s, e = sl.start_us + rep * frame, sl.end_us + rep * frame
                assert d.end_us <= s or e <= d.start_us


def test_capacity_bound(base):
    report = admit_dynamic(base, EXTENSIBILITY_CORE,
                           dynamic_logging_tasks(), 120_000)
    granted = sum((d.end_us - d.start_us for d in report.dynamic_slices),
                  Fraction(0))
    idle_per_frame = _idle_total(base, EXTENSIBILITY_CORE)
    assert granted <= idle_per_frame * (120_000 // base.major_frame_us)


def test_core_outside_node_is_rejected(base):
    with pytest.raises(ValueError, match="core 3"):
        admit_dynamic(base, base.cores, dynamic_logging_tasks(), 120_000)


def test_duplicate_dynamic_ids_are_rejected(optimized):
    # one id for two tasks would merge their slices and admission verdicts
    dynamic = [TaskSpec("x", Fraction(1020), 6_000),
               TaskSpec("x", Fraction(1040), 8_000)]
    with pytest.raises(ValueError, match="^dynamic task ids must be distinct: "
                                         "x given more than once$"):
        admit_dynamic(optimized, EXTENSIBILITY_CORE, dynamic, 120_000)


def test_horizon_must_cover_all_periods(base):
    with pytest.raises(ValueError):
        admit_dynamic(base, EXTENSIBILITY_CORE, dynamic_logging_tasks(),
                      90_000)  # not a multiple of lcm(30 ms, 6/8/10/12 ms)


def test_admission_report_json(base):
    report = admit_dynamic(base, EXTENSIBILITY_CORE,
                           dynamic_logging_tasks(), 120_000)
    doc = report.to_json()
    assert set(doc) == {"admitted", "misses"}
    assert all(set(m) == {"task", "release_us", "deadline_us"}
               for m in doc["misses"])
