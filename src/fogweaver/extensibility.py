"""Idle-time analysis, extensibility optimization and dynamic admission.

A node schedule's capacity to absorb future applications is proxied by how
evenly its idle time is spread: the metric is the population standard
deviation of the idle-gap durations on a core, normalized by the major
frame (0 = perfectly even). The optimizer is a deterministic local search
that slides execution slices inside their jobs' feasibility windows to
shrink that deviation. Admission simulates dynamic, non-critical tasks
running EDF strictly inside the static schedule's idle gaps; the static
slices are never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .nodesched import NodeSchedule, TaskSlice, rebuild_partitions, verify_node_schedule
from .scenario import TaskSpec
from .units import GRID_US, lcm_all

DYNAMIC_PARTITION = "dynamic"  # dynamic tasks run outside static partitions


@dataclass(frozen=True)
class IdleProfile:
    """The idle gaps of one core over the major frame."""

    core: int
    intervals: tuple[tuple[Fraction, Fraction], ...]

    @property
    def total_us(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), Fraction(0))


@dataclass(frozen=True)
class DeadlineMiss:
    task: str
    release_us: int
    deadline_us: int


@dataclass(frozen=True)
class AdmissionReport:
    admitted: dict[str, bool]
    misses: tuple[DeadlineMiss, ...]
    dynamic_slices: tuple[TaskSlice, ...]

    def to_json(self) -> dict:
        return {
            "admitted": dict(self.admitted),
            "misses": [
                {"task": m.task, "release_us": m.release_us,
                 "deadline_us": m.deadline_us}
                for m in self.misses
            ],
        }


def _merged_busy(ns: NodeSchedule, core: int) -> list[tuple[Fraction, Fraction]]:
    merged: list[tuple[Fraction, Fraction]] = []
    for sl in ns.core_slices(core):
        if merged and sl.start_us <= merged[-1][1]:
            if sl.end_us > merged[-1][1]:
                merged[-1] = (merged[-1][0], sl.end_us)
        else:
            merged.append((sl.start_us, sl.end_us))
    return merged


def idle_profile(ns: NodeSchedule, core: int) -> IdleProfile:
    """Complement of the busy slices on ``core`` over [0, major_frame)."""
    frame = Fraction(ns.major_frame_us)
    gaps: list[tuple[Fraction, Fraction]] = []
    cursor = Fraction(0)
    for b0, b1 in _merged_busy(ns, core):
        if b0 > cursor:
            gaps.append((cursor, b0))
        cursor = max(cursor, b1)
    if cursor < frame:
        gaps.append((cursor, frame))
    return IdleProfile(core, tuple(gaps))


def _gap_variance(busy_sorted, frame: Fraction) -> tuple[int, Fraction]:
    """(gap count, exact population variance of the idle-gap durations)
    for a start-sorted list of busy (start, end) intervals."""
    gaps = []
    cursor = Fraction(0)
    for s, e in busy_sorted:
        if s > cursor:
            gaps.append(s - cursor)
        cursor = max(cursor, e)
    if cursor < frame:
        gaps.append(frame - cursor)
    n = len(gaps)
    if n < 2:
        return n, Fraction(0)
    mean = sum(gaps, Fraction(0)) / n
    var = sum(((g - mean) ** 2 for g in gaps), Fraction(0)) / n
    return n, var


def _idle_variance(ns: NodeSchedule, core: int) -> tuple[int, Fraction]:
    return _gap_variance([(sl.start_us, sl.end_us) for sl in ns.core_slices(core)],
                         Fraction(ns.major_frame_us))


def ext_metric(ns: NodeSchedule, core: int) -> float:
    """Normalized deviation of idle-gap durations; 0 when fewer than two gaps."""
    n, var = _idle_variance(ns, core)
    if n < 2:
        return 0.0
    return math.sqrt(float(var)) / ns.major_frame_us


# -- optimization -----------------------------------------------------------


def _job_window(ns: NodeSchedule, sl: TaskSlice) -> tuple[Fraction, Fraction]:
    task = ns.tasks[sl.task]
    release = Fraction(sl.job_index * task.period_us)
    return release, release + task.deadline_us


def _even_spread(ns: NodeSchedule, core: int) -> list[TaskSlice] | None:
    """Re-place a core's slices with equal idle gaps where windows allow.

    Keeps the chronological slice order. A backward pass computes the
    latest feasible start of every slice (so no follower ever gets
    squeezed past its deadline); the forward pass then aims each slice at
    ``previous end + ideal gap``, clamped into feasibility.
    """
    ordered = ns.core_slices(core)
    if not ordered:
        return None
    frame = Fraction(ns.major_frame_us)
    busy = sum((sl.duration_us for sl in ordered), Fraction(0))
    target_gap = (frame - busy) / (len(ordered) + 1)

    latest: list[Fraction] = [Fraction(0)] * len(ordered)
    horizon = frame
    for i in reversed(range(len(ordered))):
        sl = ordered[i]
        deadline = _job_window(ns, sl)[1]
        latest[i] = min(deadline, horizon) - sl.duration_us
        horizon = latest[i]

    out: list[TaskSlice] = []
    prev_end = Fraction(0)
    for i, sl in enumerate(ordered):
        lo = max(_job_window(ns, sl)[0], prev_end)
        if lo > latest[i]:
            return None
        start = max(lo, min(prev_end + target_gap, latest[i]))
        out.append(replace(sl, start_us=start, end_us=start + sl.duration_us))
        prev_end = start + sl.duration_us
    return out


def _climb(ns: NodeSchedule, core: int, budget: int) -> NodeSchedule:
    """Best-improvement hill climbing on one core's idle-gap variance.

    Each round tries moving every slice to the left edge, the right edge
    and the (grid-snapped) center of its feasible range and applies the
    single move that lowers the variance most; stops at a local optimum or
    after ``budget`` accepted moves. Moves are confined between the
    neighbouring slices, so the chronological order never changes.

    The search runs on exact integer ticks of ``1/scale`` us, where
    ``scale`` is the lcm of the grid denominator and of every denominator
    of the core's slice bounds. It keeps the idle gaps (gap ``i`` precedes
    slice ``i``, the last one runs to the frame end), their positive count
    ``n`` and their sum of squares ``q``; the gap total ``T`` is constant.
    A move changes only the two gaps around the moved slice, so every
    candidate is scored and every accepted move applied in O(1), comparing
    the variances ``(q*n - T**2) / n**2`` exactly by cross-multiplication.
    """
    ordered = ns.core_slices(core)
    scale = math.lcm(GRID_US.denominator,
                     *(t.denominator for sl in ordered
                       for t in (sl.start_us, sl.end_us)))
    grid = scale // GRID_US.denominator
    frame = ns.major_frame_us * scale
    starts = [int(sl.start_us * scale) for sl in ordered]
    durations = [int(sl.duration_us * scale) for sl in ordered]
    windows = [tuple(int(t * scale) for t in _job_window(ns, sl))
               for sl in ordered]
    prev_ends = [0] + [s + d for s, d in zip(starts, durations)]
    gaps = [b - a for a, b in zip(prev_ends, starts + [frame])]
    n = sum(g > 0 for g in gaps)
    q = sum(g * g for g in gaps)
    total = sum(gaps)

    def variance(n: int, q: int) -> tuple[int, int]:
        """(numerator, denominator) of the gap variance; 0 below two gaps."""
        return (q * n - total * total, n * n) if n > 1 else (0, 1)

    moved: set[int] = set()
    for _ in range(budget):
        best_num, best_den = variance(n, q)
        best_move: tuple[int, int, int, int] | None = None
        for idx, (start, duration) in enumerate(zip(starts, durations)):
            left, right = gaps[idx], gaps[idx + 1]
            prev_end, next_start = start - left, start + duration + right
            release, deadline = windows[idx]
            lo = max(release, prev_end)
            # a job's window ends inside the frame, so for the last slice
            # this is its deadline
            hi = min(deadline, next_start) - duration
            if hi < lo:
                continue
            twice_center = prev_end + next_start - duration
            floored = twice_center // (2 * grid) * grid
            ceiled = -(-twice_center // (2 * grid)) * grid
            rest_n = n - (left > 0) - (right > 0)
            rest_q = q - left * left - right * right
            for cand in sorted({lo, hi, min(hi, max(lo, floored)),
                                min(hi, max(lo, ceiled))}):
                if cand == start:
                    continue
                new_left = cand - prev_end
                new_right = next_start - cand - duration
                num, den = variance(
                    rest_n + (new_left > 0) + (new_right > 0),
                    rest_q + new_left * new_left + new_right * new_right)
                if num * best_den < best_num * den:
                    best_num, best_den = num, den
                    best_move = (idx, cand, new_left, new_right)
        if best_move is None:
            break
        idx, cand, new_left, new_right = best_move
        left, right = gaps[idx], gaps[idx + 1]
        n += (new_left > 0) + (new_right > 0) - (left > 0) - (right > 0)
        q += (new_left * new_left + new_right * new_right
              - left * left - right * right)
        gaps[idx], gaps[idx + 1] = new_left, new_right
        starts[idx] = cand
        moved.add(idx)
    for idx in moved:
        start = Fraction(starts[idx], scale)
        ordered[idx] = replace(ordered[idx], start_us=start,
                               end_us=start + ordered[idx].duration_us)
    others = [s for s in ns.slices if s.core != core]
    return replace(ns, slices=tuple(others + ordered))


def optimize_extensibility(ns: NodeSchedule, iteration_budget: int = 200
                           ) -> NodeSchedule:
    """Spread idle time by sliding slices; never worsens any core's metric.

    Deterministic, core by core: an even-spread pass re-places the slices
    with equal idle gaps where the jobs' windows allow, then hill climbing
    refines the result; plain hill climbing on the original layout is kept
    instead when it scores better. Every intermediate layout respects the
    job windows and core non-overlap, so the output always verifies. The
    input is returned unchanged when nothing improves.
    """
    result = ns
    changed = False
    for core in range(ns.cores):
        candidates = [_climb(result, core, iteration_budget)]
        spread = _even_spread(result, core)
        if spread is not None:
            others = [s for s in result.slices if s.core != core]
            spread_ns = replace(result, slices=tuple(others + spread))
            candidates.append(_climb(spread_ns, core, iteration_budget))
        base_var = _idle_variance(result, core)[1]
        scores = [_idle_variance(cand, core)[1] for cand in candidates]
        best_var = min(scores)
        if best_var < base_var:
            result = candidates[scores.index(best_var)]  # first minimum
            changed = True
    if not changed:
        return ns
    out = rebuild_partitions(result)
    report = verify_node_schedule(out)
    if not report.ok:  # a move broke an invariant: a bug, never user error
        raise AssertionError(f"optimizer produced an invalid schedule:\n{report}")
    return out


# -- dynamic admission -------------------------------------------------------


def admit_dynamic(ns: NodeSchedule, core: int, dynamic: list[TaskSpec],
                  horizon_us: int) -> AdmissionReport:
    """Simulate admitting dynamic tasks into the idle time of one core.

    Dynamic jobs are released periodically and executed EDF, but only while
    the static schedule leaves the core idle; static slices are never
    modified. A job that reaches its deadline unfinished is reported as a
    miss (with its absolute release and deadline times) and its remaining
    work is discarded. A task counts as admitted when none of its jobs
    misses within the horizon.
    """
    periods = [t.period_us for t in dynamic]
    static_periods = [t.period_us for t in ns.tasks.values()]
    cycle = lcm_all([*periods, *static_periods]) if (periods or static_periods) else 1
    if horizon_us <= 0 or horizon_us % cycle:
        raise ValueError(
            f"horizon {horizon_us} us must be a positive multiple of the "
            f"combined static/dynamic cycle {cycle} us")

    # static idle gaps tiled over the horizon
    idle: list[tuple[Fraction, Fraction]] = []
    if ns.major_frame_us:
        base = idle_profile(ns, core).intervals
        for rep in range(horizon_us // ns.major_frame_us):
            off = rep * ns.major_frame_us
            for a, b in base:
                idle.append((a + off, b + off))
    else:
        idle.append((Fraction(0), Fraction(horizon_us)))

    jobs = []  # [deadline, release, task, job_index, remaining]
    for t in dynamic:
        deadline_us = t.deadline_us if t.deadline_us is not None else t.period_us
        for k in range(horizon_us // t.period_us):
            release = k * t.period_us
            jobs.append([Fraction(release + deadline_us), Fraction(release),
                         t, k, Fraction(t.wcet_us)])

    points = sorted({Fraction(0), Fraction(horizon_us)}
                    | {j[0] for j in jobs} | {j[1] for j in jobs}
                    | {edge for gap in idle for edge in gap})
    misses: list[DeadlineMiss] = []
    slices: list[TaskSlice] = []
    admitted = {t.id: True for t in dynamic}

    pending = sorted(jobs, key=lambda j: (j[1], j[0], j[2].id))
    next_pending = 0
    ready: list = []
    idle_idx = 0

    def emit(task_id: str, job_index: int, start: Fraction, end: Fraction):
        if slices and slices[-1].task == task_id \
                and slices[-1].job_index == job_index \
                and slices[-1].end_us == start:
            slices[-1] = replace(slices[-1], end_us=end)
        else:
            slices.append(TaskSlice(task_id, core, DYNAMIC_PARTITION,
                                    start, end, job_index))

    for t0, t1 in zip(points, points[1:]):
        for job in [j for j in ready if j[0] <= t0]:
            ready.remove(job)
            misses.append(DeadlineMiss(job[2].id, int(job[1]), int(job[0])))
            admitted[job[2].id] = False
        while next_pending < len(pending) and pending[next_pending][1] <= t0:
            ready.append(pending[next_pending])
            next_pending += 1
        while idle_idx < len(idle) and idle[idle_idx][1] <= t0:
            idle_idx += 1
        in_idle = (idle_idx < len(idle)
                   and idle[idle_idx][0] <= t0 and t1 <= idle[idle_idx][1])
        if not in_idle:
            continue
        t = t0
        while t < t1 and ready:
            job = min(ready, key=lambda j: (j[0], j[2].id, j[3]))
            run = min(job[4], t1 - t)
            emit(job[2].id, job[3], t, t + run)
            job[4] -= run
            t += run
            if job[4] == 0:
                ready.remove(job)

    for job in ready:  # unfinished at the horizon: their deadline is the horizon
        misses.append(DeadlineMiss(job[2].id, int(job[1]), int(job[0])))
        admitted[job[2].id] = False
    misses.sort(key=lambda m: (m.deadline_us, m.task))
    return AdmissionReport(admitted, tuple(misses), tuple(slices))
