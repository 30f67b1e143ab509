"""Idle-time analysis, extensibility optimization and dynamic admission.

A node schedule's capacity to absorb future applications is proxied by how
evenly its idle time is spread: the metric is the population standard
deviation of the idle-gap durations on a core, normalized by the major
frame (0 = perfectly even). The optimizer is a deterministic local search
that slides execution slices inside their jobs' feasibility windows to
shrink that deviation. Admission simulates dynamic, non-critical tasks
running EDF strictly inside the static schedule's idle gaps; the static
slices are never touched. ``_idle_gaps`` is a core's idle time: the metric
takes it over one frame, admission over the static slices tiled over its
horizon. The metric and the optimizer both score idle gaps in whole ticks
of ``units.time_base``, exactly, and the optimizer hands its layouts on in
those ticks: ``nodesched.with_layouts`` builds the slices and partitions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .nodesched import (
    NodeSchedule,
    TaskSlice,
    _jobs,
    edf,
    verify_node_schedule,
    with_layouts,
)
from .scenario import TaskSpec
from .units import GRID_US, lcm_all, time_base, to_ticks

DYNAMIC_PARTITION = "dynamic"  # dynamic tasks run outside static partitions
ITERATION_BUDGET = 200  # accepted moves per hill climb


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


def _idle_gaps(busy_sorted, frame):
    """The idle (start, end) gaps of [0, frame) around a start-sorted list
    of busy (start, end) intervals, ints or Fractions: a core's idle time.
    The cursor sits at the latest end seen, so overlapping or touching
    intervals leave no gap between them."""
    gaps = []
    cursor = 0
    for s, e in busy_sorted:
        if s > cursor:
            gaps.append((cursor, s))
        cursor = max(cursor, e)
    if cursor < frame:
        gaps.append((cursor, frame))
    return gaps


def ext_metric(ns: NodeSchedule, core: int) -> float:
    """Normalized deviation of idle-gap durations; 0 when fewer than two gaps.

    With ``n`` gaps of ``T`` ticks of ``1/D`` us in all and ``q`` the sum
    of their squares, the variance is the exact ``(q*n - T**2) / (n*D)**2``
    us squared, and ``float`` rounds it once.
    """
    ordered = ns.core_slices(core)
    D = time_base((t for sl in ordered for t in (sl.start_us, sl.end_us)))
    gaps = [b - a for a, b in _idle_gaps(
        [(to_ticks(sl.start_us, D), to_ticks(sl.end_us, D)) for sl in ordered],
        ns.major_frame_us * D)]
    n = len(gaps)
    if n < 2:
        return 0.0
    total, q = sum(gaps), sum(g * g for g in gaps)
    var = Fraction(q * n - total * total, (n * D) ** 2)
    return math.sqrt(float(var)) / ns.major_frame_us


# -- optimization -----------------------------------------------------------


def _even_spread(durations: list[int], windows: list[tuple[int, int]],
                 frame: int) -> list[int] | None:
    """Re-place a core's slices with equal idle gaps where windows allow.

    Keeps the chronological slice order. A backward pass computes the
    latest feasible start of every slice (so no follower ever gets
    squeezed past its deadline); the forward pass then aims each slice at
    ``previous end + ideal gap``, clamped into feasibility. The tick scale
    makes the ideal gap a whole number of ticks.
    """
    target_gap = (frame - sum(durations)) // (len(durations) + 1)
    latest = [0] * len(durations)
    horizon = frame
    for i in reversed(range(len(durations))):
        latest[i] = min(windows[i][1], horizon) - durations[i]
        horizon = latest[i]

    starts: list[int] = []
    prev_end = 0
    for i, duration in enumerate(durations):
        lo = max(windows[i][0], prev_end)
        if lo > latest[i]:
            return None
        start = max(lo, min(prev_end + target_gap, latest[i]))
        starts.append(start)
        prev_end = start + duration
    return starts


def _climb(starts: list[int], durations: list[int],
           windows: list[tuple[int, int]], frame: int, grid: int,
           budget: int) -> tuple[list[int], Fraction]:
    """Best-improvement hill climbing on one core's idle-gap variance.

    Each round tries moving every slice to the left edge, the right edge
    and the center of its feasible range, snapped to ``grid`` ticks, and
    applies the single move that lowers the variance most; stops at a
    local optimum or after ``budget`` accepted moves. Moves are confined
    between the neighbouring slices, so the chronological order never
    changes. Returns the new starts and their variance in ticks squared.

    The climb keeps the idle gaps (gap ``i`` precedes slice ``i``, the last
    one runs to the frame end), their positive count ``n`` and their sum of
    squares ``q``; the gap total ``T`` is constant. A move changes only
    the two gaps around the moved slice, so every candidate is scored and
    every accepted move applied in O(1), comparing the variances
    ``(q*n - T**2) / n**2`` exactly by cross-multiplication.
    """
    prev_ends = [0] + [s + d for s, d in zip(starts, durations)]
    gaps = [b - a for a, b in zip(prev_ends, starts + [frame])]
    n = sum(g > 0 for g in gaps)
    q = sum(g * g for g in gaps)
    total = sum(gaps)
    starts = list(starts)

    def variance(n: int, q: int) -> tuple[int, int]:
        """(numerator, denominator) of the gap variance; 0 below two gaps."""
        return (q * n - total * total, n * n) if n > 1 else (0, 1)

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
    return starts, Fraction(*variance(n, q))


def _optimize_core(ns: NodeSchedule, core: int) -> tuple[int, list[tuple], bool]:
    """One core's best layout as ``(scale, runs, moved)``: the current one,
    unmoved, unless a climb scores strictly below it. The climb from the
    current layout comes first and wins ties with the climb from the even
    spread.

    The core is converted once to exact integer ticks of ``1/scale`` us:
    the time base of the grid and of the slice bounds, times the slice
    count plus one so that the even-spread gap is a whole number of ticks
    too. A layout is the list of slice starts in chronological order.
    """
    ordered = ns.core_slices(core)
    scale = time_base((GRID_US,), (t for sl in ordered
                                   for t in (sl.start_us, sl.end_us)))
    scale *= len(ordered) + 1
    frame = ns.major_frame_us * scale
    starts = [to_ticks(sl.start_us, scale) for sl in ordered]
    durations = [to_ticks(sl.end_us, scale) - s for sl, s in zip(ordered, starts)]
    windows = []
    for sl in ordered:
        task = ns.tasks[sl.task]
        release = sl.job_index * task.period_us
        windows.append((release * scale, (release + task.deadline_us) * scale))

    grid = to_ticks(GRID_US, scale)
    # a climb accepts only strictly better moves, so it scores below its
    # start exactly when it moved
    best, best_var = _climb(starts, durations, windows, frame, grid,
                            ITERATION_BUDGET)
    spread = _even_spread(durations, windows, frame)
    if spread is not None:
        climbed, var = _climb(spread, durations, windows, frame, grid,
                              ITERATION_BUDGET)
        if var < best_var:
            best = climbed
    return scale, [(sl.task, sl.job_index, s, s + d)
                   for sl, s, d in zip(ordered, best, durations)], best != starts


def optimize_extensibility(ns: NodeSchedule) -> NodeSchedule:
    """Spread idle time by sliding slices; never worsens any core's metric.

    Deterministic, core by core: an even-spread pass re-places the slices
    with equal idle gaps where the jobs' windows allow, then hill climbing
    refines the result (at most ``ITERATION_BUDGET`` accepted moves per
    climb); plain hill climbing on the original layout is kept instead when
    it scores better. Every intermediate layout respects the job windows
    and core non-overlap, so the output always verifies. The input is
    returned unchanged when nothing improves; otherwise
    :func:`with_layouts` rebuilds it from every core's layout.
    """
    layouts = [_optimize_core(ns, core) for core in range(ns.cores)]
    if not any(moved for *_, moved in layouts):
        return ns
    out = with_layouts(ns, [(scale, runs) for scale, runs, _ in layouts])
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
    misses within the horizon. Dynamic task ids must be distinct.
    """
    if not 0 <= core < ns.cores:
        raise ValueError(f"core {core} is outside 0..{ns.cores - 1} of "
                         f"node {ns.node}")
    bad = [t.id for t in dynamic
           if min(t.period_us, t.wcet_us, t.deadline_us) <= 0]
    if bad:
        raise ValueError(f"dynamic tasks need a positive period, WCET and "
                         f"deadline: {', '.join(bad)}")
    if twice := [i for i, n in Counter(t.id for t in dynamic).items() if n > 1]:
        raise ValueError(f"dynamic task ids must be distinct: "
                         f"{', '.join(twice)} given more than once")
    cycle = lcm_all(t.period_us for t in (*dynamic, *ns.tasks.values()))
    if horizon_us <= 0 or horizon_us % cycle:
        raise ValueError(
            f"horizon {horizon_us} us must be a positive multiple of the "
            f"combined static/dynamic cycle {cycle} us")

    own = ns.core_slices(core)
    if own and ns.major_frame_us <= 0:
        raise ValueError(f"major frame {ns.major_frame_us} us holds slices on "
                         f"core {core} of node {ns.node}")

    # the idle time around the static slices tiled over the horizon, the
    # last frame cut at the horizon; a node without static tasks has no
    # slices, so the range is never built
    static = sorted((sl.start_us + off, sl.end_us + off)
                    for sl in own
                    for off in range(0, horizon_us, ns.major_frame_us)
                    if sl.start_us + off < horizon_us)
    scale, runs, missed = edf(_jobs(dynamic, horizon_us), _idle_gaps(static, horizon_us))

    misses = sorted((DeadlineMiss(task, release, deadline)
                     for release, deadline, task, *_ in missed),
                    key=lambda m: (m.deadline_us, m.task, m.release_us))
    admitted = {t.id: True for t in dynamic}
    for m in misses:
        admitted[m.task] = False
    slices = tuple(TaskSlice(task, core, DYNAMIC_PARTITION, Fraction(a, scale),
                             Fraction(b, scale), k) for task, k, a, b in runs)
    return AdmissionReport(admitted, tuple(misses), slices)
