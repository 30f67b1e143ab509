"""Per-node partition and task schedule synthesis.

Each fog node hosts applications of several criticality levels on a small
number of cores. Tasks are bin-packed onto cores (first-fit decreasing by
utilization, no migration); a core whose tasks include a deadline shorter
than its period takes a task only when EDF over one hyperperiod from a
synchronous release meets every deadline. Each core is scheduled with
preemptive EDF over the node's major frame in integer ticks, and
:func:`with_layouts` turns the runs into slices and merges each level's
back-to-back runs on a core into the windows of one partition per level.
The verifier re-derives every property of a finished schedule from the
slices alone, on an integer time base it derives from the schedule itself.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import FogweaverError, InfeasibleError
from .reporting import Report, ReportBuilder
from .scenario import ApplicationSpec, FogNodeSpec, expand_tasks, hyperperiod
from .units import time_base, time_from_json, time_to_json, to_ticks


@dataclass(frozen=True)
class NodeTask:
    """A schedulable task on a node: application task plus its criticality."""

    id: str
    criticality: int
    wcet_us: Fraction
    period_us: int
    deadline_us: int

    @property
    def utilization(self) -> Fraction:
        return self.wcet_us / self.period_us


@dataclass(frozen=True)
class Partition:
    """Time windows on one core reserved for one criticality level."""

    id: str
    node: str
    criticality: int
    core: int
    windows: tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class TaskSlice:
    """One contiguous execution interval of one job."""

    task: str
    core: int
    partition: str
    start_us: Fraction
    end_us: Fraction
    job_index: int

    @property
    def duration_us(self) -> Fraction:
        return self.end_us - self.start_us


@dataclass(frozen=True)
class NodeSchedule:
    node: str
    cores: int
    major_frame_us: int
    tasks: dict[str, NodeTask]
    partitions: tuple[Partition, ...]
    slices: tuple[TaskSlice, ...]
    per_core_utilization: tuple[Fraction, ...]

    def core_slices(self, core: int) -> list[TaskSlice]:
        return sorted((sl for sl in self.slices if sl.core == core),
                      key=lambda sl: sl.start_us)


def node_tasks(apps: list[ApplicationSpec]) -> list[NodeTask]:
    """Expand every application into criticality-tagged schedulable tasks."""
    out = []
    for app in apps:
        for t in expand_tasks(app):
            out.append(NodeTask(t.id, app.level, t.wcet_us, t.period_us,
                                t.deadline_us))
    return out


def _jobs(tasks, frame: int) -> list[tuple]:
    """The :func:`edf` jobs released in [0, frame) by node or scenario ``tasks``."""
    return [(k * t.period_us, k * t.period_us + t.deadline_us, t.id, k,
             t.wcet_us)
            for t in tasks for k in range(frame // t.period_us)]


def _edf_fits(tasks: list[NodeTask]) -> bool:
    """Whether one EDF core of utilization <= 1 meets every deadline.

    Implicit deadlines always pass. Otherwise EDF runs one hyperperiod from
    the synchronous release, the worst case: with utilization <= 1 it meets
    every deadline exactly when the processor-demand test passes (Baruah,
    Rosier & Howell 1990).
    """
    if all(t.deadline_us == t.period_us for t in tasks):
        return True
    frame = hyperperiod([t.period_us for t in tasks])
    return not edf(_jobs(tasks, frame), [(0, frame)])[2]


def map_to_cores(apps: list[ApplicationSpec], cores: int) -> dict[str, int]:
    """First-fit-decreasing bin packing of tasks onto cores by utilization.

    A core takes a task when its utilization stays at most 1 and EDF
    schedules its tasks (:func:`_edf_fits`). Tasks never migrate. Raises
    :class:`InfeasibleError` naming the tasks that do not fit when the
    packing fails, with ``gave_up`` unless the total utilization exceeds
    ``cores``: first-fit is a heuristic, and its failure proves nothing.
    """
    if cores < 1:
        raise ValueError(f"need at least one core, got {cores}")
    # each utilization is divided once, for the sort key and the fit test
    tasks = sorted(((t.utilization, t) for t in node_tasks(apps)),
                   key=lambda ut: (-ut[0], ut[1].id))
    load = [Fraction(0)] * cores
    on_core: list[list[NodeTask]] = [[] for _ in range(cores)]
    mapping: dict[str, int] = {}
    unplaced: list[str] = []
    for u, t in tasks:
        for core in range(cores):
            if (load[core] + u <= 1
                    and _edf_fits(on_core[core] + [t])):
                load[core] += u
                on_core[core].append(t)
                mapping[t.id] = core
                break
        else:
            unplaced.append(t.id)
    if unplaced:
        total = sum((u for u, _ in tasks), Fraction(0))
        raise InfeasibleError(
            f"cannot pack tasks onto {cores} cores "
            f"(total utilization {float(total):.3f})",
            unplaced=unplaced, gave_up=total <= cores)
    return mapping


def edf(jobs: list[tuple], intervals) -> tuple[int, list[tuple], list[tuple]]:
    """Event-driven preemptive EDF of ``jobs`` inside the ``intervals``.

    A job is ``(release, deadline, task, job, wcet)``; ``intervals`` are
    start-sorted, disjoint ``(start, end)`` pairs of available time. The
    ready job with the earliest deadline runs, ties broken by task id, then
    job index; a run ends at the next release, the end of its interval or
    the job's deadline. A job unfinished at its deadline, or when the
    intervals run out, is dropped. The simulation runs on exact integer
    ticks of ``1/scale`` us, ``scale`` being the :func:`time_base` of the
    input.

    Returns ``scale``, the runs ``(task, job, start, end)`` in ticks,
    consecutive runs of one job merged, and the dropped jobs.
    """
    scale = time_base((x for j in jobs for x in (j[0], j[1], j[4])),
                      (x for iv in intervals for x in iv))
    # [release, deadline, task, job, work left, the caller's job], times in
    # ticks, latest release first so that pop() takes the earliest
    pending = sorted(([to_ticks(j[0], scale), to_ticks(j[1], scale), j[2],
                       j[3], to_ticks(j[4], scale), j] for j in jobs),
                     key=lambda e: e[0], reverse=True)
    ready: list[tuple] = []  # heap of (deadline, task, job, entry)
    runs: list[tuple] = []
    missed: list[tuple] = []
    for start, end in intervals:
        t, end = to_ticks(start, scale), to_ticks(end, scale)
        while t < end:
            while pending and pending[-1][0] <= t:
                entry = pending.pop()
                heapq.heappush(ready, (entry[1], entry[2], entry[3], entry))
            while ready and ready[0][0] <= t:
                missed.append(heapq.heappop(ready)[3][5])
            if not ready:
                if not pending:
                    break
                t = pending[-1][0]
                continue
            deadline, task, k, entry = ready[0]
            stop = min(end, deadline, t + entry[4])
            if pending and pending[-1][0] < stop:
                stop = pending[-1][0]
            if runs and runs[-1][:2] == (task, k) and runs[-1][3] == t:
                runs[-1] = (task, k, runs[-1][2], stop)
            else:
                runs.append((task, k, t, stop))
            entry[4] -= stop - t
            t = stop
            if entry[4] == 0:
                heapq.heappop(ready)
    missed += [entry[5] for *_, entry in ready] + [e[5] for e in pending]
    return scale, runs, missed


def synthesize_node_schedule(node: FogNodeSpec, apps: list[ApplicationSpec],
                             mapping: dict[str, int]) -> NodeSchedule:
    """Build the static partition + task schedule of one node.

    ``mapping`` assigns every task (see :func:`node_tasks`) to a core.
    Per core, jobs are laid out by preemptive EDF over the node's major
    frame (LCM of all task periods on the node), and :func:`with_layouts`
    turns the runs into slices and partition windows.
    """
    tasks = node_tasks(apps)
    task_map = {t.id: t for t in tasks}
    missing = [t.id for t in tasks if t.id not in mapping]
    if missing:
        raise ValueError(f"mapping misses tasks: {missing}")
    bad_core = {t: c for t, c in mapping.items() if not 0 <= c < node.cores}
    if bad_core:
        raise ValueError(f"mapping uses cores outside 0..{node.cores - 1}: {bad_core}")

    if not tasks:
        return NodeSchedule(node.id, node.cores, 0, {}, (),
                            (), tuple(Fraction(0) for _ in range(node.cores)))

    major_frame = hyperperiod([t.period_us for t in tasks])
    layouts = []
    for core in range(node.cores):
        on_core = [t for t in tasks if mapping[t.id] == core]
        scale, runs, missed = edf(_jobs(on_core, major_frame), [(0, major_frame)])
        if missed:
            _, deadline, task, k, _ = min(missed, key=lambda j: j[1:4])
            raise InfeasibleError(
                f"node {node.id} core {core}: job {task}#{k} misses its "
                f"deadline {deadline} us", unplaced=[task])
        layouts.append((scale, runs))
    return with_layouts(NodeSchedule(node.id, node.cores, major_frame, task_map,
                                     (), (), ()), layouts)


def with_layouts(ns: NodeSchedule, layouts) -> NodeSchedule:
    """``ns`` with the slices, partitions and utilizations of one integer
    layout per core.

    ``layouts[core]`` is ``(scale, runs)``: the core's runs ``(task, job,
    start, end)`` in chronological order, in ticks of ``1/scale`` us. Each
    run becomes a slice of the partition of its task's level on that core,
    and a level's back-to-back runs merge into one window, compared in
    ticks; every bound becomes a ``Fraction`` once.
    """
    slices, partitions, util = [], [], []
    for core, (scale, runs) in enumerate(layouts):
        # per level, its windows as [end in ticks, start us, end us]
        windows: dict[int, list[list]] = {}
        for task, k, start, end in runs:
            level = ns.tasks[task].criticality
            a, b = Fraction(start, scale), Fraction(end, scale)
            wins = windows.setdefault(level, [])
            if wins and wins[-1][0] == start:
                wins[-1][0], wins[-1][2] = end, b
            else:
                wins.append([end, a, b])
            slices.append(TaskSlice(task, core, f"{ns.node}.c{core}.L{level}",
                                    a, b, k))
        partitions += [Partition(f"{ns.node}.c{core}.L{level}", ns.node, level,
                                 core, tuple((a, b) for _, a, b in wins))
                       for level, wins in sorted(windows.items())]
        util.append(Fraction(sum(end - start for *_, start, end in runs),
                             scale * ns.major_frame_us))
    return replace(ns, partitions=tuple(partitions), slices=tuple(slices),
                   per_core_utilization=tuple(util))


def verify_node_schedule(ns: NodeSchedule) -> Report:
    """Independent check of a node schedule.

    Verifies per-core non-overlap, full WCET before every deadline,
    criticality isolation, slice containment in partition windows, that
    every slice belongs to a job of the major frame, per-core window
    disjointness and the recorded utilization figures.

    The checks run on integers: every slice and window bound and every
    WCET is scaled once by the lcm ``D`` of their denominators, and each
    recorded utilization is compared with ``busy / (D * frame)`` by
    cross-multiplication. Multiplying by a positive number keeps equality
    and order, so each verdict is the exact ``Fraction`` one; messages
    print the original values or ``x / D``.
    """
    rb = ReportBuilder()
    frame = ns.major_frame_us
    D = time_base((t for sl in ns.slices for t in (sl.start_us, sl.end_us)),
                  (t for p in ns.partitions for w in p.windows for t in w),
                  (t.wcet_us for t in ns.tasks.values()))
    rows = [(sl, to_ticks(sl.start_us, D), to_ticks(sl.end_us, D))
            for sl in ns.slices]
    per_core: dict[int, list[tuple[TaskSlice, int, int]]] = {}
    jobs: dict[tuple[str, int], list[tuple[TaskSlice, int, int]]] = {}
    for row in rows:
        sl = row[0]
        per_core.setdefault(sl.core, []).append(row)
        jobs.setdefault((sl.task, sl.job_index), []).append(row)

    for core in range(ns.cores):
        slices = sorted(per_core.get(core, ()), key=lambda r: r[1])
        for (a, _, a_end), (b, b_start, _) in zip(slices, slices[1:]):
            if b_start < a_end:
                rb.add("core-overlap", f"{ns.node}.c{core}",
                       f"{a.task}#{a.job_index} [{a.start_us}, {a.end_us}) overlaps "
                       f"{b.task}#{b.job_index} [{b.start_us}, {b.end_us})")
        wins = sorted(((to_ticks(w[0], D), to_ticks(w[1], D), w, p)
                       for p in ns.partitions
                       if p.core == core for w in p.windows), key=lambda r: r[:2])
        for (_, end1, w1, p1), (start2, _, w2, p2) in zip(wins, wins[1:]):
            if start2 < end1:
                rb.add("window-overlap", f"{ns.node}.c{core}",
                       f"partition {p1.id} window [{w1[0]}, {w1[1]}) overlaps "
                       f"{p2.id} window [{w2[0]}, {w2[1]})")

    parts = {p.id: (p, [(to_ticks(w[0], D), to_ticks(w[1], D)) for w in p.windows])
             for p in ns.partitions}
    for sl, start, end in rows:
        if end <= start:
            rb.add("containment", sl.task, f"empty or inverted slice at {sl.start_us}")
        task = ns.tasks.get(sl.task)
        part, part_wins = parts.get(sl.partition, (None, ()))
        if task is None or part is None:
            rb.add("reference", sl.task,
                   f"slice references unknown task or partition {sl.partition!r}")
            continue
        if part.criticality != task.criticality:
            rb.add("isolation", sl.task,
                   f"level-{task.criticality} task runs in level-{part.criticality} "
                   f"partition {part.id}")
        if part.core != sl.core or not any(
                w0 <= start and end <= w1 for w0, w1 in part_wins):
            rb.add("containment", sl.task,
                   f"slice [{sl.start_us}, {sl.end_us}) on core {sl.core} is not "
                   f"inside a window of partition {part.id}")
        if not 0 <= sl.job_index < frame // task.period_us:
            rb.add("reference", sl.task,
                   f"slice of job {sl.job_index}, which the major frame of "
                   f"{frame} us does not hold")

    for task in ns.tasks.values():
        if frame % task.period_us:
            rb.add("frame", task.id,
                   f"period {task.period_us} does not divide major frame {frame}")
            continue
        wcet = to_ticks(task.wcet_us, D)
        for k in range(frame // task.period_us):
            release = k * task.period_us
            deadline = release + task.deadline_us
            job = jobs.get((task.id, k), ())
            if not all(release * D <= start and end <= deadline * D
                       for _, start, end in job):
                rb.add("deadline", task.id,
                       f"job {k} executes outside its window "
                       f"[{release}, {deadline})")
            total = sum(end - start for _, start, end in job)
            if total != wcet:
                rb.add("deadline", task.id,
                       f"job {k} received {Fraction(total, D)} us of {task.wcet_us} us "
                       f"before its deadline")

    for core in range(ns.cores):
        busy = sum(end - start for _, start, end in per_core.get(core, ()))
        # the utilization the slices give is num / den
        num, den = (busy, D * frame) if frame else (0, 1)
        recorded = (ns.per_core_utilization[core]
                    if core < len(ns.per_core_utilization) else None)
        if (recorded is None
                or recorded.numerator * den != num * recorded.denominator):
            rb.add("utilization", f"{ns.node}.c{core}",
                   f"recorded utilization {recorded}, slices give {Fraction(num, den)}")
        if num > den:
            rb.add("utilization", f"{ns.node}.c{core}",
                   f"core is busy {num / den:.3f} of the frame")
    return rb.build()


@dataclass(frozen=True)
class UtilizationReport:
    per_core: tuple[tuple[str, int, Fraction], ...]  # (node, core, busy fraction)
    average: Fraction
    max_value: Fraction
    max_node: str
    max_core: int


def utilization_report(schedules: list[NodeSchedule]) -> UtilizationReport:
    """Busy fractions per core, their average and the most loaded core."""
    per_core = []
    for ns in schedules:
        for core in range(ns.cores):
            per_core.append((ns.node, core, ns.per_core_utilization[core]))
    if not per_core:
        return UtilizationReport((), Fraction(0), Fraction(0), "", 0)
    average = sum((u for _, _, u in per_core), Fraction(0)) / len(per_core)
    max_node, max_core, max_value = max(per_core, key=lambda x: (x[2], x[0], x[1]))
    return UtilizationReport(tuple(per_core), average, max_value, max_node, max_core)


# -- JSON round-trip -------------------------------------------------------


def node_schedule_to_json(ns: NodeSchedule) -> dict:
    """Partition-table export: windows and slices per core, plus the task
    metadata needed to re-verify the schedule after loading."""
    cores = []
    for core in range(ns.cores):
        cores.append({
            "core": core,
            "windows": [
                {
                    "partition": p.id,
                    "criticality": p.criticality,
                    "start_us": time_to_json(w[0]),
                    "end_us": time_to_json(w[1]),
                }
                for p in ns.partitions if p.core == core for w in p.windows
            ],
            "slices": [
                {
                    "task": sl.task,
                    "job": sl.job_index,
                    "partition": sl.partition,
                    "start_us": time_to_json(sl.start_us),
                    "end_us": time_to_json(sl.end_us),
                }
                for sl in ns.core_slices(core)
            ],
        })
    return {
        "node": ns.node,
        "major_frame_us": ns.major_frame_us,
        "cores": cores,
        "tasks": {
            t.id: {
                "criticality": t.criticality,
                "wcet_us": time_to_json(t.wcet_us),
                "period_us": t.period_us,
                "deadline_us": t.deadline_us,
            }
            for t in ns.tasks.values()
        },
        "per_core_utilization": [time_to_json(u) for u in ns.per_core_utilization],
    }


def node_schedule_from_json(doc: dict) -> NodeSchedule:
    """Inverse of :func:`node_schedule_to_json`.

    Raises :class:`FogweaverError` for a missing key or a value of the
    wrong type. It does not check the schedule itself; that is
    :func:`verify_node_schedule`'s job.
    """
    try:
        return _node_schedule_from_json(doc)
    except KeyError as exc:
        raise FogweaverError(f"node schedule: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise FogweaverError(f"node schedule: {exc}") from None


def _whole(value, what: str, least: int = 0) -> int:
    if type(value) is not int or value < least:
        raise ValueError(f"{what} must be a whole number >= {least}, "
                         f"got {value!r}")
    return value


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def _node_schedule_from_json(doc: dict) -> NodeSchedule:
    node = _text(doc["node"], "node")
    tasks = {
        tid: NodeTask(tid, _whole(spec["criticality"], "criticality"),
                      time_from_json(spec["wcet_us"]),
                      _whole(spec["period_us"], "period_us", 1),
                      _whole(spec["deadline_us"], "deadline_us", 1))
        for tid, spec in doc.get("tasks", {}).items()
    }
    partitions: dict[str, Partition] = {}
    slices: list[TaskSlice] = []
    cores = [_whole(core_doc["core"], "core") for core_doc in doc["cores"]]
    for core, core_doc in zip(cores, doc["cores"]):
        for w in core_doc.get("windows", ()):
            pid = _text(w["partition"], "partition")
            win = (time_from_json(w["start_us"]), time_from_json(w["end_us"]))
            if pid in partitions:
                partitions[pid] = replace(partitions[pid],
                                          windows=partitions[pid].windows + (win,))
            else:
                partitions[pid] = Partition(
                    pid, node, _whole(w["criticality"], "criticality"),
                    core, (win,))
        for sl in core_doc.get("slices", ()):
            slices.append(TaskSlice(_text(sl["task"], "task"), core,
                                    _text(sl["partition"], "partition"),
                                    time_from_json(sl["start_us"]),
                                    time_from_json(sl["end_us"]),
                                    _whole(sl["job"], "job")))
    n_cores = max(cores) + 1 if cores else 0
    util = [time_from_json(u) for u in doc.get("per_core_utilization", [])]
    while len(util) < n_cores:
        util.append(Fraction(0))
    return NodeSchedule(node, n_cores,
                        _whole(doc["major_frame_us"], "major_frame_us"), tasks,
                        tuple(partitions.values()), tuple(slices), tuple(util))
