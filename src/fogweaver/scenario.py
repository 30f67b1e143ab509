"""Platform/application scenario model: types, validation, task expansion.

A :class:`Scenario` is the single input that drives every synthesis stage:
the wired topology (fog nodes, switches, sensor/actuator endpoints, directed
links), the periodic streams crossing it, and the applications pinned to fog
nodes. Instances are immutable; operations are pure functions.

Parsing from the textual description language lives in :mod:`fogweaver.dsl`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import FogweaverError
from .reporting import Report, ReportBuilder
from .units import fraction_to_decimal, lcm_all

DEFAULT_LINK_RATE_BPS = 100_000_000  # 100 Mbps
MAX_FRAME_BYTES = 1500
CRITICALITY_LEVELS = range(0, 5)


@dataclass(frozen=True)
class FogNodeSpec:
    """A fog node: a compute host with one or more cores."""

    id: str
    cores: int = 2
    fn_class: int = 1  # capability class 1..3, metadata only


@dataclass(frozen=True)
class SwitchSpec:
    id: str


@dataclass(frozen=True)
class EndpointSpec:
    """A sensor or actuator attached to the network."""

    id: str
    kind: str = "sensor"  # "sensor" | "actuator"


@dataclass(frozen=True)
class LinkSpec:
    """A directed wire. Declare both directions for full duplex."""

    src: str
    dst: str
    rate_bps: int = DEFAULT_LINK_RATE_BPS

    @property
    def id(self) -> str:
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True)
class StreamSpec:
    """A periodic unicast frame flow with a fixed route.

    ``route`` is the ordered entity path from ``src`` to ``dst`` inclusive.
    ``deadline_us`` defaults to the period.
    """

    id: str
    src: str
    dst: str
    size_bytes: int
    period_us: int
    criticality: int
    route: tuple[str, ...]
    deadline_us: int | None = None

    def __post_init__(self):
        if self.deadline_us is None:
            object.__setattr__(self, "deadline_us", self.period_us)
        object.__setattr__(self, "route", tuple(self.route))


@dataclass(frozen=True)
class TaskSpec:
    """One periodic task: worst-case execution time, period, deadline."""

    id: str
    wcet_us: Fraction
    period_us: int
    deadline_us: int | None = None

    def __post_init__(self):
        if self.deadline_us is None:
            object.__setattr__(self, "deadline_us", self.period_us)
        object.__setattr__(self, "wcet_us", Fraction(self.wcet_us))

    @property
    def utilization(self) -> Fraction:
        return self.wcet_us / self.period_us


@dataclass(frozen=True)
class ApplicationSpec:
    """An application: ``task_count`` tasks of one criticality on one node.

    ``utilization`` is the aggregate busy fraction of all tasks. Explicit
    per-task timing is optional; when absent, tasks are derived by
    :func:`expand_tasks`.
    """

    id: str
    node: str
    level: int
    task_count: int
    period_us: int
    utilization: Fraction
    tasks: tuple[TaskSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "utilization", Fraction(self.utilization))
        object.__setattr__(self, "tasks", tuple(self.tasks))


@dataclass(frozen=True)
class ModelParams:
    """Tunable model constants.

    ``d_hop_us`` is the per-hop forwarding latency of the cut-through
    delay model.
    """

    d_hop_us: Fraction = Fraction(2)
    default_link_rate_bps: int = DEFAULT_LINK_RATE_BPS

    def __post_init__(self):
        object.__setattr__(self, "d_hop_us", Fraction(self.d_hop_us))


@dataclass(frozen=True)
class Scenario:
    """A complete, immutable platform + application description."""

    nodes: tuple[FogNodeSpec, ...] = ()
    switches: tuple[SwitchSpec, ...] = ()
    endpoints: tuple[EndpointSpec, ...] = ()
    links: tuple[LinkSpec, ...] = ()
    streams: tuple[StreamSpec, ...] = ()
    applications: tuple[ApplicationSpec, ...] = ()
    params: ModelParams = field(default_factory=ModelParams)

    def __post_init__(self):
        for name in ("nodes", "switches", "endpoints", "links", "streams",
                     "applications"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    # -- lookup helpers -------------------------------------------------

    def entity_ids(self) -> set[str]:
        return ({n.id for n in self.nodes}
                | {s.id for s in self.switches}
                | {e.id for e in self.endpoints})

    def node(self, node_id: str) -> FogNodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def stream(self, stream_id: str) -> StreamSpec:
        return self._streams_by_id[stream_id]

    def link(self, src: str, dst: str) -> LinkSpec | None:
        return self._links_by_ends.get((src, dst))

    # built on first use; the first of several equal ids or ends wins, as
    # in a scan (validate reports the duplicates)
    @cached_property
    def _streams_by_id(self) -> dict[str, StreamSpec]:
        index: dict[str, StreamSpec] = {}
        for st in self.streams:
            index.setdefault(st.id, st)
        return index

    @cached_property
    def _links_by_ends(self) -> dict[tuple[str, str], LinkSpec]:
        index: dict[tuple[str, str], LinkSpec] = {}
        for l in self.links:
            index.setdefault((l.src, l.dst), l)
        return index

    def apps_on(self, node_id: str) -> tuple[ApplicationSpec, ...]:
        return tuple(a for a in self.applications if a.node == node_id)


def hyperperiod(periods_us) -> int:
    """Least common multiple of the given periods (integer microseconds)."""
    periods = list(periods_us)
    if not periods:
        raise FogweaverError("hyperperiod of an empty period set")
    if any(p <= 0 for p in periods):
        raise ValueError(f"periods must be positive, got {periods}")
    return lcm_all(periods)


def task_ids(app: ApplicationSpec) -> list[str]:
    """The explicit tasks' ids, else ``{app}/t{i}`` for i < ``task_count``."""
    return ([t.id for t in app.tasks] if app.tasks
            else [f"{app.id}/t{i}" for i in range(app.task_count)])


def expand_tasks(app: ApplicationSpec) -> list[TaskSpec]:
    """Materialize the task set of an application.

    Explicit tasks are returned unchanged. Otherwise the aggregate
    utilization is split evenly: the tasks of :func:`task_ids`, each with
    WCET = utilization x period / task_count, period and deadline equal to
    the application period. The split is exact (Fraction), so the summed
    utilization always reproduces the declared one.
    """
    if app.tasks:
        return list(app.tasks)
    wcet = app.utilization * app.period_us / app.task_count
    return [TaskSpec(task_id, wcet, app.period_us, app.period_us)
            for task_id in task_ids(app)]


# -- validation ---------------------------------------------------------

_UTIL_REL_TOL = Fraction(1, 10**9)


def validate(s: Scenario) -> Report:
    """Check every scenario invariant; one report entry per violation."""
    rb = ReportBuilder()
    _check_identifiers(s, rb)
    entities = s.entity_ids()
    node_ids = {n.id for n in s.nodes}

    for n in s.nodes:
        if n.cores < 1:
            rb.add("cores", n.id, f"core count must be >= 1, got {n.cores}")
        if n.fn_class not in (1, 2, 3):
            rb.add("fn-class", n.id, f"class must be 1..3, got {n.fn_class}")

    for e in s.endpoints:
        if e.kind not in ("sensor", "actuator"):
            rb.add("endpoint-kind", e.id, f"unknown kind {e.kind!r}")

    for l in s.links:
        for end in (l.src, l.dst):
            if end not in entities:
                rb.add("unknown-reference", l.id, f"undeclared entity {end!r}")
        if l.rate_bps <= 0:
            rb.add("rate", l.id, f"link rate must be positive, got {l.rate_bps}")

    for st in s.streams:
        _check_stream(s, st, entities, rb)

    for app in s.applications:
        _check_application(app, node_ids, rb)
    _check_task_ids(s, rb)

    if s.params.d_hop_us < 0:
        rb.add("params", "d_hop", f"d_hop must be >= 0, got {s.params.d_hop_us}")
    return rb.build()


def _check_identifiers(s: Scenario, rb: ReportBuilder) -> None:
    seen: dict[str, str] = {}
    for kind, items in (("node", s.nodes), ("switch", s.switches),
                        ("endpoint", s.endpoints)):
        for item in items:
            if item.id in seen:
                rb.add("duplicate-id", item.id,
                       f"declared as {seen[item.id]} and {kind}")
            seen[item.id] = kind
    for label, ids in (("stream", [st.id for st in s.streams]),
                       ("application", [a.id for a in s.applications]),
                       ("link", [l.id for l in s.links])):
        dupes = [i for i, n in Counter(ids).items() if n > 1]
        for d in sorted(dupes):
            rb.add("duplicate-id", d, f"{label} declared more than once")


def _check_task_ids(s: Scenario, rb: ReportBuilder) -> None:
    # a node schedule maps each task id to one core, so the tasks on one
    # node need distinct ids
    owners: dict[tuple[str, str], list[str]] = {}
    for app in s.applications:
        for task_id in task_ids(app):
            owners.setdefault((app.node, task_id), []).append(app.id)
    for (node, task_id), apps in owners.items():
        if len(apps) > 1:
            rb.add("duplicate-id", task_id, f"task declared {len(apps)} times "
                   f"on node {node} (applications {', '.join(apps)})")


def _check_stream(s: Scenario, st: StreamSpec, entities: set[str],
                  rb: ReportBuilder) -> None:
    if not 0 < st.size_bytes <= MAX_FRAME_BYTES:
        rb.add("stream-size", st.id,
               f"size must be in (0, {MAX_FRAME_BYTES}] bytes, got {st.size_bytes}")
    if st.period_us <= 0:
        rb.add("period", st.id, f"period must be positive, got {st.period_us}")
    if st.deadline_us > st.period_us:
        rb.add("deadline", st.id,
               f"deadline {st.deadline_us} exceeds period {st.period_us}")
    if st.deadline_us <= 0:
        rb.add("deadline", st.id, "deadline must be positive")
    if st.criticality not in CRITICALITY_LEVELS:
        rb.add("criticality", st.id, f"criticality must be 0..4, got {st.criticality}")
    missing = [e for e in dict.fromkeys((st.src, st.dst, *st.route))
               if e not in entities]
    for ent in missing:
        rb.add("unknown-reference", st.id, f"undeclared entity {ent!r}")
    if missing:
        return
    if len(st.route) < 2:
        rb.add("route", st.id, "route must contain at least two entities")
        return
    if st.route[0] != st.src or st.route[-1] != st.dst:
        rb.add("route", st.id,
               f"route must start at {st.src} and end at {st.dst}, "
               f"got {' -> '.join(st.route)}")
    for a, b in zip(st.route, st.route[1:]):
        if s.link(a, b) is None:
            rb.add("no-such-link", st.id, f"no declared link {a} -> {b}")


def _check_application(app: ApplicationSpec, node_ids: set[str],
                       rb: ReportBuilder) -> None:
    if app.node not in node_ids:
        rb.add("unknown-reference", app.id, f"undeclared fog node {app.node!r}")
    if not 0 < app.utilization <= 1:
        rb.add("utilization", app.id,
               f"utilization must be in (0, 1], got {app.utilization}")
    if app.task_count < 1:
        rb.add("task-count", app.id, f"task count must be >= 1, got {app.task_count}")
    if app.level not in CRITICALITY_LEVELS:
        rb.add("criticality", app.id, f"level must be 0..4, got {app.level}")
    if app.period_us <= 0:
        rb.add("period", app.id, f"period must be positive, got {app.period_us}")
    for t in app.tasks:
        if not 0 < t.wcet_us <= t.deadline_us <= t.period_us:
            rb.add("task-timing", f"{app.id}/{t.id}",
                   f"need 0 < wcet <= deadline <= period, got "
                   f"wcet={t.wcet_us} deadline={t.deadline_us} period={t.period_us}")
    if app.tasks:
        if len(app.tasks) != app.task_count:
            rb.add("task-count", app.id,
                   f"{len(app.tasks)} explicit tasks but task count {app.task_count}")
        total = sum((t.utilization for t in app.tasks), Fraction(0))
        if app.utilization and abs(total - app.utilization) > _UTIL_REL_TOL * app.utilization:
            rb.add("utilization-mismatch", app.id,
                   f"explicit tasks sum to utilization {float(total):.9f}, "
                   f"declared {float(app.utilization):.9f}")


# -- printing (inverse of the parser) ------------------------------------


def _fmt_time(us_value) -> str:
    us_value = Fraction(us_value)
    if us_value % 1000 == 0:
        return f"{us_value // 1000}ms"
    return f"{fraction_to_decimal(us_value)}us"


def scenario_to_text(s: Scenario) -> str:
    """Render a scenario back to its textual form.

    Parsing the output yields a structurally equal scenario, which is the
    round-trip guarantee the tests pin down. A value the language cannot
    write, one with no finite decimal form, raises ValueError.
    """
    out: list[str] = []
    for sw in s.switches:
        out.append(f"switch {sw.id}")
    for n in s.nodes:
        out.append(f"node {n.id} {{ cores {n.cores} class {n.fn_class} }}")
    for e in s.endpoints:
        out.append(f"endpoint {e.id} {{ kind {e.kind} }}")
    for l in s.links:
        rate = ""
        if l.rate_bps != s.params.default_link_rate_bps:
            rate = f" rate {fraction_to_decimal(Fraction(l.rate_bps, 10**6))}Mbps"
        out.append(f"link {l.src} -> {l.dst}{rate}")
    p = s.params
    out.append(
        f"params {{ d_hop {fraction_to_decimal(p.d_hop_us)}us "
        f"link_rate {fraction_to_decimal(Fraction(p.default_link_rate_bps, 10**6))}Mbps }}"
    )
    for st in s.streams:
        parts = [f'stream "{st.id}" {{ src {st.src} dst {st.dst}',
                 f"size {st.size_bytes}B period {_fmt_time(st.period_us)}"]
        if st.deadline_us != st.period_us:
            parts.append(f"deadline {_fmt_time(st.deadline_us)}")
        parts.append(f"criticality {st.criticality}")
        parts.append(f"route {','.join(st.route)} }}")
        out.append(" ".join(parts))
    for a in s.applications:
        parts = [f'app "{a.id}" on {a.node} {{ level {a.level} tasks {a.task_count}',
                 f"period {_fmt_time(a.period_us)} util {fraction_to_decimal(a.utilization)}"]
        for t in a.tasks:
            parts.append(f'task "{t.id}" wcet {fraction_to_decimal(t.wcet_us)}us '
                         f"period {_fmt_time(t.period_us)}")
            if t.deadline_us != t.period_us:
                parts.append(f"deadline {_fmt_time(t.deadline_us)}")
        parts.append("}")
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"
