"""Gate-control-list synthesis and independent schedule verification.

Every stream gets a single injection offset per period (zero jitter by
construction); its frame then occupies one transmission window per route
link, the window on link ``j`` opening exactly ``j * d_hop`` after the
previous one (cut-through forwarding). Synthesis is a deterministic
earliest-offset search: streams are ordered by criticality (descending),
period (ascending) and size (descending), each is placed at the earliest
0.1 us grid offset whose windows fit into the idle time of every route
link, and chronological backtracking revisits earlier placements when a
stream cannot be placed. Because the most critical streams are placed
first, they are the ones pushed toward their delay lower bound.

A stream whose delay lower bound exceeds its deadline is reported
infeasible before the search starts.

The search runs on exact integer ticks of 1/lcm(10, denominator of
``d_hop``) us: transmission times lie on the 0.1 us grid and periods and
deadlines are whole microseconds, so every time it compares is a whole
number of ticks. Each link's busy state holds one ``(start, period, tx)``
entry per placed stream crossing it, not its windows over the cycle: every
window lies inside its own period slot, so two window trains of periods
``T`` and ``T'`` collide exactly when their starts collide modulo
``gcd(T, T')`` (Korst, Aarts, Lenstra & Wessels 1991), and a candidate
folds each entry modulo that gcd. Backtracking pops the entries of the
latest placement. The accepted offsets are turned into ``Fraction`` offsets
and windows once, at the end. The verifier re-checks a finished schedule
exactly and shares no code with the solver: it derives an integer base of
its own from its input with ``units.time_base``, the lcm of the
denominators of every time it reads, and runs every check on integers.
The exporter and the Gantt chart list each port in one order, ``port_order``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import FogweaverError, InfeasibleError
from .netmodel import resolve_route, transmission_time
from .reporting import Report, ReportBuilder
from .scenario import Scenario, StreamSpec, hyperperiod
from .units import GRID_US, time_base, time_to_json, to_ticks

DEFAULT_NODE_BUDGET = 10**6


@dataclass(frozen=True)
class FrameWindow:
    """One gate-open interval for one frame instance on one link."""

    link: str        # link id "src->dst"
    stream: str
    instance: int    # k-th release within the cycle
    open_us: Fraction
    close_us: Fraction


@dataclass(frozen=True)
class StreamTiming:
    ed_us: Fraction      # worst-case end-to-end delay, release to last bit
    jitter_us: Fraction  # max - min delay across instances


@dataclass(frozen=True)
class NetSchedule:
    """A synthesized network schedule over one cycle (stream hyperperiod)."""

    cycle_us: int
    d_hop_us: Fraction
    offsets: dict[str, Fraction]          # stream -> injection offset
    windows: tuple[FrameWindow, ...]
    per_stream: dict[str, StreamTiming]


def _priority_key(st: StreamSpec):
    # higher criticality first, then shorter period, then bigger frames
    return (-st.criticality, st.period_us, -st.size_bytes, st.id)


@dataclass(frozen=True)
class _TickStream:
    """One stream's search inputs in integer ticks."""

    period: int
    tx: int
    hops: tuple[tuple[str, int], ...]  # (link id, shift of its window)
    phi_max: int                        # latest offset that meets the deadline


def _tick_windows(t: _TickStream, phi: int,
                  span: int) -> Iterator[tuple[int, str, int]]:
    """(instance, link id, open tick) of each window of a stream at ``phi``."""
    for k, base in enumerate(range(phi, phi + span, t.period)):
        for link, shift in t.hops:
            yield k, link, base + shift


def _forbidden_offsets(t: _TickStream, busy: dict[str, list[tuple[int, int, int]]],
                       ) -> list[tuple[int, int]]:
    """Open intervals of phi that collide with already-placed window trains.

    A train ``(b, P, ptx)`` holds the windows ``[b + lP, b + lP + ptx)``;
    the stream's windows on that link open at ``phi + shift + kT``. Over the
    cycle ``kT - lP`` takes every multiple of ``g = gcd(T, P)``, and every
    window lies inside its own period slot, so the two trains collide iff
    ``b - shift - tx + m*g < phi < b - shift + ptx + m*g`` for some integer m.
    """
    T, tx, phi_max = t.period, t.tx, t.phi_max
    out: list[tuple[int, int]] = []
    for link, shift in t.hops:
        for b, P, ptx in busy.get(link, ()):
            g = math.gcd(T, P)
            hi = (b - shift + ptx - 1) % g + 1  # the first end above 0
            lo = hi - ptx - tx
            while lo < phi_max:
                out.append((lo, hi))
                lo += g
                hi += g
    out.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in out:
        if merged and lo < merged[-1][1]:  # strict: touching intervals keep the
            if hi > merged[-1][1]:         # shared endpoint schedulable
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _offset_candidates(t: _TickStream, grid: int,
                       busy: dict[str, list[tuple[int, int, int]]]) -> Iterator[int]:
    """Feasible injection offsets in increasing order, on the ``grid``."""
    forbidden = _forbidden_offsets(t, busy)
    phi = 0
    idx = 0
    while phi <= t.phi_max:
        while idx < len(forbidden) and forbidden[idx][1] <= phi:
            idx += 1
        if idx < len(forbidden) and forbidden[idx][0] < phi < forbidden[idx][1]:
            phi = -(-forbidden[idx][1] // grid) * grid  # round up to the grid
            continue
        yield phi
        phi += grid


def synthesize_gcl(s: Scenario, node_budget: int = DEFAULT_NODE_BUDGET) -> NetSchedule:
    """Place every stream at its earliest feasible offset, with backtracking.

    Deterministic for a given scenario. Raises :class:`InfeasibleError`
    naming the streams that could not be placed when the search space or
    the ``node_budget`` is exhausted (``gave_up`` tells the two apart), and
    naming the stream alone when its delay lower bound exceeds its deadline.
    """
    if not s.streams:
        return NetSchedule(0, s.params.d_hop_us, {}, (), {})

    d_hop = s.params.d_hop_us
    cycle = hyperperiod([st.period_us for st in s.streams])
    order = sorted(s.streams, key=_priority_key)

    # one tick is 1/scale us: transmission times lie on the 0.1 us grid,
    # periods and deadlines are whole us, so every search time is a whole tick
    scale = time_base((GRID_US, d_hop))
    grid = to_ticks(GRID_US, scale)
    hop = to_ticks(d_hop, scale)
    ticks = []
    for st in order:
        route = resolve_route(s, st)
        tx = to_ticks(transmission_time(
            st.size_bytes, min(l.rate_bps for l in route.links)), scale)
        # the last window closes in its period slot, so busy trains fold
        # exactly modulo the gcd of two periods
        deadline = min(st.deadline_us, st.period_us)
        bound = tx + route.hops * hop
        if bound > deadline * scale:
            raise InfeasibleError(
                f"stream {st.id}: delay lower bound "
                f"{time_to_json(Fraction(bound, scale))} us exceeds its "
                f"deadline {deadline} us", unplaced=[st.id])
        ticks.append(_TickStream(
            period=st.period_us * scale,
            tx=tx,
            hops=tuple((link.id, j * hop) for j, link in enumerate(route.links)),
            phi_max=deadline * scale - bound))

    # one (start, period, tx) window train per placed stream and hop;
    # backtracking undoes the latest placement, which owns each list's tail
    busy: dict[str, list[tuple[int, int, int]]] = {}
    offsets: list[int | None] = [None] * len(order)
    gens: list[Iterator[int] | None] = [None] * len(order)
    nodes_tried = 0
    deepest_failure = 0

    i = 0
    while 0 <= i < len(order):
        t = ticks[i]
        if gens[i] is None:
            gens[i] = _offset_candidates(t, grid, busy)
        phi = next(gens[i], None)
        if phi is None:
            # dead end: drop this stream's generator, undo the previous
            # placement and continue from its next candidate offset
            deepest_failure = max(deepest_failure, i)
            gens[i] = None
            i -= 1
            if i >= 0:
                for link, _ in ticks[i].hops:
                    busy[link].pop()
            continue
        nodes_tried += 1
        if nodes_tried > node_budget:
            raise InfeasibleError(
                f"search budget of {node_budget} placements exhausted",
                unplaced=[o.id for o in order[i:]], gave_up=True)
        for link, shift in t.hops:
            busy.setdefault(link, []).append((phi + shift, t.period, t.tx))
        offsets[i] = phi
        i += 1

    if i < 0:
        raise InfeasibleError(
            "no feasible offset assignment",
            unplaced=[o.id for o in order[deepest_failure:]])

    placed = list(zip(order, ticks, offsets))
    windows = tuple(
        FrameWindow(link, st.id, k, Fraction(opn, scale),
                    Fraction(opn + t.tx, scale))
        for st, t, phi in placed
        for k, link, opn in _tick_windows(t, phi, cycle * scale))
    phis = {st.id: Fraction(phi, scale) for st, _, phi in placed}
    # zero jitter: every instance arrives tx + hops * d_hop after its offset
    timing = {st.id: StreamTiming(Fraction(phi + t.tx + len(t.hops) * hop, scale),
                                  Fraction(0))
              for st, t, phi in placed}
    return NetSchedule(cycle, d_hop, {st.id: phis[st.id] for st in s.streams},
                       windows, {st.id: timing[st.id] for st in s.streams})


def stream_metrics(ns: NetSchedule, st: StreamSpec) -> StreamTiming:
    """End-to-end delay and jitter of one stream, measured from the windows.

    The delay of instance ``k`` is the close of its last window plus the
    final forwarding hop, relative to the release at ``k * period``; jitter
    is the spread of that delay across instances.
    """
    by_instance: dict[int, Fraction] = {}
    for w in ns.windows:
        if w.stream == st.id:
            prev = by_instance.get(w.instance)
            if prev is None or w.close_us > prev:
                by_instance[w.instance] = w.close_us
    if not by_instance:
        raise FogweaverError(st.id)
    delays = [close + ns.d_hop_us - k * st.period_us
              for k, close in by_instance.items()]
    return StreamTiming(ed_us=max(delays), jitter_us=max(delays) - min(delays))


def verify_net_schedule(ns: NetSchedule, s: Scenario) -> Report:
    """Re-check a network schedule by direct interval arithmetic.

    Independent of the solver: works only from the windows, the offsets,
    the recorded per-stream timings and the scenario. Checks per-link
    non-overlap, route precedence spacing, window length, period
    containment, deadline satisfaction, zero jitter, completeness (every
    instance of every stream present), that no window lies beyond the
    stream's instances or off its route, and that each stream's recorded
    delay and jitter are the ones its windows give.

    The checks run on integers: every time it reads (window ends, offsets,
    recorded timings, ``d_hop``, transmission times, periods, deadlines,
    the cycle) is scaled once by the lcm ``D`` of their denominators.
    Multiplying by a positive ``D`` keeps equality and order, so each
    verdict is the exact ``Fraction`` one; messages print the original
    values or ``x / D``.
    """
    rb = ReportBuilder()
    d_hop = ns.d_hop_us

    # the inputs of each declared stream: (stream, offset, route link ids, tx)
    named = {w.stream for w in ns.windows}
    plan = []
    for st in s.streams:
        phi = ns.offsets.get(st.id)
        if phi is None or st.id not in named:
            plan.append((st, None, None, None))
            continue
        route = resolve_route(s, st)
        tx = transmission_time(st.size_bytes,
                               min(l.rate_bps for l in route.links))
        plan.append((st, phi, [l.id for l in route.links], tx))

    D = time_base((d_hop, ns.cycle_us), ns.offsets.values(),
                  (t for w in ns.windows for t in (w.open_us, w.close_us)),
                  (t for r in ns.per_stream.values()
                   for t in (r.ed_us, r.jitter_us)),
                  (v for st, phi, _, tx in plan if phi is not None
                   for v in (tx, st.period_us, st.deadline_us)))

    per_link: dict[str, list[tuple[FrameWindow, int, int]]] = {}
    per_stream: dict[str, list[tuple[FrameWindow, int, int]]] = {}
    for w in ns.windows:
        row = (w, to_ticks(w.open_us, D), to_ticks(w.close_us, D))
        per_link.setdefault(w.link, []).append(row)
        per_stream.setdefault(w.stream, []).append(row)

    for link_id in sorted(per_link):
        rows = sorted(per_link[link_id], key=lambda r: (r[1], r[2]))
        for (a, _, a_close), (b, b_open, _) in zip(rows, rows[1:]):
            if b_open < a_close:
                rb.add("overlap", link_id,
                       f"{a.stream}#{a.instance} [{a.open_us}, {a.close_us}) overlaps "
                       f"{b.stream}#{b.instance} [{b.open_us}, {b.close_us})")

    hop = to_ticks(d_hop, D)
    cycle = to_ticks(ns.cycle_us, D)
    for st, phi, link_order, tx in plan:
        if phi is None:
            rb.add("missing", st.id, "stream has no offset or no windows")
            continue
        rows = per_stream[st.id]
        T = st.period_us
        instances = ns.cycle_us // T if T else 0

        by_key = {(w.instance, w.link): (w, opn, cls) for w, opn, cls in rows}
        if len(by_key) != len(rows):
            rb.add("missing", st.id, "duplicate window for one (instance, link)")
        for k, link_id in by_key:
            if not (0 <= k < instances and link_id in link_order):
                rb.add("containment", st.id,
                       f"window of instance {k} on {link_id} is not one of "
                       f"the {instances} instances on the route")
        phi_d, tx_d, T_d = to_ticks(phi, D), to_ticks(tx, D), to_ticks(T, D)
        deadline = to_ticks(st.deadline_us, D)
        arrivals = []  # the delay of each instance, scaled
        for k in range(instances):
            release = k * T_d
            delays = []
            for j, link_id in enumerate(link_order):
                row = by_key.get((k, link_id))
                if row is None:
                    rb.add("missing", st.id, f"instance {k} has no window on {link_id}")
                    continue
                w, opn, cls = row
                expected_open = phi_d + release + j * hop
                if opn != expected_open:
                    rb.add("precedence", st.id,
                           f"instance {k} on {link_id} opens at {w.open_us}, "
                           f"expected {Fraction(expected_open, D)}")
                if cls - opn != tx_d:
                    rb.add("window-length", st.id,
                           f"instance {k} on {link_id} has length "
                           f"{Fraction(cls - opn, D)}, expected {tx}")
                if not (release <= opn and cls <= release + T_d):
                    rb.add("containment", st.id,
                           f"instance {k} window [{w.open_us}, {w.close_us}) leaves "
                           f"its period slot [{k * T}, {(k + 1) * T})")
                if not (0 <= opn < cls <= cycle):
                    rb.add("containment", st.id,
                           f"instance {k} window [{w.open_us}, {w.close_us}) leaves "
                           f"the cycle [0, {ns.cycle_us})")
                delays.append(cls + hop - release)
            if delays:
                arrivals.append(max(delays))
                if max(delays) > deadline:
                    rb.add("deadline", st.id,
                           f"instance {k} arrives {Fraction(max(delays), D)} us "
                           f"after release, deadline is {st.deadline_us} us")
        if arrivals and max(arrivals) != min(arrivals):
            rb.add("jitter", st.id,
                   f"jitter {Fraction(max(arrivals) - min(arrivals), D)} us, expected 0")
        recorded = ns.per_stream.get(st.id)
        if recorded is None:
            rb.add("missing", st.id, "stream has no recorded timing")
        elif arrivals:
            ed, spread = max(arrivals), max(arrivals) - min(arrivals)
            if to_ticks(recorded.ed_us, D) != ed:
                rb.add("timing", st.id,
                       f"recorded delay {recorded.ed_us} us, windows give "
                       f"{Fraction(ed, D)} us")
            if to_ticks(recorded.jitter_us, D) != spread:
                rb.add("timing", st.id,
                       f"recorded jitter {recorded.jitter_us} us, windows give "
                       f"{Fraction(spread, D)} us")
    for sid in sorted(per_stream.keys() - {st.id for st in s.streams}):
        rb.add("containment", sid, "windows of a stream the scenario does not declare")
    return rb.build()


def qoc_proxy(ns: NetSchedule, s: Scenario) -> Fraction:
    """Relative control-quality proxy: mean normalized delay + jitter of
    control streams (criticality >= 3). Lower is better; only meaningful
    for comparing schedules of the same scenario."""
    control = [st for st in s.streams if st.criticality >= 3]
    if not control:
        return Fraction(0)
    total = Fraction(0)
    for st in control:
        timing = ns.per_stream[st.id]
        total += timing.ed_us / st.period_us + timing.jitter_us / st.period_us
    return total / len(control)


def port_order(ns: NetSchedule, D: int) -> list[tuple[str, list[FrameWindow]]]:
    """Each port's windows in GCL order: ports by id, windows by open time
    (an exact key in whole ticks of ``1/D`` us), then by stream id."""
    per_link: dict[str, list[FrameWindow]] = {}
    for w in ns.windows:
        per_link.setdefault(w.link, []).append(w)
    return [(link_id,
             sorted(wins, key=lambda w: (to_ticks(w.open_us, D), w.stream)))
            for link_id, wins in sorted(per_link.items())]


def gcl_export(ns: NetSchedule) -> list[dict]:
    """One JSON-ready object per egress port, entries sorted by open time."""
    D = time_base(w.open_us for w in ns.windows)
    return [
        {
            "port": link_id,
            "cycle_us": ns.cycle_us,
            "entries": [
                {
                    "open_us": time_to_json(w.open_us),
                    "close_us": time_to_json(w.close_us),
                    "stream": w.stream,
                    "instance": w.instance,
                }
                for w in wins
            ],
        }
        for link_id, wins in port_order(ns, D)
    ]
