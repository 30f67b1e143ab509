"""Reference copies of the GCL search, the verifiers, the GCL exporter and
the Gantt renderer on ``Fraction``.

``synthesize_gcl`` runs its search on integer ticks. This module keeps the
same search written directly on microsecond ``Fraction`` values, so tests
can check that the tick conversion changes no offset, window or verdict.
It also counts the search's backtracks, so tests can tell which instances
exercise them. Its busy lists hold every placed window over the cycle,
where the solver holds one periodic entry per placed stream and hop.
``expanded_forbidden_offsets`` folds such lists in ticks, the oracle for the
solver's ``_forbidden_offsets``, and ``expanded_tick_search`` is the search
on them in ticks, quick enough for budgets in the thousands.

``verify_net_schedule`` and ``gcl_export`` work on an integer base of their
own; ``reference_verify`` and ``reference_export`` are the same checks and
the same export written on ``Fraction``, with the string round trip for
every exported time, so tests can check that the integer base changes no
verdict, message or byte. ``verify_node_schedule`` and ``emit_gantt`` also
scale their times to integers; ``reference_verify_node`` and
``reference_emit_gantt`` are their checks and charts on ``Fraction``.

Three node-side oracles close the module. ``map_to_cores`` tests a core
with constrained deadlines by running EDF; ``demand_fits`` is the
processor-demand test on ``Fraction`` that it must agree with. The
extensibility metric and climb keep the idle-gap variance on integer ticks;
``gap_variance`` computes it from the mean on ``Fraction``.
``nodesched.with_layouts`` names each slice's partition and merges windows
on integer ticks; ``rebuild_partitions`` derives both from the slices'
``Fraction`` bounds.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

from fogweaver.errors import InfeasibleError
from fogweaver.gantt import _PALETTE, _esc
from fogweaver.gclsched import (DEFAULT_NODE_BUDGET, FrameWindow, NetSchedule,
                                _TickStream)
from fogweaver.netmodel import resolve_route, transmission_time
from fogweaver.nodesched import Partition
from fogweaver.reporting import ReportBuilder
from fogweaver.scenario import hyperperiod
from fogweaver.units import GRID_US


def ceil_to_grid(t) -> Fraction:
    """Round ``t`` up to the 0.1 us grid."""
    return Fraction(math.ceil(Fraction(t) / GRID_US)) * GRID_US


def _priority_key(st):
    return (-st.criticality, st.period_us, -st.size_bytes, st.id)


def _stream_windows(st, route, tx, phi, d_hop, cycle):
    wins = []
    for k in range(cycle // st.period_us):
        base = phi + k * st.period_us
        for j, link in enumerate(route.links):
            opn = base + j * d_hop
            wins.append(FrameWindow(link.id, st.id, k, opn, opn + tx))
    return wins


def _forbidden_offsets(st, route, tx, d_hop, phi_max, busy):
    T = st.period_us
    out = []
    for j, link in enumerate(route.links):
        shift = j * d_hop
        for b0, b1 in busy.get(link.id, ()):
            k_lo = math.floor((b0 - shift - tx - phi_max) / T)
            k_hi = math.floor((b1 - shift) / T)
            for k in range(max(k_lo, 0), k_hi + 1):
                lo = b0 - k * T - shift - tx
                hi = b1 - k * T - shift
                if hi <= 0 or lo >= phi_max:
                    continue
                out.append((lo, hi))
    out.sort()
    merged = []
    for lo, hi in out:
        if merged and lo < merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def expanded_forbidden_offsets(t, busy):
    """The solver's forbidden offsets of ``t`` (a ``_TickStream``), from
    ``busy`` lists that hold every placed window ``(open, close)`` over the
    cycle in ticks, each folded onto the stream's own period."""
    T, tx, phi_max = t.period, t.tx, t.phi_max
    out = []
    for link, shift in t.hops:
        for b0, b1 in busy.get(link, ()):
            # window [phi + kT + shift, phi + kT + shift + tx) overlaps
            # [b0, b1) iff  b0 - kT - shift - tx < phi < b1 - kT - shift
            k_lo = (b0 - shift - tx - phi_max) // T
            k_hi = (b1 - shift) // T
            for k in range(max(k_lo, 0), k_hi + 1):
                lo = b0 - k * T - shift - tx
                hi = b1 - k * T - shift
                if hi <= 0 or lo >= phi_max:
                    continue
                out.append((lo, hi))
    out.sort()
    merged = []
    for lo, hi in out:
        if merged and lo < merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _offset_candidates(st, route, tx, d_hop, busy):
    phi_max = min(st.deadline_us, st.period_us) - route.hops * d_hop - tx
    forbidden = _forbidden_offsets(st, route, tx, d_hop, phi_max, busy)
    phi = Fraction(0)
    idx = 0
    while phi <= phi_max:
        while idx < len(forbidden) and forbidden[idx][1] <= phi:
            idx += 1
        if idx < len(forbidden) and forbidden[idx][0] < phi < forbidden[idx][1]:
            phi = ceil_to_grid(forbidden[idx][1])
            continue
        yield phi
        phi += GRID_US


def reference_search(s, node_budget=DEFAULT_NODE_BUDGET):
    """``(offsets, windows, backtracks)`` of the earliest-offset search with
    chronological backtracking; raises ``InfeasibleError`` as the solver
    does. Offsets map stream ids to ``Fraction`` microseconds."""
    d_hop = s.params.d_hop_us
    cycle = hyperperiod([st.period_us for st in s.streams])
    order = sorted(s.streams, key=_priority_key)
    routes = {st.id: resolve_route(s, st) for st in order}
    tx = {st.id: transmission_time(
              st.size_bytes, min(l.rate_bps for l in routes[st.id].links))
          for st in order}
    for st in order:
        bound = tx[st.id] + routes[st.id].hops * d_hop
        deadline = min(st.deadline_us, st.period_us)
        if bound > deadline:
            raise InfeasibleError(
                f"stream {st.id}: delay lower bound {reference_time_to_json(bound)} us "
                f"exceeds its deadline {deadline} us", unplaced=[st.id])

    busy = {}
    placed_windows = [None] * len(order)
    offsets = [None] * len(order)
    gens = [None] * len(order)
    nodes_tried = 0
    deepest_failure = 0
    backtracks = 0

    i = 0
    while 0 <= i < len(order):
        st = order[i]
        if gens[i] is None:
            gens[i] = _offset_candidates(st, routes[st.id], tx[st.id], d_hop, busy)
        phi = next(gens[i], None)
        if phi is None:
            deepest_failure = max(deepest_failure, i)
            gens[i] = None
            i -= 1
            if i >= 0:
                backtracks += 1
                for w in placed_windows[i]:
                    busy[w.link].remove((w.open_us, w.close_us))
                placed_windows[i] = None
                offsets[i] = None
            continue
        nodes_tried += 1
        if nodes_tried > node_budget:
            raise InfeasibleError(
                f"search budget of {node_budget} placements exhausted",
                unplaced=[o.id for o in order[i:]])
        wins = _stream_windows(st, routes[st.id], tx[st.id], phi, d_hop, cycle)
        for w in wins:
            busy.setdefault(w.link, []).append((w.open_us, w.close_us))
        placed_windows[i] = wins
        offsets[i] = phi
        i += 1

    if i < 0:
        raise InfeasibleError(
            "no feasible offset assignment",
            unplaced=[o.id for o in order[deepest_failure:]])
    offset_map = {st.id: offsets[idx] for idx, st in enumerate(order)}
    windows = tuple(w for wins in placed_windows for w in wins)
    return ({st.id: offset_map[st.id] for st in s.streams}, windows,
            backtracks)


def expanded_tick_search(s, node_budget=DEFAULT_NODE_BUDGET):
    """Offsets (``Fraction`` us) of the solver's search on integer ticks as
    it ran with every placed window over the cycle in its busy lists; raises
    ``InfeasibleError`` as the solver does. Quick enough for budgets that
    the ``Fraction`` search needs minutes for."""
    d_hop = s.params.d_hop_us
    scale = math.lcm(GRID_US.denominator, d_hop.denominator)
    grid = scale // GRID_US.denominator
    hop = int(d_hop * scale)
    span = hyperperiod([st.period_us for st in s.streams]) * scale
    order = sorted(s.streams, key=_priority_key)
    ticks = []
    for st in order:
        route = resolve_route(s, st)
        tx = int(transmission_time(
            st.size_bytes, min(l.rate_bps for l in route.links)) * scale)
        ticks.append(_TickStream(
            st.period_us * scale, tx,
            tuple((link.id, j * hop) for j, link in enumerate(route.links)),
            min(st.deadline_us, st.period_us) * scale - route.hops * hop - tx))

    def candidates(t, busy):
        forbidden = expanded_forbidden_offsets(t, busy)
        phi = idx = 0
        while phi <= t.phi_max:
            while idx < len(forbidden) and forbidden[idx][1] <= phi:
                idx += 1
            if idx < len(forbidden) and forbidden[idx][0] < phi < forbidden[idx][1]:
                phi = -(-forbidden[idx][1] // grid) * grid
                continue
            yield phi
            phi += grid

    busy = {}
    placed = [None] * len(order)  # (link, open) of each window a stream placed
    offsets = [None] * len(order)
    gens = [None] * len(order)
    nodes_tried = deepest_failure = 0
    i = 0
    while 0 <= i < len(order):
        t = ticks[i]
        if gens[i] is None:
            gens[i] = candidates(t, busy)
        phi = next(gens[i], None)
        if phi is None:
            deepest_failure = max(deepest_failure, i)
            gens[i] = None
            i -= 1
            if i >= 0:
                for link, _ in placed[i]:  # its windows end every list
                    busy[link].pop()
            continue
        nodes_tried += 1
        if nodes_tried > node_budget:
            raise InfeasibleError(
                f"search budget of {node_budget} placements exhausted",
                unplaced=[o.id for o in order[i:]], gave_up=True)
        placed[i] = [(link, base + shift)
                     for base in range(phi, phi + span, t.period)
                     for link, shift in t.hops]
        for link, opn in placed[i]:
            busy.setdefault(link, []).append((opn, opn + t.tx))
        offsets[i] = phi
        i += 1
    if i < 0:
        raise InfeasibleError(
            "no feasible offset assignment",
            unplaced=[o.id for o in order[deepest_failure:]])
    return {st.id: Fraction(phi, scale) for st, phi in zip(order, offsets)}


def reference_verify(ns, s):
    """The network verifier's checks on plain ``Fraction`` arithmetic."""
    rb = ReportBuilder()

    per_link = {}
    for w in ns.windows:
        per_link.setdefault(w.link, []).append(w)
    for link_id in sorted(per_link):
        wins = sorted(per_link[link_id], key=lambda w: (w.open_us, w.close_us))
        for a, b in zip(wins, wins[1:]):
            if b.open_us < a.close_us:
                rb.add("overlap", link_id,
                       f"{a.stream}#{a.instance} [{a.open_us}, {a.close_us}) overlaps "
                       f"{b.stream}#{b.instance} [{b.open_us}, {b.close_us})")

    per_stream = {}
    for w in ns.windows:
        per_stream.setdefault(w.stream, []).append(w)

    for st in s.streams:
        wins = per_stream.get(st.id, [])
        phi = ns.offsets.get(st.id)
        if phi is None or not wins:
            rb.add("missing", st.id, "stream has no offset or no windows")
            continue
        route = resolve_route(s, st)
        tx = transmission_time(st.size_bytes,
                               min(l.rate_bps for l in route.links))
        T = st.period_us
        instances = ns.cycle_us // T if T else 0
        link_order = [l.id for l in route.links]

        by_key = {(w.instance, w.link): w for w in wins}
        if len(by_key) != len(wins):
            rb.add("missing", st.id, "duplicate window for one (instance, link)")
        for k, link_id in by_key:
            if not (0 <= k < instances and link_id in link_order):
                rb.add("containment", st.id,
                       f"window of instance {k} on {link_id} is not one of "
                       f"the {instances} instances on the route")
        arrivals = []
        for k in range(instances):
            delays = []
            for j, link_id in enumerate(link_order):
                w = by_key.get((k, link_id))
                if w is None:
                    rb.add("missing", st.id, f"instance {k} has no window on {link_id}")
                    continue
                expected_open = phi + k * T + j * ns.d_hop_us
                if w.open_us != expected_open:
                    rb.add("precedence", st.id,
                           f"instance {k} on {link_id} opens at {w.open_us}, "
                           f"expected {expected_open}")
                if w.close_us - w.open_us != tx:
                    rb.add("window-length", st.id,
                           f"instance {k} on {link_id} has length "
                           f"{w.close_us - w.open_us}, expected {tx}")
                if not (k * T <= w.open_us and w.close_us <= (k + 1) * T):
                    rb.add("containment", st.id,
                           f"instance {k} window [{w.open_us}, {w.close_us}) leaves "
                           f"its period slot [{k * T}, {(k + 1) * T})")
                if not (0 <= w.open_us < w.close_us <= ns.cycle_us):
                    rb.add("containment", st.id,
                           f"instance {k} window [{w.open_us}, {w.close_us}) leaves "
                           f"the cycle [0, {ns.cycle_us})")
                delays.append(w.close_us + ns.d_hop_us - k * T)
            if delays:
                arrivals.append(max(delays))
                if max(delays) > st.deadline_us:
                    rb.add("deadline", st.id,
                           f"instance {k} arrives {max(delays)} us after "
                           f"release, deadline is {st.deadline_us} us")
        if arrivals and max(arrivals) != min(arrivals):
            rb.add("jitter", st.id, f"jitter {max(arrivals) - min(arrivals)} us, expected 0")
        recorded = ns.per_stream.get(st.id)
        if recorded is None:
            rb.add("missing", st.id, "stream has no recorded timing")
        elif arrivals:
            ed, spread = max(arrivals), max(arrivals) - min(arrivals)
            if recorded.ed_us != ed:
                rb.add("timing", st.id,
                       f"recorded delay {recorded.ed_us} us, windows give {ed} us")
            if recorded.jitter_us != spread:
                rb.add("timing", st.id,
                       f"recorded jitter {recorded.jitter_us} us, windows give "
                       f"{spread} us")
    for sid in sorted(per_stream.keys() - {st.id for st in s.streams}):
        rb.add("containment", sid, "windows of a stream the scenario does not declare")
    return rb.build()


def reference_time_to_json(t):
    """The exported form of a time, checked by a round trip through a string."""
    f = Fraction(t)
    if f.denominator == 1:
        return int(f)
    if Fraction(str(float(f))) == f:
        return float(f)
    return f"{f.numerator}/{f.denominator}"


def reference_export(ns):
    """The GCL export with ``Fraction`` sort keys and checked times."""
    per_link = {}
    for w in ns.windows:
        per_link.setdefault(w.link, []).append(w)
    return [
        {"port": link_id,
         "cycle_us": ns.cycle_us,
         "entries": [{"open_us": reference_time_to_json(w.open_us),
                      "close_us": reference_time_to_json(w.close_us),
                      "stream": w.stream,
                      "instance": w.instance}
                     for w in sorted(per_link[link_id],
                                     key=lambda w: (w.open_us, w.stream))]}
        for link_id in sorted(per_link)]


def reference_verify_node(ns):
    """The node verifier's checks on plain ``Fraction`` arithmetic."""
    rb = ReportBuilder()
    parts = {p.id: p for p in ns.partitions}

    for core in range(ns.cores):
        slices = ns.core_slices(core)
        for a, b in zip(slices, slices[1:]):
            if b.start_us < a.end_us:
                rb.add("core-overlap", f"{ns.node}.c{core}",
                       f"{a.task}#{a.job_index} [{a.start_us}, {a.end_us}) overlaps "
                       f"{b.task}#{b.job_index} [{b.start_us}, {b.end_us})")
        wins = sorted(((w, p) for p in ns.partitions if p.core == core
                       for w in p.windows), key=lambda wp: wp[0])
        for (w1, p1), (w2, p2) in zip(wins, wins[1:]):
            if w2[0] < w1[1]:
                rb.add("window-overlap", f"{ns.node}.c{core}",
                       f"partition {p1.id} window [{w1[0]}, {w1[1]}) overlaps "
                       f"{p2.id} window [{w2[0]}, {w2[1]})")

    for sl in ns.slices:
        if sl.end_us <= sl.start_us:
            rb.add("containment", sl.task, f"empty or inverted slice at {sl.start_us}")
        task = ns.tasks.get(sl.task)
        part = parts.get(sl.partition)
        if task is None or part is None:
            rb.add("reference", sl.task,
                   f"slice references unknown task or partition {sl.partition!r}")
            continue
        if part.criticality != task.criticality:
            rb.add("isolation", sl.task,
                   f"level-{task.criticality} task runs in level-{part.criticality} "
                   f"partition {part.id}")
        if part.core != sl.core or not any(
                w[0] <= sl.start_us and sl.end_us <= w[1] for w in part.windows):
            rb.add("containment", sl.task,
                   f"slice [{sl.start_us}, {sl.end_us}) on core {sl.core} is not "
                   f"inside a window of partition {part.id}")
        if not 0 <= sl.job_index < ns.major_frame_us // task.period_us:
            rb.add("reference", sl.task,
                   f"slice of job {sl.job_index}, which the major frame of "
                   f"{ns.major_frame_us} us does not hold")

    jobs = {}
    for sl in ns.slices:
        jobs.setdefault((sl.task, sl.job_index), []).append(sl)
    for task in ns.tasks.values():
        if ns.major_frame_us % task.period_us:
            rb.add("frame", task.id,
                   f"period {task.period_us} does not divide major frame "
                   f"{ns.major_frame_us}")
            continue
        for k in range(ns.major_frame_us // task.period_us):
            release = k * task.period_us
            deadline = release + task.deadline_us
            job_slices = jobs.get((task.id, k), [])
            inside = [sl for sl in job_slices
                      if release <= sl.start_us and sl.end_us <= deadline]
            if len(inside) != len(job_slices):
                rb.add("deadline", task.id,
                       f"job {k} executes outside its window "
                       f"[{release}, {deadline})")
            total = sum((sl.duration_us for sl in job_slices), Fraction(0))
            if total != task.wcet_us:
                rb.add("deadline", task.id,
                       f"job {k} received {total} us of {task.wcet_us} us "
                       f"before its deadline")

    for core in range(ns.cores):
        busy = sum((sl.duration_us for sl in ns.slices if sl.core == core),
                   Fraction(0))
        expected = busy / ns.major_frame_us if ns.major_frame_us else Fraction(0)
        recorded = (ns.per_core_utilization[core]
                    if core < len(ns.per_core_utilization) else None)
        if recorded != expected:
            rb.add("utilization", f"{ns.node}.c{core}",
                   f"recorded utilization {recorded}, slices give {expected}")
        if expected > 1:
            rb.add("utilization", f"{ns.node}.c{core}",
                   f"core is busy {float(expected):.3f} of the frame")
    return rb.build()


def _ref_fmt(t) -> str:
    f = Fraction(t)
    return str(f.numerator) if f.denominator == 1 else f"{float(f):g}"


def reference_emit_gantt(schedule, format):
    """The chart ``emit_gantt`` draws, with every time a ``Fraction``."""
    if isinstance(schedule, NetSchedule):
        lanes = _ref_net_lanes(schedule)
        span = schedule.cycle_us
        title = f"network schedule, cycle {span} us"
    else:
        lanes = _ref_node_lanes(schedule)
        span = schedule.major_frame_us
        title = (f"node {schedule.node} schedule, "
                 f"major frame {span} us")
    if format == "ascii":
        return _ref_ascii(title, span, lanes)
    return _ref_svg(title, span, lanes)


def _ref_net_lanes(ns):
    per_link: dict[str, list] = {}
    for w in ns.windows:
        per_link.setdefault(w.link, []).append(w)
    lanes = []
    for link_id in sorted(per_link):
        boxes = [
            (w.open_us, w.close_us, f"{w.stream} #{w.instance}", w.stream,
             False)
            for w in sorted(per_link[link_id],
                            key=lambda w: (w.open_us, w.stream))
        ]
        lanes.append((link_id, boxes, []))
    return lanes


def _ref_node_lanes(ns):
    lanes = []
    for core in range(ns.cores):
        slices = ns.core_slices(core)
        # a job split over several slices continues after every slice but
        # its last one
        last_slice: dict[tuple[str, int], Fraction] = {}
        for sl in slices:
            key = (sl.task, sl.job_index)
            if key not in last_slice or sl.end_us > last_slice[key]:
                last_slice[key] = sl.end_us
        boxes = [
            (sl.start_us, sl.end_us, f"{sl.task} #{sl.job_index}", sl.task,
             last_slice[(sl.task, sl.job_index)] != sl.end_us)
            for sl in slices
        ]
        outlines = [
            (w[0], w[1], p.id)
            for p in ns.partitions if p.core == core
            for w in p.windows
        ]
        outlines.sort(key=lambda o: (o[0], o[2]))
        lanes.append((f"core {core}", boxes, outlines))
    return lanes


def _ref_ascii(title: str, span, lanes) -> str:
    out = [f"== {title} =="]
    out.append(f"   0 {'-' * 50} {_ref_fmt(span)} us")
    for label, boxes, outlines in lanes:
        out.append(f"{label}:")
        for start, end, text in outlines:
            out.append(f"  (partition) [{_ref_fmt(start)}, {_ref_fmt(end)}) {text}")
        for start, end, text, _key, continues in boxes:
            marks = " >" if continues else ""
            out.append(f"  [{_ref_fmt(start)}, {_ref_fmt(end)}) {text}{marks}")
        if not boxes and not outlines:
            out.append("  (empty)")
    return "\n".join(out) + "\n"


def _ref_svg(title: str, span, lanes) -> str:
    width, lane_h, pad, label_w = 900.0, 34, 8, 150
    chart_w = width - label_w - 2 * pad
    height = pad * 2 + 22 + lane_h * max(len(lanes), 1)
    scale = chart_w / float(span) if span else 0.0

    def x(t) -> float:
        return round(label_w + pad + float(t) * scale, 2)

    colors: dict[str, str] = {}

    def color(key: str) -> str:
        if key not in colors:
            colors[key] = _PALETTE[len(colors) % len(_PALETTE)]
        return colors[key]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<text x="{pad}" y="{pad + 10}">{_esc(title)}</text>',
    ]
    y0 = pad + 22
    for i, (label, boxes, outlines) in enumerate(lanes):
        y = y0 + i * lane_h
        parts.append(f'<text x="{pad}" y="{y + lane_h / 2:g}">{_esc(label)}</text>')
        parts.append(
            f'<line x1="{x(0):g}" y1="{y + lane_h - 6}" x2="{x(span):g}" '
            f'y2="{y + lane_h - 6}" stroke="#999" stroke-width="0.5"/>')
        for start, end, text in outlines:
            parts.append(
                f'<rect x="{x(start):g}" y="{y + 1}" '
                f'width="{max(x(end) - x(start), 0.5):g}" height="{lane_h - 6}" '
                f'fill="none" stroke="#555" stroke-dasharray="3,2">'
                f'<title>{_esc(text)}</title></rect>')
        for start, end, text, key, continues in boxes:
            parts.append(
                f'<rect x="{x(start):g}" y="{y + 5}" '
                f'width="{max(x(end) - x(start), 0.8):g}" height="{lane_h - 14}" '
                f'fill="{color(key)}" stroke="#333" stroke-width="0.5">'
                f'<title>{_esc(text)} [{_ref_fmt(start)}, {_ref_fmt(end)})</title></rect>')
            if continues:  # arrow head: job continues in a later slice
                xe, ym = x(end), y + lane_h / 2 - 2
                parts.append(
                    f'<path d="M {xe:g} {ym - 4:g} L {xe + 5:g} {ym:g} '
                    f'L {xe:g} {ym + 4:g} Z" fill="#333"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def demand_fits(tasks):
    """Whether one EDF core of utilization <= 1 meets every deadline: at
    each absolute deadline t up to the hyperperiod, at most t of work may
    be due (Baruah, Rosier & Howell 1990). Implicit deadlines always pass.
    """
    if all(t.deadline_us == t.period_us for t in tasks):
        return True
    horizon = hyperperiod([t.period_us for t in tasks])
    due = sorted((release + t.deadline_us, t.wcet_us) for t in tasks
                 for release in range(0, horizon, t.period_us))
    demand = Fraction(0)
    for deadline, wcet in due:
        demand += wcet
        if demand > deadline:
            return False
    return True


def gap_variance(busy_sorted, frame):
    """(gap count, exact population variance of the idle-gap durations of
    [0, frame)) for a start-sorted list of busy (start, end) intervals;
    overlapping or touching intervals leave no gap between them."""
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


def rebuild_partitions(ns):
    """``ns`` with partition windows re-derived from its slices: on each
    core, a level's back-to-back slices merge into one window, and every
    slice names the partition of its task's level on its core."""
    partitions: dict[tuple[int, int], list[tuple[Fraction, Fraction]]] = {}
    new_slices = []
    for core in range(ns.cores):
        for sl in ns.core_slices(core):
            lvl = ns.tasks[sl.task].criticality
            wins = partitions.setdefault((core, lvl), [])
            if wins and wins[-1][1] == sl.start_us:
                wins[-1] = (wins[-1][0], sl.end_us)
            else:
                wins.append((sl.start_us, sl.end_us))
            new_slices.append(replace(sl, partition=f"{ns.node}.c{core}.L{lvl}"))
    partition_objs = tuple(
        Partition(f"{ns.node}.c{core}.L{lvl}", ns.node, lvl, core, tuple(wins))
        for (core, lvl), wins in sorted(partitions.items()))
    return replace(ns, partitions=partition_objs, slices=tuple(new_slices))
