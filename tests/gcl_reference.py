"""Reference copies of the GCL search, verifier and exporter on ``Fraction``.

``synthesize_gcl`` runs its search on integer ticks. This module keeps the
same search written directly on microsecond ``Fraction`` values, so tests
can check that the tick conversion changes no offset, window or verdict.
It also counts the search's backtracks, so tests can tell which instances
exercise them.

``verify_net_schedule`` and ``gcl_export`` work on an integer base of their
own; ``reference_verify`` and ``reference_export`` are the same checks and
the same export written on ``Fraction``, with the string round trip for
every exported time, so tests can check that the integer base changes no
verdict, message or byte.
"""

from __future__ import annotations

import math
from fractions import Fraction

from fogweaver.errors import InfeasibleError
from fogweaver.gclsched import DEFAULT_NODE_BUDGET, FrameWindow
from fogweaver.netmodel import resolve_route, transmission_time
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


def _offset_candidates(st, route, tx, d_hop, busy):
    phi_max = Fraction(st.deadline_us) - route.hops * d_hop - tx
    if phi_max < 0:
        return
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
