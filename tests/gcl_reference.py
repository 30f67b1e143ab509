"""A reference copy of the GCL offset search on ``fractions.Fraction``.

``synthesize_gcl`` runs its search on integer ticks. This module keeps the
same search written directly on microsecond ``Fraction`` values, so tests
can check that the tick conversion changes no offset, window or verdict.
It also counts the search's backtracks, so tests can tell which instances
exercise them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from fogweaver.errors import InfeasibleError
from fogweaver.gclsched import DEFAULT_NODE_BUDGET, FrameWindow
from fogweaver.netmodel import resolve_route, transmission_time
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
