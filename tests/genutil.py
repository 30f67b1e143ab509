"""Shared random-instance generators and the brute-force schedule oracle.

All generators take an explicit ``random.Random`` so test runs are
reproducible. The brute-force oracle searches injection offsets on a 1 us
grid with plain nested interval checks; it shares no code with the solver.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

from fogweaver.netmodel import resolve_route, transmission_time
from fogweaver.scenario import (
    ApplicationSpec,
    EndpointSpec,
    FogNodeSpec,
    LinkSpec,
    ModelParams,
    Scenario,
    StreamSpec,
    SwitchSpec,
)

# -- small network instances for the offset oracle ---------------------------

CHAIN = ("A", "B", "C")  # two links: A->B, B->C


def chain_scenario(rng: random.Random, max_streams: int = 3,
                   periods=(30, 40, 60), d_hop: int = 2) -> Scenario:
    """Random streams over a 2-link chain, 1 us-grid-friendly sizes."""
    links = (LinkSpec("A", "B"), LinkSpec("B", "C"))
    routes = [("A", "B"), ("B", "C"), ("A", "B", "C")]
    streams = []
    for i in range(rng.randint(1, max_streams)):
        route = rng.choice(routes)
        # sizes are multiples of 25 B so transmission times are whole
        # microseconds at 100 Mbps (25 B = 2 us)
        size = 25 * rng.randint(1, 10)
        streams.append(StreamSpec(
            f"s{i}", route[0], route[-1], size, rng.choice(periods),
            rng.randint(0, 4), route))
    return Scenario(
        switches=(SwitchSpec("A"), SwitchSpec("B"), SwitchSpec("C")),
        links=links,
        streams=tuple(streams),
        params=ModelParams(d_hop_us=Fraction(d_hop)),
    )


LINE = ("A", "B", "C", "D")  # a duplex line of three link pairs


def line_scenario(rng: random.Random, d_hop=2,
                  max_streams: int = 4) -> Scenario:
    """Random streams along a duplex switch line, half with tight deadlines.

    At 100 Mbps a 64 B frame takes 5.2 us, so transmission times leave the
    whole microsecond. A tight stream has the lowest criticality, so it is
    placed after the others and finds few offsets left: the search then
    backtracks, proves infeasibility or runs out of budget.
    """
    d_hop = Fraction(d_hop)
    links = tuple(LinkSpec(a, b) for a, b in zip(LINE, LINE[1:])) + tuple(
        LinkSpec(b, a) for a, b in zip(LINE, LINE[1:]))
    streams = []
    for i in range(rng.randint(2, max_streams)):
        a, b = rng.sample(range(len(LINE)), 2)
        step = 1 if b > a else -1
        route = tuple(LINE[k] for k in range(a, b + step, step))
        size = rng.choice((64, 200, 700, 1500))
        period = rng.choice((200, 300, 400, 600))
        bound = (transmission_time(size, links[0].rate_bps)
                 + (len(route) - 1) * d_hop)
        if rng.random() < 0.5:  # tight, and placed after the others
            deadline = min(period, math.ceil(bound) + rng.randint(0, 40))
            criticality = 0
        else:
            deadline, criticality = period, rng.randint(1, 4)
        streams.append(StreamSpec(f"s{i}", route[0], route[-1], size, period,
                                  criticality, route, deadline_us=deadline))
    return Scenario(
        switches=tuple(SwitchSpec(x) for x in LINE),
        links=links,
        streams=tuple(streams),
        params=ModelParams(d_hop_us=d_hop),
    )


def switch_line_scenario(rng: random.Random, n_streams: int) -> Scenario:
    """``n_streams`` streams from 30 sources to 10 sinks, each hung off a
    random switch of a duplex line of six.

    Sizes of 64, 200, 700 or 1500 B and periods of 1, 2, 5 or 10 ms, with
    implicit deadlines: at 30-60 streams about one draw in seven runs out
    of a budget of 100 placements although no link is full.
    """
    line = [f"W{i}" for i in range(6)]
    links = []
    for a, b in zip(line, line[1:]):
        links += [LinkSpec(a, b), LinkSpec(b, a)]
    sources = [f"S{i}" for i in range(30)]
    sinks = [f"E{i}" for i in range(10)]
    attached = {host: rng.randrange(len(line)) for host in sinks + sources}
    for host, k in attached.items():
        links += [LinkSpec(host, line[k]), LinkSpec(line[k], host)]
    streams = []
    for i in range(n_streams):
        src, dst = rng.choice(sources), rng.choice(sinks)
        a, b = attached[src], attached[dst]
        step = 1 if b >= a else -1
        route = (src, *(line[k] for k in range(a, b + step, step)), dst)
        streams.append(StreamSpec(
            f"f{i}", src, dst, rng.choice((64, 200, 700, 1500)),
            rng.choice((1000, 2000, 5000, 10_000)), rng.randint(0, 4), route))
    return Scenario(
        switches=tuple(SwitchSpec(w) for w in line),
        endpoints=tuple(EndpointSpec(h) for h in attached),
        links=tuple(links),
        streams=tuple(streams),
    )


def brute_force_feasible(s: Scenario) -> bool:
    """Exhaustive search over whole-microsecond injection offsets."""
    from fogweaver.scenario import hyperperiod

    cycle = hyperperiod([st.period_us for st in s.streams])
    d_hop = s.params.d_hop_us
    infos = []
    for st in s.streams:
        route = resolve_route(s, st)
        tx = transmission_time(st.size_bytes,
                               min(l.rate_bps for l in route.links))
        infos.append((st, [l.id for l in route.links], tx))

    busy: dict[str, list[tuple[Fraction, Fraction]]] = {}

    def windows(st, link_ids, tx, phi):
        for k in range(cycle // st.period_us):
            for j, link in enumerate(link_ids):
                opn = phi + k * st.period_us + j * d_hop
                yield link, opn, opn + tx

    def fits(st, link_ids, tx, phi):
        if phi + len(link_ids) * d_hop + tx > st.deadline_us:
            return False
        for link, opn, close in windows(st, link_ids, tx, phi):
            for b0, b1 in busy.get(link, ()):
                if opn < b1 and b0 < close:
                    return False
        return True

    def place(st, link_ids, tx, phi, add: bool):
        for link, opn, close in windows(st, link_ids, tx, phi):
            if add:
                busy.setdefault(link, []).append((opn, close))
            else:
                busy[link].remove((opn, close))

    def search(i: int) -> bool:
        if i == len(infos):
            return True
        st, link_ids, tx = infos[i]
        for phi_int in range(st.period_us):
            phi = Fraction(phi_int)
            if fits(st, link_ids, tx, phi):
                place(st, link_ids, tx, phi, True)
                if search(i + 1):
                    return True
                place(st, link_ids, tx, phi, False)
        return False

    return search(0)


# -- random node workloads ----------------------------------------------------

def random_apps(rng: random.Random, node: str, max_apps: int = 3,
                max_tasks: int = 4, total_util_limit: float = 0.85,
                periods=(4000, 5000, 8000, 10_000)) -> list[ApplicationSpec]:
    """Random applications whose total utilization stays under the limit."""
    apps = []
    remaining = Fraction(int(total_util_limit * 100), 100)
    for i in range(rng.randint(1, max_apps)):
        if remaining <= Fraction(1, 20):
            break
        util = Fraction(rng.randint(5, min(40, int(remaining * 100))), 100)
        remaining -= util
        apps.append(ApplicationSpec(
            f"{node}-app{i}", node, rng.randint(0, 4),
            rng.randint(1, max_tasks), rng.choice(periods), util))
    return apps


def random_node_instance(rng: random.Random, cores: int = 2):
    node = FogNodeSpec("N", cores=cores)
    return node, random_apps(rng, "N")


# -- node schedule mutants ------------------------------------------------------

# off-grid and on-grid amounts a node mutant moves a time by
NODE_DELTAS = (Fraction(1, 7), Fraction(1, 3), -Fraction(1, 3), Fraction(1, 4),
               Fraction(-2), Fraction(5), Fraction(40), Fraction(200))


def mutate_node_schedule(rng: random.Random, ns):
    """Apply one random change to a node schedule's slices, partitions,
    tasks, recorded utilizations or frame."""
    slices = list(ns.slices)
    partitions = list(ns.partitions)
    tasks = dict(ns.tasks)
    util = list(ns.per_core_utilization)
    frame = ns.major_frame_us
    delta = rng.choice(NODE_DELTAS)
    op = rng.randrange(12)
    if op < 6 and slices:
        i = rng.randrange(len(slices))
        sl = slices[i]
        if op == 0:    # move a slice
            slices[i] = replace(sl, start_us=sl.start_us + delta,
                                end_us=sl.end_us + delta)
        elif op == 1:  # move one end of a slice
            if rng.random() < 0.5:
                slices[i] = replace(sl, start_us=sl.start_us + delta)
            else:
                slices[i] = replace(sl, end_us=sl.end_us + delta)
        elif op == 2:  # drop a slice
            del slices[i]
        elif op == 3:  # duplicate a slice, in place or moved
            shift = delta * rng.randint(0, 1)
            slices.insert(rng.randrange(len(slices) + 1),
                          replace(sl, start_us=sl.start_us + shift,
                                  end_us=sl.end_us + shift))
        elif op == 4:  # relabel the partition
            slices[i] = replace(sl, partition=rng.choice(
                [p.id for p in partitions] + ["ghost"]))
        else:          # relabel the task, the core or the job
            field = rng.choice(("task", "core", "job_index"))
            value = {"task": rng.choice(list(tasks) + ["ghost"]),
                     "core": rng.randrange(ns.cores + 1),
                     "job_index": sl.job_index + rng.choice((-1, 1, 50))}[field]
            slices[i] = replace(sl, **{field: value})
    elif op == 6 and partitions:  # move a partition window, or one end
        i = rng.randrange(len(partitions))
        wins = list(partitions[i].windows)
        if wins:
            j = rng.randrange(len(wins))
            lo, hi = wins[j]
            wins[j] = rng.choice(((lo + delta, hi + delta), (lo + delta, hi),
                                  (lo, hi + delta)))
            partitions[i] = replace(partitions[i], windows=tuple(wins))
    elif op == 7 and partitions:  # relabel a partition
        i = rng.randrange(len(partitions))
        field = rng.choice(("id", "criticality", "core"))
        value = {"id": rng.choice([p.id for p in partitions] + ["ghost"]),
                 "criticality": rng.randrange(5),
                 "core": rng.randrange(ns.cores)}[field]
        partitions[i] = replace(partitions[i], **{field: value})
    elif op == 8 and tasks:  # change a WCET
        tid = rng.choice(list(tasks))
        tasks[tid] = replace(tasks[tid], wcet_us=tasks[tid].wcet_us + delta)
    elif op == 9 and tasks:  # change a period or a deadline
        tid = rng.choice(list(tasks))
        field = rng.choice(("period_us", "deadline_us"))
        value = getattr(tasks[tid], field)
        tasks[tid] = replace(tasks[tid], **{field: rng.choice(
            (value * 2, value // 2 or 1, value + 7, value - 1 or 1))})
    elif op == 10 and util:  # change or drop a recorded utilization
        if rng.random() < 0.2:
            util.pop()
        else:
            core = rng.randrange(len(util))
            util[core] += delta / 1000
    else:  # change the major frame
        frame = rng.choice((frame * 2, frame + 1, frame // 2, 0))
    return replace(ns, slices=tuple(slices), partitions=tuple(partitions),
                   tasks=tasks, per_core_utilization=tuple(util),
                   major_frame_us=frame)
