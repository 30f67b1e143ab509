"""The integer-base verifiers and exporter against ``Fraction`` copies.

``verify_net_schedule``, ``verify_node_schedule`` and ``gcl_export`` scale
every time they read to whole multiples of 1/D us. These tests compare them
with the ``Fraction`` reference copies in ``gcl_reference`` on valid
schedules and on seeded mutants whose times leave every grid the solver
uses.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from gcl_reference import (
    reference_export,
    reference_time_to_json,
    reference_verify,
    reference_verify_node,
)
from genutil import line_scenario, mutate_node_schedule
from fogweaver.errors import InfeasibleError
from fogweaver.fixtures import extensibility_schedule
from fogweaver.gclsched import gcl_export, synthesize_gcl, verify_net_schedule
from fogweaver.nodesched import verify_node_schedule
from fogweaver.pipeline import synthesize_all_nodes
from fogweaver.teslasec import TeslaConfig, apply_tesla
from fogweaver.units import time_to_json

D_HOPS = (0, 2, Fraction(3, 10), Fraction(1, 3))
KINDS = {"overlap", "missing", "precedence", "window-length", "containment",
         "deadline", "jitter", "timing"}
# off-grid and on-grid amounts a mutant moves a time by
DELTAS = (Fraction(1, 7), Fraction(1, 3), -Fraction(1, 3), Fraction(1, 10),
          Fraction(-2), Fraction(5), Fraction(40), Fraction(200))


def _line_schedules(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = line_scenario(rng, d_hop=D_HOPS[len(out) % len(D_HOPS)])
        try:
            out.append((s, synthesize_gcl(s, node_budget=2000)))
        except InfeasibleError:
            continue
    return out


def _mutate(rng, s, ns):
    """Apply one random change to a schedule's windows, offsets or d_hop."""
    windows = list(ns.windows)
    offsets = dict(ns.offsets)
    d_hop = ns.d_hop_us
    i = rng.randrange(len(windows))
    w = windows[i]
    delta = rng.choice(DELTAS)
    op = rng.randrange(12)
    if op == 0:    # move a window
        windows[i] = replace(w, open_us=w.open_us + delta,
                             close_us=w.close_us + delta)
    elif op == 1:  # stretch or shrink a window
        windows[i] = replace(w, close_us=w.close_us + delta)
    elif op == 2:  # move a window's open only
        windows[i] = replace(w, open_us=w.open_us + delta)
    elif op == 3:  # move an offset
        offsets[w.stream] = offsets.get(w.stream, 0) + delta
    elif op == 4:  # drop a window
        del windows[i]
    elif op == 5:  # duplicate a window, in place or moved
        windows.insert(rng.randrange(len(windows) + 1),
                       replace(w, open_us=w.open_us + delta * rng.randint(0, 1),
                               close_us=w.close_us + delta * rng.randint(0, 1)))
    elif op == 6:  # relabel the link
        link = rng.choice([l.id for l in s.links] + ["X->Y"])
        windows[i] = replace(w, link=link)
    elif op == 7:  # relabel the instance
        windows[i] = replace(w, instance=w.instance + rng.choice((-1, 1, 50)))
    elif op == 8:  # relabel the stream
        stream = rng.choice([st.id for st in s.streams] + ["ghost"])
        windows[i] = replace(w, stream=stream)
    elif op == 9:  # move a whole stream, offset included
        windows = [replace(v, open_us=v.open_us + delta, close_us=v.close_us + delta)
                   if v.stream == w.stream else v for v in windows]
        offsets[w.stream] = offsets.get(w.stream, 0) + delta
    elif op == 10:  # move one instance of a stream
        windows = [replace(v, open_us=v.open_us + delta, close_us=v.close_us + delta)
                   if (v.stream, v.instance) == (w.stream, w.instance) else v
                   for v in windows]
    elif rng.random() < 0.5:  # forget an offset
        offsets.pop(w.stream, None)
    else:                     # declare another forwarding latency
        d_hop = d_hop + delta
    return replace(ns, windows=tuple(windows), offsets=offsets, d_hop_us=d_hop)


def _mutate_timing(rng, ns):
    """Change, or forget, one stream's recorded delay or jitter."""
    per_stream = dict(ns.per_stream)
    sid = rng.choice(sorted(per_stream))
    timing = per_stream[sid]
    delta = rng.choice(DELTAS)
    op = rng.randrange(3)
    if op == 0:
        per_stream[sid] = replace(timing, ed_us=timing.ed_us + delta)
    elif op == 1:
        per_stream[sid] = replace(timing, jitter_us=timing.jitter_us + delta)
    else:
        del per_stream[sid]
    return replace(ns, per_stream=per_stream)


def _assert_same(ns, s):
    got, want = verify_net_schedule(ns, s), reference_verify(ns, s)
    assert got.violations == want.violations
    return got


def test_verifier_matches_reference_on_uc1(uc1, uc1_net):
    assert _assert_same(uc1_net, uc1).ok


@pytest.mark.parametrize("d_hop", D_HOPS)
def test_verifier_matches_reference_on_line_networks(d_hop):
    rng = random.Random(f"line {d_hop}")
    checked = 0
    for _ in range(40):
        s = line_scenario(rng, d_hop=d_hop)
        try:
            ns = synthesize_gcl(s, node_budget=2000)
        except InfeasibleError:
            continue
        assert _assert_same(ns, s).ok
        checked += 1
    assert checked >= 10


def test_verifier_matches_reference_on_mutants(uc1, uc1_net):
    rng = random.Random(20261018)
    bases = _line_schedules(7, 40)
    seen: dict[str, int] = {}
    for n in range(1200):
        s, ns = (uc1, uc1_net) if n % 40 == 0 else rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            if ns.windows:
                ns = _mutate(rng, s, ns)
        for kind in _assert_same(ns, s).kinds():
            seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == KINDS, seen


def test_verifier_matches_reference_on_timing_mutants(uc1, uc1_net):
    rng = random.Random(20261020)
    bases = _line_schedules(13, 20) + [(uc1, uc1_net)]
    seen: dict[str, int] = {}
    for _ in range(300):
        s, ns = rng.choice(bases)
        ns = _mutate_timing(rng, ns)
        if rng.random() < 0.5:  # and sometimes the windows too
            ns = _mutate(rng, s, ns)
        report = _assert_same(ns, s)
        for kind in report.kinds():
            seen[kind] = seen.get(kind, 0) + 1
    assert {"timing", "missing"} <= set(seen), seen


NODE_KINDS = {"core-overlap", "window-overlap", "containment", "reference",
              "isolation", "frame", "deadline", "utilization"}


def _node_bases(uc1_node_schedules):
    return [*uc1_node_schedules, extensibility_schedule("base"),
            extensibility_schedule("optimized")]


def _assert_same_node(ns):
    got, want = verify_node_schedule(ns), reference_verify_node(ns)
    assert got.violations == want.violations
    return got


def test_node_verifier_matches_reference(uc1, uc1_net, uc1_node_schedules):
    _, secured = apply_tesla(uc1, uc1_net, TeslaConfig())
    for ns in _node_bases(uc1_node_schedules) + synthesize_all_nodes(secured):
        assert _assert_same_node(ns).ok


def test_node_verifier_matches_reference_on_mutants(uc1_node_schedules):
    rng = random.Random(20261019)
    bases = _node_bases(uc1_node_schedules)
    seen: dict[str, int] = {}
    for _ in range(1200):
        ns = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            ns = mutate_node_schedule(rng, ns)
        for kind in _assert_same_node(ns).kinds():
            seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == NODE_KINDS, seen


def _old_and_new(value):
    old, new = reference_time_to_json(value), time_to_json(value)
    return (type(old), old), (type(new), new)


# (value, what the string round trip makes of it)
TIME_TABLE = [
    (Fraction(0), int),
    (Fraction(-7), int),
    (10**14 - Fraction(1, 10), float),
    (-(10**14 - Fraction(1, 10)), float),
    (10**14 + Fraction(1, 2), float),
    (Fraction(1, 20), float),
    (Fraction(1, 3), str),
    (Fraction(-1, 3), str),
    (Fraction("123456789012345.6"), float),   # 16 digits
    (Fraction("12345678901234.56"), float),   # 16 digits, off the 0.1 grid
    (Fraction("900719925474099.3"), str),     # 16 digits
    (Fraction("1234567890123456.5"), float),  # 17 digits, a double
    (Fraction("1234567890123456.7"), str),    # 17 digits
    (Fraction("9007199254740993.5"), str),    # 17 digits, above 2**53
    (Fraction(1, 4), float),                  # off the 0.1 grid
    (Fraction(-3, 8), float),
    (Fraction(7, 12), str),                   # no finite decimal form
    (Fraction(1, 2**30), str),                # 30 digits
    (Fraction(1, 5**30), float),              # 1.073741824e-21
    (Fraction(999999999999999, 4), float),    # 17 digits
    (Fraction(999999999999999, 8), str),      # 18 digits
]


@pytest.mark.parametrize("value, kind", TIME_TABLE)
def test_time_to_json_matches_the_round_trip_rule(value, kind):
    old, new = _old_and_new(value)
    assert new == old
    assert old[0] is kind


def test_time_to_json_accepts_ints():
    assert _old_and_new(12) == ((int, 12), (int, 12))


def test_gcl_export_matches_reference(uc1_net):
    schedules = [ns for _, ns in _line_schedules(11, 24)] + [uc1_net]
    assert {ns.d_hop_us for ns in schedules} >= set(D_HOPS)
    rng = random.Random(3)
    for ns in schedules:
        assert json.dumps(gcl_export(ns)) == json.dumps(reference_export(ns))
    # off-grid mutants: string-valued times and ties on the open time
    for _ in range(200):
        ns = rng.choice(schedules[:-1])
        windows = list(ns.windows)
        for _ in range(3):
            i = rng.randrange(len(windows))
            j = rng.randrange(len(windows))
            windows[i] = replace(windows[i], open_us=windows[j].open_us,
                                 close_us=windows[i].close_us + rng.choice(DELTAS))
        mutant = replace(ns, windows=tuple(windows))
        assert json.dumps(gcl_export(mutant)) == json.dumps(reference_export(mutant))
