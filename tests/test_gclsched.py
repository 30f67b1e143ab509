import contextlib
import math
import random
import signal
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from gcl_reference import (expanded_forbidden_offsets, expanded_tick_search,
                           reference_search)
from genutil import (brute_force_feasible, chain_scenario, line_scenario,
                     switch_line_scenario)
from fogweaver.errors import FogweaverError, InfeasibleError
from fogweaver.gclsched import (
    NetSchedule,
    StreamTiming,
    _forbidden_offsets,
    _TickStream,
    gcl_export,
    qoc_proxy,
    stream_metrics,
    synthesize_gcl,
    verify_net_schedule,
)
from fogweaver.netmodel import lower_bound_delay, resolve_route
from fogweaver.scenario import (
    LinkSpec,
    ModelParams,
    Scenario,
    StreamSpec,
    SwitchSpec,
)

SENSOR_EDS = {"S1 data": 60, "S2 data": 72, "S3 data": 52,
              "S4 data": 80, "S5 data": 44}


def test_uc1_all_streams_scheduled(uc1, uc1_net):
    assert set(uc1_net.offsets) == {st.id for st in uc1.streams}
    assert uc1_net.cycle_us == 300_000
    for st in uc1.streams:
        timing = uc1_net.per_stream[st.id]
        assert timing.ed_us <= st.deadline_us
        assert timing.jitter_us == 0


def test_uc1_sensor_streams_hit_their_bounds(uc1_net):
    for sid, ed in SENSOR_EDS.items():
        assert uc1_net.offsets[sid] == 0
        assert uc1_net.per_stream[sid].ed_us == ed


def test_uc1_verifies_clean(uc1, uc1_net):
    assert verify_net_schedule(uc1_net, uc1).ok


def _one_link_scenario(streams):
    return Scenario(
        switches=(SwitchSpec("A"), SwitchSpec("B")),
        links=(LinkSpec("A", "B"),),
        streams=tuple(streams),
        params=ModelParams(),
    )


def test_single_stream_gets_zero_offset():
    st = StreamSpec("s", "A", "B", 700, 10_000, 3, ("A", "B"))
    s = _one_link_scenario([st])
    ns = synthesize_gcl(s)
    assert ns.offsets["s"] == 0
    assert ns.per_stream["s"].ed_us == lower_bound_delay(
        st, resolve_route(s, st), s.params)


def test_two_identical_streams_share_a_link():
    streams = [StreamSpec(f"s{i}", "A", "B", 700, 10_000, 3, ("A", "B"))
               for i in range(2)]
    s = _one_link_scenario(streams)
    ns = synthesize_gcl(s)
    offsets = sorted(ns.offsets.values())
    assert offsets[0] == 0
    assert offsets[1] >= 56  # second frame waits for the first (56 us at 100 Mbps)
    for st in streams:
        assert ns.per_stream[st.id].ed_us <= st.deadline_us

    # exhaustive check at 1 us granularity: with stream 1 fixed at offset 0,
    # the earliest second offset whose windows never collide is 56
    def collides(phi):
        return any(phi < k * 10_000 + 56 and k * 10_000 < phi + 56
                   for k in range(30))

    earliest = next(phi for phi in range(10_000) if not collides(phi))
    assert earliest == 56
    assert offsets[1] == earliest


def test_empty_scenario_yields_empty_schedule():
    ns = synthesize_gcl(Scenario())
    assert ns.windows == () and ns.offsets == {}


def test_overloaded_link_reports_infeasible():
    # two maximum-size frames per 200 us on one link cannot fit: 2 x 120 > 200
    streams = [StreamSpec(f"s{i}", "A", "B", 1500, 200, 3, ("A", "B"))
               for i in range(2)]
    with pytest.raises(InfeasibleError) as exc:
        synthesize_gcl(_one_link_scenario(streams))
    assert exc.value.unplaced
    assert str(exc.value) == "no feasible offset assignment"
    assert not exc.value.gave_up  # a proof, not a give-up


def _backtracking_instance():
    # "a" is placed first and must vacate the earliest slot: "b" has so
    # little deadline slack that only offset 0 works for it
    return Scenario(
        switches=(SwitchSpec("A"), SwitchSpec("B")),
        links=(LinkSpec("A", "B"),),
        streams=(
            StreamSpec("a", "A", "B", 250, 100, 3, ("A", "B"), deadline_us=40),
            StreamSpec("b", "A", "B", 250, 100, 3, ("A", "B"), deadline_us=20),
        ),
        params=ModelParams(d_hop_us=Fraction(0)),
    )


def test_backtracking_revisits_earlier_placements():
    s = _backtracking_instance()
    ns = synthesize_gcl(s)
    assert ns.offsets == {"a": 20, "b": 0}
    assert verify_net_schedule(ns, s).ok


def test_node_budget_bounds_the_search():
    with pytest.raises(InfeasibleError) as exc:
        synthesize_gcl(_backtracking_instance(), node_budget=10)
    assert str(exc.value) == "search budget of 10 placements exhausted"
    assert exc.value.gave_up


def test_impossible_deadline_is_infeasible():
    # 120 us of wire time plus a 2 us hop cannot meet a 50 us deadline; the
    # check runs before the search and names that stream alone
    first = StreamSpec("a", "A", "B", 64, 10_000, 4, ("A", "B"))
    st = StreamSpec("s", "A", "B", 1500, 10_000, 3, ("A", "B"), deadline_us=50)
    with pytest.raises(InfeasibleError) as exc:
        synthesize_gcl(_one_link_scenario([first, st]))
    assert str(exc.value) == ("stream s: delay lower bound 122 us exceeds its "
                              "deadline 50 us")
    assert exc.value.unplaced == ("s",)
    assert not exc.value.gave_up


def test_deadline_equal_to_the_lower_bound_is_scheduled():
    st = StreamSpec("s", "A", "B", 1500, 10_000, 3, ("A", "B"), deadline_us=122)
    ns = synthesize_gcl(_one_link_scenario([st]))
    assert ns.offsets == {"s": 0}
    assert ns.per_stream["s"].ed_us == 122


def test_determinism_same_scenario_same_offsets(uc1):
    a = synthesize_gcl(uc1)
    b = synthesize_gcl(uc1)
    assert a.offsets == b.offsets
    assert a.windows == b.windows


# -- metrics ------------------------------------------------------------------


def test_stream_metrics_s4(uc1, uc1_net):
    timing = stream_metrics(uc1_net, uc1.stream("S4 data"))
    assert timing.ed_us == 80
    assert timing.jitter_us == 0


def test_stream_metrics_unscheduled_stream(uc1, uc1_net):
    ghost = StreamSpec("ghost", "S1", "E1", 100, 10_000, 0, ("S1", "W1", "E1"))
    with pytest.raises(FogweaverError, match="^ghost$"):
        stream_metrics(uc1_net, ghost)


def _shift_instance(ns: NetSchedule, stream: str, instance: int,
                    delta) -> NetSchedule:
    windows = tuple(
        replace(w, open_us=w.open_us + delta, close_us=w.close_us + delta)
        if w.stream == stream and w.instance == instance else w
        for w in ns.windows)
    return replace(ns, windows=windows)


def test_perturbed_instance_shows_jitter(uc1, uc1_net):
    bumped = _shift_instance(uc1_net, "S1 data", 3, Fraction(10))
    timing = stream_metrics(bumped, uc1.stream("S1 data"))
    assert timing.jitter_us == 10
    assert timing.ed_us == 70


def test_qoc_proxy_uc1(uc1, uc1_net):
    # control streams all have 10 ms periods: mean(60,72,52,80,44)/10000
    assert qoc_proxy(uc1_net, uc1) == Fraction(77, 12500)
    assert float(qoc_proxy(uc1_net, uc1)) == 0.00616


def test_qoc_proxy_monotone_under_uniform_slowdown(uc1, uc1_net):
    slower = replace(
        uc1_net,
        per_stream={sid: replace(t, ed_us=t.ed_us + 10)
                    for sid, t in uc1_net.per_stream.items()})
    assert qoc_proxy(uc1_net, uc1) < qoc_proxy(slower, uc1)


def test_qoc_proxy_counts_jitter(uc1, uc1_net):
    # 1 ms of jitter on one of five 10 ms control streams: +0.1 / 5
    jittery = replace(
        uc1_net,
        per_stream={
            sid: replace(t, jitter_us=t.jitter_us + (1000 if sid == "S1 data" else 0))
            for sid, t in uc1_net.per_stream.items()})
    assert qoc_proxy(jittery, uc1) - qoc_proxy(uc1_net, uc1) == Fraction(1, 50)


# -- verifier mutation suite --------------------------------------------------


def _mutate_window(ns, index, **changes):
    windows = list(ns.windows)
    windows[index] = replace(windows[index], **changes)
    return replace(ns, windows=tuple(windows))


def test_verifier_flags_overlap(uc1, uc1_net):
    # drop a second stream's window onto S1's slot on the shared link W1->E1
    i = next(i for i, w in enumerate(uc1_net.windows)
             if w.stream == "m2 state" and w.link == "W1->E1" and w.instance == 0)
    j = next(w for w in uc1_net.windows
             if w.stream == "S1 data" and w.link == "W1->E1" and w.instance == 0)
    mutant = _mutate_window(uc1_net, i, open_us=j.open_us,
                            close_us=j.open_us + (uc1_net.windows[i].close_us
                                                  - uc1_net.windows[i].open_us))
    assert "overlap" in verify_net_schedule(mutant, uc1).kinds()


def test_verifier_flags_precedence(uc1, uc1_net):
    # nudge one window off its exact cut-through position
    i = next(i for i, w in enumerate(uc1_net.windows)
             if w.stream == "S1 data" and w.instance == 1 and w.link == "W1->E1")
    w = uc1_net.windows[i]
    mutant = _mutate_window(uc1_net, i, open_us=w.open_us + 1,
                            close_us=w.close_us + 1)
    assert "precedence" in verify_net_schedule(mutant, uc1).kinds()


def test_verifier_flags_window_length(uc1, uc1_net):
    i = next(i for i, w in enumerate(uc1_net.windows)
             if w.stream == "S3 data" and w.instance == 0)
    w = uc1_net.windows[i]
    mutant = _mutate_window(uc1_net, i, close_us=w.close_us - Fraction(1, 10))
    assert "window-length" in verify_net_schedule(mutant, uc1).kinds()


def _shift_stream(ns: NetSchedule, stream: str, delta) -> NetSchedule:
    """Move a stream's windows and offset, and its recorded delay with them."""
    windows = tuple(
        replace(w, open_us=w.open_us + delta, close_us=w.close_us + delta)
        if w.stream == stream else w for w in ns.windows)
    offsets = dict(ns.offsets)
    offsets[stream] += delta
    per_stream = dict(ns.per_stream)
    per_stream[stream] = replace(per_stream[stream],
                                 ed_us=per_stream[stream].ed_us + delta)
    return replace(ns, windows=windows, offsets=offsets, per_stream=per_stream)


def test_verifier_flags_deadline():
    # deadline shorter than the period leaves room to shift without leaving
    # the period slot, so only the deadline check fires
    st = StreamSpec("s", "A", "B", 700, 10_000, 3, ("A", "B"),
                    deadline_us=100)
    s = _one_link_scenario([st])
    ns = synthesize_gcl(s)
    late = _shift_stream(ns, "s", Fraction(50))
    report = verify_net_schedule(late, s)
    assert report.kinds() == {"deadline"}


def test_verifier_flags_period_containment(uc1, uc1_net):
    # move instance 0 into instance 1's slot (keeps its instance tag)
    mutant = _shift_instance(uc1_net, "S5 data", 0, Fraction(10_000))
    kinds = verify_net_schedule(mutant, uc1).kinds()
    assert "containment" in kinds


def test_verifier_flags_jitter(uc1, uc1_net):
    mutant = _shift_instance(uc1_net, "S2 data", 2, Fraction(5))
    kinds = verify_net_schedule(mutant, uc1).kinds()
    assert "jitter" in kinds


def _stray_windows(ns, stream_id, instance, **changes):
    return tuple(replace(w, **changes) for w in ns.windows
                 if w.stream == stream_id and w.instance == instance)


def test_verifier_flags_window_beyond_the_instances(uc1, uc1_net):
    # instance 29 of S1 data copied one period later, as an instance 30 the
    # 300 ms cycle does not have; its delay equals every other instance's
    stray = tuple(replace(w, instance=30, open_us=w.open_us + 10_000,
                          close_us=w.close_us + 10_000)
                  for w in _stray_windows(uc1_net, "S1 data", 29))
    mutant = replace(uc1_net, windows=uc1_net.windows + stray)
    report = verify_net_schedule(mutant, uc1)
    assert report.kinds() == {"containment"}
    assert {v.subject for v in report} == {"S1 data"}


def test_verifier_flags_window_off_the_route(uc1, uc1_net):
    # S1 data runs S1->W1->E1; the stray copy sits on S2's first link
    stray = _stray_windows(uc1_net, "S1 data", 0, link="S2->W1")[:1]
    mutant = replace(uc1_net, windows=uc1_net.windows + stray)
    report = verify_net_schedule(mutant, uc1)
    assert "S1 data" in {v.subject for v in report.of_kind("containment")}


def test_verifier_flags_windows_of_an_undeclared_stream(uc1, uc1_net):
    stray = _stray_windows(uc1_net, "S1 data", 0, stream="ghost")
    mutant = replace(uc1_net, windows=uc1_net.windows + stray)
    report = verify_net_schedule(mutant, uc1)
    assert [v.subject for v in report.of_kind("containment")] == ["ghost"]


def test_verifier_flags_recorded_timing(uc1, uc1_net):
    # the report prints ED and jitter from per_stream, so a wrong record is
    # a wrong report even when every window is right
    first = uc1.streams[0].id
    per_stream = dict(uc1_net.per_stream)
    per_stream[first] = StreamTiming(ed_us=Fraction(-500), jitter_us=Fraction(7))
    report = verify_net_schedule(replace(uc1_net, per_stream=per_stream), uc1)
    assert report.kinds() == {"timing"}
    assert [str(v) for v in report] == [
        f"[timing] {first}: recorded delay -500 us, windows give "
        f"{uc1_net.per_stream[first].ed_us} us",
        f"[timing] {first}: recorded jitter 7 us, windows give 0 us"]


def test_verifier_flags_recorded_timing_off_the_base(uc1, uc1_net):
    first = uc1.streams[0].id
    per_stream = dict(uc1_net.per_stream)
    per_stream[first] = replace(per_stream[first], jitter_us=Fraction(1, 7))
    report = verify_net_schedule(replace(uc1_net, per_stream=per_stream), uc1)
    assert [str(v) for v in report] == [
        f"[timing] {first}: recorded jitter 1/7 us, windows give 0 us"]


def test_verifier_flags_missing_timing(uc1, uc1_net):
    per_stream = {sid: t for sid, t in uc1_net.per_stream.items()
                  if sid != "m2 set"}
    report = verify_net_schedule(replace(uc1_net, per_stream=per_stream), uc1)
    assert [str(v) for v in report] == [
        "[missing] m2 set: stream has no recorded timing"]


def test_verifier_flags_missing_stream(uc1, uc1_net):
    windows = tuple(w for w in uc1_net.windows if w.stream != "m2 set")
    mutant = replace(uc1_net, windows=windows)
    assert "missing" in verify_net_schedule(mutant, uc1).kinds()


# -- small-instance oracle ----------------------------------------------------


def test_solver_succeeds_whenever_brute_force_does():
    rng = random.Random(20240817)
    feasible_seen = 0
    for _ in range(60):
        s = chain_scenario(rng)
        if brute_force_feasible(s):
            feasible_seen += 1
            ns = synthesize_gcl(s)  # must not raise
            assert verify_net_schedule(ns, s).ok
    assert feasible_seen >= 20  # the generator must actually exercise the claim


# -- the folded busy trains against every window over the cycle -------------

TICK_PERIODS = (200, 300, 400, 600, 700)  # non-harmonic: gcds of 100 and 200


@hst.composite
def _busy_and_stream(draw):
    """A stream to place and, on three links, placed window trains that each
    lie inside their own period slot: ``(b, P, ptx)`` with ``b + ptx <= P``."""
    links = ("x", "y", "z")
    trains = {}
    for _ in range(draw(hst.integers(0, 8))):
        P = draw(hst.sampled_from(TICK_PERIODS))
        ptx = draw(hst.integers(1, P))
        b = draw(hst.integers(0, P - ptx))
        trains.setdefault(draw(hst.sampled_from(links)), []).append((b, P, ptx))
    T = draw(hst.sampled_from(TICK_PERIODS))
    route = draw(hst.lists(hst.sampled_from(links), min_size=1, max_size=3,
                           unique=True))
    hop = draw(hst.integers(0, T // 4 // len(route)))
    last = (len(route) - 1) * hop
    tx = draw(hst.integers(1, T - last))
    phi_max = draw(hst.integers(0, T - last - tx))
    t = _TickStream(T, tx, tuple((link, j * hop) for j, link in enumerate(route)),
                    phi_max)
    return trains, t


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_busy_and_stream())
@example(({"x": [(0, 200, 50)]}, _TickStream(300, 60, (("x", 0),), 240)))
@example(({"x": [(150, 200, 50), (0, 700, 100)]},
          _TickStream(600, 100, (("x", 0),), 500)))
@example(({"x": [(0, 200, 100)]}, _TickStream(400, 100, (("x", 0),), 300)))
def test_folded_trains_forbid_what_expanded_windows_forbid(case):
    trains, t = case
    cycle = math.lcm(t.period, *(P for entries in trains.values()
                                 for _, P, _ in entries))
    windows = {link: [(b + l * P, b + l * P + ptx) for b, P, ptx in entries
                      for l in range(cycle // P)]
               for link, entries in trains.items()}
    assert _forbidden_offsets(t, trains) == expanded_forbidden_offsets(t, windows)


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail instead of hanging when a search stops advancing its offset."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def stop(signum, frame):
        raise TimeoutError(f"search still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _tick_outcome(s, budget):
    try:
        ns = synthesize_gcl(s, budget)
    except InfeasibleError as exc:
        return ("infeasible", str(exc), exc.unplaced)
    return ("schedule", ns.offsets, ns.windows)


def _reference_outcome(s, budget):
    """Like ``_tick_outcome``, plus how often the reference backtracked."""
    try:
        offsets, windows, backtracks = reference_search(s, budget)
    except InfeasibleError as exc:
        return ("infeasible", str(exc), exc.unplaced), 0
    return ("schedule", offsets, windows), backtracks


def _switch_line_draws(seed, count):
    """``count`` switch-line networks of 30 to 60 streams, N by a stride."""
    rng = random.Random(seed)
    return [switch_line_scenario(rng, 30 + n * 13 % 31) for n in range(count)]


def test_tick_search_matches_fraction_reference():
    # d_hop = 1/3 us puts window shifts off the 0.1 us grid, so rounding a
    # forbidden interval's end to the grid matters; 0.3 us keeps them on it
    rng = random.Random(11)
    seen = {"backtracked": 0, "gave up": 0, "proved infeasible": 0}
    small = [((line_scenario(rng, d_hop) if n % 3 else
               chain_scenario(rng, max_streams=4, d_hop=d_hop)),
              10 if n % 5 == 0 else 400)
             for d_hop in (0, 2, Fraction(3, 10), Fraction(1, 3))
             for n in range(30)]
    # the Fraction search takes 15-50 s to give up at 2000 placements on
    # these; test_folded_search_matches_expanded_search runs that budget
    line = [(s, 100) for s in _switch_line_draws(7, 27)]
    line_gave_up = 0
    for s, budget in small + line:
        expected, backtracks = _reference_outcome(s, budget)
        with _time_limit(10):
            assert _tick_outcome(s, budget) == expected
        if expected[0] == "schedule":
            seen["backtracked"] += backtracks > 0
        elif "budget" in expected[1]:
            seen["gave up"] += 1
            line_gave_up += budget == 100
        else:
            seen["proved infeasible"] += 1
    assert min(seen.values()) >= 3, seen
    assert line_gave_up >= 5


def _search_outcome(s, budget, search):
    try:
        return ("schedule", search(s, budget))
    except InfeasibleError as exc:
        return ("infeasible", str(exc), exc.unplaced, exc.gave_up)


def test_folded_search_matches_expanded_search():
    # one periodic busy entry per placed stream and hop gives the offsets
    # and the give-ups of the search that kept every window over the cycle
    gave_up = {100: 0, 2000: 0}
    for s in _switch_line_draws(7, 27):
        for budget in gave_up:
            expected = _search_outcome(s, budget, expanded_tick_search)
            with _time_limit(10):
                assert _search_outcome(
                    s, budget, lambda s, b: synthesize_gcl(s, b).offsets) == expected
            gave_up[budget] += expected[0] == "infeasible" and expected[3]
    assert min(gave_up.values()) >= 5, gave_up


def test_gcl_export_schema(uc1_net):
    ports = gcl_export(uc1_net)
    assert [p["port"] for p in ports] == sorted(p["port"] for p in ports)
    total = sum(len(p["entries"]) for p in ports)
    assert total == len(uc1_net.windows)
    for port in ports:
        assert port["cycle_us"] == uc1_net.cycle_us
        opens = [e["open_us"] for e in port["entries"]]
        assert opens == sorted(opens)
        for e in port["entries"]:
            assert set(e) == {"open_us", "close_us", "stream", "instance"}
