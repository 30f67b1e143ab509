"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``ACCEPTANCE n: PASS`` line once its assertions
hold (run ``pytest -s tests/test_acceptance.py`` to see them); tolerances
are pinned in the assertions themselves.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction

from genutil import brute_force_feasible, chain_scenario, random_apps
from fogweaver.cli import main
from fogweaver.extensibility import admit_dynamic, ext_metric
from fogweaver.fixtures import (
    EXTENSIBILITY_CORE,
    dynamic_logging_tasks,
    extensibility_schedule,
    reference_delays,
    uc1_text,
)
from fogweaver.dsl import parse_scenario
from fogweaver.gclsched import synthesize_gcl, verify_net_schedule
from fogweaver.nodesched import (
    map_to_cores,
    node_tasks,
    synthesize_node_schedule,
    utilization_report,
    verify_node_schedule,
)
from fogweaver.pipeline import synthesize_all_nodes
from fogweaver.scenario import FogNodeSpec, validate
from fogweaver.teslasec import (
    VERIFY_WCET_US,
    TeslaConfig,
    apply_tesla,
    secured_delay,
    tesla_overhead_report,
)

SENSOR_EDS = {"S1 data": 60, "S2 data": 72, "S3 data": 52,
              "S4 data": 80, "S5 data": 44}


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_sensor_stream_delays():
    started = time.perf_counter()
    s = parse_scenario(uc1_text())
    assert s.params.d_hop_us == 2
    assert all(l.rate_bps == 100_000_000 for l in s.links)
    ns = synthesize_gcl(s)
    elapsed = time.perf_counter() - started
    for sid, expected in SENSOR_EDS.items():
        assert ns.per_stream[sid].ed_us == expected, (sid, ns.per_stream[sid])
    assert elapsed < 10.0
    _ok(1, f"sensor-stream delays exactly 60/72/52/80/44 us ({elapsed:.2f} s)")


def test_criterion_2_full_network_feasibility():
    started = time.perf_counter()
    s = parse_scenario(uc1_text())
    ns = synthesize_gcl(s)
    elapsed = time.perf_counter() - started
    assert ns.cycle_us == 300_000
    assert set(ns.offsets) == {st.id for st in s.streams} and len(ns.offsets) == 10
    for st in s.streams:
        timing = ns.per_stream[st.id]
        assert timing.ed_us <= st.deadline_us
        assert timing.jitter_us == 0
    assert verify_net_schedule(ns, s).ok
    assert elapsed < 30.0
    _ok(2, f"all 10 streams scheduled, zero misses and zero jitter over "
           f"300 ms, verifier-clean ({elapsed:.2f} s)")


def test_criterion_3_utilization_cross_check():
    s = parse_scenario(uc1_text())
    schedules = synthesize_all_nodes(s)
    assert len(schedules) == 5
    for ns in schedules:
        assert verify_node_schedule(ns).ok  # includes full-WCET-by-deadline
    report = utilization_report(schedules)
    assert report.average == Fraction("0.574")
    assert abs(report.average - Fraction("0.572")) <= Fraction("0.005")
    assert report.average <= report.max_value <= 1
    _ok(3, f"average core utilization {float(report.average):.1%} "
           f"(reference 57.2% within 0.5 pp), max "
           f"{float(report.max_value):.1%} on {report.max_node} "
           f"core {report.max_core}")


def test_criterion_4_extensibility_contrast():
    base = extensibility_schedule("base")
    optimized = extensibility_schedule("optimized")
    core = EXTENSIBILITY_CORE
    assert base.node == optimized.node == "E4"
    m_base, m_opt = ext_metric(base, core), ext_metric(optimized, core)
    assert m_opt < m_base

    dynamic = dynamic_logging_tasks()
    assert [t.period_us for t in dynamic] == [6000, 8000, 10_000, 12_000]
    assert [t.wcet_us / t.period_us for t in dynamic] == \
        [Fraction("0.17"), Fraction("0.13"), Fraction("0.15"), Fraction("0.13")]

    static_before = {k: (extensibility_schedule(k).slices)
                     for k in ("base", "optimized")}
    reports = {k: admit_dynamic(extensibility_schedule(k), core, dynamic, 120_000)
               for k in ("base", "optimized")}
    assert reports["optimized"].misses == ()
    assert len(reports["base"].misses) >= 1
    for kind in ("base", "optimized"):
        assert extensibility_schedule(kind).slices == static_before[kind]
        frame = extensibility_schedule(kind).major_frame_us
        for d in reports[kind].dynamic_slices:
            for sl in static_before[kind]:
                for rep in range(120_000 // frame):
                    s0 = sl.start_us + rep * frame
                    e0 = sl.end_us + rep * frame
                    assert d.end_us <= s0 or e0 <= d.start_us
    _ok(4, f"metric OPTIMIZED {m_opt:.4f} < BASE {m_base:.4f}; admission: "
           f"0 misses on OPTIMIZED, {len(reports['base'].misses)} on BASE, "
           f"static slices untouched")


def test_criterion_5_tesla_consistency_and_properties():
    ref = reference_delays()
    data = tesla_overhead_report(
        {k: v["ed_us"] for k, v in ref.items()},
        {k: v["ed_after_tesla_us"] for k, v in ref.items()})
    assert data.avg_delta_us == Fraction("1720.6")
    assert abs(data.avg_delta_us - 1723) <= 3

    s = parse_scenario(uc1_text())
    ns = synthesize_gcl(s)
    cfg = TeslaConfig()
    overlay, secured = apply_tesla(s, ns, cfg)
    assert len(secured.streams) == 10
    for st in secured.streams:  # exactly two security tasks per stream
        assert sorted(t.role for t in overlay.tasks if t.stream == st.id) \
            == ["sign", "verify"]
    secured_ns = synthesize_gcl(secured)
    for st in s.streams:
        before = ns.per_stream[st.id].ed_us
        after = secured_delay(secured.stream(st.id),
                              secured_ns.per_stream[st.id].ed_us, cfg,
                              send_offset_us=secured_ns.offsets[st.id])
        assert after >= before
        assert after - before < (cfg.disclosure_delay + 1) * cfg.key_interval_us \
            + VERIFY_WCET_US
    _ok(5, "reference mean delta 1720.6 us (within 3 us of 1723); "
           "delay bounds and two-tasks-per-stream hold")


def test_criterion_6_mutation_suite_and_false_positives():
    s = parse_scenario(uc1_text())
    ns = synthesize_gcl(s)

    def shifted(stream, instance, delta):
        return replace(ns, windows=tuple(
            replace(w, open_us=w.open_us + delta, close_us=w.close_us + delta)
            if w.stream == stream and (instance is None or w.instance == instance)
            else w for w in ns.windows))

    # link overlap: drop one window onto the stream it shares W1->E1 with
    target = next(w for w in ns.windows
                  if w.stream == "m2 state" and w.link == "W1->E1"
                  and w.instance == 0)
    clash = next(w for w in ns.windows
                 if w.stream == "S1 data" and w.link == "W1->E1"
                 and w.instance == 0)
    overlap_mutant = replace(ns, windows=tuple(
        replace(w, open_us=clash.open_us,
                close_us=clash.open_us + (w.close_us - w.open_us))
        if w is target else w for w in ns.windows))
    assert "overlap" in verify_net_schedule(overlap_mutant, s).kinds()

    assert "precedence" in verify_net_schedule(
        shifted("S1 data", 1, Fraction(1)), s).kinds()
    assert "containment" in verify_net_schedule(
        shifted("S5 data", 0, Fraction(10_000)), s).kinds()

    low_deadline = replace(s, streams=tuple(
        replace(st, deadline_us=100) if st.id == "S5 data" else st
        for st in s.streams))
    late = shifted("S5 data", None, Fraction(70))
    late = replace(late, offsets={**ns.offsets, "S5 data": Fraction(70)})
    assert "deadline" in verify_net_schedule(late, low_deadline).kinds()

    node = next(n for n in s.nodes if n.id == "E3")
    apps = list(s.apps_on("E3"))
    e3 = synthesize_node_schedule(node, apps, map_to_cores(apps, node.cores))
    second = e3.core_slices(0)[1]
    first = e3.core_slices(0)[0]
    core_overlap = replace(e3, slices=tuple(
        replace(sl, start_us=first.start_us,
                end_us=first.start_us + sl.duration_us)
        if sl is second else sl for sl in e3.slices))
    assert "core-overlap" in verify_node_schedule(core_overlap).kinds()

    low = next(sl for sl in e3.slices if e3.tasks[sl.task].criticality == 1)
    high_part = next(p for p in e3.partitions
                     if p.core == low.core and p.criticality == 3)
    isolation = replace(e3, slices=tuple(
        replace(sl, partition=high_part.id) if sl is low else sl
        for sl in e3.slices))
    assert "isolation" in verify_node_schedule(isolation).kinds()

    tail = Fraction(e3.major_frame_us) - Fraction(1, 2)
    containment = replace(e3, slices=tuple(
        replace(sl, start_us=tail, end_us=tail + Fraction(1, 4))
        if sl is e3.slices[0] else sl for sl in e3.slices))
    assert "containment" in verify_node_schedule(containment).kinds()

    # zero false positives on randomized feasible instances
    rng = random.Random(61)
    checked = 0
    while checked < 100:
        net = chain_scenario(rng, max_streams=5, periods=(400, 600))
        try:
            candidate = synthesize_gcl(net, node_budget=100_000)
        except Exception:
            continue
        assert verify_net_schedule(candidate, net).ok
        node = FogNodeSpec("N", cores=2)
        apps = random_apps(rng, "N", max_apps=2, max_tasks=4,
                           total_util_limit=0.9)
        mapping = map_to_cores(apps, node.cores)
        assert verify_node_schedule(
            synthesize_node_schedule(node, apps, mapping)).ok
        checked += 1
    _ok(6, "all seven injected violation classes flagged; 0 false positives "
           "on 100 randomized feasible instances")


def test_criterion_7_small_instance_oracles():
    rng = random.Random(20240809)
    feasible = infeasible = 0
    for _ in range(100):
        s = chain_scenario(rng)
        if brute_force_feasible(s):
            feasible += 1
            ns = synthesize_gcl(s)  # must not raise
            assert verify_net_schedule(ns, s).ok
        else:
            infeasible += 1
    assert feasible >= 30  # the sample must exercise the property

    rng = random.Random(31337)
    periods = [4000, 5000, 6000, 8000, 10_000, 12_000, 20_000]
    for _ in range(200):
        n_tasks = rng.randint(1, 6)
        utils = []
        remaining = Fraction(1)
        for i in range(n_tasks):
            cap = int(remaining * 20)
            if cap < 1:
                break
            u = Fraction(rng.randint(1, cap), 20)  # 5% utilization grid
            utils.append(u)
            remaining -= u
        apps = []
        from fogweaver.scenario import ApplicationSpec

        for i, u in enumerate(utils):
            apps.append(ApplicationSpec(f"a{i}", "N", rng.randint(0, 4), 1,
                                        rng.choice(periods), u))
        assert sum(utils) <= 1
        node = FogNodeSpec("N", cores=1)
        mapping = {t.id: 0 for t in node_tasks(apps)}
        ns = synthesize_node_schedule(node, apps, mapping)  # must not raise
        assert verify_node_schedule(ns).ok
    _ok(7, f"offset oracle: solver feasible on all {feasible} brute-force-"
           f"feasible instances ({infeasible} infeasible skipped); EDF "
           f"synthesis succeeded on 200 single-core sets with U <= 1")


def test_criterion_8_deterministic_reports(tmp_path):
    scenario = tmp_path / "uc1.fog"
    scenario.write_text(uc1_text(), encoding="utf-8")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["pipeline", str(scenario), "-o", str(a)]) == 0
    assert main(["pipeline", str(scenario), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _ok(8, "two pipeline runs on the same scenario produced byte-identical "
           "reports")


def test_uc1_fixture_is_valid():
    # sanity anchor for every criterion above
    s = parse_scenario(uc1_text())
    assert validate(s).ok
