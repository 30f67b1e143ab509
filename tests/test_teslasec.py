from fractions import Fraction

import pytest

from fogweaver.errors import FogweaverError, InfeasibleError
from fogweaver.fixtures import reference_delays
from fogweaver.gclsched import synthesize_gcl, verify_net_schedule
from fogweaver.pipeline import synthesize_all_nodes
from fogweaver.scenario import (
    ApplicationSpec,
    FogNodeSpec,
    LinkSpec,
    Scenario,
    StreamSpec,
    SwitchSpec,
    validate,
)
from fogweaver.teslasec import (
    VERIFY_WCET_US,
    TeslaConfig,
    apply_tesla,
    secured_delay,
    tesla_overhead_report,
)


@pytest.fixture(scope="module")
def overlay_and_secured(uc1, uc1_net):
    return apply_tesla(uc1, uc1_net, TeslaConfig())


def test_two_tasks_per_secured_stream(overlay_and_secured):
    overlay, secured = overlay_and_secured
    assert len(secured.streams) == 10
    assert len(overlay.tasks) == 20
    # sign, then verify, for each stream in the scenario's order
    for st, sign, verify in zip(secured.streams, overlay.tasks[::2],
                                overlay.tasks[1::2]):
        assert sign.role == "sign" and verify.role == "verify"
        assert sign.stream == verify.stream == st.id
        assert sign.criticality == verify.criticality


def test_frames_grow_by_mac_plus_key(overlay_and_secured, uc1):
    _, secured = overlay_and_secured
    assert [st.id for st in secured.streams] == [st.id for st in uc1.streams]
    for st in uc1.streams:
        assert secured.stream(st.id).size_bytes == st.size_bytes + 32
    assert validate(secured).ok


def test_security_tasks_inherit_stream_criticality(overlay_and_secured, uc1):
    overlay, secured = overlay_and_secured
    by_stream = {st.id: st for st in uc1.streams}
    for task in overlay.tasks:
        assert task.criticality == by_stream[task.stream].criticality
    # the secured node schedules still synthesize and verify cleanly, so
    # isolation holds with the security tasks in place
    from fogweaver.nodesched import verify_node_schedule

    for ns in synthesize_all_nodes(secured):
        assert verify_node_schedule(ns).ok


def test_sensor_hosted_sign_tasks_consume_no_node_capacity(overlay_and_secured, uc1):
    overlay, secured = overlay_and_secured
    node_ids = {n.id for n in uc1.nodes}
    off_node = [t for t in overlay.tasks if not t.hosted_on_node]
    assert {t.host for t in off_node} == {"S1", "S2", "S3", "S4", "S5", "S6"}
    sec_apps = [a for a in secured.applications if a.id.startswith("sec:")]
    assert len(sec_apps) == len(overlay.tasks) - len(off_node)
    assert all(a.node in node_ids for a in sec_apps)


def test_saturated_node_rejects_security_tasks():
    s = Scenario(
        nodes=(FogNodeSpec("E1", cores=1),),
        switches=(SwitchSpec("W1"),),
        links=(LinkSpec("W1", "E1"),),
        streams=(StreamSpec("x", "W1", "E1", 100, 10_000, 1, ("W1", "E1")),),
        applications=(ApplicationSpec("busy", "E1", 1, 1, 10_000, Fraction(1)),),
    )
    ns = synthesize_gcl(s)
    with pytest.raises(InfeasibleError,
                       match="^node E1 cannot absorb its security tasks$") as exc:
        apply_tesla(s, ns, TeslaConfig())
    assert not exc.value.gave_up  # utilization above 1 on one core: a proof


def test_security_tasks_first_fit_cannot_place_is_a_give_up():
    # 0.6 + 0.37 on each core leaves 0.03 per core, so first-fit cannot
    # place the 0.05 verify task, but 1.99 in all on 2 cores proves nothing
    s = Scenario(
        nodes=(FogNodeSpec("E1", cores=2),),
        switches=(SwitchSpec("W1"),),
        links=(LinkSpec("W1", "E1"),),
        streams=(StreamSpec("x", "W1", "E1", 100, 1000, 1, ("W1", "E1")),),
        applications=tuple(ApplicationSpec(a, "E1", 1, 1, 10_000, Fraction(u))
                           for a, u in (("a", "0.6"), ("b", "0.6"),
                                        ("c", "0.37"), ("d", "0.37"))),
    )
    with pytest.raises(InfeasibleError,
                       match="^node E1 cannot absorb its security tasks$") as exc:
        apply_tesla(s, synthesize_gcl(s), TeslaConfig())
    assert exc.value.gave_up
    assert exc.value.unplaced == ("sec:x:verify",)


def test_secured_scenario_reschedules(uc1, uc1_net, overlay_and_secured):
    _, secured = overlay_and_secured
    ns2 = synthesize_gcl(secured)
    assert verify_net_schedule(ns2, secured).ok
    for st in uc1.streams:
        # grown frames take longer on the wire
        assert ns2.per_stream[st.id].ed_us > 0


# -- delay model --------------------------------------------------------------


def _stream(period_us=10_000):
    return StreamSpec("s", "A", "B", 700, period_us, 3, ("A", "B"))


def test_delay_disclosure_0_adds_only_the_verification():
    cfg = TeslaConfig(disclosure_delay=0)
    assert secured_delay(_stream(), 60, cfg) == 110


def test_delay_worked_example():
    # 60 us raw delay, 1 ms intervals, disclosure one interval later,
    # 50 us verification: wait till 2000, so 60 + 1940 + 50
    cfg = TeslaConfig(key_interval_us=1000, disclosure_delay=1)
    assert secured_delay(_stream(), 60, cfg) == 2050


def test_delay_linear_in_disclosure():
    base = secured_delay(_stream(), 60, TeslaConfig(disclosure_delay=1))
    for d in (2, 3, 4):
        assert secured_delay(_stream(), 60, TeslaConfig(disclosure_delay=d)) \
            == base + (d - 1) * 1000


def test_delay_depends_on_send_interval():
    cfg = TeslaConfig()
    # sending within a later key interval pushes disclosure out with it
    assert secured_delay(_stream(), 1100, cfg, send_offset_us=1050) \
        == 1100 + (3000 - 1100) + 50


def test_delay_when_frame_arrives_after_disclosure():
    cfg = TeslaConfig(key_interval_us=100, disclosure_delay=1)
    # raw delay 350 beats the disclosure at 200: no extra waiting
    assert secured_delay(_stream(), 350, cfg) == 400


@pytest.mark.parametrize("d", [1, 2, 3])
def test_delay_bounds_hold_for_all_uc1_streams(uc1, uc1_net, d):
    cfg = TeslaConfig(disclosure_delay=d)
    for st in uc1.streams:
        before = uc1_net.per_stream[st.id].ed_us
        after = secured_delay(st, before, cfg,
                              send_offset_us=uc1_net.offsets[st.id])
        assert after >= before
        assert after - before < (d + 1) * cfg.key_interval_us + VERIFY_WCET_US


# -- overhead report ------------------------------------------------------------


def test_reference_data_consistency():
    ref = reference_delays()
    report = tesla_overhead_report(
        {k: v["ed_us"] for k, v in ref.items()},
        {k: v["ed_after_tesla_us"] for k, v in ref.items()})
    assert report.avg_delta_us == Fraction("1720.6")
    assert abs(report.avg_delta_us - 1723) <= 3
    assert all(delta > 0 for *_, delta in report.streams)


def test_overhead_identical_maps():
    report = tesla_overhead_report({"a": 10, "b": 20}, {"a": 10, "b": 20})
    assert report.avg_delta_us == 0
    assert all(delta == 0 for *_, delta in report.streams)


def test_overhead_mismatched_streams():
    with pytest.raises(FogweaverError, match=r"^stream sets differ \(only in "
                       r"before: \['b'\], only in after: \[\]\)$"):
        tesla_overhead_report({"a": 10, "b": 20}, {"a": 10})


def test_overhead_json_schema():
    report = tesla_overhead_report({"a": 10}, {"a": 2050})
    doc = report.to_json()
    assert set(doc) == {"streams", "avg_delta_us"}
    assert doc["streams"][0] == {"id": "a", "ed_before_us": 10,
                                 "ed_after_us": 2050, "delta_us": 2040}
