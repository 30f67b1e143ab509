from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fogweaver.errors import FogweaverError
from fogweaver.netmodel import (
    Route,
    lower_bound_delay,
    resolve_route,
    transmission_time,
)
from fogweaver.scenario import LinkSpec, ModelParams


def test_resolve_sensor_route(uc1):
    route = resolve_route(uc1, uc1.stream("S1 data"))
    assert route.hops == 2
    assert [l.id for l in route.links] == ["S1->W1", "W1->E1"]


def test_resolve_two_switch_route(uc1):
    route = resolve_route(uc1, uc1.stream("E5 data"))
    assert route.hops == 3
    assert [l.id for l in route.links] == ["E5->W3", "W3->W2", "W2->E4"]


def test_resolve_missing_link(uc1):
    stream = uc1.stream("S1 data")
    broken = type(stream)(stream.id, "S1", "E2", stream.size_bytes,
                          stream.period_us, stream.criticality,
                          ("S1", "W2", "E2"))  # no S1->W2 link declared
    with pytest.raises(FogweaverError,
                       match="^stream 'S1 data': no declared link S1 -> W2$"):
        resolve_route(uc1, broken)


@pytest.mark.parametrize("size,expected", [
    (700, Fraction(56)),
    (500, Fraction(40)),
    (920, Fraction("73.6")),
])
def test_transmission_time_100mbps(size, expected):
    assert transmission_time(size, 100_000_000) == expected


def test_transmission_time_rounds_up_to_grid():
    # 999 B at 100 Mbps is 79.92 us exactly; the grid value rounds up
    assert transmission_time(999, 100_000_000) == Fraction(80)
    # 1 B at 1 Gbps is 8 ns -> one grid step
    assert transmission_time(1, 10**9) == Fraction(1, 10)


def test_transmission_time_rejects_bad_input():
    with pytest.raises(ValueError):
        transmission_time(0, 100_000_000)
    with pytest.raises(ValueError):
        transmission_time(100, 0)


def _route(hops):
    return Route(tuple(LinkSpec(f"n{i}", f"n{i+1}") for i in range(hops)))


def test_lower_bound_sensor_streams(uc1):
    params = uc1.params
    expected = {"S1 data": 60, "S2 data": 72, "S3 data": 52,
                "S4 data": 80, "S5 data": 44}
    for sid, ed in expected.items():
        stream = uc1.stream(sid)
        assert lower_bound_delay(stream, resolve_route(uc1, stream), params) == ed


def test_lower_bound_contended_stream_is_below_schedule(uc1, uc1_net):
    # E5 data crosses two switches; its bound is 73.6 + 3*2 = 79.6 us, well
    # below whatever the schedule achieves under contention
    stream = uc1.stream("E5 data")
    bound = lower_bound_delay(stream, resolve_route(uc1, stream), uc1.params)
    assert bound == Fraction("79.6")
    assert uc1_net.per_stream["E5 data"].ed_us >= bound


def test_every_scheduled_stream_meets_its_lower_bound(uc1, uc1_net):
    for stream in uc1.streams:
        bound = lower_bound_delay(stream, resolve_route(uc1, stream), uc1.params)
        assert uc1_net.per_stream[stream.id].ed_us >= bound


@given(size=st.integers(1, 1400), bump=st.integers(1, 100),
       hops=st.integers(1, 5))
def test_lower_bound_monotone_in_size_and_hops(size, bump, hops):
    from fogweaver.scenario import StreamSpec

    params = ModelParams()

    def stream(sz):
        return StreamSpec("s", "a", "b", sz, 10_000, 0, ("a", "b"))

    lb = lower_bound_delay(stream(size), _route(hops), params)
    assert lower_bound_delay(stream(size + bump), _route(hops), params) >= lb
    assert lower_bound_delay(stream(size), _route(hops + 1), params) > lb
