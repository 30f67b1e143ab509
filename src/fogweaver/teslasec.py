"""TESLA-style stream authentication overlay.

Secured streams carry a MAC and a delayed-disclosure key, so frames grow by
``MAC_BYTES + KEY_BYTES``; each secured stream also gets a dedicated
security application of two tasks - MAC generation at the sender
(``SIGN_WCET_US``), MAC verification at the receiver (``VERIFY_WCET_US``) -
inheriting the stream's criticality level. A receiver cannot authenticate a
frame until the key of the sending interval is disclosed,
``disclosure_delay`` key intervals later, which dominates the end-to-end
delay penalty. The sizes and WCETs are fixed by the model; the key interval
and the disclosure delay are the two settings of :class:`TeslaConfig`.

This is a scheduling model: no MACs are computed and no key chains are
generated - the overlay only sizes frames, places the security tasks and
accounts for the disclosure wait. The grown frames live in the secured
scenario :func:`apply_tesla` returns; the overlay holds only the tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import FogweaverError, InfeasibleError
from .gclsched import NetSchedule
from .nodesched import map_to_cores
from .scenario import ApplicationSpec, Scenario, StreamSpec, TaskSpec
from .units import time_to_json

MAC_BYTES = 16
KEY_BYTES = 16
SIGN_WCET_US = Fraction(50)
VERIFY_WCET_US = Fraction(50)


@dataclass(frozen=True)
class TeslaConfig:
    key_interval_us: int = 1000
    disclosure_delay: int = 1     # key intervals until the key is published

    def __post_init__(self):
        if self.key_interval_us <= 0:
            raise ValueError("key_interval_us must be positive")
        if self.disclosure_delay < 0:
            raise ValueError("disclosure_delay must be >= 0")


@dataclass(frozen=True)
class SecurityTask:
    """One half of a stream's security application."""

    id: str
    stream: str
    role: str            # "sign" | "verify"
    host: str            # entity at the stream end
    hosted_on_node: bool  # False when the host is a bare sensor/actuator
    wcet_us: Fraction
    period_us: int
    criticality: int


@dataclass(frozen=True)
class SecurityOverlay:
    tasks: tuple[SecurityTask, ...]  # sign, then verify, for each stream


def apply_tesla(s: Scenario, ns: NetSchedule, cfg: TeslaConfig
                ) -> tuple[SecurityOverlay, Scenario]:
    """Attach the authentication overlay to the scheduled streams.

    Returns the overlay plus a scenario variant ready for re-synthesis:
    frames grown by the MAC + key bytes and one single-task security
    application per security task hosted on a fog node. Sensor-hosted sign
    tasks are recorded in the overlay but consume no fog-node capacity.
    Raises :class:`InfeasibleError` when a node cannot absorb its new
    security tasks.
    """
    node_ids = {n.id for n in s.nodes}
    tasks: list[SecurityTask] = []
    new_streams: list[StreamSpec] = []
    new_apps: list[ApplicationSpec] = []

    growth = MAC_BYTES + KEY_BYTES
    for st in s.streams:
        if st.id not in ns.offsets:
            raise FogweaverError(f"stream {st.id!r} is not scheduled")
        sign = SecurityTask(f"sec:{st.id}:sign", st.id, "sign", st.src,
                            st.src in node_ids, SIGN_WCET_US,
                            st.period_us, st.criticality)
        verify = SecurityTask(f"sec:{st.id}:verify", st.id, "verify", st.dst,
                              st.dst in node_ids, VERIFY_WCET_US,
                              st.period_us, st.criticality)
        tasks += (sign, verify)
        new_streams.append(replace(st, size_bytes=st.size_bytes + growth))
        for task in (sign, verify):
            if task.hosted_on_node:
                new_apps.append(ApplicationSpec(
                    id=task.id, node=task.host, level=task.criticality,
                    task_count=1, period_us=task.period_us,
                    utilization=task.wcet_us / task.period_us,
                    tasks=(TaskSpec(task.id, task.wcet_us, task.period_us),),
                ))

    secured_scenario = replace(
        s, streams=tuple(new_streams),
        applications=tuple(s.applications) + tuple(new_apps))

    for node in secured_scenario.nodes:
        apps = secured_scenario.apps_on(node.id)
        if not any(a.id.startswith("sec:") for a in apps):
            continue
        try:
            map_to_cores(list(apps), node.cores)
        except InfeasibleError as exc:
            raise InfeasibleError(
                f"node {node.id} cannot absorb its security tasks",
                unplaced=exc.unplaced, gave_up=exc.gave_up) from exc

    return SecurityOverlay(tuple(tasks)), secured_scenario


def secured_delay(st: StreamSpec, ed_before_us, cfg: TeslaConfig,
                  send_offset_us=0) -> Fraction:
    """End-to-end delay of a secured stream including authentication.

    The receiver holds the frame until the key of the sending interval is
    disclosed - at the end of the ``disclosure_delay``-th key interval
    after the one the frame was sent in - then verifies:

        ed_after = ed_before + max(0, disclosure - ed_before) + VERIFY_WCET_US

    where ``disclosure = (floor(send_offset / I) + d + 1) * I`` with key
    interval ``I``, all relative to the frame's release. A zero
    ``disclosure_delay`` models in-band keys: no waiting at all.
    """
    ed_before = Fraction(ed_before_us)
    if cfg.disclosure_delay == 0:
        return ed_before + VERIFY_WCET_US
    interval = Fraction(cfg.key_interval_us)
    send_interval = Fraction(send_offset_us) // interval
    disclosure = (send_interval + cfg.disclosure_delay + 1) * interval
    wait = max(Fraction(0), disclosure - ed_before)
    return ed_before + wait + VERIFY_WCET_US


@dataclass(frozen=True)
class OverheadReport:
    """Per-stream end-to-end delay growth caused by the security overlay."""

    streams: tuple[tuple[str, Fraction, Fraction, Fraction], ...]
    # (stream, ed_before, ed_after, delta)
    avg_delta_us: Fraction

    def to_json(self) -> dict:
        return {
            "streams": [
                {
                    "id": sid,
                    "ed_before_us": time_to_json(before),
                    "ed_after_us": time_to_json(after),
                    "delta_us": time_to_json(delta),
                }
                for sid, before, after, delta in self.streams
            ],
            "avg_delta_us": time_to_json(self.avg_delta_us),
        }


def tesla_overhead_report(before: dict, after: dict) -> OverheadReport:
    """Delay deltas per stream plus their average.

    ``before`` and ``after`` map stream ids to end-to-end delays and must
    cover exactly the same streams.
    """
    if set(before) != set(after):
        only_before = sorted(set(before) - set(after))
        only_after = sorted(set(after) - set(before))
        raise FogweaverError(
            f"stream sets differ (only in before: {only_before}, "
            f"only in after: {only_after})")
    rows = []
    for sid in before:
        b, a = Fraction(before[sid]), Fraction(after[sid])
        rows.append((sid, b, a, a - b))
    avg = (sum((delta for *_, delta in rows), Fraction(0)) / len(rows)
           if rows else Fraction(0))
    return OverheadReport(tuple(rows), avg)
