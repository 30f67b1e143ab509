"""The pipeline stages and the end-to-end pipeline.

Each stage is written once here and called by both the CLI subcommands and
``run_pipeline``: ``net_stage`` (GCL synthesis and its verification),
``node_stage`` (node-schedule verification), ``extensibility_stage``,
``tesla_stage`` (secured GCL synthesis and its verification) and
``write_gantt``. Both callers read the scenario with
:func:`~fogweaver.dsl.parse_scenario`; the file is the only model input.
``net_stage``, ``node_stage`` and ``tesla_stage`` run each verifier
exactly once and hand its ``Report`` back; the caller decides whether to
go on.

Reports are plain dicts of JSON-compatible values, assembled in a fixed
order with no timestamps, so two runs over the same scenario file produce
byte-identical files. Times and utilizations follow the rule of every
export, :func:`~fogweaver.units.time_to_json`: exact, never rounded.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
from json.encoder import encode_basestring_ascii

from . import __version__
from .dsl import parse_scenario
from .errors import FogweaverError, InfeasibleError
from .extensibility import ext_metric, optimize_extensibility
from .gantt import emit_gantt
from .gclsched import (
    NetSchedule,
    gcl_export,
    qoc_proxy,
    synthesize_gcl,
    verify_net_schedule,
)
from .netmodel import lower_bound_delay, resolve_route
from .nodesched import (
    NodeSchedule,
    map_to_cores,
    node_schedule_to_json,
    synthesize_node_schedule,
    utilization_report,
    verify_node_schedule,
)
from .reporting import Report
from .scenario import Scenario, validate
from .teslasec import (
    KEY_BYTES,
    MAC_BYTES,
    TeslaConfig,
    apply_tesla,
    secured_delay,
    tesla_overhead_report,
)
from .units import time_to_json

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3


def _float_text(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


# the text of each plain JSON scalar, as json.dumps writes it
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for values whose keys are strings,
    written without the pure-Python encoder that ``indent`` selects."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{encode_basestring_ascii(k)}: {json_text(v, inner)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [inner + json_text(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    # a subclass of a scalar type; json.dumps raises TypeError for the rest
    return json.dumps(value)


def _verdict(verification: Report) -> str | list[str]:
    return "clean" if verification.ok else [str(v) for v in verification]


def net_summary(ns: NetSchedule, s: Scenario, verification: Report) -> dict:
    rows = []
    for st in s.streams:
        timing = ns.per_stream[st.id]
        route = resolve_route(s, st)
        rows.append({
            "id": st.id,
            "offset_us": time_to_json(ns.offsets[st.id]),
            "ed_us": time_to_json(timing.ed_us),
            "jitter_us": time_to_json(timing.jitter_us),
            "deadline_us": st.deadline_us,
            "lower_bound_us": time_to_json(lower_bound_delay(st, route, s.params)),
        })
    return {
        "cycle_us": ns.cycle_us,
        "qoc_proxy": float(qoc_proxy(ns, s)),
        "streams": rows,
        "verification": _verdict(verification),
    }


def node_summary(ns: NodeSchedule, verification: Report) -> dict:
    return {
        "node": ns.node,
        "major_frame_us": ns.major_frame_us,
        "per_core_utilization": [time_to_json(u) for u in ns.per_core_utilization],
        "partitions": len(ns.partitions),
        "slices": len(ns.slices),
        "verification": _verdict(verification),
    }


def synthesize_all_nodes(s: Scenario) -> list[NodeSchedule]:
    schedules = []
    for node in s.nodes:
        apps = list(s.apps_on(node.id))
        if not apps:
            continue
        mapping = map_to_cores(apps, node.cores)
        schedules.append(synthesize_node_schedule(node, apps, mapping))
    return schedules


def net_stage(s: Scenario) -> tuple[NetSchedule, Report, dict]:
    """Synthesize the GCLs and verify them once; returns the schedule, the
    verifier's report and the ``net`` block of the pipeline report.
    Raises :class:`InfeasibleError` when no schedule is found."""
    ns = synthesize_gcl(s)
    verification = verify_net_schedule(ns, s)
    return ns, verification, net_summary(ns, s, verification)


def node_stage(schedules: list[NodeSchedule]) -> tuple[Report, list[dict]]:
    """Verify each node schedule once; returns every violation in one report
    plus one summary row per node."""
    reports = [verify_node_schedule(n) for n in schedules]
    rows = [node_summary(n, r) for n, r in zip(schedules, reports)]
    return Report(tuple(v for r in reports for v in r)), rows


def extensibility_stage(schedules: list[NodeSchedule], optimize: bool) -> dict:
    """Idle-time metric of every core; with ``optimize`` also the metric
    after ``optimize_extensibility``."""
    rows = []
    for n in schedules:
        opt = optimize_extensibility(n) if optimize else None
        for core in range(n.cores):
            row = {"node": n.node, "core": core, "metric": ext_metric(n, core)}
            if opt is not None:
                row["metric_optimized"] = ext_metric(opt, core)
            rows.append(row)
    return {"cores": rows}


def tesla_stage(s: Scenario, ns: NetSchedule, cfg: TeslaConfig
                ) -> tuple[Report, dict]:
    """Apply the security overlay to a verified network schedule,
    re-synthesize the secured network and verify it once; returns the
    verifier's report and the ``tesla`` block of the pipeline report, which
    lists the violations under ``verification`` only when there are any.
    Raises :class:`InfeasibleError` when the secured variant cannot be
    placed."""
    overlay, secured = apply_tesla(s, ns, cfg)
    secured_ns = synthesize_gcl(secured)
    verification = verify_net_schedule(secured_ns, secured)
    before = {st.id: ns.per_stream[st.id].ed_us for st in s.streams}
    after = {
        st.id: secured_delay(secured.stream(st.id),
                             secured_ns.per_stream[st.id].ed_us, cfg,
                             send_offset_us=secured_ns.offsets[st.id])
        for st in s.streams
    }
    block = {
        "config": {
            "mac_bytes": MAC_BYTES,
            "key_bytes": KEY_BYTES,
            "key_interval_us": cfg.key_interval_us,
            "disclosure_delay": cfg.disclosure_delay,
        },
        "security_tasks": len(overlay.tasks),
        **tesla_overhead_report(before, after).to_json(),
    }
    if not verification.ok:
        block["verification"] = _verdict(verification)
    return verification, block


def write_gantt(directory: str | pathlib.Path, gantt_format: str,
                ns: NetSchedule | None, schedules: list[NodeSchedule]) -> None:
    """Write a chart plus the JSON export of the network schedule (when
    given) and of each node schedule into ``directory``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ext = "svg" if gantt_format == "svg" else "txt"
    if ns is not None:
        (directory / f"net.{ext}").write_text(
            emit_gantt(ns, gantt_format), encoding="utf-8")
        (directory / "gcl.json").write_text(
            json_text(gcl_export(ns)) + "\n", encoding="utf-8")
    for n in schedules:
        (directory / f"node_{n.node}.{ext}").write_text(
            emit_gantt(n, gantt_format), encoding="utf-8")
        (directory / f"node_{n.node}.json").write_text(
            json_text(node_schedule_to_json(n)) + "\n",
            encoding="utf-8")


def run_pipeline(scenario_path: str | pathlib.Path, *,
                 out: str | pathlib.Path | None = None,
                 gantt_dir: str | pathlib.Path | None = None,
                 gantt_format: str = "svg",
                 ) -> tuple[int, dict]:
    """Run every stage on a scenario file; returns (exit code, report).

    Stages run in order - validation, network schedule, node schedules,
    extensibility, security overlay - and stop at the first validation
    failure (exit 1), infeasibility or schedule rejected by its verifier
    (exit 2), leaving the corresponding marker in the report. The report
    is written to ``out`` in every case; charts and tables go to
    ``gantt_dir`` only for the schedules that passed their verifier before
    the stop. File-system problems raise OSError; the CLI maps those to
    exit 3.
    """
    text = pathlib.Path(scenario_path).read_text(encoding="utf-8")
    report = {
        "version": __version__,
        "scenario": {
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "nodes": 0,
            "streams": 0,
            "applications": 0,
        },
        "net": None,
        "nodes": [],
        "extensibility": None,
        "tesla": None,
    }

    def finish(code: int, ns: NetSchedule | None = None,
               schedules=()) -> tuple[int, dict]:
        if out is not None:
            pathlib.Path(out).write_text(json_text(report) + "\n",
                                         encoding="utf-8")
        if gantt_dir is not None:
            write_gantt(gantt_dir, gantt_format, ns, schedules)
        return code, report

    try:
        s = parse_scenario(text)
    except FogweaverError as exc:
        report["validation"] = [str(exc)]
        return finish(EXIT_VALIDATION)
    report["scenario"].update(nodes=len(s.nodes), streams=len(s.streams),
                              applications=len(s.applications))
    validation = validate(s)
    report["validation"] = [str(v) for v in validation]
    if not validation.ok:
        return finish(EXIT_VALIDATION)

    # an InfeasibleError leaves ns and schedules at the last verified value
    ns, schedules = None, []
    stage = "net"  # the report key an InfeasibleError is filed under
    try:
        ns, verification, report["net"] = net_stage(s)
        if not verification.ok:
            return finish(EXIT_INFEASIBLE)
        stage = "nodes"
        schedules = synthesize_all_nodes(s)
        verification, report["nodes"] = node_stage(schedules)
        if not verification.ok:
            return finish(EXIT_INFEASIBLE, ns)
        util = utilization_report(schedules)
        report["utilization"] = {
            "average": time_to_json(util.average),
            "max": time_to_json(util.max_value),
            "max_node": util.max_node,
            "max_core": util.max_core,
        }
        report["extensibility"] = extensibility_stage(schedules, optimize=True)
        stage = "tesla"
        verification, report["tesla"] = tesla_stage(s, ns, TeslaConfig())
        if not verification.ok:
            return finish(EXIT_INFEASIBLE, ns, schedules)
    except InfeasibleError as exc:
        marker = {"infeasible": str(exc), "unplaced": list(exc.unplaced),
                  "gave_up": exc.gave_up}
        report[stage] = [marker] if stage == "nodes" else marker
        return finish(EXIT_INFEASIBLE, ns, schedules)
    return finish(EXIT_OK, ns, schedules)
