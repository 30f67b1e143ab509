"""Command-line driver.

Subcommands mirror the pipeline stages::

    fogweaver validate <scenario>
    fogweaver net-schedule <scenario> [-o out.json] [--gantt DIR] [--format svg|ascii]
    fogweaver node-schedule <scenario> [--node ID] [-o out.json] [--gantt DIR]
    fogweaver extensibility <scenario> [--optimize] [-o out.json]
    fogweaver admit <scenario> --dynamic FILE --node ID --core N --horizon MS
                    [--schedule saved.json] [-o out.json]
    fogweaver tesla <scenario> [--interval US] [--disclosure D] [-o out.json]
    fogweaver pipeline <scenario> [-o report.json] [--gantt DIR] [--format ...]

Each subcommand reads the scenario file with ``parse_scenario`` and calls
the stage functions of :mod:`fogweaver.pipeline`, the same ones
``run_pipeline`` calls, so every schedule a subcommand writes went through
its verifier once. The scenario file is the only model input: no flag
overrides a value it sets. ``--gantt`` writes a chart plus the
JSON table of each schedule, the file set the pipeline writes; ``tesla``
prints the block the pipeline report holds under ``"tesla"``.

Exit codes: 0 success, 1 validation failure or usage error (an unknown
flag, a missing argument, a malformed number), 2 infeasible (printed as
``gave up:`` when a search stopped on its budget instead of proving it) or
a schedule that failed verification, 3 I/O error. ``main`` returns the code
on every path; only ``--help`` and ``--version`` exit the process, with 0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from fractions import Fraction

from . import __version__
from .dsl import parse_scenario
from .errors import FogweaverError, InfeasibleError
from .extensibility import admit_dynamic
from .gclsched import gcl_export
from .nodesched import (node_schedule_from_json, node_schedule_to_json,
                        verify_node_schedule)
from .pipeline import (
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    extensibility_stage,
    json_text,
    net_stage,
    node_stage,
    run_pipeline,
    synthesize_all_nodes,
    tesla_stage,
    write_gantt,
)
from .reporting import Report
from .scenario import Scenario, TaskSpec, validate
from .teslasec import TeslaConfig


class _ArgumentParser(argparse.ArgumentParser):
    """Turns a usage error into a :class:`FogweaverError`, so ``main``
    returns exit 1 with one ``error:`` line instead of argparse's exit 2,
    which would read as "infeasible"."""

    def error(self, message):
        raise FogweaverError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fogweaver",
        description="Offline schedule synthesis for TSN-based fog platforms.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, gantt=True, output=True):
        p.add_argument("scenario", help="scenario description file")
        if output:
            p.add_argument("-o", "--output", metavar="PATH",
                           help="write the JSON result here")
        if gantt:
            p.add_argument("--gantt", metavar="DIR",
                           help="write Gantt charts into this directory")
            p.add_argument("--format", choices=("svg", "ascii"), default="svg",
                           help="chart format (default svg)")

    add_common(sub.add_parser("validate", help="check a scenario"),
               gantt=False, output=False)
    add_common(sub.add_parser("net-schedule", help="synthesize the GCLs"))
    p = sub.add_parser("node-schedule", help="synthesize node schedules")
    add_common(p)
    p.add_argument("--node", help="only this fog node")

    p = sub.add_parser("extensibility", help="idle-time metrics per core")
    add_common(p, gantt=False)
    p.add_argument("--optimize", action="store_true",
                   help="also optimize and report the improved metrics")

    p = sub.add_parser("admit", help="simulate dynamic-task admission")
    add_common(p, gantt=False)
    p.add_argument("--dynamic", required=True, metavar="FILE",
                   help="JSON file with the dynamic task set")
    p.add_argument("--node", required=True, help="fog node to admit into")
    p.add_argument("--core", required=True, type=int, help="core index")
    p.add_argument("--horizon", required=True, type=int, metavar="MS",
                   help="simulation horizon in milliseconds")
    p.add_argument("--schedule", metavar="JSON",
                   help="admit into this exported node schedule instead of "
                        "synthesizing one from the scenario")

    p = sub.add_parser("tesla", help="apply the security overlay")
    add_common(p, gantt=False)
    p.add_argument("--interval", type=int, metavar="US",
                   help="key interval in microseconds (default 1000)")
    p.add_argument("--disclosure", type=int, metavar="D",
                   help="key disclosure delay in intervals (default 1)")

    add_common(sub.add_parser("pipeline", help="run every stage"))
    return parser


def _emit(args, payload: dict) -> None:
    text = json_text(payload) + "\n"
    if args.output:
        pathlib.Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


class _Stop(Exception):
    """Ends a subcommand early; ``main`` returns ``code``."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def _require(report: Report, code: int, prefix: str = "") -> None:
    """Print every violation in ``report``; stop with ``code`` unless it is
    clean, so the command writes nothing after a failed check."""
    for v in report:
        print(f"{prefix}{v}", file=sys.stderr)
    if not report.ok:
        raise _Stop(code)


def _require_verified(report: Report) -> None:
    _require(report, EXIT_INFEASIBLE, "verification failed: ")


def _validated(args) -> Scenario:
    text = pathlib.Path(args.scenario).read_text(encoding="utf-8")
    s = parse_scenario(text)
    _require(validate(s), EXIT_VALIDATION)
    return s


def cmd_validate(args) -> int:
    s = _validated(args)
    print(f"ok: {len(s.streams)} streams, {len(s.applications)} "
          f"applications, {len(s.nodes)} fog nodes")
    return EXIT_OK


def cmd_net_schedule(args) -> int:
    ns, verification, summary = net_stage(_validated(args))
    _require_verified(verification)
    _emit(args, {"summary": summary, "gcl": gcl_export(ns)})
    if args.gantt:
        write_gantt(args.gantt, args.format, ns, [])
    return EXIT_OK


def cmd_node_schedule(args) -> int:
    schedules = synthesize_all_nodes(_validated(args))
    if args.node:
        schedules = [n for n in schedules if n.node == args.node]
        if not schedules:
            print(f"no applications on node {args.node!r}", file=sys.stderr)
            return EXIT_VALIDATION
    verification, rows = node_stage(schedules)
    _require_verified(verification)
    _emit(args, {"nodes": rows,
                 "tables": [node_schedule_to_json(n) for n in schedules]})
    if args.gantt:
        write_gantt(args.gantt, args.format, None, schedules)
    return EXIT_OK


def cmd_extensibility(args) -> int:
    schedules = synthesize_all_nodes(_validated(args))
    _emit(args, extensibility_stage(schedules, args.optimize))
    return EXIT_OK


def _load_dynamic_tasks(path: str) -> list[TaskSpec]:
    """Read ``{"tasks": [{"id", "wcet_us", "period_us" or "period_ms",
    optional "deadline_us"}, ...]}``; periods and deadlines are whole us."""
    try:
        doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        tasks = []
        for row in doc["tasks"]:
            period = (row["period_us"] if "period_us" in row
                      else row["period_ms"] * 1000)
            if not isinstance(row["id"], str):
                raise TypeError(f"task id must be a string, got {row['id']!r}")
            tasks.append(TaskSpec(row["id"], Fraction(str(row["wcet_us"])),
                                  period, row.get("deadline_us")))
    except KeyError as exc:
        raise FogweaverError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:  # not JSON, or a wrong type
        raise FogweaverError(f"{path}: {exc}") from None
    # JSON true and false load as bool, which Python counts as an int, and
    # a period_ms of true would pass as 1000 us
    if not all(type(v) is int for t, row in zip(tasks, doc["tasks"])
               for v in (t.period_us, t.deadline_us, row.get("period_ms", 0))):
        raise FogweaverError(f"{path}: periods and deadlines must be whole "
                             f"microseconds")
    return tasks


def cmd_admit(args) -> int:
    dynamic = _load_dynamic_tasks(args.dynamic)
    if args.schedule:
        text = pathlib.Path(args.schedule).read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise FogweaverError(f"{args.schedule}: {exc}") from None
        schedule = node_schedule_from_json(doc)
        if schedule.node != args.node:
            print(f"schedule file describes node {schedule.node!r}, "
                  f"not {args.node!r}", file=sys.stderr)
            return EXIT_VALIDATION
        _require_verified(verify_node_schedule(schedule))
    else:
        s = _validated(args)
        matches = [n for n in synthesize_all_nodes(s) if n.node == args.node]
        if not matches:
            print(f"no applications on node {args.node!r}", file=sys.stderr)
            return EXIT_VALIDATION
        schedule = matches[0]
    try:
        report = admit_dynamic(schedule, args.core, dynamic, args.horizon * 1000)
    except ValueError as exc:  # core, horizon or task timing out of range
        raise FogweaverError(exc) from None
    _emit(args, report.to_json())  # a deadline miss is a result, not an error
    return EXIT_OK


def cmd_tesla(args) -> int:
    s = _validated(args)
    overrides = {}
    if args.interval is not None:
        overrides["key_interval_us"] = args.interval
    if args.disclosure is not None:
        overrides["disclosure_delay"] = args.disclosure
    try:
        cfg = TeslaConfig(**overrides)
    except ValueError as exc:
        raise FogweaverError(exc) from None
    ns, verification, _ = net_stage(s)
    _require_verified(verification)
    verification, block = tesla_stage(s, ns, cfg)
    _require_verified(verification)
    _emit(args, block)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    code, report = run_pipeline(
        args.scenario,
        out=args.output,
        gantt_dir=args.gantt,
        gantt_format=args.format,
    )
    if not args.output:
        sys.stdout.write(json_text(report) + "\n")
    if code == EXIT_VALIDATION:
        for line in report.get("validation", []):
            print(line, file=sys.stderr)
    return code


_COMMANDS = {
    "validate": cmd_validate,
    "net-schedule": cmd_net_schedule,
    "node-schedule": cmd_node_schedule,
    "extensibility": cmd_extensibility,
    "admit": cmd_admit,
    "tesla": cmd_tesla,
    "pipeline": cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _Stop as stop:
        return stop.code
    except InfeasibleError as exc:
        print(f"{'gave up' if exc.gave_up else 'infeasible'}: {exc}", file=sys.stderr)
        if exc.unplaced:
            print(f"unplaced: {', '.join(exc.unplaced)}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except FogweaverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
