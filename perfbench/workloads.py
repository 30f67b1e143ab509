"""The benchmark workloads: inputs, the timed op and the correctness gate.

Each workload turns an instance index into an input (``instance``), runs one
closed-loop op on it (``run``, the only timed call) and checks the op's
artefacts with the independent verifiers (``check``, untimed). Generated
inputs reach fogweaver only as scenario text, parsed inside the op.

The ops call fogweaver through module attributes (``gclsched.synthesize_gcl``
and so on), so the tracer in ``spans.py`` can wrap them from outside.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction

from fogweaver import (cli, dsl, extensibility, gclsched, netmodel, nodesched,
                       scenario, teslasec)
from fogweaver.errors import InfeasibleError
from fogweaver.fixtures import dynamic_logging_tasks
from fogweaver.scenario import (EndpointSpec, FogNodeSpec, LinkSpec,
                                Scenario, StreamSpec, SwitchSpec, TaskSpec)
from fogweaver.units import lcm_all

SCHEDULE, INFEASIBLE, GAVE_UP = "schedule", "infeasible", "gave_up"

# -- net_family shape (ROADMAP item A's network family) ----------------------
NET_SWITCHES, NET_NODES, NET_SENSORS = 6, 10, 30
NET_STREAMS = (30, 60)                      # N, swept by instance_streams
NET_SIZES_B = (64, 200, 700, 1500)
NET_PERIODS_US = (1000, 2000, 5000, 10000)
# Placements synthesize_gcl may try before giving up. At 100 the same
# instances give up as at 300, for a third of the time (measured on 80
# draws), so the search cliff shows without dominating the run.
NET_BUDGET = 100


def instance_rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{index}")


def digest(*parts) -> str:
    return hashlib.sha256(
        json.dumps(parts, sort_keys=True, default=str).encode()).hexdigest()


@dataclass
class Outcome:
    """What the gate learned from one op: verdict, problems, quality samples."""

    verdict: str = SCHEDULE
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    delay_ratios: list[float] = field(default_factory=list)
    ext_devs: list[float] = field(default_factory=list)
    offered: int = 0
    admitted: int = 0
    stats: dict = field(default_factory=dict)


def gave_up(exc: InfeasibleError) -> bool:
    """Whether ``synthesize_gcl`` stopped on its placement budget.

    ``InfeasibleError`` has no structured field for this yet, so the message
    text tells a give-up from a proof of infeasibility.
    """
    text = str(exc)
    return text.startswith("search budget of") and text.endswith("exhausted")


def classify(exc: InfeasibleError) -> str:
    if gave_up(exc):
        return GAVE_UP
    if str(exc) == "no feasible offset assignment":
        return INFEASIBLE
    raise exc


def busiest_link_utilization(s: Scenario) -> float:
    load: dict[str, Fraction] = {}
    for st in s.streams:
        route = netmodel.resolve_route(s, st)
        tx = netmodel.transmission_time(
            st.size_bytes, min(l.rate_bps for l in route.links))
        for link in route.links:
            load[link.id] = load.get(link.id, Fraction(0)) + tx / st.period_us
    return float(max(load.values(), default=0))


def check_stream_delays(ns: gclsched.NetSchedule, s: Scenario,
                        label: str) -> tuple[list[str], list[float]]:
    """lower bound <= ED <= deadline for every stream; returns ED/bound too."""
    problems, ratios = [], []
    for st in s.streams:
        bound = netmodel.lower_bound_delay(st, netmodel.resolve_route(s, st),
                                           s.params)
        ed = ns.per_stream[st.id].ed_us
        if not bound <= ed <= st.deadline_us:
            problems.append(f"{label} stream {st.id}: ED {ed} us outside "
                            f"[{bound}, {st.deadline_us}]")
        ratios.append(float(ed / bound))
    return problems, ratios


def check_admission(ns: nodesched.NodeSchedule, core: int,
                    dynamic: list[TaskSpec], horizon: int,
                    report: extensibility.AdmissionReport) -> list[str]:
    """Dynamic slices use only static idle time, inside their job windows;
    a task is admitted exactly when none of its jobs missed."""
    problems = []
    frame = ns.major_frame_us
    busy = sorted(
        [(sl.start_us + r * frame, sl.end_us + r * frame, "static")
         for r in range(horizon // frame) for sl in ns.core_slices(core)]
        + [(sl.start_us, sl.end_us, sl.task) for sl in report.dynamic_slices])
    for a, b in zip(busy, busy[1:]):
        if b[0] < a[1]:
            problems.append(f"core {core}: {b[2]} overlaps {a[2]} at {b[0]}")
    tasks = {t.id: t for t in dynamic}
    work: dict[tuple[str, int], Fraction] = {}
    for sl in report.dynamic_slices:
        t = tasks[sl.task]
        release = sl.job_index * t.period_us
        if not (release <= sl.start_us and sl.end_us <= release + t.deadline_us
                and sl.end_us <= horizon):
            problems.append(f"core {core}: {sl.task}#{sl.job_index} runs "
                            f"outside its window")
        key = (sl.task, sl.job_index)
        work[key] = work.get(key, Fraction(0)) + sl.duration_us
    missed = {m.task for m in report.misses}
    for t in dynamic:
        if report.admitted[t.id] == (t.id in missed):
            problems.append(f"core {core}: {t.id} admitted flag disagrees "
                            f"with its misses")
        if report.admitted[t.id] and any(
                work.get((t.id, k)) != t.wcet_us
                for k in range(horizon // t.period_us)):
            problems.append(f"core {core}: admitted {t.id} lacks work")
    return problems


# -- uc1 ---------------------------------------------------------------------


class Uc1:
    """The paper's fixture through the real ``fogweaver pipeline`` command."""

    name = "uc1"

    def __init__(self, root: pathlib.Path, seed: int, out_dir: pathlib.Path):
        del seed  # uc1 is one fixed scenario
        self.fog = root / "src" / "fogweaver" / "fixtures" / "uc1.fog"
        self.out_dir = out_dir
        self.reference: Outcome | None = None

    def instance(self, index: int) -> pathlib.Path:
        op_dir = self.out_dir / f"op{index}"
        op_dir.mkdir(parents=True)  # fresh: rewriting files would time the disk
        return op_dir

    def run(self, op_dir: pathlib.Path) -> int:
        return cli.main(["pipeline", str(self.fog),
                         "-o", str(op_dir / "report.json"),
                         "--gantt", str(op_dir / "gantt")])

    def check(self, op_dir: pathlib.Path, code: int) -> Outcome:
        files = sorted(p for p in op_dir.rglob("*") if p.is_file())
        contents = {str(p.relative_to(op_dir)): p.read_bytes() for p in files}
        shutil.rmtree(op_dir)
        out = Outcome(digest=digest(code, {k: hashlib.sha256(v).hexdigest()
                                           for k, v in contents.items()}))
        if code != 0:
            out.problems.append(f"pipeline exited with {code}")
            return out
        if self.reference is None:
            self.reference = self._deep_check(contents)
            self.reference.digest = out.digest
        elif out.digest != self.reference.digest:
            out.problems.append("artefacts differ from the first op's")
            return out
        ref = self.reference
        out.problems += ref.problems
        out.delay_ratios, out.ext_devs = ref.delay_ratios, ref.ext_devs
        out.offered, out.admitted = ref.offered, ref.admitted
        out.stats = ref.stats
        return out

    def _deep_check(self, contents: dict[str, bytes]) -> Outcome:
        """Re-verify every artefact the pipeline wrote, plus the TESLA and
        optimized variants it reports on but never verifies."""
        out = Outcome()
        report = json.loads(contents["report.json"])
        out.stats["report_sha256"] = hashlib.sha256(
            contents["report.json"]).hexdigest()
        s = dsl.parse_scenario(self.fog.read_text(encoding="utf-8"))
        if report["net"]["verification"] != "clean" or any(
                n["verification"] != "clean" for n in report["nodes"]):
            out.problems.append("report carries verifier violations")

        ns = _net_from_artefacts(report, json.loads(contents["gantt/gcl.json"]), s)
        if not (v := gclsched.verify_net_schedule(ns, s)).ok:
            out.problems.append(f"written GCL rejected: {v}")
        problems, out.delay_ratios = check_stream_delays(ns, s, "uc1")
        out.problems += problems
        rows = {r["id"]: r for r in report["net"]["streams"]}
        for st in s.streams:
            if Fraction(str(rows[st.id]["ed_us"])) != ns.per_stream[st.id].ed_us:
                out.problems.append(f"report ED of {st.id} disagrees with GCL")

        cfg = teslasec.TeslaConfig()
        _, secured = teslasec.apply_tesla(s, ns, cfg)
        sns = gclsched.synthesize_gcl(secured)
        if not (v := gclsched.verify_net_schedule(sns, secured)).ok:
            out.problems.append(f"secured GCL rejected: {v}")
        out.problems += check_stream_delays(sns, secured, "secured")[0]
        after = {r["id"]: Fraction(str(r["ed_after_us"]))
                 for r in report["tesla"]["streams"]}
        for st in secured.streams:
            expected = teslasec.secured_delay(
                st, sns.per_stream[st.id].ed_us, cfg,
                send_offset_us=sns.offsets[st.id])
            if after[st.id] != expected:
                out.problems.append(f"report secured ED of {st.id} disagrees")

        ext = {(r["node"], r["core"]): r["metric_optimized"]
               for r in report["extensibility"]["cores"]}
        dynamic = dynamic_logging_tasks()
        for name in sorted(contents):
            if not (name.startswith("gantt/node_") and name.endswith(".json")):
                continue
            base = nodesched.node_schedule_from_json(json.loads(contents[name]))
            opt = extensibility.optimize_extensibility(base)
            for label, sched in (("written", base), ("optimized", opt)):
                if not (v := nodesched.verify_node_schedule(sched)).ok:
                    out.problems.append(f"{label} {base.node} rejected: {v}")
            for core in range(opt.cores):
                if not opt.core_slices(core):
                    continue
                metric = extensibility.ext_metric(opt, core)
                if metric != ext[(base.node, core)]:
                    out.problems.append(f"{base.node} core {core}: report "
                                        f"metric disagrees")
                out.ext_devs.append(metric)
                out.problems += _admit(opt, core, dynamic, out)
        return out


def _net_from_artefacts(report: dict, gcl: list[dict],
                        s: Scenario) -> gclsched.NetSchedule:
    """Rebuild a NetSchedule from the written GCL and the report's offsets."""
    windows = tuple(
        gclsched.FrameWindow(port["port"], e["stream"], e["instance"],
                             Fraction(str(e["open_us"])),
                             Fraction(str(e["close_us"])))
        for port in gcl for e in port["entries"])
    offsets = {r["id"]: Fraction(str(r["offset_us"]))
               for r in report["net"]["streams"]}
    bare = gclsched.NetSchedule(report["net"]["cycle_us"], s.params.d_hop_us,
                                offsets, windows, {})
    per_stream = {st.id: gclsched.stream_metrics(bare, st) for st in s.streams}
    return gclsched.NetSchedule(bare.cycle_us, bare.d_hop_us, offsets,
                                windows, per_stream)


def _admit(ns: nodesched.NodeSchedule, core: int, dynamic: list[TaskSpec],
           out: Outcome) -> list[str]:
    horizon = lcm_all([ns.major_frame_us, *(t.period_us for t in dynamic)])
    report = extensibility.admit_dynamic(ns, core, dynamic, horizon)
    out.offered += len(dynamic)
    out.admitted += sum(report.admitted.values())
    return check_admission(ns, core, dynamic, horizon, report)


# -- net_family --------------------------------------------------------------


def instance_streams(index: int) -> int:
    """N of instance ``index``: a fixed stride through NET_STREAMS, so every
    run covers the range evenly instead of drawing its mix of sizes."""
    lo, hi = NET_STREAMS
    return lo + index * 13 % (hi - lo + 1)


def net_instance(rng: random.Random, n_streams: int) -> Scenario:
    """Switches W1..W6 in a duplex line; nodes and sensors hang off random
    switches; ``n_streams`` sensor-to-node streams routed along the line."""
    switches = [f"W{i}" for i in range(1, NET_SWITCHES + 1)]
    nodes = [FogNodeSpec(f"E{i}", cores=4) for i in range(1, NET_NODES + 1)]
    sensors = [EndpointSpec(f"S{i}") for i in range(1, NET_SENSORS + 1)]
    links = []
    for a, b in zip(switches, switches[1:]):
        links += [LinkSpec(a, b), LinkSpec(b, a)]
    attached = {}
    for ent in [n.id for n in nodes] + [e.id for e in sensors]:
        attached[ent] = rng.randrange(NET_SWITCHES)
        links += [LinkSpec(ent, switches[attached[ent]]),
                  LinkSpec(switches[attached[ent]], ent)]
    streams = []
    for i in range(n_streams):
        src, dst = rng.choice(sensors).id, rng.choice(nodes).id
        a, b = attached[src], attached[dst]
        step = 1 if b >= a else -1
        route = (src, *(switches[k] for k in range(a, b + step, step)), dst)
        streams.append(StreamSpec(
            f"f{i}", src, dst, rng.choice(NET_SIZES_B),
            rng.choice(NET_PERIODS_US), rng.randint(0, 4), route))
    return Scenario(nodes=tuple(nodes),
                    switches=tuple(SwitchSpec(w) for w in switches),
                    endpoints=tuple(sensors), links=tuple(links),
                    streams=tuple(streams))


@dataclass
class NetResult:
    scenario: Scenario
    verdict: str
    ns: gclsched.NetSchedule | None = None
    export: list | None = None
    secured: Scenario | None = None
    sns: gclsched.NetSchedule | None = None
    overhead: teslasec.OverheadReport | None = None


class NetFamily:
    """What ``net-schedule`` plus ``tesla`` do, on generated networks."""

    name = "net_family"

    def __init__(self, root: pathlib.Path, seed: int, out_dir: pathlib.Path):
        self.seed = seed

    def instance(self, index: int) -> str:
        rng = instance_rng(self.name, self.seed, index)
        return scenario.scenario_to_text(
            net_instance(rng, instance_streams(index)))

    def run(self, text: str) -> NetResult:
        s = dsl.parse_scenario(text)
        if not (report := scenario.validate(s)).ok:
            raise ValueError(f"invalid scenario: {report}")
        try:
            ns = gclsched.synthesize_gcl(s, NET_BUDGET)
        except InfeasibleError as exc:
            return NetResult(s, classify(exc))
        gclsched.verify_net_schedule(ns, s)
        export = gclsched.gcl_export(ns)
        cfg = teslasec.TeslaConfig()
        _, secured = teslasec.apply_tesla(s, ns, cfg)
        try:
            sns = gclsched.synthesize_gcl(secured, NET_BUDGET)
        except InfeasibleError as exc:
            return NetResult(s, classify(exc), ns, export, secured)
        before = {st.id: ns.per_stream[st.id].ed_us for st in s.streams}
        after = {st.id: teslasec.secured_delay(
                     secured.stream(st.id), sns.per_stream[st.id].ed_us, cfg,
                     send_offset_us=sns.offsets[st.id])
                 for st in s.streams}
        overhead = teslasec.tesla_overhead_report(before, after)
        return NetResult(s, SCHEDULE, ns, export, secured, sns, overhead)

    def check(self, text: str, r: NetResult) -> Outcome:
        out = Outcome(verdict=r.verdict)
        s = r.scenario
        out.stats = {"streams": len(s.streams),
                     "busiest_link_util": round(busiest_link_utilization(s), 4),
                     "hyperperiod_us": scenario.hyperperiod(
                         st.period_us for st in s.streams),
                     "windows": len(r.ns.windows) if r.ns else 0}
        if r.ns is not None:
            if not (v := gclsched.verify_net_schedule(r.ns, s)).ok:
                out.problems.append(f"GCL rejected: {v}")
            problems, out.delay_ratios = check_stream_delays(r.ns, s, "plain")
            out.problems += problems
        if r.sns is not None:
            if not (v := gclsched.verify_net_schedule(r.sns, r.secured)).ok:
                out.problems.append(f"secured GCL rejected: {v}")
            out.problems += check_stream_delays(r.sns, r.secured, "secured")[0]
            out.problems += [f"TESLA shortened {sid}" for sid, _, _, delta
                             in r.overhead.streams if delta < 0]
        out.digest = digest(r.verdict, r.export,
                            r.sns and gclsched.gcl_export(r.sns))
        return out


WORKLOADS = {w.name: w for w in (Uc1, NetFamily)}
