"""fogweaver benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload uc1 --seed N --seconds S --trace 0

Run from the root of a checkout: fogweaver is imported from ``src/`` there
and from nowhere else. One closed-loop caller on one thread runs ops back to
back for S seconds of wall time (at least MIN_OPS ops); each op's artefacts
are checked by the correctness gate between ops, outside the timed region.
With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones; ``perfbench/README.md`` defines them.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
MIN_OPS = 100          # so that at least ten ops lie beyond TAIL_PERCENTILE
TAIL_PERCENTILE = 75
SETUP_REPEATS = 3
NOT_APPLICABLE = 1.0   # quality metric of an artefact the workload never makes
UC1_REPORT_SHA256 = \
    "ea48c17fb07344ee5e9f2782df9351b824d24dd6627b808e22025a422a38b410"


def import_fogweaver() -> float:
    """Import fogweaver from this checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "fogweaver" / "__init__.py").is_file():
        sys.exit(f"error: no fogweaver sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import fogweaver
    elapsed = time.perf_counter() - t0
    if pathlib.Path(fogweaver.__file__).resolve().parent != src / "fogweaver":
        sys.exit(f"error: imported fogweaver from {fogweaver.__file__}")
    return elapsed


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Tally:
    """Aggregates the gate's outcomes over the ops of one run."""

    def __init__(self):
        self.attempted = self.failed = self.decided = 0
        self.verdicts: dict[str, int] = {}
        self.ratio_sum = 0.0
        self.ratios = 0
        self.ext_sum = 0.0
        self.exts = 0
        self.offered = self.admitted = 0
        self.problems: list[str] = []

    def add(self, index: int, outcome) -> None:
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            self.problems += [f"op {index}: {p}" for p in outcome.problems[:3]]
            verdict = "failed"
        else:
            verdict = outcome.verdict
            self.decided += verdict in ("schedule", "infeasible")
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        self.ratio_sum += sum(outcome.delay_ratios)
        self.ratios += len(outcome.delay_ratios)
        self.ext_sum += sum(outcome.ext_devs)
        self.exts += len(outcome.ext_devs)
        self.offered += outcome.offered
        self.admitted += outcome.admitted

    def quality(self) -> dict[str, float]:
        return {
            "decided_share": self.decided / self.attempted,
            "delay_ratio": (self.ratio_sum / self.ratios if self.ratios
                            else NOT_APPLICABLE),
            "admitted_share": (self.admitted / self.offered if self.offered
                               else NOT_APPLICABLE),
        }


def timed(wl, inst):
    """Run one op; returns (seconds, result, exception)."""
    t0 = time.perf_counter()
    try:
        result, error = wl.run(inst), None
    except Exception as exc:  # the gate counts it as a failed op
        result, error = None, exc
    return time.perf_counter() - t0, result, error


def gate(wl, inst, result, error, expected_digest=None):
    from workloads import Outcome
    if error is not None:
        return Outcome(verdict="failed",
                       problems=[f"{type(error).__name__}: {error}"])
    try:
        outcome = wl.check(inst, result)
    except Exception as exc:
        return Outcome(verdict="failed",
                       problems=[f"gate: {type(exc).__name__}: {exc}"])
    if expected_digest is not None and outcome.digest != expected_digest:
        outcome.problems.append("repeat produced different artefacts")
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("uc1", "net_family"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_fogweaver()
    import workloads
    from spans import TIME_METRICS, Tracer

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, run_dir)
        tally = Tally()

        # set-up: generate the first input and run the op on it, several
        # times; the repeats double as the determinism check
        setup_times, warm_digests = [], set()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inst = wl.instance(0)
            dt, result, error = timed(wl, inst)
            setup_times.append(time.perf_counter() - t0)
            warm_digests.add(gate(wl, inst, result, error).digest)
        setup_s = import_s + statistics.median(setup_times)
        first_digest = warm_digests.pop() if len(warm_digests) == 1 else "mixed"

        tracer = Tracer() if args.trace else None
        times, traced_times, uncovered, instances = [], [], 0.0, []
        window_start = time.perf_counter()
        index = 0
        while (index < MIN_OPS
               or time.perf_counter() - window_start < args.seconds):
            inst = wl.instance(index)
            dt, result, error = timed(wl, inst)
            outcome = gate(wl, inst, result, error,
                           first_digest if index == 0 else None)
            times.append(dt)
            if tracer is not None:
                tracer.begin_op(index)
                inst = wl.instance(index)
                with tracer.installed():
                    traced_dt, result, error = timed(wl, inst)
                traced_times.append(traced_dt)
                uncovered += traced_dt - tracer.covered()
                outcome.problems += [
                    f"traced: {p}" for p in
                    gate(wl, inst, result, error, outcome.digest).problems]
                instances.append({"op": index, "verdict": outcome.verdict,
                                  "op_s": dt, **outcome.stats})
            tally.add(index, outcome)
            index += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    n = len(times)
    if tracer is None:
        metrics = {
            "op_s.p50": statistics.median(times),
            "op_s.tail": percentile(times, TAIL_PERCENTILE),
            "ops_per_s": n / sum(times),
            **tally.quality(),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        self_times = tracer.self_times()
        metrics = {k: self_times.get(span, 0.0) / n
                   for k, span in TIME_METRICS.items()}
        metrics.update({k: v / n for k, v in tracer.counts.items()})
        tried = tracer.counts["extensibility.cores_tried"]
        metrics["extensibility.improved_cores"] = (
            tracer.improved_cores / tried if tried else 0.0)
        metrics["extensibility.ext_dev"] = (tally.ext_sum / tally.exts
                                            if tally.exts else 0.0)
        metrics["trace.uncovered_s"] = uncovered / n
        metrics["trace.overhead_s"] = (sum(traced_times) - sum(times)) / n
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "ops": n,
            "metrics": metrics, "instances": instances,
            "spans": tracer.to_json()}) + "\n", encoding="utf-8")
        print(f"trace written to {trace_file.relative_to(ROOT)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in
                spec["per_layer" if args.trace else "end_to_end"]}
    if declared.keys() != metrics.keys():
        sys.exit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json")
    print(f"workload {args.workload}, seed {args.seed}: {n} ops in "
          f"{time.perf_counter() - window_start:.1f} s, verdicts {tally.verdicts}")
    for key, value in metrics.items():
        m = declared[key]
        print(f"  {key:30s} {value:14.6g} {m['unit']:9s} ({m['better']} is better)")
    if args.workload == "uc1" and wl.reference is not None:
        sha = wl.reference.stats["report_sha256"]
        note = "matches" if sha == UC1_REPORT_SHA256 else "differs from"
        print(f"uc1 report sha256 {sha} {note} the recorded digest "
              f"(reported, not counted as a failure)")
    print(f"failed_share {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} checked ops)")
    for line in tally.problems[:10]:
        print(f"  {line}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": declared[k]["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
