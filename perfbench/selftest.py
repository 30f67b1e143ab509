"""Self-test of the benchmark itself; run from the checkout root:

    python3 perfbench/selftest.py

1. A tiny run of each workload, untraced and traced, prints every metric
   that BENCHMARK.json names, with its unit, and no failures.
2. Corrupted artefacts - a shifted GCL window, an overlapping slice - are
   counted as failed ops by the correctness gate.
3. Without fogweaver's sources next to it the benchmark exits non-zero and
   prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def expect(condition: bool, detail) -> None:
    if not condition:
        raise SystemExit(f"self-test failed: {detail}")


def tiny_runs() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [*SPEC["command"], "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
                check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, (workload, trace, got, want))
            expect(result["correct"] and result["failed"] == 0, proc.stdout)
            print(f"ok: {workload} --trace {trace}: {result['attempted']} ops, "
                  f"{len(got)} metrics with units")


def corrupted_artefacts() -> None:
    import workloads
    from fogweaver.units import GRID_US

    out = run.OUT / "selftest"
    shutil.rmtree(out, ignore_errors=True)

    # a shifted GCL window in a generated network schedule
    net = workloads.NetFamily(run.ROOT, 7, out)
    index = 0
    while (result := net.run(text := net.instance(index))).verdict != "schedule":
        index += 1
    tally = run.Tally()
    tally.add(0, run.gate(net, text, result, None))
    w = result.ns.windows[0]
    shifted = replace(w, open_us=w.open_us + GRID_US, close_us=w.close_us + GRID_US)
    result.ns = replace(result.ns, windows=(shifted, *result.ns.windows[1:]))
    tally.add(1, run.gate(net, text, result, None))
    expect((tally.attempted, tally.failed) == (2, 1), tally.problems)
    print(f"ok: shifted GCL window counted as failed: {tally.problems[0]}")

    # an overlapping slice, and a shifted window, in uc1's written artefacts
    for name, corrupt in (("gantt/node_E1.json", overlap_first_slices),
                          ("gantt/gcl.json", shift_first_window)):
        uc1 = workloads.Uc1(run.ROOT, 7, out)
        op_dir = uc1.instance(0)
        code = uc1.run(op_dir)
        path = op_dir / name
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        tally = run.Tally()
        tally.add(0, run.gate(uc1, op_dir, code, None))
        expect(tally.failed == 1, name)
        print(f"ok: corrupted {name} counted as failed: {tally.problems[0]}")
    shutil.rmtree(out, ignore_errors=True)


def overlap_first_slices(table: dict) -> dict:
    a, b = table["cores"][0]["slices"][:2]
    b["start_us"] = a["start_us"]
    return table


def shift_first_window(gcl: list) -> list:
    entry = gcl[0]["entries"][0]
    for key in ("open_us", "close_us"):
        entry[key] = float(Fraction(str(entry[key])) + Fraction(1, 10))
    return gcl


def bare_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "uc1", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, proc)
    print(f"ok: without sources the benchmark exits {proc.returncode}: "
          f"{proc.stderr.strip()}")


def main() -> int:
    run.import_fogweaver()
    corrupted_artefacts()
    bare_directory()
    tiny_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
