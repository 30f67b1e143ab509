#!/usr/bin/env python3
"""Regenerate the checked-in extensibility fixtures.

BASE is the second-core schedule of a synthetic logging workload on node
E4, packed as early as possible by the EDF synthesizer (clustered idle
time). OPTIMIZED is the output of ``optimize_extensibility`` on BASE. The
four standard dynamic logging apps (periods 6/8/10/12 ms, utilizations
17/13/15/13 %) miss deadlines on BASE but fit OPTIMIZED without any miss;
the generator asserts both outcomes before writing.

Run from the repository root:  python3 tools/make_extensibility_fixtures.py
"""

import json
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fogweaver.extensibility import admit_dynamic, ext_metric, optimize_extensibility
from fogweaver.fixtures import EXTENSIBILITY_CORE, dynamic_logging_tasks
from fogweaver.nodesched import node_schedule_to_json, synthesize_node_schedule, verify_node_schedule
from fogweaver.scenario import ApplicationSpec, FogNodeSpec, TaskSpec

FIXTURE_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "fogweaver" / "fixtures"

FIXTURE_CORE = EXTENSIBILITY_CORE
DYNAMIC_APPS = dynamic_logging_tasks()
ADMISSION_HORIZON_US = 120_000

NOTE = (
    "Synthetic fixture, not measured data: a logging workload on core {core} "
    "of node E4 (cores 0 and 1 left empty). '{kind}' variant. BASE packs all "
    "slices as early as possible, clustering the idle time; OPTIMIZED is "
    "optimize_extensibility(BASE). Regenerate with "
    "tools/make_extensibility_fixtures.py."
)


def build_base():
    node = FogNodeSpec("E4", cores=3)
    apps = [
        ApplicationSpec("log sink", "E4", 1, 1, 10_000, Fraction(1, 4),
                        (TaskSpec("log sink/t0", Fraction(2500), 10_000),)),
        ApplicationSpec("log rotate", "E4", 1, 1, 15_000, Fraction(1, 10),
                        (TaskSpec("log rotate/t0", Fraction(1500), 15_000),)),
    ]
    mapping = {"log sink/t0": FIXTURE_CORE, "log rotate/t0": FIXTURE_CORE}
    return synthesize_node_schedule(node, apps, mapping)


def main():
    base = build_base()
    optimized = optimize_extensibility(base)

    assert verify_node_schedule(base).ok
    assert verify_node_schedule(optimized).ok
    m_base = ext_metric(base, FIXTURE_CORE)
    m_opt = ext_metric(optimized, FIXTURE_CORE)
    assert m_opt < m_base, (m_opt, m_base)

    base_adm = admit_dynamic(base, FIXTURE_CORE, DYNAMIC_APPS, ADMISSION_HORIZON_US)
    opt_adm = admit_dynamic(optimized, FIXTURE_CORE, DYNAMIC_APPS, ADMISSION_HORIZON_US)
    assert base_adm.misses, "BASE must produce at least one deadline miss"
    assert not opt_adm.misses, f"OPTIMIZED must be miss-free, got {opt_adm.misses}"

    for kind, ns in (("BASE", base), ("OPTIMIZED", optimized)):
        doc = {"note": NOTE.format(core=FIXTURE_CORE, kind=kind)}
        doc.update(node_schedule_to_json(ns))
        path = FIXTURE_DIR / f"extensibility_{kind.lower()}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path} (metric {ext_metric(ns, FIXTURE_CORE):.6f})")
    print(f"BASE misses: {[(m.task, m.deadline_us) for m in base_adm.misses]}")


if __name__ == "__main__":
    main()
