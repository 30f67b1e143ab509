#!/usr/bin/env python3
"""Per-node partition and task schedules for UC1.

Tasks are packed onto the dual cores first-fit by decreasing utilization,
each core runs preemptive EDF over the node's major frame, and contiguous
same-criticality runs become partition windows: one partition per
criticality level per core, giving temporal isolation between levels.
"""

from fogweaver import (
    emit_gantt,
    map_to_cores,
    parse_scenario,
    synthesize_node_schedule,
    utilization_report,
    verify_node_schedule,
)
from fogweaver.fixtures import uc1_text

s = parse_scenario(uc1_text())
schedules = []
for node in s.nodes:
    apps = list(s.apps_on(node.id))
    mapping = map_to_cores(apps, node.cores)
    ns = synthesize_node_schedule(node, apps, mapping)
    levels = sorted({p.criticality for p in ns.partitions}, reverse=True)
    schedules.append(ns)
    report = verify_node_schedule(ns)
    print(f"{node.id}: frame {ns.major_frame_us // 1000} ms, "
          f"levels {levels}, {len(ns.partitions)} partitions, "
          f"{len(ns.slices)} slices, "
          f"verification {'clean' if report.ok else 'FAILED'}")
    for core, u in enumerate(ns.per_core_utilization):
        print(f"   core {core}: {float(u):6.1%} busy")

util = utilization_report(schedules)
print(f"\naverage core utilization: {float(util.average):.1%}")
print(f"most loaded core: {util.max_node} core {util.max_core} "
      f"at {float(util.max_value):.1%}")

print("\nGantt of node E1 (text form):\n")
e1 = next(ns for ns in schedules if ns.node == "E1")
print(emit_gantt(e1, "ascii"))
