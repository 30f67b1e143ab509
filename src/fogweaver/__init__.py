"""fogweaver: offline configuration synthesis for TSN-based fog platforms.

From one declarative scenario the toolchain produces and independently
verifies: network gate-control-list schedules (zero-jitter transmission
windows per link), per-node partition/task schedules for mixed-criticality
applications, extensibility-optimized variants that admit dynamic
applications into idle time, and TESLA-style authenticated variants with
their delay overheads.
"""

__version__ = "0.1.0"

from .dsl import parse_scenario
from .errors import FogweaverError, InfeasibleError, ScenarioSyntaxError
from .extensibility import (
    AdmissionReport,
    admit_dynamic,
    ext_metric,
    optimize_extensibility,
)
from .gantt import emit_gantt
from .gclsched import (
    FrameWindow,
    NetSchedule,
    StreamTiming,
    gcl_export,
    qoc_proxy,
    stream_metrics,
    synthesize_gcl,
    verify_net_schedule,
)
from .netmodel import Route, lower_bound_delay, resolve_route, transmission_time
from .nodesched import (
    NodeSchedule,
    NodeTask,
    Partition,
    TaskSlice,
    UtilizationReport,
    map_to_cores,
    node_schedule_from_json,
    node_schedule_to_json,
    node_tasks,
    synthesize_node_schedule,
    utilization_report,
    verify_node_schedule,
)
from .pipeline import run_pipeline
from .reporting import Report, Violation
from .scenario import (
    ApplicationSpec,
    EndpointSpec,
    FogNodeSpec,
    LinkSpec,
    ModelParams,
    Scenario,
    StreamSpec,
    SwitchSpec,
    TaskSpec,
    expand_tasks,
    hyperperiod,
    scenario_to_text,
    validate,
)
from .teslasec import (
    SecurityOverlay,
    SecurityTask,
    TeslaConfig,
    apply_tesla,
    secured_delay,
    tesla_overhead_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
