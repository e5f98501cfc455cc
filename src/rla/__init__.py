"""Deterministic simulator and schedulers for redundant link aggregation.

Models a group of heterogeneous uplinks (capacity, priority, per-GB cost,
buffer threshold and cap) fed by a demand trace, and compares assignment
policies: threshold-spillover (OLB), round robin, a cost-weighted fair
queue, and a single-master failover baseline.
"""

from .errors import (
    AllLinksFailedError,
    BadParameterError,
    BadWindowError,
    DuplicatePriorityError,
    EmptyGroupError,
    EmptyTraceError,
    InputError,
    ParseError,
    RlaError,
    ZeroCostError,
)
from .links import (
    DEFAULT_BUFFER_CAP_FACTOR,
    AggregationGroup,
    Link,
    default_threshold,
    validate_group,
)
from .policies import (
    PolicyId,
    PolicyState,
    WfqDirection,
    vrrp_select,
    wfq_select,
    wfq_weights,
)
from .engine import EngineConfig, SimulationResult, TickRecord, run, step
from .traceio import (
    DemandTrace,
    failures_to_csv,
    links_to_csv,
    parse_failures,
    parse_links,
    parse_trace,
    synth_diurnal,
    trace_to_csv,
)
from .reports import (
    CostReport,
    cost_report,
    cost_report_csv,
    merge_supply_csv,
    reorder_indicator_csv,
    shortfall_series_csv,
    supply_series_csv,
)
from .scenarios import scenario_group, scenario_trace

__version__ = "0.1.0"

__all__ = [
    "AggregationGroup",
    "AllLinksFailedError",
    "BadParameterError",
    "BadWindowError",
    "CostReport",
    "DEFAULT_BUFFER_CAP_FACTOR",
    "DemandTrace",
    "DuplicatePriorityError",
    "EmptyGroupError",
    "EmptyTraceError",
    "EngineConfig",
    "InputError",
    "Link",
    "ParseError",
    "PolicyId",
    "PolicyState",
    "RlaError",
    "SimulationResult",
    "TickRecord",
    "WfqDirection",
    "ZeroCostError",
    "cost_report",
    "cost_report_csv",
    "default_threshold",
    "failures_to_csv",
    "links_to_csv",
    "merge_supply_csv",
    "parse_failures",
    "parse_links",
    "parse_trace",
    "reorder_indicator_csv",
    "run",
    "scenario_group",
    "scenario_trace",
    "shortfall_series_csv",
    "step",
    "supply_series_csv",
    "synth_diurnal",
    "trace_to_csv",
    "validate_group",
    "vrrp_select",
    "wfq_select",
    "wfq_weights",
    "__version__",
]
