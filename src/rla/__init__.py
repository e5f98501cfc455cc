"""Deterministic simulator and schedulers for redundant link aggregation.

Models a group of heterogeneous uplinks (capacity, priority, per-GB cost,
buffer threshold and cap) fed by a demand trace, and compares assignment
policies: threshold-spillover (OLB), round robin, a cost-weighted fair
queue, and a single-master failover baseline.

`import rla` loads no submodule: each public name imports its module on
first use (PEP 562), so a call that only reads its inputs compiles no
engine, policy or report code.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule and the public names it defines
_NAMES = {
    "errors": ("AllLinksFailedError", "BadParameterError", "BadWindowError",
               "DuplicatePriorityError", "EmptyGroupError", "EmptyTraceError", "InputError",
               "ParseError", "RlaError", "ZeroCostError"),
    "links": ("DEFAULT_BUFFER_CAP_FACTOR", "AggregationGroup", "Link", "default_threshold",
              "validate_group"),
    "policies": ("PolicyId", "PolicyState", "WfqDirection", "vrrp_select", "wfq_select",
                 "wfq_weights"),
    "engine": ("EngineConfig", "SimulationResult", "TickRecord", "run", "step"),
    "traceio": ("DemandTrace", "links_to_csv", "parse_failures", "parse_links", "parse_trace",
                "synth_diurnal", "trace_to_csv"),
    "reports": ("CostReport", "cost_report", "cost_report_csv", "merge_supply_csv",
                "reorder_indicator_csv", "shortfall_series_csv", "supply_series_csv"),
    "scenarios": ("scenario_group", "scenario_trace"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    """A public name, or a submodule of _NAMES, imported on its first use."""
    if name in _NAMES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later uses find it without this call
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_NAMES})
