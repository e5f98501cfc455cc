"""Turn simulation results into plot-ready CSV tables.

Four views: supply vs demand per tick, unmet demand per tick, the
adjacent-quanta reordering count per tick, and a monetary cost breakdown
per link. merge_supply_csv lines up the supply column of several runs over the
same trace for side-by-side policy comparison.

All CSV is comma-separated with '.' decimals and '\n' line endings so
identical runs serialize byte-identically.
"""

import csv
import io
from dataclasses import dataclass
from functools import reduce
from operator import add

from .errors import BadParameterError
from .traceio import columns_to_csv, format_number

MBIT_PER_GB = 8000.0  # 1 GB = 8 Gbit, decimal SI


def supply_series_csv(result) -> str:
    """time_s, demand_mbps, supplied_mbps per tick."""
    return columns_to_csv(("time_s", "demand_mbps", "supplied_mbps"),
                          result.t, result.demand, result.supplied)


def shortfall_series_csv(result) -> str:
    """time_s, unmet_mbps per tick, unmet = max(0, demand - supplied)."""
    # d - s is positive exactly when d > s, so this equals max(0.0, d - s)
    unmet = [d - s if d > s else 0.0 for d, s in zip(result.demand, result.supplied)]
    return columns_to_csv(("time_s", "unmet_mbps"), result.t, unmet)


def reorder_indicator_csv(result) -> str:
    """time_s, reorder_events per tick.

    reorder_events counts consecutive quanta within the tick that went to
    different links — exposure to out-of-order delivery, not a packet-level
    sequence analysis.
    """
    return columns_to_csv(("time_s", "reorder_events"), result.t, result.reorder)


@dataclass
class CostReport:
    """Per-link transmitted volume and cost, with run totals.

    per_link rows are (link_id, transmitted_gb, cost_per_gb, cost).
    annual_cost extrapolates the run total as one representative day x 365.
    """

    per_link: list
    total_gb: float
    total_cost: float
    annual_cost: float


def cost_report(result) -> CostReport:
    """Price the transmitted volume of a run.

    cost_i = transmitted gigabytes on link i x its cost_per_gb; 1 GB is
    8000 megabits.
    """
    n = result.group.n
    per_link = []
    total_gb = 0.0
    total_cost = 0.0
    for i, link in enumerate(result.group.links):
        # left to right in tick order (not sum(), which may compensate), so
        # the total is the same float as a running per-tick tally
        gb = reduce(add, result.transmitted[i::n], 0.0) / MBIT_PER_GB
        cost = gb * link.cost_per_gb
        per_link.append((link.id, gb, link.cost_per_gb, cost))
        total_gb += gb
        total_cost += cost
    return CostReport(per_link=per_link, total_gb=total_gb,
                      total_cost=total_cost, annual_cost=total_cost * 365.0)


def cost_report_csv(report: CostReport) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(("link_id", "transmitted_gb", "cost_per_gb", "cost"))
    for link_id, gb, rate, cost in report.per_link:
        w.writerow((link_id, format_number(gb), format_number(rate), format_number(cost)))
    w.writerow(("total", format_number(report.total_gb), "", format_number(report.total_cost)))
    w.writerow(("annual", "", "", format_number(report.annual_cost)))
    return out.getvalue()


def merge_supply_csv(labeled_results) -> str:
    """Join runs of one trace, an ordered sequence of (label, SimulationResult),
    into a table of time_s, demand_mbps and one supplied_<label> per run."""
    labeled = list(labeled_results)
    if not labeled:
        raise BadParameterError("merge_supply_csv needs at least one result")
    base = labeled[0][1]
    for label, res in labeled[1:]:
        if res.t != base.t or res.demand != base.demand:
            raise BadParameterError(f"result {label!r} was not run over the same trace "
                                    f"({len(res.t)} ticks, expected {len(base.t)})")
    header = ("time_s", "demand_mbps") + tuple(f"supplied_{label}" for label, _ in labeled)
    return columns_to_csv(header, base.t, base.demand, *(res.supplied for _, res in labeled))
