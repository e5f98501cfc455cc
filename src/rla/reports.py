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
from functools import reduce
from operator import add

from .errors import BadParameterError
from .links import _Record
from .traceio import _csv_chunks, format_number

MBIT_PER_GB = 8000.0  # 1 GB = 8 Gbit, decimal SI


class _Unmet:
    """The unmet column, max(0, demand - supplied) per tick, computed one
    slice at a time as _csv_chunks asks for it, so no whole column is held."""

    def __init__(self, result):
        self.demand, self.supplied = result.demand, result.supplied

    def __len__(self):
        return len(self.demand)

    def __getitem__(self, ticks: slice) -> list:
        # d - s is positive exactly when d > s, so this equals max(0.0, d - s)
        return [d - s if d > s else 0.0
                for d, s in zip(self.demand[ticks], self.supplied[ticks])]


def _supply_table(t, demand, labeled_columns: list) -> tuple:
    """The supply table of runs over t, demand: time_s, demand_mbps and one supplied_<label>
    per (label, supplied column). simulate's supply report is one run labeled mbps."""
    header = ("time_s", "demand_mbps") + tuple(f"supplied_{label}" for label, _ in labeled_columns)
    return header, (t, demand, *(column for _, column in labeled_columns))


# each per-tick report as a (header, columns) table of a result
_SERIES = {
    "supply": lambda r: _supply_table(r.t, r.demand, [("mbps", r.supplied)]),
    "shortfall": lambda r: (("time_s", "unmet_mbps"), (r.t, _Unmet(r))),
    "reorder": lambda r: (("time_s", "reorder_events"), (r.t, r.reorder)),
}


def _report_chunks(result, names):
    """The reports of result named in names ('supply', 'shortfall', 'cost'
    or 'reorder') as texts to write in order: one list per chunk, with one
    text per name. The per-tick reports are rendered in lockstep, so their
    shared time_s column is formatted once per chunk; the cost report, a
    fold over every tick, comes whole in the last list."""
    series = [name for name in names if name in _SERIES]
    for texts in _csv_chunks([_SERIES[name](result) for name in series]):
        by_name = dict(zip(series, texts))
        yield [by_name.get(name, "") for name in names]
    if "cost" in names:
        cost = cost_report_csv(cost_report(result))
        yield [cost if name == "cost" else "" for name in names]


def supply_series_csv(result) -> str:
    """time_s, demand_mbps, supplied_mbps per tick."""
    return "".join(text for text, in _report_chunks(result, ("supply",)))


def shortfall_series_csv(result) -> str:
    """time_s, unmet_mbps per tick, unmet = max(0, demand - supplied)."""
    return "".join(text for text, in _report_chunks(result, ("shortfall",)))


def reorder_indicator_csv(result) -> str:
    """time_s, reorder_events per tick.

    reorder_events counts consecutive quanta within the tick that went to
    different links — exposure to out-of-order delivery, not a packet-level
    sequence analysis.
    """
    return "".join(text for text, in _report_chunks(result, ("reorder",)))


class CostReport(_Record):
    """Per-link transmitted volume and cost, with run totals.

    per_link rows are (link_id, transmitted_gb, cost_per_gb, cost).
    annual_cost extrapolates the run total as one representative day x 365.
    """

    __match_args__ = ("per_link", "total_gb", "total_cost", "annual_cost")

    def __init__(self, per_link: list, total_gb: float, total_cost: float, annual_cost: float):
        self.per_link = per_link
        self.total_gb = total_gb
        self.total_cost = total_cost
        self.annual_cost = annual_cost


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
    table = _supply_table(base.t, base.demand, [(label, res.supplied) for label, res in labeled])
    return "".join(text for text, in _csv_chunks([table]))
