"""Turn simulation results into plot-ready CSV tables.

Four views: supply vs demand per tick, unmet demand per tick, the
adjacent-quanta reordering count per tick, and a monetary cost breakdown
per link. merge_supply_csv lines up the supply column of several runs over the
same trace for side-by-side policy comparison.

simulate renders its reports from each chunk its run flushes
(engine._streamed), holding no result; the public renderers take a result
ROWS ticks at a time.

All CSV is comma-separated with '.' decimals and '\n' line endings so
identical runs serialize byte-identically.
"""

import csv
import io
from functools import reduce
from itertools import islice
from operator import add

from .errors import BadParameterError
from .links import _Record
from .traceio import ROWS, _csv_chunks, format_number

MBIT_PER_GB = 8000.0  # 1 GB = 8 Gbit, decimal SI


def _supply_table(t, demand, labeled_columns: list) -> tuple:
    """The supply table of runs over t, demand: time_s, demand_mbps and one supplied_<label>
    per (label, supplied column). simulate's supply report is one run labeled mbps."""
    header = ("time_s", "demand_mbps") + tuple(f"supplied_{label}" for label, _ in labeled_columns)
    return header, (t, demand, *(column for _, column in labeled_columns))


# each per-tick report as a (header, columns) table of a chunk of ticks
_SERIES = {
    "supply": lambda t, demand, supplied, reorder: _supply_table(t, demand, [("mbps", supplied)]),
    # d - s is positive exactly when d > s, so this equals max(0.0, d - s)
    "shortfall": lambda t, demand, supplied, reorder: (("time_s", "unmet_mbps"), (t, [
        d - s if d > s else 0.0 for d, s in zip(demand, supplied)])),
    "reorder": lambda t, demand, supplied, reorder: (("time_s", "reorder_events"), (t, reorder)),
}


def _report_chunks(group, names, chunks):
    """The reports in names ('supply', 'shortfall', 'cost' or 'reorder') of a
    run of group as texts to write in order, one list of one text per name
    for each chunk (t, demand, supplied, reorder, transmitted) of its ticks.
    The per-tick reports render in lockstep, header rows first; the cost
    report folds each chunk into each link's megabits and comes whole last."""
    series = [name for name in names if name in _SERIES]
    megabits = [0.0] * group.n
    for k, (t, demand, supplied, reorder, transmitted) in enumerate(chunks):
        texts = _csv_chunks([_SERIES[name](t, demand, supplied, reorder) for name in series])
        for chunk in islice(texts, 1 if k else 0, None):  # the header rows once, first
            by_name = dict(zip(series, chunk))
            yield [by_name.get(name, "") for name in names]
        if "cost" in names:
            megabits = _carried(megabits, transmitted)
    if "cost" in names:
        cost = cost_report_csv(_priced(group, megabits))
        yield [cost if name == "cost" else "" for name in names]


def _rendered(result, name: str) -> str:
    """The per-tick report name of result, rendered ROWS ticks at a time."""
    # views: _csv_chunks copies only the columns the report reads
    columns = [memoryview(c) for c in (result.t, result.demand, result.supplied, result.reorder)]
    chunks = ([c[k:k + ROWS] for c in columns] + [()] for k in range(0, len(result.t), ROWS))
    return "".join(text for text, in _report_chunks(result.group, (name,), chunks))


def supply_series_csv(result) -> str:
    """time_s, demand_mbps, supplied_mbps per tick."""
    return _rendered(result, "supply")


def shortfall_series_csv(result) -> str:
    """time_s, unmet_mbps per tick, unmet = max(0, demand - supplied)."""
    return _rendered(result, "shortfall")


def reorder_indicator_csv(result) -> str:
    """time_s, reorder_events per tick.

    reorder_events counts consecutive quanta within the tick that went to
    different links — exposure to out-of-order delivery, not a packet-level
    sequence analysis.
    """
    return _rendered(result, "reorder")


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
    return _priced(result.group, _carried([0.0] * result.group.n, result.transmitted))


def _carried(megabits: list, transmitted) -> list:
    """Each link's megabits plus what it transmitted in a chunk of ticks, added
    left to right in tick order (not by sum(), which may compensate), so the
    same float as a running per-tick tally however the ticks are chunked."""
    n = len(megabits)
    return [reduce(add, transmitted[i::n], mb) for i, mb in enumerate(megabits)]


def _priced(group, megabits: list) -> CostReport:
    rows = [(l.id, mb / MBIT_PER_GB, l.cost_per_gb, mb / MBIT_PER_GB * l.cost_per_gb)
            for l, mb in zip(group.links, megabits)]
    total_cost = reduce(add, [row[3] for row in rows], 0.0)  # left to right, as rows go
    total_gb = reduce(add, [row[1] for row in rows], 0.0)
    return CostReport(rows, total_gb, total_cost, total_cost * 365.0)


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
