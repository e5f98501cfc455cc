"""Correctness checks the benchmark makes on every run.

Each function returns a list of error strings; an empty list means the
check passed. ``rla`` must be importable before this module is imported.
"""

import csv
import hashlib
import io
import math

import rla

from workloads import REPORTS

_HEADERS = {
    "supply": ("time_s", "demand_mbps", "supplied_mbps"),
    "shortfall": ("time_s", "unmet_mbps"),
    "reorder": ("time_s", "reorder_events"),
    "cost": ("link_id", "transmitted_gb", "cost_per_gb", "cost"),
}
TOLERANCE = 1e-6


def sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def render(inv, results) -> dict:
    """What the CLI should write for one invocation, from in-process results
    keyed by policy: {file name: text}."""
    if inv.command == "compare":
        return {inv.out: rla.merge_supply_csv([(p, results[p]) for p in inv.policies])}
    result = results[inv.policies[0]]
    texts = (rla.supply_series_csv(result), rla.shortfall_series_csv(result),
             rla.cost_report_csv(rla.cost_report(result)),
             rla.reorder_indicator_csv(result))
    return dict(zip(inv.output_names(), texts))


def output_kind(inv, name) -> str:
    """"compare", or which of REPORTS a simulate output holds."""
    if inv.command == "compare":
        return "compare"
    return REPORTS[inv.output_names().index(name)]


def parse_back(text, kind, wl, policies) -> list:
    """The output parses as CSV of finite numbers, with the expected header
    and one row per tick (per link plus total and annual for cost)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [f"{kind}: empty output"]
    header = (("time_s", "demand_mbps") + tuple(f"supplied_{p}" for p in policies)
              if kind == "compare" else _HEADERS[kind])
    if tuple(rows[0]) != header:
        return [f"{kind}: header {rows[0]} != {list(header)}"]
    body = rows[1:]
    if kind == "cost":
        # generated links are listed in priority order, as the report is
        want = [l[0] for l in wl.links] + ["total", "annual"]
        got = [r[0] for r in body]
        if got != want:
            return [f"cost: link rows {got} != {want}"]
        cells = [c for r in body for c in r[1:] if c]
    else:
        if len(body) != len(wl.samples):
            return [f"{kind}: {len(body)} rows for {len(wl.samples)} ticks"]
        for r, (t, _) in zip(body, wl.samples):
            if len(r) != len(header) or float(r[0]) != t:
                return [f"{kind}: bad row {r} at t={t}"]
        cells = [c for r in body for c in r]
    try:
        if not all(math.isfinite(float(c)) for c in cells):
            return [f"{kind}: non-finite value"]
    except ValueError as e:
        return [f"{kind}: {e}"]
    return []


def invariants(result, wl) -> list:
    """Criterion 4 on one run() result: arrivals = assigned + dropped and per
    link buffer flow balance within TOLERANCE each tick, and supplied never
    above the live capacity sum."""
    links = result.group.links
    if len(result.records) != len(wl.samples):
        return [f"{len(result.records)} records for {len(wl.samples)} ticks"]
    events = sorted(wl.failures, key=lambda e: e[0])
    down = set()
    ei = 0
    prev = [0.0] * len(links)
    for r in result.records:
        while ei < len(events) and events[ei][0] <= r.t:
            _, lid, kind = events[ei]
            (down.add if kind == "down" else down.discard)(lid)
            ei += 1
        if abs(sum(r.assigned) + r.dropped - r.demand * result.config.tick) > TOLERANCE:
            return [f"t={r.t}: arrivals != assigned + dropped"]
        for i in range(len(links)):
            if abs(r.buffer_end[i] - (prev[i] + r.assigned[i] - r.transmitted[i])) > TOLERANCE:
                return [f"t={r.t}: flow imbalance on {links[i].id}"]
        ceiling = sum(l.capacity for l in links if l.id not in down)
        if r.supplied_mbps > ceiling + 1e-9:
            return [f"t={r.t}: supplied {r.supplied_mbps} above live capacity {ceiling}"]
        prev = r.buffer_end
    return []


def quanta_offered(samples, tick, quantum) -> int:
    """Quanta the engine assigns over a trace: full quanta plus a fractional
    tail per tick, whatever the policy."""
    total = 0
    for _, d in samples:
        arrivals = d * tick
        if arrivals > 0:
            full = math.floor(arrivals / quantum)
            total += full + (1 if arrivals - full * quantum > 0 else 0)
    return total


def counts(result) -> dict:
    """Exact totals of one run; any change means the simulation changed."""
    return {"dropped_mbit": sum(r.dropped for r in result.records),
            "reorder_events": sum(r.reorder_events for r in result.records)}
