"""Bundled two-scenario setups for quick demos and regression runs.

Scenario 1: two uplinks, 64 Mbps (primary) and 32 Mbps, demand ramping from
20 Mbps to a 120 Mbps midday peak (10:00-16:00). Aggregate ceiling 96 Mbps;
a single-master baseline caps at 64.

Scenario 2: a cheap 4 Mbps primary plus two 16 Mbps backups, demand from
2 Mbps to a 30 Mbps peak (10:30-16:00). Spillover activates the backups in
priority order as demand crosses 4 and then 20 Mbps; the single-master
baseline picks a 16 Mbps link and caps there.

Buffer caps equal thresholds here, so links hold no backlog across ticks and
the supplied curve is a pure function of the current demand — the staircase
min(demand, running capacity sum) shape these scenarios are meant to show.
"""

from .errors import BadParameterError
from .links import Link, validate_group
from .traceio import DemandTrace, _number, synth_diurnal

_SCEN1_LINKS = (
    ("L64", 64.0, 1, 1.0, 64.0, 64.0),
    ("L32", 32.0, 2, 2.0, 32.0, 32.0),
)
_SCEN2_LINKS = (
    ("P4", 4.0, 1, 1.0, 4.0, 4.0),
    ("S16", 16.0, 2, 2.0, 16.0, 16.0),
    ("T16", 16.0, 3, 3.0, 16.0, 16.0),
)
# (peak_start_s, peak_end_s, base_mbps, peak_mbps, default samples_per_hour)
_SCEN1_TRACE = (36000.0, 57600.0, 20.0, 120.0, 3600)
_SCEN2_TRACE = (37800.0, 57600.0, 2.0, 30.0, 60)
_SCENARIOS = {1: (_SCEN1_LINKS, _SCEN1_TRACE), 2: (_SCEN2_LINKS, _SCEN2_TRACE)}


def _pick(name):
    try:  # as written: '0_2', 1.9 and True are no scenario
        return _SCENARIOS[_number(str(name), int)]
    except (ValueError, KeyError):
        raise BadParameterError(f"unknown scenario {name!r}") from None


def scenario_group(name):
    """Validated link group for bundled scenario 1 or 2."""
    rows, _ = _pick(name)
    links = [Link(id=i, capacity=c, priority=p, cost_per_gb=g,
                  threshold=t, buffer_cap=b) for i, c, p, g, t, b in rows]
    return validate_group(f"scenario{int(name)}", links)


def scenario_trace(name, samples_per_hour: int = None) -> DemandTrace:
    """Diurnal demand trace for bundled scenario 1 or 2.

    Defaults to one sample per second for scenario 1 and one per minute for
    scenario 2; pass samples_per_hour to resample the same shape.
    """
    _, (start, end, base, peak, default_sph) = _pick(name)
    sph = default_sph if samples_per_hour is None else samples_per_hour
    return synth_diurnal(start, end, base, peak, sph)
