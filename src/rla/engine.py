"""Discrete-time simulation engine.

One loop, _simulate, runs the ticks of both run() and step(). Per (t, demand)
sample it checks the demand, takes the down set of the last change due by t
(then refreshes the list of live links), splits demand x tick megabits into
full quanta and a fractional tail, hands them to the active policy's assign
(or drops them all when no link is live), drains each live link by up to
capacity x tick and appends the tick to the result's columns. How a policy
picks links, what state it keeps and what it checks lives in its class in
policies.py; the engine has no policy-specific branch.

A failure schedule is folded once, by _failure_timeline, for the tick loop
and the CLI's warnings alike. Events apply in stable time order, simultaneous
ones in the order given; each takes effect on the first sample at or after
its time. The fold gives changes, one (t, frozenset of down ids) per event
that changes the down set, after (-inf, frozenset()) and before (inf, None),
so the loop's one failure test is whether the next change is due. Events
that leave their link as it was (repeats) and events after the last sample
(late) change nothing and come back apart.

A result keeps no object per tick: t, demand, supplied (Mbps), dropped and
reorder (int64) are one array value per tick; assigned, transmitted and
buffer_end are n float values per tick, tick k at [k*n, (k+1)*n).
"""

import math
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from typing import Optional

from .errors import BadParameterError
from .links import AggregationGroup, validate_group
from .policies import _RULES, PolicyId, PolicyState, WfqDirection
from .traceio import DemandTrace


@dataclass
class EngineConfig:
    """Knobs for one simulation run.

    quantum is the assignment unit in megabits; it must not exceed any link
    threshold, so a single quantum can never jump an empty buffer past both
    threshold and cap at once.
    """

    policy: PolicyId
    tick: float = 1.0
    quantum: float = 1.0
    wfq_direction: WfqDirection = WfqDirection.INVERSE_COST

    def __post_init__(self):
        for name, kind in (("policy", PolicyId), ("wfq_direction", WfqDirection)):
            value = getattr(self, name)
            if not isinstance(value, kind):  # a name string is not coerced
                raise BadParameterError(f"{name} must be a {kind.__name__}, got {value!r}")
        if not 0 < self.tick < math.inf:
            raise BadParameterError(f"tick must be positive and finite, got {self.tick}")
        if not 0 < self.quantum < math.inf:
            raise BadParameterError(f"quantum must be positive and finite, got {self.quantum}")


@dataclass(slots=True)
class TickRecord:
    """Everything that happened in one tick.

    assigned/transmitted/buffer_end are megabit amounts per link, in the
    group's priority order. dropped is the total megabits rejected at buffer
    caps. reorder_events counts adjacent quanta that were enqueued to
    different links, a proxy for out-of-order delivery exposure.
    """

    t: float
    demand: float
    assigned: tuple
    transmitted: tuple
    buffer_end: tuple
    dropped: float
    supplied_mbps: float
    reorder_events: int


class Records(Sequence):
    """Read-only sequence of a result's ticks, each built as a TickRecord
    with tuple fields on access."""

    def __init__(self, result: "SimulationResult"):
        self.result = result

    def __len__(self):
        return len(self.result.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        r = self.result
        k = range(len(r.t))[k]  # resolves negative k, IndexError past the end
        lo, hi = k * r.group.n, (k + 1) * r.group.n
        return TickRecord(r.t[k], r.demand[k], tuple(r.assigned[lo:hi]),
                          tuple(r.transmitted[lo:hi]), tuple(r.buffer_end[lo:hi]),
                          r.dropped[k], r.supplied[k], r.reorder[k])


@dataclass
class SimulationResult:
    """Config echo, group echo, and the run's per-tick array columns (see the
    module docstring); records is a TickRecord view of them."""

    config: EngineConfig
    group: AggregationGroup
    t: array
    demand: array
    supplied: array
    dropped: array
    reorder: array
    assigned: array
    transmitted: array
    buffer_end: array
    records = property(Records)


def _split_arrivals(arrivals: float, quantum: float):
    """Number of full quanta plus the trailing fractional quantum (0 if none)."""
    if arrivals <= 0:
        return 0, 0.0
    n_full = math.floor(arrivals / quantum)
    rem = arrivals - n_full * quantum
    if rem < 0:
        n_full -= 1
        rem = arrivals - n_full * quantum
    return n_full, (rem if rem > 0 else 0.0)


def _simulate(group: AggregationGroup, config: EngineConfig, state: PolicyState,
              times: Sequence, demands: Sequence, changes: list,
              res: SimulationResult) -> None:
    """One tick per (t, demand) sample on a validated group, from its links'
    buffers, with the changes _failure_timeline gives; appends each tick to
    res's columns, so the final buffers are res.buffer_end's last n values."""
    n = group.n
    ids = group.link_ids()
    bufs = [l.buffer for l in group.links]
    drain = [l.capacity * config.tick for l in group.links]
    k = demands.index(max(demands))  # the first busiest sample
    rule = _RULES[config.policy](group, config, state, bufs, (times[k], demands[k]))
    refresh, assign = rule.refresh, rule.assign
    # bound once; fromlist copies the per-link lists without building tuples
    add_dropped, add_supplied, add_reorder = (
        res.dropped.append, res.supplied.append, res.reorder.append)
    add_assigned, add_transmitted, add_buffer_end = (
        res.assigned.fromlist, res.transmitted.fromlist, res.buffer_end.fromlist)
    tick, quantum = config.tick, config.quantum
    ci, due = 0, -math.inf  # the next change and its time: the first is due at once
    for t, demand in zip(times, demands):
        if not 0.0 <= demand < math.inf:
            raise BadParameterError(f"demand must be finite and nonnegative, got {demand}")
        if due <= t:
            while changes[ci][0] <= t:
                ci += 1
            due = changes[ci][0]
            down = changes[ci - 1][1]
            alive = [i for i in range(n) if ids[i] not in down]
            refresh(alive, down)
        assigned = [0.0] * n
        arrivals = demand * tick
        n_full, rem = _split_arrivals(arrivals, quantum)
        if not (n_full or rem):
            dropped, reorder = 0.0, 0
        elif alive:
            dropped, reorder = assign(assigned, n_full, rem)
        else:
            dropped, reorder = arrivals, 0
        transmitted = [0.0] * n
        supplied = 0.0
        for i in alive:
            tx = bufs[i]
            cap = drain[i]
            if tx > cap:
                tx = cap
            bufs[i] -= tx
            transmitted[i] = tx
            supplied += tx
        add_assigned(assigned)
        add_transmitted(transmitted)
        add_buffer_end(bufs)
        add_dropped(dropped)
        add_supplied(supplied / tick)
        add_reorder(reorder)
    rule.save()
    res.t.extend(times)
    res.demand.extend(demands)


def _result(config: EngineConfig, group: AggregationGroup) -> SimulationResult:
    """An empty result, its columns typed in field order."""
    return SimulationResult(config, group, *map(array, "ddddqddd"))


def _failure_timeline(group: AggregationGroup, failures, last_t: float):
    """failures, (t, link_id, "up"/"down") events, each checked and folded
    in stable time order over a run whose last sample is at last_t, links
    starting up: (changes, late, repeats) as the module docstring gives
    them, late and repeats in the order the run meets them."""
    ids = set(group.link_ids())
    events = []
    for ev in failures or ():
        t, link_id, kind = float(ev[0]), str(ev[1]), str(ev[2])
        if not math.isfinite(t):
            raise BadParameterError(f"failure event time must be finite, got {t}")
        if link_id not in ids:
            raise BadParameterError(f"failure event for unknown link {link_id!r}")
        if kind not in ("up", "down"):
            raise BadParameterError(f"failure event must be 'up' or 'down', got {kind!r}")
        events.append((t, link_id, kind))
    events.sort(key=lambda e: e[0])
    down = frozenset()
    changes, late, repeats = [(-math.inf, down)], [], []
    for ev in events:
        t, link_id, kind = ev
        if t > last_t:
            late.append(ev)
        elif (kind == "down") == (link_id in down):
            repeats.append(ev)
        else:
            down = down | {link_id} if kind == "down" else down - {link_id}
            changes.append((t, down))
    changes.append((math.inf, None))
    return changes, late, repeats


def step(group: AggregationGroup, policy_state: PolicyState, config: EngineConfig,
         demand_mbps: float, failed: frozenset = frozenset(), t: float = 0.0) -> TickRecord:
    """Advance one tick on a live group, mutating link buffers in place.

    The group must be validate_group's output, its links resolved and in
    priority order; the ids in failed are down for this tick. Arrivals of
    demand x tick megabits are split into quanta, each assigned by the
    configured policy against live buffer state, then every non-failed link
    drains up to capacity x tick. The tick comes back as run()'s records
    give it, t and demand as floats.
    """
    checked = validate_group(group.group_id, group.links, config.tick)
    for live, ok in zip(group.links, checked.links):
        # ids are unique, and validate_group keeps a threshold or cap it is given
        if live.id != ok.id or live.threshold is None or live.buffer_cap is None:
            raise BadParameterError(
                f"link {live.id}: group must go through validate_group before simulation")
    if not math.isfinite(t):
        raise BadParameterError(f"step time must be finite, got {t}")
    res = _result(config, group)
    changes, _, _ = _failure_timeline(group, [(t, link_id, "down") for link_id in failed], t)
    _simulate(group, config, policy_state, (t,), (demand_mbps,), changes, res)
    for link, b in zip(group.links, res.buffer_end):
        link.buffer = b
    return res.records[0]


def run(group: AggregationGroup, config: EngineConfig, trace: DemandTrace,
        failures: Optional[Iterable[Sequence]] = None) -> SimulationResult:
    """Fold the engine over a demand trace.

    Starts from zero buffers and fresh policy state; the caller's group is
    left untouched. One tick per trace sample. Failure events
    (time_s, link_id, "up"/"down") take effect on the first sample at or
    after their time. Deterministic: identical inputs give identical results.
    """
    pristine = validate_group(group.group_id, group.links, config.tick)
    work = AggregationGroup(pristine.group_id,
                            [replace(l, buffer=0.0) for l in pristine.links])
    changes, _, _ = _failure_timeline(work, failures, trace.t[-1])
    res = _result(config, pristine)
    _simulate(work, config, PolicyState(), trace.t, trace.demand, changes, res)
    return res
