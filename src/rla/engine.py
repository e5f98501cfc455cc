"""Discrete-time simulation engine.

One loop, _simulate, runs the ticks of both run() and step(). Per (t, demand)
sample it checks the demand, takes the down set of the last change due by t
(then refreshes the list of live links), splits demand x tick megabits into
full quanta and a fractional tail, hands them to the active policy's assign
(or drops them all when no link is live), drains each live link by up to
capacity x tick and appends the tick to the result's columns. How a policy
picks links, what state it keeps and what it checks lives in its class in
policies.py; the engine has no policy-specific branch.

_simulate owns a run's buffers: it builds and returns the result and updates
the one buffer list its caller gives it, which the policy's rule shares.
run() passes zeros, so the caller's links are never touched; step() passes
its links' buffers and writes that list back to them.

A failure schedule is folded once, by _failure_timeline, for the tick loop
and the CLI's warnings alike. Events apply in stable time order, simultaneous
ones in the order given; each takes effect on the first sample at or after
its time. The fold gives changes, one (t, frozenset of down ids) per event
that changes the down set, after (-inf, frozenset()) and before (inf, None),
so the loop's one failure test is whether the next change is due. Events
that leave their link as it was (repeats) and events after the last sample
(late) change nothing and come back apart.

A tick's outcome depends on its demand, the buffers it starts from, the
live set and the rule's position (policies._Rule.position) alone, so
_simulate keeps a memo of the ticks it has run since the last change of the
live set. Each start state (position, *bufs) gets a token, and each token a
row that maps a demand to the tick that started there with it and the token
of the state it ended in. A tick whose start state and demand repeat an
earlier tick's copies that tick's columns instead of running; bufs and the
rule's position catch up with the state the hits reached before the next
tick that runs, the next change and the end. The memo starts afresh at every
change and when it holds MEMO_MAX ticks. A rule whose position is None is not
keyed, and keying stops for the rest of a run once misses clearly dominate
(MEMO_TRIAL). Keys compare floats by value, so 0.0 and -0.0 meet: a demand
of either gives the same tick, and no buffer is -0.0 in a run, which starts
from +0.0 and whose drains leave +0.0 (a step() runs one tick).

A result keeps no object per tick: t, demand, supplied (Mbps), dropped and
reorder (int64) are one array value per tick; assigned, transmitted and
buffer_end are n float values per tick, tick k at [k*n, (k+1)*n).
"""

import math
from array import array
from collections.abc import Iterable, Sequence
from typing import Optional

from .errors import BadParameterError
from .links import AggregationGroup, _Record, validate_group
from .policies import _RULES, PolicyId, PolicyState, WfqDirection
from .traceio import DemandTrace

# The memo holds at most MEMO_MAX ticks and starts afresh when full. Keying
# stops for the rest of a run once at least MEMO_TRIAL ticks have missed and
# the hits are fewer than one sixteenth of the misses. A diurnal day repeats
# little in its first hours: on the benchmark's heavy day (five seeds) rr and
# wfq had 32-46 and 19-31 hits at their 256th miss, though 72% and 57% of
# their ticks hit over the day; its wide group, which seldom drains, had 0-3.
MEMO_MAX = 4096
MEMO_TRIAL = 256


class EngineConfig(_Record):
    """Knobs for one simulation run.

    quantum is the assignment unit in megabits; it must not exceed any link
    threshold, so a single quantum can never jump an empty buffer past both
    threshold and cap at once.
    """

    __match_args__ = ("policy", "tick", "quantum", "wfq_direction")

    def __init__(self, policy: PolicyId, tick: float = 1.0, quantum: float = 1.0,
                 wfq_direction: WfqDirection = WfqDirection.INVERSE_COST):
        self.policy = policy
        self.tick = tick
        self.quantum = quantum
        self.wfq_direction = wfq_direction
        for name, value, kind in (("policy", policy, PolicyId),
                                  ("wfq_direction", wfq_direction, WfqDirection)):
            if not isinstance(value, kind):  # a name string is not coerced
                raise BadParameterError(f"{name} must be a {kind.__name__}, got {value!r}")
        for name, value in (("tick", tick), ("quantum", quantum)):
            if isinstance(value, bool) or not 0 < value < math.inf:  # True is 1
                raise BadParameterError(f"{name} must be positive and finite, got {value!r}")


class TickRecord(_Record):
    """Everything that happened in one tick.

    assigned/transmitted/buffer_end are megabit amounts per link, in the
    group's priority order. dropped is the total megabits rejected at buffer
    caps. reorder_events counts adjacent quanta that were enqueued to
    different links, a proxy for out-of-order delivery exposure.
    """

    __match_args__ = __slots__ = ("t", "demand", "assigned", "transmitted", "buffer_end",
                                  "dropped", "supplied_mbps", "reorder_events")

    def __init__(self, t: float, demand: float, assigned: tuple, transmitted: tuple,
                 buffer_end: tuple, dropped: float, supplied_mbps: float, reorder_events: int):
        self.t = t
        self.demand = demand
        self.assigned = assigned
        self.transmitted = transmitted
        self.buffer_end = buffer_end
        self.dropped = dropped
        self.supplied_mbps = supplied_mbps
        self.reorder_events = reorder_events


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


class SimulationResult(_Record):
    """Config echo, group echo, and the run's per-tick array columns (see the
    module docstring); records is a TickRecord view of them."""

    __match_args__ = ("config", "group", "t", "demand", "supplied", "dropped", "reorder",
                      "assigned", "transmitted", "buffer_end")

    def __init__(self, config: EngineConfig, group: AggregationGroup, t: array, demand: array,
                 supplied: array, dropped: array, reorder: array, assigned: array,
                 transmitted: array, buffer_end: array):
        self.config = config
        self.group = group
        self.t = t
        self.demand = demand
        self.supplied = supplied
        self.dropped = dropped
        self.reorder = reorder
        self.assigned = assigned
        self.transmitted = transmitted
        self.buffer_end = buffer_end

    records = property(Records)


def _simulate(group: AggregationGroup, config: EngineConfig, state: PolicyState, bufs: list,
              times: Sequence, demands: Sequence, changes: list) -> SimulationResult:
    """One tick per (t, demand) sample on a validated group, from the buffers
    in bufs, with the changes _failure_timeline gives. bufs is updated in
    place, so it ends holding the buffers after the last tick."""
    n = group.n
    ids = group.link_ids()
    res = SimulationResult(config, group, *map(array, "ddddqddd"))  # typed in field order
    drain = [l.capacity * config.tick for l in group.links]
    k = demands.index(max(demands))  # the first busiest sample
    rule = _RULES[config.policy](group, config, state, bufs, (times[k], demands[k]))
    refresh, assign, position, restore = rule.refresh, rule.assign, rule.position, rule.restore
    # bound once; fromlist copies the per-link lists without building tuples
    assigned_col, transmitted_col, ends_col = res.assigned, res.transmitted, res.buffer_end
    dropped_col, supplied_col, reorder_col = res.dropped, res.supplied, res.reorder
    add_dropped, add_supplied, add_reorder = (
        dropped_col.append, supplied_col.append, reorder_col.append)
    add_assigned, add_transmitted, add_buffer_end = (
        assigned_col.fromlist, transmitted_col.fromlist, ends_col.fromlist)
    tick, quantum = config.tick, config.quantum
    ci, due = 0, -math.inf  # the next change and its time: the first is due at once
    # the memo (see the module docstring): keys gives each state key
    # (position, *bufs) its token, rows[token] maps a demand to (k, the next
    # state's token) for tick k, which started there, and states[token] is
    # the key. row is the row of the state the next tick starts in, None when
    # that is not keyed; behind is that state's token while bufs and the
    # rule's position still hold the one before the hits that reached it.
    keys, rows, states, row, behind = {}, [], [], None, None
    stored = hits = misses = 0
    for t, demand in zip(times, demands):
        if not 0.0 <= demand < math.inf:
            raise BadParameterError(f"demand must be finite and nonnegative, got {demand}")
        if row is not None:
            hit = row.get(demand) if due > t else None
            if hit is not None:
                k, behind = hit
                row = rows[behind]
                lo = k * n
                hi = lo + n
                assigned_col.extend(assigned_col[lo:hi])
                transmitted_col.extend(transmitted_col[lo:hi])
                ends_col.extend(ends_col[lo:hi])
                add_dropped(dropped_col[k])
                add_supplied(supplied_col[k])
                add_reorder(reorder_col[k])
                hits += 1
                continue
            if behind is not None:  # only ever set with row
                pos, *bufs[:] = states[behind]
                restore(pos)
                behind = None
        if due <= t:
            while changes[ci][0] <= t:
                ci += 1
            due = changes[ci][0]
            down = changes[ci - 1][1]
            alive = [i for i in range(n) if ids[i] not in down]
            refresh(alive, down)
            if keys is not None:
                keys, rows, states, stored, row = {}, [], [], 0, None
        assigned = [0.0] * n
        arrivals = demand * tick
        if not arrivals:
            dropped, reorder = 0.0, 0
        elif alive:
            # full quanta and the trailing fractional quantum (0 if none)
            n_full = math.floor(arrivals / quantum)
            rem = arrivals - n_full * quantum
            if rem < 0:  # the quotient rounded up
                n_full -= 1
                rem = arrivals - n_full * quantum
            dropped, reorder = assign(assigned, n_full, rem if rem > 0 else 0.0)
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
        if keys is not None:
            pos = position()
            start, row = row, None
            if pos is not None:
                key = (pos, *bufs)
                token = keys.get(key)
                if token is None:
                    token = keys[key] = len(states)
                    rows.append({})
                    states.append(key)
                row = rows[token]
                if start is not None:
                    start[demand] = (len(dropped_col) - 1, token)
                    stored += 1
                    misses += 1
                    if misses >= MEMO_TRIAL and hits < misses >> 4:
                        keys = rows = states = row = None  # too few repeats to pay
                    elif stored == MEMO_MAX:
                        keys, rows, states, stored, row = {}, [], [], 0, None
    if behind is not None:
        pos, *bufs[:] = states[behind]
        restore(pos)
    rule.save()
    res.t.extend(times)
    res.demand.extend(demands)
    return res


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
    changes, _, _ = _failure_timeline(group, [(t, link_id, "down") for link_id in failed], t)
    bufs = [l.buffer for l in group.links]
    res = _simulate(group, config, policy_state, bufs, (t,), (demand_mbps,), changes)
    for link, b in zip(group.links, bufs):
        link.buffer = b
    return res.records[0]


def run(group: AggregationGroup, config: EngineConfig, trace: DemandTrace,
        failures: Optional[Iterable[Sequence]] = None) -> SimulationResult:
    """Fold the engine over a demand trace.

    Starts from zero buffers and fresh policy state, and result.group echoes
    the validated group with those zero buffers; the caller's group is left
    untouched. One tick per trace sample. Failure events
    (time_s, link_id, "up"/"down") take effect on the first sample at or
    after their time. Deterministic: identical inputs give identical results.
    """
    checked = validate_group(group.group_id, group.links, config.tick)
    for link in checked.links:  # copies of the caller's links
        link.buffer = 0.0
    changes, _, _ = _failure_timeline(checked, failures, trace.t[-1])
    return _simulate(checked, config, PolicyState(), [0.0] * checked.n,
                     trace.t, trace.demand, changes)
