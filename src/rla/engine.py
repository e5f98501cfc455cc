"""Discrete-time simulation engine.

One loop, _simulate, runs the ticks of both run() and step(). Per (t, demand)
sample it checks the demand, takes the down set of the last change due by t
(then refreshes the list of live links), splits demand x tick megabits into
full quanta and a fractional tail, hands them to the active policy's assign
(or drops them all when no link is live), drains each live link by up to
capacity x tick and adds the tick to the result's columns (through the
outcome store below while the memo keys). How a policy picks links, what
state it keeps and what it checks lives in its class in policies.py; the
engine has no policy-specific branch.

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
earlier tick's is replayed instead of run: it only names that tick's
outcome and moves to the next state. bufs and the rule's position catch up
with the state the hits reached before the next tick that runs, the next
change and the end. The memo starts afresh at every change and when it holds
MEMO_MAX ticks. A rule whose position is None is not keyed, and keying stops
for the rest of a run once misses clearly dominate (MEMO_TRIAL). Keys
compare floats by value, so 0.0 and -0.0 meet: a demand of either gives the
same tick, and no buffer is -0.0 in a run, which starts from +0.0 and whose
drains leave +0.0 (a step() runs one tick).

While the memo keys, outcomes go through an outcome store (_Outcomes): one
set of columns shaped like the result's that holds only the ticks that ran,
and a memo entry names a store row. Every tick, run or replayed, appends
its store row to a pending list, and a flush appends the pending ticks to
the result's columns in tick order: every traceio.ROWS ticks, before the
store is emptied and at the end. A flush that covers no replayed tick
copies the store's new rows as they lie; any other gathers them with
whole-column copies and no per-tick Python (_Outcomes.flush). The store is
emptied with the memo and when keying stops, after which a tick that runs
writes the result's columns itself. So beyond its result a run holds at
most MEMO_MAX store rows and ROWS pending ticks, however long it is.

A result keeps no object per tick: t, demand, supplied (Mbps), dropped and
reorder (int64) are one array value per tick; assigned, transmitted and
buffer_end are n float values per tick, tick k at [k*n, (k+1)*n).
"""

import math
from array import array
from collections.abc import Iterable, Sequence
from itertools import islice
from typing import Optional

from .errors import BadParameterError
from .links import AggregationGroup, _Record, validate_group
from .policies import _RULES, PolicyId, PolicyState, WfqDirection
from .traceio import ROWS, DemandTrace

# The memo and its store hold at most MEMO_MAX ticks that ran, and start
# afresh when full. Keying stops for the rest of a run once at least
# MEMO_TRIAL ticks have missed and the hits are fewer than one sixteenth of
# the misses. A diurnal day repeats little in its first hours: on the
# benchmark's heavy day (five seeds) rr and wfq had 32-46 and 19-31 hits at
# their 256th miss, though 72% and 57% of their ticks hit over the day; its
# wide group, which seldom drains, had 0-3.
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


class _Outcomes:
    """The outcome store of one run (see the module docstring): cols holds
    one row per tick that ran since the store was last cleared, shaped like
    the result's supplied, dropped, reorder, assigned, transmitted and
    buffer_end columns, and pending the store row of each tick not yet
    flushed to the result, in tick order."""

    def __init__(self, res: SimulationResult, n: int):
        self.out = (res.supplied, res.dropped, res.reorder,
                    res.assigned, res.transmitted, res.buffer_end)
        self.cols = tuple(map(array, "ddqddd"))
        self.widths = (1, 1, 1, n, n, n)
        self.width = 3 * n + 3  # 64-bit words in a row
        self.pending = []
        self.records = []  # the store's first rows as fixed-width bytes (pack)
        self.first = 0  # the store's row count at the last flush

    def flush(self):
        """Append the pending ticks to the result's columns, in tick order.
        Ticks that all ran are the store's rows since the last flush and are
        copied as they lie. Otherwise the pending ticks' records are joined
        in one go and their words unpacked into the columns by strided copies
        over whole columns, with no Python per tick."""
        pending, widths, width = self.pending, self.widths, self.width
        if not pending:
            return
        rows = len(self.cols[0])
        if rows - self.first == len(pending):  # no tick was replayed
            for out, col, w in zip(self.out, self.cols, widths):
                out.extend(col[self.first * w:])
        else:
            self.pack(rows)
            words = memoryview(b"".join(map(self.records.__getitem__, pending))).cast("q")
            j = 0
            for out, w in zip(self.out, widths):
                part = memoryview(bytearray(8 * w * len(pending))).cast("q")
                for i in range(w):
                    part[i::w] = words[j::width]
                    j += 1
                out.frombytes(part.obj)
        pending.clear()
        self.first = rows

    def pack(self, rows: int):
        """Add the store's rows from len(records) up to rows to records, each
        as one bytes record of its 64-bit words, column after column."""
        lo, widths, width = len(self.records), self.widths, self.width
        packed = memoryview(bytearray(8 * width * (rows - lo))).cast("q")
        j = 0
        for col, w in zip(self.cols, widths):
            words = memoryview(col[lo * w:].tobytes()).cast("q")
            for i in range(w):
                packed[j::width] = words[i::w]
                j += 1
        packed = packed.tobytes()
        self.records += [packed[a:a + 8 * width] for a in range(0, len(packed), 8 * width)]

    def clear(self):
        """Flush, then empty the store."""
        self.flush()
        for col in self.cols:
            del col[:]
        self.records.clear()
        self.first = 0


def _writers(cols: tuple) -> tuple:
    """What a tick that runs calls to add itself to columns laid out as
    _Outcomes.cols: append for a scalar, fromlist for a per-link list."""
    supplied, dropped, reorder, assigned, transmitted, buffer_end = cols
    return (supplied.append, dropped.append, reorder.append,
            assigned.fromlist, transmitted.fromlist, buffer_end.fromlist)


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
    tick, quantum = config.tick, config.quantum
    ci, due = 0, -math.inf  # the next change and its time: the first is due at once
    # the memo (see the module docstring): keys gives each state key
    # (position, *bufs) its token, rows[token] maps a demand to (r, the next
    # state's token) for the tick in store row r, which started there, and
    # states[token] is the key. row is the row of the state the next tick
    # starts in, None when that is not keyed; behind is that state's token
    # while bufs and the rule's position still hold the one before the hits
    # that reached it. stored counts the store's rows. A lone sample (step())
    # has nothing to repeat and is not keyed.
    keys, rows, states, row, behind = {} if len(times) > 1 else None, [], [], None, None
    store = _Outcomes(res, n)
    # bound once; a tick that runs writes the store's columns while the memo
    # keys, the result's when it does not
    put_supplied, put_dropped, put_reorder, put_assigned, put_transmitted, put_buffer_end = (
        _writers(store.out if keys is None else store.cols))
    add_pending = store.pending.append
    stored = hits = misses = 0
    samples = zip(times, demands)
    for _ in range(0, len(times), ROWS):
        for t, demand in islice(samples, ROWS):
            if not 0.0 <= demand < math.inf:
                raise BadParameterError(f"demand must be finite and nonnegative, got {demand}")
            if row is not None:
                hit = row.get(demand) if due > t else None
                if hit is not None:
                    r, behind = hit
                    row = rows[behind]
                    add_pending(r)
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
                    keys, rows, states, row = {}, [], [], None
                    store.clear()
                    stored = 0
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
            put_supplied(supplied / tick)
            put_dropped(dropped)
            put_reorder(reorder)
            put_assigned(assigned)
            put_transmitted(transmitted)
            put_buffer_end(bufs)
            if keys is not None:
                add_pending(stored)
                stored += 1
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
                        start[demand] = (stored - 1, token)
                        misses += 1
                if misses >= MEMO_TRIAL and hits < misses >> 4:  # too few repeats to pay
                    keys = rows = states = row = None
                    store.clear()
                    put_supplied, put_dropped, put_reorder, put_assigned, put_transmitted, \
                        put_buffer_end = _writers(store.out)
                elif stored == MEMO_MAX:
                    keys, rows, states, row = {}, [], [], None
                    store.clear()
                    stored = 0
        store.flush()
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
