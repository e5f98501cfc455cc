"""Discrete-time simulation engine.

One loop, _simulate, runs the ticks of every run: run(), step(), _supplied()
and the CLI's simulate. Per (t, demand) sample it first looks for a replay
(the memo, below). Only a tick that runs checks its demand (a column edited
after its trace was made may fail), takes the down set of the last change
due by t (then refreshes the list of live links), splits demand x tick
megabits into full quanta and a fractional tail, hands them to the active
policy's assign (or drops them all when no link is live), drains each live
link by up to capacity x tick and packs the tick into one record.
How a policy picks links, what state it keeps and what it checks lives in
its class in policies.py; the engine has no policy-specific branch.

_setup starts every run from PolicyState.buffers (run() and _supplied()
pass a fresh state, step() the caller's; a Link holds configuration only and
no call changes it) and raises every error a tick would meet before the
first tick (policies._Rule.check). The rule shares the buffer list _simulate
updates, and _simulate writes the last tick's buffers back to the state.

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
live set, keyed on the start state (position, *bufs) and the demand. A tick
whose start state and demand repeat an earlier tick's is replayed instead of
run: it only names that tick's record and moves to the next state. It needs
no check, since only a demand that a tick which ran has passed is a key, and
NaN matches none. bufs and the rule's position catch up with the state the
hits reached before the next tick that runs, the next change and the end.
The memo starts afresh at every change and at its bound, and keying may stop
(MEMO_WORDS, MEMO_TRIAL); a rule whose position is None is not keyed.
Keys compare floats by value, so 0.0 and -0.0 meet: a demand of either
gives the same tick, and no buffer is -0.0 in a run, which starts from
+0.0 and whose drains leave +0.0 (a step() runs one tick).

Each tick that runs packs its outcome once, as one record laid out by the
run's columns: all of them (_columns, 3n + 3 64-bit words), or supplied
alone for _supplied() (what `rla compare` runs). A memo entry holds the
record itself. Every tick, run or replayed, appends its record to one list
in tick order. After every chunk of min(ROWS, _store_rows(n)) ticks,
_simulate yields the list to its consumer, which unpacks it with no per-tick
Python (_flush): run() into its result's full-length columns, _supplied()
into its one column, and simulate, through _streamed, into one chunk's
columns, which it renders at once (reports._report_chunks). No other module
reads a record. So beyond its consumer's columns a run holds at most
MEMO_WORDS words of records named by the memo, plus one chunk of pending
records, however long it is.
"""

import math
import struct
from array import array
from collections.abc import Iterable, Sequence
from functools import partial
from itertools import islice
from typing import Optional

from .errors import BadParameterError, _shown
from .links import AggregationGroup, _Record, _real, validate_group
from .policies import _RULES, PolicyId, PolicyState, WfqDirection, _check_state
from .traceio import ROWS, DemandTrace

# The memo names at most MEMO_WORDS 64-bit words of records, 3n + 3 per
# tick that ran, so max(1, MEMO_WORDS // (3n + 3)) of them (_store_rows):
# 7,281 for 2 links, all the ticks the benchmark's heavy 2-link wfq day runs,
# 5,461 for 3, 3,640 for 5 and 1,285 for 16. The memo starts afresh each
# time that many more ticks have run. Keying stops for the rest of a run
# once more than MEMO_TRIAL ticks have run and the hits are fewer than one
# thirty-second of them. A diurnal day repeats little in its first hours: on
# the benchmark's heavy day (seeds 1-60) rr and wfq had 23-50 and 14-35 hits
# at their 257th tick run, though 72% and 67% of their ticks hit over the
# day, so a bound of one sixteenth (16 hits) stopped wfq on 5 of those seeds
# and doubled its run time; the wide group, which seldom drains, had 0-5.
MEMO_WORDS = 2**16
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
                raise BadParameterError(f"{name} must be a {kind.__name__}, got {_shown(value)}")
        for name, value in (("tick", tick), ("quantum", quantum)):
            if not 0 < (_real(value) or 0) < math.inf:
                raise BadParameterError(f"{name} must be positive and finite, got {_shown(value)}")


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
    """Config echo, group echo, and the run's per-tick array columns: t and
    demand its trace's own, the rest as _columns lays them out; records is a
    TickRecord view."""

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


def _flush(columns: tuple, records: list, at: int):
    """Write the ticks of records, one packed record each (_simulate), into
    columns, (column, width) pairs in record order, from tick at on: the
    records joined in one go and their words unpacked into the columns by
    strided copies, with no Python per tick."""
    width = sum(w for _, w in columns)  # 64-bit words in a record
    words = memoryview(b"".join(records)).cast("q")
    j, end = 0, at + len(records)
    for out, w in columns:
        column = memoryview(out).cast("B").cast("q")  # 64-bit words, as records hold them
        for i in range(w):
            column[at * w + i:end * w:w] = words[j::width]
            j += 1


def _columns(n: int, ticks: int) -> tuple:
    """(column, width) pairs for ticks ticks of an n-link run, in record order:
    supplied (Mbps), dropped and reorder (int64) hold one value a tick, then
    assigned, transmitted and buffer_end n, tick k's at [k*n, (k+1)*n)."""
    return tuple((array(c, [0]) * (ticks * w), w) for c, w in zip("ddqddd", (1, 1, 1, n, n, n)))


def _store_rows(n: int) -> int:
    """The most records the memo of an n-link run names (MEMO_WORDS)."""
    return max(1, MEMO_WORDS // (3 * n + 3))


def _simulate(rule, trace: DemandTrace, changes: list, columns: tuple):
    """One tick per sample of trace under rule, from its buffer list, with the
    changes _failure_timeline gives: yields (records, done) per chunk of the
    ticks from done on, records laid out by columns (module docstring), and
    leaves the last tick's buffers in the rule's state."""
    group, config, bufs = rule.group, rule.config, rule.bufs
    n = group.n
    ids = group.link_ids()
    alone = len(columns) == 1  # the record is supplied alone
    pack = struct.Struct("".join(f"{w}{c.typecode}" for c, w in columns)).pack
    drain = [l.capacity * config.tick for l in group.links]
    refresh, assign, position, restore = rule.refresh, rule.assign, rule.position, rule.restore
    tick, quantum = config.tick, config.quantum
    ci, due = 0, -math.inf  # the next change and its time: the first is due at once
    # the memo (see the module docstring): keys gives each state key
    # (position, *bufs) its token, rows[token] maps a demand to (the record
    # of the tick that started there with it, the next state's token), and
    # states[token] is the key. row is the row of the state the next tick
    # starts in, None when that is not keyed; behind is that state's token
    # while bufs and the rule's position still hold the one before the hits
    # that reached it. ran counts the ticks run until keying stops; the memo
    # starts afresh after each bound of them, and of the ticks done so far,
    # done + len(records), all but ran were replayed.
    keys, rows, states, row, behind = {}, [], [], None, None
    records = []  # the ticks since the last flush, in tick order
    add = records.append
    ran = 0
    bound = _store_rows(n)
    chunk = min(ROWS, bound)  # ticks between flushes
    samples = zip(trace.t, trace.demand)
    for done in range(0, len(trace), chunk):
        for t, demand in islice(samples, chunk):
            if row is not None:  # no key is a demand that fails the check below
                hit = row.get(demand) if due > t else None
                if hit is not None:
                    record, behind = hit
                    row = rows[behind]
                    add(record)
                    continue
                if behind is not None:  # only ever set with row
                    pos, *bufs[:] = states[behind]
                    restore(pos)
                    behind = None
            if not 0.0 <= demand < math.inf:  # a column edited after the trace was made
                raise BadParameterError(f"demand must be finite and nonnegative, got {demand}")
            arrivals = demand * tick
            if due <= t:
                while changes[ci][0] <= t:
                    ci += 1
                due = changes[ci][0]
                down = changes[ci - 1][1]
                alive = [i for i in range(n) if ids[i] not in down]
                refresh(alive, down)
                if keys is not None:
                    keys, rows, states, row = {}, [], [], None
            assigned = [0.0] * n
            if not arrivals:
                dropped, reorder = 0.0, 0
            elif alive:
                # full quanta and the trailing fractional quantum (0 if none)
                quanta = arrivals / quantum
                n_full = math.floor(quanta)
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
            record = (pack(supplied / tick) if alone else
                      pack(supplied / tick, dropped, reorder, *assigned, *transmitted, *bufs))
            add(record)
            if keys is not None:
                ran += 1
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
                        start[demand] = (record, token)
                if ran > MEMO_TRIAL and done + len(records) - ran < ran >> 5:
                    keys = rows = states = row = None  # too few hits to pay
                elif not ran % bound:
                    keys, rows, states, row = {}, [], [], None
        yield records, done
        records.clear()
    if behind is not None:
        pos, *bufs[:] = states[behind]
        restore(pos)
    rule.save()
    rule.state.buffers.update(zip(ids, bufs))


def _failure_timeline(group: AggregationGroup, failures, last_t: float):
    """failures, (t, link_id, "up"/"down") events, each checked and folded
    in stable time order over a run whose last sample is at last_t, links
    starting up: (changes, late, repeats) as the module docstring gives
    them, late and repeats in the order the run meets them."""
    ids = set(group.link_ids())
    events = []
    if isinstance(failures, (str, bytes)) or not isinstance(failures or (), Iterable):
        raise BadParameterError(f"failures must be an iterable of events, got {_shown(failures)}")
    for ev in failures or ():
        try:
            when, link_id, kind = ev
        except (TypeError, ValueError):  # not three fields
            raise BadParameterError(f"failure event must be (t, link_id, kind), got {_shown(ev)}") from None
        t = _real(when)
        if t is None or not math.isfinite(t):
            raise BadParameterError(f"failure event time must be a finite number, got {_shown(when)}")
        if not isinstance(link_id, str) or link_id not in ids:  # ids are str, and a list would not hash
            raise BadParameterError(f"failure event for unknown link {_shown(link_id)}")
        if kind not in ("up", "down"):
            raise BadParameterError(f"failure event must be 'up' or 'down', got {_shown(kind)}")
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


def _setup(group: AggregationGroup, config: EngineConfig, state: PolicyState,
           trace: DemandTrace, failures):
    """Every run's one way into _simulate: validate the group and the state
    (of its dicts, the entries for the group's links), start each link from
    its state.buffers entry, fold the failures, make the policy's rule and
    raise the error of the run's first failing tick, if any (policies._Rule.check).
    Gives the validated group and ticks, where ticks(columns) runs (_simulate)."""
    checked = validate_group(group.group_id, group.links, config.tick)
    _check_state(state, checked.link_ids())
    bufs = []
    for link in checked.links:
        b = state.buffers.get(link.id, 0.0)
        fb = _real(b)  # None for True, which would pass as 1, and for text
        if fb is None or not 0 <= fb <= link.buffer_cap:
            raise BadParameterError(f"link {link.id}: buffer {_shown(b)} outside [0, {link.buffer_cap}]")
        bufs.append(fb)
    changes, _, _ = _failure_timeline(checked, failures, trace.t[-1])
    rule = _RULES[config.policy](checked, config, state, bufs)
    rule.check(trace, changes)
    return checked, partial(_simulate, rule, trace, changes)


def _filled(ticks, columns: tuple) -> tuple:
    """columns, full-length (column, width) pairs, filled by the run ticks."""
    for records, done in ticks(columns):
        _flush(columns, records, done)
    return columns


def _streamed(trace: DemandTrace, n: int, ticks):
    """simulate's chunks for reports._report_chunks: each flush of its run's
    ticks (_setup) unpacked into full columns of the chunk's own length, as
    (t, demand, supplied, reorder, transmitted)."""
    for records, done in ticks(_columns(n, 0)):
        columns = _columns(n, len(records))
        _flush(columns, records, 0)
        (supplied, _), _, (reorder, _), _, (transmitted, _), _ = columns
        end = done + len(records)
        yield trace.t[done:end], trace.demand[done:end], supplied, reorder, transmitted


def _result(group: AggregationGroup, config: EngineConfig, state: PolicyState,
            trace: DemandTrace, failures) -> SimulationResult:
    """The run of trace from state, as run() and step() give it."""
    checked, ticks = _setup(group, config, state, trace, failures)
    columns = _filled(ticks, _columns(checked.n, len(trace)))
    return SimulationResult(config, checked, trace.t, trace.demand, *(c for c, _ in columns))


def step(group: AggregationGroup, policy_state: PolicyState, config: EngineConfig,
         demand_mbps: float, failed: frozenset = frozenset(), t: float = 0.0) -> TickRecord:
    """Advance one tick from policy_state, which carries the buffers, rr
    cursor, wfq counters and vrrp master from call to call.

    The group is validated as run() validates it and left untouched; the ids
    in failed are down for this tick. Arrivals of demand x tick megabits are
    split into quanta, each assigned by the configured policy against the
    buffers, then every live link drains up to capacity x tick. The tick
    comes back as run()'s records give it, t and demand as floats.
    """
    demand = _real(demand_mbps)
    if demand is None:
        raise BadParameterError(f"demand must be a number, got {_shown(demand_mbps)}")
    time = _real(t)
    if time is None or not math.isfinite(time):
        raise BadParameterError(f"step time must be finite, got {_shown(t)}")
    if isinstance(failed, (str, bytes)) or not isinstance(failed, Iterable):
        raise BadParameterError(f"failed must be a collection of link ids, got {_shown(failed)}")
    events = [(time, link_id, "down") for link_id in failed]
    trace = DemandTrace._of(array("d", (time,)), array("d", (demand,)))
    return _result(group, config, policy_state, trace, events).records[0]


def run(group: AggregationGroup, config: EngineConfig, trace: DemandTrace,
        failures: Optional[Iterable[Sequence]] = None) -> SimulationResult:
    """Fold the engine over a demand trace, one tick per sample.

    Starts from empty buffers and a fresh PolicyState and leaves the
    caller's group untouched; result.group is its validated copy. Failure
    events (time_s, link_id, "up"/"down") take effect on the first sample at
    or after their time. Deterministic: identical inputs, identical results.
    """
    return _result(group, config, PolicyState(), trace, failures)


def _supplied(group: AggregationGroup, config: EngineConfig, trace: DemandTrace,
              failures: Optional[Iterable[Sequence]] = None) -> array:
    """run(group, config, trace, failures).supplied, the same ticks checked
    and replayed alike, without the result: each tick packs its supply alone,
    so no other column is made."""
    _, ticks = _setup(group, config, PolicyState(), trace, failures)
    (supplied, _), = _filled(ticks, ((array("d", [0.0]) * len(trace), 1),))
    return supplied
