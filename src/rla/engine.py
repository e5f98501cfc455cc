"""Discrete-time simulation engine.

Each tick converts the demanded bandwidth into quantum-sized units, assigns
them to links through the active policy against live buffer state (overflow
cascades within the tick), then drains each link by up to capacity x tick and
records the result.

No policy walks the quanta against the buffers one at a time. OLB fills
links in scan order and the single-master baseline fills one link, both in
per-link batches. Round robin and the weighted fair queue choose links
without looking at buffers, so their ticks run in two passes: a selection
pass works out how many full quanta each live link gets, in which order, and
which link takes the fractional tail (round robin in closed form, the fair
queue by replaying its deficit counters on a local list); then a batched
admission keeps, per link, as many full quanta as fit under its cap. On
dyadic inputs every path equals the per-quantum rule bit for bit; the test
suite cross-checks them against an independent brute-force simulator.

run() keeps no object per tick: t, demand, supplied (Mbps), dropped and
reorder (int64) are one array value per tick; assigned, transmitted and
buffer_end are n float values per tick, tick k at [k*n, (k+1)*n).
"""

import math
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from operator import ne
from typing import Optional

from .errors import BadParameterError, EmptyTraceError
from .links import AggregationGroup, validate_group
from .policies import (
    PolicyId,
    PolicyState,
    WfqDirection,
    rr_take,
    vrrp_elect,
    vrrp_preference,
    wfq_replay,
    wfq_weights,
)
from .traceio import DemandTrace

# wfq replays its deficit counters once per quantum, the one per-quantum loop
# left; a run whose busiest tick would need more selections is rejected.
MAX_WFQ_QUANTA_PER_TICK = 2**20


@dataclass
class EngineConfig:
    """Knobs for one simulation run.

    quantum is the assignment unit in megabits; it must not exceed any link
    threshold, so a single quantum can never jump an empty buffer past both
    threshold and cap at once. warmup_ticks marks leading ticks that
    steady-state assertions should skip; the engine records them like any
    other tick.
    """

    policy: PolicyId
    tick: float = 1.0
    quantum: float = 1.0
    wfq_direction: WfqDirection = WfqDirection.INVERSE_COST
    warmup_ticks: int = 1

    def __post_init__(self):
        if not 0 < self.tick < math.inf:
            raise BadParameterError(f"tick must be positive and finite, got {self.tick}")
        if not 0 < self.quantum < math.inf:
            raise BadParameterError(f"quantum must be positive and finite, got {self.quantum}")
        if self.warmup_ticks < 0:
            raise BadParameterError(f"warmup_ticks must be nonnegative, got {self.warmup_ticks}")


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


def _check_ready(group: AggregationGroup, quantum: float) -> None:
    for link in group.links:
        if link.threshold is None or link.buffer_cap is None:
            raise BadParameterError(
                f"link {link.id}: group must go through validate_group before simulation")
    min_thr = min(l.threshold for l in group.links)
    if quantum > min_thr:
        raise BadParameterError(
            f"quantum {quantum} exceeds smallest link threshold {min_thr}")


def _check_wfq_quanta(config: EngineConfig, samples) -> None:
    """Reject a wfq run whose busiest sample needs more than
    MAX_WFQ_QUANTA_PER_TICK selections in one tick."""
    if config.policy is not PolicyId.WFQ:
        return
    t, peak = max(samples, key=lambda s: s[1])
    arrivals = peak * config.tick
    if arrivals / config.quantum <= MAX_WFQ_QUANTA_PER_TICK or not math.isfinite(arrivals):
        return  # a non-finite demand is rejected by the tick itself
    workable = arrivals / MAX_WFQ_QUANTA_PER_TICK
    while arrivals / workable > MAX_WFQ_QUANTA_PER_TICK:
        workable = math.nextafter(workable, math.inf)
    raise BadParameterError(
        f"wfq needs {arrivals / config.quantum:.6g} quanta for the sample at t={t}, "
        f"above the limit of {MAX_WFQ_QUANTA_PER_TICK} per tick; "
        f"use --quantum {workable!r} or larger")


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


def _admit(targets, counts, tail, rem, quantum, bufs, bcaps, assigned):
    """Batched buffer admission of one tick's selections.

    targets[k] was selected for counts[k] full quanta and, when tail >= 0,
    targets[tail] for the fractional rem after all of them. A link keeps
    full quanta while they fit under its cap, so min(count,
    floor(room / quantum)) of them, and drops the rest whole; the tail is
    kept if it fits after that. Returns (dropped, kept, tail_kept) with
    kept[k] the full quanta targets[k] kept; kept is counts itself when no
    full quantum was dropped.
    """
    dropped = 0.0
    kept = counts
    for k, i in enumerate(targets):
        c = counts[k]
        if not c:
            continue
        b = bufs[i]
        room = math.floor((bcaps[i] - b) / quantum)
        if room < c:
            if kept is counts:
                kept = list(counts)
            kept[k] = room
            dropped += (c - room) * quantum
            c = room
            if not c:
                continue
        amt = c * quantum
        bufs[i] = b + amt
        assigned[i] += amt
    tail_kept = False
    if tail >= 0:
        i = targets[tail]
        if bufs[i] + rem > bcaps[i]:
            dropped += rem
        else:
            bufs[i] += rem
            assigned[i] += rem
            tail_kept = True
    return dropped, kept, tail_kept


def _rr_reorder(kept, tail, tail_kept):
    """Link switches among the quanta a round-robin tick kept, in O(m).

    Rotation position k was selected at steps k, k+m, k+2m, ... and kept the
    first kept[k] of them; a kept tail comes last. Round r thus holds, in
    ascending order, every position with kept[k] > r. No round repeats a
    link, and two consecutive rounds share one only when the later round is
    a single position that also ended the earlier round. Only the position
    with the unique largest count M can do that: once at each of its
    M - 1 - M2 rounds after the others ran out (M2 the next largest count),
    and once more if it ended round M2 - 1.
    """
    total = sum(kept)
    if not total:
        return 0
    top = max(kept)
    last = len(kept) - 1 - kept[::-1].index(top)  # ends the final round
    switches = total - 1
    if kept.count(top) == 1:
        second = max([c for c in kept if c != top], default=0)
        switches -= top - 1 - second
        if second and last == max(k for k, c in enumerate(kept) if c >= second):
            switches -= 1
    if tail_kept and tail != last:
        switches += 1
    return switches


# the _Runner method that assigns one tick's arrivals under each policy
_ASSIGN_STEP = {PolicyId.OLB: "_assign_olb", PolicyId.ROUND_ROBIN: "_assign_rr",
                PolicyId.WFQ: "_assign_wfq", PolicyId.VRRP: "_assign_vrrp"}


class _Runner:
    """Shared per-tick machinery bound to one group and config."""

    def __init__(self, group: AggregationGroup, config: EngineConfig, state: PolicyState):
        _check_ready(group, config.quantum)
        self.group = group
        self.config = config
        self.state = state
        self.n = group.n
        self.bufs = [l.buffer for l in group.links]
        self.thrs = [l.threshold for l in group.links]
        self.bcaps = [l.buffer_cap for l in group.links]
        self.drain = [l.capacity * config.tick for l in group.links]
        self.ids = [l.id for l in group.links]
        self._failed = frozenset()
        self._alive = list(range(self.n))
        self._weights = None  # wfq weights and ids of the alive links, per failure set
        self._alive_ids = None
        self._assign = getattr(self, _ASSIGN_STEP[config.policy])
        self._preference = (vrrp_preference(group)
                            if config.policy is PolicyId.VRRP else None)

    def _assign_olb(self, alive, failed, assigned, n_full, rem):
        """Scan-order batch fill. Returns (dropped, reorder_events).

        Mirrors the per-quantum rule exactly: each link in priority order
        absorbs quanta while its buffer is below threshold; once every buffer
        is at or above threshold the remainder lands on the last link; any
        quantum that would push its target past the buffer cap is dropped in
        full (the scan does not redirect it).
        """
        bufs, thrs, bcaps = self.bufs, self.thrs, self.bcaps
        quantum = self.config.quantum
        dropped = 0.0
        reorder = 0
        prev = -1
        full = n_full
        z = 0
        while full > 0 and z < len(alive):
            i = alive[z]
            b = bufs[i]
            if b >= thrs[i]:
                z += 1
                continue
            k_thr = math.ceil((thrs[i] - b) / quantum)
            k_cap = math.floor((bcaps[i] - b) / quantum)
            if k_cap < k_thr:
                # cap interferes before the threshold is reached: whatever fits
                # goes in, every further full quantum is dropped right here
                # (the link stays below threshold, so the scan keeps picking it)
                k = k_cap if k_cap < full else full
                if k > 0:
                    amt = k * quantum
                    bufs[i] = b + amt
                    assigned[i] += amt
                    if prev >= 0 and i != prev:
                        reorder += 1
                    prev = i
                    full -= k
                if full > 0:
                    dropped += full * quantum
                    full = 0
                break
            k = k_thr if k_thr < full else full
            amt = k * quantum
            bufs[i] = b + amt
            assigned[i] += amt
            if prev >= 0 and i != prev:
                reorder += 1
            prev = i
            full -= k
        if full > 0:
            # fallthrough: every link at/above threshold, remainder to the last
            i = alive[-1]
            k_cap = math.floor((bcaps[i] - bufs[i]) / quantum)
            k = k_cap if k_cap < full else full
            if k > 0:
                amt = k * quantum
                bufs[i] += amt
                assigned[i] += amt
                if prev >= 0 and i != prev:
                    reorder += 1
                prev = i
                full -= k
            if full > 0:
                dropped += full * quantum
        if rem > 0:
            i = -1
            for j in alive:
                if bufs[j] < thrs[j]:
                    i = j
                    break
            if i < 0:
                i = alive[-1]
            if bufs[i] + rem > bcaps[i]:
                dropped += rem
            else:
                bufs[i] += rem
                assigned[i] += rem
                if prev >= 0 and i != prev:
                    reorder += 1
        return dropped, reorder

    def _assign_vrrp(self, alive, failed, assigned, n_full, rem):
        # the one-link case of the shared admission; raises
        # AllLinksFailedError when nothing is up
        master = vrrp_elect(self.group, self._preference, self.state, failed)
        dropped, _, _ = _admit((master,), (n_full,), 0 if rem else -1, rem,
                               self.config.quantum, self.bufs, self.bcaps, assigned)
        return dropped, 0

    def _assign_rr(self, alive, failed, assigned, n_full, rem):
        m = len(alive)
        start = rr_take(self.state, m, n_full + (1 if rem else 0))
        # position k of the rotation is alive[(start + k) % m]
        base, extra = divmod(n_full, m)
        counts = [base + 1] * extra + [base] * (m - extra)
        targets = alive[start:] + alive[:start] if start else alive
        tail = extra if rem else -1
        dropped, kept, tail_kept = _admit(targets, counts, tail, rem, self.config.quantum,
                                          self.bufs, self.bcaps, assigned)
        if dropped or m == 1:
            return dropped, _rr_reorder(kept, tail, tail_kept)
        return dropped, n_full - (0 if rem else 1)  # all kept, every step switches

    def _assign_wfq(self, alive, failed, assigned, n_full, rem):
        if self._weights is None:
            links = [self.group.links[i] for i in alive]
            self._weights = wfq_weights(AggregationGroup(self.group.group_id, links),
                                        self.config.wfq_direction)
            self._alive_ids = [l.id for l in links]
        ids = self._alive_ids
        known = self.state.wfq_deficits
        deficits = [known.get(i, 0.0) for i in ids]
        order = wfq_replay(deficits, self._weights, n_full + (1 if rem else 0))
        known.update(zip(ids, deficits))
        tail = order.pop() if rem else -1
        counts = [0] * len(alive)
        for k in order:
            counts[k] += 1
        dropped, kept, tail_kept = _admit(alive, counts, tail, rem, self.config.quantum,
                                          self.bufs, self.bcaps, assigned)
        if kept is not counts:
            # link k kept its first kept[k] selections
            left = list(kept)
            kept_order = []
            for k in order:
                if left[k]:
                    left[k] -= 1
                    kept_order.append(k)
            order = kept_order
        if tail_kept:
            order.append(tail)
        return dropped, sum(map(ne, order, order[1:]))

    def tick(self, demand: float, failed: frozenset):
        """Returns (assigned, transmitted, dropped, supplied_mbps, reorder); updates self.bufs."""
        if not 0.0 <= demand < math.inf:
            raise BadParameterError(f"demand must be finite and nonnegative, got {demand}")
        cfg = self.config
        bufs = self.bufs
        n = self.n
        if failed is not self._failed:
            ids = self.ids
            self._failed = failed
            self._alive = [i for i in range(n) if ids[i] not in failed]
            self._weights = None
        alive = self._alive
        assigned = [0.0] * n
        arrivals = demand * cfg.tick
        n_full, rem = _split_arrivals(arrivals, cfg.quantum)
        if n_full or rem:
            if alive or self._preference:  # vrrp raises when nothing is up
                dropped, reorder = self._assign(alive, failed, assigned, n_full, rem)
            else:
                dropped, reorder = arrivals, 0
        else:
            dropped, reorder = 0.0, 0
            if self._preference:  # vrrp tracks its master on idle ticks too
                vrrp_elect(self.group, self._preference, self.state, failed)

        transmitted = [0.0] * n
        supplied = 0.0
        for i in alive:
            tx = bufs[i]
            cap = self.drain[i]
            if tx > cap:
                tx = cap
            bufs[i] -= tx
            transmitted[i] = tx
            supplied += tx
        return assigned, transmitted, dropped, supplied / cfg.tick, reorder


def step(group: AggregationGroup, policy_state: PolicyState, config: EngineConfig,
         demand_mbps: float, failed: frozenset = frozenset(), t: float = 0.0) -> TickRecord:
    """Advance one tick on a live group, mutating link buffers in place.

    Arrivals of demand x tick megabits are split into quanta, each assigned
    by the configured policy against live buffer state, then every non-failed
    link drains up to capacity x tick.
    """
    validate_group(group.group_id, group.links, config.tick)
    _check_wfq_quanta(config, [(t, demand_mbps)])
    runner = _Runner(group, config, policy_state)
    assigned, tx, dropped, supplied, reorder = runner.tick(demand_mbps, frozenset(failed))
    for link, b in zip(group.links, runner.bufs):
        link.buffer = b
    return TickRecord(t, demand_mbps, tuple(assigned), tuple(tx), tuple(runner.bufs),
                      dropped, supplied, reorder)


def _failure_timeline(group: AggregationGroup, failures) -> list:
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
    return events


def run(group: AggregationGroup, config: EngineConfig, trace: DemandTrace,
        failures: Optional[Iterable[Sequence]] = None) -> SimulationResult:
    """Fold the engine over a demand trace.

    Starts from zero buffers and fresh policy state; the caller's group is
    left untouched. One tick per trace sample. Failure events
    (time_s, link_id, "up"/"down") take effect on the first sample at or
    after their time. Deterministic: identical inputs give identical results.
    """
    if not trace.samples:
        raise EmptyTraceError("demand trace has no samples")
    pristine = validate_group(group.group_id, group.links, config.tick)
    work = AggregationGroup(pristine.group_id,
                            [replace(l, buffer=0.0) for l in pristine.links])
    events = _failure_timeline(work, failures)
    _check_wfq_quanta(config, trace.samples)
    runner = _Runner(work, config, PolicyState())
    # columns in field order: t, demand, supplied, dropped; reorder; per-link three
    res = SimulationResult(config, pristine, *(array("d") for _ in range(4)),
                           array("q"), *(array("d") for _ in range(3)))
    # bound once; fromlist copies the per-link lists without building tuples
    add_dropped, add_supplied, add_reorder = (
        res.dropped.append, res.supplied.append, res.reorder.append)
    add_assigned, add_transmitted, add_buffer_end = (
        res.assigned.fromlist, res.transmitted.fromlist, res.buffer_end.fromlist)
    bufs = runner.bufs
    failed = set()
    fsnap = frozenset()
    ei = 0
    n_events = len(events)
    tick = runner.tick
    for t, demand in trace.samples:
        if ei < n_events and events[ei][0] <= t:
            while ei < n_events and events[ei][0] <= t:
                _, link_id, kind = events[ei]
                (failed.add if kind == "down" else failed.discard)(link_id)
                ei += 1
            fsnap = frozenset(failed)
        assigned, transmitted, dropped, supplied, reorder = tick(demand, fsnap)
        add_assigned(assigned)
        add_transmitted(transmitted)
        add_buffer_end(bufs)
        add_dropped(dropped)
        add_supplied(supplied)
        add_reorder(reorder)
    res.t.fromlist(trace.times())
    res.demand.fromlist(trace.demands())
    return res
