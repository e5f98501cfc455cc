"""Link selection policies, one private class each.

Four ways to pick an egress link for each unit of outgoing data:

* OLB  - spillover scan: the highest-priority link whose buffer is still
         below its threshold takes the quantum; lower-priority links absorb
         only what overflows, and the last link what all of them leave.
         Stateless.
* RR   - plain cyclic rotation over the group.
* WFQ  - proportional split by link cost, realized with exact per-link
         deficit counters (largest-deficit-first, smooth weighted round
         robin).
* VRRP - single-master baseline: one link carries everything, the rest idle
         until the master fails.

The engine builds one class from _RULES per run; it owns the policy's state,
caches and input checks, and assigns each tick's quanta in per-link batches.
OLB and VRRP share one spillover scan over (link, threshold) entries: OLB's
are the live links in priority order, then the last one again with no
threshold; VRRP's is its master alone, with no threshold. Each entry adds
its quanta in one step, so the last link's fallthrough is a second addition
after its threshold fill. RR and WFQ select first (RR in closed form, WFQ
from a table of its exact period, see swrr.py), then _admit keeps per link
the full quanta that fit under its cap.
On dyadic inputs every path equals the per-quantum rule bit for bit, which
the tests check against an independent brute-force simulator. The public
wfq_select and vrrp_select make one selection through the same rule.
"""

import enum
import math
from operator import ne
from typing import Optional, Sequence

from .errors import AllLinksFailedError, BadParameterError, ZeroCostError, _shown
from .links import AggregationGroup, _Record

# wfq still works per quantum where it replays its counters or lists a drop
# tick's picks (see swrr.Swrr); a run whose busiest tick would need more
# selections is rejected.
MAX_WFQ_QUANTA_PER_TICK = 2**20


class PolicyId(enum.Enum):
    OLB = "olb"
    ROUND_ROBIN = "rr"
    WFQ = "wfq"
    VRRP = "vrrp"

    @classmethod
    def parse(cls, name: str) -> "PolicyId":
        try:
            return cls(name.strip().lower())
        except (AttributeError, ValueError):  # AttributeError: name is not a str
            valid = ", ".join(p.value for p in cls)
            raise BadParameterError(
                f"unknown policy {_shown(name)} (expected one of: {valid})") from None


class WfqDirection(enum.Enum):
    INVERSE_COST = "inverse"  # cheaper links carry more (default)
    DIRECT_COST = "direct"    # weight proportional to cost

    @classmethod
    def parse(cls, name: str) -> "WfqDirection":
        try:
            return cls(name.strip().lower())
        except (AttributeError, ValueError):  # AttributeError: name is not a str
            raise BadParameterError(
                f"unknown wfq direction {_shown(name)} (expected 'inverse' or 'direct')") from None


class PolicyState(_Record):
    """Mutable run state carried from one step() call to the next.

    rr_cursor is the round-robin position; wfq_deficits maps link id to its
    deficit counter in quanta, an exact fraction held as a (numerator,
    denominator) pair of ints in lowest terms, absent meaning 0;
    vrrp_master records the link currently carrying all traffic; buffers
    maps link id to the megabits queued on it, absent meaning 0.0. OLB keeps
    no state of its own: its scan variables are locals of one call. Ids that
    name no link of the group stepped are ignored and kept.
    """

    __match_args__ = ("rr_cursor", "wfq_deficits", "vrrp_master", "buffers")

    def __init__(self, rr_cursor: int = 0, wfq_deficits: Optional[dict] = None,
                 vrrp_master: Optional[str] = None, buffers: Optional[dict] = None):
        self.rr_cursor = rr_cursor
        self.wfq_deficits = {} if wfq_deficits is None else wfq_deficits  # fresh per state
        self.vrrp_master = vrrp_master
        self.buffers = {} if buffers is None else buffers


def _check_state(state: PolicyState, ids) -> None:
    """Raise BadParameterError unless state's fields have their types and
    each wfq_deficits entry of ids is a (numerator, nonzero denominator) pair
    of ints; engine._setup and wfq_select call it before any change."""
    for name, value in (("buffers", state.buffers), ("wfq_deficits", state.wfq_deficits)):
        if not isinstance(value, dict):
            raise BadParameterError(f"{name} must be a dict, got {_shown(value)}")
    if not isinstance(state.rr_cursor, int) or isinstance(state.rr_cursor, bool):
        raise BadParameterError(f"rr_cursor must be an int, got {_shown(state.rr_cursor)}")
    for i in ids:
        pair = state.wfq_deficits.get(i, (0, 1))
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(
                isinstance(v, int) and not isinstance(v, bool) for v in pair) and pair[1]):
            raise BadParameterError(f"link {i}: wfq deficit {_shown(pair)} is not a "
                                    "(numerator, nonzero denominator) pair of ints")


def _admit(targets, counts, tail, rem, quantum, bufs, bcaps, assigned):
    """Batched buffer admission of one tick's selections.

    targets[k] was selected for counts[k] full quanta and, when tail >= 0,
    targets[tail] for the fractional rem after all of them. A link keeps
    full quanta while they fit under its cap, so min(count, room) of them
    with room the most that fit, and drops the rest whole; the tail is kept
    if it fits after that. Returns (dropped, kept, tail_kept) with kept[k]
    the full quanta targets[k] kept; kept is counts itself when no full
    quantum was dropped.

    Both fills of k full quanta, here and in _Olb.assign, take room =
    (cap - b) / quantum and, only when room < k + 1 (a larger room, even
    one past the float range, fits all k), floor it and lower it while
    b + room x quantum is past the cap. The rule is written out in both
    rather than called: a call per filled link slowed the wide benchmark
    workload, whose buffers sit near their caps. Every buffer stays in
    [0, cap]: engine._setup checks the starting ones, each fill leaves
    b + amount at most the cap, and a drain takes at most the buffer. So
    room is never negative and the loop lowering it stops at 0 at the latest.
    """
    dropped = 0.0
    kept = counts
    for k, i in enumerate(targets):
        c = counts[k]
        if not c:
            continue
        b = bufs[i]
        cap = bcaps[i]
        room = (cap - b) / quantum
        if room < c + 1:
            room = math.floor(room)
            while room > 0 and b + room * quantum > cap:  # the floor rounded up
                room -= 1
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


class _Rule:
    """One run of a policy over a validated group; bufs is the engine's buffer list.
    Subclasses define assign(assigned, n_full, rem), which enqueues n_full full
    quanta, then the fractional rem (0 if none), onto the live links (at least
    one), adds to bufs and assigned per link and returns (dropped, reorder).

    position() is what else a tick's outcome depends on between two refreshes,
    as a hashable value, or None when there is nothing that small; the engine
    keys its memo of ticks on it with the demand and the buffers (see
    engine.py). restore(pos) goes back to a value position() gave since the
    last refresh. olb and vrrp give (): refresh rebuilds their scan and they
    keep nothing else. rr gives its cursor, wfq its cycle phase once the live
    set's cycle is closed and None before that or in replay mode."""

    max_quanta = math.inf  # the most quanta one tick may split into

    def __init__(self, group: AggregationGroup, config, state: PolicyState, bufs: list):
        self.group = group
        self.config = config
        self.state = state
        self.quantum = config.quantum
        self.bufs = bufs
        self.thrs = [l.threshold for l in group.links]
        self.bcaps = [l.buffer_cap for l in group.links]
        if config.quantum > min(self.thrs):
            raise BadParameterError(
                f"quantum {config.quantum} exceeds smallest link threshold {min(self.thrs)}")

    def check(self, config, peak) -> None:
        """Reject a run whose busiest sample, peak = (t, demand) with demand
        in [0, inf), gives megabits or quanta beyond the float range, or
        needs more than max_quanta quanta in one tick, naming the smallest
        quantum that would do. It always raises: the engine calls it only
        once a tick that runs is past that bound, and both grow with
        demand, so peak is past it too."""
        t, demand = peak
        arrivals = demand * config.tick
        quanta = arrivals / config.quantum
        if not math.isfinite(quanta):
            raise BadParameterError(
                f"demand {demand} Mbps at t={t} with tick {config.tick} and quantum "
                f"{config.quantum} gives {arrivals} Mbit in {quanta} quanta, "
                f"beyond the float range")
        limit = self.max_quanta
        workable = arrivals / limit
        while arrivals / workable > limit:
            workable = math.nextafter(workable, math.inf)
        raise BadParameterError(
            f"{config.policy.value} needs {quanta:.6g} quanta for the "
            f"sample at t={t}, above the limit of {limit} per tick; "
            f"use --quantum {workable!r} or larger")

    def refresh(self, alive: list, failed: frozenset) -> None:
        """The failure set changed; alive lists the live links in priority order."""
        self.alive = alive

    def save(self) -> None:
        """Write state kept outside self.state back to it."""

    def position(self):
        return ()

    def restore(self, pos) -> None:
        pass


class _Olb(_Rule):
    def refresh(self, alive, failed):
        # the live links with their thresholds, then the last one again with
        # none: it takes whatever the others leave
        self.scan = [(i, self.thrs[i]) for i in alive] + [(i, math.inf) for i in alive[-1:]]

    def assign(self, assigned, n_full, rem):
        """Spillover scan in per-link batches.

        Mirrors the per-quantum rule exactly: each quantum goes to the first
        scan entry whose buffer is below its threshold, so an entry takes
        quanta until its buffer reaches the threshold. A quantum that would
        push it past its buffer cap is dropped in full and not redirected:
        the entry stays below its threshold and takes the rest of the tick.
        """
        bufs, bcaps, quantum = self.bufs, self.bcaps, self.quantum
        dropped = 0.0
        reorder = 0
        prev = -1
        full = n_full
        for i, thr in self.scan:
            b = bufs[i]
            while full and b < thr:  # again if rounding left b just below thr
                # every remaining quantum when they do not reach the
                # threshold, else just enough to reach it
                need = (thr - b) / quantum
                k = full if full < need else math.ceil(need)
                room = (bcaps[i] - b) / quantum
                if room < k + 1:  # see _admit
                    room = math.floor(room)
                    while room > 0 and b + room * quantum > bcaps[i]:  # the floor rounded up
                        room -= 1
                    if room < k:  # the cap comes first: keep what fits, drop the rest whole
                        dropped += (full - room) * quantum
                        full = k = room
                full -= k
                if k > 0:
                    amt = k * quantum
                    b = bufs[i] = b + amt
                    assigned[i] += amt
                    if prev >= 0 and i != prev:
                        reorder += 1
                    prev = i
            if not full:
                break
        if rem > 0:
            for i, thr in self.scan:
                if bufs[i] < thr:
                    break
            if bufs[i] + rem > bcaps[i]:
                dropped += rem
            else:
                bufs[i] += rem
                assigned[i] += rem
                if prev >= 0 and i != prev:
                    reorder += 1
        return dropped, reorder


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


class _RoundRobin(_Rule):
    max_quanta = 2**63 - 1  # a tick's switches, up to its quanta, go in an int64 column

    def position(self):
        return self.state.rr_cursor

    def restore(self, pos):
        self.state.rr_cursor = pos

    def assign(self, assigned, n_full, rem):
        alive = self.alive
        m = len(alive)
        # selection s goes to position (start + s) % m and the cursor ends just
        # past the last one: closed form, so a tick costs the same at any count
        start = self.state.rr_cursor % m
        self.state.rr_cursor = (start + n_full + (1 if rem else 0)) % m
        # position k of the rotation is alive[(start + k) % m]
        base, extra = divmod(n_full, m)
        counts = [base + 1] * extra + [base] * (m - extra)
        targets = alive[start:] + alive[:start] if start else alive
        tail = extra if rem else -1
        dropped, kept, tail_kept = _admit(targets, counts, tail, rem, self.quantum,
                                          self.bufs, self.bcaps, assigned)
        if dropped or m == 1:
            return dropped, _rr_reorder(kept, tail, tail_kept)
        return dropped, n_full - (0 if rem else 1)  # all kept, every step switches


def _cost_weights(costs, direction: WfqDirection) -> list:
    """Integer wfq weights of links with these costs (see swrr.int_weights)."""
    from .swrr import int_weights  # loaded only where wfq runs
    inverse = direction is WfqDirection.INVERSE_COST
    if inverse and any(c <= 0 for c in costs):
        raise ZeroCostError("inverse-cost weighting needs cost_per_gb > 0 on every link")
    if not any(costs):
        raise ZeroCostError("direct-cost weighting needs at least one positive cost")
    return int_weights(costs, inverse)


def wfq_weights(group: AggregationGroup,
                direction: WfqDirection = WfqDirection.INVERSE_COST) -> list:
    """Normalized per-link weights derived from link costs.

    inverse: weight ~ 1/cost, so cheap links carry more traffic.
    direct: weight ~ cost. Weights sum to 1. Each is the float nearest to
    the exact share wfq schedules by, with costs read as written decimals.
    """
    ints = _cost_weights([l.cost_per_gb for l in group.links], direction)
    total = sum(ints)
    return [a / total for a in ints]


def _kept_switches(order, left, tail, tail_kept, picks):
    """Link switches among the picks a wfq tick kept, in one pass over order.

    order lists the tick's full-quantum picks after those already in picks,
    which were all kept. _admit keeps each link's first kept[k] full quanta,
    all of one size, so of order it keeps each link's first left[k] picks,
    in order, then the tail if it was kept. left is used up.
    """
    for k in order:
        if left[k]:
            left[k] -= 1
            picks.append(k)
    if tail_kept:
        picks.append(tail)
    return sum(map(ne, picks, picks[1:]))


class _Wfq(_Rule):
    """wfq over the live links' swrr.Swrr: a tick selects its full quanta
    and the tail, then _admit keeps what fits. Its reorder count is the
    switches among the kept picks. Once the cycle is known they are read
    from its table when every full quantum was kept. Otherwise the picks
    are listed and filtered one by one (_kept_switches), except that a
    tick of at least 2P full quanta reads the switches of the whole cycles
    every capped link keeps from the table and lists only the rest."""

    swrr = None  # the live links' swrr.Swrr, None until a tick with arrivals

    max_quanta = MAX_WFQ_QUANTA_PER_TICK

    def refresh(self, alive, failed):
        self.save()
        self.alive = alive
        self.swrr = None

    def save(self):
        if self.swrr is not None:
            self.swrr.save(self.state.wfq_deficits)

    def position(self):
        swrr = self.swrr
        return None if swrr is None or swrr.cycle is None else swrr.phase

    def restore(self, pos):
        self.swrr.phase = pos

    def assign(self, assigned, n_full, rem):
        alive = self.alive
        swrr = self.swrr
        if swrr is None:
            links = [self.group.links[i] for i in alive]
            from .swrr import Swrr
            swrr = self.swrr = Swrr([l.id for l in links], _cost_weights(
                [l.cost_per_gb for l in links], self.config.wfq_direction),
                self.state.wfq_deficits)
        order = None
        if swrr.cycle is None:
            order = swrr.select(n_full + (1 if rem else 0))
            tail = order.pop() if rem else -1
            counts = [0] * len(alive)
            for k in order:
                counts[k] += 1
        else:
            p, counts, tail = swrr.take(n_full, rem)
            if not rem:
                tail = -1
        dropped, kept, tail_kept = _admit(alive, counts, tail, rem, self.quantum,
                                          self.bufs, self.bcaps, assigned)
        if order is None:
            if kept is counts:
                return dropped, swrr.switches(p, n_full + 1 if tail_kept else n_full)
            if n_full >= 2 * swrr.P:
                # any P cycle picks hold weights[k] of link k, and a capped
                # link keeps its first kept[k], so every pick of the first q
                # whole cycles is kept (q over capped links alone: only an
                # uncapped link can have weight 0). Their switches come from
                # the table; only the picks after them are listed, behind
                # the last of them
                w = swrr.weights
                q = min(h // a for h, c, a in zip(kept, counts, w) if h < c)
                if q:
                    n = q * swrr.P
                    left = [h - q * a for h, a in zip(kept, w)]
                    return dropped, swrr.switches(p, n) + _kept_switches(
                        swrr.slice(p, n_full - n), left, tail, tail_kept, [swrr.cycle[p - 1]])
            order = swrr.slice(p, n_full)
        return dropped, _kept_switches(order, list(kept), tail, tail_kept, [])


class _Vrrp(_Olb):
    @staticmethod
    def elect(group, state, failed):
        """Index of the first link in preference order (highest capacity
        first, link id breaks ties) that is up; records it as
        state.vrrp_master. Raises AllLinksFailedError when nothing is up."""
        links = group.links
        for i in sorted(range(group.n), key=lambda i: (-links[i].capacity, links[i].id)):
            link_id = links[i].id
            if link_id not in failed:
                state.vrrp_master = link_id
                return i
        raise AllLinksFailedError(f"group {group.group_id!r}: every link is down")

    def refresh(self, alive, failed):
        # the master depends on the failure set alone: elected here, idle ticks
        # included; olb's scan over it alone, with no threshold, is vrrp's rule
        self.scan = [(self.elect(self.group, self.state, failed), math.inf)]


# the class that runs each policy
_RULES = {PolicyId.OLB: _Olb, PolicyId.ROUND_ROBIN: _RoundRobin,
          PolicyId.WFQ: _Wfq, PolicyId.VRRP: _Vrrp}


def wfq_select(group: AggregationGroup, state: PolicyState, weights: Sequence[float]) -> int:
    """Largest-deficit-first proportional selection of one link.

    Runs wfq's exact rule (see swrr.Swrr) with shares in the ratio of weights,
    each read as the decimal its repr writes, so [1, 2, 3] gives exact
    shares 1/6, 1/3 and 1/2 and the float 1/6 does not. Over Q calls each
    link is selected within one quantum of Q times its share. Counters live
    in state.wfq_deficits, keyed by link id; step() checks the state alike.

    The floats wfq_weights returns only approximate the engine's shares (read
    as written, 0.16666666666666666 is not 1/6), so wfq_select fed with them
    does not follow the engine's schedule exactly, and builds its state from
    17-digit integers on each call. Integer or short-decimal weights in the
    engine's ratio, such as the costs themselves for direct weighting, do.
    """
    ids = group.link_ids()
    if len(weights) != len(ids):
        raise BadParameterError(
            f"{len(weights)} weights for {len(ids)} links")
    if not all(0 <= w < math.inf for w in weights) or not any(weights):
        raise BadParameterError(
            f"weights must be finite and nonnegative, not all zero: {list(weights)}")
    _check_state(state, ids)
    from .swrr import Swrr, int_weights
    swrr = Swrr(ids, int_weights(weights, False), state.wfq_deficits)
    best, = swrr.replay(1)
    swrr.save(state.wfq_deficits)
    return best


def vrrp_select(group: AggregationGroup, state: PolicyState, failed: frozenset = frozenset()) -> int:
    """Index of the current master: the most-preferred link that is up.

    The master is chosen independently of group priorities (capacity first,
    so the baseline mirrors a redundancy protocol fronting the fattest pipe).
    All quanta of a tick go to the master. Raises AllLinksFailedError when
    nothing is up.
    """
    return _Vrrp.elect(group, state, failed)
