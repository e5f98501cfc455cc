"""Per-quantum link selection policies.

Four ways to pick an egress link for each unit of outgoing data:

* OLB  - spillover scan: the highest-priority link whose buffer is still
         below its threshold takes the quantum; lower-priority links absorb
         only what overflows. Stateless.
* RR   - plain cyclic rotation over the group.
* WFQ  - proportional split by link cost, realized with per-link deficit
         counters (largest-deficit-first).
* VRRP - single-master baseline: one link carries everything, the rest idle
         until the master fails.

All policies are deterministic pure functions of the group snapshot and the
policy state; there is no randomness anywhere.
"""

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import AllLinksFailedError, BadParameterError, ZeroCostError
from .links import AggregationGroup


class PolicyId(enum.Enum):
    OLB = "olb"
    ROUND_ROBIN = "rr"
    WFQ = "wfq"
    VRRP = "vrrp"

    @classmethod
    def parse(cls, name: str) -> "PolicyId":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise BadParameterError(f"unknown policy {name!r} (expected one of: {valid})") from None


class WfqDirection(enum.Enum):
    INVERSE_COST = "inverse"  # cheaper links carry more (default)
    DIRECT_COST = "direct"    # weight proportional to cost

    @classmethod
    def parse(cls, name: str) -> "WfqDirection":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise BadParameterError(
                f"unknown wfq direction {name!r} (expected 'inverse' or 'direct')") from None


@dataclass
class PolicyState:
    """Mutable scheduling state carried across selection calls.

    rr_cursor is the round-robin position; wfq_deficits maps link id to its
    deficit counter (counters may dip below zero by at most one quantum
    between calls); vrrp_master records the link currently carrying all
    traffic. OLB keeps no state: its scan variables are locals of one call.
    """

    rr_cursor: int = 0
    wfq_deficits: dict = field(default_factory=dict)
    vrrp_master: Optional[str] = None


def olb_select(group: AggregationGroup) -> int:
    """Index of the first link, in ascending priority order, whose buffer is
    below its threshold.

    When every buffer is at or above threshold the scan falls through and the
    last link is returned anyway; the caller turns an over-cap enqueue there
    into a drop.
    """
    links = group.links
    for i, link in enumerate(links):
        if link.buffer < link.threshold:
            return i
    return len(links) - 1


def rr_take(state: PolicyState, m: int, count: int) -> int:
    """Start position of count consecutive round-robin selections over m links.

    Selection s goes to position (start + s) % m; the cursor ends just past
    the last one. Closed form, so a tick costs the same at any count.
    """
    start = state.rr_cursor % m
    state.rr_cursor = (start + count) % m
    return start


def rr_select(group: AggregationGroup, state: PolicyState) -> int:
    """Cyclic selection; advances the cursor modulo the group size."""
    return rr_take(state, group.n, 1)


def wfq_weights(group: AggregationGroup,
                direction: WfqDirection = WfqDirection.INVERSE_COST) -> list:
    """Normalized per-link weights derived from link costs.

    inverse: weight ~ 1/cost, so cheap links carry more traffic.
    direct: weight ~ cost. Weights sum to 1.
    """
    costs = [l.cost_per_gb for l in group.links]
    if direction is WfqDirection.INVERSE_COST:
        if any(c <= 0 for c in costs):
            raise ZeroCostError("inverse-cost weighting needs cost_per_gb > 0 on every link")
        raw = [1.0 / c for c in costs]
    else:
        if all(c == 0 for c in costs):
            raise ZeroCostError("direct-cost weighting needs at least one positive cost")
        raw = list(costs)
    total = sum(raw)
    return [r / total for r in raw]


def wfq_replay(deficits: list, weights: Sequence[float], count: int) -> list:
    """Run count largest-deficit-first selections on a list of counters.

    Each selection credits every link with its weight, picks the largest
    deficit (ties go to the lowest index), and debits one quantum from the
    winner. deficits is updated in place; returns the selected indices in
    order. The float operations and their order are the same for every
    count, so one call of count k equals k calls of count 1 bit for bit.
    """
    order = []
    rest = range(1, len(deficits))
    for _ in range(count):
        best = 0
        best_d = deficits[0] = deficits[0] + weights[0]
        for i in rest:
            d = deficits[i] = deficits[i] + weights[i]
            if d > best_d:
                best = i
                best_d = d
        deficits[best] = best_d - 1.0
        order.append(best)
    return order


def wfq_select(group: AggregationGroup, state: PolicyState, weights: Sequence[float]) -> int:
    """Largest-deficit-first proportional selection of one link.

    Over Q calls each link is selected within one quantum of Q times its
    weight. Counters live in state.wfq_deficits, keyed by link id.
    """
    ids = group.link_ids()
    if len(weights) != len(ids):
        raise BadParameterError(
            f"{len(weights)} weights for {len(ids)} links")
    known = state.wfq_deficits
    deficits = [known.get(i, 0.0) for i in ids]
    best = wfq_replay(deficits, weights, 1)[0]
    known.update(zip(ids, deficits))
    return best


def vrrp_preference(group: AggregationGroup) -> list:
    """Master preference order: highest capacity first, link id breaks ties."""
    return sorted(range(group.n),
                  key=lambda i: (-group.links[i].capacity, group.links[i].id))


def vrrp_elect(group: AggregationGroup, preference: Sequence[int], state: PolicyState,
               failed: frozenset = frozenset()) -> int:
    """Index of the first link in preference order that is up; records it as
    state.vrrp_master. Raises AllLinksFailedError when nothing is up."""
    links = group.links
    for i in preference:
        link_id = links[i].id
        if link_id not in failed:
            state.vrrp_master = link_id
            return i
    raise AllLinksFailedError(f"group {group.group_id!r}: every link is down")


def vrrp_select(group: AggregationGroup, state: PolicyState, failed: frozenset = frozenset()) -> int:
    """Index of the current master: the most-preferred link that is up.

    The master is chosen independently of group priorities (capacity first,
    so the baseline mirrors a redundancy protocol fronting the fattest pipe).
    All quanta of a tick go to the master. Raises AllLinksFailedError when
    nothing is up.
    """
    return vrrp_elect(group, vrrp_preference(group), state, failed)
