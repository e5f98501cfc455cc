"""Domain types for uplinks and aggregation groups.

A Link models one uplink of a bundle: how fast it drains (capacity), where it
sits in the activation order (priority), what it costs per gigabyte carried,
and the two buffer levels that drive scheduling: the activation threshold at
which the spillover scan moves past it, and the hard cap beyond which
arrivals are dropped.
"""

import math
from typing import Iterable, Optional

from .errors import BadParameterError, DuplicatePriorityError, EmptyGroupError, _shown

# Applied when a link config leaves buffer_cap blank: cap = 4 x threshold.
# A finite cap bounds memory and defines when overload turns into drops.
DEFAULT_BUFFER_CAP_FACTOR = 4.0


class _Record:
    """Base of the package's record types: a repr and a field-wise == over
    __match_args__, the field names in constructor order (which also lets a
    match pattern take them by position). Records are mutable, so unhashable.
    """

    __slots__ = ()
    __match_args__ = ()
    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__match_args__
        return [getattr(self, f) for f in names] == [getattr(other, f) for f in names]


class Link(_Record):
    """One uplink in an aggregation group.

    capacity is in Mbps; threshold and buffer_cap are occupancies in
    megabits. priority 1 is the primary link, 2 the secondary, and so on.
    threshold/buffer_cap may be left None and resolved by validate_group.
    What a buffer holds between step() calls lives in PolicyState.buffers.
    """

    __match_args__ = ("id", "capacity", "priority", "cost_per_gb", "threshold", "buffer_cap")

    def __init__(self, id: str, capacity: float, priority: int, cost_per_gb: float = 0.0,
                 threshold: Optional[float] = None, buffer_cap: Optional[float] = None):
        self.id = id
        self.capacity = capacity
        self.priority = priority
        self.cost_per_gb = cost_per_gb
        self.threshold = threshold
        self.buffer_cap = buffer_cap


class AggregationGroup(_Record):
    """A validated, priority-ordered bundle of links.

    Instances should be produced by validate_group, which sorts links by
    ascending priority and checks every invariant. Links are held in scan
    order: links[0] is the primary.
    """

    __match_args__ = ("group_id", "links")

    def __init__(self, group_id: str, links: list):
        self.group_id = group_id
        self.links = links

    @property
    def n(self) -> int:
        return len(self.links)

    def link_ids(self) -> list:
        return [l.id for l in self.links]


def _real(value):
    """value as a float, or None for what is not a number to the library:
    a bool (True would pass every numeric check as 1), a str or bytes
    (float() reads '1_0' as 10, which every file reader rejects), or
    anything float() refuses. Ints, floats and Fractions pass."""
    if isinstance(value, (bool, str, bytes, bytearray)):
        return None
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return None


def default_threshold(link: Link, tick: float) -> float:
    """Default activation threshold: one tick's worth of drainable data.

    With this default a link saturates its threshold exactly when the load
    offered to it reaches its capacity, so the next link in the group starts
    carrying traffic exactly when cumulative demand exceeds the cumulative
    capacity of the links before it.
    """
    if not 0 < (_real(tick) or 0) < math.inf:
        raise BadParameterError(f"tick must be positive and finite, got {_shown(tick)}")
    return link.capacity * float(tick)  # a float, inf past the float range


def validate_group(group_id: str, links: Iterable[Link], tick: float = 1.0) -> AggregationGroup:
    """Validate aggregation parameters and return a priority-sorted group.

    Resolves missing thresholds (capacity x tick) and buffer caps
    (4 x threshold), checks all link invariants, and enforces unique ids and
    priorities. Raises EmptyGroupError, DuplicatePriorityError, or
    BadParameterError. Validating an already-valid group returns an equal
    group.
    """
    resolved = []
    for link in links:
        if not isinstance(link.id, str):  # the readers make str ids; an int may be too long to print
            raise BadParameterError(f"link id must be a str, got {_shown(link.id)}")
        if not link.id:
            raise BadParameterError("link id must be non-empty")
        for what, value in (("capacity", link.capacity), ("cost_per_gb", link.cost_per_gb),
                            ("threshold", link.threshold), ("buffer_cap", link.buffer_cap)):
            # True would pass as 1 below and text would fail the comparisons;
            # only threshold and buffer_cap may be None, for their defaults
            if _real(value) is None and (value is not None or what in ("capacity", "cost_per_gb")):
                raise BadParameterError(f"link {link.id}: {what} must be a number, got {_shown(value)}")
        # chained comparisons are False for NaN, so each check also rejects it
        if not 0 < link.capacity < math.inf:
            raise BadParameterError(
                f"link {link.id}: capacity must be positive and finite, got {_shown(link.capacity)}")
        prio = link.priority
        if isinstance(prio, bool) or not isinstance(prio, int) or prio < 1:  # True is an int
            raise BadParameterError(
                f"link {link.id}: priority must be a positive integer, got {_shown(prio)}")
        if not 0 <= link.cost_per_gb < math.inf:
            raise BadParameterError(
                f"link {link.id}: cost_per_gb must be nonnegative and finite, got {_shown(link.cost_per_gb)}")
        threshold = link.threshold if link.threshold is not None else default_threshold(link, tick)
        if not 0 < threshold < math.inf:
            raise BadParameterError(
                f"link {link.id}: threshold must be positive and finite, got {threshold}")
        buffer_cap = link.buffer_cap if link.buffer_cap is not None else DEFAULT_BUFFER_CAP_FACTOR * threshold
        if buffer_cap < threshold:
            raise BadParameterError(
                f"link {link.id}: buffer_cap {buffer_cap} is below threshold {threshold}")
        if not buffer_cap < math.inf:
            raise BadParameterError(f"link {link.id}: buffer_cap must be finite, got {buffer_cap}")
        resolved.append(Link(link.id, link.capacity, link.priority, link.cost_per_gb,
                             threshold, buffer_cap))

    if not resolved:
        raise EmptyGroupError(f"group {group_id!r} has no links")

    seen_prio = {}
    seen_id = set()
    for link in resolved:
        if link.priority in seen_prio:
            raise DuplicatePriorityError(
                f"links {seen_prio[link.priority]} and {link.id} share priority {link.priority}")
        seen_prio[link.priority] = link.id
        if link.id in seen_id:
            raise BadParameterError(f"duplicate link id {link.id}")
        seen_id.add(link.id)

    resolved.sort(key=lambda l: l.priority)
    return AggregationGroup(group_id=group_id, links=resolved)
