"""The record types keep the constructors, repr, == and hashing they had as
dataclasses: positional and keyword construction with the same defaults, the
same repr text, field-wise equality, and no hash."""

from array import array

import pytest

from rla import (AggregationGroup, BadParameterError, CostReport, DemandTrace, EngineConfig,
                 Link, PolicyId, PolicyState, SimulationResult, TickRecord, WfqDirection)

OLB, RR = PolicyId.OLB, PolicyId.ROUND_ROBIN
INV, DIR = WfqDirection.INVERSE_COST, WfqDirection.DIRECT_COST
LINK = Link("a", 2.0, 1, 0.5, 2.0, 8.0)
CONFIG = EngineConfig(OLB, 1.0, 0.5, INV)


def _cols(*values):
    return [array("q" if isinstance(v, int) else "d", [v]) for v in values]


# type, its fields in constructor order, one value per field, and for each
# field another value; every record type but DemandTrace, whose constructor
# takes samples
CASES = [
    (Link, ("id", "capacity", "priority", "cost_per_gb", "threshold", "buffer_cap"),
     ("a", 2.0, 1, 0.5, 2.0, 8.0), ("b", 3.0, 2, 1.5, 3.0, 9.0)),
    (AggregationGroup, ("group_id", "links"), ("g", [LINK]), ("h", [])),
    (EngineConfig, ("policy", "tick", "quantum", "wfq_direction"),
     (OLB, 1.0, 0.5, INV), (RR, 2.0, 0.25, DIR)),
    (TickRecord, ("t", "demand", "assigned", "transmitted", "buffer_end", "dropped",
                  "supplied_mbps", "reorder_events"),
     (1.0, 3.0, (3.0,), (2.0,), (1.0,), 0.0, 2.0, 0),
     (2.0, 4.0, (4.0,), (3.0,), (2.0,), 1.0, 3.0, 1)),
    (SimulationResult, ("config", "group", "t", "demand", "supplied", "dropped", "reorder",
                        "assigned", "transmitted", "buffer_end"),
     (CONFIG, AggregationGroup("g", [LINK]), *_cols(0.0, 1.0, 1.0, 0.0, 0, 1.0, 1.0, 0.0)),
     (EngineConfig(RR), AggregationGroup("h", []), *_cols(1.0, 2.0, 2.0, 1.0, 1, 2.0, 2.0, 1.0))),
    (PolicyState, ("rr_cursor", "wfq_deficits", "vrrp_master", "buffers"),
     (0, {}, None, {}), (1, {"a": (1, 2)}, "a", {"a": 1.5})),
    (CostReport, ("per_link", "total_gb", "total_cost", "annual_cost"),
     ([("a", 1.0, 0.5, 0.5)], 1.0, 0.5, 182.5), ([], 2.0, 1.0, 365.0)),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("kind, names, values, others", CASES, ids=IDS)
def test_construction_by_position_and_keyword(kind, names, values, others):
    by_position = kind(*values)
    by_keyword = kind(**dict(zip(names, values)))
    for rec in (by_position, by_keyword):
        assert tuple(getattr(rec, name) for name in names) == values
    assert by_position == by_keyword
    assert kind.__match_args__ == names


def test_defaults():
    link = Link("a", 2.0, 1)
    assert (link.cost_per_gb, link.threshold, link.buffer_cap) == (0.0, None, None)
    config = EngineConfig(OLB)
    assert (config.tick, config.quantum, config.wfq_direction) == (1.0, 1.0, INV)
    state = PolicyState()
    assert (state.rr_cursor, state.wfq_deficits, state.vrrp_master, state.buffers) == \
        (0, {}, None, {})
    assert state.wfq_deficits is not PolicyState().wfq_deficits
    assert state.buffers is not PolicyState().buffers
    with pytest.raises(TypeError):
        Link("a", 2.0)  # priority has no default


@pytest.mark.parametrize("kind, names, values, others", CASES, ids=IDS)
def test_equality_is_field_by_field(kind, names, values, others):
    rec = kind(*values)
    assert rec == kind(*values) and not rec != kind(*values)
    for k in range(len(names)):
        changed = kind(*values[:k], others[k], *values[k + 1:])
        assert rec != changed and not rec == changed, names[k]
    assert (rec == values) is False and rec != values
    assert (rec == object()) is False


@pytest.mark.parametrize("kind, names, values, others", CASES, ids=IDS)
def test_records_are_unhashable(kind, names, values, others):
    with pytest.raises(TypeError):
        hash(kind(*values))


def test_demand_trace_equality_and_hash():
    trace = DemandTrace([(0, 1.0), (1, 3.0)])
    assert trace == DemandTrace([(0.0, 1), (1.0, 3)])
    assert trace != DemandTrace([(0, 1.0), (2, 3.0)])  # t differs
    assert trace != DemandTrace([(0, 1.0), (1, 4.0)])  # demand differs
    assert (trace == trace.samples) is False
    with pytest.raises(TypeError):
        hash(trace)
    assert DemandTrace.__match_args__ == ("t", "demand")


def test_repr_text_is_the_dataclass_text():
    link = Link("a", 2.0, 1, 0.5, 2.0, 8.0)
    group = AggregationGroup("g", [link])
    config = EngineConfig(OLB, quantum=0.5)
    trace = DemandTrace([(0, 1.0), (1, 3.0)])
    result = SimulationResult(config, group, *_cols(0.0, 1.0, 1.0, 0.0, 0, 1.0, 1.0, 0.0))
    record = TickRecord(1.0, 3.0, (3.0,), (2.0,), (1.0,), 0.0, 2.0, 0)
    report = CostReport([("a", 0.000375, 0.5, 0.0001875)], 0.000375, 0.0001875, 0.0684375)
    link_text = ("Link(id='a', capacity=2.0, priority=1, cost_per_gb=0.5, threshold=2.0, "
                 "buffer_cap=8.0)")
    config_text = ("EngineConfig(policy=<PolicyId.OLB: 'olb'>, tick=1.0, quantum=0.5, "
                   "wfq_direction=<WfqDirection.INVERSE_COST: 'inverse'>)")
    group_text = f"AggregationGroup(group_id='g', links=[{link_text}])"
    assert repr(Link("a", 1.0, 1)) == (
        "Link(id='a', capacity=1.0, priority=1, cost_per_gb=0.0, threshold=None, "
        "buffer_cap=None)")
    assert repr(link) == link_text
    assert repr(group) == group_text
    assert repr(config) == config_text
    assert repr(PolicyState()) == (
        "PolicyState(rr_cursor=0, wfq_deficits={}, vrrp_master=None, buffers={})")
    assert repr(trace) == "DemandTrace(t=array('d', [0.0, 1.0]), demand=array('d', [1.0, 3.0]))"
    assert repr(result) == (
        f"SimulationResult(config={config_text}, group={group_text}, t=array('d', [0.0]), "
        "demand=array('d', [1.0]), supplied=array('d', [1.0]), dropped=array('d', [0.0]), "
        "reorder=array('q', [0]), assigned=array('d', [1.0]), transmitted=array('d', [1.0]), "
        "buffer_end=array('d', [0.0]))")
    assert repr(record) == (
        "TickRecord(t=1.0, demand=3.0, assigned=(3.0,), transmitted=(2.0,), "
        "buffer_end=(1.0,), dropped=0.0, supplied_mbps=2.0, reorder_events=0)")
    assert repr(report) == (
        "CostReport(per_link=[('a', 0.000375, 0.5, 0.0001875)], total_gb=0.000375, "
        "total_cost=0.0001875, annual_cost=0.0684375)")


def test_engine_config_checks_its_fields():
    with pytest.raises(BadParameterError):
        EngineConfig(policy="olb")
    with pytest.raises(BadParameterError):
        EngineConfig(OLB, wfq_direction="inverse")
    for bad in (0.0, -1.0, float("inf"), float("nan"), True):
        with pytest.raises(BadParameterError):
            EngineConfig(OLB, tick=bad)
        with pytest.raises(BadParameterError):
            EngineConfig(OLB, quantum=bad)


def test_tick_record_has_slots_only():
    record = TickRecord(1.0, 3.0, (3.0,), (2.0,), (1.0,), 0.0, 2.0, 0)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


def test_match_takes_fields_by_position():
    match Link("a", 2.0, 1):
        case Link(link_id, capacity, priority):
            assert (link_id, capacity, priority) == ("a", 2.0, 1)
        case _:
            pytest.fail("Link did not match by position")
