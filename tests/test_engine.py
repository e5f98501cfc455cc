import gc
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from oracle import oracle_run

from rla import (
    AggregationGroup,
    AllLinksFailedError,
    BadParameterError,
    DemandTrace,
    EngineConfig,
    Link,
    PolicyId,
    PolicyState,
    WfqDirection,
    run,
    scenario_group,
    step,
    validate_group,
    wfq_select,
)
from rla import engine
from rla.engine import MEMO_TRIAL, MEMO_WORDS, _failure_timeline, _store_rows
from rla.policies import _RULES, MAX_WFQ_QUANTA_PER_TICK
from rla.traceio import ROWS


def group(*caps, costs=None, cap_factor=None):
    links = []
    for i, c in enumerate(caps):
        thr = None
        bcap = None
        if cap_factor is not None:
            thr = float(c)
            bcap = thr * cap_factor
        links.append(Link(id=f"l{i}", capacity=float(c), priority=i + 1,
                          cost_per_gb=(costs[i] if costs else 1.0),
                          threshold=thr, buffer_cap=bcap))
    return validate_group("g", links)


def const(d, n=6):
    return DemandTrace([(float(i), float(d)) for i in range(n)])


def cfg(policy="olb", **kw):
    return EngineConfig(policy=PolicyId.parse(policy), **kw)


# --- config validation ---

@pytest.mark.parametrize("kw", [dict(tick=0.0), dict(tick=-1.0), dict(quantum=0.0)])
def test_bad_config_rejected(kw):
    with pytest.raises(BadParameterError):
        cfg(**kw)


@pytest.mark.parametrize("kw", [dict(policy="olb"), dict(policy="OLB"), dict(policy=None),
                                dict(policy=PolicyId.WFQ, wfq_direction="inverse"),
                                dict(policy=PolicyId.WFQ, wfq_direction="direct")])
def test_config_rejects_names_in_place_of_enums(kw):
    # a string is not coerced: an unchecked "inverse" fails the policies'
    # identity test on WfqDirection and would run direct-cost weighting
    with pytest.raises(BadParameterError, match="must be a (PolicyId|WfqDirection)"):
        EngineConfig(**kw)


def test_quantum_larger_than_threshold_rejected():
    g = group(2.0, 8.0)
    with pytest.raises(BadParameterError, match="quantum"):
        run(g, cfg(quantum=4.0), const(5.0))


@pytest.mark.parametrize("policy", ["olb", "rr", "wfq", "vrrp"])
def test_step_resolves_a_group_as_run_does(policy):
    # unresolved (b has no threshold or cap) and out of priority order: step()
    # validates it as run() does, so b takes the default threshold and a,
    # priority 1, comes first; the caller's group is left as it was
    g = AggregationGroup("g", [Link("b", 6.0, 2, 3.0),
                               Link("a", 10.0, 1, 1.0, 10.0, 40.0)])
    before = AggregationGroup(g.group_id, [Link(l.id, l.capacity, l.priority, l.cost_per_gb,
                                                l.threshold, l.buffer_cap) for l in g.links])
    c = cfg(policy, tick=0.5, quantum=0.5)
    want = run(g, c, DemandTrace([(0.0, 30.0)])).records[0]
    st = PolicyState()
    assert step(g, st, c, 30.0) == want
    assert st.buffers == dict(zip(["a", "b"], want.buffer_end))
    assert g == before


def test_step_rejects_unknown_failed_id():
    g = group(5.0, 3.0)
    with pytest.raises(BadParameterError, match="unknown link 'zzz'"):
        step(g, PolicyState(), cfg(), 4.0, failed=frozenset({"zzz"}))
    with pytest.raises(BadParameterError, match="unknown link 'zzz'"):
        run(g, cfg(), const(4.0), failures=[(0.0, "zzz", "down")])


AB = AggregationGroup("g", [Link("a", 4.0, 1, 1.0), Link("b", 4.0, 2, 1.0)])
EVENT = r"failure event must be \(t, link_id, kind\), got "


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda st: run(AB, cfg(), const(4.0), [(0, "a")]), EVENT + r"\(0, 'a'\)",
                 id="two-fields"),
    pytest.param(lambda st: run(AB, cfg(), const(4.0), [(0, "a", "down", 1)]), EVENT,
                 id="four-fields"),
    pytest.param(lambda st: run(AB, cfg(), const(4.0), [5]), EVENT + "5", id="int-event"),
    pytest.param(lambda st: run(AB, cfg(), const(4.0), [(10**5000, "a")]),
                 EVENT + "a tuple holding an int too long to show", id="huge-int-event"),
    pytest.param(lambda st: run(AB, cfg(), const(4.0), 5),
                 "failures must be an iterable of events, got 5", id="int-failures"),
    pytest.param(lambda st: run(AB, cfg(), const(4.0), "ab"),
                 "failures must be an iterable of events, got 'ab'", id="str-failures"),
    pytest.param(lambda st: step(AB, st, cfg(), 4.0, failed=5),
                 "failed must be a collection of link ids, got 5", id="int-failed"),
    # a str would take each of its characters down, here both links
    pytest.param(lambda st: step(AB, st, cfg(), 4.0, failed="ab"),
                 "failed must be a collection of link ids, got 'ab'", id="str-failed"),
    pytest.param(lambda st: step(AB, st, cfg(), 4.0, failed=b"ab"),
                 "failed must be a collection of link ids, got b'ab'", id="bytes-failed"),
    pytest.param(lambda st: step(AB, st, cfg(), 4.0, failed=None),
                 "failed must be a collection of link ids, got None", id="none-failed"),
])
def test_malformed_failure_events_and_failed_sets_are_rejected(call, message):
    st = PolicyState()
    with pytest.raises(BadParameterError, match=message):
        call(st)
    assert st == PolicyState()


# --- single-tick semantics ---

def test_step_fills_primary_first():
    g = group(5.0, 3.0)
    rec = step(g, PolicyState(), cfg(), 7.0)
    assert rec.assigned == (5.0, 2.0)
    assert rec.transmitted == (5.0, 2.0)
    assert rec.buffer_end == (0.0, 0.0)
    assert rec.supplied_mbps == 7.0 and rec.dropped == 0.0


def test_step_mutates_buffers():
    g = group(5.0, 3.0, cap_factor=4.0)
    st = PolicyState()
    rec = step(g, st, cfg(), 12.0)
    # 12 arrives, 5+3=8 drains; 4 of backlog stays, all on the last link
    assert rec.dropped == 0.0
    assert rec.buffer_end == (0.0, 4.0)
    assert st.buffers == {"l0": 0.0, "l1": 4.0}
    # the next step starts from them: l1 drains 3 of its 4
    assert step(g, st, cfg(), 0.0).transmitted == (0.0, 3.0)
    assert st.buffers == {"l0": 0.0, "l1": 1.0}


def test_step_starts_from_state_buffers():
    g = group(5.0, 3.0, cap_factor=4.0)  # caps 20 and 12
    st = PolicyState(buffers={"l1": 10.0})  # l0 absent: empty
    rec = step(g, st, cfg(), 4.0)
    assert rec.assigned == (4.0, 0.0)
    assert rec.transmitted == (4.0, 3.0)
    assert st.buffers == {"l0": 0.0, "l1": 7.0}


@pytest.mark.parametrize("buffer", [-1.0, True, float("nan"), 12.5, "3", None])
def test_step_rejects_bad_state_buffer(buffer):
    g = group(5.0, 3.0, cap_factor=4.0)  # l1's cap is 12
    st = PolicyState(buffers={"l1": buffer})
    with pytest.raises(BadParameterError, match="link l1: buffer .* outside \\[0, 12.0\\]"):
        step(g, st, cfg(), 1.0)
    assert st.buffers == {"l1": buffer}


def test_step_ignores_and_keeps_buffers_of_other_ids():
    # as wfq_deficits' entries for links not in the group are
    g = group(5.0, 3.0)
    st = PolicyState(buffers={"gone": -7.0, "l0": 2.0})
    rec = step(g, st, cfg(), 0.0)
    assert rec.transmitted == (2.0, 0.0)
    assert st.buffers == {"gone": -7.0, "l0": 0.0, "l1": 0.0}


@pytest.mark.parametrize("policy, kw, message", [
    ("wfq", dict(wfq_deficits={"P4": (1, 0)}), "link P4: wfq deficit"),
    ("wfq", dict(wfq_deficits={"P4": "x"}), "link P4: wfq deficit"),
    ("wfq", dict(wfq_deficits={"P4": (1, 2, 3)}), "link P4: wfq deficit"),
    ("wfq", dict(wfq_deficits={"P4": (1.5, 2)}), "link P4: wfq deficit"),
    ("wfq", dict(wfq_deficits={"P4": (True, 1)}), "link P4: wfq deficit"),
    ("wfq", dict(wfq_deficits=[1]), "wfq_deficits must be a dict, got \\[1\\]"),
    ("olb", dict(buffers=[1]), "buffers must be a dict, got \\[1\\]"),
    ("rr", dict(rr_cursor="a"), "rr_cursor must be an int, got 'a'"),
    ("rr", dict(rr_cursor=1.5), "rr_cursor must be an int, got 1.5"),
    ("rr", dict(rr_cursor=None), "rr_cursor must be an int, got None"),
    ("rr", dict(rr_cursor=True), "rr_cursor must be an int, got True"),
])
def test_step_and_wfq_select_reject_a_malformed_state(policy, kw, message):
    # each gave a ZeroDivisionError, ValueError, TypeError or AttributeError
    # from inside the rule, or (True) was read as 1
    g, st = scenario_group(2), PolicyState(**kw)
    with pytest.raises(BadParameterError, match=message):
        step(g, st, cfg(policy), 7.0)
    with pytest.raises(BadParameterError, match=message):
        wfq_select(g, st, [1] * g.n)
    assert st == PolicyState(**kw)


def test_step_takes_a_huge_rr_cursor_and_an_unreduced_wfq_pair():
    g = scenario_group(2)
    big, small = PolicyState(rr_cursor=2**200), PolicyState(rr_cursor=2**200 % 3)
    assert step(g, big, cfg("rr"), 7.0) == step(g, small, cfg("rr"), 7.0)
    assert big == small
    unreduced = PolicyState(wfq_deficits={"P4": (2, 4), "gone": "x"})
    reduced = PolicyState(wfq_deficits={"P4": (1, 2), "gone": "x"})
    assert step(g, unreduced, cfg("wfq"), 7.0) == step(g, reduced, cfg("wfq"), 7.0)
    assert unreduced == reduced
    unreduced.wfq_deficits["P4"] = (2, 4)
    reduced.wfq_deficits["P4"] = (1, 2)
    assert wfq_select(g, unreduced, [1] * g.n) == wfq_select(g, reduced, [1] * g.n)
    assert unreduced == reduced


def test_step_drops_at_cap():
    # spillover fills each buffer to threshold (5, 3), then the fallthrough
    # tops up the last link to its cap (12); the rest is dropped
    g = group(5.0, 3.0)  # caps default to threshold x4 = 20/12
    rec = step(g, PolicyState(), cfg(), 50.0)
    assert rec.assigned == (5.0, 12.0)
    assert rec.dropped == 33.0
    assert rec.transmitted == (5.0, 3.0)
    assert rec.buffer_end == (0.0, 9.0)


def test_conservation_every_tick():
    g = group(5.0, 3.0)
    st = PolicyState()
    prev = [0.0, 0.0]
    for d in (12.0, 0.0, 7.5, 50.0, 1.25):
        rec = step(g, st, cfg(), d)
        assert sum(rec.assigned) + rec.dropped == pytest.approx(d)
        for i in range(2):
            assert rec.buffer_end[i] == pytest.approx(
                prev[i] + rec.assigned[i] - rec.transmitted[i])
        prev = list(rec.buffer_end)


@pytest.mark.parametrize("policy", ["olb", "rr", "wfq", "vrrp"])
def test_full_quanta_never_fill_past_the_cap(policy):
    # 15.6 / 0.4 is 39.0 in floats, but 39 x 0.4 rounds to
    # 15.600000000000001, an ulp past the cap: 38 quanta fit, and the 39th
    # is dropped with the other three
    g = validate_group("g", [Link("a", 16.8, 1, cost_per_gb=1.0,
                                  threshold=15.6, buffer_cap=15.6)])
    rec = run(g, cfg(policy, quantum=0.4), DemandTrace([(0.0, 16.8)])).records[0]
    assert rec.assigned == (38 * 0.4,) and rec.dropped == 1.6
    assert rec.assigned[0] <= 15.6


# a room (cap - buffer) / quantum past the float range keeps every quantum:
# (1.7e308 - 0) / 0.5 is inf, and so is 4e10 / 1e-300 for a 1e10 Mbps link
# with the default threshold and cap
@pytest.mark.parametrize("policy, case", [
    *[(p, "cap") for p in ("olb", "rr", "wfq", "vrrp")],
    *[(p, "quantum") for p in ("olb", "vrrp")],
])
def test_room_past_the_float_range_keeps_every_quantum(policy, case):
    links, quantum = {
        "cap": ([Link(i, 10.0, k, 1.0, 1.0, 1.7e308) for k, i in ((1, "a"), (2, "b"))], 0.5),
        "quantum": ([Link("a", 1e10, 1, 1.0)], 1e-300)}[case]
    trace = DemandTrace([(0.0, 5.0), (1.0, 20.0), (2.0, 7.5)])
    res = run(validate_group("g", links), cfg(policy, quantum=quantum), trace)
    n = len(links)
    for k, demand in enumerate(trace.demand):
        assert sum(res.assigned[k * n:(k + 1) * n]) + res.dropped[k] == pytest.approx(demand)
        assert res.dropped[k] == 0.0  # nothing comes near a cap


@pytest.mark.parametrize("policy", ["olb", "rr", "wfq", "vrrp"])
def test_link_left_past_its_cap_takes_nothing(policy):
    # the first tick fills 38 x 0.4 = 15.200000000000001 of the 15.6 cap, and
    # a drain of 1e-20 Mbit leaves it there: the next tick's room is under
    # one quantum
    g = validate_group("g", [Link("a", 1e-20, 1, cost_per_gb=1.0,
                                  threshold=15.6, buffer_cap=15.6)])
    res = run(g, cfg(policy, quantum=0.4), DemandTrace([(0.0, 16.8), (1.0, 16.8)]))
    assert res.assigned[0] + res.dropped[0] == pytest.approx(16.8)
    assert (res.assigned[1], res.dropped[1]) == (0.0, 16.8)


def test_fractional_quantum_tail():
    g = group(5.0)
    rec = step(g, PolicyState(), cfg(), 2.75)
    assert rec.assigned == (2.75,)
    assert rec.supplied_mbps == 2.75


def test_zero_demand_tick():
    g = group(5.0)
    rec = step(g, PolicyState(), cfg(), 0.0)
    assert rec.assigned == (0.0,) and rec.supplied_mbps == 0.0


def test_tick_scales_arrivals_and_drain():
    g = validate_group("g", [Link(id="a", capacity=5.0, priority=1)], tick=2.0)
    rec = step(g, PolicyState(), cfg(tick=2.0), 4.0)
    assert rec.assigned == (8.0,)       # 4 Mbps x 2 s
    assert rec.transmitted == (8.0,)    # within 5 Mbps x 2 s drain
    assert rec.supplied_mbps == 4.0


# --- failures ---

def test_failed_link_is_skipped_and_frozen():
    g = group(5.0, 3.0, cap_factor=4.0)
    st = PolicyState()
    step(g, st, cfg(), 12.0)            # leaves backlog on both links
    frozen = st.buffers["l0"]
    rec = step(g, st, cfg(), 2.0, failed=frozenset({"l0"}))
    assert rec.assigned[0] == 0.0       # no new traffic
    assert rec.transmitted[0] == 0.0    # no drain either
    assert rec.buffer_end[0] == frozen
    assert rec.assigned[1] == 2.0


def test_all_links_failed_drops_everything():
    g = group(5.0, 3.0)
    rec = step(g, PolicyState(), cfg(), 4.0, failed=frozenset({"l0", "l1"}))
    assert rec.dropped == 4.0 and rec.supplied_mbps == 0.0


def test_all_links_failed_vrrp_raises():
    g = group(5.0)
    with pytest.raises(AllLinksFailedError):
        step(g, PolicyState(), cfg("vrrp"), 4.0, failed=frozenset({"l0"}))


def test_run_applies_failure_events_in_order():
    g = group(5.0, 3.0, cap_factor=1.0)  # no backlog: drops show immediately
    tr = const(4.0, 8)
    res = run(g, cfg(), tr, failures=[(5.0, "l0", "up"), (2.0, "l0", "down")])
    by_t = {r.t: r for r in res.records}
    assert by_t[1.0].assigned == (4.0, 0.0)
    assert by_t[2.0].assigned == (0.0, 3.0)   # primary down, backup caps at 3
    assert by_t[2.0].dropped == 1.0
    assert by_t[5.0].assigned == (4.0, 0.0)   # primary restored
    assert by_t[7.0].assigned == (4.0, 0.0)


def test_run_rejects_unknown_failure_link():
    g = group(5.0)
    with pytest.raises(BadParameterError):
        run(g, cfg(), const(1.0), failures=[(0.0, "nope", "down")])
    with pytest.raises(BadParameterError):
        run(g, cfg(), const(1.0), failures=[(0.0, "l0", "flap")])


@hs.composite
def schedules(draw):
    """A group of 1 to 5 links, a dyadic trace and a failure schedule whose
    times fall before the first sample, on and between samples and after
    the last, few enough apart that simultaneous events, repeats and late
    events are common; simultaneous events come in either file order."""
    n = draw(hs.integers(1, 5))
    caps = draw(hs.lists(hs.sampled_from((1.0, 2.0, 4.0, 8.0)), min_size=n, max_size=n))
    links = [Link(id=f"l{i}", capacity=c, priority=i + 1,
                  cost_per_gb=draw(hs.sampled_from((0.5, 1.0, 1.7, 3.0))),
                  threshold=draw(hs.sampled_from((None, c))),
                  buffer_cap=draw(hs.sampled_from((None, 2 * c))))
             for i, c in enumerate(caps)]
    n_ticks = draw(hs.integers(1, 8))
    trace = [(float(k), q / 4.0) for k, q in enumerate(draw(hs.lists(
        hs.integers(0, int(8 * sum(caps))), min_size=n_ticks, max_size=n_ticks)))]
    times = hs.sampled_from((-1.0, *(k / 2.0 for k in range(2 * n_ticks + 1))))
    events = draw(hs.lists(hs.tuples(times, hs.sampled_from([l.id for l in links]),
                                     hs.sampled_from(("up", "down"))), max_size=3 * n))
    return validate_group("g", links), trace, events


def _behind(changes):
    """The one event behind each change of a _failure_timeline."""
    return [(t, next(iter(was ^ now)), "down" if now > was else "up")
            for (_, was), (t, now) in zip(changes, changes[1:-1])]


def _run_or_error(g, c, trace, events):
    try:
        return run(g, c, DemandTrace(trace), failures=events)
    except AllLinksFailedError as e:
        return str(e)


_COLUMNS = ("t", "demand", "supplied", "dropped", "reorder", "assigned", "transmitted",
            "buffer_end")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(schedules())
@example((group(4.0, 2.0), [(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)],
          [(1.0, "l0", "down"), (1.0, "l0", "up"), (-1.0, "l1", "down"), (0.5, "l1", "up"),
           (1.5, "l0", "up"), (2.0, "l1", "up"), (2.0, "l0", "down"), (2.5, "l0", "up")]))
@example((group(4.0, 2.0), [(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)],
          [(1.0, "l0", "up"), (1.0, "l0", "down"), (1.0, "l1", "down")]))
def test_failure_schedule_folds_into_its_changes(instance):
    g, trace, events = instance
    last_t = trace[-1][0]
    changes, late, repeats = _failure_timeline(g, events, last_t)
    # brute force: an event after the last sample is late, and one of the
    # same kind as the event before it on its link (links start up) a repeat
    in_time = sorted(events, key=lambda e: e[0])
    state = {l.id: "up" for l in g.links}
    want_late, want_repeats = [], []
    for ev in in_time:
        t, link_id, kind = ev
        if t > last_t:
            want_late.append(ev)
        elif state[link_id] == kind:
            want_repeats.append(ev)
        state[link_id] = kind
    assert (late, repeats) == (want_late, want_repeats)
    assert len(changes) - 2 + len(late) + len(repeats) == len(events)
    for policy in ("olb", "rr", "wfq", "vrrp"):
        c = cfg(policy, quantum=0.5)
        got = _run_or_error(g, c, trace, events)
        want = _run_or_error(g, c, trace, _behind(changes))
        if isinstance(got, str):
            assert got == want
            continue
        assert [getattr(got, col).tobytes() for col in _COLUMNS] == \
               [getattr(want, col).tobytes() for col in _COLUMNS]
        # stepping each sample with the down set changes gives at that tick
        st = PolicyState()  # empty buffers
        recs = [step(g, st, c, d, [down for ct, down in changes if ct <= t][-1], t)
                for t, d in trace]
        assert recs == got.records[:]


# --- run bookkeeping ---

def test_run_does_not_touch_callers_group():
    links = [Link("b", 3.0, 2, 1.0), Link("a", 5.0, 1, 1.0)]  # unresolved, out of order
    g = AggregationGroup("g", list(links))
    res = run(g, cfg(), const(9.0))
    assert g == AggregationGroup("g", [Link("b", 3.0, 2, 1.0), Link("a", 5.0, 1, 1.0)])
    assert g.links[0] is links[0] and g.links[1] is links[1]
    assert res.group == validate_group("g", links)  # the validated copy


def test_run_starts_from_empty_buffers():
    # step() leaves 6.0 queued on the link in its state; run() starts from
    # an empty one and a fresh state
    g = validate_group("g", [Link(id="a", capacity=4.0, priority=1,
                                  threshold=8.0, buffer_cap=16.0)])
    st = PolicyState()
    step(g, st, cfg(), 10.0)
    assert st.buffers == {"a": 6.0}
    res = run(g, cfg(), const(1.0, 1))
    assert res.records[0].assigned == (1.0,)
    assert list(res.buffer_end) == [0.0]


def test_run_group_echo_holds_the_buffers_it_started_from():
    # buffers live in the state, not on the links: run()'s group echo is the
    # configured group, untouched by the 6.0 a step() left queued, while the
    # caller's state keeps its 6.0
    g = validate_group("g", [Link(id="a", capacity=4.0, priority=1,
                                  threshold=8.0, buffer_cap=16.0)])
    before = validate_group(g.group_id, g.links)
    st = PolicyState()
    step(g, st, cfg(), 10.0)
    res = run(g, cfg(), const(1.0, 1))
    assert list(res.buffer_end) == [0.0]
    assert res.group == before and not hasattr(res.group.links[0], "buffer")
    assert g == before
    assert st.buffers == {"a": 6.0}


def test_run_echoes_config_and_sorted_group():
    g = group(5.0, 3.0)
    c = cfg()
    res = run(g, c, const(1.0, 3))
    assert res.config is c
    assert res.group.link_ids() == ["l0", "l1"]
    assert len(res.records) == 3


def test_rr_spreads_quanta():
    g = group(8.0, 8.0)
    rec = step(g, PolicyState(), cfg("rr"), 10.0)
    assert rec.assigned == (5.0, 5.0)
    assert rec.reorder_events == 9


def test_wfq_splits_by_inverse_cost():
    g = group(100.0, 100.0, costs=[1.0, 3.0])
    rec = step(g, PolicyState(), cfg("wfq"), 8.0)
    assert rec.assigned == (6.0, 2.0)


def test_wfq_direct_splits_by_cost():
    g = group(100.0, 100.0, costs=[1.0, 3.0])
    rec = step(g, PolicyState(), cfg("wfq", wfq_direction=WfqDirection.DIRECT_COST), 8.0)
    assert rec.assigned == (2.0, 6.0)


def test_vrrp_concentrates_on_master():
    g = group(4.0, 16.0, 16.0)
    rec = step(g, PolicyState(), cfg("vrrp"), 20.0)
    assert rec.assigned[0] == 0.0 and rec.assigned[2] == 0.0
    assert rec.assigned[1] > 0.0
    assert rec.reorder_events == 0


# --- frozen end-to-end values ---

def test_two_link_ceiling_values():
    g = scenario_group(1)
    res = run(g, cfg(), const(80.0, 4))
    last = res.records[-1]
    assert last.assigned == (64.0, 16.0)
    assert last.supplied_mbps == 80.0
    assert last.reorder_events == 1

    res = run(g, cfg(), const(120.0, 4))
    assert res.records[-1].supplied_mbps == 96.0
    assert res.records[-1].dropped == 24.0

    res = run(g, cfg("vrrp"), const(120.0, 4))
    assert res.records[-1].supplied_mbps == 64.0


def test_three_link_staircase_values():
    g = scenario_group(2)
    for demand, want_supply, want_active in (
            (3.0, 3.0, {"P4"}),
            (10.0, 10.0, {"P4", "S16"}),
            (22.0, 22.0, {"P4", "S16", "T16"}),
            (50.0, 36.0, {"P4", "S16", "T16"})):
        res = run(g, cfg(), const(demand, 4))
        last = res.records[-1]
        assert last.supplied_mbps == want_supply
        active = {l.id for l, a in zip(g.links, last.assigned) if a > 0}
        assert active == want_active


@pytest.mark.parametrize("policy", ["olb", "rr", "wfq", "vrrp"])
def test_step_sequence_matches_run(policy):
    # one tick path: stepping each sample with the run's failure set at that
    # tick gives run's records and end state exactly, wfq counters and vrrp
    # masters included. Each step() runs one tick, so no step replays one from
    # run()'s memo, while a run may end on replays. The second trace repeats
    # 7 Mbps (14 quanta), which drains under olb, rr and
    # wfq: ticks repeat from drained buffers, right after each failure change
    # too, rr's cursor moves by 2 of 3 links a tick, so a demand repeats with
    # another cursor before it repeats with the same one, and wfq's cycle of
    # 98 picks closes, after which its phase repeats every 7 ticks. The third
    # cycles through three demands, 49 quanta in all, with every link up: its
    # buffers drain every third tick and wfq's phase repeats every six, and
    # under each policy its run ends on replays that reach a state other than
    # that of its last tick that ran.
    c = cfg(policy, quantum=0.5)
    inputs = [
        ([(0.0, 7.0), (1.0, 12.0), (2.0, 0.5), (3.0, 9.0), (4.0, 20.25),
          (5.0, 0.0), (6.0, 13.75), (7.0, 6.0), (8.0, 30.0)],
         [(1.0, "l0", "down"), (2.5, "l2", "down"), (4.0, "l0", "up"),
          (4.0, "l1", "down"), (6.0, "l2", "up"), (7.0, "l1", "up")]),
        ([(float(t), 20.0 if t in (30, 31) else 7.0) for t in range(50)],
         [(20.0, "l0", "down"), (25.0, "l0", "up"), (40.0, "l2", "down")]),
        ([(float(t), (16.0, 6.5, 2.0)[t % 3]) for t in range(42)], []),
    ]
    for tr, failures in inputs:
        g = group(5.0, 3.0, 4.0, costs=[1.7, 3.0, 1.0], cap_factor=4.0)
        before = validate_group(g.group_id, g.links)  # an equal copy
        st = PolicyState()
        stepped = []
        for t, d in tr:
            failed = set()
            for et, link_id, kind in failures:
                if et <= t:
                    (failed.add if kind == "down" else failed.discard)(link_id)
            stepped.append(step(g, st, c, d, failed=frozenset(failed), t=t))
        res = run(g, c, DemandTrace(tr), failures)
        assert stepped == res.records[:]
        # the state carries the buffers the run ends with, by id; the group
        # is as it was
        assert st.buffers == dict(zip(res.group.link_ids(), res.records[-1].buffer_end))
        assert g == before and g.links[0] is not before.links[0]
        # the state a run ends in, caught up past the replays it ends with
        ran = PolicyState()
        engine._setup(g, c, ran, res.t, res.demand, failures)
        assert ran == st


# --- columnar result storage ---

@pytest.mark.parametrize("n", [2, 16])
def test_run_result_memory_is_columnar(n):
    # 8 bytes per stored value: t, demand, supplied, dropped and reorder
    # once per tick, assigned, transmitted and buffer_end once per link;
    # 1.25x leaves room for the arrays' growth slack
    g = group(*[8.0] * n, cap_factor=2.0)
    ticks = 4096
    trace = DemandTrace([(float(i), float(i % 13) * n) for i in range(ticks)])
    run(g, cfg("rr"), trace)  # first-call set-up stays out of the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = run(g, cfg("rr"), trace)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(res.records) == ticks
    bound = 1.25 * 8 * (5 + 3 * n) * ticks + 16 * 1024
    assert retained <= bound, f"{retained / ticks:.0f} B per tick retained"


# --- replayed ticks: the memo's records and their flushes ---

def _memo_off(monkeypatch):
    """Key no tick: every rule's position is None, so every tick runs."""
    for rule in set(_RULES.values()):
        monkeypatch.setattr(rule, "position", lambda self: None)


def _replays(monkeypatch):
    """Per flush, how many of its records an earlier tick of the run already
    gave, by identity: the ticks it replays."""
    seen, counts = {}, []
    flush = engine._flush

    def counting(res, records, n):
        count = 0
        for record in records:
            count += id(record) in seen
            seen[id(record)] = record  # kept alive, so no id is reused
        counts.append(count)
        flush(res, records, n)
    monkeypatch.setattr(engine, "_flush", counting)
    return counts


COLUMNS = ("t", "demand", "supplied", "dropped", "reorder", "assigned", "transmitted",
           "buffer_end")


def _fills(monkeypatch, rows):
    """Per replayed tick, the memo's epoch (ticks run so far // rows) when the
    tick it names ran and when it was replayed, the ticks that ran numbered
    in order by their records' identity. The memo starts afresh each time
    rows more ticks have run, so the two are equal."""
    ran, seen = {}, []
    flush = engine._flush

    def counting(res, records, n):
        for record in records:
            named = ran.get(id(record))
            if named is None:
                ran[id(record)] = (len(ran), record)  # kept alive, so no id is reused
            else:
                seen.append((named[0] // rows, len(ran) // rows))
        flush(res, records, n)
    monkeypatch.setattr(engine, "_flush", counting)
    return seen


def test_store_rows_are_a_fixed_budget_of_words():
    # 3n + 3 words a record: the heavy benchmark day's 2-link wfq run fits
    # whole, and groups of 5 links or more hold fewer rows than 4,096
    assert MEMO_WORDS == 2**16
    assert [_store_rows(n) for n in (2, 3, 5, 16)] == [7281, 5461, 3640, 1285]
    for n in range(1, 65):
        assert (3 * n + 3) * _store_rows(n) <= MEMO_WORDS < (3 * n + 3) * (_store_rows(n) + 1)
        assert n < 5 or _store_rows(n) <= 4096


# the memo's bound in records for the 3-link run below: each policy's memo
# starts afresh at it at least twice while over half of its ticks still
# replay (olb and vrrp keep few start states, rr and wfq many)
MEMO_RECORDS = {"olb": 64, "vrrp": 64, "rr": 512, "wfq": 512}


@pytest.mark.parametrize("policy", ["olb", "rr", "wfq", "vrrp"])
def test_replayed_ticks_gather_into_the_columns_of_a_run_without_memo(policy, monkeypatch):
    # over 3 x ROWS ticks of a few repeating demands, with live-set changes
    # in the middle of a flush's ticks and a memo bound small enough to reach
    # and start afresh at, gathered columns equal running every tick, value for
    # value and in type
    g = group(5.0, 3.0, 4.0, costs=[1.0, 2.0, 4.0], cap_factor=4.0)  # wfq's cycle: 7 picks
    rng = random.Random(f"gather-{policy}")
    trace = DemandTrace([(float(i), rng.choice([0.0, 2.5, 7.0, 11.0, 16.5]))
                         for i in range(3 * ROWS + 700)])
    fails = [(5000.5, "l1", "down"), (6100.0, "l1", "up"),
             (9000.0, "l0", "down"), (9001.0, "l2", "down"), (9500.5, "l2", "up")]
    c = cfg(policy, quantum=0.5)
    with monkeypatch.context() as m:
        m.setattr(engine, "MEMO_WORDS", 12 * MEMO_RECORDS[policy])  # 12 words a record
        replays = _replays(m)
        fills = _fills(m, MEMO_RECORDS[policy])
        got = run(g, c, trace, fails)
    # no replay names a tick run before the memo's last start, and ticks
    # replay after at least two of its starts at the bound
    assert all(named == now for named, now in fills)
    assert len({now for _, now in fills} - {0}) >= 2
    assert sum(n > 0 for n in replays) >= 4 and sum(replays) > len(trace.t) // 2
    with monkeypatch.context() as m:
        _memo_off(m)
        replays = _replays(m)
        want = run(g, c, trace, fails)
    assert not any(replays)
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.typecode == b.typecode and a.tobytes() == b.tobytes(), name


def _log_calls(monkeypatch, log):
    """Log "p" for each position() and "r" for each refresh() of a rule."""
    for rule in set(_RULES.values()):
        for name in ("position", "refresh"):
            def logged(self, *args, f=getattr(rule, name), rule=rule, tag=name[0]):
                if type(self) is rule:  # once per call, not per super() call
                    log.append(tag)
                return f(self, *args)
            monkeypatch.setattr(rule, name, logged)


@pytest.mark.parametrize("policy", ["olb", "rr", "wfq", "vrrp"])
def test_ticks_after_keying_stops_equal_a_run_without_memo(policy, monkeypatch):
    # a 16-link group under demand in 1/64 Mbps steps, which seldom repeats,
    # stops keying at its 257th tick run, with replays of its idle start pending
    # (none under wfq, which keys no tick before its cycle closes), and every
    # live-set change comes after that. With the default bound the run is one
    # chunk; with a bound of 100 records the memo starts afresh at it before
    # the stop and later chunks flush with no memo. Both equal running every
    # tick, value for value and in type.
    g = group(*[1.0, 2.0, 4.0, 8.0] * 4, costs=[1.0, 2.0, 4.0, 0.5] * 4, cap_factor=2.0)
    rng = random.Random(f"stop-{policy}")
    trace = DemandTrace([(float(i), rng.randrange(96 * 60) / 64 if i >= 5 else 0.0)
                         for i in range(480)])
    fails = [(300.0, "l3", "down"), (340.5, "l7", "down"), (380.0, "l3", "up"),
             (420.0, "l0", "down")]
    c = cfg(policy, quantum=0.25)
    with monkeypatch.context() as m:
        _memo_off(m)
        want = run(g, c, trace, fails)
    for words in (MEMO_WORDS, 51 * 100):  # 51 words a 16-link record
        log = []
        with monkeypatch.context() as m:
            m.setattr(engine, "MEMO_WORDS", words)
            _log_calls(m, log)
            got = run(g, c, trace, fails)
        calls = "".join(log)  # keyed ticks call position(), so none came after the stop
        assert calls.count("p") > MEMO_TRIAL and calls[calls.rindex("p"):].count("r") == len(fails)
        for name in COLUMNS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.typecode == b.typecode and a.tobytes() == b.tobytes(), (words, name)


def test_keying_goes_on_with_one_thirty_second_of_hits(monkeypatch):
    # one link that every tick drains, so a tick hits when a keyed tick had
    # its demand. The first tick is not keyed, so 14 zeros hit 12 times and
    # 255 new demands bring the ticks run to 257 with 12 hits, between
    # 257 >> 5 = 8 and 257 >> 4 = 16; keying goes on to replay the 100
    # repeats that follow
    g = group(64.0)
    demands = [0.0] * 14 + [i / 8 for i in range(1, 256)] + [i / 8 for i in range(100)]
    trace = DemandTrace([(float(i), d) for i, d in enumerate(demands)])
    with monkeypatch.context() as m:
        _memo_off(m)
        want = run(g, cfg(), trace)
    replays = _replays(monkeypatch)
    got = run(g, cfg(), trace)
    assert sum(replays) == 112
    for name in COLUMNS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_replayed_rr_switch_counts_past_2_to_53_stay_exact(monkeypatch):
    # 2^54 or more full quanta a tick, all kept: rr switches links at every
    # quantum but the first, counts no float holds; replays carry them exactly
    links = [Link(id=f"l{i}", capacity=2.0**54, priority=i + 1, cost_per_gb=1.0)
             for i in range(2)]
    g = validate_group("g", links)
    levels = [2.0**54, 2.0**54 + 8, 2.0**55]
    trace = DemandTrace([(float(i), levels[i % 3]) for i in range(30)])
    replays = _replays(monkeypatch)
    res = run(g, cfg("rr"), trace)
    assert sum(replays) >= 24
    assert res.reorder.typecode == "q"
    assert list(res.reorder) == [[2**54 - 1, 2**54 + 7, 2**55 - 1][i % 3] for i in range(30)]


def test_records_view_reads_columns():
    g = group(5.0, 3.0, cap_factor=4.0)
    res = run(g, cfg("rr"), DemandTrace([(0.0, 7.0), (1.0, 12.5), (2.0, 0.5)]))
    recs = res.records
    rows = list(recs)
    assert len(recs) == len(rows) == 3
    assert recs[-1] == rows[2] and recs[-3] == rows[0]
    assert recs[1:] == rows[1:] and recs[::-2] == [rows[2], rows[0]]
    for k in (3, -4):
        with pytest.raises(IndexError):
            recs[k]
    for k, r in enumerate(rows):
        assert (r.t, r.demand, r.supplied_mbps, r.dropped, r.reorder_events) == \
               (res.t[k], res.demand[k], res.supplied[k], res.dropped[k], res.reorder[k])
        for name in ("assigned", "transmitted", "buffer_end"):
            value = getattr(r, name)
            assert type(value) is tuple
            assert value == tuple(getattr(res, name)[2 * k:2 * k + 2])
    assert rows[1].assigned == (6.0, 6.5) and rows[1].buffer_end == (1.0, 3.5)


@pytest.mark.parametrize("policy", ["olb", "rr", "wfq", "vrrp"])
def test_step_equals_first_record_of_run(policy):
    g = group(5.0, 3.0, cap_factor=4.0)
    rec = step(validate_group(g.group_id, g.links), PolicyState(), cfg(policy), 12.5)
    assert rec == run(g, cfg(policy), DemandTrace([(0.0, 12.5)])).records[0]


def test_step_returns_time_and_demand_as_floats():
    rec = step(group(5.0, 3.0), PolicyState(), cfg(), 7, t=3)
    assert (rec.t, rec.demand) == (3.0, 7.0)
    assert type(rec.t) is float and type(rec.demand) is float


# --- agreement with the brute-force reference ---

def _as_dicts(g):
    return [dict(id=l.id, capacity=l.capacity, priority=l.priority,
                 cost=l.cost_per_gb, threshold=l.threshold, cap=l.buffer_cap)
            for l in g.links]


@pytest.mark.parametrize("policy", ["olb", "rr", "wfq", "vrrp"])
def test_engine_matches_oracle_smoke(policy):
    rng = random.Random(f"smoke-{policy}")
    for _ in range(10):
        n = rng.randint(1, 4)
        g = group(*[rng.choice([2.0, 4.0, 8.0]) for _ in range(n)],
                  costs=[rng.choice([0.5, 1.0, 2.0]) for _ in range(n)],
                  cap_factor=rng.choice([1.0, 2.0, 4.0]))
        trace = [(float(i), rng.choice([0.0, 1.25, 3.0, 7.5, 14.0, 30.0]))
                 for i in range(10)]
        fails = []
        if n > 1 and rng.random() < 0.5:
            fails = [(3.0, "l0", "down"), (7.0, "l0", "up")]
        want = oracle_run(_as_dicts(g), policy, trace, failures=fails)
        got = run(g, cfg(policy), DemandTrace(trace), failures=fails).records
        assert len(want) == len(got)
        for w, r in zip(want, got):
            assert list(r.assigned) == w["assigned"]
            assert list(r.transmitted) == w["transmitted"]
            assert list(r.buffer_end) == w["buffers"]
            assert r.dropped == w["dropped"]
            assert r.reorder_events == w["reorder"]


def _rotating_instance(rng):
    """Dyadic rr/wfq instance built to hit drop ticks: caps at 1x or 2x the
    threshold, demand up to twice the group capacity with quarter-megabit
    tails, and failures on any link, all links at once included."""
    n = rng.randint(2, 16)
    tick = rng.choice((0.5, 1.0))
    caps = [rng.choice((1.0, 2.0, 4.0, 8.0)) for _ in range(n)]
    links = [Link(id=f"l{i}", capacity=c, priority=i + 1,
                  cost_per_gb=rng.choice((0.5, 1.0, 2.0, 4.0)),
                  threshold=c * tick, buffer_cap=c * tick * rng.choice((1.0, 2.0)))
             for i, c in enumerate(caps)]
    g = validate_group("g", links, tick)
    quantum = min(rng.choice((0.25, 0.5, 1.0)), min(caps) * tick)
    top = 2 * sum(caps)
    n_ticks = rng.randint(1, 200)
    trace = [(i * tick, rng.randrange(0, int(top * 4) + 1) / 4.0) for i in range(n_ticks)]
    fails = [(rng.randrange(n_ticks) * tick, f"l{rng.randrange(n)}",
              rng.choice(("up", "down"))) for _ in range(rng.randint(0, 2 * n))]
    return g, tick, quantum, trace, fails


@pytest.mark.parametrize("policy", ["rr", "wfq"])
def test_rotating_policies_match_oracle_on_drop_ticks(policy):
    rng = random.Random(f"rotating-{policy}")
    drop_ticks = tail_drops = 0
    for _ in range(40):
        g, tick, quantum, trace, fails = _rotating_instance(rng)
        direction = rng.choice(list(WfqDirection))
        want = oracle_run(_as_dicts(g), policy, trace, tick=tick, quantum=quantum,
                          wfq_direction=direction.value, failures=fails)
        got = run(g, cfg(policy, tick=tick, quantum=quantum, wfq_direction=direction),
                  DemandTrace(trace), failures=fails).records
        for w, r in zip(want, got):
            assert (list(r.assigned), list(r.transmitted), list(r.buffer_end),
                    r.dropped, r.supplied_mbps, r.reorder_events) == \
                   (w["assigned"], w["transmitted"], w["buffers"],
                    w["dropped"], w["supplied"], w["reorder"]), (policy, r.t)
            drop_ticks += r.dropped > 0
            tail_drops += r.dropped % quantum != 0
    # the instances really exercise drops, including dropped fractional tails
    assert drop_ticks > 500 and tail_drops > 50


@pytest.mark.parametrize("policy", ["rr", "wfq"])
def test_idle_ticks_leave_rotation_state_alone(policy):
    # the rr cursor and the wfq deficits move only per quantum, so idle ticks
    # under a changed failure set must not re-normalise them
    g = group(4.0, 4.0, 4.0, costs=[1.0, 2.0, 4.0], cap_factor=2.0)
    trace = [(0.0, 2.0), (1.0, 0.0), (2.0, 0.0), (3.0, 2.0)]
    fails = [(1.0, "l2", "down"), (2.0, "l2", "up")]
    want = oracle_run(_as_dicts(g), policy, trace, failures=fails)
    got = run(g, cfg(policy), DemandTrace(trace), failures=fails).records
    assert [list(r.assigned) for r in got] == [w["assigned"] for w in want]
    assert [r.reorder_events for r in got] == [w["reorder"] for w in want]


def _weights(costs, direction):
    """wfq's integer weights of links with these dyadic costs: no common
    factor, in the ratio of the costs or their inverses; P is their sum."""
    shares = [Fraction(1) / Fraction(c) if direction is WfqDirection.INVERSE_COST
              else Fraction(c) for c in costs]
    scale = math.lcm(*(f.denominator for f in shares))
    ints = [int(f * scale) for f in shares]
    return [a // math.gcd(*ints) for a in ints]


@pytest.mark.parametrize("direction", list(WfqDirection))
def test_wfq_long_drop_ticks_match_oracle(direction):
    # costs 1, 2 and 4 give P = 7 over three live links, 3 or 5 over two;
    # demands of 2P quanta or more, against caps of one or two ticks'
    # capacity, drop full quanta at the capped links, and one event changes
    # the live set half way. Any P cycle picks hold weights[k] of link k, and
    # a capped link keeps its first kept[k], so every pick of the first
    # q = min(kept[k] // weights[k]) whole cycles is kept: such a tick reads
    # their switches from the cycle table when q >= 1 and lists all its
    # picks when q == 0, as when a quantum of 1 leaves a link of capacity 2
    # room for 2 quanta against a weight of 4. An uncapped link keeps at
    # least n_full // P whole cycles' picks, no fewer than a capped one, so
    # the min may run over every live link.
    rng = random.Random(f"long-drops-{direction.value}")
    long_drops = whole = none = 0
    for _ in range(20):
        costs = rng.sample([1.0, 2.0, 4.0], 3)
        caps = [rng.choice((2.0, 4.0, 8.0)) for _ in costs]
        links = [Link(id=f"l{i}", capacity=c, priority=i + 1, cost_per_gb=cost,
                      threshold=c, buffer_cap=c * rng.choice((1.0, 2.0)))
                 for i, (c, cost) in enumerate(zip(caps, costs))]
        g = validate_group("g", links)
        quantum = rng.choice((0.25, 0.5, 1.0))
        n_ticks = 40
        trace = [(float(i), rng.randrange(int(4 * sum(caps)), int(12 * sum(caps)) + 1) / 4.0)
                 for i in range(n_ticks)]
        down = rng.randrange(3)
        fails = [(float(n_ticks // 2), f"l{down}", "down")]
        want = oracle_run(_as_dicts(g), "wfq", trace, quantum=quantum,
                          wfq_direction=direction.value, failures=fails)
        got = run(g, cfg("wfq", quantum=quantum, wfq_direction=direction),
                  DemandTrace(trace), failures=fails).records
        for (t, demand), w, r in zip(trace, want, got):
            assert (list(r.assigned), list(r.transmitted), list(r.buffer_end),
                    r.dropped, r.supplied_mbps, r.reorder_events) == \
                   (w["assigned"], w["transmitted"], w["buffers"],
                    w["dropped"], w["supplied"], w["reorder"]), r.t
            live = [i for i in range(3) if t < n_ticks // 2 or i != down]
            weights = _weights([costs[i] for i in live], direction)
            if demand // quantum >= 2 * sum(weights) and w["dropped"] >= quantum:
                long_drops += 1
                # the tail, if kept, is less than a quantum
                q = min(w["assigned"][i] // quantum // a for i, a in zip(live, weights))
                whole += q >= 1
                none += q == 0
    assert long_drops >= 300
    assert whole >= 300 and none >= 40, (whole, none)


WFQ_COSTS = (0.3, 0.7, 1.0, 1.1, 1.7, 2.0, 3.0, 4.2, 9.0)


@hs.composite
def wfq_instances(draw):
    """Dyadic capacities, buffers, quanta and demands with non-dyadic costs,
    so every record is exact and only the selection order is under test;
    failure events may hit any link, all of them at once included."""
    n = draw(hs.integers(1, 6))
    tick = draw(hs.sampled_from((0.5, 1.0)))
    caps = draw(hs.lists(hs.sampled_from((1.0, 2.0, 4.0, 8.0)), min_size=n, max_size=n))
    links = [Link(id=f"l{i}", capacity=c, priority=i + 1,
                  cost_per_gb=draw(hs.sampled_from(WFQ_COSTS)), threshold=c * tick,
                  buffer_cap=c * tick * draw(hs.sampled_from((1.0, 2.0))))
             for i, c in enumerate(caps)]
    quantum = min(draw(hs.sampled_from((0.25, 0.5, 1.0))), min(caps) * tick)
    n_ticks = draw(hs.integers(1, 24))
    quarters = hs.integers(0, int(8 * sum(caps)))  # demand up to twice the capacity
    trace = [(i * tick, q / 4.0) for i, q in enumerate(
        draw(hs.lists(quarters, min_size=n_ticks, max_size=n_ticks)))]
    fails = draw(hs.lists(hs.tuples(hs.integers(0, n_ticks - 1).map(lambda k: k * tick),
                                    hs.sampled_from([l.id for l in links]),
                                    hs.sampled_from(("up", "down"))), max_size=2 * n))
    direction = draw(hs.sampled_from(list(WfqDirection)))
    return validate_group("g", links, tick), tick, quantum, trace, fails, direction


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(wfq_instances())
@example((validate_group("g", [Link(id="a", capacity=2.0, priority=1, cost_per_gb=1.7),
                               Link(id="b", capacity=2.0, priority=2, cost_per_gb=0.3)]),
          1.0, 0.5, [(0.0, 3.25), (1.0, 3.0), (2.0, 4.75)],
          [(1.0, "a", "down"), (1.0, "b", "down"), (2.0, "a", "up")], WfqDirection.INVERSE_COST))
def test_wfq_matches_exact_oracle(instance):
    g, tick, quantum, trace, fails, direction = instance
    want = oracle_run(_as_dicts(g), "wfq", trace, tick=tick, quantum=quantum,
                      wfq_direction=direction.value, failures=fails)
    got = run(g, cfg("wfq", tick=tick, quantum=quantum, wfq_direction=direction),
              DemandTrace(trace), failures=fails).records
    for w, r in zip(want, got):
        assert (list(r.assigned), list(r.transmitted), list(r.buffer_end),
                r.dropped, r.supplied_mbps, r.reorder_events) == \
               (w["assigned"], w["transmitted"], w["buffers"],
                w["dropped"], w["supplied"], w["reorder"]), r.t


def test_wfq_exact_tie_goes_to_lowest_index():
    # Direct costs 1, 2 and 3 give P4, S16 and T16 the shares 1/6, 1/3 and
    # 1/2. From zero counters the ninth selection finds P4 and T16 both at
    # exactly 1/2 and takes P4. Float counters would hold P4 at
    # 0.4999999999999999 there and give the quantum to T16: (0.5, 1.5, 2.5).
    state = PolicyState()
    c = cfg("wfq", quantum=0.5, wfq_direction=WfqDirection.DIRECT_COST)
    rec = step(scenario_group(2), state, c, 4.5)
    assert rec.assigned == (1.0, 1.5, 2.0)
    assert state.wfq_deficits == {"P4": (-1, 2), "S16": (0, 1), "T16": (1, 2)}


def test_vrrp_raises_on_idle_tick_with_every_link_down():
    g = group(5.0, 3.0)
    with pytest.raises(AllLinksFailedError):
        run(g, cfg("vrrp"), DemandTrace([(0.0, 4.0), (1.0, 0.0)]),
            failures=[(1.0, "l0", "down"), (1.0, "l1", "down")])


def test_vrrp_elects_master_on_idle_tick():
    g = group(4.0, 16.0, 8.0)  # preference: l1, l2, l0
    st = PolicyState()
    rec = step(g, st, cfg("vrrp"), 0.0, failed=frozenset({"l1"}))
    assert st.vrrp_master == "l2"
    assert rec.assigned == (0.0, 0.0, 0.0)


def test_wfq_quanta_per_tick_limit():
    g = group(1.0, 1.0)
    c = cfg("wfq", quantum=1e-7)
    with pytest.raises(BadParameterError, match=r"t=3\.0.*--quantum 9\.5367431640625e-07"):
        run(g, c, DemandTrace([(0.0, 0.0), (3.0, 1.0)]))
    with pytest.raises(BadParameterError, match="quanta"):
        step(g, PolicyState(), c, 1.0)
    # exactly at the limit still simulates
    rec = step(group(1.0), PolicyState(),
               cfg("wfq", quantum=1.0 / MAX_WFQ_QUANTA_PER_TICK), 1.0)
    assert rec.assigned == (1.0,)


@pytest.mark.parametrize("tick, quantum", [(1e200, 1.0), (1.0, 1e-320)])
def test_arrivals_beyond_float_range_rejected(tick, quantum):
    # demand x tick, or the quanta it splits into, overflows to inf
    g = validate_group("g", [Link(id="a", capacity=1.0, priority=1,
                                  threshold=1.0, buffer_cap=4.0)], 1.0)
    c = cfg("olb", tick=tick, quantum=quantum)
    with pytest.raises(BadParameterError, match=r"t=1\.0.*float range"):
        run(g, c, DemandTrace([(0.0, 1.0), (1.0, 1e200)]))
    with pytest.raises(BadParameterError, match="float range"):
        step(g, PolicyState(), c, 1e200, t=1.0)


@pytest.mark.parametrize("policy", ["olb", "rr", "wfq", "vrrp"])
def test_run_rejects_a_first_demand_edited_to_nan(policy):
    # DemandTrace rejects NaN, but its column can be edited afterwards; tick 0
    # rejects it, with no scan for the busiest sample before it
    tr = const(1.0, 3)
    tr.demand[0] = math.nan
    with pytest.raises(BadParameterError, match="demand must be finite and nonnegative, got nan"):
        run(group(4.0, 4.0), cfg(policy), tr)


@pytest.mark.parametrize("policy", ["olb", "rr", "wfq", "vrrp"])
def test_a_tick_past_the_bound_names_the_busiest_valid_sample(policy):
    # the busiest sample is an edited inf, past every bound but not a sample
    # the message can name; the first tick past the bound names the busiest
    # finite one, t=1.0 (for olb and vrrp, that tick itself)
    g = validate_group("g", [Link(id="a", capacity=1.0, priority=1,
                                  threshold=1.0, buffer_cap=4.0)], 1.0)
    tr = DemandTrace([(0.0, 1.0), (1.0, 1e200), (2.0, 5.0)])
    tr.demand[2] = math.inf
    with pytest.raises(BadParameterError, match=r"demand 1e\+200 Mbps at t=1\.0 .*float range"):
        run(g, cfg(policy, tick=1e200), tr)


@pytest.mark.parametrize("policy, kw, demand", [
    ("wfq", dict(quantum=1e-7), 1.0),
    ("rr", dict(quantum=1e-18), 100.0),
    ("olb", dict(tick=1e200), 1e200),
    ("vrrp", dict(tick=1e200), 1e200),
])
def test_a_step_past_the_bound_leaves_the_state_as_it_was(policy, kw, demand):
    # the bound is checked before the live set is refreshed, which would
    # elect vrrp's master
    g = group(1.0, 2.0)
    fields = dict(rr_cursor=1, wfq_deficits={"l0": (1, 3), "l1": (-1, 3)},
                  buffers={"l0": 0.5, "l1": 0.25})
    st = PolicyState(**fields)
    with pytest.raises(BadParameterError, match="quanta"):
        step(g, st, cfg(policy, **kw), demand, failed=frozenset({"l0"}))
    assert st == PolicyState(**fields) and st.vrrp_master is None


def test_rr_needs_no_quanta_limit():
    # 10^7 quanta per tick against a capped link: closed-form, no per-quantum loop
    g = group(1.0, 1.0, 1.0, cap_factor=1.0)
    res = run(g, cfg("rr", quantum=1e-7), DemandTrace([(0.0, 2.5), (1.0, 5.0)]))
    assert sum(res.records[1].assigned) + res.records[1].dropped == pytest.approx(5.0)
    assert res.records[1].dropped > 0


@pytest.mark.parametrize("kw", [dict(tick=float("nan")), dict(tick=float("inf")),
                                dict(quantum=float("nan")), dict(quantum=float("inf"))])
def test_non_finite_config_rejected(kw):
    with pytest.raises(BadParameterError, match="finite"):
        cfg(**kw)


@pytest.mark.parametrize("demand", [float("nan"), float("inf"), -1.0])
def test_step_rejects_bad_demand(demand):
    with pytest.raises(BadParameterError, match="demand"):
        step(group(4.0), PolicyState(), cfg(), demand)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_step_rejects_non_finite_time(t):
    with pytest.raises(BadParameterError, match="step time must be finite"):
        step(group(4.0), PolicyState(), cfg(), 1.0, t=t)


def test_step_rejects_bool_demand_and_time():
    # True is 1 to every numeric check, and would step a demand of 1 Mbps
    # or a tick at t = 1.0
    st = PolicyState()
    with pytest.raises(BadParameterError, match="demand must be a number, got True"):
        step(group(4.0), st, cfg(), True)
    with pytest.raises(BadParameterError, match="step time must be finite, got True"):
        step(group(4.0), st, cfg(), 1.0, t=True)
    assert st == PolicyState()


def test_run_rejects_bool_failure_time():
    with pytest.raises(BadParameterError, match="failure event time must be a finite number, got True"):
        run(group(4.0), cfg(), const(1.0), failures=[(True, "l0", "down")])


@pytest.mark.parametrize("t", ["1_0", "1", b"1", None, 1j])
def test_run_rejects_a_failure_time_that_is_not_a_number(t):
    # float('1_0') is 10.0; every failures file reader rejects '1_0'
    with pytest.raises(BadParameterError, match="failure event time must be a finite number"):
        run(group(4.0, 4.0), cfg(), const(1.0), failures=[(t, "l0", "down")])


def test_run_takes_int_and_fraction_failure_times():
    g = group(4.0, 4.0)
    want = run(g, cfg(), const(8.0), failures=[(2.0, "l0", "down"), (3.5, "l0", "up")])
    got = run(g, cfg(), const(8.0), failures=[(2, "l0", "down"), (Fraction(7, 2), "l0", "up")])
    assert got.records[:] == want.records[:]


@pytest.mark.parametrize("kw", [dict(demand_mbps="1"), dict(demand_mbps=None),
                                dict(demand_mbps=1.0, t="1"), dict(demand_mbps=1.0, t=None)])
def test_step_rejects_demand_or_time_that_is_not_a_number(kw):
    with pytest.raises(BadParameterError, match="demand must be a number|step time must be finite"):
        step(group(4.0), PolicyState(), cfg(), **kw)


@pytest.mark.parametrize("kw", [dict(tick="1"), dict(quantum=b"1"), dict(tick=None)])
def test_config_rejects_tick_or_quantum_that_is_not_a_number(kw):
    with pytest.raises(BadParameterError, match="must be positive and finite"):
        cfg(**kw)


def test_run_rejects_non_finite_failure_time():
    with pytest.raises(BadParameterError, match="finite"):
        run(group(4.0), cfg(), const(1.0), failures=[(float("nan"), "l0", "down")])
