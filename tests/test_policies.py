import random
import signal

import pytest

from rla import (
    AllLinksFailedError,
    BadParameterError,
    EngineConfig,
    Link,
    PolicyId,
    PolicyState,
    WfqDirection,
    ZeroCostError,
    step,
    validate_group,
    vrrp_select,
    wfq_select,
    wfq_weights,
)


def group(*caps, costs=None, thresholds=None):
    costs = costs or [1.0] * len(caps)
    links = []
    for i, c in enumerate(caps):
        thr = thresholds[i] if thresholds else None
        links.append(Link(id=f"l{i}", capacity=c, priority=i + 1,
                          cost_per_gb=costs[i], threshold=thr))
    return validate_group("g", links)


def test_policy_id_parse():
    assert PolicyId.parse("OLB") is PolicyId.OLB
    assert PolicyId.parse(" rr ") is PolicyId.ROUND_ROBIN
    with pytest.raises(BadParameterError, match="unknown policy"):
        PolicyId.parse("bogus")
    for name in (None, 3, b"olb"):  # no str to strip, or bytes, which match no value
        with pytest.raises(BadParameterError, match="unknown policy"):
            PolicyId.parse(name)


def test_wfq_direction_parse():
    assert WfqDirection.parse("inverse") is WfqDirection.INVERSE_COST
    with pytest.raises(BadParameterError):
        WfqDirection.parse("sideways")
    for name in (None, 3):
        with pytest.raises(BadParameterError, match="unknown wfq direction"):
            WfqDirection.parse(name)


def pick(g, policy, state=None, buffers=None, demand=1.0):
    """The link one step() of a single quantum, full at the default demand,
    goes to, with the buffers set to buffers first."""
    state = state or PolicyState()
    state.buffers = dict(zip(g.link_ids(), buffers or [0.0] * g.n))
    rec = step(g, state, EngineConfig(policy=PolicyId.parse(policy)), demand)
    assert rec.dropped == 0.0
    taken = [i for i, a in enumerate(rec.assigned) if a]
    assert len(taken) == 1 and rec.assigned[taken[0]] == demand
    return taken[0]


# --- spillover selection ---

def test_olb_picks_first_link_below_threshold():
    g = group(10.0, 10.0, 10.0)
    assert pick(g, "olb") == 0
    assert pick(g, "olb", buffers=[10.0, 0.0, 0.0]) == 1
    assert pick(g, "olb", buffers=[10.0, 10.0, 0.0]) == 2
    assert pick(g, "olb", buffers=[10.0, 0.0, 0.0], demand=0.5) == 1  # a fractional quantum


def test_olb_all_full_falls_through_to_last():
    g = group(10.0, 10.0)
    assert pick(g, "olb", buffers=[10.0, 10.0]) == 1


def test_olb_ignores_lower_priority_backlog():
    # backlog on the backup must not push traffic off an idle primary
    g = group(10.0, 10.0)
    assert pick(g, "olb", buffers=[0.0, 10.0]) == 0


def test_olb_last_link_fills_to_threshold_then_falls_through_in_two_adds():
    # B takes 1 quantum to reach its threshold, then the 5 left over: 0.1 + 0.5
    # is 0.6, where one add of 6 x 0.1 would give 0.6000000000000001
    g = validate_group("g", [Link("A", 1.0, 1, threshold=1.0, buffer_cap=1.0),
                             Link("B", 0.05, 2, threshold=0.1, buffer_cap=10.0)])
    rec = step(g, PolicyState(), EngineConfig(PolicyId.OLB, quantum=0.1), 1.6)
    assert rec.assigned == (1.0, 0.6) and rec.dropped == 0.0
    assert rec.reorder_events == 1


def test_olb_fills_a_threshold_no_whole_number_of_quanta_reaches():
    # a's threshold of 2.5 is 2.5 quanta away: it takes 3, the last past it,
    # and b the 2 left. A scan that rounded that room down would take 2, then
    # 0 forever, so the tick runs under a deadline of its own.
    def overran(signum, frame):
        raise TimeoutError("the olb tick did not end within 2 s")

    g = validate_group("g", [Link("a", 2.5, 1), Link("b", 4.0, 2)])
    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        rec = step(g, PolicyState(), EngineConfig(PolicyId.OLB, quantum=1.0), 5.0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert (rec.assigned, rec.transmitted, rec.buffer_end) == ((3.0, 2.0), (2.5, 2.0), (0.5, 0.0))
    assert (rec.supplied_mbps, rec.dropped, rec.reorder_events) == (4.5, 0.0, 1)


# --- round robin ---

def test_rr_cycles_in_priority_order():
    g = group(1.0, 1.0, 1.0)
    st = PolicyState()
    picks = [pick(g, "rr", st, demand=(1.0, 0.5)[k % 2]) for k in range(7)]
    assert picks == [0, 1, 2, 0, 1, 2, 0]  # a fractional quantum moves the cursor too
    assert st.rr_cursor == 1


def test_rr_exact_fairness():
    g = group(1.0, 1.0, 1.0, 1.0)
    st = PolicyState()
    counts = [0] * 4
    for _ in range(4 * 25):
        counts[pick(g, "rr", st)] += 1
    assert counts == [25, 25, 25, 25]


# --- weighted fair queue ---

def test_wfq_weights_symmetric():
    assert wfq_weights(group(1.0, 1.0)) == [0.5, 0.5]


def test_wfq_weights_inverse_favours_cheap():
    assert wfq_weights(group(1.0, 1.0, costs=[1.0, 3.0])) == [0.75, 0.25]


def test_wfq_weights_three_links():
    w = wfq_weights(group(1.0, 1.0, 1.0, costs=[2.0, 2.0, 4.0]))
    assert w == pytest.approx([0.4, 0.4, 0.2], abs=1e-12)


def test_wfq_weights_direct_follows_cost():
    w = wfq_weights(group(1.0, 1.0, costs=[1.0, 3.0]), WfqDirection.DIRECT_COST)
    assert w == [0.25, 0.75]


def test_wfq_weights_zero_cost_rejected_inverse_only():
    g = group(1.0, 1.0, costs=[0.0, 2.0])
    with pytest.raises(ZeroCostError):
        wfq_weights(g)
    assert wfq_weights(g, WfqDirection.DIRECT_COST) == [0.0, 1.0]


def test_wfq_select_matches_weights_within_one():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 5)
        g = group(*[1.0] * n, costs=[rng.uniform(0.1, 5.0) for _ in range(n)])
        w = wfq_weights(g)
        st = PolicyState()
        q = rng.randint(1, 200)
        counts = [0] * n
        for _ in range(q):
            counts[wfq_select(g, st, w)] += 1
        for i in range(n):
            assert abs(counts[i] - q * w[i]) <= 1.0 + 1e-9


def test_wfq_select_three_to_one_split():
    g = group(1.0, 1.0, costs=[1.0, 3.0])
    st = PolicyState()
    w = wfq_weights(g)
    counts = [0, 0]
    for _ in range(8):
        counts[wfq_select(g, st, w)] += 1
    assert counts == [6, 2]


def test_wfq_select_breaks_exact_ties_by_index():
    # shares 1/6, 1/3, 1/2: the third and the ninth selection find links 0
    # and 2 both at exactly 1/2 and take link 0
    g = group(1.0, 1.0, 1.0)
    st = PolicyState()
    picks = [wfq_select(g, st, [1, 2, 3]) for _ in range(9)]
    assert picks == [2, 1, 0, 2, 1, 2, 2, 1, 0]
    assert st.wfq_deficits == {"l0": (-1, 2), "l1": (0, 1), "l2": (1, 2)}


@pytest.mark.parametrize("weights", [[0.0, 0.0], [-0.25, 1.25], [float("nan"), 1.0]])
def test_wfq_select_rejects_unusable_weights(weights):
    with pytest.raises(BadParameterError, match="weights"):
        wfq_select(group(1.0, 1.0), PolicyState(), weights)


def test_wfq_select_rejects_a_weight_count_other_than_the_links():
    with pytest.raises(BadParameterError, match="^2 weights for 3 links$"):
        wfq_select(group(1.0, 1.0, 1.0), PolicyState(), [1.0, 2.0])


# --- single-master baseline ---

def test_vrrp_prefers_highest_capacity():
    g = group(4.0, 16.0, 16.0)
    st = PolicyState()
    assert vrrp_select(g, st) == 1
    assert st.vrrp_master == "l1"
    # the full preference order: capacity first, the id breaks the 16/16 tie
    order, failed = [], set()
    for _ in range(g.n):
        order.append(vrrp_select(g, st, frozenset(failed)))
        failed.add(g.links[order[-1]].id)
    assert order == [1, 2, 0]


def test_vrrp_tie_broken_by_id_not_priority():
    links = [Link(id=i, capacity=16.0, priority=p, cost_per_gb=1.0)
             for i, p in (("b", 1), ("a", 2))]
    assert vrrp_select(validate_group("g", links), PolicyState()) == 1


def test_vrrp_fails_over_and_preempts_back():
    g = group(4.0, 16.0, 16.0)
    st = PolicyState()
    assert vrrp_select(g, st, failed=frozenset({"l1"})) == 2
    assert vrrp_select(g, st, failed=frozenset({"l1", "l2"})) == 0
    assert vrrp_select(g, st) == 1  # master restored, preemptive takeover


def test_vrrp_all_links_down():
    g = group(4.0, 16.0)
    with pytest.raises(AllLinksFailedError):
        vrrp_select(g, PolicyState(), failed=frozenset({"l0", "l1"}))
