import pytest
from hypothesis import example, given, settings

from rla import (
    AllLinksFailedError,
    BadParameterError,
    DemandTrace,
    EngineConfig,
    Link,
    PolicyId,
    PolicyState,
    cost_report,
    cost_report_csv,
    merge_supply_csv,
    reorder_indicator_csv,
    run,
    scenario_group,
    shortfall_series_csv,
    supply_series_csv,
    validate_group,
)
from rla import engine
from rla.cli import _REPORTS
from rla.reports import _report_chunks
from strategies import quanta, runs


def cfg(policy="olb"):
    return EngineConfig(policy=PolicyId.parse(policy))


def const(d, n=4):
    return DemandTrace([(float(i), float(d)) for i in range(n)])


def table(text):
    """A report's header and its rows, each value read back as a float (the
    writers format floats by repr, so this is exact)."""
    head, *rows = text.splitlines()
    return tuple(head.split(",")), [tuple(map(float, r.split(","))) for r in rows]


@pytest.fixture
def scen1():
    return scenario_group(1)


def test_supply_series_tracks_demand(scen1):
    res = run(scen1, cfg(), const(80.0))
    text = supply_series_csv(res)
    assert table(text) == (("time_s", "demand_mbps", "supplied_mbps"),
                           [(float(i), 80.0, 80.0) for i in range(4)])
    assert text.splitlines()[1] == "0,80,80"


def test_supply_series_zero_trace(scen1):
    res = run(scen1, cfg(), const(0.0))
    _, rows = table(supply_series_csv(res))
    assert len(rows) == 4 and all(s == 0.0 for _, _, s in rows)


def test_shortfall_series(scen1):
    res = run(scen1, cfg("vrrp"), const(80.0))
    assert table(shortfall_series_csv(res))[1] == [(float(i), 16.0) for i in range(4)]
    res = run(scen1, cfg(), const(80.0))
    header, rows = table(shortfall_series_csv(res))
    assert header == ("time_s", "unmet_mbps")
    assert len(rows) == 4 and all(u == 0.0 for _, u in rows)
    # 80 Mbit in, 64 out, then the 16 left over drain in a silent second:
    # supplied above demand is no shortfall, not a negative one
    g = validate_group("g", [Link(id="a", capacity=64.0, priority=1)])  # cap 256
    res = run(g, cfg(), DemandTrace([(0.0, 80.0), (1.0, 0.0)]))
    assert table(shortfall_series_csv(res))[1] == [(0.0, 16.0), (1.0, 0.0)]


def test_reorder_indicator(scen1):
    res = run(scen1, cfg("vrrp"), const(120.0))
    _, rows = table(reorder_indicator_csv(res))
    assert len(rows) == 4 and all(c == 0 for _, c in rows)
    res = run(scen1, cfg(), const(30.0))  # all quanta fit the primary
    header, rows = table(reorder_indicator_csv(res))
    assert header == ("time_s", "reorder_events")
    assert len(rows) == 4 and all(c == 0 for _, c in rows)


def test_cost_report_no_traffic(scen1):
    rep = cost_report(run(scen1, cfg(), const(0.0)))
    assert rep.total_cost == 0.0 and rep.annual_cost == 0.0


def test_cost_report_definition():
    # one link, 8000 Mbit transmitted = 1 GB, at 2 per GB -> total 2
    g = validate_group("g", [Link(id="a", capacity=8000.0, priority=1,
                                  cost_per_gb=2.0)])
    res = run(g, EngineConfig(policy=PolicyId.OLB, quantum=100.0),
              DemandTrace([(0.0, 8000.0)]))
    rep = cost_report(res)
    assert rep.per_link == [("a", 1.0, 2.0, 2.0)]
    assert rep.total_gb == 1.0
    assert rep.total_cost == 2.0
    assert rep.annual_cost == 730.0


def test_cost_scales_linearly_with_duration(scen1):
    one = cost_report(run(scen1, cfg(), const(80.0, 5)))
    two = cost_report(run(scen1, cfg(), const(80.0, 10)))
    assert two.total_cost == pytest.approx(2 * one.total_cost, rel=1e-12)


def test_cost_report_csv_layout(scen1):
    text = cost_report_csv(cost_report(run(scen1, cfg(), const(80.0))))
    lines = text.splitlines()
    assert lines[0] == "link_id,transmitted_gb,cost_per_gb,cost"
    assert lines[1].startswith("L64,") and lines[2].startswith("L32,")
    assert lines[3].startswith("total,") and lines[4].startswith("annual,")


def test_merge_supply(scen1):
    tr = const(80.0)
    olb = run(scen1, cfg(), tr)
    vrrp = run(scen1, cfg("vrrp"), tr)
    text = merge_supply_csv([("olb", olb), ("vrrp", vrrp)])
    header, rows = table(text)
    assert header == ("time_s", "demand_mbps", "supplied_olb", "supplied_vrrp")
    assert rows[0] == (0.0, 80.0, 80.0, 64.0)
    assert text.splitlines()[1] == "0,80,80,64"


def test_merge_supply_single_policy(scen1):
    header, rows = table(merge_supply_csv([("olb", run(scen1, cfg(), const(10.0)))]))
    assert header == ("time_s", "demand_mbps", "supplied_olb")
    assert len(rows) == 4


def test_merge_supply_rejects_mismatched_traces(scen1):
    a = run(scen1, cfg(), const(10.0, 4))
    b = run(scen1, cfg(), const(10.0, 5))
    with pytest.raises(BadParameterError):
        merge_supply_csv([("a", a), ("b", b)])
    c = run(scen1, cfg(), const(20.0, 4))
    with pytest.raises(BadParameterError):
        merge_supply_csv([("a", a), ("c", c)])
    with pytest.raises(BadParameterError):
        merge_supply_csv([])


def _streamed_texts(g, c, trace, failures):
    """simulate --report all's four texts, rendered as its run flushes, or
    the run's error."""
    try:
        checked, ticks = engine._setup(g, c, PolicyState(), trace, failures)
    except AllLinksFailedError as e:
        return str(e)
    chunks = _report_chunks(checked, _REPORTS, engine._streamed(trace, checked.n, ticks))
    return ["".join(texts) for texts in zip(*chunks)]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(runs(), quanta)
@example((validate_group("g", [Link(f"l{i}", 2.0, i + 1, 1.0 + i) for i in range(16)]),
          DemandTrace([(float(k), (7.5, 0.0, 40.25)[k % 3]) for k in range(1300)]),
          [(400.5, "l0", "down"), (900.0, "l0", "up")]), 0.5)
def test_streamed_reports_equal_the_renderings_of_run(instance, quantum):
    # simulate renders each flushed chunk (a 16-link run flushes every 1,285
    # ticks) and folds the cost over them; every policy gives the texts the
    # public renderers give run()'s result, and _supplied run()'s column
    g, trace, failures = instance
    for policy in PolicyId:
        c = EngineConfig(policy, quantum=quantum)
        streamed = _streamed_texts(g, c, trace, failures)
        try:
            res = run(g, c, trace, failures)
        except AllLinksFailedError as e:
            assert streamed == str(e)
            continue
        assert streamed == [supply_series_csv(res), shortfall_series_csv(res),
                            cost_report_csv(cost_report(res)), reorder_indicator_csv(res)]
        assert engine._supplied(g, c, trace, failures).tobytes() == res.supplied.tobytes()
