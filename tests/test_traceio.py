import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as hs

from rla import (
    BadParameterError,
    BadWindowError,
    DemandTrace,
    EmptyGroupError,
    EmptyTraceError,
    Link,
    ParseError,
    failures_to_csv,
    links_to_csv,
    parse_failures,
    parse_links,
    parse_trace,
    synth_diurnal,
    trace_to_csv,
)

LINKS_CSV = """id,capacity_mbps,priority,cost_per_gb,threshold_mbit,buffer_cap_mbit
L64,64,1,1,64,64
L32,32,2,2,,
"""


def test_parse_links_basic():
    links = parse_links(LINKS_CSV)
    assert [l.id for l in links] == ["L64", "L32"]
    assert links[0].threshold == 64.0 and links[0].buffer_cap == 64.0
    assert links[1].threshold is None and links[1].buffer_cap is None
    assert links[1].cost_per_gb == 2.0


def test_parse_links_header_only_is_empty_group():
    with pytest.raises(EmptyGroupError):
        parse_links("id,capacity_mbps,priority,cost_per_gb,threshold_mbit,buffer_cap_mbit\n")


def test_parse_links_bad_number_reports_line():
    bad = LINKS_CSV.replace("32,2,2", "32,two,2")
    with pytest.raises(ParseError) as ei:
        parse_links(bad)
    assert ei.value.line == 3
    assert "priority" in ei.value.reason


def test_parse_links_wrong_field_count():
    with pytest.raises(ParseError):
        parse_links("a,1,1\n")


def test_links_round_trip():
    links = parse_links(LINKS_CSV)
    assert parse_links(links_to_csv(links)) == links


def test_parse_trace_and_round_trip():
    text = "time_s,demand_mbps\n0,20\n1,20.5\n2,120\n"
    tr = parse_trace(text)
    assert tr.samples == [(0.0, 20.0), (1.0, 20.5), (2.0, 120.0)]
    assert trace_to_csv(tr) == text


def test_parse_trace_headerless_and_comments():
    tr = parse_trace("# warm-up note\n0,5\n\n1,6\n")
    assert len(tr) == 2


def test_parse_trace_errors():
    with pytest.raises(EmptyTraceError):
        parse_trace("time_s,demand_mbps\n")
    with pytest.raises(ParseError) as ei:
        parse_trace("time_s,demand_mbps\n0,x\n")
    assert ei.value.line == 2
    with pytest.raises(ParseError):
        parse_trace("0,1,2\n")


def test_trace_must_increase_and_be_nonnegative():
    with pytest.raises(BadParameterError):
        DemandTrace([(0.0, 5.0), (0.0, 6.0)])
    with pytest.raises(BadParameterError):
        DemandTrace([(1.0, 5.0), (0.5, 6.0)])
    with pytest.raises(BadParameterError):
        DemandTrace([(0.0, -1.0)])
    with pytest.raises(EmptyTraceError):
        DemandTrace([])


def test_parse_failures():
    evs = parse_failures("time_s,link_id,event\n10,L64,down\n25,L64,UP\n")
    assert evs == [(10.0, "L64", "down"), (25.0, "L64", "up")]
    assert parse_failures("time_s,link_id,event\n") == []


def test_parse_failures_rejects_unknown_event():
    with pytest.raises(ParseError) as ei:
        parse_failures("5,L64,flap\n")
    assert "up" in ei.value.reason and ei.value.line == 1


def test_failures_round_trip():
    evs = [(10.0, "a", "down"), (20.5, "a", "up")]
    assert parse_failures(failures_to_csv(evs)) == evs


# every character str.splitlines ends a line at, and its two-character "\r\n"
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


def one_link(link_id):
    return [Link(id=link_id, capacity=8.0, priority=1, cost_per_gb=1.0)]


@pytest.mark.parametrize("link_id", ["#a", " a", "a ", "", *(f"a{c}b" for c in LINE_BREAKS)])
def test_links_writer_rejects_ids_that_read_back_changed(link_id):
    # '#a' starts a row the reader skips as a comment, ' a' reads back as 'a',
    # and a line break splits the row in two
    with pytest.raises(BadParameterError, match="would not read back unchanged"):
        links_to_csv(one_link(link_id))


@pytest.mark.parametrize("link_id", [" y", "y\t", "", *(f"y{c}z" for c in LINE_BREAKS)])
def test_failures_writer_rejects_ids_that_read_back_changed(link_id):
    with pytest.raises(BadParameterError, match="would not read back unchanged"):
        failures_to_csv([(1.0, link_id, "down")])


@pytest.mark.parametrize("link_id", ["a#b", "a,b", 'a"b', '"a', "a b", "\x00"])
def test_writers_keep_ids_the_reader_gives_back(link_id):
    links = one_link(link_id)
    assert parse_links(links_to_csv(links)) == links
    events = [(1.0, link_id, "down"), (2.0, "#" + link_id, "up")]  # '#' leads no failures row
    assert parse_failures(failures_to_csv(events)) == events


finite = hs.floats(allow_nan=False, allow_infinity=False)
ids = hs.text(max_size=6).map(str.lstrip)  # mostly writable; trailing space, breaks, '#' remain
ROUND_TRIP = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def assert_round_trip(x, write, parse):
    try:
        text = write(x)
    except BadParameterError:
        reject()  # an id that would not read back; pinned by the tests above
    assert parse(text) == x
    assert write(parse(text)) == text


@ROUND_TRIP
@given(hs.lists(hs.builds(Link, id=ids, capacity=finite, priority=hs.integers(),
                          cost_per_gb=finite, threshold=hs.none() | finite,
                          buffer_cap=hs.none() | finite), min_size=1, max_size=3))
def test_links_round_trip_property(links):
    assert_round_trip(links, links_to_csv, parse_links)


@ROUND_TRIP
@given(hs.lists(finite, min_size=1, max_size=8, unique=True).flatmap(
    lambda ts: hs.lists(hs.floats(min_value=0.0, allow_infinity=False), min_size=len(ts),
                        max_size=len(ts)).map(lambda ds: list(zip(sorted(ts), ds)))))
def test_trace_round_trip_property(samples):
    assert_round_trip(DemandTrace(samples), trace_to_csv, parse_trace)


@ROUND_TRIP
@given(hs.lists(hs.tuples(finite, ids, hs.sampled_from(("up", "down"))), max_size=6))
def test_failures_round_trip_property(events):
    assert_round_trip(events, failures_to_csv, parse_failures)


def test_synth_diurnal_shape():
    tr = synth_diurnal(36000.0, 57600.0, 20.0, 120.0, samples_per_hour=60)
    assert len(tr) == 24 * 60
    demands = dict(tr.samples)
    assert demands[0.0] == 20.0                # flat base before the window
    assert demands[35940.0] == 20.0
    assert max(tr.demands()) == 120.0          # peak at window midpoint
    assert demands[(36000.0 + 57600.0) / 2] == 120.0
    assert demands[60000.0] == 20.0            # back to base after the window
    assert all(20.0 <= d <= 120.0 for d in tr.demands())


def test_synth_diurnal_is_symmetric_about_midpoint():
    tr = synth_diurnal(36000.0, 57600.0, 0.0, 100.0, samples_per_hour=30)
    demands = dict(tr.samples)
    mid = (36000.0 + 57600.0) / 2
    for off in (120.0, 1200.0, 7200.0):
        assert demands[mid - off] == pytest.approx(demands[mid + off])


@pytest.mark.parametrize("args", [
    (57600.0, 36000.0, 10.0, 20.0, 60),   # window reversed
    (-5.0, 57600.0, 10.0, 20.0, 60),      # starts before the day
    (36000.0, 90000.0, 10.0, 20.0, 60),   # ends after the day
    (36000.0, 57600.0, 30.0, 20.0, 60),   # base above peak
    (36000.0, 57600.0, -1.0, 20.0, 60),   # negative base
    (36000.0, 57600.0, 10.0, 20.0, 0),    # no samples
])
def test_synth_diurnal_rejects_bad_windows(args):
    with pytest.raises(BadWindowError):
        synth_diurnal(*args)


@pytest.mark.parametrize("text", ["time_s,demand_mbps\n0,nan\n", "time_s,demand_mbps\n0,-inf\n",
                                  "time_s,demand_mbps\ninf,1\n"])
def test_parse_trace_rejects_non_finite(text):
    with pytest.raises(ParseError, match="finite") as ei:
        parse_trace(text)
    assert ei.value.line == 2


def test_parse_links_and_failures_reject_non_finite():
    with pytest.raises(ParseError, match="cost_per_gb must be a finite") as ei:
        parse_links(LINKS_CSV.replace("L32,32,2,2", "L32,32,2,nan"))
    assert ei.value.line == 3
    with pytest.raises(ParseError, match="time_s must be a finite"):
        parse_failures("time_s,link_id,event\n-inf,L64,down\n")


@pytest.mark.parametrize("sample", [(0.0, float("nan")), (float("nan"), 1.0),
                                    (0.0, float("inf"))])
def test_demand_trace_rejects_non_finite(sample):
    with pytest.raises(BadParameterError, match="finite"):
        DemandTrace([sample])
