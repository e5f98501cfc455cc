import csv
import gc
import io
import math
import random
import sys
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as hs

import trace_reference

from rla import (
    BadParameterError,
    BadWindowError,
    DemandTrace,
    EmptyGroupError,
    EmptyTraceError,
    Link,
    ParseError,
    links_to_csv,
    parse_failures,
    parse_links,
    parse_trace,
    synth_diurnal,
    trace_to_csv,
)
from rla import traceio
from rla.traceio import ROWS, _csv_chunks, format_number

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


@pytest.mark.parametrize("text, line, reason", [
    ("time_s,demand_mbps\n0,1\n0,2\n", 3, "trace times must be strictly increasing (0.0 after 0.0)"),
    ("5,1\n\n# c\n4.5,2\n", 4, "trace times must be strictly increasing (4.5 after 5.0)"),
    ("time_s,demand_mbps\n0,-1\n", 2, "demand at t=0.0 must be finite and nonnegative, got -1.0"),
    ('0,1\n"1"," -0.5"\n', 2, "demand at t=1.0 must be finite and nonnegative, got -0.5"),
    # several faults: the first faulty line is reported, not the parse fault after it
    ("0,1\n1,-1\n2,x\n", 2, "demand at t=1.0 must be finite and nonnegative, got -1.0"),
])
def test_parse_trace_reports_order_and_sign_faults_at_their_line(text, line, reason):
    with pytest.raises(ParseError) as ei:
        parse_trace(text)
    assert (ei.value.line, ei.value.reason) == (line, reason)


def test_parse_trace_columns():
    tr = parse_trace("time_s,demand_mbps\n0,20\n 1 ,\t20.5\n\"2\",12e1\n")
    assert list(tr.t) == [0.0, 1.0, 2.0] and list(tr.demand) == [20.0, 20.5, 120.0]
    assert tr == DemandTrace([(0, 20), (1.0, 20.5), (2.0, 120.0)])
    assert tr != DemandTrace([(0.0, 20.0), (1.0, 20.5), (2.5, 120.0)])


@pytest.mark.parametrize("parse, text, line, reason", [
    (parse_trace, "time_s,demand_mbps\n0,5\n1_0,5\n", 3, "bad time_s: '1_0'"),
    (parse_trace, "# a_comment\n0,1_2e1\n", 2, "bad demand_mbps: '1_2e1'"),
    (parse_trace, '0,5\n1," 2_5"\n', 2, "bad demand_mbps: ' 2_5'"),
    (parse_links, LINKS_CSV.replace("L64,64,1", "L64,6_4,1"), 2, "bad capacity_mbps: '6_4'"),
    (parse_links, LINKS_CSV.replace("L32,32,2", "L32,32,1_0"), 3, "bad priority: '1_0'"),
    (parse_links, LINKS_CSV.replace("2,2,,", "2,2,1_6,"), 3, "bad threshold_mbit: '1_6'"),
    (parse_failures, "time_s,link_id,event\n1_0,L64,down\n", 2, "bad time_s: '1_0'"),
])
def test_readers_reject_underscores_in_numbers(parse, text, line, reason):
    # float() and int() read '1_0' as 10, which no writer would give back
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert (ei.value.line, ei.value.reason) == (line, reason)


def test_underscores_outside_numbers_still_read():
    assert parse_trace("# my_trace\n0,5\n1,6\n").samples == [(0.0, 5.0), (1.0, 6.0)]
    assert parse_trace("# run_1\n0,5\n").samples == [(0.0, 5.0)]
    assert parse_failures("time_s,link_id,event\n0,L_1,down\n") == [(0.0, "L_1", "down")]


def test_parse_trace_memory_is_columnar():
    # 16 bytes per sample: one float in each of the two columns; 1.25x leaves
    # room for the arrays' growth slack
    n = 100_000
    text = "time_s,demand_mbps\n" + "".join(f"{i},{i % 97}.5\n" for i in range(n))
    parse_trace("0,1\n")  # first-call set-up stays out of the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = parse_trace(text)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == n
    bound = 1.25 * 16 * n + 16 * 1024
    assert retained <= bound, f"{retained / n:.0f} B per sample retained"


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


# True passes isfinite, but written as it is it reads back as "bad ...: 'True'"
@pytest.mark.parametrize("field, value", [("capacity", float("nan")), ("cost_per_gb", float("inf")),
                                          ("threshold", -float("inf")), ("buffer_cap", float("nan")),
                                          ("capacity", True), ("cost_per_gb", True),
                                          ("threshold", True), ("buffer_cap", True)])
def test_links_writer_rejects_non_finite_numbers(field, value):
    link = Link(id="a", capacity=8.0, priority=1, cost_per_gb=1.0, threshold=8.0, buffer_cap=8.0)
    setattr(link, field, value)
    with pytest.raises(BadParameterError, match="must be a finite number"):
        links_to_csv([link])


@pytest.mark.parametrize("priority", [1.5, True])
def test_links_writer_rejects_priorities_the_reader_rejects(priority):
    # written as they were, these read back as "bad priority: '1.5'" and "'True'"
    with pytest.raises(BadParameterError, match="priority must be an int"):
        links_to_csv([Link("a", 1.0, priority)])


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="ints convert to str at any length before Python 3.11")
def test_links_writer_rejects_priorities_too_long_to_write():
    with pytest.raises(BadParameterError, match="priority of link 'a' has too many digits"):
        links_to_csv([Link("a", 1.0, 10**5000)])


@pytest.mark.parametrize("row, reason", [("inf,a,down", "time_s must be a finite number"),
                                         ("nan,a,up", "time_s must be a finite number"),
                                         ("True,a,down", "bad time_s: 'True'"),
                                         ("1,a,FLAP", "event must be 'up' or 'down'")])
def test_parse_failures_rejects_rows_no_schedule_holds(row, reason):
    with pytest.raises(ParseError, match=reason) as ei:
        parse_failures(f"time_s,link_id,event\n0,a,down\n{row}\n")
    assert ei.value.line == 3


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


def test_parse_failures_strips_ids_and_rejects_empty_ones():
    text = "time_s,link_id,event\n1, y ,down\n2,y\t,up\n"
    assert parse_failures(text) == [(1.0, "y", "down"), (2.0, "y", "up")]
    with pytest.raises(ParseError, match="empty link_id"):
        parse_failures('time_s,link_id,event\n1,"",down\n')


@pytest.mark.parametrize("c", LINE_BREAKS)
def test_parse_failures_splits_a_quoted_id_at_a_line_break(c):
    with pytest.raises(ParseError, match="expected 3 fields, got 2") as ei:
        parse_failures(f'time_s,link_id,event\n1,"y{c}z",down\n')
    assert ei.value.line == 2


def test_writers_show_an_oversized_int_id_by_its_size():
    # its repr would pass sys.get_int_max_str_digits(); the id is checked
    # before the priority, whose message names it
    huge = 10**5000
    with pytest.raises(BadParameterError, match="^id an int of 16610 bits would not"):
        links_to_csv([Link(huge, 8.0, huge, 1.0)])


@pytest.mark.parametrize("link_id", ["a#b", "a,b", 'a"b', '"a', "a b", "\x00"])
def test_writers_keep_ids_the_reader_gives_back(link_id):
    links = one_link(link_id)
    assert parse_links(links_to_csv(links)) == links


def test_parse_failures_reads_quoted_ids():
    # a '#' leads no failures row: the time does
    text = ('time_s,link_id,event\n1,"a,b",down\n2,"a""b",up\n3,#a,down\n'
            '4,"#a,""b""",up\n')
    assert parse_failures(text) == [(1.0, "a,b", "down"), (2.0, 'a"b', "up"),
                                    (3.0, "#a", "down"), (4.0, '#a,"b"', "up")]


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


# ids a failures row gives back: no surrounding whitespace, no line break
read_ids = hs.text(min_size=1, max_size=6).filter(
    lambda s: s == s.strip() and s.splitlines() == [s])


@ROUND_TRIP
@given(hs.lists(hs.tuples(finite, read_ids, hs.sampled_from(("up", "down", "UP", "Down"))),
                max_size=6))
def test_parse_failures_reads_rows_the_csv_module_writes(events):
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(("time_s", "link_id", "event"))
    w.writerows((repr(t), link_id, event) for t, link_id, event in events)
    assert parse_failures(out.getvalue()) == [(t, link_id, event.lower())
                                              for t, link_id, event in events]


HEADERS = ["time_s,demand_mbps", " Time_S , DEMAND_MBPS\t", '"time_s","demand_mbps"']
SKIPPED = ["# note", "  #0,1", "#", "", " ", "\t \x1f"]
# a line that breaks a trace, or a field that breaks a row, wherever it lands
ODD_LINES = HEADERS + ["time_s,demand_mbps,extra", "time_s", "1", "1,2,3", "1,", ",1", '"1,5",2']
ODD_FIELDS = ["nan", "-inf", "Infinity", "-0", ".5", "5.", "0x10", "x", "", "\x00", "1\x00",
              "\u0661\u0662", "1 2", '"3', '1"', ' "3"', "-1", "0", "1e308", "9"]


@hs.composite
def trace_texts(draw):
    """Trace-shaped text: increasing numeric rows with decorated fields,
    headers, comments and blanks, every line break, and up to three faults
    anywhere: an odd line or field, a repeated line or a negated field."""
    lines = draw(hs.lists(hs.sampled_from(SKIPPED), max_size=1))
    lines += draw(hs.lists(hs.sampled_from(HEADERS), max_size=1))
    t = 0
    for _ in range(draw(hs.integers(0, 6))):
        lines += draw(hs.lists(hs.sampled_from(SKIPPED), max_size=1))
        t += draw(hs.sampled_from([1, 2]))
        fields = [draw(hs.sampled_from([str(t), f"{t}.5", f"{t}e0", f"{t}_0", f"0{t}"])),
                  draw(hs.sampled_from(["0", "7.25", "1e3", "12_5", "2.5E-1"]))]
        lines.append(",".join(draw(hs.sampled_from(["{}", " {}", "{}\t", '"{}"'])).format(f)
                              for f in fields))
    for _ in range(draw(hs.integers(0, 3))):
        at = draw(hs.integers(0, len(lines)))
        how = draw(hs.sampled_from(["line", "field", "repeat", "negate"]))
        if how == "line" or at == len(lines):
            lines.insert(at, draw(hs.sampled_from(ODD_LINES)))
        elif how == "repeat":
            lines.insert(at, lines[at])
        else:
            fields = lines[at].split(",")
            k = draw(hs.integers(0, len(fields) - 1))
            fields[k] = draw(hs.sampled_from(ODD_FIELDS)) if how == "field" else "-" + fields[k]
            lines[at] = ",".join(fields)
    ends = draw(hs.lists(hs.sampled_from(LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    if ends and draw(hs.booleans()):
        ends[-1] = ""  # no break after the last line
    return "".join(map(str.__add__, lines, ends))


def reference_outcome(text):
    """The reference reader's columns, or the (line, reason) of its rejection.
    Two deliberate differences: an order or sign fault is reported at its
    line, and ahead of any parse fault on a later line."""
    rows, fault = [], None
    try:
        for row in trace_reference.trace_rows(text):
            rows.append(row)  # the rows before a parse fault count for sample_fault
    except trace_reference.ParseError as e:
        fault = (e.line, e.reason)
    fault = trace_reference.sample_fault(rows) or fault
    if fault or not rows:
        return fault
    return [t for _, t, _ in rows], [d for _, _, d in rows]


@settings(ROUND_TRIP, max_examples=400)
@given(trace_texts())
def test_parse_trace_matches_reference_reader(text):
    want = reference_outcome(text)
    if want is None:
        with pytest.raises(EmptyTraceError):
            parse_trace(text)
    elif isinstance(want[0], int):
        with pytest.raises(ParseError) as ei:
            parse_trace(text)
        assert (ei.value.line, ei.value.reason) == want
    else:
        tr = parse_trace(text)
        assert (tr.t.tolist(), tr.demand.tolist()) == want


def test_synth_diurnal_shape():
    tr = synth_diurnal(36000.0, 57600.0, 20.0, 120.0, samples_per_hour=60)
    assert len(tr) == 24 * 60
    demands = dict(tr.samples)
    assert demands[0.0] == 20.0                # flat base before the window
    assert demands[35940.0] == 20.0
    assert max(tr.demand) == 120.0          # peak at window midpoint
    assert demands[(36000.0 + 57600.0) / 2] == 120.0
    assert demands[60000.0] == 20.0            # back to base after the window
    assert all(20.0 <= d <= 120.0 for d in tr.demand)


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
    (0.0, 86400.0, 0.0, 1e308, 1),        # the ramp overflows the float range
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


@pytest.mark.parametrize("sample", [(True, 1.0), (0.0, True), (0.0, False)])
def test_demand_trace_rejects_bools(sample):
    # True and False pass every numeric check as 1 and 0
    with pytest.raises(BadParameterError, match="must hold numbers, not bools"):
        DemandTrace([sample])


@pytest.mark.parametrize("sample", [("1", 2.0), ("1_0", 2.0), (0.0, "2"), (b"1", 2.0),
                                    (None, 1.0), (0.0, None), (0.0, 1j), (10**400, 1.0)])
def test_demand_trace_rejects_what_is_not_a_number(sample):
    # float() reads the text '1_0' as 10, which every file reader rejects;
    # None, a complex and an int past the float range float() refuses
    with pytest.raises(BadParameterError, match="must hold numbers"):
        DemandTrace([sample])


def test_demand_trace_takes_ints_and_fractions_as_floats():
    trace = DemandTrace([(0, Fraction(5, 4)), (Fraction(1, 2) + 1, 3)])
    assert trace.samples == [(0.0, 1.25), (1.5, 3.0)]


# one field longer than csv's field size limit (131072 characters)
HUGE_FIELD = "x" * 140000


@pytest.mark.parametrize("parse, text", [
    (parse_trace, f"time_s,demand_mbps\n0,1\n{HUGE_FIELD},2\n"),
    (parse_links, LINKS_CSV + f"{HUGE_FIELD},8,3,1,,\n"),
    (parse_failures, f"time_s,link_id,event\n0,L64,down\n1,{HUGE_FIELD},up\n"),
], ids=["trace", "links", "failures"])
def test_oversized_csv_field_is_parse_error(parse, text):
    with pytest.raises(ParseError, match="field larger than field limit") as ei:
        parse(text)
    assert ei.value.line == text.count("\n")


def naive_csv(header, columns):
    """One format_number call per cell, the rendering _csv_chunks must equal."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(header)
    for row in zip(*columns):
        out.write(",".join(map(format_number, row)) + "\n")
    return out.getvalue()


# equal values of both types, both zeros, integral floats past 2**53, and
# the non-finite cells a library caller may pass
SPECIAL = [0, 0.0, -0.0, 1, 1.0, 3, 3.0, 10**16, 1e16, 2.0**60, 2**60, 0.5, -2.25,
           math.inf, -math.inf, math.nan]


@settings(deadline=None, max_examples=25, derandomize=True)
@given(n=hs.sampled_from([0, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5]),
       pool=hs.lists(hs.one_of(hs.sampled_from(SPECIAL), hs.floats(),
                               hs.integers(-2**63, 2**63 - 1)), min_size=1, max_size=6),
       seed=hs.integers(0, 2**32))
def test_chunk_renderer_equals_one_format_per_cell(n, pool, seed):
    rng = random.Random(seed)
    floats = [float(x) for x in pool]
    ints = [int(x) for x in floats if math.isfinite(x) and -2**63 <= x < 2**63] or [0]
    t = array("d", range(n))
    mixed = [rng.choice(pool + SPECIAL) for _ in range(n)]  # ints and floats, NaN objects shared
    as_float = array("d", [rng.choice(floats) for _ in range(n)])  # a fresh NaN per access
    as_int = array("q", [rng.choice(ints) for _ in range(n)])
    tables = [(("time_s", "demand_mbps", "supplied_a,b"), (t, as_float, mixed)),
              (("time_s", "count"), (t, as_int)),
              (('say "x"', "time_s", "again"), (as_float, t, as_float)),
              (("ints_as_floats",), (array("d", as_int),))]
    got = ["".join(texts) for texts in zip(*_csv_chunks(tables))]
    assert got == [naive_csv(header, columns) for header, columns in tables]


def test_chunk_renderer_formats_each_time_cell_once_and_other_values_at_most_once(monkeypatch):
    calls = []

    def counting(x):
        calls.append(x)
        return format_number(x)

    monkeypatch.setattr(traceio, "format_number", counting)
    rng = random.Random(20)
    n = 2 * ROWS + 7
    pool = [0, 0.0, -0.0, 1, 1.0, 3.0, 0.5, -2.25, 10**16, 1e16, 2.0**60]
    t = array("d", range(n))
    as_float = array("d", [rng.choice(pool) for _ in range(n)])
    mixed = [rng.choice(pool) for _ in range(n)]
    as_int = array("q", [rng.choice([0, 1, 7, 2**40]) for _ in range(n)])
    tables = [(("time_s", "a", "b"), (t, as_float, mixed)), (("time_s", "c"), (t, as_int)),
              (("b_again",), (mixed,))]
    chunks = _csv_chunks(tables)
    next(chunks)  # the header rows format no number
    assert calls == []
    for lo, _ in zip(range(0, n, ROWS), chunks):
        rows = slice(lo, lo + ROWS)
        times = Counter(t[rows])
        assert not times - Counter(calls)  # every time cell, each time a new value
        others = Counter(calls) - times  # 0, 0.0 and -0.0 are one value, so are 1e16 and 10**16
        assert max(others.values()) == 1
        assert set(others) <= set(as_float[rows]) | set(mixed[rows]) | set(as_int[rows])
        calls.clear()
    assert next(chunks, None) is None
