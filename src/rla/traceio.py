"""CSV readers/writers for link groups, demand traces, and failure schedules.

All formats are plain comma-separated text with a fixed header row:

    links:    id,capacity_mbps,priority,cost_per_gb,threshold_mbit,buffer_cap_mbit
    demand:   time_s,demand_mbps
    failures: time_s,link_id,event        (event is "up" or "down")

Readers skip blank lines and lines starting with '#', and reject a number
written with a digit-group underscore ('1_0'), which float() and int() would
read as 10. Writers always emit the header and '\n' line endings, and reject
what the readers reject (a number that is not finite or is a bool, a priority
that is not an int, an event other than "up" or "down") or would read back
changed (an id; see _writable_id), so a parse/serialize round trip is
byte-identical.
synth_diurnal generates the triangular day-long demand shape used by the
bundled scenarios. _csv_chunks renders the per-tick report tables.
"""

import csv
import io
import math
from array import array

from .errors import (BadParameterError, BadWindowError, EmptyGroupError,
                     EmptyTraceError, ParseError, _shown)
from .links import Link, _Record, _real

LINKS_HEADER = ("id", "capacity_mbps", "priority", "cost_per_gb",
                "threshold_mbit", "buffer_cap_mbit")
TRACE_HEADER = ("time_s", "demand_mbps")
FAILURES_HEADER = ("time_s", "link_id", "event")

# rows per chunk of a rendered table (see _csv_chunks), and the most ticks the
# engine holds back before it flushes them to a result (engine._flush)
ROWS = 4096

DAY_S = 86400.0
# one sample per 10 ms, 8.64 million a day: synth_diurnal builds its trace in
# memory and rejects a finer resolution before making any sample
MAX_SAMPLES_PER_HOUR = 360_000


class DemandTrace(_Record):
    """An ordered series of samples, held as two array('d') columns: t
    (time_s, strictly increasing) and demand (demand_mbps, nonnegative).

    DemandTrace(samples) takes (time_s, demand_mbps) pairs and checks them;
    samples gives them back as a list of tuples, built on each access.
    """

    __match_args__ = ("t", "demand")

    def __init__(self, samples):
        self.t, self.demand = array("d"), array("d")
        prev = -math.inf
        for t, d in samples:
            ft, fd = _real(t), _real(d)
            if ft is None or fd is None:
                raise BadParameterError(f"sample ({_shown(t)}, {_shown(d)}) must hold "
                                        f"numbers, not bools or text")
            t, d = ft, fd
            reason = _sample_fault(t, d, prev)
            if reason:
                raise BadParameterError(reason)
            self.t.append(t)
            self.demand.append(d)
            prev = t
        if not self.t:
            raise EmptyTraceError("demand trace has no samples")

    @classmethod
    def _of(cls, t: array, demand: array) -> "DemandTrace":
        """A trace over columns the caller has already checked."""
        trace = cls.__new__(cls)
        trace.t, trace.demand = t, demand
        return trace

    def __len__(self):
        return len(self.t)

    @property
    def samples(self) -> list:
        return list(zip(self.t, self.demand))


def _sample_fault(t: float, d: float, prev: float):
    """Why sample (t, d) may not follow one at time prev, or None if it may."""
    inf = math.inf
    # chained comparisons are False for NaN, so each check also rejects it
    if not -inf < t < inf:
        return f"trace time {t} is not finite"
    if t <= prev:
        return f"trace times must be strictly increasing ({t} after {prev})"
    if not 0 <= d < inf:
        return f"demand at t={t} must be finite and nonnegative, got {d}"
    return None


def _row(line_no: int, raw: str, header: tuple, first: bool):
    """None for a blank or '#' comment line, [] for a header row (a row equal
    to header, when first: no row came before it), else the row's
    len(header) fields; rejects a row with any other field count."""
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    try:
        fields = next(csv.reader([raw]))
    except csv.Error as e:  # a field past csv's size limit, say
        raise ParseError(line_no, f"bad CSV row: {e}") from None
    if first and tuple(f.strip().lower() for f in fields) == header:
        return []
    if len(fields) != len(header):
        raise ParseError(line_no, f"expected {len(header)} fields, got {len(fields)}")
    return fields


def _rows(text: str, header: tuple):
    """Yield (line_no, fields) for the data rows of text (see _row)."""
    first = True
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = _row(line_no, raw, header, first)
        if fields is not None:
            first = False
            if fields:
                yield line_no, fields


def _number(text: str, kind=float):
    """kind(text), float or int, but a ValueError for a digit-group
    underscore, which both would accept ('1_0' is 10) and no writer emits."""
    if "_" in text:
        raise ValueError(f"underscore in number {text!r}")
    return kind(text)


def _float(fields, idx, line_no, what) -> float:
    try:
        value = _number(fields[idx])  # float() itself ignores surrounding whitespace
    except ValueError:
        raise ParseError(line_no, f"bad {what}: {fields[idx]!r}") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"{what} must be a finite number, got {fields[idx]!r}")
    return value


def parse_trace(text: str) -> DemandTrace:
    """Parse time_s,demand_mbps CSV into a DemandTrace in one pass; a faulty
    line, including one out of time order or with a negative demand, raises
    ParseError with its line number."""
    t_col, d_col = array("d"), array("d")
    add_t, add_d = t_col.append, d_col.append
    inf = math.inf
    prev = -inf
    first = True
    for line_no, raw in enumerate(text.splitlines(), start=1):
        # Fast path for a plain 'number,number' row. Both halves parse as
        # floats only when the row holds one comma and no quote, so csv
        # would split it the same way, and it is neither blank nor a comment.
        # A row with a '_' (float reads '1_0' as 10) takes the checked path.
        time_s, _, demand = raw.partition(",")
        try:
            t, d = float(time_s), float(demand)
        except ValueError:
            pass
        else:
            if prev < t < inf and 0 <= d < inf and "_" not in raw:
                add_t(t)
                add_d(d)
                prev = t
                continue
        # every other line: the readers' shared per-line rules, then the checks
        fields = _row(line_no, raw, TRACE_HEADER, first and not t_col)
        if fields is None:
            continue
        first = False
        if not fields:
            continue
        t = _float(fields, 0, line_no, "time_s")
        d = _float(fields, 1, line_no, "demand_mbps")
        reason = _sample_fault(t, d, prev)
        if reason:
            raise ParseError(line_no, reason)
        add_t(t)
        add_d(d)
        prev = t
    if not t_col:
        raise EmptyTraceError("demand trace has no samples")
    return DemandTrace._of(t_col, d_col)


def trace_to_csv(trace: DemandTrace) -> str:
    return "".join(text for text, in _csv_chunks([(TRACE_HEADER, (trace.t, trace.demand))]))


def parse_links(text: str) -> list:
    """Parse the links CSV into Link objects.

    threshold_mbit and buffer_cap_mbit may be left empty; validate_group
    fills the defaults (capacity x tick, and 4x threshold) later.
    """
    links = []
    for line_no, fields in _rows(text, LINKS_HEADER):
        link_id = fields[0].strip()
        if not link_id:
            raise ParseError(line_no, "empty link id")
        capacity = _float(fields, 1, line_no, "capacity_mbps")
        prio_raw = fields[2].strip()
        try:
            priority = _number(prio_raw, int)
        except ValueError:
            raise ParseError(line_no, f"bad priority: {prio_raw!r}") from None
        cost = _float(fields, 3, line_no, "cost_per_gb")
        thr = fields[4].strip()
        cap = fields[5].strip()
        threshold = _float(fields, 4, line_no, "threshold_mbit") if thr else None
        buffer_cap = _float(fields, 5, line_no, "buffer_cap_mbit") if cap else None
        links.append(Link(id=link_id, capacity=capacity, priority=priority,
                          cost_per_gb=cost, threshold=threshold, buffer_cap=buffer_cap))
    if not links:
        raise EmptyGroupError("no link rows found")
    return links


def _writable_id(value, leads_row: bool):
    """value, checked to read back unchanged: readers strip fields, split rows
    at str.splitlines and skip a row led by '#' (leads_row: value leads its row)."""
    if not isinstance(value, str) or not value or value != value.strip():
        reason = "is not a nonempty string without surrounding whitespace"
    elif value.splitlines() != [value]:
        reason = "holds a line break"
    elif leads_row and value.startswith("#"):
        reason = "starts with '#', which marks a comment row"
    else:
        return value
    raise BadParameterError(f"id {_shown(value)} would not read back unchanged: it {reason}")


def _writable_number(value, what: str) -> str:
    """value as CSV text, checked to be a finite number and not a bool, which
    would be written 'True', as the readers require."""
    real = _real(value)
    if real is None or not math.isfinite(real):
        raise BadParameterError(f"{what} must be a finite number, got {_shown(value)}")
    return format_number(value)


def links_to_csv(links) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(LINKS_HEADER)
    for l in links:
        link_id = _writable_id(l.id, True)  # first: the priority message shows it
        if isinstance(l.priority, bool) or not isinstance(l.priority, int):  # True is written 'True'
            raise BadParameterError(f"priority must be an int, got {_shown(l.priority)}")
        try:
            priority = str(l.priority)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            raise BadParameterError(f"priority of link {l.id!r} has too many digits") from None
        w.writerow([
            link_id, _writable_number(l.capacity, "capacity_mbps"), priority,
            _writable_number(l.cost_per_gb, "cost_per_gb"),
            "" if l.threshold is None else _writable_number(l.threshold, "threshold_mbit"),
            "" if l.buffer_cap is None else _writable_number(l.buffer_cap, "buffer_cap_mbit"),
        ])
    return out.getvalue()


def parse_failures(text: str) -> list:
    """Parse time_s,link_id,event CSV into (time, link_id, event) tuples."""
    events = []
    for line_no, fields in _rows(text, FAILURES_HEADER):
        t = _float(fields, 0, line_no, "time_s")
        link_id = fields[1].strip()
        if not link_id:
            raise ParseError(line_no, "empty link_id")
        event = fields[2].strip().lower()
        if event not in ("up", "down"):
            raise ParseError(line_no, f"event must be 'up' or 'down', got {fields[2]!r}")
        events.append((t, link_id, event))
    return events


def failures_to_csv(events) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(FAILURES_HEADER)
    for t, link_id, event in events:
        if event not in ("up", "down"):
            raise BadParameterError(f"event must be 'up' or 'down', got {event!r}")
        w.writerow([_writable_number(t, "time_s"), _writable_id(link_id, False), event])
    return out.getvalue()


class _Texts(dict):
    """format_number(x) under key x, formatted on the first lookup of x."""
    def __missing__(self, x):
        text = self[x] = format_number(x)
        return text


def _csv_chunks(tables):
    """Render tables, a sequence of (header, columns) pairs over the same
    rows, in lockstep: yield one text per table, first each header row, then
    each run of up to ROWS rows. Per chunk, each distinct column (a column
    shared by several tables counts once) is sliced once, and each cell is
    one lookup in the chunk's _Texts, so equal numbers format once and alike
    (1 and 1.0, -0.0 and 0.0); a NaN read afresh from an array is a new key
    and formats as nan. The first column, time_s in every caller's tables,
    never repeats and goes straight through format_number. The rows stop at
    the shortest column."""
    texts = []
    for header, _ in tables:
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow(header)
        texts.append(out.getvalue())
    yield texts
    distinct = list({id(c): c for _, columns in tables for c in columns}.values())
    slot = {id(c): i for i, c in enumerate(distinct)}
    layout = [[slot[id(c)] for c in columns] for _, columns in tables]
    n = min(map(len, distinct), default=0)
    for lo in range(0, n, ROWS):
        lookup = _Texts().__getitem__
        cells = [list(map(lookup if i else format_number, c[lo:lo + ROWS]))
                 for i, c in enumerate(distinct)]
        yield ["\n".join(map(",".join, zip(*[cells[i] for i in row]))) + "\n"
               for row in layout]


def format_number(x) -> str:
    """A number as CSV text: ints as str, integral floats without the
    trailing .0 (str(int(x)), so -0.0 is '0'), other floats as repr."""
    if isinstance(x, float):
        return str(int(x)) if x.is_integer() else repr(x)
    return str(x)


def synth_diurnal(peak_start_s: float, peak_end_s: float, base_mbps: float,
                  peak_mbps: float, samples_per_hour: int) -> DemandTrace:
    """Triangular day profile: flat base, ramp up from peak_start to the
    window midpoint where demand hits peak_mbps, ramp back down to base at
    peak_end, flat base for the rest of the day.

    Samples are spaced 3600/samples_per_hour seconds apart over [0, 86400);
    samples_per_hour is at most MAX_SAMPLES_PER_HOUR.
    """
    if not (0 <= peak_start_s < peak_end_s <= DAY_S):
        raise BadWindowError(
            f"peak window [{peak_start_s}, {peak_end_s}] must sit inside the day")
    if not 0 <= base_mbps <= peak_mbps < math.inf:
        raise BadWindowError(
            f"need 0 <= base <= peak < inf, got base={base_mbps} peak={peak_mbps}")
    if not 1 <= samples_per_hour <= MAX_SAMPLES_PER_HOUR \
            or int(samples_per_hour) != samples_per_hour:
        raise BadWindowError(f"samples_per_hour must be an integer from 1 to "
                             f"{MAX_SAMPLES_PER_HOUR}, got {samples_per_hour}")
    n = int(24 * samples_per_hour)
    dt = 3600.0 / samples_per_hour
    mid = (peak_start_s + peak_end_s) / 2.0
    half = mid - peak_start_s
    rise = peak_mbps - base_mbps
    t_col, d_col = array("d"), array("d")
    for i in range(n):
        t = i * dt
        if t <= peak_start_s or t >= peak_end_s:
            d = base_mbps
        elif t <= mid:
            d = base_mbps + rise * (t - peak_start_s) / half
        else:
            d = base_mbps + rise * (peak_end_s - t) / half
        t_col.append(t)
        d_col.append(d)
    if not max(d_col) < math.inf:
        raise BadWindowError(f"peak {peak_mbps} Mbps overflows the ramp's float range")
    return DemandTrace._of(t_col, d_col)
