"""CSV readers/writers for link groups, demand traces, and failure schedules.

All formats are plain comma-separated text with a fixed header row:

    links:    id,capacity_mbps,priority,cost_per_gb,threshold_mbit,buffer_cap_mbit
    demand:   time_s,demand_mbps
    failures: time_s,link_id,event        (event is "up" or "down")

Readers skip blank lines and lines starting with '#'. Writers always emit the
header and '\n' line endings, and reject an id that would not read back
unchanged, so a parse/serialize round trip is byte-identical. synth_diurnal generates the triangular day-long demand shape
used by the bundled scenarios.
"""

import csv
import io
import math
from dataclasses import dataclass, field

from .errors import (BadParameterError, BadWindowError, EmptyGroupError,
                     EmptyTraceError, ParseError)
from .links import Link

LINKS_HEADER = ("id", "capacity_mbps", "priority", "cost_per_gb",
                "threshold_mbit", "buffer_cap_mbit")
TRACE_HEADER = ("time_s", "demand_mbps")
FAILURES_HEADER = ("time_s", "link_id", "event")

DAY_S = 86400.0


@dataclass
class DemandTrace:
    """An ordered series of (time_s, demand_mbps) samples."""

    samples: list = field(default_factory=list)

    def __post_init__(self):
        if not self.samples:
            raise EmptyTraceError("demand trace has no samples")
        prev = None
        inf = math.inf
        for t, d in self.samples:
            # chained comparisons are False for NaN, so each check also rejects it
            if not -inf < t < inf:
                raise BadParameterError(f"trace time {t} is not finite")
            if prev is not None and t <= prev:
                raise BadParameterError(
                    f"trace times must be strictly increasing ({t} after {prev})")
            if not 0 <= d < inf:
                raise BadParameterError(
                    f"demand at t={t} must be finite and nonnegative, got {d}")
            prev = t

    def __len__(self):
        return len(self.samples)

    def times(self):
        return [t for t, _ in self.samples]

    def demands(self):
        return [d for _, d in self.samples]


def _rows(text: str, header: tuple):
    """Yield (line_no, fields) for data rows; skips blanks, '#' comments and
    a first row equal to header, and rejects rows without len(header) fields."""
    first = True
    width = len(header)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = next(csv.reader([raw]))
        if first:
            first = False
            if tuple(f.strip().lower() for f in fields) == header:
                continue
        if len(fields) != width:
            raise ParseError(line_no, f"expected {width} fields, got {len(fields)}")
        yield line_no, fields


def _float(fields, idx, line_no, what) -> float:
    try:
        value = float(fields[idx])  # float() itself ignores surrounding whitespace
    except ValueError:
        raise ParseError(line_no, f"bad {what}: {fields[idx]!r}") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"{what} must be a finite number, got {fields[idx]!r}")
    return value


def parse_trace(text: str) -> DemandTrace:
    """Parse time_s,demand_mbps CSV into a DemandTrace."""
    samples = []
    for line_no, fields in _rows(text, TRACE_HEADER):
        t = _float(fields, 0, line_no, "time_s")
        d = _float(fields, 1, line_no, "demand_mbps")
        samples.append((t, d))
    return DemandTrace(samples)


def trace_to_csv(trace: DemandTrace) -> str:
    return columns_to_csv(TRACE_HEADER, trace.times(), trace.demands())


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
            priority = int(prio_raw)
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
    raise BadParameterError(f"id {value!r} would not read back unchanged: it {reason}")


def links_to_csv(links) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(LINKS_HEADER)
    for l in links:
        w.writerow([
            _writable_id(l.id, True), format_number(l.capacity), l.priority, format_number(l.cost_per_gb),
            "" if l.threshold is None else format_number(l.threshold),
            "" if l.buffer_cap is None else format_number(l.buffer_cap),
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
        w.writerow([format_number(t), _writable_id(link_id, False), event])
    return out.getvalue()


def columns_to_csv(header, *columns) -> str:
    """A header row over equal-length number columns, one row per index;
    each column is formatted once, lazily, as the rows are joined."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(header)
    lines = list(map(",".join, zip(*[map(format_number, c) for c in columns])))
    lines.append("")  # the last row's line end; no rows, no text
    out.write("\n".join(lines))
    return out.getvalue()


def format_number(x) -> str:
    """A number as CSV text: ints as str, integral floats without the
    trailing .0 (str(int(x)), so -0.0 is '0'), other floats as repr."""
    if isinstance(x, float) and x.is_integer():
        return str(int(x))
    return repr(x) if isinstance(x, float) else str(x)


def synth_diurnal(peak_start_s: float, peak_end_s: float, base_mbps: float,
                  peak_mbps: float, samples_per_hour: int) -> DemandTrace:
    """Triangular day profile: flat base, ramp up from peak_start to the
    window midpoint where demand hits peak_mbps, ramp back down to base at
    peak_end, flat base for the rest of the day.

    Samples are spaced 3600/samples_per_hour seconds apart over [0, 86400).
    """
    if not (0 <= peak_start_s < peak_end_s <= DAY_S):
        raise BadWindowError(
            f"peak window [{peak_start_s}, {peak_end_s}] must sit inside the day")
    if base_mbps < 0 or peak_mbps < base_mbps:
        raise BadWindowError(
            f"need 0 <= base <= peak, got base={base_mbps} peak={peak_mbps}")
    if samples_per_hour < 1 or int(samples_per_hour) != samples_per_hour:
        raise BadWindowError(f"samples_per_hour must be a positive integer, got {samples_per_hour}")
    n = int(24 * samples_per_hour)
    dt = 3600.0 / samples_per_hour
    mid = (peak_start_s + peak_end_s) / 2.0
    half = mid - peak_start_s
    rise = peak_mbps - base_mbps
    samples = []
    for i in range(n):
        t = i * dt
        if t <= peak_start_s or t >= peak_end_s:
            d = base_mbps
        elif t <= mid:
            d = base_mbps + rise * (t - peak_start_s) / half
        else:
            d = base_mbps + rise * (peak_end_s - t) / half
        samples.append((t, d))
    return DemandTrace(samples)
