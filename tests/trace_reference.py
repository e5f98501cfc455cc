"""Reference demand-trace reader: the csv.reader-per-line parse that
rla.parse_trace replaced, kept to check the one-pass parser against.

Deliberately plain and self-contained, with no imports from the package
under test. trace_rows(text) yields (line_no, time_s, demand_mbps) for each
data row and raises ParseError where that reader did: on a row with the wrong
field count, a number float() refuses, or a number that is not finite; and,
unlike that reader, on a number with a digit-group underscore ('1_0'), which
float() reads as 10.
sample_fault(rows) is the check that reader ran afterwards over all samples.
It returned no line, so here it returns (line_no, reason) for the first
sample out of time order or with a negative demand, or None.
"""

import csv
import math

HEADER = ("time_s", "demand_mbps")


class ParseError(Exception):
    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


def _rows(text):
    first = True
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = next(csv.reader([raw]))
        if first:
            first = False
            if tuple(f.strip().lower() for f in fields) == HEADER:
                continue
        if len(fields) != len(HEADER):
            raise ParseError(line_no, f"expected {len(HEADER)} fields, got {len(fields)}")
        yield line_no, fields


def _float(fields, idx, line_no, what):
    try:
        if "_" in fields[idx]:
            raise ValueError(fields[idx])
        value = float(fields[idx])
    except ValueError:
        raise ParseError(line_no, f"bad {what}: {fields[idx]!r}") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"{what} must be a finite number, got {fields[idx]!r}")
    return value


def trace_rows(text):
    for line_no, fields in _rows(text):
        yield (line_no, _float(fields, 0, line_no, "time_s"),
               _float(fields, 1, line_no, "demand_mbps"))


def sample_fault(rows):
    prev = None
    for line_no, t, d in rows:
        if prev is not None and t <= prev:
            return line_no, f"trace times must be strictly increasing ({t} after {prev})"
        if not 0 <= d < math.inf:
            return line_no, f"demand at t={t} must be finite and nonnegative, got {d}"
        prev = t
    return None
