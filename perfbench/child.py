"""Child process for the rla benchmark, started fresh for every measurement.

    python3 child.py setup TICK LINKS TRACE [FAILURES]
        load the inputs the way the CLI does and print the monotonic time at
        which they are loaded
    python3 child.py replay SPEC INDEX OUT
        replay invocation INDEX of the CLI sequence in SPEC (a JSON file
        written by run.py) through the library's public functions, writing
        the files the CLI writes and the spans to OUT

The replay follows the call order of ``rla.cli`` (parse links, validate,
parse trace, parse failures, run each policy, then render and write each
report), and records one span around every call into a layer. Phases are
named parse / validate / engine / render / write.

Only ``sys`` and ``time`` are imported before the inputs are loaded, so the
set-up time is the interpreter's start plus ``import rla`` plus the parse
and validate calls every CLI invocation pays.
"""

import sys
import time

# in the order rla.cli writes them for --report all
REPORT_RENDERERS = {
    "supply": "supply_series_csv",
    "shortfall": "shortfall_series_csv",
    "cost": "cost_report_csv",
    "reorder": "reorder_indicator_csv",
}


class Tracer:
    """In-memory spans: name, phase, start, end, parent index, workload."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._stack = []

    def span(self, name, phase):
        return _Span(self, name, phase)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name, phase):
        self.tracer = tracer
        self.record = {"name": name, "phase": phase, "start": 0.0, "end": 0.0,
                       "parent": tracer._stack[-1] if tracer._stack else None,
                       "workload": tracer.workload}

    def __enter__(self):
        tr = self.tracer
        tr._stack.append(len(tr.spans))
        tr.spans.append(self.record)
        self.record["start"] = time.monotonic()

    def __exit__(self, *exc):
        self.record["end"] = time.monotonic()
        self.tracer._stack.pop()
        return False


def _read(path):
    with open(path) as f:
        return f.read()


def setup(tick, links_path, trace_path, failures_path=None):
    import rla
    links = rla.parse_links(_read(links_path))
    rla.validate_group("links", links, float(tick))
    rla.parse_trace(_read(trace_path))
    if failures_path:
        rla.parse_failures(_read(failures_path))
    loaded = time.monotonic()
    print(repr(loaded))


def replay(spec, index):
    import rla
    from pathlib import Path

    inv = spec["sequence"][index]
    paths = spec["paths"]
    out_dir = Path(spec["replay_dir"])
    tick, quantum = spec["tick"], spec["quantum"]
    tr = Tracer(spec["workload"])
    with tr.span(f"cli.{inv['command']}", "cli"):
        links_text = _read(paths["links"])
        with tr.span("traceio.parse_links", "parse"):
            links = rla.parse_links(links_text)
        with tr.span("links.validate_group", "validate"):
            group = rla.validate_group(Path(paths["links"]).stem, links, tick)
        trace_text = _read(paths["trace"])
        with tr.span("traceio.parse_trace", "parse"):
            trace = rla.parse_trace(trace_text)
        failures = None
        if "failures" in paths:
            failures_text = _read(paths["failures"])
            with tr.span("traceio.parse_failures", "parse"):
                failures = rla.parse_failures(failures_text)
        labeled = []
        for name in inv["policies"]:
            cfg = rla.EngineConfig(policy=rla.PolicyId.parse(name), tick=tick,
                                   quantum=quantum)
            with tr.span(f"engine.run.{name}", "engine"):
                labeled.append((name, rla.run(group, cfg, trace, failures=failures)))
        if inv["command"] == "compare":
            with tr.span("reports.merge_supply_csv", "render"):
                text = rla.merge_supply_csv(labeled)
            with tr.span("cli.write", "write"):
                (out_dir / inv["outputs"][0]).write_text(text)
        else:
            result = labeled[0][1]
            for (report, renderer), out in zip(REPORT_RENDERERS.items(), inv["outputs"]):
                with tr.span(f"reports.{renderer}", "render"):
                    if report == "cost":
                        text = rla.cost_report_csv(rla.cost_report(result))
                    else:
                        text = getattr(rla, renderer)(result)
                with tr.span("cli.write", "write"):
                    (out_dir / out).write_text(text)
    return tr.spans


def main(argv):
    if argv and argv[0] == "setup":
        setup(*argv[1:])
    elif argv and argv[0] == "replay":
        import json
        with open(argv[1]) as f:
            spec = json.load(f)
        spans = replay(spec, int(argv[2]))
        with open(argv[3], "w") as f:
            json.dump(spans, f)
    else:
        raise SystemExit(f"usage: child.py setup|replay ... (got {argv!r})")


if __name__ == "__main__":
    main(sys.argv[1:])
