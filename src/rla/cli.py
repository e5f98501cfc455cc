"""Command-line front end.

    rla simulate --links links.csv --trace day.csv --policy olb [--report supply] [--out -]
    rla compare  --links links.csv --trace day.csv --policies olb,vrrp [--out -]
    rla scenario --name 1 --out-dir ./scen1

simulate runs one policy and writes the chosen report (supply, shortfall,
cost, reorder, or all). compare runs several policies over the same trace
and writes one merged supply table. scenario materializes a bundled demo
setup (links + diurnal trace CSV) to a directory.

Exit codes: 0 success, 1 bad input (unparseable CSV, unknown policy, bad
flag), 2 runtime failure (e.g. every link down under the single-master
policy). Output files for identical invocations are byte-identical; pass
--stamp to prepend a '# ...' comment header with a timestamp.
"""

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .engine import EngineConfig, run
from .errors import InputError, ParseError, RlaError
from .links import validate_group
from .policies import PolicyId, WfqDirection
from .reports import (
    cost_report,
    cost_report_csv,
    merge_supply_csv,
    reorder_indicator_csv,
    shortfall_series_csv,
    supply_series_csv,
)
from .scenarios import scenario_group, scenario_trace
from .traceio import links_to_csv, parse_failures, parse_links, parse_trace, trace_to_csv

_REPORTS = ("supply", "shortfall", "cost", "reorder")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; our contract reserves 2 for runtime."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="rla", description="Redundant link aggregation simulator.")
    p.add_argument("--version", action="version", version=f"rla {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp):
        sp.add_argument("--links", required=True, help="link group CSV")
        sp.add_argument("--trace", required=True, help="demand trace CSV")
        sp.add_argument("--tick", type=float, default=1.0, help="tick length in seconds")
        sp.add_argument("--quantum", type=float, default=1.0,
                        help="assignment unit in megabits")
        sp.add_argument("--wfq-direction", default="inverse",
                        help="wfq weighting: inverse (cheap carries more) or direct")
        sp.add_argument("--failures", help="failure schedule CSV (time_s,link_id,event)")
        sp.add_argument("--out", default="-", help="output path, '-' for stdout")
        sp.add_argument("--stamp", action="store_true",
                        help="prepend a comment header with version and timestamp")

    sim = sub.add_parser("simulate", help="run one policy and write reports")
    common(sim)
    sim.add_argument("--policy", required=True, help="olb, rr, wfq, or vrrp")
    sim.add_argument("--report", default="supply", choices=_REPORTS + ("all",),
                     help="which report to write (default supply)")
    sim.set_defaults(func=_cmd_simulate)

    cmp_ = sub.add_parser("compare", help="run several policies, merge supply columns")
    common(cmp_)
    cmp_.add_argument("--policies", required=True,
                      help="comma-separated list, e.g. olb,vrrp")
    cmp_.set_defaults(func=_cmd_compare)

    scen = sub.add_parser("scenario", help="write a bundled demo scenario")
    scen.add_argument("--name", required=True, help="scenario number: 1 or 2")
    scen.add_argument("--out-dir", required=True, help="directory for the CSV files")
    scen.add_argument("--samples-per-hour", type=int, default=None,
                      help="trace resolution override")
    scen.add_argument("--stamp", action="store_true",
                      help="prepend a comment header with version and timestamp")
    scen.set_defaults(func=_cmd_scenario)
    return p


def _parse_file(path: str, parser_fn):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from None
    try:
        return parser_fn(text)
    except ParseError as e:
        raise InputError(f"{path}:{e.line}: {e.reason}") from None


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from None


def _stamp_header(args) -> str:
    now = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return f"# rla {__version__} {args.command} {now}\n"


def _emit(args, text: str, suffix: str = None):
    """Write one report to --out; suffix derives per-report file names for
    --report all (results.csv -> results.supply.csv)."""
    if args.stamp:
        text = _stamp_header(args) + text
    if args.out == "-":
        if suffix:
            sys.stdout.write(f"# report: {suffix}\n")
        sys.stdout.write(text)
        return
    path = Path(args.out)
    if suffix:
        path = path.with_suffix(f".{suffix}{path.suffix}") if path.suffix \
            else Path(f"{path}.{suffix}.csv")
    _write(path, text)


def _load_run_inputs(args):
    links = _parse_file(args.links, parse_links)
    group = validate_group(Path(args.links).stem, links, args.tick)
    trace = _parse_file(args.trace, parse_trace)
    failures = _parse_file(args.failures, parse_failures) if args.failures else None
    return group, trace, failures


def _config(args, policy: PolicyId) -> EngineConfig:
    return EngineConfig(policy=policy, tick=args.tick, quantum=args.quantum,
                        wfq_direction=WfqDirection.parse(args.wfq_direction))


def _cmd_simulate(args) -> int:
    group, trace, failures = _load_run_inputs(args)
    result = run(group, _config(args, PolicyId.parse(args.policy)), trace, failures=failures)
    renderers = {
        "supply": lambda: supply_series_csv(result),
        "shortfall": lambda: shortfall_series_csv(result),
        "cost": lambda: cost_report_csv(cost_report(result)),
        "reorder": lambda: reorder_indicator_csv(result),
    }
    if args.report == "all":
        for name in _REPORTS:
            _emit(args, renderers[name](), suffix=name)
    else:
        _emit(args, renderers[args.report]())
    return 0


def _cmd_compare(args) -> int:
    group, trace, failures = _load_run_inputs(args)
    names = [tok.strip() for tok in args.policies.split(",") if tok.strip()]
    if not names:
        raise InputError("--policies needs at least one policy")
    policies = [PolicyId.parse(name) for name in names]  # labels stay as typed
    if len(set(policies)) != len(policies):
        raise InputError(f"duplicate policy in --policies: {args.policies}")
    labeled = [(name, run(group, _config(args, policy), trace, failures=failures))
               for name, policy in zip(names, policies)]
    _emit(args, merge_supply_csv(labeled))
    return 0


def _cmd_scenario(args) -> int:
    group = scenario_group(args.name)
    trace = scenario_trace(args.name, args.samples_per_hour)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InputError(f"{args.out_dir}: {e.strerror or e}") from None
    n = int(args.name)
    links_path = out_dir / f"scenario{n}_links.csv"
    trace_path = out_dir / f"scenario{n}_trace.csv"
    links_text = links_to_csv(group.links)
    trace_text = trace_to_csv(trace)
    if args.stamp:
        header = _stamp_header(args)
        links_text = header + links_text
        trace_text = header + trace_text
    _write(links_path, links_text)
    _write(trace_path, trace_text)
    print(links_path)
    print(trace_path)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"rla: error: {e}", file=sys.stderr)
        return 1
    except RlaError as e:
        print(f"rla: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
