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
--stamp to prepend a '# ...' comment header with a timestamp. Run errors come
before any output file opens; reports are written as the runs render them.
Failure events that a run applies to no tick are reported as warnings on stderr.
"""

import argparse
import sys
from contextlib import ExitStack
from pathlib import Path

from . import __version__
from .engine import EngineConfig, _failure_timeline, _setup, _streamed, _supplied
from .errors import InputError, ParseError, RlaError
from .links import validate_group
from .policies import PolicyId, PolicyState, WfqDirection
from .reports import _report_chunks, _supply_table
from .traceio import (_csv_chunks, _number, format_number, links_to_csv, parse_failures,
                      parse_links, parse_trace, trace_to_csv)

_REPORTS = ("supply", "shortfall", "cost", "reorder")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; our contract reserves 2 for runtime."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _flag(kind):
    """A reader of a flag's kind (float or int) by the file readers' rule:
    '1_0' is an error, not 10."""
    def read(text: str):
        try:
            return _number(text, kind)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
    return read


def _build_parser() -> _Parser:
    p = _Parser(prog="rla", description="Redundant link aggregation simulator.")
    p.add_argument("--version", action="version", version=f"rla {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp):
        sp.add_argument("--links", required=True, help="link group CSV")
        sp.add_argument("--trace", required=True, help="demand trace CSV")
        sp.add_argument("--tick", type=_flag(float), default=1.0, help="tick length in seconds")
        sp.add_argument("--quantum", type=_flag(float), default=1.0,
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
    scen.add_argument("--samples-per-hour", type=_flag(int), default=None,
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
    except UnicodeDecodeError as e:  # its line as the readers' splitlines() counts it
        line = len((e.object[:e.start].decode(e.encoding, "replace") + "_").splitlines())
        raise InputError(f"{path}:{line}: not {e.encoding} text ({e.reason})") from None
    try:
        return parser_fn(text)
    except ParseError as e:
        raise InputError(f"{path}:{e.line}: {e.reason}") from None


def _stamp_header(args) -> str:
    from datetime import datetime, timezone  # imported here: only --stamp pays for it
    now = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return f"# rla {__version__} {args.command} {now}\n"


def _emit(args, names, chunks) -> None:
    """Write reports to --out as they are rendered: chunks yields lists of
    texts, one per name in names. One report goes to --out as it is. Several
    (--report all) go one file each (results.csv -> results.supply.csv), all
    open together, or to stdout each whole, one after another behind
    '# report: <name>' lines, --stamp's comment header first in each. All files
    open before any is emptied; when one cannot, those this call made are removed."""
    stamp = _stamp_header(args) if args.stamp else ""
    several = len(names) > 1
    if args.out == "-":
        reports = zip(names, zip(*chunks)) if several else [(None, (text for text, in chunks))]
        for name, texts in reports:
            sys.stdout.write(f"# report: {name}\n{stamp}" if name else stamp)
            sys.stdout.writelines(texts)
        return
    out = Path(args.out)
    paths = [out.with_suffix(f".{name}{out.suffix}") if out.suffix else
             Path(f"{out}.{name}.csv") for name in names] if several else [out]
    files, made = [], []
    try:
        with ExitStack() as stack:
            for path in paths:
                try:
                    files.append(stack.enter_context(open(path, "x")))
                    made.append(path)
                except FileExistsError:
                    files.append(stack.enter_context(open(path, "a")))
            for path, f in zip(paths, files):
                if path.is_file():  # emptied as "w" would: not a device or a pipe
                    f.truncate(0)
                f.write(stamp)
            for texts in chunks:
                for path, f, text in zip(paths, files, texts):
                    f.write(text)
            for path, f in zip(paths, files):
                f.close()
    except OSError as e:  # path is the file being opened, written or closed
        if len(files) < len(paths):  # an open failed: remove what this call made
            for made_path in made:
                made_path.unlink(missing_ok=True)
        raise InputError(f"{path}: {e.strerror or e}") from None


def _warn_unapplied(group, trace, failures) -> None:
    """One stderr warning per kind of failure event no tick sees."""
    last_t = trace.t[-1]
    _, late, repeats = _failure_timeline(group, failures, last_t)
    for events, what in ((late, f"after the last sample (t={format_number(last_t)})"),
                         (repeats, "that leave their link as it was (down when down, up when up)")):
        if events:
            t, link_id, kind = events[0]
            print(f"rla: warning: ignored {len(events)} failure event(s) {what}; "
                  f"the first: {format_number(t)},{link_id},{kind}", file=sys.stderr)


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
    config = _config(args, PolicyId.parse(args.policy))
    checked, ticks = _setup(group, config, PolicyState(), trace, failures)  # every run error
    _warn_unapplied(group, trace, failures)
    names = _REPORTS if args.report == "all" else (args.report,)
    _emit(args, names, _report_chunks(checked, names, _streamed(trace, checked.n, ticks)))
    return 0


def _cmd_compare(args) -> int:
    group, trace, failures = _load_run_inputs(args)
    names = [tok.strip() for tok in args.policies.split(",") if tok.strip()]
    if not names:
        raise InputError("--policies needs at least one policy")
    policies = [PolicyId.parse(name) for name in names]  # labels stay as typed
    if len(set(policies)) != len(policies):
        raise InputError(f"duplicate policy in --policies: {args.policies}")
    labeled = [(name, _supplied(group, _config(args, policy), trace, failures))
               for name, policy in zip(names, policies)]  # each run makes its supply alone
    _warn_unapplied(group, trace, failures)
    _emit(args, ["compare"], _csv_chunks([_supply_table(trace.t, trace.demand, labeled)]))
    return 0


def _cmd_scenario(args) -> int:
    from .scenarios import scenario_group, scenario_trace  # only this command loads it
    texts = {"links": links_to_csv(scenario_group(args.name).links),
             "trace": trace_to_csv(scenario_trace(args.name, args.samples_per_hour))}
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InputError(f"{args.out_dir}: {e.strerror or e}") from None
    stamp = _stamp_header(args) if args.stamp else ""
    paths = [out_dir / f"scenario{int(args.name)}_{kind}.csv" for kind in texts]
    for path, text in zip(paths, texts.values()):
        try:
            path.write_text(stamp + text)
        except OSError as e:
            raise InputError(f"{path}: {e.strerror or e}") from None
    print(*paths, sep="\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RlaError as e:
        print(f"rla: error: {e}", file=sys.stderr)
        return 1 if isinstance(e, InputError) else 2


if __name__ == "__main__":
    sys.exit(main())
