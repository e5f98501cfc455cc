"""Layered, seeded benchmark for rla.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an rla checkout; it imports the package from
``src/`` and fails (exit 2, no result) when that is missing. Inputs come
from ``workloads.py`` and depend only on the workload name and the seed.
The load is one process with no worker threads; at most one child process
runs at a time, and all of them are pinned to one CPU.

With ``--trace 0`` it measures what a user sees, with tracing off. Rounds
repeat until ``--seconds`` have passed (at least MIN_ROUNDS); each round
holds:

* SETUPS_PER_ROUND fresh interpreters that ``import rla`` and parse and
  validate the workload's inputs (child.py setup). ``setup_s`` is the median
  time from spawn until the inputs are loaded.
* One pass of the workload's CLI sequence. ``cli_wall_s`` is the median of
  its summed spawn-to-exit wall time. ``peak_rss_mb`` is the median of the
  largest peak RSS of any CLI child, from that child's own ``os.wait4``
  rusage.
* In-process ``rla.run`` over every policy the workload names, repeated
  until INPROC_MIN_S have passed. ``run_ticks_per_s`` is the median of
  simulated ticks per host second.

The machine's speed is sampled around those steps with a fixed reference
kernel, and the three timing metrics are scaled to the kernel's REF_S
speed (see ``measure``); the raw medians are printed on a comment line.

With ``--trace 1`` it replays every CLI invocation in a fresh child
(child.py replay) that calls the library's public functions in the order
``rla.cli`` does and records a span around each call, next to an untraced
CLI call for the trace overhead. Calls the sequence never makes (the rr
policy on a workload that only simulates olb, say) are timed once in this
process on the same inputs, so every per-layer metric has a value; the
trace file lists them under "probed". Engine memory (tracemalloc), policy
selection cost and ``rla.step`` latency are measured here as well. Per-layer
times are raw; ``machine.slowdown`` gives the machine's speed relative to
the reference during the replays. Spans are written to
``perfbench/out/trace-<workload>-s<seed>.json`` at the end.

Every run checks its outputs: CLI exit codes, each output CSV parsing back
with one row per tick, byte identity between the CLI and the same
rendering done in-process, and the conservation invariants of criterion 4
on the in-process results. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import workloads
from workloads import POLICIES, TICK

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

SETUPS_PER_ROUND = 3
MIN_ROUNDS = 3
INPROC_MIN_S = 1.0
RUN_LIMIT_S = 170  # every child is killed once the run has taken this long
SELECT_BUDGET_S = 0.2
SELECT_BATCH = 1000
STEP_CALLS = 2000  # 20 samples beyond p99
MIB = float(1 << 20)
REF_QUANTA = 60_000
REF_S = 0.1  # reference-kernel time that defines the reference speed

LAYER_SPANS = (
    "traceio.parse_links", "links.validate_group", "traceio.parse_trace",
    "traceio.parse_failures",
    *(f"engine.run.{p}" for p in POLICIES),
    "reports.supply_series_csv", "reports.shortfall_series_csv",
    "reports.cost_report_csv", "reports.reorder_indicator_csv",
    "reports.merge_supply_csv", "cli.write",
)


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def spawn(argv, log_stem, timeout):
    """Run one child to completion, killing it after ``timeout`` seconds.

    Returns (exit_code, t_spawn, t_exit, peak_rss_mib) with monotonic times.
    The peak RSS comes from this child's own rusage (os.wait4), not from
    RUSAGE_CHILDREN, which is a running maximum over every child so far.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        old = signal.signal(signal.SIGALRM, _on_alarm)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t_spawn, t_exit, usage.ru_maxrss * 1024 / MIB


class Run:
    """One benchmark run: a workload, its files, and the operation tally."""

    def __init__(self, wl, seed, trace):
        self.wl = wl
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = OUT / f"{wl.name}-s{seed}-t{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.paths = {k: str(v) for k, v in wl.write_inputs(self.work / "in").items()}
        for sub in ("cli", "replay", "log"):
            (self.work / sub).mkdir()
        self.attempted = 0
        self.errors = []
        self.failed = 0
        self.cli_digests = None

    def op(self, what, errors):
        """Count one operation; it fails if it produced any error."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors[:3])

    def _spawn(self, argv, name):
        return spawn(argv, self.work / "log" / name, self.deadline - time.monotonic())

    def cli_argv(self, inv):
        wl = self.wl
        argv = [sys.executable, "-m", "rla.cli", inv.command,
                "--links", self.paths["links"], "--trace", self.paths["trace"],
                "--tick", workloads.fmt_num(TICK), "--quantum", workloads.fmt_num(wl.quantum),
                "--out", str(self.work / "cli" / inv.out)]
        if "failures" in self.paths:
            argv += ["--failures", self.paths["failures"]]
        if inv.command == "simulate":
            argv += ["--policy", inv.policies[0], "--report", "all"]
        else:
            argv += ["--policies", ",".join(inv.policies)]
        return argv

    def cli(self, i, inv):
        """One CLI invocation; returns (wall_s, peak_rss_mib)."""
        code, t0, t1, rss = self._spawn(self.cli_argv(inv), f"cli{i}")
        self.op(f"cli {inv.command} {','.join(inv.policies)}",
                [] if code == 0 else [f"exit code {code}: {self._stderr(f'cli{i}')}"])
        return t1 - t0, rss

    def cli_sequence(self):
        """The workload's CLI sequence, one child at a time; returns
        (summed wall_s, largest peak RSS) and checks the outputs repeat."""
        walls, rsses = zip(*(self.cli(i, inv) for i, inv in enumerate(self.wl.sequence)))
        self.check_repeat()
        return sum(walls), max(rsses)

    def check_repeat(self):
        """Every CLI sequence writes the same bytes as the first one."""
        digests = self.digests("cli")
        if self.cli_digests is None:
            self.cli_digests = digests
        elif digests != self.cli_digests:
            self.op("cli outputs", ["differ from the first sequence's outputs"])

    def _stderr(self, name):
        return (self.work / "log" / f"{name}.err").read_text()[-300:].strip()

    def output_names(self):
        return [n for inv in self.wl.sequence for n in inv.output_names()]

    def digests(self, sub):
        d = self.work / sub
        return {n: checks.sha256(d / n) if (d / n).exists() else None
                for n in self.output_names()}

    def check_cli_outputs(self, results):
        """Parse back every CLI output and compare it byte for byte with the
        in-process rendering of the same results."""
        for inv in self.wl.sequence:
            mirror = checks.render(inv, results)
            for name in inv.output_names():
                path = self.work / "cli" / name
                if not path.exists():
                    self.op(f"output {name}", ["missing"])
                    continue
                text = path.read_text()
                errs = checks.parse_back(text, checks.output_kind(inv, name), self.wl,
                                         inv.policies)
                if text != mirror[name]:
                    errs.append("differs from the in-process rendering")
                self.op(f"output {name}", errs)

    def setup_time(self):
        """Seconds from spawning a fresh interpreter until it has loaded the
        workload's inputs; None if the child failed."""
        argv = [sys.executable, str(CHILD), "setup", workloads.fmt_num(TICK),
                self.paths["links"], self.paths["trace"]]
        if "failures" in self.paths:
            argv.append(self.paths["failures"])
        code, t0, _, _ = self._spawn(argv, "setup")
        out = (self.work / "log" / "setup.out").read_text().strip()
        ok = code == 0 and out
        self.op("setup", [] if ok else [f"exit code {code}: {self._stderr('setup')}"])
        return float(out) - t0 if ok else None


class Loaded:
    """The workload's inputs parsed once in this process."""

    def __init__(self, run):
        self.texts = {k: Path(p).read_text() for k, p in run.paths.items()}
        self.links = rla.parse_links(self.texts["links"])
        self.group = rla.validate_group("links", self.links, TICK)
        self.trace = rla.parse_trace(self.texts["trace"])
        self.failures = (rla.parse_failures(self.texts["failures"])
                         if "failures" in self.texts else None)
        self.quantum = run.wl.quantum

    def config(self, policy):
        return rla.EngineConfig(policy=rla.PolicyId.parse(policy), tick=TICK,
                                quantum=self.quantum)

    def run(self, policy):
        return rla.run(self.group, self.config(policy), self.trace, failures=self.failures)


def reference_kernel():
    """Fixed pure-Python work shaped like the simulator's inner loops: a
    deficit scheduler over eight lanes, float arithmetic, list indexing and
    CSV-style formatting. It never touches rla, so its time tracks only the
    machine's current speed."""
    weights = [(8 + i) / 92 for i in range(8)]
    deficits = [0.0] * 8
    rows = []
    for q in range(REF_QUANTA):
        best, best_d = -1, 0.0
        for i in range(8):
            d = deficits[i] + weights[i]
            deficits[i] = d
            if best < 0 or d > best_d:
                best, best_d = i, d
        deficits[best] = best_d - 1.0
        if q & 3 == 0:
            rows.append(f"{q},{best_d!r},{best}")
    return "\n".join(rows)


def slowdown():
    """The reference kernel's time now over REF_S: above 1 when the machine
    runs slower than the reference speed."""
    dt, _ = timed(reference_kernel)
    return dt / REF_S


def pin_to_one_cpu():
    """Run this process and the children it starts on one CPU, so the
    reference kernel samples the speed of the CPU doing the measured work;
    on a shared host two CPUs can run at different speeds."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not Linux, or not allowed: measure unpinned


def timed(fn):
    gc.collect()
    t0 = time.monotonic()
    value = fn()
    return time.monotonic() - t0, value


def measure(run, seconds):
    """End-to-end metrics, tracing off.

    Times are scaled to the reference speed: each is divided by the mean of
    the slowdown() samples taken just before and just after it. The speed of
    a shared machine drifts by up to 2x over minutes, which raw medians
    cannot average out; the raw medians are printed on a comment line.
    """
    wl = run.wl
    loaded = Loaded(run)
    ticks = len(wl.samples) * len(wl.policies)
    raw = {"setup": [], "wall": [], "rate": []}
    scaled = {"setup": [], "wall": [], "rate": []}
    seq_rss = []
    run.setup_time()  # warms the file cache; not counted
    deadline = time.monotonic() + seconds
    while len(seq_rss) < MIN_ROUNDS or time.monotonic() < deadline:
        before = slowdown()
        setups = [t for t in (run.setup_time() for _ in range(SETUPS_PER_ROUND))
                  if t is not None]
        after = slowdown()
        raw["setup"] += setups
        scaled["setup"] += [t * 2 / (before + after) for t in setups]

        before = after
        wall, rss = run.cli_sequence()
        seq_rss.append(rss)
        after = slowdown()
        raw["wall"].append(wall)
        scaled["wall"].append(wall * 2 / (before + after))

        before = after
        passes, round_s = 0, 0.0
        while round_s < INPROC_MIN_S:
            results = {}
            for p in wl.policies:
                dt, results[p] = timed(lambda: loaded.run(p))
                round_s += dt
            passes += 1
        after = slowdown()
        raw["rate"].append(ticks * passes / round_s)
        scaled["rate"].append(ticks * passes / round_s * (before + after) / 2)
    for p in wl.policies:
        run.op(f"run {p}", checks.invariants(results[p], wl))
    run.check_cli_outputs(results)
    med = {k: statistics.median(v) if v else 0.0 for k, v in scaled.items()}
    print(f"# {wl.name}: {len(seq_rss)} rounds of {SETUPS_PER_ROUND} set-ups, one CLI "
          f"sequence and at least {INPROC_MIN_S} s of in-process passes")
    print("# raw medians: " + ", ".join(f"{k} {statistics.median(v):.6g}"
                                        for k, v in raw.items() if v))
    return {
        "cli_wall_s": (med["wall"], "s"),
        "run_ticks_per_s": (med["rate"], "ticks/s"),
        "peak_rss_mb": (statistics.median(seq_rss), "MiB"),
        "setup_s": (med["setup"], "s"),
    }


def per_call_ns(fn):
    """Median over batches of SELECT_BATCH calls, for SELECT_BUDGET_S."""
    samples = []
    deadline = time.monotonic() + SELECT_BUDGET_S
    while len(samples) < 5 or time.monotonic() < deadline:
        t0 = time.perf_counter_ns()
        for _ in range(SELECT_BATCH):
            fn()
        samples.append((time.perf_counter_ns() - t0) / SELECT_BATCH)
    return statistics.median(samples)


def step_latency_us(loaded, policy):
    """p50 and p99 of rla.step over STEP_CALLS consecutive ticks."""
    group = rla.validate_group("links", loaded.links, TICK)
    state = rla.PolicyState()
    cfg = loaded.config(policy)
    samples = loaded.trace.samples
    lat = []
    for k in range(STEP_CALLS):
        t, d = samples[k % len(samples)]
        t0 = time.perf_counter_ns()
        rla.step(group, state, cfg, d, t=t)
        lat.append((time.perf_counter_ns() - t0) / 1e3)
    q = statistics.quantiles(lat, n=100)
    return q[49], q[98]


def self_times(spans):
    """Self time per span name: duration minus what its children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = {}
    for k, s in enumerate(spans):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[k]
    return out


def replay_reps(run, seconds):
    """Alternate the untraced CLI and the traced replay of every invocation
    until ``seconds`` have passed; returns (reps, spans)."""
    wl = run.wl
    spec_path = run.work / "spec.json"
    spec_path.write_text(json.dumps({
        "workload": wl.name, "paths": run.paths, "tick": TICK, "quantum": wl.quantum,
        "replay_dir": str(run.work / "replay"),
        "sequence": [{"command": inv.command, "policies": list(inv.policies),
                      "outputs": inv.output_names()} for inv in wl.sequence]}))
    reps, all_spans = [], []
    deadline = time.monotonic() + seconds
    while not reps or time.monotonic() < deadline:
        # per rep: layers[name] is the summed self time of that layer's
        # spans, and traced_s = sum(layers) + cli_self_s exactly
        rep = {"untraced_s": 0.0, "traced_s": 0.0, "layers": {}, "phases": {},
               "slowdown": slowdown()}
        for i, inv in enumerate(wl.sequence):
            wall, _ = run.cli(i, inv)
            rep["untraced_s"] += wall
            spans_path = run.work / "log" / f"spans{i}.json"
            code, t0, t1, _ = run._spawn([sys.executable, str(CHILD), "replay",
                                          str(spec_path), str(i), str(spans_path)],
                                         f"replay{i}")
            run.op(f"replay {inv.command}",
                   [] if code == 0 else [f"exit code {code}: {run._stderr(f'replay{i}')}"])
            spans = json.loads(spans_path.read_text()) if code == 0 else []
            rep["traced_s"] += t1 - t0
            for name, s in self_times(spans).items():
                if name.startswith("cli.") and name != "cli.write":
                    continue  # CLI glue: part of cli_self_s below
                rep["layers"][name] = rep["layers"].get(name, 0.0) + s
            base = len(all_spans)  # span ids and parents index the whole file
            for k, s in enumerate(spans):
                if s["parent"] is not None:
                    rep["phases"][s["phase"]] = (rep["phases"].get(s["phase"], 0.0)
                                                 + s["end"] - s["start"])
                    s["parent"] += base
                s.update(id=base + k, rep=len(reps), invocation=i, spawn=t0, exit=t1)
            all_spans.extend(spans)
        run.check_repeat()
        rep["cli_self_s"] = rep["traced_s"] - sum(rep["layers"].values())
        reps.append(rep)
    run.op("replay outputs", [] if run.digests("replay") == run.cli_digests
           else ["replay outputs differ from the CLI outputs"])
    return reps, all_spans


def trace_layers(run, seconds):
    """Per-layer metrics from the traced replay plus in-process probes."""
    wl = run.wl
    reps, spans = replay_reps(run, seconds)
    layer = {name: statistics.median(r["layers"][name] for r in reps)
             for name in LAYER_SPANS if name in reps[0]["layers"]}

    loaded = Loaded(run)
    results, result_mib = {}, {}
    for p in POLICIES:
        gc.collect()
        tracemalloc.start()
        results[p] = loaded.run(p)
        result_mib[p] = tracemalloc.get_traced_memory()[1] / MIB
        tracemalloc.stop()
        run.op(f"run {p}", checks.invariants(results[p], wl))
    run.check_cli_outputs(results)

    # layers the sequence never calls are timed once here, on the same inputs
    probes = {
        "traceio.parse_links": lambda: rla.parse_links(loaded.texts["links"]),
        "links.validate_group": lambda: rla.validate_group("links", loaded.links, TICK),
        "traceio.parse_trace": lambda: rla.parse_trace(loaded.texts["trace"]),
        # a workload without failures parses an empty schedule
        "traceio.parse_failures": lambda: rla.parse_failures(
            loaded.texts.get("failures", "time_s,link_id,event\n")),
        **{f"engine.run.{p}": (lambda p=p: loaded.run(p)) for p in POLICIES},
        "reports.supply_series_csv": lambda: [rla.supply_series_csv(results[p])
                                              for p in wl.policies],
        "reports.shortfall_series_csv": lambda: [rla.shortfall_series_csv(results[p])
                                                 for p in wl.policies],
        "reports.cost_report_csv": lambda: [rla.cost_report_csv(rla.cost_report(results[p]))
                                            for p in wl.policies],
        "reports.reorder_indicator_csv": lambda: [rla.reorder_indicator_csv(results[p])
                                                  for p in wl.policies],
        "reports.merge_supply_csv": lambda: rla.merge_supply_csv(
            [(p, results[p]) for p in wl.policies]),
    }
    probed = [name for name in probes if name not in layer]
    for name in probed:
        layer[name], _ = timed(probes[name])

    weights = rla.wfq_weights(loaded.group)
    state = rla.PolicyState()
    wfq_ns = per_call_ns(lambda: rla.wfq_select(loaded.group, state, weights))
    vrrp_ns = per_call_ns(lambda: rla.vrrp_select(loaded.group, state))
    step_p50, step_p99 = step_latency_us(loaded, wl.policies[0])

    quanta = checks.quanta_offered(wl.samples, TICK, wl.quantum)
    counts = {p: checks.counts(results[p]) for p in POLICIES}
    metrics = {}
    for p in POLICIES:
        s = layer[f"engine.run.{p}"]
        metrics[f"engine.run.{p}.s"] = (s, "s")
        metrics[f"engine.run.{p}.quanta_per_s"] = (quanta / s, "quanta/s")
        metrics[f"engine.run.{p}.result_mb"] = (result_mib[p], "MiB")
    metrics["policies.wfq_select.ns"] = (wfq_ns, "ns")
    metrics["policies.vrrp_select.ns"] = (vrrp_ns, "ns")
    for p in POLICIES:
        metrics[f"engine.{p}.quanta"] = (quanta, "count")
        metrics[f"engine.{p}.dropped_mbit"] = (counts[p]["dropped_mbit"], "Mbit")
        if p != "vrrp":  # one link carries every quantum: always 0
            metrics[f"engine.{p}.reorder_events"] = (counts[p]["reorder_events"], "count")
    metrics["engine.step.us_p50"] = (step_p50, "us")
    metrics["engine.step.us_p99"] = (step_p99, "us")
    for name in LAYER_SPANS:
        if not name.startswith("engine."):
            metrics[f"{name}.s"] = (layer[name], "s")
    metrics["cli.self.s"] = (statistics.median(r["cli_self_s"] for r in reps), "s")
    metrics["cli.traced_wall_s"] = (statistics.median(r["traced_s"] for r in reps), "s")
    metrics["trace_overhead_s"] = (statistics.median(r["traced_s"] - r["untraced_s"]
                                                     for r in reps), "s")
    metrics["machine.slowdown"] = (statistics.median(r["slowdown"] for r in reps), "ratio")

    trace_path = OUT / f"trace-{wl.name}-s{run.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": wl.name, "seed": run.seed, "seconds": seconds,
        "reps": reps, "probed": probed, "quanta": quanta, "counts": counts,
        "digests": run.cli_digests, "spans": spans}, indent=1))
    print(f"# {wl.name}: {len(reps)} traced replays; probed {', '.join(probed) or 'nothing'}")
    print(f"# spans written to {trace_path.relative_to(ROOT)}")
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    # imported only after the source check, so a directory without the
    # package fails here instead of picking up some other installed rla
    global rla, checks
    args = parse_args(argv)
    if not (SRC / "rla" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'rla'} not found; run from the root of an rla checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rla
    import checks
    if Path(rla.__file__).resolve().parent != SRC / "rla":
        print(f"perfbench: imported rla from {rla.__file__}, not {SRC}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    wl = workloads.generate(args.workload, args.seed)
    run = Run(wl, args.seed, args.trace)
    if args.trace:
        metrics = trace_layers(run, args.seconds)
    else:
        metrics = measure(run, args.seconds)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    run.op("metric names", [] if sorted(names) == sorted(metrics) else
           [f"printed {sorted(metrics)}, BENCHMARK.json declares {sorted(names)}"])
    print(f"# digests {json.dumps(run.cli_digests, sort_keys=True)}")
    for e in run.errors:
        print(f"# FAILED {e}")
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
