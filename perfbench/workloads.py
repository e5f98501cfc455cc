"""Seeded workload generators for the rla benchmark.

Stdlib only, and deliberately independent of the package under test: no
``rla`` import, so a later change to ``synth_diurnal`` or the bundled
scenarios cannot change what the benchmark feeds the program.

Every instance is dyadic, so the engine's float arithmetic is exact and the
brute-force oracle in ``tests/oracle.py`` must agree bit for bit:

* demands are non-negative multiples of 2**-6 Mbps;
* capacities, thresholds and caps are integers, and costs come from
  {0.5, 1, 2, 4};
* samples are one tick (1 s) apart, so the engine's one-sample-one-tick
  rule neither inflates nor hides work.

Each workload also names the CLI sequence the benchmark drives, one
invocation at a time.
"""

import random
from dataclasses import dataclass, field
from pathlib import Path

TICK = 1.0
DEMAND_STEP = 1.0 / 64.0
COSTS = (0.5, 1.0, 2.0, 4.0)
POLICIES = ("olb", "rr", "wfq", "vrrp")
REPORTS = ("supply", "shortfall", "cost", "reorder")

# Sized so one CLI sequence takes one to two seconds on a 2-core x86 VM
# with Python 3.11: a 20 s run then holds five to ten sequences and
# in-process rounds, and reports their medians.
HEAVY_TICKS = 4 * 3600
LIGHT_TICKS = 6 * 3600
WIDE_TICKS = 3600
WIDE_QUANTUM = 4.0
WIDE_CAPACITIES = (4, 4, 8, 8, 12, 16, 16, 24, 24, 32, 32, 40, 48, 48, 64, 64)
WIDE_MAX_DOWN = 3


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``rla simulate --report all`` with one policy, or
    ``rla compare`` with several."""

    command: str      # "simulate" or "compare"
    policies: tuple
    out: str          # the --out file name inside the run's work directory

    def output_names(self) -> list:
        """Files the CLI writes for this call, in the order it writes them."""
        if self.command == "simulate":
            stem = self.out[:-len(".csv")]
            return [f"{stem}.{r}.csv" for r in REPORTS]
        return [self.out]


@dataclass
class Workload:
    """Generated inputs plus the CLI sequence that consumes them."""

    name: str
    links: list                # (id, capacity, priority, cost, threshold|None, cap|None)
    samples: list              # (time_s, demand_mbps)
    failures: list             # (time_s, link_id, "up"|"down"); empty for none
    quantum: float
    sequence: list = field(default_factory=list)

    @property
    def policies(self) -> list:
        """Every policy the sequence runs, first use first."""
        seen = []
        for inv in self.sequence:
            seen.extend(p for p in inv.policies if p not in seen)
        return seen

    def write_inputs(self, directory: Path) -> dict:
        """Write the CSV inputs; returns {"links"|"trace"|"failures": path}."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {"links": directory / "links.csv", "trace": directory / "trace.csv"}
        paths["links"].write_text(links_csv(self.links))
        paths["trace"].write_text(trace_csv(self.samples))
        if self.failures:
            paths["failures"] = directory / "failures.csv"
            paths["failures"].write_text(failures_csv(self.failures))
        return paths


def fmt_num(x) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def links_csv(links) -> str:
    rows = ["id,capacity_mbps,priority,cost_per_gb,threshold_mbit,buffer_cap_mbit"]
    for lid, cap, prio, cost, thr, bcap in links:
        rows.append(",".join([lid, fmt_num(cap), str(prio), fmt_num(cost),
                              "" if thr is None else fmt_num(thr),
                              "" if bcap is None else fmt_num(bcap)]))
    return "\n".join(rows) + "\n"


def trace_csv(samples) -> str:
    return "time_s,demand_mbps\n" + "".join(f"{fmt_num(t)},{fmt_num(d)}\n" for t, d in samples)


def failures_csv(events) -> str:
    return "time_s,link_id,event\n" + "".join(f"{fmt_num(t)},{lid},{ev}\n"
                                              for t, lid, ev in events)


def _dyadic(x: float) -> float:
    return max(0.0, round(x / DEMAND_STEP) * DEMAND_STEP)


def _diurnal(rng, n, start_h, end_h, base, peak, jitter):
    """The bundled scenarios' triangular day, squeezed into n samples, plus
    uniform jitter of +-jitter Mbps rounded to the demand grid."""
    start, end = n * start_h / 24.0, n * end_h / 24.0
    mid, half = (start + end) / 2.0, (end - start) / 2.0
    samples = []
    for i in range(n):
        if i <= start or i >= end:
            d = base
        else:
            d = base + (peak - base) * (1.0 - abs(i - mid) / half)
        samples.append((float(i), _dyadic(d + rng.uniform(-jitter, jitter))))
    return samples


def day_2link_heavy(seed: int) -> Workload:
    rng = random.Random(f"day-2link-heavy:{seed}")
    links = [("L64", 64, 1, 1.0, 64, 64), ("L32", 32, 2, 2.0, 32, 32)]
    samples = _diurnal(rng, HEAVY_TICKS, 10.0, 16.0, 20.0, 120.0, 4.0)
    return Workload("day-2link-heavy", links, samples, [], 1.0,
                    [Invocation("compare", POLICIES, "compare.csv")])


def day_3link_light(seed: int) -> Workload:
    rng = random.Random(f"day-3link-light:{seed}")
    links = [("P4", 4, 1, 1.0, 4, 4), ("S16", 16, 2, 2.0, 16, 16),
             ("T16", 16, 3, 4.0, 16, 16)]
    samples = _diurnal(rng, LIGHT_TICKS, 10.5, 16.0, 2.0, 30.0, 2.0)
    return Workload("day-3link-light", links, samples, [], 1.0,
                    [Invocation("simulate", ("olb",), "olb.csv"),
                     Invocation("simulate", ("vrrp",), "vrrp.csv")])


def wide_16link_flap(seed: int) -> Workload:
    rng = random.Random(f"wide-16link-flap:{seed}")
    capacities = list(WIDE_CAPACITIES)
    rng.shuffle(capacities)
    blank = set(rng.sample(range(16), 5))
    links = []
    for i, cap in enumerate(capacities):
        if i in blank:
            thr = bcap = None
        else:
            thr = cap
            bcap = cap * rng.choice((1, 2, 4))
        links.append((f"W{i:02d}", cap, i + 1, rng.choice(COSTS), thr, bcap))
    total = sum(capacities)
    # triangle wave between 50% and 110% of the aggregate, two periods
    samples = []
    period = WIDE_TICKS / 2.0
    for i in range(WIDE_TICKS):
        phase = (i % period) / period
        frac = 0.5 + 0.6 * (1.0 - abs(2.0 * phase - 1.0))
        jitter = rng.uniform(-0.03, 0.03)
        samples.append((float(i), _dyadic(total * (frac + jitter))))
    return Workload("wide-16link-flap", links, samples,
                    _flaps(rng, [l[0] for l in links], WIDE_TICKS, 150),
                    WIDE_QUANTUM,
                    [Invocation("compare", POLICIES, "compare.csv")])


def _flaps(rng, ids, n_ticks, outages):
    """Down/up pairs at integer times inside the trace; never more than
    WIDE_MAX_DOWN links down at once, so the single-master policy always has
    a live link."""
    down_until = {}
    events = []
    for t in sorted(rng.randrange(n_ticks) for _ in range(outages)):
        live_down = [lid for lid, end in down_until.items() if end > t]
        candidates = [lid for lid in ids if lid not in live_down]
        if len(live_down) >= WIDE_MAX_DOWN:
            continue
        lid = rng.choice(candidates)
        end = t + rng.randint(5, 60)
        down_until[lid] = end
        events.append((float(t), lid, "down"))
        if end < n_ticks:  # no events after the last sample
            events.append((float(end), lid, "up"))
    events.sort(key=lambda e: (e[0], e[2] == "down", e[1]))
    return events


WORKLOADS = {
    "day-2link-heavy": day_2link_heavy,
    "day-3link-light": day_3link_light,
    "wide-16link-flap": wide_16link_flap,
}


def generate(name: str, seed: int) -> Workload:
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise ValueError(f"unknown workload {name!r} "
                         f"(expected one of: {', '.join(WORKLOADS)})") from None
