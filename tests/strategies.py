"""hypothesis strategies for whole runs: a group, a dyadic trace and a
failure schedule.

Groups hold 1 to 16 links whose thresholds and buffer caps may be left
blank (validate_group fills them). Traces repeat a short pattern of dyadic
demand levels, so the engine's memo replays, and some are longer than one
flush of their run (engine._store_rows: 1,285 ticks at 16 links, 1,365 at
15). Failure events fall before the first sample, on and between samples and
after the last, so simultaneous events, repeats and late events all occur.
Every value is a small dyadic rational, so runs are exact and their floats
compare bit for bit.
"""

from hypothesis import strategies as hs

from rla import DemandTrace, Link, validate_group

CAPACITIES = (1.0, 2.0, 4.0, 8.0)
# quanta at most the smallest threshold runs() draws, capacity / 2
quanta = hs.sampled_from((0.25, 0.5))


@hs.composite
def runs(draw, long_ticks=(1400, 1500)):
    """(group, trace, failures): a validated group, a DemandTrace of
    samples one second apart and a list of (t, link_id, kind) events. A
    trace is either short (1 to 40 samples, 1 to 16 links) or long_ticks
    samples long over 15 or 16 links, more than one flush of the run."""
    long = draw(hs.booleans())
    n = draw(hs.integers(15 if long else 1, 16))
    links = []
    for i in range(n):
        c = draw(hs.sampled_from(CAPACITIES))
        links.append(Link(id=f"l{i}", capacity=c, priority=i + 1,
                          cost_per_gb=draw(hs.sampled_from((0.5, 1.0, 1.5, 3.0))),
                          threshold=draw(hs.sampled_from((None, c / 2, c))),
                          buffer_cap=draw(hs.sampled_from((None, 4 * c)))))
    ticks = draw(hs.integers(*long_ticks) if long else hs.integers(1, 40))
    top = int(8 * sum(l.capacity for l in links))
    levels = draw(hs.lists(hs.integers(0, top), min_size=1, max_size=4))
    pattern = draw(hs.lists(hs.sampled_from(levels), min_size=1, max_size=8))
    demands = [pattern[k % len(pattern)] / 4.0 for k in range(ticks)]
    trace = DemandTrace([(float(k), d) for k, d in enumerate(demands)])
    times = hs.integers(-2, 2 * ticks).map(lambda h: h / 2.0)
    failures = draw(hs.lists(hs.tuples(times, hs.sampled_from([l.id for l in links]),
                                       hs.sampled_from(("down", "up"))), max_size=2 * n))
    return validate_group("g", links), trace, failures
