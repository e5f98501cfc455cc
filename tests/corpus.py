"""Seeded corpus of non-dyadic engine inputs, built with the stdlib alone.

instances() gives the same list on every run and every platform: a
random.Random with a fixed seed draws each instance as plain data, with no
import from the package under test, so a change to rla cannot move the
corpus with it. Each instance is a dict:

* links: 1-6 (id, capacity, priority, cost, threshold, cap) tuples with
  decimal capacities and costs, priorities shuffled. threshold is a decimal
  or None (blank: capacity x tick). cap is the resolved threshold itself,
  one ulp above it, a decimal above it, or None (blank: 4 x threshold).
* tick, quantum: decimals. Thresholds and caps are often decimal multiples
  of the quantum, where fills meet them exactly up to rounding. A blank
  threshold can fall below the quantum and some costs are 0, so a few
  instances are rejected with an error text.
* wfq_direction: "inverse" or "direct".
* samples: 30-60 (t, demand) pairs at t = 0, 1, 2, ... drawn from 2-4 demand
  levels, so tick states (demand and drained buffers) repeat.
* failures: 0-6 (t, link_id, "up"/"down") events in no particular order,
  repeats and events past the last sample included.
"""

import math
import random

SEED = 20261019
COUNT = 800


def _decimal(rng, lo, hi, places):
    """A decimal in [lo, hi] with at most places digits after the point,
    never 0 when lo > 0."""
    return max(round(rng.uniform(lo, hi), places), round(lo, places) or 10.0**-places)


def instance(rng):
    n = rng.randint(1, 6)
    tick = rng.choice([1.0, 1.0, 0.5, 0.3, 0.75, 1.7, 0.1])
    quantum = rng.choice([0.1, 0.2, 0.3, 0.4, 0.7, 1.1, 0.35, 0.45,
                          _decimal(rng, 0.05, 2.0, rng.choice([2, 3]))])
    priorities = rng.sample(range(1, 3 * n + 1), n)
    links = []
    for i in range(n):
        capacity = _decimal(rng, 0.5, 8.0, rng.choice([1, 2]))
        # blank, a decimal multiple of the quantum (where fills meet the
        # threshold or cap exactly up to rounding), or any decimal
        threshold = rng.choice([None, round(quantum * rng.randint(1, 40), 4),
                                round(quantum * rng.randint(1, 40), 4),
                                _decimal(rng, quantum, 2.0 * capacity * tick + quantum, 2)])
        thr = capacity * tick if threshold is None else threshold
        cap = rng.choice([thr, thr, math.nextafter(thr, math.inf),
                          round(thr + quantum * rng.randint(1, 40), 4),
                          round(thr * rng.uniform(1.2, 4.0), 2) or thr, None])
        cost = rng.choice([0.5, 1.0, 1.5, 1.7, 2.0, 2.5, 3.0, 0.3, 4.0, 0.1, 7.0,
                           rng.choice([0.0, 1.23, 9.99])])
        links.append((f"l{i}", capacity, priorities[i], cost, threshold, cap))
    total = sum(l[1] for l in links)
    levels = [round(rng.uniform(0.0, 1.8 * total), rng.choice([1, 2]))
              for _ in range(rng.randint(1, 3))] + [0.0]
    ticks = rng.randint(30, 60)
    samples = [(float(k), rng.choice(levels)) for k in range(ticks)]
    failures = [(round(rng.uniform(-1.0, ticks + 2.0), 1), f"l{rng.randrange(n)}",
                 rng.choice(["up", "down", "down"]))
                for _ in range(rng.choice([0, 0, 1, 2, 3, 6]))]
    return dict(links=links, tick=tick, quantum=quantum,
                wfq_direction=rng.choice(["inverse", "direct"]),
                samples=samples, failures=failures)


def instances(count=COUNT):
    rng = random.Random(SEED)
    return [instance(rng) for _ in range(count)]
