"""Exact smooth weighted round robin, the rule behind the wfq policy.

Integer weights from costs read as the decimals they are written as, and
Swrr, which runs the rule over one failure set's live links from a table of
its period. policies.py loads this module only when wfq runs, so importing
rla and the other policies do not compile it.
"""

import math
from itertools import accumulate
from operator import ne, sub


def decimal_ratio(x) -> tuple:
    """x as the decimal its repr writes, a (numerator, denominator) pair of
    ints: 1.7 gives (17, 10), not the binary double nearest to it."""
    digits, _, exp = repr(x).partition("e")
    whole, _, frac = digits.partition(".")
    e = int(exp or 0) - len(frac)
    n = int(whole + frac)
    return (n * 10**e, 1) if e >= 0 else (n, 10**-e)


def int_weights(values, inverse: bool) -> list:
    """Integer weights with gcd 1 in the exact ratio of values, or of their
    inverses, each value read as the decimal its repr writes."""
    ratios = [decimal_ratio(v) for v in values]
    if inverse:
        ratios = [(d, n) for n, d in ratios]
    scale = math.lcm(*(d for _, d in ratios))
    ints = [n * (scale // d) for n, d in ratios]
    g = math.gcd(*ints)
    return [a // g for a in ints]


# A failure set keeps its cycle as a table when its period P is at most this;
# a longer period replays the deficit counters once per quantum.
TABLE_MAX = 4096


class Swrr:
    """Exact smooth weighted round robin over one failure set's live links.

    Link k has integer weight a[k], gcd(a) = 1 and P = sum(a), so its share
    is a[k] / P. A selection adds its share to every link's deficit counter,
    picks the largest counter (ties go to the lowest index) and takes 1 off
    it. Counters thus move in steps of 1/P, and each one's remainder below a
    multiple of 1/P, a fraction in [0, 1/P) carried in with it, never
    changes here. So the m counters are held as integers
    x[k] = m * y[k] + rank[k], with y[k] / P the counter rounded down to a
    multiple of 1/P and rank[k] the place of link k when the links are sorted
    by remainder, lower index above among equals. x orders as the exact
    counters do, ties broken as the rule breaks them, and never ties; a
    selection adds m * a[k] to every x[k] and takes m * P off the largest.

    Selections are replayed in whole periods of P. Once a period ends with
    the counters it began with, its P picks are the cycle, repeated from its
    start on, each link a[k] times per cycle; ticks then read counts, the
    tail pick and switches in O(m) from prefix tables over two copies of it.
    Every start tried got there; for m > 2 that is unproven, and a set that
    never did would keep replaying, still exactly. A set whose P exceeds
    TABLE_MAX (4,096) never looks and replays one selection at a time.
    """

    def __init__(self, ids, weights, known):
        P = sum(weights)
        m = len(weights)
        carried = [known.get(i, (0, 1)) for i in ids]
        # counter k is (unit * y[k] + rest[k]) / scale, 0 <= rest[k] < unit
        scale = math.lcm(P, *(d for _, d in carried))
        unit = scale // P
        y, rest = zip(*(divmod(n * (scale // d), unit) for n, d in carried))
        rank = [0] * m
        for r, k in enumerate(sorted(range(m), key=lambda k: (rest[k], -k))):
            rank[k] = r
        self.ids, self.weights, self.P = ids, weights, P
        self.scale, self.unit, self.rest, self.rank = scale, unit, rest, rank
        self.x = [m * v + r for v, r in zip(y, rank)]
        self.inc = [m * a for a in weights]
        self.debit = m * P
        # the current period's picks while looking for the cycle, else None,
        # and the counters at the period's start
        self.picks = [] if P <= TABLE_MAX else None
        self.start = self.x[:]
        self.cycle = None

    def replay(self, count) -> list:
        """Make count selections one at a time; returns the picked indices."""
        x, inc, debit = self.x, self.inc, self.debit
        order = []
        others = range(1, len(x))
        for _ in range(count):
            best = 0
            top = x[0] = x[0] + inc[0]
            for i in others:
                d = x[i] = x[i] + inc[i]
                if d > top:
                    best = i
                    top = d
            x[best] = top - debit
            order.append(best)
        return order

    def select(self, count) -> list:
        """The next count picks, replayed until the cycle is found."""
        order = []
        P = self.P
        while count and self.picks is not None:
            chunk = self.replay(min(count, P - len(self.picks)))
            order += chunk
            count -= len(chunk)
            self.picks += chunk
            if len(self.picks) == P:
                if self.x == self.start:
                    self.close(self.picks)
                else:
                    self.picks, self.start = [], self.x[:]
        if count:
            if self.cycle is None:
                order += self.replay(count)
            else:
                order += self.slice(self.phase, count)
                self.phase = (self.phase + count) % P
        return order

    def close(self, cycle):
        """cycle, the last period's P picks, repeats from here on; self.x is
        the counters at its phase 0."""
        self.cycle = c2 = cycle * 2
        counts = [0] * len(self.x)
        rows = [tuple(counts)]
        for k in c2:
            counts[k] += 1
            rows.append(tuple(counts))
        self.rows = rows  # rows[i][k]: picks of k among c2[:i]
        self.switches_before = list(accumulate(map(ne, c2, c2[1:]), initial=0))
        self.phase = 0
        self.picks = None

    def slice(self, p, n) -> list:
        """The n cycle picks from phase p on."""
        q, r = divmod(n, self.P)
        c2 = self.cycle
        return c2[p:p + self.P] * q + c2[p:p + r] if q else c2[p:p + r]

    def take(self, n, rem) -> tuple:
        """Move the phase past the next n cycle picks, and past the pick
        after them too if rem. Returns (the phase before, picks per link
        among the n, the pick after them)."""
        p = self.phase
        q, r = divmod(n, self.P)
        self.phase = (p + r + 1 if rem else p + r) % self.P
        start, end = self.rows[p], self.rows[p + r]
        if q:
            counts = [b - a + q * w for b, a, w in zip(end, start, self.weights)]
        else:
            counts = list(map(sub, end, start))
        return p, counts, self.cycle[p + r]

    def switches(self, p, n) -> int:
        """Adjacent pairs on different links among the n cycle picks from
        phase p on; each whole period of pairs holds switches_before[P]."""
        if n < 2:
            return 0
        q, r = divmod(n - 1, self.P)
        sb = self.switches_before
        return q * sb[self.P] + sb[p + r] - sb[p]

    def save(self, known):
        """Store the counters in known as exact (numerator, denominator) pairs."""
        x, m, scale = self.x, len(self.x), self.scale
        if self.cycle is not None:
            p = self.phase
            x = [v + p * i - self.debit * c for v, i, c in zip(x, self.inc, self.rows[p])]
        for i, v, r, rest in zip(self.ids, x, self.rank, self.rest):
            n = (v - r) // m * self.unit + rest
            g = math.gcd(n, scale)
            known[i] = (n // g, scale // g)
