"""Brute-force per-quantum reference simulator.

Deliberately primitive and self-contained: plain dicts and lists, one quantum
at a time, no imports from the package under test. Used to cross-check the
engine tick for tick.

Link dicts need: id, capacity, priority, cost, threshold, cap (buffer cap).
Trace is a list of (t_seconds, demand_mbps). Failures are (t_seconds, link_id,
"up"/"down") tuples applied to every tick whose t is >= the event time.

wfq runs on exact rationals: each cost is read as the decimal it is written
as (Fraction(repr(cost)), so 1.7 is 17/10) and the deficits are Fractions,
so ties are real ties and go to the lowest index.
"""

from fractions import Fraction


def pick_olb(order, alive, buf):
    for i in alive:
        if buf[i] < order[i]["threshold"]:
            return i
    return alive[-1]


def pick_vrrp(order, alive):
    return min(alive, key=lambda i: (-order[i]["capacity"], order[i]["id"]))


def wfq_weights(order, alive, direction):
    costs = [Fraction(repr(order[i]["cost"])) for i in alive]
    raw = [1 / c for c in costs] if direction == "inverse" else costs
    total = sum(raw)
    return [r / total for r in raw]


def oracle_run(links, policy, trace, tick=1.0, quantum=1.0,
               wfq_direction="inverse", failures=()):
    """Returns one dict per tick: assigned, transmitted, buffers (lists in
    ascending-priority order), dropped, supplied, reorder."""
    order = sorted(links, key=lambda l: l["priority"])
    n = len(order)
    buf = [0.0] * n
    down = set()
    rr = 0
    deficit = {l["id"]: Fraction(0) for l in order}
    events = sorted(failures, key=lambda e: e[0])
    ei = 0
    out = []
    for t, demand in trace:
        while ei < len(events) and events[ei][0] <= t:
            _, lid, kind = events[ei]
            down.add(lid) if kind == "down" else down.discard(lid)
            ei += 1
        alive = [i for i in range(n) if order[i]["id"] not in down]
        assigned = [0.0] * n
        dropped = 0.0
        seq = []
        w = None  # wfq weights of this tick's live links
        remaining = demand * tick
        while remaining > 0.0:
            q = quantum if quantum < remaining else remaining
            remaining -= q
            i = None
            if alive:
                if policy == "olb":
                    i = pick_olb(order, alive, buf)
                elif policy == "rr":
                    k = rr % len(alive)
                    rr = (k + 1) % len(alive)
                    i = alive[k]
                elif policy == "wfq":
                    if w is None:
                        w = wfq_weights(order, alive, wfq_direction)
                    best = None
                    for k, j in enumerate(alive):
                        deficit[order[j]["id"]] += w[k]
                        d = deficit[order[j]["id"]]
                        if best is None or d > deficit[order[best]["id"]]:
                            best = j
                    deficit[order[best]["id"]] -= 1
                    i = best
                elif policy == "vrrp":
                    i = pick_vrrp(order, alive)
                else:
                    raise ValueError(policy)
            elif policy == "vrrp":
                raise RuntimeError("all links failed")
            if i is None or buf[i] + q > order[i]["cap"]:
                dropped += q
            else:
                buf[i] += q
                assigned[i] += q
                seq.append(i)
        transmitted = [0.0] * n
        for i in alive:
            tx = min(buf[i], order[i]["capacity"] * tick)
            buf[i] -= tx
            transmitted[i] = tx
        out.append({
            "t": t,
            "assigned": assigned,
            "transmitted": transmitted,
            "buffers": list(buf),
            "dropped": dropped,
            "supplied": sum(transmitted) / tick,
            "reorder": sum(1 for a, b in zip(seq, seq[1:]) if a != b),
        })
    return out
