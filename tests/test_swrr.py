import random
from fractions import Fraction

import pytest

from rla.swrr import TABLE_MAX, Swrr, int_weights


def _instance(rng, m, top):
    """Integer weights with gcd 1 and carried exact deficits, as (ids,
    weights, known)."""
    ids = [f"l{k}" for k in range(m)]
    weights = int_weights([rng.randint(1, top) for _ in range(m)], False)
    known = {}
    for i in ids:
        if rng.random() < 0.7:
            d = rng.choice((1, 2, 3, 7, 10, 12))
            known[i] = (rng.randint(-3 * d, 3 * d), d)
    return ids, weights, known


@pytest.mark.parametrize("seed", range(4))
def test_a_period_that_does_not_repeat_starts_the_next(seed):
    # these starts do not return to their counters in their first period:
    # the set keeps looking, from a new period with no picks that starts at
    # the counters the last one ended with
    rng = random.Random(seed)
    s = Swrr(*_instance(rng, rng.randint(2, 8), 60))
    s.select(s.P)
    assert s.cycle is None
    assert s.picks == [] and s.start == s.x


@pytest.mark.parametrize("seed", range(6))
def test_ticks_of_few_picks_equal_one_replay(seed):
    # Ticks far shorter than the period, so each period that looks for the
    # cycle spans many ticks before one closes it; then the table serves the
    # rest. Picks and carried counters must equal a plain replay.
    rng = random.Random(seed)
    ids, weights, known = _instance(rng, rng.randint(2, 8), 60)
    P = sum(weights)
    ticked, replayed = Swrr(ids, weights, known), Swrr(ids, weights, known)
    picks = []
    while len(picks) < 3 * P + 50:
        picks += ticked.select(rng.randint(0, 7))
    assert picks == replayed.replay(len(picks))
    assert ticked.cycle is not None
    a, b = {}, {}
    ticked.save(a)
    replayed.save(b)
    assert a == b


def test_take_follows_the_cycle():
    rng = random.Random(7)
    ids, weights, known = _instance(rng, 5, 40)
    ticked, replayed = Swrr(ids, weights, known), Swrr(ids, weights, known)
    ticked.select(3 * sum(weights))
    replayed.replay(3 * sum(weights))
    for n in (0, 1, 5, sum(weights) - 1, sum(weights), 3 * sum(weights) + 2):
        p, counts, after = ticked.take(n, True)
        order = replayed.replay(n + 1)
        assert counts == [order[:n].count(k) for k in range(5)]
        assert after == order[n]
        assert ticked.switches(p, n) == sum(x != y for x, y in zip(order[:n], order[1:n]))


def test_long_period_replays_without_table():
    ids = ["a", "b", "c"]
    weights = [TABLE_MAX, 1, 2]
    s = Swrr(ids, weights, {})
    assert s.select(3 * sum(weights)) == Swrr(ids, weights, {}).replay(3 * sum(weights))
    assert s.cycle is None


def _fraction_picks(weights, counters, count):
    """count picks of the rule run on exact fractions from counters."""
    shares = [Fraction(a, sum(weights)) for a in weights]
    picks = []
    for _ in range(count):
        counters = [c + s for c, s in zip(counters, shares)]
        best = max(range(len(counters)), key=lambda k: (counters[k], -k))
        counters[best] -= 1
        picks.append(best)
    return picks


def test_a_set_far_from_its_cycle_looks_until_a_period_repeats():
    # far-apart carried counters repeat no period in the first 8: the set
    # is still looking, and closes its cycle in the 11th period (99 picks)
    weights = [5, 4]
    P = sum(weights)
    s = Swrr(["l0", "l1"], weights, {"l0": (-53, 1), "l1": (45, 1)})
    tried = s.select(8 * P)
    assert s.picks is not None and s.cycle is None
    later = s.select(3) + s.select(4 * P)
    assert s.cycle is not None
    assert tried + later == _fraction_picks(weights, [-53, 45], len(tried) + len(later))


def test_a_later_period_that_repeats_closes_the_cycle():
    # the first two periods do not return to their start, though the first
    # returns link 0's counter to its own, and the third does: ticks of 0-7
    # picks across them must equal a plain replay, picks and counters alike
    ids, weights = ["l0", "l1", "l2"], [3, 2, 1]
    known = {"l0": (-5, 2), "l1": (-6, 1), "l2": (-2, 2)}
    P = sum(weights)
    ticked, replayed = Swrr(ids, weights, known), Swrr(ids, weights, known)
    assert ticked.select(P) == replayed.replay(P) and ticked.cycle is None
    rng = random.Random(5)
    picks = []
    while len(picks) < 6 * P + 5:
        picks += ticked.select(rng.randint(0, 7))
    assert ticked.cycle is not None
    assert picks == replayed.replay(len(picks))
    a, b = {}, {}
    ticked.save(a)
    replayed.save(b)
    assert a == b


def test_counters_past_2_53_stay_exact():
    # three-decimal inverse costs on six links give a period near 2**59, so
    # the counters run on Python ints; picks equal the rule on fractions
    costs = [1.234, 2.345, 3.456, 4.567, 5.678, 6.789]
    weights = int_weights(costs, True)
    assert sum(weights) > 2**53
    assert Swrr(list("abcdef"), weights, {}).select(200) == _fraction_picks(weights, [0] * 6, 200)
