"""Non-dyadic behaviour pinned by digest, one per policy.

The oracle checks only dyadic inputs, where every float operation is exact;
the golden digests cover the two bundled scenarios through the CLI's number
formatting. This test runs every instance of the seeded corpus in
tests/corpus.py under each policy and hashes the reprs of the result's
supplied, dropped, reorder, assigned, transmitted and buffer_end columns,
or the error's type and text. The first STEP_CHAINS instances are also run
as a chain of step() calls, one per sample with the down set at its time,
and their records are hashed too: each step() call runs one tick, so the
chain never replays a tick from the engine's memo of repeated ticks. The
digests move only when a change means to alter non-dyadic results, and then
under the same rule as the golden digests.
"""

import builtins
import hashlib
import importlib
import pkgutil
import sys

import pytest
from corpus import instances

import rla
from rla import (
    DemandTrace,
    EngineConfig,
    Link,
    PolicyId,
    PolicyState,
    RlaError,
    WfqDirection,
    run,
    step,
    validate_group,
)

STEP_CHAINS = 60

DIGESTS = {
    "olb": "6522e32f505b4e20a7e863664decc0e684aa087a4ac779445ecbae81d51351b9",
    "rr": "901b7254818921924d97d449716b4b1db381b77bbdc2845ae44bbe90ea237372",
    "wfq": "637c738ceaaf09c8fe2d5dc88f396a4d8166cf79706a6679a444aa67eee5c4b7",
    "vrrp": "de687d00c2210d703f30a74d5642e7ac029b5e4b1d6f58a7d086076af9132890",
}

CORPUS = instances()


def _down_sets(samples, failures):
    """The down set at each sample: events in stable time order, each
    applied from the first sample at or after its time."""
    events = sorted(failures, key=lambda e: e[0])
    down, k, out = set(), 0, []
    for t, _ in samples:
        while k < len(events) and events[k][0] <= t:
            _, link_id, kind = events[k]
            (down.add if kind == "down" else down.discard)(link_id)
            k += 1
        out.append(frozenset(down))
    return out


def _columns(res):
    return repr((list(res.supplied), list(res.dropped), list(res.reorder),
                 list(res.assigned), list(res.transmitted), list(res.buffer_end)))


def _chain(inst, config):
    g = validate_group("g", [Link(*l) for l in inst["links"]], config.tick)
    st = PolicyState()
    out = []
    for (t, d), down in zip(inst["samples"], _down_sets(inst["samples"], inst["failures"])):
        try:
            r = step(g, st, config, d, failed=down, t=t)
        except RlaError as e:
            out.append(f"{type(e).__name__}: {e}")
            break
        out.append(repr((r.supplied_mbps, r.dropped, r.reorder_events,
                         r.assigned, r.transmitted, r.buffer_end)))
    return "\n".join(out)


def corpus_digest(policy):
    h = hashlib.sha256()
    for k, inst in enumerate(CORPUS):
        try:
            config = EngineConfig(PolicyId.parse(policy), inst["tick"], inst["quantum"],
                                  WfqDirection.parse(inst["wfq_direction"]))
            g = validate_group("g", [Link(*l) for l in inst["links"]], config.tick)
            text = _columns(run(g, config, DemandTrace(inst["samples"]), inst["failures"]))
        except RlaError as e:
            text = f"{type(e).__name__}: {e}"
        else:
            if k < STEP_CHAINS:
                text += "\n" + _chain(inst, config)
        h.update(f"{k}\n{text}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("policy", sorted(DIGESTS))
def test_corpus_digest(policy):
    assert corpus_digest(policy) == DIGESTS[policy]


def test_the_package_sums_no_floats(monkeypatch):
    # Python 3.12 made sum() of floats compensated, so a float sum() in rla
    # would tie its results to the Python version: run the corpus with every
    # rla module's sum() refusing floats. Its int sums stay exact.
    callers = set()

    def int_sum(items, start=0):
        items = list(items)
        caller = sys._getframe(1)
        caller = f"{caller.f_globals['__name__']}.{caller.f_code.co_name}"
        floats = [x for x in [start, *items] if isinstance(x, float)]
        assert not floats, f"float sum() in {caller}: {floats[:3]}"
        callers.add(caller)
        return builtins.sum(items, start)

    for info in pkgutil.iter_modules(rla.__path__):
        monkeypatch.setattr(importlib.import_module(f"rla.{info.name}"), "sum", int_sum,
                            raising=False)
    monkeypatch.setattr(rla, "sum", int_sum, raising=False)
    for policy in DIGESTS:
        for inst in CORPUS:
            try:
                config = EngineConfig(PolicyId.parse(policy), inst["tick"], inst["quantum"],
                                      WfqDirection.parse(inst["wfq_direction"]))
                g = validate_group("g", [Link(*l) for l in inst["links"]], config.tick)
                run(g, config, DemandTrace(inst["samples"]), inst["failures"])
            except RlaError:
                pass
    # the wrapper was live: rr's and wfq's switch counts and swrr's table
    assert {"rla.policies._rr_reorder", "rla.policies._kept_switches",
            "rla.swrr.__init__"} <= callers, callers
