"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

They check that the generated workloads are seeded, finite and dyadic, that
a slice of each one around its peak simulates bit for bit like the
independent brute-force simulator in ``tests/oracle.py`` under all four
policies (so the workloads lie where criterion 5 verifies the engine), and
that the benchmark refuses to run without the package sources.
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import rla  # noqa: E402
from oracle import oracle_run  # noqa: E402

import workloads  # noqa: E402
from workloads import COSTS, POLICIES, TICK, generate  # noqa: E402

SEEDS = (1, 2)
SLICE_TICKS = 120

cases = pytest.mark.parametrize("name,seed", [(n, s) for n in workloads.WORKLOADS
                                              for s in SEEDS])


@cases
def test_generator_is_seeded_finite_and_dyadic(name, seed):
    wl = generate(name, seed)
    assert wl == generate(name, seed)
    assert wl.samples != generate(name, seed + 1).samples
    for i, (t, d) in enumerate(wl.samples):
        assert t == i * TICK
        assert math.isfinite(d) and d >= 0 and (d * 64).is_integer()
    ids = [l[0] for l in wl.links]
    for _, cap, _, cost, thr, bcap in wl.links:
        assert cap == int(cap) > 0 and cost in COSTS
        assert (thr is None) == (bcap is None)
        assert thr is None or (thr == int(thr) and bcap == int(bcap) and bcap >= thr)
        assert wl.quantum <= (cap * TICK if thr is None else thr)
    for t, lid, event in wl.failures:
        assert t == int(t) and 0 <= t <= len(wl.samples) and lid in ids
        assert event in ("up", "down")


def _peak_slice(wl):
    peak = max(range(len(wl.samples)), key=lambda i: wl.samples[i][1])
    start = max(0, min(peak - SLICE_TICKS // 2, len(wl.samples) - SLICE_TICKS))
    return wl.samples[start:start + SLICE_TICKS]


@cases
def test_workload_slice_matches_oracle(name, seed):
    wl = generate(name, seed)
    samples = _peak_slice(wl)
    group = rla.validate_group("links", rla.parse_links(workloads.links_csv(wl.links)), TICK)
    oracle_links = [dict(id=l.id, capacity=l.capacity, priority=l.priority,
                         cost=l.cost_per_gb, threshold=l.threshold, cap=l.buffer_cap)
                    for l in group.links]
    failures = wl.failures or None
    for policy in POLICIES:
        want = oracle_run(oracle_links, policy, samples, tick=TICK, quantum=wl.quantum,
                          failures=wl.failures)
        cfg = rla.EngineConfig(policy=rla.PolicyId.parse(policy), tick=TICK,
                               quantum=wl.quantum)
        got = rla.run(group, cfg, rla.DemandTrace(samples), failures=failures).records
        assert len(got) == len(want) == SLICE_TICKS
        for w, r in zip(want, got):
            assert list(r.assigned) == w["assigned"], (policy, r.t)
            assert list(r.transmitted) == w["transmitted"], (policy, r.t)
            assert list(r.buffer_end) == w["buffers"], (policy, r.t)
            assert r.dropped == w["dropped"], (policy, r.t)
            assert r.reorder_events == w["reorder"], (policy, r.t)
            assert r.supplied_mbps == w["supplied"], (policy, r.t)


def test_refuses_to_run_without_sources():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "day-3link-light", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
