"""tools/bench_record.py runs perfbench/run.py and reads its output as run.py
prints it, and tools/bench_pairs.py summarizes parsed outputs; no benchmark
runs here: bench() runs a stand-in run.py. tools/mutants.py's mutants are
only checked to still apply; none is run here."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    """tools/<name>.py as module name, as a script there imports it."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load("bench_record")
bench_pairs = _load("bench_pairs")
mutants = _load("mutants")

RESULT = json.dumps({"correct": True, "attempted": 62, "failed": 0, "metrics": {
    "cli_wall_s": {"value": 0.5256515023316539, "unit": "s"},
    "run_ticks_per_s": {"value": 425337.1647250237, "unit": "ticks/s"},
    "peak_rss_mb": {"value": 33.81640625, "unit": "MiB"},
    "setup_s": {"value": 0.11823719727248724, "unit": "s"}}})
DIGESTS = {"olb.cost.csv": "ccc6f698", "olb.supply.csv": "d601ae71"}
OUTPUT = "\n".join([
    "# day-3link-light: 5 rounds of 3 set-ups, one CLI sequence and at least 1.0 s "
    "of in-process passes",
    "# raw medians: setup 0.081124, wall 0.361161, rate 597633",
    f"# digests {json.dumps(DIGESTS, sort_keys=True)}",
    RESULT,
]) + "\n"


def test_parse_output_keeps_the_result_and_parses_the_comments():
    out = bench_record.parse_output(OUTPUT)
    assert out == {"result": RESULT,
                   "raw_medians": {"setup": 0.081124, "wall": 0.361161, "rate": 597633.0},
                   "digests": DIGESTS}


def test_parse_output_rejects_a_last_line_that_is_not_json():
    with pytest.raises(json.JSONDecodeError):
        bench_record.parse_output(OUTPUT + "# FAILED a check\n")


def _fake_tree(tmp_path, script):
    """A directory whose perfbench/run.py is script."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(script)
    return tmp_path


def test_bench_runs_the_trees_run_py_with_the_workload_seed_and_seconds(tmp_path):
    # the stand-in writes its arguments to argv.txt in its working directory
    tree = _fake_tree(tmp_path, "import sys\n"
                                "open('argv.txt', 'w').write(' '.join(sys.argv))\n"
                                f"print({OUTPUT!r}, end='')\n")
    out = bench_record.bench(tree, "day-3link-light", 7, 0.5)
    assert out == bench_record.parse_output(OUTPUT)
    assert (tree / "argv.txt").read_text() == (
        "perfbench/run.py --workload day-3link-light --seed 7 --seconds 0.5 --trace 0")
    assert bench_pairs.bench is bench_record.bench


def test_bench_stops_on_a_run_that_exits_non_zero(tmp_path):
    tree = _fake_tree(tmp_path, "import sys\nsys.exit('# FAILED a check')\n")
    with pytest.raises(SystemExit, match="exited 1: # FAILED a check"):
        bench_record.bench(tree, "day-3link-light", 7, 0.5)


def test_src_lines_is_the_wc_total_of_src_rla(tmp_path):
    (tmp_path / "src" / "rla").mkdir(parents=True)
    (tmp_path / "src" / "rla" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "rla" / "b.py").write_text("z = 3")  # no final newline: wc counts 0
    (tmp_path / "src" / "rla" / "notes.txt").write_text("not counted\n")
    assert bench_record.src_lines(tmp_path) == 3
    root = TOOLS.parent
    files = sorted(str(p) for p in (root / "src" / "rla").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True)
    assert bench_record.src_lines(root) == int(wc.stdout.splitlines()[-1].split()[0])


def test_format_src_lines_gives_both_trees_counts_and_the_change(tmp_path):
    for tree, text in (("parent", "x = 1\ny = 2\nz = 3\n"), ("change", "x = 1\n")):
        (tmp_path / tree / "src" / "rla").mkdir(parents=True)
        (tmp_path / tree / "src" / "rla" / "a.py").write_text(text)
    assert bench_pairs.format_src_lines(tmp_path / "parent", tmp_path / "change") == (
        "src_lines: parent 3, change 1 (-2)")


def test_record_writes_each_workloads_output_and_the_src_line_count(tmp_path, monkeypatch):
    calls = []

    def fake_bench(tree, workload, seed, seconds):
        calls.append((tree, workload, seed, seconds))
        return bench_record.parse_output(OUTPUT)
    monkeypatch.setattr(bench_record, "bench", fake_bench)
    # git stubbed, so the test also runs in a copy of the tree with no .git
    commit = "0123456789abcdef0123456789abcdef01234567"
    answers = {("status", "--porcelain", "--untracked-files=no"): "",
               ("rev-parse", "HEAD"): commit}
    monkeypatch.setattr(bench_record, "git", lambda *args: answers[args])
    out = tmp_path / "BENCH_0.json"
    assert bench_record.main(["--out", str(out), "--seed", "5", "--seconds", "0.5"]) == 0
    data = json.loads(out.read_text())
    assert data["commit"] == commit and data["dirty"] is False
    names = [w["name"] for w in json.loads((TOOLS.parent / "BENCHMARK.json").read_text())[
        "workloads"]]
    assert calls == [(TOOLS.parent, name, 5, 0.5) for name in names]
    assert data["src_lines"] == bench_record.src_lines(TOOLS.parent)
    assert data["seeds"] == {name: 5 for name in names} and data["seconds"] == 0.5
    assert data["workloads"] == {name: bench_record.parse_output(OUTPUT) for name in names}


def _output(metrics, digests=DIGESTS, correct=True):
    result = json.dumps({"correct": correct, "attempted": 62, "failed": 0 if correct else 1,
                         "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}})
    return bench_record.parse_output(f"# digests {json.dumps(digests)}\n{result}\n")


def test_check_pair_returns_both_sides_metric_values():
    parent = _output({"cli_wall_s": 0.5, "run_ticks_per_s": 100.0})
    change = _output({"cli_wall_s": 0.4, "run_ticks_per_s": 120.0})
    assert bench_pairs.check_pair(parent, change) == (
        {"cli_wall_s": 0.5, "run_ticks_per_s": 100.0},
        {"cli_wall_s": 0.4, "run_ticks_per_s": 120.0})


@pytest.mark.parametrize("parent, change, why", [
    (_output({"cli_wall_s": 0.5}), _output({"cli_wall_s": 0.4}, correct=False), "not correct"),
    (_output({"cli_wall_s": 0.5}, correct=False), _output({"cli_wall_s": 0.4}), "not correct"),
    (_output({"cli_wall_s": 0.5}), _output({"cli_wall_s": 0.4}, digests={"olb.cost.csv": "0"}),
     "digests differ"),
])
def test_check_pair_stops_on_an_incorrect_run_or_differing_digests(parent, change, why):
    with pytest.raises(SystemExit, match=why):
        bench_pairs.check_pair(parent, change)


def metric(name, better, bound=0.25):
    """One end_to_end entry as BENCHMARK.json declares it."""
    return {"name": name, "unit": "s", "better": better, "bound": bound}


def test_summarize_gives_medians_parent_iqr_ratio_wins_and_clear_gain():
    # five pairs; the change runs faster on four and wins rate on all five
    walls = [(0.50, 0.40), (0.52, 0.41), (0.48, 0.49), (0.51, 0.40), (0.49, 0.39)]
    rates = [(100.0, 130.0), (110.0, 125.0), (90.0, 120.0), (105.0, 140.0), (95.0, 128.0)]
    pairs = [({"cli_wall_s": pw, "run_ticks_per_s": pr}, {"cli_wall_s": cw, "run_ticks_per_s": cr})
             for (pw, cw), (pr, cr) in zip(walls, rates)]
    rows = bench_pairs.summarize(pairs, [metric("cli_wall_s", "lower"),
                                         metric("run_ticks_per_s", "higher")])
    (name, pm, spread, cm, ratio, wins, clear, gain, worse), rate = rows
    assert (name, pm, cm, wins, clear) == ("cli_wall_s", 0.50, 0.40, 4, True)
    assert (gain, worse) == (False, False)  # clear, but 4/5 wins is short of 9 in 10
    assert spread == pytest.approx(0.515 - 0.485)  # quartiles of 0.48 ... 0.52
    assert ratio == pytest.approx(0.8)
    assert rate[:2] == ("run_ticks_per_s", 100.0) and rate[3] == 128.0
    assert rate[5:] == (5, True, True, False)
    text = bench_pairs.format_rows("day-2link-heavy", rows, len(pairs))
    assert text.splitlines()[0].split()[-3:] == ["clear", "gain", "worse"]
    assert text.splitlines()[1].split()[-3:] == ["yes", "no", "no"]
    assert text.splitlines()[2].split() == ["day-2link-heavy", "run_ticks_per_s", "100", "15",
                                            "128", "1.280", "5/5", "yes", "yes", "no"]


def test_summarize_calls_a_gain_inside_the_parent_spread_unclear():
    pairs = [({"m": p}, {"m": c}) for p, c in [(1.0, 0.9), (2.0, 1.9), (3.0, 2.9)]]
    (_, pm, spread, cm, _, wins, clear, gain, worse), = bench_pairs.summarize(
        pairs, [metric("m", "lower")])
    assert (pm, cm, wins, clear, gain, worse) == (2.0, 1.9, 3, False, False, False)
    assert spread == 2.0
    assert bench_pairs.iqr([4.0]) == 0.0


@pytest.mark.parametrize("wins, gain", [(10, True), (9, True), (8, False)])
def test_summarize_calls_a_clear_gain_on_nine_of_ten_pairs_a_gain(wins, gain):
    # the change is 0.2 faster on its wins and 0.01 slower on its losses, so
    # every case is clear of the parent's IQR
    pairs = [({"m": 1.0 + i / 100}, {"m": 0.8 + i / 100 if i < wins else 1.01 + i / 100})
             for i in range(10)]
    row, = bench_pairs.summarize(pairs, [metric("m", "lower")])
    assert row[5:] == (wins, True, gain, False)


@pytest.mark.parametrize("better, change, worse", [
    ("lower", 1.24, False), ("lower", 1.26, True),     # 25% more time
    ("higher", 0.76, False), ("higher", 0.74, True),   # 25% fewer ticks/s
])
def test_summarize_calls_a_change_past_the_metric_bound_worse(better, change, worse):
    pairs = [({"m": 1.0}, {"m": change})] * 3
    row, = bench_pairs.summarize(pairs, [metric("m", better, bound=0.25)])
    assert row[5:] == (0, False, False, worse)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutants_old_text_occurs_once(mutant):
    # a change that rewrites a mutated line updates its mutant with it
    assert mutants.occurrences(mutant) == 1
    assert [m.name for m in mutants.MUTANTS].count(mutant.name) == 1
