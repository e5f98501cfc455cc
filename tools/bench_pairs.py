"""Compare this checkout with a parent revision over alternated benchmark pairs.

    python3 tools/bench_pairs.py --parent REV --pairs N --seconds S --first-seed K [--workload W]

Run from anywhere inside an rla checkout. It exports REV with ``git archive``
into a temporary directory, and copies the checkout's working tree (its
files that git does not ignore) into another, so that both sides run from
fresh directories of the same kind. Then, for each workload (every one
BENCHMARK.json lists, or W alone) and each pair i, it runs
``perfbench/run.py --trace 0 --seed K+i --seconds S`` once in each tree, the
parent first on even pairs and the change first on odd ones. It stops with
exit 1 when a run exits non-zero, prints ``correct: false``, or prints
``# digests`` that differ from the other side's. Per workload and
end-to-end metric it then prints the parent's median and interquartile
range, the change's median, their ratio (change / parent), the pairs the
change won in the metric's better direction, and three verdicts: clear,
the medians differ in the better direction by more than the parent's IQR;
gain, clear and the change won at least 9 of every 10 pairs; worse, the
change's median is worse than the parent's by more than the metric's
``bound`` in BENCHMARK.json, a fraction of the parent's median. Before
the tables it prints each tree's ``src_lines``, the lines of its
``src/rla/*.py``. Stdlib only; it changes nothing in the checkout.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_record import bench, src_lines

ROOT = Path(__file__).resolve().parent.parent


def check_pair(parent: dict, change: dict) -> tuple:
    """The two runs' metric values, {name: value} each; exits when a run is
    not correct or the two printed different digests."""
    values = []
    for side, out in (("parent", parent), ("change", change)):
        result = json.loads(out["result"])
        if not result["correct"]:
            raise SystemExit(f"{side} run is not correct: {out['result']}")
        values.append({k: m["value"] for k, m in result["metrics"].items()})
    if parent["digests"] != change["digests"]:
        raise SystemExit(f"digests differ: parent {parent['digests']}, change {change['digests']}")
    return tuple(values)


def iqr(values) -> float:
    """Interquartile range (statistics.quantiles' default method); 0 for one value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(pairs, metrics: list) -> list:
    """Per metric of metrics (BENCHMARK.json's end_to_end entries: name,
    better "lower" | "higher", bound), over pairs, a list of (parent values,
    change values) dicts: (name, parent median, parent IQR, change median,
    ratio, wins, clear, gain, worse), wins the pairs where the change was
    better; clear, gain and worse as the module docstring defines them."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        ps = [p[name] for p, _ in pairs]
        cs = [c[name] for _, c in pairs]
        sign = 1 if metric["better"] == "higher" else -1
        pm, cm, spread = statistics.median(ps), statistics.median(cs), iqr(ps)
        wins = sum(sign * (c - p) > 0 for p, c in zip(ps, cs))
        clear = sign * (cm - pm) > spread
        rows.append((name, pm, spread, cm, cm / pm if pm else float("nan"), wins, clear,
                     clear and 10 * wins >= 9 * len(pairs),
                     sign * (pm - cm) > metric["bound"] * abs(pm)))
    return rows


def format_rows(workload: str, rows: list, n: int) -> str:
    lines = [f"{'workload':<18} {'metric':<16} {'parent':>11} {'IQR':>10} {'change':>11} "
             f"{'ratio':>7} {'wins':>6}  clear gain worse"]
    for name, pm, spread, cm, ratio, wins, *verdicts in rows:
        lines.append(f"{workload:<18} {name:<16} {pm:>11.6g} {spread:>10.4g} {cm:>11.6g} "
                     f"{ratio:>7.3f} {wins:>3}/{n:<2}  "
                     + " ".join(f"{'yes' if v else 'no':<5}" for v in verdicts).rstrip())
    return "\n".join(lines)


def format_src_lines(parent_tree: Path, change_tree: Path) -> str:
    """Each tree's src_lines (see bench_record.src_lines) and their difference."""
    p, c = src_lines(parent_tree), src_lines(change_tree)
    return f"src_lines: parent {p}, change {c} ({c - p:+d})"


def export(rev: str, into: Path) -> None:
    """Write the files of rev into the directory into."""
    tar = into / "export.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(tar), rev], cwd=ROOT,
                   check=True)
    subprocess.run(["tar", "-xf", str(tar), "-C", str(into)], check=True)
    tar.unlink()


def snapshot(into: Path) -> None:
    """Copy the working tree's files that git does not ignore into into."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # not a tracked file deleted from the working tree
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the git revision to compare against")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            ap.error(f"unknown workload {args.workload!r} (expected one of: {', '.join(names)})")
        names = [args.workload]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree, change_tree = Path(tmp, "parent"), Path(tmp, "change")
        parent_tree.mkdir()
        export(args.parent, parent_tree)
        snapshot(change_tree)
        print(format_src_lines(parent_tree, change_tree), flush=True)
        for workload in names:
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = [("parent", parent_tree), ("change", change_tree)]
                if i % 2:
                    order.reverse()
                out = {side: bench(tree, workload, seed, args.seconds) for side, tree in order}
                pairs.append(check_pair(out["parent"], out["change"]))
                print(f"{workload} seed {seed} ({order[0][0]} first): " + ", ".join(
                    f"{k} {p:.6g} -> {pairs[-1][1][k]:.6g}" for k, p in pairs[-1][0].items()),
                    file=sys.stderr, flush=True)
            print(format_rows(workload, summarize(pairs, declared["end_to_end"]), len(pairs)),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
