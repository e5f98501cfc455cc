"""Record one point of the benchmark trajectory.

    python3 tools/bench_record.py --out BENCH_<n>.json [--seed N] [--seconds S]

Run from anywhere inside an rla checkout. It runs
``perfbench/run.py --trace 0`` once on each workload that BENCHMARK.json
lists, one after the other, with the same seed and ``--seconds`` for each,
and writes one JSON file: the commit the checkout is on (and whether its
tracked files differ from it), the Python version, the seeds and seconds,
src_lines (the total ``wc -l src/rla/*.py`` prints) and per workload the
run's final JSON line verbatim with its parsed ``# raw medians`` and
``# digests`` comments. Stdlib only; it changes nothing under perfbench/.
tools/bench_pairs.py runs its benchmark through bench() below.
"""

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def parse_output(stdout: str) -> dict:
    """The final JSON line of a run.py output, verbatim, and its two
    comment lines parsed: '# raw medians: setup 0.1, wall 0.5, rate 2e+05'
    and '# digests {...}'."""
    lines = stdout.strip().splitlines()
    out = {"result": lines[-1], "raw_medians": None, "digests": None}
    for line in lines:
        if line.startswith("# raw medians: "):
            pairs = (item.split() for item in line[len("# raw medians: "):].split(", "))
            out["raw_medians"] = {name: float(value) for name, value in pairs}
        elif line.startswith("# digests "):
            out["digests"] = json.loads(line[len("# digests "):])
    json.loads(out["result"])  # the last line must be the result object
    return out


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py --trace 0 output of the checkout at tree, parsed
    as parse_output gives it; exits when the run exits non-zero."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}: "
                         f"{proc.stderr[-500:]}")
    return parse_output(proc.stdout)


def src_lines(tree: Path) -> int:
    """The lines of tree's src/rla/*.py: the total `wc -l src/rla/*.py` prints."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "rla").glob("*.py"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    ap.add_argument("--seed", type=int, default=16)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    out = Path(args.out).resolve()
    dirty = [line for line in git("status", "--porcelain", "--untracked-files=no").splitlines()
             if (ROOT / line[3:]).resolve() != out]
    data = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(dirty),
        "python": platform.python_version(),
        "seconds": args.seconds,
        "seeds": {name: args.seed for name in names},
        "src_lines": src_lines(ROOT),
        "workloads": {},
    }
    for name in names:
        print(f"{name} ...", file=sys.stderr, flush=True)
        data["workloads"][name] = bench(ROOT, name, args.seed, args.seconds)
    out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
