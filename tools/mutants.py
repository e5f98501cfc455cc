"""Re-run the mutation checks: each mutant must make its tests fail.

    python3 tools/mutants.py

Run from anywhere inside an rla checkout. It copies the checkout's src/,
tests/ and pyproject.toml into a temporary directory and first runs every
test that a mutant of MUTANTS names on that unmutated copy; when they
fail, no mutant can be judged and it exits 2. Then, for each mutant, it
replaces the mutant's exact old text with its new text in the copy of one
file, runs the mutant's tests there with pytest, and puts the file back.
A mutant is killed when its tests fail or run past LIMIT seconds (so a
hang counts as killed), survived when they pass, and stale when its old
text does not occur exactly once in the checkout's file; a stale mutant
runs nothing. One line per mutant; exit 0 when every one was killed,
else 1. Stdlib only; it changes nothing in the checkout.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "tests", "pyproject.toml")  # what a copy holds
LIMIT = 120  # seconds a mutant's tests may run before it counts as killed


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout root
    old: str  # exact text, to occur once in file
    new: str
    tests: tuple  # pytest node ids, at least one of which must fail


MUTANTS = (
    # swrr.Swrr.select looks for the cycle in whole periods
    Mutant("swrr-close-unchecked", "src/rla/swrr.py",
           "if self.x == self.start:", "if True:",
           ("tests/test_swrr.py",)),
    Mutant("swrr-compare-first-counter", "src/rla/swrr.py",
           "if self.x == self.start:", "if self.x[0] == self.start[0]:",
           ("tests/test_swrr.py",)),
    Mutant("swrr-no-new-period", "src/rla/swrr.py",
           "self.picks, self.start = [], self.x[:]", "pass",
           ("tests/test_swrr.py",)),
    # swrr.Swrr's rank encoding of tied counters: the lower index goes first
    Mutant("swrr-ties-to-the-later-link", "src/rla/swrr.py",
           "key=lambda k: (rest[k], -k)", "key=lambda k: (rest[k], k)",
           ("tests/test_engine.py::test_engine_matches_oracle_smoke[wfq]",)),
    # policies._admit: a link keeps the full quanta that fit under its cap
    Mutant("admit-keeps-one-quantum-past-the-cap", "src/rla/policies.py",
           "            if room < c:\n", "            room += 1\n            if room < c:\n",
           ("tests/test_engine.py::test_full_quanta_never_fill_past_the_cap",)),
    # policies._Olb.assign's scan (olb and vrrp): a link keeps the full
    # quanta that fit under its cap
    Mutant("olb-scan-keeps-one-quantum-past-the-cap", "src/rla/policies.py",
           "                    if room < k:",
           "                    room += 1\n                    if room < k:",
           ("tests/test_engine.py::test_step_drops_at_cap",)),
    # engine._simulate's memo and _flush
    Mutant("flush-swaps-supplied-and-dropped", "src/rla/engine.py",
           "zip((res.supplied, res.dropped, res.reorder,",
           "zip((res.dropped, res.supplied, res.reorder,",
           ("tests/test_golden.py",)),
    Mutant("memo-stores-the-record-before", "src/rla/engine.py",
           "start[demand] = (record, token)", "start[demand] = (records[-2], token)",
           ("tests/test_corpus.py", "tests/test_engine.py::test_step_sequence_matches_run")),
    Mutant("memo-no-restart-at-bound", "src/rla/engine.py",
           "                elif not ran % bound:\n"
           "                    keys, rows, states, row = {}, [], [], None\n", "",
           ("tests/test_engine.py::"
            "test_replayed_ticks_gather_into_the_columns_of_a_run_without_memo",)),
    Mutant("memo-stops-at-one-sixteenth", "src/rla/engine.py",
           "done + len(records) - ran < ran >> 5", "done + len(records) - ran < ran >> 4",
           ("tests/test_engine.py::test_keying_goes_on_with_one_thirty_second_of_hits",)),
    Mutant("replay-ignores-a-due-change", "src/rla/engine.py",
           "row.get(demand) if due > t else None", "row.get(demand)",
           ("tests/test_golden.py", "tests/test_corpus.py",
            "tests/test_engine.py::test_step_sequence_matches_run")),
    Mutant("catch-up-skips-restore", "src/rla/engine.py",
           "restore(pos)\n                    behind = None", "behind = None",
           ("tests/test_corpus.py", "tests/test_engine.py::test_step_sequence_matches_run")),
    Mutant("catch-up-keeps-the-buffers", "src/rla/engine.py",
           "                    pos, *bufs[:] = states[behind]\n",
           "                    pos = states[behind][0]\n",
           ("tests/test_corpus.py",)),
    Mutant("run-ends-without-catch-up", "src/rla/engine.py",
           "    if behind is not None:\n"
           "        pos, *bufs[:] = states[behind]\n"
           "        restore(pos)\n", "",
           ("tests/test_engine.py::test_step_sequence_matches_run",)),
    # engine._simulate's quanta bound
    Mutant("run-tick-skips-the-bound", "src/rla/engine.py",
           "if quanta > limit:", "if False:",
           ("tests/test_cli.py",)),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How many times mutant's old text occurs in its file under root."""
    return (root / mutant.file).read_text().count(mutant.old)


def copy_tree(into: Path) -> None:
    """Copy the checkout's TREE into into, leaving caches behind."""
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in TREE:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, into / name, ignore=skip)
        else:
            shutil.copy2(ROOT / name, into / name)


def run_tests(tree: Path, tests) -> str:
    """"passed", "failed" or "timed out": pytest over tests in tree, in a
    session of its own that is killed whole past LIMIT seconds."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return "passed" if proc.wait(timeout=LIMIT) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timed out"


def judge(tree: Path, mutant: Mutant) -> str:
    """mutant's verdict line, its file in tree mutated only while its tests run."""
    found = occurrences(mutant)
    if found != 1:
        return f"stale     {mutant.name}: old text occurs {found} times in {mutant.file}"
    path = tree / mutant.file
    text = path.read_text()
    path.write_text(text.replace(mutant.old, mutant.new))
    began = time.monotonic()
    try:
        outcome = run_tests(tree, mutant.tests)
    finally:
        path.write_text(text)
    verdict = "survived" if outcome == "passed" else "killed"
    return f"{verdict:<9} {mutant.name}: tests {outcome} in {time.monotonic() - began:.1f} s"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        control = run_tests(tree, sorted({t for m in MUTANTS for t in m.tests}))
        if control != "passed":
            print(f"control: the unmutated tests {control}; no mutant can be judged")
            return 2
        killed = 0
        for mutant in MUTANTS:
            line = judge(tree, mutant)
            print(line, flush=True)
            killed += line.startswith("killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
