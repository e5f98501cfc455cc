"""tools/bench_record.py reads perfbench/run.py's output as run.py prints it."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

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
