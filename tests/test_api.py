"""The package's public surface: what `import rla` loads, what it exports and
what its entries reject."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rla

README = Path(__file__).resolve().parent.parent / "README.md"


def documented_names() -> list:
    """Every `name` in the bullets of the README's "Public names" list."""
    text = README.read_text()
    section = text.split("### Public names\n", 1)[1].split("\n#", 1)[0]
    bullets = re.findall(r"^- .*?(?=^- |\Z)", section, flags=re.M | re.S)
    return sorted(set(re.findall(r"`([A-Za-z_]\w*)`", "".join(bullets))))


def test_import_is_light_and_exports_what_the_readme_documents():
    # a fresh interpreter: this one has loaded the wfq machinery already
    code = ("import json, sys, rla; print(json.dumps([sorted(rla.__all__), "
            "[m for m in ('rla.swrr', 'fractions', 'decimal') if m in sys.modules]]))")
    src = str(Path(rla.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    exported, loaded = json.loads(proc.stdout)
    assert loaded == []  # wfq's modules load on first use, outside set-up time
    assert exported == documented_names()
    assert len(exported) == len(rla.__all__) == len(set(rla.__all__))


def test_cli_import_loads_no_heavy_modules_and_stamp_still_works(tmp_path):
    # dataclasses pulls in inspect, ast, dis and tokenize; datetime is only
    # needed by --stamp: none of them belongs in every CLI call's start-up
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "datetime"}
    src = str(Path(rla.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}

    def loaded(code):
        code += "; import sys; print(*sys.modules, sep='\\n')"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        return set(out.split())

    assert heavy & (loaded("import rla.cli") - loaded("pass")) == set()
    links, trace = tmp_path / "links.csv", tmp_path / "trace.csv"
    links.write_text("id,capacity_mbps,priority,cost_per_gb,threshold_mbit,buffer_cap_mbit\n"
                     "a,4,1,1,,\n")
    trace.write_text("time_s,demand_mbps\n0,2\n1,3\n")
    proc = subprocess.run([sys.executable, "-m", "rla.cli", "simulate", "--links", str(links),
                           "--trace", str(trace), "--policy", "olb", "--stamp"],
                          capture_output=True, text=True, env=env, check=True)
    header, body = proc.stdout.split("\n", 1)
    assert re.fullmatch(rf"# rla {rla.__version__} simulate \d{{4}}-\d\d-\d\dT\d\d:\d\d:\d\dZ", header)
    assert body.startswith("time_s,demand_mbps,supplied_mbps\n")


HUGE = 10**5000  # more digits than int.__repr__ gives by default
LINK = rla.Link("a", 8, 1, 1.0)
CONFIG = rla.EngineConfig(rla.PolicyId.OLB)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: rla.validate_group("g", [rla.Link("a", HUGE, 1, 1.0)]), id="capacity"),
    pytest.param(lambda: rla.validate_group("g", [LINK], tick=10**400), id="tick"),
    pytest.param(lambda: rla.validate_group("g", [rla.Link("a", 10**200, 1, 1.0)], tick=10**200),
                 id="derived-threshold"),
    pytest.param(lambda: rla.EngineConfig(rla.PolicyId.OLB, tick=HUGE), id="config-tick"),
    pytest.param(lambda: rla.EngineConfig(HUGE), id="config-policy"),
    pytest.param(lambda: rla.DemandTrace([(0, HUGE)]), id="trace"),
    pytest.param(lambda: rla.step(rla.validate_group("g", [LINK]), rla.PolicyState(), CONFIG,
                                  HUGE), id="step"),
    pytest.param(lambda: rla.run(rla.validate_group("g", [LINK]), CONFIG,
                                 rla.DemandTrace([(0, 1.0)]), [(HUGE, "a", "down")]),
                 id="run-failure-time"),
    pytest.param(lambda: rla.run(rla.validate_group("g", [LINK]), CONFIG,
                                 rla.DemandTrace([(0, 1.0)]), [(0, HUGE, "down")]),
                 id="run-failure-id"),
    pytest.param(lambda: rla.run(rla.validate_group("g", [LINK]), CONFIG,
                                 rla.DemandTrace([(0, 1.0)]), [(0, "a", HUGE)]),
                 id="run-failure-kind"),
    pytest.param(lambda: rla.step(rla.validate_group("g", [LINK]), rla.PolicyState(), CONFIG,
                                  1.0, failed=frozenset([HUGE])), id="step-failed"),
    pytest.param(lambda: rla.validate_group("g", [rla.Link(HUGE, -1.0, 1, 1.0)]), id="link-id"),
    pytest.param(lambda: rla.validate_group("g", [rla.Link(HUGE, 8, 1, 1.0),
                                                  rla.Link(HUGE, 8, 2, 1.0)]), id="duplicate-id"),
    pytest.param(lambda: rla.links_to_csv([rla.Link("a", 10**400, 1, 1.0)]), id="links-csv"),
    pytest.param(lambda: rla.failures_to_csv([(10**400, "a", "down")]), id="failures-csv"),
])
def test_entries_reject_oversized_ints_with_a_short_message(call):
    # each value, or the threshold capacity x tick derives, is past the float
    # range, or is an id that is not a str; a message shows an int that long
    # by its size
    with pytest.raises(rla.BadParameterError) as err:
        call()
    assert len(str(err.value)) < 100
