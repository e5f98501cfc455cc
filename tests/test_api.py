"""The package's public surface: what `import rla` loads and what it exports."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

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
