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
