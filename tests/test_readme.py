"""README.md against the code it documents: the Configuration table, the
library quick start and the sweep table."""

from __future__ import annotations

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import ctcspot
from ctcspot import SpotterConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_configuration_table_lists_spotter_config_fields_and_defaults():
    section = README.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section, re.M)
    fields = dataclasses.fields(SpotterConfig)
    assert [name for name, _ in rows] == [f.name for f in fields]

    def value(cell: str) -> float:  # a number, or log(<number>)
        m = re.fullmatch(r"log\((.+)\)", cell)
        return math.log(float(m[1])) if m else float(cell)

    assert [value(cell) for _, cell in rows] == [f.default for f in fields]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run python on args with the package importable; a RuntimeWarning is an error."""
    src = str(Path(ctcspot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_quick_start_runs_warning_free_and_prints_its_comment():
    code = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    assert run_python("-c", code).stdout == "gu -> gpu\n"


def test_sweep_table_matches_a_sweep_of_the_demo_corpus(tmp_path):
    # every column but the last, seconds, which varies from run to run
    block = re.search(r"^\$ python3 scripts/sweep_cb_weight\.py .*?\n(.*?)```", README, re.S | re.M)
    want = [line.split()[:5] for line in block.group(1).splitlines()]
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    demo = tmp_path / "demo"
    run_python(str(scripts / "make_synthetic_data.py"), "--out-dir", str(demo),
               "--utterances", "40")
    out = run_python(str(scripts / "sweep_cb_weight.py"), "--data-dir", str(demo),
                     "--out-dir", str(tmp_path / "sweep")).stdout
    assert [line.split()[:5] for line in out.splitlines()] == want
