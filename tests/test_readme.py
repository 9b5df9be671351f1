"""README.md against the code it documents: the Configuration table and the
library quick start."""

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


def test_quick_start_runs_warning_free_and_prints_its_comment():
    code = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    src = str(Path(ctcspot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "gu -> gpu\n"
