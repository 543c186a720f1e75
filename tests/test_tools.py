"""The checked-in tools run, on this checkout."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAME_OUTPUTS = ROOT / "tools" / "same_outputs.py"


def test_same_outputs_finds_a_checkout_identical_to_itself():
    argv = [sys.executable, str(SAME_OUTPUTS), str(ROOT), str(ROOT)]
    proc = subprocess.run(
        [*argv, "--workload", "finite-horizon", "--seed", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "20 of 20 requests identical\n"


def test_same_outputs_names_each_request_that_differs():
    module_spec = importlib.util.spec_from_file_location("same_outputs", SAME_OUTPUTS)
    tool = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tool)
    doc = '{\n  "value": 1.5,\n  "wall_time_seconds": 0.25\n}\n'
    masked = tool.mask(doc.replace("0.25", "0.5"), "/tmp/g", "/src")
    assert masked == tool.mask(doc, "/tmp/g", "/src")
    record = {"request": "r", "exit code": 0, "stdout": masked, "stderr": ""}
    assert tool.differences([record], [dict(record)]) == []
    changed = dict(record, **{"exit code": 2, "stderr": "error: x\n"})
    assert tool.differences([record], [changed]) == ["r: exit code, stderr differ"]
