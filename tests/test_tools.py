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


SAME_SOLVES = ROOT / "tools" / "same_solves.py"


def test_same_solves_finds_a_checkout_identical_to_itself():
    argv = [sys.executable, str(SAME_SOLVES), str(ROOT), str(ROOT), "--seeds", "1-30"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "90 of 90 solves identical"
    assert [line.split(":")[0].strip() for line in lines[1:]] == [
        "infinite", "finite gamma", "finite profiles"
    ]


def test_same_solves_names_each_field_that_differs():
    module_spec = importlib.util.spec_from_file_location("same_solves", SAME_SOLVES)
    tool = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tool)
    assert tool.instance(7) == tool.instance(7)
    assert tool.seed_range("3-5") == range(3, 6) and tool.seed_range("4") == range(4, 5)
    result = {"value": (1.5).hex(), "witness": [0, 1], "states_expanded": 3}
    record = {"solve": "seed 1 finite gamma", "result": result}
    assert tool.differences([record], [dict(record)]) == []
    moved = {"solve": record["solve"], "result": dict(result, states_expanded=4)}
    refused = {"solve": record["solve"], "result": {"error": "NoPathError: x"}}
    assert tool.differences([record], [moved]) == ["seed 1 finite gamma: states_expanded differ"]
    assert tool.differences([record], [refused]) == [
        "seed 1 finite gamma: error, states_expanded, value, witness differ"
    ]
    assert tool.tally([record, refused]) == ["  finite gamma: 1 NoPathError, 1 answered"]


def test_same_solves_says_whether_differing_witnesses_tie():
    module_spec = importlib.util.spec_from_file_location("same_solves", SAME_SOLVES)
    tool = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tool)
    value = (24.5).hex()
    result = {"value": value, "witness": [1, 0, 1], "replay": value, "states_expanded": 5}
    record = {"solve": "seed 3 finite gamma", "result": result}
    other = dict(result, witness=[1, 1, 0])
    tied = {"solve": record["solve"], "result": other}
    assert tool.differences([record], [tied]) == [
        f"seed 3 finite gamma: witness differ (witness: a tie, both replay to {value})"
    ]
    worse = {"solve": record["solve"], "result": dict(other, replay=(24.0).hex())}
    assert tool.differences([record], [worse]) == [
        "seed 3 finite gamma: replay, witness differ (witness: not a tie, the replays differ)"
    ]
    lasso = {"r_under": value, "pi_under": [[0], [1, 2]], "r_over": value}
    infinite = {"solve": "seed 3 infinite", "result": lasso}
    turned = {"solve": "seed 3 infinite", "result": dict(lasso, pi_under=[[0, 1], [2, 1]])}
    assert tool.differences([infinite], [turned]) == [
        f"seed 3 infinite: pi_under differ (pi_under: a tie, both replay to {value})"
    ]
