"""The public surface, and which errors count as the caller's fault."""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

import reward_routing
from reward_routing import (
    DecayProfile,
    Graph,
    InvalidInputError,
    Lasso,
    MemoryStructure,
    NoCycleError,
    RewardRoutingError,
    RewardSpec,
    SimConfig,
    SolverContractError,
    StateBudgetExceededError,
    simulate_average_reward,
    solve_finite,
    truncation_depth,
    validate_path,
)
from reward_routing import cli, infinite
from reward_routing.cli import EXIT_BAD_INPUT, EXIT_BUDGET, EXIT_INTERNAL, main

from conftest import two_cycles_graph

SPEC = RewardSpec.uniform(4, 1.0, 0.5)


def test_public_names_are_unique_and_resolve():
    names = reward_routing.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(reward_routing, name) is not None, name


# One bad call per module and per input-error subclass, with the message it
# must keep.
BAD_CALLS = {
    "graph": (lambda: Graph(0, ()), "graph needs at least one node"),
    "rewards": (lambda: RewardSpec((1.0,), (1.5,)), r"gamma\[0\] must lie in \(0, 1\]"),
    "finite": (
        lambda: solve_finite(two_cycles_graph(), SPEC, 0, -1),
        "horizon must be non-negative",
    ),
    "infinite": (lambda: truncation_depth(SPEC, 0.0), "epsilon must be positive"),
    "memory": (lambda: MemoryStructure(0, 1, {}), "memory needs at least one slot"),
    "simulate": (lambda: SimConfig(trials=0, seed=0), "at least one trial required"),
    "cli._check_numbers": (
        lambda: cli._check_numbers(argparse.Namespace(epsilon=-1.0)),
        "epsilon must be positive",
    ),
    "cli.parse_graph_document": (
        lambda: cli.parse_graph_document([]),
        "top level must be an object",
    ),
    "EmptyPathError": (
        lambda: validate_path(two_cycles_graph(), []),
        "a path needs at least one node",
    ),
    "BadEdgeError": (
        lambda: validate_path(two_cycles_graph(), [0, 2]),
        r"step 0: \(0, 2\) is not an edge",
    ),
    "HorizonMismatchError": (
        lambda: simulate_average_reward(
            two_cycles_graph(), SPEC, Lasso((), (0, 3)), SimConfig(trials=1, seed=0)
        ),
        "average-reward simulation needs a horizon",
    ),
    "ChoiceNotEdgeError": (
        lambda: MemoryStructure(1, 1, {}).next_slot(1, 0),
        "memory update undefined for slot 1 after node 0",
    ),
    "NodeVariantSpecError": (
        lambda: RewardSpec((1.0, 1.0), (0.5, 0.9)).uniform_gamma(),
        "gamma differs between nodes",
    ),
    "DecayProfile.value": (
        lambda: DecayProfile.geometric(0.5).value(-1),
        "decay index must be non-negative",
    ),
}


@pytest.mark.parametrize("call, message", list(BAD_CALLS.values()), ids=list(BAD_CALLS))
def test_bad_input_raises_the_input_error(call, message):
    with pytest.raises(InvalidInputError, match=message) as err:
        call()
    assert isinstance(err.value, ValueError)


FAULTS = {
    "invalid_input": (InvalidInputError("bad value"), EXIT_BAD_INPUT),
    "no_cycle": (NoCycleError("no infinite path"), EXIT_BAD_INPUT),
    "state_budget": (StateBudgetExceededError(10), EXIT_BUDGET),
    "solver_contract": (SolverContractError("replay disagrees"), EXIT_INTERNAL),
    "memory_error": (MemoryError(), EXIT_INTERNAL),
    "type_error": (TypeError("unsupported operand"), EXIT_INTERNAL),
}


@pytest.mark.parametrize("fault, expected", list(FAULTS.values()), ids=list(FAULTS))
def test_main_maps_each_error_to_its_exit_code(monkeypatch, fault, expected):
    def failing(*args, **kwargs):
        raise fault

    monkeypatch.setattr(infinite, "decide_infinite_value", failing)
    graph = resources.files("reward_routing") / "fixtures" / "two_cycles_gamma_0.26.json"
    argv = [
        "decide", "--graph", str(graph), "--start", "a",
        "--threshold", "0.5", "--epsilon", "0.1",
    ]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == expected and out.getvalue() == ""
    last_line = err.getvalue().splitlines()[-1]
    assert last_line.startswith("error: ")
    # Only an exception from outside the library prints its traceback.
    unexpected = not isinstance(fault, RewardRoutingError)
    assert ("Traceback" in err.getvalue()) == unexpected
    if unexpected:
        assert last_line.startswith(f"error: internal fault: {type(fault).__name__}")


def test_bench_span_targets_resolve():
    # The traced bench run wraps these names; a missing one breaks it.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    module_spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)
    for module, attr in spans.TARGETS:
        target = importlib.import_module(f"{spans.PACKAGE}.{module}")
        assert callable(getattr(target, attr, None)), f"{module}.{attr}"
    for module, cls_name, attr in spans.METHOD_TARGETS:
        target = importlib.import_module(f"{spans.PACKAGE}.{module}")
        assert attr in vars(getattr(target, cls_name)), f"{module}.{cls_name}.{attr}"
