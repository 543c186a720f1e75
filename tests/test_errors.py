"""The public surface, and which errors count as the caller's fault."""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import numpy as np
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
    build_truncated,
    simulate_average_reward,
    solve_bounded_memory,
    solve_finite,
    solve_nondiscounted,
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


# One bad call per raising function, with the message it must keep.
BAD_CALLS = {
    "Graph": (lambda: Graph(0, ()), "graph needs at least one node"),
    "RewardSpec": (lambda: RewardSpec((1.0,), (1.5,)), r"gamma\[0\] must lie in \(0, 1\]"),
    "solve_finite": (
        lambda: solve_finite(two_cycles_graph(), SPEC, 0, -1),
        "horizon must be non-negative",
    ),
    "truncation_depth": (lambda: truncation_depth(SPEC, 0.0), "epsilon must be positive"),
    "MemoryStructure": (lambda: MemoryStructure(0, 1, {}), "memory needs at least one slot"),
    "SimConfig": (lambda: SimConfig(trials=0, seed=0), "at least one trial required"),
    "cli._check_numbers": (
        lambda: cli._check_numbers(argparse.Namespace(epsilon=-1.0)),
        "epsilon must be positive",
    ),
    "cli.parse_graph_document": (
        lambda: cli.parse_graph_document([]),
        "top level must be an object",
    ),
    "Path": (
        lambda: validate_path(two_cycles_graph(), []),
        "a path needs at least one node",
    ),
    "validate_path": (
        lambda: validate_path(two_cycles_graph(), [0, 2]),
        r"step 0: \(0, 2\) is not an edge",
    ),
    "simulate_average_reward": (
        lambda: simulate_average_reward(
            two_cycles_graph(), SPEC, Lasso((), (0, 3)), SimConfig(trials=1, seed=0)
        ),
        "average-reward simulation needs a horizon",
    ),
    "MemoryStructure.next_slot": (
        lambda: MemoryStructure(1, 1, {}).next_slot(1, 0),
        "memory update undefined for slot 1 after node 0",
    ),
    "RewardSpec.uniform_gamma": (
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


# Each integer argument refuses a boolean or a non-integer, by name.
NOT_INTEGERS = {
    "solve_nondiscounted.v0": (
        lambda: solve_nondiscounted(two_cycles_graph(), SPEC.lam, True),
        "start node must be an integer, got True",
    ),
    "solve_finite.v0": (
        lambda: solve_finite(two_cycles_graph(), SPEC, 0.5, 2),
        "start node must be an integer, got 0.5",
    ),
    "solve_finite.horizon": (
        lambda: solve_finite(two_cycles_graph(), SPEC, 0, 2.5),
        "horizon must be an integer, got 2.5",
    ),
    "solve_bounded_memory.memory_size": (
        lambda: solve_bounded_memory(two_cycles_graph(), SPEC, 0, 1.5),
        "memory size must be an integer, got 1.5",
    ),
    "SimConfig.trials": (
        lambda: SimConfig(trials=2.5, seed=0),
        "trials must be an integer, got 2.5",
    ),
    "SimConfig.seed": (
        lambda: SimConfig(trials=1, seed=2.5),
        "seed must be an integer, got 2.5",
    ),
    "SimConfig.horizon": (
        lambda: SimConfig(trials=1, seed=0, horizon=True),
        "horizon must be an integer, got True",
    ),
    "build_truncated.depth": (
        lambda: build_truncated(two_cycles_graph(), 0, 2.5),
        "truncation depth must be an integer, got 2.5",
    ),
}


@pytest.mark.parametrize("call, message", list(NOT_INTEGERS.values()), ids=list(NOT_INTEGERS))
def test_integer_arguments_refuse_booleans_and_non_integers(call, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        call()


def test_numpy_integers_pass_as_integers():
    g = two_cycles_graph()
    assert solve_finite(g, SPEC, np.int64(0), np.int32(4)) == solve_finite(g, SPEC, 0, 4)
    assert build_truncated(g, np.int64(0), np.int64(2)).state_count == (
        build_truncated(g, 0, 2).state_count
    )
    assert SimConfig(trials=np.int64(3), seed=0, horizon=np.int16(5)).trials == 3


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
