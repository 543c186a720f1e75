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
    FiniteStrategy,
    Graph,
    InvalidInputError,
    Lasso,
    MemoryStructure,
    NoCycleError,
    Path as RoutePath,
    RewardRoutingError,
    RewardSpec,
    SimConfig,
    SolverContractError,
    StateBudgetExceededError,
    build_truncated,
    decide_finite_value,
    decayed_average_reward,
    decayed_path_reward,
    decide_infinite_value,
    outcome,
    average_reward,
    path_reward,
    shortest_path,
    simulate_average_reward,
    solve_bounded_memory,
    solve_finite,
    solve_infinite_approx,
    solve_nondiscounted,
    truncation_depth,
    validate_lasso,
    validate_path,
    weight_pair,
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


# The a-d loop of the two-cycles graph, as a one-slot strategy.
LOOP_STRATEGY = FiniteStrategy(
    MemoryStructure(1, 1, {(1, v): 1 for v in range(4)}), {(0, 1): 3, (3, 1): 0}, 0
)

# A two-node ring, whose solves answer any finite threshold.
RING = Graph.from_edges(2, [(0, 1), (1, 0)])
RING_SPEC = RewardSpec.uniform(2, 1.0, 0.5)

# Edges 0->0 and 0<->1 with node 1 never decaying: capped at age 1, the
# state (1, (1, 0)) has an overflowed own age at a node without a limit.
LOOP_AND_RING = Graph.from_edges(2, [(0, 0), (0, 1), (1, 0)])
UNDECAYING_SPEC = RewardSpec((1.0, 1.0), (0.5, 1.0))

# One bad call per raising function (per argument where it checks several),
# with the message it must keep.
BAD_CALLS = {
    "Graph": (lambda: Graph(0, ()), "graph needs at least one node"),
    "RewardSpec": (lambda: RewardSpec((1.0,), (1.5,)), r"gamma\[0\] must lie in \(0, 1\]"),
    "solve_finite": (
        lambda: solve_finite(two_cycles_graph(), SPEC, 0, -1),
        "horizon must be non-negative",
    ),
    "truncation_depth": (lambda: truncation_depth(SPEC, 0.0), "epsilon must be positive"),
    "truncation_depth.str": (
        lambda: truncation_depth(SPEC, "1"),
        "^epsilon must be a finite number$",
    ),
    "build_truncated.caps": (
        lambda: build_truncated(two_cycles_graph(), 0, (2, 2, 2)),
        "^truncation caps disagree with the graph$",
    ),
    "build_truncated.cap": (
        lambda: build_truncated(two_cycles_graph(), 0, (2, 0, 2, 2)),
        "^truncation depth must be at least 1$",
    ),
    "solve_infinite_approx.inf": (
        lambda: solve_infinite_approx(RING, RING_SPEC, 0, float("inf")),
        "^epsilon must be a finite number$",
    ),
    "solve_infinite_approx.bool": (
        lambda: solve_infinite_approx(RING, RING_SPEC, 0, True),
        "^epsilon must be a finite number$",
    ),
    "TruncatedGraph.weights.gamma": (
        lambda: build_truncated(LOOP_AND_RING, 0, 1).weights(UNDECAYING_SPEC),
        "^survival probability 1 cannot be truncated$",
    ),
    "TruncatedGraph.weights.size": (
        lambda: build_truncated(two_cycles_graph(), 0, 2).weights(RING_SPEC),
        "^spec size disagrees with the graph$",
    ),
    "weight_pair": (
        lambda: weight_pair(UNDECAYING_SPEC, (1, (1, 0)), 1),
        "^survival probability 1 cannot be truncated$",
    ),
    "average_reward": (
        lambda: average_reward(RING_SPEC, Lasso((0,), (1, 2))),
        "^node 2 has no rate: lam and decays cover 2 nodes$",
    ),
    "path_reward": (
        lambda: path_reward(RING_SPEC, RoutePath((0, 1, 3, 0))),
        "^node 3 has no rate: lam and decays cover 2 nodes$",
    ),
    "path_reward.negative": (
        lambda: path_reward(RING_SPEC, RoutePath((0, -1))),
        "^node -1 has no rate: lam and decays cover 2 nodes$",
    ),
    "decayed_average_reward": (
        lambda: decayed_average_reward((0.5,), (1.0, 1.0), Lasso((), (0, 1))),
        "^node 1 has no rate: lam and decays cover 1 nodes$",
    ),
    "decayed_path_reward": (
        lambda: decayed_path_reward((0.5, 0.5), (1.0,), RoutePath((1,))),
        "^node 1 has no rate: lam and decays cover 1 nodes$",
    ),
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
    "shortest_path.src": (
        lambda: shortest_path(two_cycles_graph(), 99, 0),
        "source node 99 out of range",
    ),
    "shortest_path.dst": (
        lambda: shortest_path(two_cycles_graph(), 0, 99),
        "target node 99 out of range",
    ),
    "shortest_path.negative": (
        lambda: shortest_path(two_cycles_graph(), -1, 0),
        "source node -1 out of range",
    ),
    "outcome": (
        lambda: outcome(two_cycles_graph(), LOOP_STRATEGY, -1),
        "steps must be non-negative",
    ),
    "decide_finite_value": (
        lambda: decide_finite_value(RING, RING_SPEC, 0, 3, float("nan")),
        "^threshold must be a finite number$",
    ),
    "decide_infinite_value": (
        lambda: decide_infinite_value(RING, RING_SPEC, 0, float("nan"), 1e-3),
        "^threshold must be a finite number$",
    ),
    "decide_infinite_value.inf": (
        lambda: decide_infinite_value(RING, RING_SPEC, 0, float("inf"), 1e-3),
        "^threshold must be a finite number$",
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
    "build_truncated.cap_float": (
        lambda: build_truncated(two_cycles_graph(), 0, (2, 2.5, 2, 2)),
        "truncation depth must be an integer, got 2.5",
    ),
    "shortest_path.dst": (
        lambda: shortest_path(two_cycles_graph(), 0, True),
        "target node must be an integer, got True",
    ),
    "shortest_path.src": (
        lambda: shortest_path(two_cycles_graph(), 1.0, 0),
        "source node must be an integer, got 1.0",
    ),
    "shortest_path.dst_float": (
        lambda: shortest_path(two_cycles_graph(), 0, 1.0),
        "target node must be an integer, got 1.0",
    ),
    "outcome.steps": (
        lambda: outcome(two_cycles_graph(), LOOP_STRATEGY, 2.5),
        "steps must be an integer, got 2.5",
    ),
    "MemoryStructure.size": (
        lambda: MemoryStructure(1.5, 1, {}),
        "memory size must be an integer, got 1.5",
    ),
    "MemoryStructure.size_bool": (
        lambda: MemoryStructure(True, 1, {}),
        "memory size must be an integer, got True",
    ),
    "MemoryStructure.initial": (
        lambda: MemoryStructure(2, 1.0, {}),
        "initial slot must be an integer, got 1.0",
    ),
    "validate_path.node": (
        lambda: validate_path(RING, [0, 1.0]),
        "node must be an integer, got 1.0",
    ),
    "validate_lasso.prefix": (
        lambda: validate_lasso(RING, [True], [0, 1]),
        "node must be an integer, got True",
    ),
    "validate_lasso.cycle": (
        lambda: validate_lasso(RING, [], [0, 1.0]),
        "node must be an integer, got 1.0",
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
        method = vars(getattr(target, cls_name)).get(attr)
        assert callable(method), f"{module}.{cls_name}.{attr}"
