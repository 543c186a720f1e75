"""Span recorder for the traced run, and the per-layer metrics drawn from it.

The traced run wraps public functions of ``reward_routing`` from outside:
every module namespace that binds one of them gets a wrapper, so calls
between modules are seen no matter how they were imported. Nothing under
``src/`` changes. Spans and counts stay in memory until the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator


def _items(args, kwargs, model) -> dict:
    return {"items": model.graph.node_count + model.graph.edge_count}


def _truncated(args, kwargs, tg) -> dict:
    return {"states": tg.state_count, "edges": tg.state_graph.edge_count}


def _karp(args, kwargs, result) -> dict:
    m = args[0] if args else kwargs["state_count"]
    return {"cells": (m + 1) * m}


def _finite_states(args, kwargs, solution) -> dict:
    return {"states": solution.states_expanded}


def _trial_steps(args, kwargs, result) -> dict:
    route, cfg = args[2], args[3]
    # A Path is simulated as given; a Lasso is unrolled to the horizon.
    steps = len(route.nodes) if hasattr(route, "nodes") else cfg.horizon + 1
    return {"trial_steps": cfg.trials * steps}


PACKAGE = "reward_routing"

# Public functions to wrap, as (module, attribute) of their definition,
# with the counts to take from each call: fn(args, kwargs, result) -> dict.
TARGETS: dict[tuple[str, str], Callable | None] = {
    ("cli", "load_graph_file"): _items,
    ("graph", "scc_decompose"): None,
    ("graph", "shortest_path"): None,
    ("graph", "covering_cycle"): None,
    ("graph", "validate_path"): None,
    ("graph", "validate_lasso"): None,
    ("infinite", "build_truncated"): _truncated,
    ("infinite", "karp_mean_cycle"): _karp,
    ("infinite", "solve_infinite_approx"): None,
    ("infinite", "solve_nondiscounted"): None,
    ("finite", "solve_finite"): _finite_states,
    ("finite", "solve_finite_decay"): _finite_states,
    ("rewards", "average_reward"): None,
    ("rewards", "path_reward"): None,
    ("rewards", "decayed_path_reward"): None,
    ("memory", "solve_bounded_memory"): None,
    ("simulate", "simulate_average_reward"): _trial_steps,
    ("simulate", "simulate_finite_reward"): _trial_steps,
}

# Methods to wrap, as (module, class, method).
METHOD_TARGETS = {("infinite", "TruncatedGraph", "weights"): None}

REQUEST = "cli.request"


class Recorder:
    """Spans as lists ``[name, start, end, parent, request, counts, error]``.

    ``parent`` is the index of the enclosing open span, or -1. ``error`` is
    the exception type name when the call raised, else ``None``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        self.request = -1

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, self.request, {}, None])
        self._open.append(index)
        return index

    def end(self, index: int, counts: dict | None = None, error: str | None = None) -> None:
        if self._open.pop() != index:
            raise RuntimeError("spans must close in reverse order of opening")
        span = self.spans[index]
        span[2] = self.clock()
        if counts:
            span[5] = counts
        span[6] = error

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        error = None
        try:
            yield index
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self.end(index, error=error)

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(index, error=type(exc).__name__)
                raise
            self.end(index, count(args, kwargs, result) if count else None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "counts", "error"],
                       "spans": self.spans}, handle)


@contextmanager
def instrument(recorder: Recorder) -> Iterator[None]:
    """Wrap every target at every ``reward_routing`` namespace that binds it."""
    patched: list[tuple[object, str, object]] = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    try:
        for (module, attr), count in TARGETS.items():
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            wrapper = recorder.wrap(f"{module}.{attr}", original, count)
            for namespace in modules:
                if vars(namespace).get(attr) is original:
                    patched.append((namespace, attr, original))
                    setattr(namespace, attr, wrapper)
        for (module, cls_name, attr), count in METHOD_TARGETS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
            original = vars(cls)[attr]
            patched.append((cls, attr, original))
            setattr(cls, attr, recorder.wrap(f"{module}.{attr}", original, count))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _outermost(spans: list[list], names: set[str]) -> list[int]:
    """Indices of spans in ``names`` with no ancestor in ``names``."""
    inside = [False] * len(spans)
    picked = []
    for i, s in enumerate(spans):
        parent = s[3]
        covered = parent >= 0 and (inside[parent] or spans[parent][0] in names)
        inside[i] = covered
        if s[0] in names and not covered:
            picked.append(i)
    return picked


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    ``total_s`` counts the outermost call of a group once, so recursion
    and nested calls inside the group are not double-counted; ``self_s``
    sums self time over every span of the name.
    """
    own = self_times(spans)

    def group(*names: str) -> tuple[float, int, dict]:
        picked = _outermost(spans, set(names))
        counts: dict[str, float] = {}
        for i in picked:
            for key, value in spans[i][5].items():
                counts[key] = counts.get(key, 0) + value
        return sum(spans[i][2] - spans[i][1] for i in picked), len(picked), counts

    def self_s(name: str) -> float:
        return sum(t for s, t in zip(spans, own) if s[0] == name)

    metrics: dict[str, tuple[float, str]] = {}
    request_s, requests, _ = group(REQUEST)
    metrics["cli.request.total_s"] = (request_s, "s")
    metrics["cli.request.count"] = (requests, "count")
    metrics["cli.request.residual_s"] = (self_s(REQUEST), "s")

    load_s, _, load = group("cli.load_graph_file")
    metrics["cli.load_graph_file.total_s"] = (load_s, "s")
    metrics["cli.load_graph_file.items_per_s"] = (_rate(load.get("items", 0), load_s), "1/s")

    for name in ("scc_decompose", "shortest_path", "covering_cycle"):
        total, calls, _ = group(f"graph.{name}")
        metrics[f"graph.{name}.total_s"] = (total, "s")
        metrics[f"graph.{name}.calls"] = (calls, "count")
    metrics["graph.validate.total_s"] = (group("graph.validate_path", "graph.validate_lasso")[0], "s")

    build_s, _, build = group("infinite.build_truncated")
    metrics["infinite.build_truncated.total_s"] = (build_s, "s")
    metrics["infinite.build_truncated.states"] = (build.get("states", 0), "count")
    metrics["infinite.build_truncated.edges"] = (build.get("edges", 0), "count")
    metrics["infinite.build_truncated.states_per_s"] = (_rate(build.get("states", 0), build_s), "1/s")
    metrics["infinite.weights.total_s"] = (group("infinite.weights")[0], "s")

    karp = _outermost(spans, {"infinite.karp_mean_cycle"})
    refused = [i for i in karp if spans[i][6] == "StateBudgetExceededError"]
    cells = sum(spans[i][5].get("cells", 0) for i in karp)
    metrics["infinite.karp_mean_cycle.self_s"] = (self_s("infinite.karp_mean_cycle"), "s")
    metrics["infinite.karp_mean_cycle.calls"] = (len(karp), "count")
    metrics["infinite.karp_mean_cycle.cells"] = (cells, "count")
    metrics["infinite.karp_mean_cycle.bytes"] = (8 * cells, "bytes")
    metrics["infinite.karp_mean_cycle.refused"] = (len(refused), "count")
    metrics["infinite.solve_infinite_approx.self_s"] = (self_s("infinite.solve_infinite_approx"), "s")
    metrics["infinite.solve_nondiscounted.self_s"] = (self_s("infinite.solve_nondiscounted"), "s")

    solve_s, _, solve = group("finite.solve_finite", "finite.solve_finite_decay")
    metrics["finite.solve.total_s"] = (solve_s, "s")
    metrics["finite.solve.states"] = (solve.get("states", 0), "count")
    metrics["finite.solve.states_per_s"] = (_rate(solve.get("states", 0), solve_s), "1/s")

    rescore_s, rescore_calls, _ = group(
        "rewards.average_reward", "rewards.path_reward", "rewards.decayed_path_reward")
    metrics["rewards.rescore.total_s"] = (rescore_s, "s")
    metrics["rewards.rescore.calls"] = (rescore_calls, "count")

    memory_s, memory_calls, _ = group("memory.solve_bounded_memory")
    metrics["memory.solve_bounded_memory.total_s"] = (memory_s, "s")
    metrics["memory.solve_bounded_memory.calls"] = (memory_calls, "count")

    sim_s, _, sim = group("simulate.simulate_average_reward", "simulate.simulate_finite_reward")
    metrics["simulate.total_s"] = (sim_s, "s")
    metrics["simulate.trial_steps_per_s"] = (_rate(sim.get("trial_steps", 0), sim_s), "1/s")
    return metrics
