import pytest

import reward_routing
from reward_routing import cli, graph, infinite
from reward_routing.errors import StateBudgetExceededError

from spans import Recorder, instrument, layer_metrics, self_times


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    rec = Recorder(clock)
    outer = rec.begin("cli.request")
    clock.now = 1.0
    child = rec.begin("infinite.solve_infinite_approx")
    clock.now = 2.0
    grandchild = rec.begin("infinite.karp_mean_cycle")
    clock.now = 5.0
    rec.end(grandchild)
    clock.now = 6.0
    rec.end(child)
    clock.now = 10.0
    rec.end(outer)
    assert [s[3] for s in rec.spans] == [-1, 0, 1]
    assert self_times(rec.spans) == [5.0, 2.0, 3.0]


def test_spans_must_close_in_order():
    rec = Recorder(FakeClock())
    first = rec.begin("a")
    rec.begin("b")
    with pytest.raises(RuntimeError):
        rec.end(first)


def test_wrap_records_counts_errors_and_request_id():
    rec = Recorder(FakeClock())
    rec.request = 7
    ok = rec.wrap("x.ok", lambda a: a * 2, lambda args, kwargs, result: {"n": result})
    assert ok(3) == 6

    def boom():
        raise StateBudgetExceededError(1, "too big")

    with pytest.raises(StateBudgetExceededError):
        rec.wrap("x.boom", boom, None)()
    (name, _, _, _, request, counts, error), failed = rec.spans
    assert (name, request, counts, error) == ("x.ok", 7, {"n": 6}, None)
    assert failed[6] == "StateBudgetExceededError"


def test_recursive_karp_counts_once_and_refusals_count():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("cli.request"):
        outer = rec.begin("infinite.karp_mean_cycle")
        inner = rec.begin("infinite.karp_mean_cycle")
        clock.now = 4.0
        rec.end(inner, {"cells": 12})
        clock.now = 5.0
        rec.end(outer, {"cells": 12})
        refused = rec.begin("infinite.karp_mean_cycle")
        rec.end(refused, error="StateBudgetExceededError")
    metrics = layer_metrics(rec.spans)
    assert metrics["infinite.karp_mean_cycle.calls"][0] == 2
    assert metrics["infinite.karp_mean_cycle.cells"][0] == 12
    assert metrics["infinite.karp_mean_cycle.bytes"][0] == 96
    assert metrics["infinite.karp_mean_cycle.refused"][0] == 1
    assert metrics["infinite.karp_mean_cycle.self_s"][0] == 5.0
    assert metrics["cli.request.residual_s"][0] == 0.0


def test_instrument_wraps_every_binding_and_restores():
    originals = (infinite.karp_mean_cycle, reward_routing.karp_mean_cycle,
                 cli.validate_path, graph.validate_path, infinite.TruncatedGraph.weights)
    rec = Recorder()
    with instrument(rec):
        assert infinite.karp_mean_cycle is reward_routing.karp_mean_cycle
        assert infinite.karp_mean_cycle.__wrapped__ is originals[0]
        assert cli.validate_path is graph.validate_path is not originals[2]
        assert infinite.TruncatedGraph.weights is not originals[4]
    assert (infinite.karp_mean_cycle, reward_routing.karp_mean_cycle,
            cli.validate_path, graph.validate_path, infinite.TruncatedGraph.weights) == originals


def test_instrumented_solve_reports_layers():
    g = reward_routing.Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)])
    spec = reward_routing.RewardSpec.uniform(4, lam=1.0, gamma=0.26)
    rec = Recorder()
    with instrument(rec):
        with rec.span("cli.request"):
            bracket = reward_routing.solve_infinite_approx(g, spec, 0, 1e-3)
    names = {s[0] for s in rec.spans}
    assert {"infinite.build_truncated", "infinite.weights", "graph.scc_decompose",
            "infinite.karp_mean_cycle", "rewards.average_reward"} <= names
    metrics = layer_metrics(rec.spans)
    assert metrics["infinite.build_truncated.states"][0] == bracket.state_count
    assert metrics["infinite.karp_mean_cycle.calls"][0] >= 2
    covered = sum(metrics[k][0] for k in ("infinite.karp_mean_cycle.self_s",
                                          "infinite.solve_infinite_approx.self_s"))
    assert 0 < covered <= metrics["cli.request.total_s"][0]
