from __future__ import annotations

import io
import itertools
import json
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reward_routing import (
    RewardValue,
    average_reward,
    cli,
    finite,
    infinite,
    memory,
    path_reward,
    validate_lasso,
    validate_path,
)
from reward_routing.cli import (
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_NO,
    EXIT_OK,
    EXIT_UNKNOWN,
    GraphFileError,
    load_graph_file,
    main,
    parse_graph_document,
)

import oracles

FIXTURES = resources.files("reward_routing") / "fixtures"
NAN, INF = float("nan"), float("inf")


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def run_text(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run(argv: list[str]) -> tuple[int, dict | None, str]:
    code, payload, err = run_text(argv)
    return code, json.loads(payload) if payload else None, err


def normalized(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("wall_time_seconds", None)
    doc["arguments"] = dict(doc["arguments"])
    doc["arguments"]["graph"] = os.path.basename(doc["arguments"]["graph"])
    return doc


def golden(name: str) -> dict:
    with open(fixture_path(f"golden/{name}")) as handle:
        return json.load(handle)


# Documents with no golden file, pinned as ``normalized`` leaves them. On
# two_cycles_gamma_0.26.json the counting route goes round a-b-c twice per
# visit of d; epsilon 1 truncates at depth 1 and cannot separate 1.32765.
COUNTING_CYCLE = ["a", "b", "c", "a", "b", "c", "a", "d"]
COUNTING_LASSO = {"prefix": ["a", "b", "c", "a", "d"], "cycle": COUNTING_CYCLE}
TIGHT_BRACKET = {
    "epsilon_achieved": 3.52748419896e-06,
    "r_over": 1.32765535892,
    "r_under": 1.32765183143,
    "truncation_depth": 6,
    "witness_over": COUNTING_LASSO,
    "witness_under": COUNTING_LASSO,
}
DECIDE_YES = {
    "arguments": {
        "epsilon": 0.001,
        "graph": "two_cycles_gamma_0.26.json",
        "start": "a",
        "subcommand": "decide",
        "threshold": 0.0,
    },
    "bracket": TIGHT_BRACKET,
    "command": "decide",
    "decision": "yes",
    "node_order": ["a", "b", "c", "d"],
    "state_count": 29,
    "threshold": 0.0,
}
DECIDE_NO = {
    "arguments": {
        "epsilon": 0.001,
        "graph": "two_cycles_gamma_0.26.json",
        "start": "a",
        "subcommand": "decide",
        "threshold": 10.0,
    },
    "bracket": TIGHT_BRACKET,
    "command": "decide",
    "decision": "no",
    "node_order": ["a", "b", "c", "d"],
    "state_count": 29,
    "threshold": 10.0,
}
DECIDE_UNKNOWN = {
    "arguments": {
        "epsilon": 1.0,
        "graph": "two_cycles_gamma_0.26.json",
        "start": "a",
        "subcommand": "decide",
        "threshold": 1.32765,
    },
    "bracket": {
        "epsilon_achieved": 0.0237513513514,
        "r_over": 1.35135135135,
        "r_under": 1.3276,
        "truncation_depth": 1,
        "witness_over": {"prefix": ["a", "b", "c"], "cycle": ["a", "b", "c"]},
        "witness_under": {"prefix": ["a", "b", "c"], "cycle": ["a", "b", "c"]},
    },
    "command": "decide",
    "decision": "unknown",
    "node_order": ["a", "b", "c", "d"],
    "state_count": 6,
    "threshold": 1.32765,
}


class TestGraphFiles:
    def test_missing_nodes_named(self):
        with pytest.raises(GraphFileError) as err:
            parse_graph_document({"edges": []})
        assert err.value.field == "nodes"

    def test_bad_gamma_is_named_with_its_index(self):
        for gamma in (2.0, NAN, INF, True):
            doc = {
                "nodes": [{"id": "a", "lambda": 1.0, "gamma": gamma}],
                "edges": [["a", "a"]],
            }
            with pytest.raises(GraphFileError) as err:
                parse_graph_document(doc)
            assert err.value.field == "nodes[0].gamma"

    def test_non_finite_and_boolean_numbers_are_named(self):
        profile = {"table": [1.0, 0.5], "tail": "geometric", "ratio": 0.5}
        for bad in (NAN, INF, -INF, True, False):
            cases = {
                "nodes[0].lambda": {"id": "a", "lambda": bad, "gamma": 0.5},
                "defaults.lambda": {"id": "a", "lambda": 1, "gamma": 0.5},
                "defaults.gamma": {"id": "a", "lambda": 1, "gamma": 0.5},
                "nodes[0].decay_profile.table": {
                    "id": "a",
                    "lambda": 1,
                    "decay_profile": {**profile, "table": [1.0, bad]},
                },
                "nodes[0].decay_profile.ratio": {
                    "id": "a",
                    "lambda": 1,
                    "decay_profile": {**profile, "ratio": bad},
                },
            }
            for field, node in cases.items():
                doc = {"nodes": [node], "edges": [["a", "a"]]}
                if field.startswith("defaults."):
                    doc["defaults"] = {field.split(".")[1]: bad}
                with pytest.raises(GraphFileError) as err:
                    parse_graph_document(doc)
                assert err.value.field == field, (bad, field)

    def test_duplicate_id_rejected(self):
        doc = {
            "nodes": [
                {"id": "a", "lambda": 1, "gamma": 0.5},
                {"id": "a", "lambda": 1, "gamma": 0.5},
            ],
            "edges": [],
        }
        with pytest.raises(GraphFileError) as err:
            parse_graph_document(doc)
        assert err.value.field == "nodes[1].id"

    def test_unknown_edge_endpoint(self):
        for endpoint in ("z", 0, ["a"]):
            doc = {
                "nodes": [{"id": "a", "lambda": 1, "gamma": 0.5}],
                "edges": [["a", endpoint]],
            }
            with pytest.raises(GraphFileError) as err:
                parse_graph_document(doc)
            assert err.value.field == "edges[0]"

    def test_gamma_and_profile_conflict(self):
        doc = {
            "nodes": [
                {
                    "id": "a",
                    "lambda": 1,
                    "gamma": 0.5,
                    "decay_profile": {"table": [1.0], "tail": "zero"},
                }
            ],
            "edges": [["a", "a"]],
        }
        with pytest.raises(GraphFileError) as err:
            parse_graph_document(doc)
        assert err.value.field == "nodes[0]"

    @pytest.mark.parametrize(
        "key, field, taken",
        [
            ("lambda", "nodes[0].lambda", (2.0, 0.5)),
            ("gamma", "nodes[0].gamma", (1.0, 0.25)),
            # A node whose only decay is a null profile needs a default gamma.
            ("decay_profile", "nodes[0].gamma", (1.0, 0.25)),
            # A null default is no default: a node with its own value passes.
            ("defaults.lambda", "nodes[0].lambda", (1.0, 0.5)),
            ("defaults.gamma", "nodes[0].gamma", (1.0, 0.5)),
        ],
    )
    @pytest.mark.parametrize("with_default", [True, False], ids=["default", "no_default"])
    def test_null_counts_as_absent(self, tmp_path, key, field, taken, with_default):
        # with_default: the parameter that is null or missing has a value to
        # fall back on; without one the node misses it.
        node = {"id": "a", "lambda": 1.0, "gamma": 0.5}
        if key == "decay_profile":
            del node["gamma"]
        doc = {"nodes": [node], "edges": [["a", "a"]]}
        if key.startswith("defaults."):
            name = key.removeprefix("defaults.")
            doc["defaults"] = {"lambda": 2.0, "gamma": 0.25, name: None}
            if not with_default:
                del node[name]
        else:
            node[key] = None
            if with_default:
                doc["defaults"] = {"lambda": 2.0, "gamma": 0.25}
        graph = tmp_path / "nulls.json"
        graph.write_text(json.dumps(doc))
        code, out, err = run(
            ["finite", "--graph", str(graph), "--start", "a", "--horizon", "2"]
        )
        if with_default:
            assert code == EXIT_OK, err
            model = load_graph_file(str(graph))
            assert (model.lam[0], model.decays[0]) == taken
        else:
            assert code == EXIT_BAD_INPUT and out is None
            assert err == f"error: {field}: missing and no default provided\n"

    def test_defaults_fill_missing_parameters(self):
        model = load_graph_file(fixture_path("two_cycles_gamma_0.26.json"))
        assert model.spec.gamma == (0.26,) * 4
        assert model.spec.lam == (1.0,) * 4


class TestCommands:
    def test_finite_matches_golden(self):
        code, doc, _ = run(
            [
                "finite",
                "--graph", fixture_path("two_cycles_no_decay.json"),
                "--start", "a",
                "--horizon", "6",
            ]
        )
        assert code == EXIT_OK
        assert normalized(doc) == golden("finite_no_decay_h6.json")

    def test_one_parser_serves_every_call(self):
        # The parser is built once per process; a simulate call in between
        # must leave nothing behind in the next finite call's arguments.
        finite_argv = [
            "finite",
            "--graph", fixture_path("two_cycles_gamma_0.5.json"),
            "--start", "a",
            "--horizon", "6",
        ]
        _, before, _ = run(finite_argv)
        code, _, _ = run(
            [
                "simulate",
                "--graph", fixture_path("two_cycles_gamma_0.5.json"),
                "--path", "a,d,a",
                "--trials", "3",
                "--seed", "7",
            ]
        )
        assert code == EXIT_OK
        _, after, _ = run(finite_argv)
        assert cli.build_parser() is cli.build_parser()
        before.pop("wall_time_seconds")
        after.pop("wall_time_seconds")
        assert after == before
        assert not {"trials", "seed", "path", "mode"} & set(after["arguments"])

    def test_finite_witness_revalidates_and_rescores(self):
        code, doc, _ = run(
            [
                "finite",
                "--graph", fixture_path("two_cycles_gamma_0.5.json"),
                "--start", "a",
                "--horizon", "5",
            ]
        )
        assert code == EXIT_OK
        model = load_graph_file(fixture_path("two_cycles_gamma_0.5.json"))
        nodes = [model.index_of(i) for i in doc["witness"]["path"]]
        route = validate_path(model.graph, nodes)
        assert path_reward(model.spec, route).value == pytest.approx(
            doc["value"], abs=1e-9
        )

    def test_horizon_zero(self):
        code, doc, _ = run(
            [
                "finite",
                "--graph", fixture_path("two_cycles_gamma_0.5.json"),
                "--start", "a",
                "--horizon", "0",
            ]
        )
        assert code == EXIT_OK
        assert doc["value"] == pytest.approx(1.0, abs=1e-12)

    def test_infinite_matches_golden(self):
        code, doc, _ = run(
            [
                "infinite",
                "--graph", fixture_path("two_cycles_gamma_0.26.json"),
                "--start", "a",
                "--epsilon", "1e-5",
            ]
        )
        assert code == EXIT_OK
        assert normalized(doc) == golden("infinite_gamma_0.26.json")

    def test_infinite_witness_revalidates(self):
        code, doc, _ = run(
            [
                "infinite",
                "--graph", fixture_path("two_cycles_gamma_0.26.json"),
                "--start", "a",
                "--epsilon", "1e-4",
            ]
        )
        model = load_graph_file(fixture_path("two_cycles_gamma_0.26.json"))
        under = doc["bracket"]["witness_under"]
        lasso = validate_lasso(
            model.graph,
            [model.index_of(i) for i in under["prefix"]],
            [model.index_of(i) for i in under["cycle"]],
        )
        assert average_reward(model.spec, lasso).value == pytest.approx(
            doc["bracket"]["r_under"], abs=1e-9
        )

    def test_infinite_routes_to_exact_solver_without_decay(self):
        code, doc, _ = run(
            [
                "infinite",
                "--graph", fixture_path("two_cycles_no_decay.json"),
                "--start", "a",
                "--epsilon", "1e-4",
            ]
        )
        assert code == EXIT_OK
        assert "notice" in doc
        assert doc["value"] == 4.0

    def test_infinite_without_decay_emits_the_nondiscounted_witness(self):
        graph = ["--graph", fixture_path("two_cycles_no_decay.json"), "--start", "a"]
        _, doc, _ = run(["infinite", *graph, "--epsilon", "1e-4"])
        assert doc["witness"] == golden("nondiscounted.json")["witness"]
        assert "bracket" not in doc and "state_count" not in doc

    def test_nondiscounted_matches_golden(self):
        code, doc, _ = run(
            [
                "nondiscounted",
                "--graph", fixture_path("two_cycles_no_decay.json"),
                "--start", "a",
            ]
        )
        assert code == EXIT_OK
        assert normalized(doc) == golden("nondiscounted.json")

    @pytest.mark.parametrize(
        "threshold, epsilon, code, expected",
        [
            ("0", "1e-3", EXIT_OK, DECIDE_YES),
            ("10", "1e-3", EXIT_NO, DECIDE_NO),
            ("1.32765", "1", EXIT_UNKNOWN, DECIDE_UNKNOWN),
        ],
        ids=["yes", "no", "unknown"],
    )
    def test_decide_exit_codes(self, threshold, epsilon, code, expected):
        got, doc, _ = run(
            [
                "decide",
                "--graph", fixture_path("two_cycles_gamma_0.26.json"),
                "--start", "a",
                "--threshold", threshold,
                "--epsilon", epsilon,
            ]
        )
        assert got == code
        assert normalized(doc) == expected

    def test_fallback_document_reports_one_witness(self, tmp_path):
        # The optimistic cycle a-b-a waits at a and overflows its age at
        # depth 2. Its replay, 1.52, is the lower end, so a threshold
        # between it and the a-b cycle's 1.6 is undecided.
        graph = tmp_path / "fallback.json"
        graph.write_text(
            json.dumps(
                {
                    "defaults": {"lambda": 1.0, "gamma": 0.6},
                    "nodes": [{"id": "a"}, {"id": "b"}],
                    "edges": [["a", "a"], ["a", "b"], ["b", "a"]],
                }
            )
        )
        common = ["--graph", str(graph), "--start", "a", "--epsilon", "1"]
        code, doc, err = run(["infinite", *common])
        assert code == EXIT_OK, err
        witness = {"prefix": ["a"], "cycle": ["a", "b", "a"]}
        assert normalized(doc) == {
            "arguments": {
                "epsilon": 1.0,
                "graph": "fallback.json",
                "start": "a",
                "subcommand": "infinite",
            },
            "bracket": {
                "epsilon_achieved": 0.18,
                "r_over": 1.7,
                "r_under": 1.52,
                "truncation_depth": 2,
                "witness_over": witness,
                "witness_under": witness,
            },
            "command": "infinite",
            "node_order": ["a", "b"],
            "state_count": 6,
        }
        code, decided, err = run(["decide", *common, "--threshold", "1.55"])
        assert (code, decided["decision"]) == (EXIT_UNKNOWN, "unknown"), err
        assert decided["bracket"] == doc["bracket"]

    def test_bounded_finds_the_counting_route(self):
        code, doc, _ = run(
            [
                "bounded",
                "--graph", fixture_path("two_cycles_gamma_0.26.json"),
                "--start", "a",
                "--memory", "3",
            ]
        )
        assert code == EXIT_OK
        assert normalized(doc) == {
            "arguments": {
                "graph": "two_cycles_gamma_0.26.json",
                "memory": 3,
                "start": "a",
                "subcommand": "bounded",
            },
            "command": "bounded",
            "memory": 3,
            "node_order": ["a", "b", "c", "d"],
            "value": 1.32765183143,
            "witness": {"prefix": [], "cycle": COUNTING_CYCLE},
        }

    @pytest.mark.parametrize(
        "edges, code, cycle",
        [
            ([["a", "a"], ["a", "b"]], EXIT_OK, ["a"]),
            ([["a", "b"], ["b", "a"], ["a", "c"]], EXIT_OK, ["a", "b"]),
            ([["a", "b"], ["a", "c"]], EXIT_BAD_INPUT, None),
        ],
    )
    def test_bounded_skips_dead_ends(self, tmp_path, edges, code, cycle):
        doc = {
            "defaults": {"lambda": 1.0, "gamma": 0.5},
            "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
            "edges": edges,
        }
        graph = tmp_path / "dead_ends.json"
        graph.write_text(json.dumps(doc))
        got, out, err = run(
            ["bounded", "--graph", str(graph), "--start", "a", "--memory", "1"]
        )
        assert got == code, err
        if cycle is None:
            assert out is None
            assert err == "error: no infinite path starts at node 0\n"
        else:
            assert out["witness"] == {"prefix": [], "cycle": cycle}

    def test_simulate_deterministic_matches_golden(self):
        code, doc, _ = run(
            [
                "simulate",
                "--graph", fixture_path("two_cycles_gamma_0.5.json"),
                "--path", "a,d,a,b,c,a,d",
                "--mode", "deterministic",
                "--trials", "1",
                "--seed", "0",
            ]
        )
        assert code == EXIT_OK
        assert normalized(doc) == golden("simulate_deterministic.json")

    def test_simulate_deterministic_cycle(self):
        code, doc, _ = run(
            [
                "simulate",
                "--graph", fixture_path("two_cycles_gamma_0.5.json"),
                "--cycle", "a,b,c",
                "--mode", "deterministic",
                "--horizon", "600",
                "--trials", "2",
            ]
        )
        assert code == EXIT_OK
        assert normalized(doc) == {
            "arguments": {
                "cycle": "a,b,c",
                "graph": "two_cycles_gamma_0.5.json",
                "horizon": 600,
                "mode": "deterministic",
                "seed": 0,
                "subcommand": "simulate",
                "trials": 2,
            },
            "closed_form": 1.75,
            "command": "simulate",
            "mean": 1.74833610649,
            "node_order": ["a", "b", "c", "d"],
            "route": {"prefix": [], "cycle": ["a", "b", "c"]},
            "seed": 0,
            "stderr": 0.0,
            "trials": 2,
        }

    def test_simulate_matches_finite_command_exactly(self):
        args = [
            "--graph", fixture_path("two_cycles_gamma_0.5.json"),
            "--start", "a",
            "--horizon", "6",
        ]
        _, finite_doc, _ = run(["finite"] + args)
        route = ",".join(finite_doc["witness"]["path"])
        _, sim_doc, _ = run(
            [
                "simulate",
                "--graph", fixture_path("two_cycles_gamma_0.5.json"),
                "--path", route,
                "--mode", "deterministic",
                "--trials", "1",
                "--seed", "0",
            ]
        )
        assert sim_doc["mean"] == pytest.approx(finite_doc["value"], abs=1e-9)

    def test_infinite_high_survival_bracket(self, tmp_path):
        doc = {
            "defaults": {"lambda": 1.0, "gamma": 0.9},
            "nodes": [{"id": i} for i in "abcd"],
            "edges": [["a", "b"], ["b", "c"], ["c", "a"], ["a", "d"], ["d", "a"]],
        }
        graph_file = tmp_path / "high_survival.json"
        graph_file.write_text(json.dumps(doc))
        code, out, _ = run(
            ["infinite", "--graph", str(graph_file), "--start", "a",
             "--epsilon", "1e-4"]
        )
        assert code == EXIT_OK
        gamma = 0.9
        optimum = (1 / (1 - gamma)) * (
            1 - (gamma**2 + gamma**3 + 3 * gamma**5) / 5
        )
        bracket = out["bracket"]
        assert bracket["r_under"] - 1e-9 <= optimum <= bracket["r_over"] + 1e-9
        cycle = "".join(bracket["witness_under"]["cycle"])
        assert sorted(cycle) == sorted("abcad")

    def test_finite_with_decay_profiles(self, tmp_path):
        doc = {
            "nodes": [
                {
                    "id": i,
                    "lambda": 1.0,
                    "decay_profile": {"table": [1.0, 0.5, 0.25], "tail": "zero"},
                }
                for i in "abcd"
            ],
            "edges": [["a", "b"], ["b", "c"], ["c", "a"], ["a", "d"], ["d", "a"]],
        }
        graph_file = tmp_path / "profiles.json"
        graph_file.write_text(json.dumps(doc))
        code, out, _ = run(
            ["finite", "--graph", str(graph_file), "--start", "a",
             "--horizon", "4", "--decay"]
        )
        assert code == EXIT_OK
        assert out["value"] > 0
        # The same file without --decay is refused, and vice versa.
        code2, _, err = run(
            ["finite", "--graph", str(graph_file), "--start", "a", "--horizon", "4"]
        )
        assert code2 == EXIT_BAD_INPUT and "decay" in err
        code3, _, err3 = run(
            ["finite", "--graph", fixture_path("two_cycles_gamma_0.5.json"),
             "--start", "a", "--horizon", "4", "--decay"]
        )
        assert code3 == EXIT_BAD_INPUT and "decay_profile" in err3

    def test_only_finite_and_nondiscounted_take_decay_profiles(self, tmp_path):
        doc = {
            "defaults": {"lambda": 1.0},
            "nodes": [
                {"id": "a", "decay_profile": {"table": [1.0, 0.5], "tail": "zero"}},
                {"id": "b", "gamma": 0.5},
            ],
            "edges": [["a", "b"], ["b", "a"]],
        }
        graph_file = tmp_path / "profiles.json"
        graph_file.write_text(json.dumps(doc))
        common = ["--graph", str(graph_file), "--start", "a"]
        for argv in (
            ["infinite", *common, "--epsilon", "1e-3"],
            ["decide", *common, "--threshold", "1", "--epsilon", "1e-3"],
            ["bounded", *common, "--memory", "1"],
            ["simulate", "--graph", str(graph_file), "--cycle", "a,b"],
        ):
            code, out, err = run(argv)
            assert code == EXIT_BAD_INPUT and out is None, argv
            assert "needs gamma values" in err
        code, out, _ = run(["nondiscounted", *common])
        assert code == EXIT_OK
        assert out["value"] == pytest.approx(2.0)

    def test_simulate_average_mode(self):
        code, doc, _ = run(
            [
                "simulate",
                "--graph", fixture_path("two_cycles_gamma_0.5.json"),
                "--cycle", "a,b,c",
                "--trials", "400",
                "--seed", "3",
                "--horizon", "1000",
            ]
        )
        assert code == EXIT_OK
        assert abs(doc["mean"] - doc["closed_form"]) <= 4 * doc["stderr"] + 1e-2


class TestExitCodes:
    def test_missing_file_is_bad_input(self):
        code, _, err = run(
            ["finite", "--graph", "/no/such/file.json", "--start", "a", "--horizon", "1"]
        )
        assert code == EXIT_BAD_INPUT
        assert "graph" in err

    def test_unknown_start_is_bad_input(self):
        code, _, err = run(
            [
                "finite",
                "--graph", fixture_path("two_cycles_gamma_0.5.json"),
                "--start", "z",
                "--horizon", "1",
            ]
        )
        assert code == EXIT_BAD_INPUT
        assert "start" in err

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("RRP_STATE_BUDGET", "10")
        code, _, err = run(
            [
                "infinite",
                "--graph", fixture_path("two_cycles_gamma_0.26.json"),
                "--start", "a",
                "--epsilon", "1e-5",
            ]
        )
        assert code == EXIT_BUDGET
        assert "states" in err

    def test_no_infinite_path_is_bad_input_under_a_tiny_budget(self, monkeypatch, tmp_path):
        # Every path of a complete DAG ends; that is found on the input
        # graph, before a state is built, so the budget cannot hide it.
        ids = "abcdef"
        doc = {
            "defaults": {"lambda": 1.0, "gamma": 0.5},
            "nodes": [{"id": i} for i in ids],
            "edges": [[u, v] for k, u in enumerate(ids) for v in ids[k + 1 :]],
        }
        graph = tmp_path / "dag.json"
        graph.write_text(json.dumps(doc))
        monkeypatch.setenv("RRP_STATE_BUDGET", "20")
        code, out, err = run(
            ["infinite", "--graph", str(graph), "--start", "a", "--epsilon", "1e-3"]
        )
        assert (code, out) == (EXIT_BAD_INPUT, None)
        assert err.splitlines()[-1] == "error: no infinite path starts at node 0"

    def test_malformed_budget_env(self, monkeypatch):
        monkeypatch.setenv("RRP_STATE_BUDGET", "many")
        code, _, _ = run(
            [
                "infinite",
                "--graph", fixture_path("two_cycles_gamma_0.26.json"),
                "--start", "a",
                "--epsilon", "1e-3",
            ]
        )
        assert code == EXIT_BAD_INPUT

    def test_nan_lambda_is_bad_input(self, tmp_path):
        graph_file = tmp_path / "nan.json"
        graph_file.write_text(
            '{"nodes": [{"id": "a", "lambda": NaN, "gamma": 0.5}],'
            ' "edges": [["a", "a"]]}'
        )
        code, out, err = run(
            ["finite", "--graph", str(graph_file), "--start", "a", "--horizon", "2"]
        )
        assert code == EXIT_BAD_INPUT and out is None
        assert err.startswith("error: nodes[0].lambda")

    def test_negative_horizon_is_bad_input(self):
        code, out, err = run(
            [
                "finite",
                "--graph", fixture_path("two_cycles_gamma_0.5.json"),
                "--start", "a",
                "--horizon", "-3",
            ]
        )
        assert code == EXIT_BAD_INPUT and out is None
        assert err == "error: horizon must be non-negative\n"

    def test_negative_epsilon_is_bad_input(self):
        code, out, err = run(
            [
                "decide",
                "--graph", fixture_path("two_cycles_gamma_0.5.json"),
                "--start", "a",
                "--threshold", "1",
                "--epsilon", "-1",
            ]
        )
        assert code == EXIT_BAD_INPUT and out is None
        assert err == "error: epsilon must be positive\n"

    @pytest.mark.parametrize(
        "fixture", ["two_cycles_gamma_0.5.json", "two_cycles_no_decay.json"]
    )
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("infinite", "epsilon", "-1"),
            ("infinite", "epsilon", "0"),
            ("infinite", "epsilon", "nan"),
            ("infinite", "epsilon", "inf"),
            ("decide", "epsilon", "nan"),
            ("decide", "epsilon", "-inf"),
            ("decide", "threshold", "nan"),
            ("decide", "threshold", "inf"),
            ("decide", "threshold", "-inf"),
        ],
    )
    def test_bad_epsilon_and_threshold_are_named(self, fixture, command, flag, value):
        options = {"epsilon": "1e-3", "threshold": "1"}
        options[flag] = value
        argv = [command, "--graph", fixture_path(fixture), "--start", "a"]
        # The "=" form keeps argparse from reading "-inf" as an option.
        argv.append(f"--epsilon={options['epsilon']}")
        if command == "decide":
            argv.append(f"--threshold={options['threshold']}")
        code, out, err = run(argv)
        assert code == EXIT_BAD_INPUT and out is None
        assert err.startswith(f"error: {flag} must be ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bounded", "--start", "a", "--memory", "0"], "memory"),
            (["bounded", "--start", "a", "--memory=-2"], "memory"),
            (["simulate", "--cycle", "a", "--trials", "0"], "trials"),
            (["simulate", "--cycle", "a", "--trials=-5"], "trials"),
        ],
    )
    def test_memory_and_trials_below_one_are_named(self, argv, flag):
        # The graph file does not exist: the flag is refused before loading.
        code, out, err = run([*argv, "--graph", "/no/such/file.json"])
        assert code == EXIT_BAD_INPUT and out is None
        assert err == f"error: {flag} must be at least 1\n"

    def test_usage_error_returns_two(self):
        argv = [
            "infinite",
            "--graph", fixture_path("two_cycles_gamma_0.5.json"),
            "--start", "a",
            "--epsilon", "-inf",
        ]
        code, out, err = run(argv)
        assert code == EXIT_BAD_INPUT and out is None
        assert "usage: reward-routing infinite" in err
        assert "--epsilon: expected one argument" in err

    def test_help_returns_zero(self):
        code, out, err = run_text(["bounded", "--help"])
        assert code == EXIT_OK and err == ""
        assert out.startswith("usage: reward-routing bounded")

    def test_mixed_decay_is_bad_input(self, tmp_path):
        doc = {
            "defaults": {"lambda": 1.0},
            "nodes": [{"id": "a", "gamma": 1.0}, {"id": "b", "gamma": 0.5}],
            "edges": [["a", "b"], ["b", "a"]],
        }
        graph_file = tmp_path / "mixed.json"
        graph_file.write_text(json.dumps(doc))
        code, out, err = run(
            ["infinite", "--graph", str(graph_file), "--start", "a", "--epsilon", "1e-3"]
        )
        assert code == EXIT_BAD_INPUT and out is None
        assert err.startswith("error: ") and "Traceback" not in err

    def test_underflowing_truncation_ratio_is_solved(self, tmp_path):
        # epsilon * (1 - gamma) / lambda underflows to 0 at node a.
        doc = {
            "nodes": [
                {"id": "a", "lambda": 1e300, "gamma": 0.5},
                {"id": "b", "lambda": 1, "gamma": 0.5},
            ],
            "edges": [["a", "b"], ["b", "a"]],
        }
        graph_file = tmp_path / "huge_rate.json"
        graph_file.write_text(json.dumps(doc))
        code, out, err = run(
            ["infinite", "--graph", str(graph_file), "--start", "a", "--epsilon", "1e-300"]
        )
        assert code == EXIT_OK and err == ""
        assert out["bracket"]["truncation_depth"] == 1995
        assert out["bracket"]["witness_under"]["cycle"] == ["a", "b"]

    @pytest.mark.parametrize(
        "rates, argv",
        [
            ((1e308, 1e308), ["finite", "--start", "a", "--horizon", "3"]),
            ((1e308, 1e308), ["infinite", "--start", "a", "--epsilon", "0.1"]),
            (
                (1e308, 1e308),
                ["decide", "--start", "a", "--epsilon", "0.1", "--threshold", "1"],
            ),
            ((1e308, 1e308), ["bounded", "--start", "a", "--memory", "1"]),
            ((1e308, 1e308), ["simulate", "--path", "a,b,a", "--mode", "deterministic"]),
            ((1e308, 1e308), ["nondiscounted", "--start", "a"]),
            ((1e308, 1.0), ["nondiscounted", "--start", "a"]),
            ((1e300, 1e300), ["simulate", "--path", "a,b,a"]),
            # The rates' sum itself overflows in the Poisson unit-limit check.
            pytest.param(
                (1e308, 1e308), ["simulate", "--path", "a,b,a"], id="1e+308-1e+308-poisson"
            ),
            # Below numpy's sampling limit, yet the int64 unit counts wrap.
            ((5e18, 5e18), ["simulate", "--path", "a,b,a"]),
        ],
        ids=lambda x: "-".join(map(str, x)) if isinstance(x, tuple) else x[0],
    )
    def test_overflowing_rates_are_bad_input(self, tmp_path, rates, argv):
        doc = {
            "nodes": [
                {"id": "a", "lambda": rates[0], "gamma": 0.5},
                {"id": "b", "lambda": rates[1], "gamma": 0.5},
            ],
            "edges": [["a", "b"], ["b", "a"]],
        }
        graph_file = tmp_path / "huge_rates.json"
        graph_file.write_text(json.dumps(doc))
        # Solving on inf values would print numpy's RuntimeWarnings first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run([argv[0], "--graph", str(graph_file), *argv[1:]])
        assert code == EXIT_BAD_INPUT and out is None
        [line] = err.splitlines()
        assert line.startswith("error: ") and "scale lambda down" in line

    @pytest.mark.parametrize(
        "argv",
        [["infinite", "--epsilon", "0.1"], ["decide", "--epsilon", "0.1", "--threshold", "1"]],
        ids=["infinite", "decide"],
    )
    def test_overflowing_collected_reward_is_refused(self, tmp_path, argv):
        # The optimistic weight lam / (1 - gamma) is inf at gamma 0.9, but
        # Howard weighs in units of the largest rate; what overflows is the
        # optimum itself, 1.9e308.
        doc = {
            "defaults": {"lambda": 1e308, "gamma": 0.9},
            "nodes": [{"id": "a"}, {"id": "b"}],
            "edges": [["a", "b"], ["b", "a"]],
        }
        graph_file = tmp_path / "huge_rates.json"
        graph_file.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run([argv[0], "--graph", str(graph_file), "--start", "a", *argv[1:]])
        assert code == EXIT_BAD_INPUT and out is None
        assert err.splitlines() == [
            "error: collected reward overflows a float; scale lambda down"
        ]

    @pytest.mark.parametrize(
        "command, replayer",
        [
            ("infinite", infinite),
            ("decide", infinite),
            ("nondiscounted", infinite),
            ("finite", finite),
            ("finite --decay", finite),
        ],
    )
    def test_contract_failure_is_internal(self, tmp_path, monkeypatch, command, replayer):
        # A replay that disagrees with the solver trips the bracket check
        # or the witness re-score inside the solver.
        if command.startswith("finite"):
            name = "decayed_path_reward"
        elif command == "nondiscounted":
            name = "decayed_average_reward"
        else:
            name = "average_reward"
        replay = getattr(replayer, name)

        def disagreeing(*args):
            value = replay(*args)
            return RewardValue(value.value - 1.0, value.kind, value.horizon)

        monkeypatch.setattr(replayer, name, disagreeing)
        graph = fixture_path("two_cycles_gamma_0.26.json")
        if command == "finite --decay":
            profile = {"table": [1.0, 0.5], "tail": "zero"}
            doc = {
                "defaults": {"lambda": 1.0},
                "nodes": [{"id": i, "decay_profile": profile} for i in "abcd"],
                "edges": [["a", "b"], ["b", "c"], ["c", "a"], ["a", "d"], ["d", "a"]],
            }
            graph = tmp_path / "profiles.json"
            graph.write_text(json.dumps(doc))
        argv = [*command.split(), "--graph", str(graph), "--start", "a"]
        if command.startswith("finite"):
            argv += ["--horizon", "4"]
        elif command != "nondiscounted":
            argv += ["--epsilon", "1e-3"]
        if command == "decide":
            argv += ["--threshold", "0"]
        code, out, err = run(argv)
        assert code == EXIT_INTERNAL and out is None
        assert err.startswith("error: ") and "Traceback" not in err

    def test_bounded_search_fault_is_internal(self, monkeypatch):
        # Scoring every cycle as its first node alone breaks the search's
        # value, not the witness it returns.
        monkeypatch.setattr(memory, "_canonical_cycle", lambda c: c[:1])
        graph = fixture_path("two_cycles_gamma_0.26.json")
        code, out, err = run(
            ["bounded", "--graph", graph, "--start", "a", "--memory", "2"]
        )
        assert code == EXIT_INTERNAL and out is None
        assert err.startswith("error: internal solver fault: witness re-scores to ")


def complete_graph_file(tmp_path, node_count: int, gamma: float) -> str:
    ids = [chr(ord("a") + i) for i in range(node_count)]
    doc = {
        "defaults": {"lambda": 1.0, "gamma": gamma},
        "nodes": [{"id": i} for i in ids],
        "edges": [[u, v] for u in ids for v in ids if u != v],
    }
    graph_file = tmp_path / f"k{node_count}.json"
    graph_file.write_text(json.dumps(doc))
    return str(graph_file)


def rescored_under(graph: str, doc: dict) -> float:
    model = load_graph_file(graph)
    under = doc["bracket"]["witness_under"]
    lasso = validate_lasso(
        model.graph,
        [model.index_of(i) for i in under["prefix"]],
        [model.index_of(i) for i in under["cycle"]],
    )
    return average_reward(model.spec, lasso).value


class TestInfiniteBeyondKarpTable:
    """Instances whose truncated graphs outgrew Karp's dense table."""

    @pytest.mark.parametrize("node_count, epsilon", [(5, 1e-3), (6, 1e-2)])
    def test_complete_graph_is_answered(self, tmp_path, node_count, epsilon):
        graph = complete_graph_file(tmp_path, node_count, 0.3)
        code, doc, err = run(
            ["infinite", "--graph", graph, "--start", "a", "--epsilon", str(epsilon)]
        )
        assert code == EXIT_OK, err
        assert doc["state_count"] > 10_000
        bracket = doc["bracket"]
        assert bracket["r_under"] <= bracket["r_over"]
        assert bracket["r_over"] - bracket["r_under"] <= epsilon
        assert rescored_under(graph, doc) == pytest.approx(bracket["r_under"], abs=1e-9)

    def test_dead_end_start_takes_the_cycle(self, tmp_path):
        # The sink is the heavier successor, but no infinite path goes there.
        doc = {
            "defaults": {"gamma": 0.5},
            "nodes": [
                {"id": "s", "lambda": 1.0},
                {"id": "sink", "lambda": 50.0},
                {"id": "a", "lambda": 1.0},
                {"id": "b", "lambda": 1.0},
            ],
            "edges": [["s", "sink"], ["s", "a"], ["a", "b"], ["b", "a"]],
        }
        graph = tmp_path / "dead_end.json"
        graph.write_text(json.dumps(doc))
        code, out, err = run(
            ["infinite", "--graph", str(graph), "--start", "s", "--epsilon", "1e-4"]
        )
        assert code == EXIT_OK, err
        # The sink has no infinite path onward, so its state is never built
        # and its rate of 50 sizes no cap; s, a and b are capped at 15.
        assert out["state_count"] == 18
        assert out["bracket"]["truncation_depth"] == 15
        for side in ("witness_under", "witness_over"):
            witness = out["bracket"][side]
            assert witness["prefix"] == ["s"] + ["a", "b"] * 8
            assert witness["cycle"] == ["a", "b"]
        assert out["bracket"]["r_under"] == pytest.approx(1.5, abs=1e-4)
        assert rescored_under(str(graph), out) == pytest.approx(
            out["bracket"]["r_under"], abs=1e-9
        )


def _mostly(valid: list, bad: list, odds: int = 20) -> st.SearchStrategy:
    """One of ``bad`` about one draw in ``odds``, else one of ``valid``.

    A weighted list rather than a drawn integer, because Hypothesis draws
    the bounds of an integer range far more often than the rest.
    """
    copies = -(-len(bad) * (odds - 1) // len(valid))
    return st.sampled_from(valid * copies + bad)


BAD_NUMBERS = [NAN, INF, -INF, True, "1", None, -1.0]
IDS = ["a", "b", "c", "d"]


@st.composite
def graph_documents(draw) -> dict:
    """Graph documents with 1-4 nodes, some malformed, some with dead ends.

    Half the documents are well formed, and in the rest most fields still
    are; most nodes share the document's kind of decay. So every command
    also gets past the parser often.
    """
    clean = draw(st.booleans())

    def pick(valid: list, bad: list) -> st.SearchStrategy:
        return st.sampled_from(valid) if clean else _mostly(valid, bad)

    ids = IDS[: draw(st.integers(1, 4))]
    lam = pick([0, 0.5, 1.0, 2], BAD_NUMBERS)
    gammas = draw(st.sampled_from([[0.3, 0.5], [1.0], [0.3, 0.5, 1.0]]))
    gamma = pick(gammas, [*BAD_NUMBERS, 0.0, 1.5])
    table = pick(
        [[1.0], [1.0, 0.6], [1.0, 0.6, 0.2]],
        [[], [0.5], [1.0, NAN], [1.0, 1.5], [1.0, True], "1"],
    )
    ratio = pick([0.5, 0.9], [*BAD_NUMBERS, 1.5])
    profiles = st.one_of(
        st.fixed_dictionaries({"table": table, "tail": st.just("geometric"), "ratio": ratio}),
        st.fixed_dictionaries({"table": table, "tail": pick(["zero"], ["linear", None, 3])}),
    )
    kind = draw(st.sampled_from(["gamma", "profile"]))
    nodes = []
    for node_id in ids:
        node = {"id": node_id, "lambda": draw(lam)}
        decay = draw(pick([kind, kind, "default"], ["gamma", "profile", "both"]))
        if decay in ("gamma", "both"):
            node["gamma"] = draw(gamma)
        if decay in ("profile", "both"):
            node["decay_profile"] = draw(profiles)
        nodes.append(node)
    endpoint = pick(ids, ["z", 1, None])
    edges = draw(st.lists(st.lists(endpoint, min_size=2, max_size=2), max_size=8))
    doc = {"nodes": nodes, "edges": edges}
    if draw(pick([True], [False])):
        doc["defaults"] = {"lambda": draw(lam), "gamma": draw(gamma)}
    return doc


# Values some number field refuses, and values no id or endpoint is.
# 2**1024 - 2**970 - 1 lies past the largest float, yet converts to it.
NOT_NUMBERS = [
    True, False, NAN, INF, -INF, 10**400, 2**1024 - 2**970 - 1, -1, "1", None, [1.0], 0, 1.5
]
NOT_IDS = [1, None, True, ["a"], {"a": 1}]


@st.composite
def corrupted_documents(draw) -> dict:
    """Well-formed graph documents with up to three faults put in.

    A fault drops a required key, puts a bad value in a number field, an id
    or an edge, repeats an id, or gives a list or an object the wrong shape.
    """
    ids = IDS[: draw(st.integers(1, 4))]
    profiles = [
        {"table": [1.0, 0.5], "tail": "zero"},
        {"table": [1.0], "tail": "geometric", "ratio": 0.5},
    ]
    nodes = []
    for node_id in ids:
        node = {"id": node_id}
        if draw(st.integers(0, 3)):
            node["lambda"] = draw(st.sampled_from([0, 0.5, 2]))
        decay = draw(st.sampled_from(["gamma", "decay_profile", None]))
        if decay == "gamma":
            node["gamma"] = draw(st.sampled_from([0.5, 1, 1.0]))
        elif decay:
            node["decay_profile"] = draw(st.sampled_from(profiles))
        nodes.append(node)
    edges = draw(st.lists(st.lists(st.sampled_from(ids), min_size=2, max_size=2), max_size=6))
    doc = {"nodes": nodes, "edges": edges}
    if draw(st.integers(0, 2)):
        doc["defaults"] = {"lambda": 1.0, "gamma": 0.25}

    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(nodes))
        fault = draw(st.sampled_from([
            "drop", "number", "profile", "id", "duplicate", "endpoint", "edge", "shape",
        ]))
        defaults = doc.get("defaults")
        owners = [node, defaults] if isinstance(defaults, dict) else [node]
        if fault == "drop":
            owner = draw(st.sampled_from([doc, *owners]))
            if owner:
                del owner[draw(st.sampled_from(sorted(owner)))]
        elif fault == "number":
            owner = draw(st.sampled_from(owners))
            owner[draw(st.sampled_from(["lambda", "gamma"]))] = draw(st.sampled_from(NOT_NUMBERS))
        elif fault == "profile":
            key = draw(st.sampled_from(["table", "tail", "ratio"]))
            node["decay_profile"] = {
                **draw(st.sampled_from(profiles)),
                key: draw(st.sampled_from([*NOT_NUMBERS, [1.0, NAN], [1.0, 10**400]])),
            }
        elif fault == "id":
            node["id"] = draw(st.sampled_from(NOT_IDS))
        elif fault == "duplicate":
            node["id"] = draw(st.sampled_from(ids))
        elif fault == "endpoint":
            edge = [draw(st.sampled_from(ids)), draw(st.sampled_from(ids))]
            edge[draw(st.integers(0, 1))] = draw(st.sampled_from(["z", *NOT_IDS]))
            edges.insert(draw(st.integers(0, len(edges))), edge)
        elif fault == "edge":
            edges.insert(
                draw(st.integers(0, len(edges))),
                draw(st.sampled_from([["a", "a", "a"], ["a"], "ab", ("a", "a"), None])),
            )
        else:
            key = draw(st.sampled_from(["nodes", "edges", "defaults"]))
            doc[key] = draw(st.sampled_from([[], "ab", {"a": "b"}, None, ["a"]]))
    return doc


OPTIONS = st.fixed_dictionaries(
    {
        "start": _mostly(["a", "b"], ["z"]),
        "horizon": _mostly(["0", "2", "3"], ["-1"], odds=4),
        "epsilon": _mostly(["0.1", "0.5"], ["nan", "inf", "-1"], odds=4),
        "threshold": _mostly(["0.5", "2"], ["nan", "inf"], odds=4),
        "memory": _mostly(["1", "2"], ["0"], odds=4),
        "cycle": _mostly(["a", "a,b", "b,a"], ["a,z"], odds=4),
    }
)


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_outcome(parse, doc) -> tuple:
    """The model ``parse`` builds from ``doc`` with its repr (which tells an
    int from an equal float), or the field and message it refuses it with."""
    try:
        model = parse(doc)
    except GraphFileError as exc:
        return exc.field, str(exc)
    return model, repr(model)


class TestParserReference:
    @settings(max_examples=400)
    @given(corrupted_documents())
    @example({"nodes": [{"id": "a", "lambda": 1, "gamma": 1}], "edges": [["a", 1]]})
    @example([])
    @example("graph")
    def test_same_model_or_same_error_as_the_reference(self, doc):
        assert parse_outcome(parse_graph_document, doc) == parse_outcome(
            oracles.parse_graph_document_reference, doc
        )

    def test_every_bad_number_is_reported_as_by_the_reference(self):
        # Node a carries its own numbers, node b takes the defaults.
        for key, value, on_node in itertools.product(
            ("lambda", "gamma"), NOT_NUMBERS, (True, False)
        ):
            node = {"id": "a", "lambda": 1, "gamma": 0.5}
            doc = {
                "defaults": {"lambda": 2, "gamma": 1},
                "nodes": [node, {"id": "b"}],
                "edges": [["a", "b"]],
            }
            (node if on_node else doc["defaults"])[key] = value
            assert parse_outcome(parse_graph_document, doc) == parse_outcome(
                oracles.parse_graph_document_reference, doc
            ), (key, value, on_node)


JSON_LEAVES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.booleans(),
    st.integers(),
    st.just(-0.0),
    st.text(max_size=3),
    st.none(),
)


class TestEmit:
    @given(
        st.recursive(
            JSON_LEAVES,
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=3), inner, max_size=4),
            max_leaves=20,
        )
    )
    @example([np.float64(0.1) + 0.2, True, 3, -0.0, [[1 / 3, "x"], [np.float64(2.5e-13)]]])
    def test_bytes_match_the_reference_rounding(self, value):
        document = {"value": value, "node_order": ["a", "b"]}
        out = io.StringIO()
        with redirect_stdout(out):
            cli._emit(document)
        reference = oracles.round_floats_reference(document)
        expected = json.dumps(reference, indent=2, sort_keys=True, allow_nan=False)
        assert out.getvalue() == expected + "\n"


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(graph_documents(), OPTIONS)
    @example(
        {"nodes": [{"id": "a", "lambda": 1.0, "gamma": 0.5}], "edges": []},
        {
            "start": "a", "horizon": "2", "epsilon": "0.1",
            "threshold": "0.5", "memory": "1", "cycle": "a",
        },
    )
    def test_every_command_exits_cleanly(self, tmp_path_factory, doc, options):
        graph = tmp_path_factory.mktemp("fuzz") / "graph.json"
        graph.write_text(json.dumps(doc))
        common = ["--graph", str(graph), "--start", options["start"]]
        horizon = ["--horizon", options["horizon"]]
        epsilon = ["--epsilon", options["epsilon"]]
        for argv in (
            ["finite", *common, *horizon],
            ["finite", *common, *horizon, "--decay"],
            ["infinite", *common, *epsilon],
            ["decide", *common, "--threshold", options["threshold"], *epsilon],
            ["nondiscounted", *common],
            ["bounded", *common, "--memory", options["memory"]],
            [
                "simulate", "--graph", str(graph), "--cycle", options["cycle"],
                "--trials", "5", "--horizon", "400",
            ],
        ):
            out, err = io.StringIO(), io.StringIO()
            # An exception escaping main() is the traceback the CLI would print.
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in {0, 1, 2, 3, 4, 5}, argv
            assert "Traceback" not in err.getvalue()
            if code in (EXIT_OK, EXIT_NO, EXIT_UNKNOWN):
                json.loads(out.getvalue(), parse_constant=_reject_constant)
