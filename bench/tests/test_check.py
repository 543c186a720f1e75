import json

import pytest

import corpus
from check import Wrong, check, gain, lasso_average, path_total
from corpus import Instance, Item, Node, Request

TRIANGLE_AND_LOOP = ((0, 1), (1, 2), (2, 0), (0, 3), (3, 0))


def make_request(command: str, nodes, options=None, expect=None, ids=("a", "b", "c", "d")) -> Request:
    item = Item("test", Instance(tuple(nodes), TRIANGLE_AND_LOOP), command, 0, options or {})
    return Request(item, list(ids), [command], expect or {"ref": None}, 0)


GAMMA = [Node(1.0, gamma=0.5)] * 4
FLAT = [Node(1.0, gamma=1.0), Node(2.0, gamma=1.0), Node(3.0, gamma=1.0), Node(4.0, gamma=1.0)]


def test_path_total_by_hand():
    # a b c a: ages 1, 2, 3, 3 under gamma 1/2: 1 + 1.5 + 1.75 + 1.75.
    assert path_total(GAMMA, [0, 1, 2, 0]) == pytest.approx(6.0)


def test_lasso_average_without_decay_is_the_lambda_sum_of_the_cycle():
    assert lasso_average(FLAT, [0, 1, 2]) == pytest.approx(6.0)
    assert lasso_average(FLAT, [0, 3, 0, 1, 2]) == pytest.approx(10.0)


def test_profile_gain_matches_geometric_gain():
    geometric = Node(2.0, table=(1.0,), tail="geometric", ratio=0.3)
    for age in range(1, 8):
        assert gain(geometric, age) == pytest.approx(gain(Node(2.0, gamma=0.3), age))
    assert gain(Node(1.0, table=(1.0, 0.5), tail="zero"), 5) == pytest.approx(1.5)


def exact_doc(command: str, value: float, prefix, cycle) -> str:
    return json.dumps({"command": command, "value": value,
                       "witness": {"prefix": prefix, "cycle": cycle}})


def test_exact_answer_ok_and_wrong_value():
    req = make_request("nondiscounted", FLAT, expect={"ref": {"value": 10.0}})
    assert check(req, 0, exact_doc("nondiscounted", 10.0, [], ["a", "d", "a", "b", "c"]), "") == "ok"
    with pytest.raises(Wrong, match="pinned"):
        check(req, 0, exact_doc("nondiscounted", 6.0, [], ["a", "b", "c"]), "")


def test_witness_must_use_edges_and_leave_from_start():
    req = make_request("nondiscounted", FLAT, expect={"ref": {"value": 6.0}})
    with pytest.raises(Wrong, match="non-edge"):
        check(req, 0, exact_doc("nondiscounted", 6.0, [], ["a", "c", "b"]), "")
    with pytest.raises(Wrong, match="start"):
        check(req, 0, exact_doc("nondiscounted", 6.0, [], ["b", "c", "a"]), "")


def test_non_strict_json_is_wrong():
    req = make_request("nondiscounted", FLAT)
    with pytest.raises(Wrong, match="strict JSON"):
        check(req, 0, '{"command": "nondiscounted", "value": NaN}', "")


def test_refusal_and_crashes():
    req = make_request("infinite", GAMMA, options={"epsilon": 1e-3}, expect={"ref": {"exit": 3}})
    assert check(req, 3, "", "error: Karp table does not fit\n") == "refused"
    with pytest.raises(Wrong):
        check(req, 3, "", "Traceback (most recent call last):\n")
    with pytest.raises(Wrong, match="raised"):
        check(req, ValueError("boom"), "", "")
    with pytest.raises(Wrong, match="exit code"):
        check(req, 2, "", "error: nodes: bad\n")


def test_refusal_of_an_item_pinned_as_answered_is_wrong():
    ref = {"exit": 0, "r_under": 1.0, "r_over": 1.0}
    req = make_request("infinite", GAMMA, options={"epsilon": 1e-3}, expect={"ref": ref})
    with pytest.raises(Wrong, match="pinned with exit 0"):
        check(req, 3, "", "error: Karp table does not fit\n")


def bracket_doc(command: str, under: float, over: float, cycle, decision=None) -> str:
    witness = {"prefix": [], "cycle": cycle}
    doc = {"command": command, "bracket": {"r_under": under, "r_over": over,
                                           "witness_under": witness, "witness_over": witness}}
    if decision:
        doc["decision"] = decision
    return json.dumps(doc)


def test_bracket_contract_and_pinned_overlap():
    value = lasso_average(GAMMA, [0, 1, 2])
    ref = {"exit": 0, "r_under": value, "r_over": value + 5e-4}
    req = make_request("infinite", GAMMA, options={"epsilon": 1e-3}, expect={"ref": ref})
    assert check(req, 0, bracket_doc("infinite", value, value + 1e-3, ["a", "b", "c"]), "") == "ok"
    with pytest.raises(Wrong, match="contract"):
        check(req, 0, bracket_doc("infinite", value, value + 1e-2, ["a", "b", "c"]), "")
    with pytest.raises(Wrong, match="re-scored"):
        check(req, 0, bracket_doc("infinite", value + 1e-4, value + 1e-3, ["a", "b", "c"]), "")
    far = {"exit": 0, "r_under": value + 1.0, "r_over": value + 1.0}
    req = make_request("infinite", GAMMA, options={"epsilon": 1e-3}, expect={"ref": far})
    with pytest.raises(Wrong, match="misses pinned"):
        check(req, 0, bracket_doc("infinite", value, value, ["a", "b", "c"]), "")


def test_decide_needs_the_expected_answer_and_exit_code():
    value = lasso_average(GAMMA, [0, 1, 2])
    ref = {"exit": 0, "r_under": value, "r_over": value}
    req = make_request("decide", GAMMA, options={"epsilon": 1e-3},
                       expect={"ref": ref, "decision": "no"})
    assert check(req, 1, bracket_doc("decide", value, value, ["a", "b", "c"], "no"), "") == "ok"
    with pytest.raises(Wrong, match="exit code"):
        check(req, 0, bracket_doc("decide", value, value, ["a", "b", "c"], "yes"), "")


def test_simulated_mean_within_five_standard_errors():
    options = {"route": [[], [0, 3]], "horizon": 9}
    expected = path_total(GAMMA, [0, 3] * 5) / 10
    req = make_request("simulate", GAMMA, options=options)

    def doc(mean: float) -> str:
        return json.dumps({"command": "simulate", "mean": mean, "stderr": 0.01})

    assert check(req, 0, doc(expected + 0.04), "") == "ok"
    with pytest.raises(Wrong, match="closed form"):
        check(req, 0, doc(expected + 0.06), "")


def generate(workload: str, seed: int, out):
    out.mkdir()
    return corpus.generate(workload, seed, out, corpus.load_refs())


def test_generated_round_is_seeded_and_relabeled(tmp_path):
    first = generate("oracle-check", 5, tmp_path / "a")
    again = generate("oracle-check", 5, tmp_path / "b")
    other = generate("oracle-check", 6, tmp_path / "c")
    assert [r.argv[3:] for r in first] == [r.argv[3:] for r in again]
    assert [r.ids for r in first] != [r.ids for r in other]
    assert sorted(r.item.ref for r in first) == sorted(r.item.ref for r in other)


def test_every_pool_item_is_pinned():
    refs = corpus.load_refs()
    for workload in corpus.WORKLOADS:
        for item in corpus.round_items(workload):
            if item.command != "simulate":
                assert refs[item.ref]["fingerprint"] == item.fingerprint(), item.ref


def test_seed_answers_pass_the_checker(tmp_path):
    from run import execute, import_cli

    cli = import_cli()
    for workload in corpus.WORKLOADS:
        requests = generate(workload, 11, tmp_path / workload)
        for req in sorted(requests, key=lambda r: r.rank)[:3]:
            code, stdout, stderr, _ = execute(cli, req)
            assert check(req, code, stdout, stderr) == "ok", req.argv
