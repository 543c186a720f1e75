"""Independent checker for CLI result documents.

Nothing here imports ``reward_routing``: witnesses are re-scored with the
few-line scorers below, and values are compared with the references that
``pin.py`` pinned for each pool item.

A request ends in one of three outcomes:

* ``ok``: the expected exit code, a strict JSON document, and every check
  passed;
* ``refused``: exit 3 with an ``error:`` line on stderr and nothing on
  stdout, the CLI's documented answer when a size guard binds, on an
  item whose pinned reference is a refusal too;
* ``wrong``: anything else (an unexpected exit code, a refusal of an item
  pinned as answered, a traceback, a non-strict or malformed document, a
  wrong value or witness).
"""

from __future__ import annotations

import json
import math
from typing import Sequence

from corpus import Node, Request

# Relative tolerance for values that are re-summed in another order.
REL_TOL = 1e-9
# A Monte Carlo mean must lie within this many standard errors.
SIM_SIGMAS = 5.0

EXIT_OK, EXIT_NO, EXIT_REFUSED = 0, 1, 3


class Wrong(Exception):
    """A check failed; the message says which."""


def gain(node: Node, age: int) -> float:
    """Expected reward collected at a node last visited ``age`` steps ago."""
    if node.gamma is None:
        return node.lam * sum(_profile(node, i) for i in range(age))
    if node.gamma == 1.0:
        return node.lam * age
    return node.lam * (1.0 - node.gamma**age) / (1.0 - node.gamma)


def _profile(node: Node, i: int) -> float:
    if i < len(node.table):
        return node.table[i]
    if node.tail == "zero":
        return 0.0
    return node.table[-1] * node.ratio ** (i - len(node.table) + 1)


def path_total(nodes: Sequence[Node], path: Sequence[int]) -> float:
    """Total expected reward of a finite walk that starts with all ages fresh."""
    last: dict[int, int] = {}
    total = 0.0
    for t, v in enumerate(path):
        total += gain(nodes[v], t - last[v] if v in last else t + 1)
        last[v] = t
    return total


def lasso_average(nodes: Sequence[Node], cycle: Sequence[int]) -> float:
    """Steady-state reward per step of repeating ``cycle`` forever."""
    size = len(cycle)
    last: dict[int, int] = {}
    total = 0.0
    for t in range(2 * size):
        v = cycle[t % size]
        if t >= size:
            total += gain(nodes[v], t - last[v])
        last[v] = t
    return total / size


def _close(a: float, b: float, what: str) -> None:
    if not abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b)):
        raise Wrong(f"{what}: {a!r} != {b!r}")


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str) -> dict:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise Wrong(f"stdout is not strict JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise Wrong("stdout is not a JSON object")
    return doc


def _number(doc: dict, key: str) -> float:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise Wrong(f"{key} is not a finite number: {value!r}")
    return float(value)


class _Graph:
    """The request's graph, as the benchmark wrote it, keyed by file ids."""

    def __init__(self, req: Request) -> None:
        self.index = {node_id: i for i, node_id in enumerate(req.ids)}
        self.nodes = req.item.instance.nodes
        self.edges = set(req.item.instance.edges)
        self.start = req.item.start

    def walk(self, ids: object, what: str) -> list[int]:
        if not isinstance(ids, list) or not all(isinstance(x, str) for x in ids):
            raise Wrong(f"{what} is not a list of node ids")
        try:
            walk = [self.index[x] for x in ids]
        except KeyError as exc:
            raise Wrong(f"{what} names unknown node {exc}") from None
        for u, v in zip(walk, walk[1:]):
            if (u, v) not in self.edges:
                raise Wrong(f"{what} steps along a non-edge")
        return walk

    def lasso(self, doc: object, what: str) -> list[int]:
        """Validate a ``{prefix, cycle}`` witness from the start node; return the cycle."""
        if not isinstance(doc, dict):
            raise Wrong(f"{what} is not an object")
        prefix = self.walk(doc.get("prefix"), f"{what}.prefix")
        cycle = self.walk(doc.get("cycle"), f"{what}.cycle")
        if not cycle:
            raise Wrong(f"{what}.cycle is empty")
        whole = prefix + cycle
        if whole[0] != self.start:
            raise Wrong(f"{what} does not leave from the start node")
        if prefix and (prefix[-1], cycle[0]) not in self.edges:
            raise Wrong(f"{what}.prefix does not lead into the cycle")
        if (cycle[-1], cycle[0]) not in self.edges:
            raise Wrong(f"{what}.cycle does not close")
        return cycle


def _check_bracket(graph: _Graph, doc: dict, epsilon: float, ref: dict) -> None:
    bracket = doc.get("bracket")
    if not isinstance(bracket, dict):
        raise Wrong("missing bracket")
    under, over = _number(bracket, "r_under"), _number(bracket, "r_over")
    slack = REL_TOL * max(1.0, abs(over))
    if under > over + slack or over - under > epsilon + slack:
        raise Wrong(f"bracket [{under}, {over}] breaks its contract at epsilon {epsilon}")
    _close(under, lasso_average(graph.nodes, graph.lasso(bracket.get("witness_under"), "witness_under")),
           "r_under vs re-scored witness_under")
    graph.lasso(bracket.get("witness_over"), "witness_over")
    if ref.get("exit") == EXIT_OK:
        low, high = ref["r_under"], ref["r_over"]
        if under > high + slack or over < low - slack:
            raise Wrong(f"bracket [{under}, {over}] misses pinned [{low}, {high}]")


def _check_exact(graph: _Graph, doc: dict, ref: dict) -> None:
    value = _number(doc, "value")
    if ref:
        _close(value, ref["value"], "value vs pinned")
    _close(value, lasso_average(graph.nodes, graph.lasso(doc.get("witness"), "witness")),
           "value vs re-scored witness")


def _check_finite(graph: _Graph, doc: dict, horizon: int, ref: dict) -> None:
    value = _number(doc, "value")
    if ref:
        _close(value, ref["value"], "value vs pinned")
    witness = doc.get("witness")
    path = graph.walk(witness.get("path") if isinstance(witness, dict) else None, "witness.path")
    if len(path) != horizon + 1 or path[0] != graph.start:
        raise Wrong("witness path has the wrong length or start")
    _close(value, path_total(graph.nodes, path), "value vs re-scored witness")


def _check_simulate(req: Request, graph: _Graph, doc: dict) -> None:
    route = req.item.options["route"]
    if isinstance(route[0], list):
        prefix, cycle = route
        steps = req.item.options["horizon"] + 1
        walk = (prefix + cycle * steps)[:steps]
        expected = path_total(graph.nodes, walk) / steps
    else:
        expected = path_total(graph.nodes, route)
    mean, stderr = _number(doc, "mean"), _number(doc, "stderr")
    if abs(mean - expected) > SIM_SIGMAS * stderr + REL_TOL * max(1.0, abs(expected)):
        raise Wrong(f"simulated mean {mean} +- {stderr} misses closed form {expected}")


def check(req: Request, code: object, stdout: str, stderr: str) -> str:
    """Classify one finished request; raises :class:`Wrong` on a bad answer.

    ``code`` is the exit code ``cli.main`` returned, or the exception it
    raised. Without a pinned reference (while pinning) only the contract
    and the witnesses are checked.
    """
    if isinstance(code, BaseException):
        raise Wrong(f"raised {type(code).__name__}: {code}")
    ref = req.expect.get("ref") or {}
    if code == EXIT_REFUSED:
        if stdout.strip() or not stderr.startswith("error:") or "Traceback" in stderr:
            raise Wrong("exit 3 without a clean refusal")
        if ref and ref.get("exit") != EXIT_REFUSED:
            raise Wrong(f"refused an item pinned with exit {ref.get('exit')!r}: {stderr.strip()[-200:]}")
        return "refused"
    command = req.item.command
    expected_code = EXIT_OK
    if command == "decide":
        expected_code = EXIT_OK if req.expect["decision"] == "yes" else EXIT_NO
    if code != expected_code:
        raise Wrong(f"exit code {code!r}, expected {expected_code}: {stderr.strip()[-200:]}")
    doc = strict_json(stdout)
    if doc.get("command") != command:
        raise Wrong(f"document echoes command {doc.get('command')!r}")
    graph = _Graph(req)
    opts = req.item.options
    if command == "simulate":
        _check_simulate(req, graph, doc)
    elif command == "finite":
        _check_finite(graph, doc, opts["horizon"], ref)
    elif command in ("bounded", "nondiscounted") or "bracket" not in doc:
        # infinite answers gamma = 1 everywhere exactly, without a bracket.
        if command == "infinite" and any(node.gamma != 1.0 for node in graph.nodes):
            raise Wrong("infinite answered without a bracket")
        _check_exact(graph, doc, ref)
    else:
        _check_bracket(graph, doc, opts["epsilon"], ref)
        if command == "decide" and doc.get("decision") != req.expect["decision"]:
            raise Wrong(f"decision {doc.get('decision')!r}, expected {req.expect['decision']!r}")
    return "ok"
