"""Seeded corpus of graph files and CLI requests for the benchmark workloads.

Every workload runs one *round* of requests over and over. The round is a
fixed list of pool items: a graph (canonical node ids ``v0 .. v{n-1}``)
plus one CLI command. The pool never depends on the workload seed. The
seed relabels node ids, shuffles the order of nodes and edges in every
file, shuffles the order of requests in the round and picks Monte Carlo
seeds. Optimal values and state counts do not change under relabeling, so
the references pinned once per pool item (``refs.json``, written by
``pin.py``) hold for every seed, and every seed asks for the same work.

Rounds are shaped so that the latency quantiles fall inside a block of
equal-cost requests: about 35% cheap requests, a 30% block of equal-cost
requests around the median, three mid-cost requests and a 20% block of
the most expensive requests. A quantile that sat between two unequal
requests would jump from run to run.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("infinite-bracket", "finite-horizon", "large-graph", "oracle-check")

REFS_FILE = Path(__file__).resolve().parent / "refs.json"


@dataclass(frozen=True)
class Node:
    """Reward parameters of one node: ``gamma`` or an explicit decay profile."""

    lam: float
    gamma: float | None = None
    table: tuple[float, ...] = ()
    tail: str | None = None
    ratio: float | None = None


@dataclass(frozen=True)
class Instance:
    """A graph over canonical ids ``v0 .. v{n-1}``."""

    nodes: tuple[Node, ...]
    edges: tuple[tuple[int, int], ...]

    def document(self, ids: list[str], rng: random.Random | None = None) -> dict:
        """The graph file for these ids; ``rng`` shuffles nodes and edges."""
        order = list(range(len(self.nodes)))
        if rng is not None:
            rng.shuffle(order)
        nodes = []
        for i in order:
            node = self.nodes[i]
            entry: dict = {"id": ids[i], "lambda": node.lam}
            if node.gamma is not None:
                entry["gamma"] = node.gamma
            else:
                profile: dict = {"table": list(node.table), "tail": node.tail}
                if node.ratio is not None:
                    profile["ratio"] = node.ratio
                entry["decay_profile"] = profile
            nodes.append(entry)
        edges = [[ids[u], ids[v]] for u, v in self.edges]
        if rng is not None:
            rng.shuffle(edges)
        return {"nodes": nodes, "edges": edges}


@dataclass(frozen=True)
class Item:
    """One request of a round.

    ``ref`` names the pinned reference; items that ask the same question
    of the same graph share it. ``route`` holds node indices for
    ``simulate`` (a path, or a ``(prefix, cycle)`` pair).
    """

    ref: str
    instance: Instance
    command: str
    start: int = 0
    options: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Hash of everything that decides the pinned answer.

        The command is left out: ``decide`` shares the bracket pinned for
        ``infinite``, and ``nondiscounted`` the value pinned for ``infinite``
        at gamma 1. The decide side only moves the threshold.
        """
        options = {k: v for k, v in self.options.items() if k != "side"}
        body = json.dumps(
            [self.instance.document(canonical_ids(self.instance)), self.start, options],
            sort_keys=True,
        )
        return hashlib.sha256(body.encode()).hexdigest()[:16]


@dataclass
class Request:
    """A generated request: the argv for ``cli.main`` and what to check."""

    item: Item
    ids: list[str]
    argv: list[str]
    expect: dict
    rank: int


def canonical_ids(instance: Instance) -> list[str]:
    return [f"v{i}" for i in range(len(instance.nodes))]


def adjacency(n: int, edges) -> tuple[list[list[int]], list[list[int]]]:
    """Forward and backward adjacency lists."""
    fwd: list[list[int]] = [[] for _ in range(n)]
    bwd: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        fwd[u].append(v)
        bwd[v].append(u)
    return fwd, bwd


def reach(adj: list[list[int]], root: int) -> set[int]:
    """Nodes reachable from ``root``, itself included."""
    seen, stack = {root}, [root]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def strongly_connected(n: int, edges: list[tuple[int, int]]) -> bool:
    return all(len(reach(adj, 0)) == n for adj in adjacency(n, edges))


def dense_digraph(n: int, seed: int, drop: float) -> tuple[list[tuple[int, int]], list[float]]:
    """Complete digraph without self-loops, each edge dropped with ``drop``."""
    rng = random.Random(seed)
    while True:
        edges = [
            (u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() >= drop
        ]
        if strongly_connected(n, edges):
            break
    return edges, [round(0.5 + rng.random(), 2) for _ in range(n)]


def decaying(lams: list[float], gamma: float) -> tuple[Node, ...]:
    return tuple(Node(lam, gamma=gamma) for lam in lams)


def profiled(lams: list[float], seed: int) -> tuple[Node, ...]:
    """Non-geometric decay profiles: a two-step table, then a geometric tail."""
    rng = random.Random(seed)
    nodes = []
    for lam in lams:
        first = round(0.6 + 0.3 * rng.random(), 2)
        second = round(first * (0.5 + 0.3 * rng.random()), 3)
        ratio = round(0.4 + 0.3 * rng.random(), 2)
        nodes.append(Node(lam, table=(1.0, first, second), tail="geometric", ratio=ratio))
    return tuple(nodes)


# --- infinite-bracket -------------------------------------------------------

def _bracket_instance(n: int, seed: int, drop: float, gamma: float) -> Instance:
    edges, lams = dense_digraph(n, 1000 * n + seed, drop)
    return Instance(decaying(lams, gamma), tuple(edges))


# (n, graph seed, edge drop share, gamma, epsilon, command, decide side).
# The comment gives the largest cycle-bearing component of the truncated
# visit-age graph, which sets Karp's table size.
_BRACKET_ROUND = [
    (4, 2, 0.3, 0.3, 1e-2, "infinite", None),   # 104
    (4, 2, 0.3, 0.4, 1e-2, "infinite", None),   # 166
    (4, 2, 0.3, 0.3, 1e-3, "infinite", None),   # 240
    (4, 1, 0.15, 0.3, 1e-2, "infinite", None),  # 328
    (4, 5, 0.3, 0.3, 1e-3, "decide", "yes"),    # 382
    (4, 0, 0.0, 0.3, 1e-2, "infinite", None),   # 468
    (4, 1, 0.15, 0.4, 1e-2, "infinite", None),  # 526
    (4, 0, 0.0, 0.4, 1e-2, "infinite", None),   # 756, median block
    (4, 3, 0.0, 0.4, 1e-2, "infinite", None),   # 756
    (4, 1, 0.15, 0.3, 1e-3, "infinite", None),  # 774
    (4, 4, 0.15, 0.3, 1e-3, "decide", "yes"),   # 774
    (4, 0, 0.0, 0.4, 1e-2, "decide", "no"),     # 756
    (4, 3, 0.0, 0.4, 1e-2, "decide", "no"),     # 756
    (5, 1, 0.15, 0.3, 1e-2, "infinite", None),  # 929
    (6, 4, 0.15, 0.3, 1e-2, "infinite", None),  # 8016: above Karp's cell cap
    (4, 0, 0.0, 0.3, 1e-3, "infinite", None),   # 1116
    (4, 1, 0.15, 0.4, 1e-3, "infinite", None),  # 1420, top block
    (4, 1, 0.15, 0.5, 1e-2, "infinite", None),  # 1420
    (4, 4, 0.15, 0.4, 1e-3, "infinite", None),  # 1420
    (4, 4, 0.15, 0.5, 1e-2, "infinite", None),  # 1420
]


def _bracket_round() -> list[Item]:
    items = []
    for n, seed, drop, gamma, eps, command, side in _BRACKET_ROUND:
        ref = f"ib-n{n}-s{seed}-g{gamma}-e{eps:g}"
        options: dict = {"epsilon": eps}
        if side is not None:
            options["side"] = side
        items.append(Item(ref, _bracket_instance(n, seed, drop, gamma), command, 0, options))
    return items


# --- finite-horizon ---------------------------------------------------------

_FINITE_GRAPHS = {
    # name: (nodes, graph seed, edge drop share)
    "K5": (5, 82, 0.0),
    "K6": (6, 83, 0.0),
    "D7a": (7, 84, 0.5),
    "D7b": (7, 84, 0.6),
    "D8": (8, 85, 0.6),
}

# (graph, horizon, decay profiles?); comments give the expanded states.
_FINITE_ROUND = [
    ("K5", 6, False), ("K5", 6, True),       # 3.6k
    ("K5", 7, False), ("K5", 7, True),       # 8.8k
    ("K6", 6, False), ("K6", 6, True),       # 13k
    ("D8", 8, False),                        # 4.3k
    ("D7a", 9, False), ("D7a", 9, True),     # 19.7k, median block
    ("K5", 8, False), ("K5", 8, True),       # 18.6k
    ("D7b", 11, False), ("D7b", 11, True),   # 16.5k
    ("D8", 10, False), ("D8", 10, True),     # 24k
    ("D7b", 12, False),                      # 35k
    ("K6", 7, False), ("K6", 7, True),       # 41k, top block
    ("K6", 7, False), ("K6", 7, True),
]

_FINITE_GAMMA = 0.6


def _finite_round() -> list[Item]:
    items = []
    for name, horizon, decay in _FINITE_ROUND:
        n, seed, drop = _FINITE_GRAPHS[name]
        edges, lams = dense_digraph(n, seed, drop)
        nodes = profiled(lams, seed) if decay else decaying(lams, _FINITE_GAMMA)
        ref = f"fh-{name}-h{horizon}-{'decay' if decay else 'gamma'}"
        options = {"horizon": horizon, "decay": decay}
        items.append(Item(ref, Instance(nodes, tuple(edges)), "finite", 0, options))
    return items


# --- large-graph ------------------------------------------------------------

def ring_pair(n: int, seed: int) -> Instance:
    """Two rings with chords, joined one way, plus three dead-end nodes.

    Ring A holds the first half of the nodes and ring B the rest; a few
    edges lead from A to B and never back, so the start node (in A) sees
    two cycle-bearing components and must pick the heavier one. Nothing
    decays (gamma = 1), so only the exact solvers run.
    """
    rng = random.Random(seed)
    tails = 3
    half = (n - tails) // 2
    rings = [range(0, half), range(half, n - tails)]
    edges = set()
    for ring in rings:
        size = len(ring)
        for k in range(size):
            edges.add((ring[k], ring[(k + 1) % size]))
        for _ in range(size // 2):
            edges.add((ring[int(rng.random() * size)], ring[int(rng.random() * size)]))
    for _ in range(5):
        edges.add((rings[0][int(rng.random() * half)], rings[1][int(rng.random() * len(rings[1]))]))
    for t in range(n - tails, n):
        edges.add((rings[1][int(rng.random() * len(rings[1]))], t))
    lams = [round(0.1 + 1.9 * rng.random(), 3) for _ in range(n)]
    return Instance(tuple(Node(lam, gamma=1.0) for lam in lams), tuple(sorted(edges)))


# (nodes, graph seed, command)
_LARGE_ROUND = [
    (560, 1, "nondiscounted"), (640, 2, "infinite"), (720, 3, "nondiscounted"),
    (800, 4, "infinite"), (880, 5, "nondiscounted"), (950, 6, "infinite"),
    (1000, 7, "nondiscounted"),
    (1150, 11, "nondiscounted"), (1150, 11, "infinite"),   # median block
    (1150, 12, "nondiscounted"), (1150, 12, "infinite"),
    (1150, 13, "nondiscounted"), (1150, 13, "infinite"),
    (1300, 21, "infinite"), (1400, 22, "nondiscounted"), (1500, 23, "infinite"),
    (1600, 31, "nondiscounted"), (1600, 31, "infinite"),   # top block
    (1600, 32, "nondiscounted"), (1600, 32, "infinite"),
]


def _large_round() -> list[Item]:
    # infinite needs an epsilon even where nothing decays and none is used.
    return [
        Item(f"lg-R{n}-s{seed}-{command}", ring_pair(n, seed), command, 0,
             {"epsilon": 1e-2} if command == "infinite" else {})
        for n, seed, command in _LARGE_ROUND
    ]


# --- oracle-check -----------------------------------------------------------

def _fixture(name: str) -> Instance:
    """A bundled fixture, read from the package under test."""
    path = Path(__file__).resolve().parent.parent / "src" / "reward_routing" / "fixtures" / name
    doc = json.loads(path.read_text(encoding="utf-8"))
    defaults = doc.get("defaults", {})
    index = {node["id"]: i for i, node in enumerate(doc["nodes"])}
    nodes = tuple(
        Node(node.get("lambda", defaults.get("lambda")),
             gamma=node.get("gamma", defaults.get("gamma")))
        for node in doc["nodes"]
    )
    return Instance(nodes, tuple((index[u], index[v]) for u, v in doc["edges"]))


def small_graph(seed: int) -> Instance:
    """A strongly connected 4-node digraph with per-node lambda and gamma."""
    edges, lams = dense_digraph(4, seed, 0.4)
    rng = random.Random(seed + 1)
    return Instance(
        tuple(Node(lam, gamma=round(0.3 + 0.5 * rng.random(), 2)) for lam in lams),
        tuple(edges),
    )


def _walk(instance: Instance, start: int, length: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    succ: dict[int, list[int]] = {}
    for u, v in instance.edges:
        succ.setdefault(u, []).append(v)
    walk = [start]
    for _ in range(length):
        options = sorted(succ[walk[-1]])
        walk.append(options[int(rng.random() * len(options))])
    return walk


def _oracle_round() -> list[Item]:
    f26 = ("F26", _fixture("two_cycles_gamma_0.26.json"))
    f50 = ("F50", _fixture("two_cycles_gamma_0.5.json"))
    s1, s2, s3 = (("S%d" % k, small_graph(9000 + k)) for k in (1, 2, 3))
    items = []

    def add(kind: str, graph: tuple[str, Instance], command: str, **options) -> None:
        items.append(Item(f"oc-{graph[0]}-{kind}", graph[1], command, 0, options))

    for graph, memory in ((f26, 1), (s1, 1), (f50, 2), (s2, 2)):
        add(f"m{memory}", graph, "bounded", memory=memory)
    for k, graph in enumerate((f26, s1, s3)):
        add("det", graph, "simulate", route=_walk(graph[1], 0, 12, k),
            trials=1, mode="deterministic")
    for k, graph in enumerate((f26, f50, s1, s2, s3, f26)):     # median block
        add(f"path{k}", graph, "simulate", route=_walk(graph[1], 0, 30, 10 + k),
            trials=2000, mode="poisson")
    # Memory 3 enumerates strategies exponentially; only sparse graphs stay cheap.
    for graph in (f26, f50, ("S5", small_graph(9005))):
        add("m3", graph, "bounded", memory=3)
    cycles = ((f26, [], [0, 1, 2]), (f50, [], [0, 3]), (s1, None, None), (s2, None, None))
    for k, (graph, prefix, cycle) in enumerate(cycles):           # top block
        if cycle is None:
            walk = _walk(graph[1], 0, 8, 20 + k)
            # The walk revisits a node within 5 steps of 4 nodes; cut there.
            first = next(i for i in range(len(walk)) if walk[i] in walk[i + 1:])
            last = walk.index(walk[first], first + 1)
            prefix, cycle = walk[:first], walk[first:last]
        add(f"cyc{k}", graph, "simulate", route=[prefix, cycle], trials=500,
            horizon=400, mode="poisson")
    return items


def round_items(workload: str) -> list[Item]:
    """The workload's round in canonical order (before the seeded shuffle)."""
    builders = {
        "infinite-bracket": _bracket_round,
        "finite-horizon": _finite_round,
        "large-graph": _large_round,
        "oracle-check": _oracle_round,
    }
    return builders[workload]()


def load_refs() -> dict:
    return json.loads(REFS_FILE.read_text(encoding="utf-8"))


class StaleReferenceError(Exception):
    """The pool changed since ``refs.json`` was pinned."""


def build_argv(item: Item, ids: list[str], path: str, ref: dict | None, rng: random.Random) -> tuple[list[str], dict]:
    """The CLI arguments for one request and the checker's expectations."""
    opts = item.options
    expect: dict = {"ref": ref}
    if item.command == "simulate":
        argv = ["simulate", "--graph", path, "--trials", str(opts["trials"]),
                "--seed", str(int(rng.random() * 2**31)), "--mode", opts["mode"]]
        route = opts["route"]
        if isinstance(route[0], list):
            prefix, cycle = route
            if prefix:
                argv += ["--prefix", ",".join(ids[v] for v in prefix)]
            argv += ["--cycle", ",".join(ids[v] for v in cycle), "--horizon", str(opts["horizon"])]
        else:
            argv += ["--path", ",".join(ids[v] for v in route)]
        return argv, expect
    argv = [item.command, "--graph", path, "--start", ids[item.start]]
    if item.command == "finite":
        argv += ["--horizon", str(opts["horizon"])]
        if opts["decay"]:
            argv.append("--decay")
    elif item.command == "bounded":
        argv += ["--memory", str(opts["memory"])]
    elif item.command in ("infinite", "decide"):
        argv += ["--epsilon", repr(opts["epsilon"])]
    if item.command == "decide":
        # Thresholds sit well outside the pinned bracket, so every solver
        # that honours the bracket contract gives the same answer.
        low, high = ref["r_under"], ref["r_over"]
        margin = max(0.1 * abs(high), 20 * opts["epsilon"])
        yes = opts["side"] == "yes"
        threshold = low - margin if yes else high + margin
        argv += ["--threshold", repr(threshold)]
        expect["decision"] = "yes" if yes else "no"
    return argv, expect


def generate(workload: str, seed: int, out_dir: Path, refs: dict) -> list[Request]:
    """Write the workload's graph files for ``seed`` and return its round."""
    rng = random.Random(f"{workload}:{seed}")
    items = list(enumerate(round_items(workload)))
    rng.shuffle(items)
    requests = []
    for slot, (rank, item) in enumerate(items):
        ref = refs.get(item.ref)
        if item.command != "simulate":
            if ref is None or ref.get("fingerprint") != item.fingerprint():
                raise StaleReferenceError(
                    f"{item.ref}: pool item differs from refs.json; rerun bench/pin.py"
                )
        n = len(item.instance.nodes)
        ids = [f"n{k}" for k in rng.sample(range(10 * n), n)]
        path = out_dir / f"{slot:03d}-{item.ref}.json"
        path.write_text(json.dumps(item.instance.document(ids, rng)), encoding="utf-8")
        argv, expect = build_argv(item, ids, str(path), ref, rng)
        requests.append(Request(item, ids, argv, expect, rank))
    return requests
