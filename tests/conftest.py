from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from reward_routing import Graph, Lasso, RewardSpec, validate_lasso

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def two_cycles_graph() -> Graph:
    """Four nodes a..d: triangle a-b-c and 2-loop a-d sharing node a."""
    return Graph.from_edges(
        4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)], labels="abcd"
    )


def edge_arrays(edges) -> tuple[np.ndarray, np.ndarray]:
    """Edges as ``intp`` source and target arrays, sorted by source, then target."""
    pairs = np.array(sorted(edges), dtype=np.intp).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def ring_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(
    rng: random.Random,
    node_count: int,
    min_out: int = 1,
    max_out: int | None = None,
) -> Graph:
    """Random digraph where every node keeps at least min_out successors."""
    max_out = max_out if max_out is not None else node_count
    edges = []
    for v in range(node_count):
        degree = rng.randint(min_out, max_out)
        for w in rng.sample(range(node_count), degree):
            edges.append((v, w))
    return Graph.from_edges(node_count, edges)


def random_lasso(rng: random.Random, g: Graph) -> Lasso | None:
    """A random walk of 1-6 steps, then a cycle closed at its last node.

    The cycle ends at the first return to its head, so other nodes may
    repeat in it; None when the walk does not close within 12 steps.
    """
    start = rng.randrange(g.node_count)
    nodes = [start]
    for _ in range(rng.randint(1, 6)):
        nodes.append(rng.choice(g.successors(nodes[-1])))
    head = nodes[-1]
    cycle = [head]
    while True:
        nxt = rng.choice(g.successors(cycle[-1]))
        if nxt == head:
            break
        cycle.append(nxt)
        if len(cycle) > 12:
            return None
    return validate_lasso(g, nodes[:-1], cycle)


def spell(g: Graph, nodes) -> str:
    return "".join(g.label(v) for v in nodes)


def parse_route(g: Graph, text: str) -> list[int]:
    assert g.labels is not None
    return [g.labels.index(ch) for ch in text]


@pytest.fixture
def two_cycles() -> Graph:
    return two_cycles_graph()


@pytest.fixture
def uniform_spec():
    def make(node_count: int, lam: float, gamma: float) -> RewardSpec:
        return RewardSpec.uniform(node_count, lam, gamma)

    return make
