"""Directed graphs, paths, and small-instance cycle utilities.

Nodes are dense integer ids ``0 .. node_count - 1``. Adjacency is stored
as sorted tuples, so every traversal in this library visits successors in
ascending id order; combined with explicit tie-breaking in the solvers
this makes all outputs reproducible.

The cycle search :func:`longest_simple_cycle` is an exact backtracking
search and refuses graphs above a configurable node limit, since it is
exponential by necessity.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index, lt
from typing import Container, Iterable, Sequence

from .errors import (
    InstanceTooLargeError,
    InvalidInputError,
    NoCycleError,
    NotStronglyConnectedError,
)

#: Default node limit for the exact cycle search.
DESK_SCALE_NODE_LIMIT = 15


@dataclass(frozen=True)
class Graph:
    """Immutable directed graph over dense integer node ids.

    ``adjacency[v]`` is the sorted tuple of successors of ``v``.
    Self-loops are permitted, parallel edges are collapsed.
    """

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise InvalidInputError("graph needs at least one node")
        if len(self.adjacency) != self.node_count:
            raise InvalidInputError("adjacency length disagrees with node_count")
        n = self.node_count
        for v, succs in enumerate(self.adjacency):
            # Strictly increasing targets are sorted and distinct, so only
            # the first and the last can leave the node range.
            if not all(map(lt, succs, succs[1:])):
                raise InvalidInputError(
                    f"adjacency of node {v} must be sorted and deduplicated"
                )
            if succs and not (0 <= succs[0] and succs[-1] < n):
                w = next(w for w in succs if not 0 <= w < n)
                raise InvalidInputError(f"edge ({v}, {w}) endpoint out of range")
        if self.labels is not None and len(self.labels) != self.node_count:
            raise InvalidInputError("labels length disagrees with node_count")

    @staticmethod
    def from_edges(
        node_count: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ) -> "Graph":
        """Build a graph from an edge list (deduplicated, sorted)."""
        succs: list[list[int]] = [[] for _ in range(node_count)]
        for u, v in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise InvalidInputError(f"edge ({u}, {v}) endpoint out of range")
            succs[u].append(v)
        return Graph.from_successors(succs, labels)

    @staticmethod
    def from_successors(
        successors: Sequence[Sequence[int]], labels: Sequence[str] | None = None
    ) -> "Graph":
        """Build a graph from per-node successor lists (deduplicated, sorted).

        Targets are not range-checked here; the constructor refuses any
        outside ``0 .. len(successors) - 1``.
        """
        return Graph(
            len(successors),
            tuple([tuple(sorted({*s})) if len(s) > 1 else tuple(s) for s in successors]),
            tuple(labels) if labels is not None else None,
        )

    def successors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> Iterable[tuple[int, int]]:
        for u, succs in enumerate(self.adjacency):
            for v in succs:
                yield u, v

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adjacency)

    def label(self, v: int) -> str:
        if self.labels is not None:
            return self.labels[v]
        return str(v)


@dataclass(frozen=True)
class Path:
    """A finite path; ``length`` counts edges, so a single node has length 0."""

    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise InvalidInputError("a path needs at least one node")

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    def __getitem__(self, t: int) -> int:
        return self.nodes[t]


@dataclass(frozen=True)
class Lasso:
    """An ultimately periodic infinite path: ``prefix`` then ``cycle`` forever.

    ``prefix`` may be empty; ``cycle`` must contain at least one node and is
    traversed as a closed walk (last node connects back to the first).
    """

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise InvalidInputError("a lasso needs a non-empty cycle")

    def unroll(self, steps: int) -> tuple[int, ...]:
        """First ``steps + 1`` nodes of the infinite path."""
        need = steps + 1
        nodes = list(self.prefix[:need])
        while len(nodes) < need:
            nodes.extend(self.cycle[: need - len(nodes)])
        return tuple(nodes)


def _check_int(name: str, value: int) -> None:
    """Refuse a boolean or non-integer ``value`` by ``name``; numpy integers pass."""
    try:
        index(value)
        integer = not isinstance(value, bool)
    except TypeError:
        integer = False
    if not integer:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")


def _check_start(g: Graph, v0: int) -> None:
    """Refuse a start node outside ``g``, with the message every solver gives."""
    _check_int("start node", v0)
    if not 0 <= v0 < g.node_count:
        raise InvalidInputError(f"start node {v0} out of range")


def validate_path(g: Graph, nodes: Sequence[int]) -> Path:
    """Check a node sequence against the graph and wrap it as a :class:`Path`.

    Raises :class:`InvalidInputError` for an empty sequence, a node outside
    ``g``, or a step that is not an edge, the first such step named as
    ``step {i}: ({u}, {v}) is not an edge``.
    """
    for v in nodes:
        if not 0 <= v < g.node_count:
            raise InvalidInputError(f"node {v} out of range")
    for i in range(len(nodes) - 1):
        if not g.has_edge(nodes[i], nodes[i + 1]):
            raise InvalidInputError(
                f"step {i}: ({nodes[i]}, {nodes[i + 1]}) is not an edge"
            )
    return Path(tuple(nodes))


def validate_lasso(g: Graph, prefix: Sequence[int], cycle: Sequence[int]) -> Lasso:
    """Check prefix and cycle connectivity and wrap them as a :class:`Lasso`.

    The walk checked ends with the step that closes the cycle.
    """
    if not cycle:
        raise InvalidInputError("a lasso needs a non-empty cycle")
    validate_path(g, [*prefix, *cycle, cycle[0]])
    return Lasso(tuple(prefix), tuple(cycle))


def scc_decompose(g: Graph, root: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Maximal strongly connected components of ``g``, or of what ``root`` reaches.

    Without ``root`` the components partition every node; with it, they
    are exactly the components reachable from ``root``, found by one DFS
    started there; a ``root`` outside ``g`` raises
    :class:`InvalidInputError`. Components are sorted internally and
    listed in ascending order of their smallest node.

    Tarjan's algorithm, linear in nodes plus edges, without recursion: a
    frame of the explicit DFS holds a node, the iterator over its
    successors (so the frame resumes where it left off) and the height of
    Tarjan's stack below the node. ``number[v]`` is ``v``'s DFS index while
    ``v`` is on Tarjan's stack and ``node_count`` once its component is
    complete, so one comparison updates a low link.
    """
    if root is not None:
        _check_start(g, root)
    adjacency = g.adjacency
    n = g.node_count
    number = [-1] * n
    low = [0] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for start in range(n) if root is None else (root,):
        if number[start] != -1:
            continue
        number[start] = low[start] = counter
        counter += 1
        frames = [(start, iter(adjacency[start]), len(stack))]
        stack.append(start)
        while frames:
            v, succs, base = frames[-1]
            for w in succs:
                seen = number[w]
                if seen == -1:
                    number[w] = low[w] = counter
                    counter += 1
                    frames.append((w, iter(adjacency[w]), len(stack)))
                    stack.append(w)
                    break
                if seen < low[v]:
                    low[v] = seen
            else:
                frames.pop()
                if low[v] == number[v]:
                    comp = stack[base:]
                    del stack[base:]
                    for w in comp:
                        number[w] = n
                    comp.sort()
                    components.append(comp)
                elif low[v] < low[frames[-1][0]]:
                    # Not a component's first node, so not the DFS root.
                    low[frames[-1][0]] = low[v]

    components.sort(key=lambda c: c[0])
    return tuple(map(tuple, components))


def _bfs(
    g: Graph, src: int, stop: Container[int], within: Container[int] | None = None
) -> tuple[dict[int, int], int | None]:
    """Breadth-first search from ``src``, inside ``within`` if given.

    Expands successors in ascending order and ends as soon as it discovers
    a node of ``stop``, a nearest one (``src`` itself when it is in
    ``stop``). The queue is first in, first out, so the first node of
    ``stop`` discovered is the first one a search that stopped on popping
    would reach, by the same tree path. Returns the parent map
    (``parent[src] == src``), which then holds the nodes discovered so
    far, and that node, or ``None``.
    """
    parent = {src: src}
    if src in stop:
        return parent, src
    adjacency = g.adjacency
    queue = [src]
    for v in queue:
        for w in adjacency[v]:
            if w not in parent and (within is None or w in within):
                parent[w] = v
                if w in stop:
                    return parent, w
                queue.append(w)
    return parent, None


def _path_to(parent: dict[int, int], node: int) -> list[int]:
    """The BFS tree path from the search's source to ``node``."""
    nodes = [node]
    while parent[node] != node:
        node = parent[node]
        nodes.append(node)
    return nodes[::-1]


def shortest_path(g: Graph, src: int, dst: int) -> Path:
    """BFS shortest path from ``src`` to ``dst``.

    Deterministic: the BFS expands successors in ascending order, so among
    equally short paths the lexicographically smallest one is returned.
    """
    parent, hit = _bfs(g, src, (dst,))
    if hit is None:
        raise NoCycleError(f"no path from {src} to {dst}")
    return Path(tuple(_path_to(parent, dst)))


def covering_cycle(g: Graph, scc: Iterable[int]) -> Path:
    """Closed walk through every node of a strongly connected component.

    Starts at the smallest node, then repeatedly takes a BFS shortest path
    inside the component to a nearest node not yet on the walk, and at last
    returns to the start. At most ``len(scc)`` legs of fewer than
    ``len(scc)`` steps each bound the length by ``len(scc) ** 2``. Raises
    :class:`NotStronglyConnectedError` if the node set is not strongly
    connected or bears no closed walk (an isolated node without self-loop).
    """
    inside = set(scc)
    if not inside:
        raise NotStronglyConnectedError("empty node set")
    start = min(inside)
    if len(inside) == 1:
        if g.has_edge(start, start):
            return Path((start, start))
        raise NotStronglyConnectedError(f"node {start} has no closed walk")
    walk, uncovered = [start], inside - {start}
    while True:
        targets = uncovered or (start,)
        parent, hit = _bfs(g, walk[-1], targets, inside)
        if hit is None:
            raise NotStronglyConnectedError(f"no path inside the set from {walk[-1]}")
        walk += _path_to(parent, hit)[1:]
        if not uncovered:
            return Path(tuple(walk))
        uncovered.remove(hit)


def longest_simple_cycle(g: Graph, max_nodes: int = DESK_SCALE_NODE_LIMIT) -> Path:
    """Exact search for a maximum-length simple cycle, as a closed path.

    Each cycle is enumerated once, rooted at its smallest node; among
    equally long cycles the first in lexicographic order wins. Raises
    :class:`NoCycleError` on acyclic graphs.
    """
    if g.node_count > max_nodes:
        raise InstanceTooLargeError(
            f"exact cycle search refuses {g.node_count} nodes (limit {max_nodes})"
        )
    n = g.node_count
    best: list[int] | None = None

    for root in range(n):
        if best is not None and len(best) == n:
            break
        # Simple paths through nodes >= root only, so each cycle is found
        # exactly once, rooted at its minimum node.
        visited = [False] * n
        visited[root] = True
        order = [root]

        def extend(v: int) -> None:
            nonlocal best
            for w in g.adjacency[v]:
                if w == root:
                    if best is None or len(order) > len(best):
                        best = list(order)
                elif w > root and not visited[w]:
                    visited[w] = True
                    order.append(w)
                    extend(w)
                    order.pop()
                    visited[w] = False

        extend(root)

    if best is None:
        raise NoCycleError("graph has no cycle")
    return Path(tuple(best) + (best[0],))
