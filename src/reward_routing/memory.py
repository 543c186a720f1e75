"""Finite-memory strategies and bounded-memory optimal synthesis.

A strategy with a finite memory of size B corresponds exactly to a
memoryless strategy in the product of the graph with B memory slots, where
the memory transition is chosen freely alongside the node transition.
Memoryless product strategies induce lasso-shaped paths, so an optimal
B-memory strategy can be found by exhaustive search at desk scale.

The search walks the product graph depth first and uses one symmetry: the
slots of a base node that the walk has not visited are interchangeable, so
only the lowest of them is explored. The skipped branches would only
repeat lassos, with the same base nodes and value, that an earlier branch
already found. The best lasso is replaced only on strict improvement, so
ties go to the first maximal lasso in the search order, and the answer is
the one a full enumeration in that order gives. With the lowest slot
always taken, a node's ``k``-th visit holds slot ``k``, so the search runs
on base-node visit counts and builds the strategy only for the best walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .errors import InstanceTooLargeError, InvalidInputError, NoCycleError
from .graph import Graph, Lasso, Path, _check_int, _check_start, validate_lasso
from .rewards import RewardSpec, RewardValue, _check_rescore, average_reward

#: A node of the product graph: ``(base node, memory slot)``.
ProductNode = tuple[int, int]


@dataclass(frozen=True)
class MemoryStructure:
    """Finite memory: slots ``1 .. size``, an initial slot, and an update map.

    ``update[(slot, node)]`` is the slot after observing that ``node`` was
    departed; it must be total over slots and nodes.
    """

    size: int
    initial: int
    update: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InvalidInputError("memory needs at least one slot")
        if not 1 <= self.initial <= self.size:
            raise InvalidInputError("initial slot out of range")
        for (slot, _node), target in self.update.items():
            if not (1 <= slot <= self.size and 1 <= target <= self.size):
                raise InvalidInputError("memory update leaves the slot range")

    def next_slot(self, slot: int, node: int) -> int:
        try:
            return self.update[(slot, node)]
        except KeyError:
            raise InvalidInputError(
                f"memory update undefined for slot {slot} after node {node}"
            ) from None


@dataclass(frozen=True)
class FiniteStrategy:
    """A choice map ``(node, slot) -> next node`` driven by a memory structure."""

    memory: MemoryStructure
    choice: Mapping[tuple[int, int], int]
    start: int

    def next_node(self, node: int, slot: int) -> int:
        try:
            return self.choice[(node, slot)]
        except KeyError:
            raise InvalidInputError(
                f"no choice for node {node} in memory slot {slot}"
            ) from None


def _validate_choices(g: Graph, strategy: FiniteStrategy) -> None:
    for (node, _slot), target in strategy.choice.items():
        if not g.has_edge(node, target):
            raise InvalidInputError(
                f"strategy chooses ({node}, {target}) which is not an edge"
            )


def outcome(g: Graph, strategy: FiniteStrategy, steps: int) -> Path:
    """The first ``steps`` edges of the unique path the strategy generates.

    The memory slot is advanced with the node being departed, then the
    choice map picks the successor. Choices are validated against the edge
    set up front.
    """
    _validate_choices(g, strategy)
    node = strategy.start
    slot = strategy.memory.initial
    nodes = [node]
    for _ in range(steps):
        target = strategy.next_node(node, slot)
        slot = strategy.memory.next_slot(slot, node)
        node = target
        nodes.append(node)
    return Path(tuple(nodes))


@dataclass(frozen=True)
class BoundedMemorySolution:
    value: RewardValue
    strategy: FiniteStrategy
    witness: Lasso


def _canonical_cycle(nodes: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive period of a cyclic node sequence, smallest rotation first."""
    n = len(nodes)
    for period in range(1, n + 1):
        if n % period == 0 and nodes == nodes[period:] + nodes[:period]:
            nodes = nodes[:period]
            break
    return min(
        tuple(nodes[i:] + nodes[:i]) for i in range(len(nodes))
    )


def solve_bounded_memory(
    g: Graph,
    spec: RewardSpec,
    v0: int,
    memory_size: int,
    *,
    max_nodes: int = 4,
    max_memory: int = 3,
) -> BoundedMemorySolution:
    """Best limit-average reward over strategies with bounded memory.

    A depth-first search over memoryless strategies of the product graph,
    restricted to product nodes reachable under the strategy itself. It
    extends one walk from ``(v0, 1)``: at each product node it tries, for
    each base successor ``w`` in adjacency order, every slot of ``w``
    already on the walk (which closes a lasso, scored exactly) and only the
    lowest slot of ``w`` not on it (which extends the walk). The other free
    slots of ``w`` are skipped: swapping two of them is an automorphism of
    the product graph that fixes the walk, so their subtrees repeat, node
    for node in the base graph, lassos the lowest slot's subtree has
    already scored.

    Ties keep the first lasso found: the best changes only on strict
    improvement, so the result is the first maximal lasso of the full
    enumeration in the same order. The search is exponential, so instances
    are guarded to stay tiny. Choices at unreachable product nodes are fixed
    to the smallest successor. Walks that run into a dead end are skipped;
    raises :class:`NoCycleError` when no strategy closes a lasso, and
    :class:`SolverContractError` when the search's value misses the exact
    replay of its witness, which is the value returned.
    """
    if g.node_count > max_nodes:
        raise InstanceTooLargeError(
            f"bounded-memory search is limited to {max_nodes} nodes and the "
            f"graph has {g.node_count}; pass max_nodes= to raise the limit"
        )
    _check_int("memory size", memory_size)
    if memory_size > max_memory:
        raise InstanceTooLargeError(
            f"bounded-memory search is limited to memory {max_memory} and "
            f"{memory_size} was asked for; pass max_memory= to raise the limit"
        )
    if spec.node_count != g.node_count:
        raise InvalidInputError("spec size disagrees with the graph")
    _check_start(g, v0)
    if memory_size < 1:
        raise InvalidInputError("memory size must be at least 1")
    walk = [v0]
    # positions[v]: where v stands on the walk; its k-th visit holds slot k.
    positions: list[list[int]] = [[] for _ in range(g.node_count)]
    positions[v0].append(0)
    cycle_values: dict[tuple[int, ...], float] = {}
    best: tuple[float, list[int], int] | None = None

    def score(split: int) -> float:
        # Keyed by the raw cycle and by its canonical form; the value is
        # always that of the canonical form, so rotations score alike.
        cycle = tuple(walk[split:])
        value = cycle_values.get(cycle)
        if value is None:
            key = _canonical_cycle(cycle)
            value = cycle_values.get(key)
            if value is None:
                value = average_reward(spec, Lasso((), key)).value
                cycle_values[key] = value
            cycle_values[cycle] = value
        return value

    def explore() -> None:
        nonlocal best
        for w in g.adjacency[walk[-1]]:
            seen = positions[w]
            for split in seen:
                value = score(split)
                if best is None or value > best[0]:
                    best = (value, list(walk), split)
            if len(seen) < memory_size:
                seen.append(len(walk))
                walk.append(w)
                explore()
                walk.pop()
                seen.pop()

    explore()
    if best is None:
        raise NoCycleError(f"no infinite path starts at node {v0}")
    value, best_walk, split = best
    witness = validate_lasso(g, best_walk[:split], best_walk[split:])
    exact = average_reward(spec, witness)
    _check_rescore(value, exact.value)

    # Position i holds its visit index as slot and moves to position i + 1,
    # the last one back to the split.
    slot_of = [best_walk[: i + 1].count(v) for i, v in enumerate(best_walk)]
    after = [*range(1, len(best_walk)), split]
    moves = {(v, slot_of[i]): after[i] for i, v in enumerate(best_walk)}
    # Fill the unreachable product nodes with the smallest successor and
    # package the choices as an explicit memory structure.
    update: dict[tuple[int, int], int] = {}
    tau: dict[tuple[int, int], int] = {}
    for v, slot in itertools.product(range(g.node_count), range(1, memory_size + 1)):
        j = moves.get((v, slot))
        if j is not None:
            tau[(v, slot)] = best_walk[j]
            update[(slot, v)] = slot_of[j]
        else:
            update[(slot, v)] = 1
            if g.adjacency[v]:
                tau[(v, slot)] = g.adjacency[v][0]
    strategy = FiniteStrategy(
        MemoryStructure(memory_size, 1, update), tau, v0
    )
    return BoundedMemorySolution(exact, strategy, witness)
