"""Independent brute-force oracles the tests check the library against.

Everything here is written from the definitions: explicit enumeration,
backward scans, and per-unit bookkeeping. Nothing calls back into the
library's closed forms or solvers. The exceptions are kept as references
for the loops they were replaced by: the one-tuple-per-state expansions of
the vectorized visit-age engine, and the bounded-memory enumeration that
restarts its walk for every branch and tries every memory slot; and the
graph-file parser, covering walk and float rounding that the one-pass
parser, the breadth-first search that stops on discovery and the
string-skipping rounding replaced; and the whole-graph decomposition plus
reachability search that picked the no-decay optimum before one rooted
Tarjan pass did; and Howard's policy iteration as it ran before it
skipped the switches that cannot fire, on the library's own policy
evaluation.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Any, Callable, Container, Iterable, Iterator, Sequence

import numpy as np

from reward_routing import (
    BoundedMemorySolution,
    DecayProfile,
    FiniteSolution,
    FiniteStrategy,
    Graph,
    InstanceTooLargeError,
    InvalidInputError,
    Lasso,
    MemoryStructure,
    NoCycleError,
    NoPathError,
    NotStronglyConnectedError,
    Path,
    RewardSpec,
    RewardValue,
    SolverContractError,
    StateBudgetExceededError,
    average_reward,
    validate_lasso,
)
from reward_routing.cli import (
    GraphFileError,
    GraphModel,
    _parse_gamma,
    _parse_lambda,
    _parse_profile,
    _require,
)
from reward_routing.infinite import _HOWARD_MAX_ITERATIONS, _evaluate_policy
from reward_routing.memory import ProductNode, _canonical_cycle
from reward_routing.rewards import TOLERANCE

State = tuple[int, tuple[int, ...]]


def backward_scan_age(nodes: Sequence[int], t: int, v: int) -> int:
    """Steps since the previous occurrence of v before t, by direct scan."""
    for j in range(t - 1, -1, -1):
        if nodes[j] == v:
            return t - j
    return t + 1


def explicit_accumulated(
    lam: Sequence[float], gamma: Sequence[float], nodes: Sequence[int], t: int, v: int
) -> float:
    """Accumulated reward by summing the decayed generations one by one."""
    age = backward_scan_age(nodes, t, v)
    return sum(lam[v] * gamma[v] ** j for j in range(age))


def explicit_path_total(
    lam: Sequence[float], gamma: Sequence[float], nodes: Sequence[int]
) -> float:
    return sum(
        explicit_accumulated(lam, gamma, nodes, t, nodes[t])
        for t in range(len(nodes))
    )


def enumerate_paths(g: Graph, v0: int, length: int) -> Iterator[list[int]]:
    """All node sequences of the given edge count starting at v0."""
    stack = [[v0]]
    while stack:
        path = stack.pop()
        if len(path) == length + 1:
            yield path
            continue
        for w in g.successors(path[-1]):
            stack.append(path + [w])


def brute_best_total(
    g: Graph, lam: Sequence[float], gamma: Sequence[float], v0: int, length: int
) -> float | None:
    """Max explicit path total over every path, None if no path exists."""
    best = None
    for path in enumerate_paths(g, v0, length):
        total = explicit_path_total(lam, gamma, path)
        if best is None or total > best:
            best = total
    return best


def reachability_closure(g: Graph) -> list[list[bool]]:
    n = g.node_count
    reach = [[False] * n for _ in range(n)]
    for v in range(n):
        reach[v][v] = True
        for w in g.successors(v):
            reach[v][w] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return reach


def distances_within(g: Graph, src: int, inside: set[int]) -> dict[int, int]:
    """Fewest edges from ``src`` to each node it reaches without leaving ``inside``.

    Relaxes every edge inside the set once per node (Bellman-Ford with unit
    weights), so the result follows from the definition alone.
    """
    dist = {src: 0}
    for _ in range(len(inside)):
        for v in sorted(dist):
            for w in g.successors(v):
                if w in inside and dist[v] + 1 < dist.get(w, len(inside) + 1):
                    dist[w] = dist[v] + 1
    return dist


def sccs_by_closure(g: Graph) -> list[tuple[int, ...]]:
    """Partition into SCCs via mutual reachability in the closure."""
    reach = reachability_closure(g)
    n = g.node_count
    assigned = [False] * n
    comps = []
    for v in range(n):
        if assigned[v]:
            continue
        comp = [u for u in range(n) if reach[v][u] and reach[u][v]]
        for u in comp:
            assigned[u] = True
        comps.append(tuple(sorted(comp)))
    return sorted(comps, key=lambda c: c[0])


def heaviest_reachable_component(
    g: Graph, lam: Sequence[float], v0: int
) -> tuple[tuple[int, ...], float] | None:
    """The no-decay optimum by the rule the rooted Tarjan pass replaced.

    Splits the whole graph into components, keeps those that bear a cycle,
    finds the nodes ``v0`` reaches by breadth-first search, and returns the
    first reachable component with the largest rate sum, with that sum
    (``None`` when no cycle is reachable).
    """
    reach, queue = {v0}, deque([v0])
    while queue:
        for w in g.successors(queue.popleft()):
            if w not in reach:
                reach.add(w)
                queue.append(w)
    best = None
    for comp in sccs_by_closure(g):
        if comp[0] in reach and (len(comp) > 1 or g.has_edge(comp[0], comp[0])):
            total = sum(lam[v] for v in comp)
            if best is None or total > best[1]:
                best = (comp, total)
    return best


def simple_cycles(g: Graph) -> Iterator[list[int]]:
    """All simple cycles, each listed once rooted at its smallest node."""
    n = g.node_count
    for root in range(n):
        stack = [[root]]
        while stack:
            path = stack.pop()
            v = path[-1]
            for w in g.successors(v):
                if w == root:
                    yield list(path)
                elif w > root and w not in path:
                    stack.append(path + [w])


def hamiltonian_cycle_by_permutation(g: Graph) -> list[int] | None:
    n = g.node_count
    if n == 1:
        return [0] if g.has_edge(0, 0) else None
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        if all(g.has_edge(order[i], order[(i + 1) % n]) for i in range(n)):
            return list(order)
    return None


def longest_cycle_by_enumeration(g: Graph) -> int:
    """Length of the longest simple cycle, 0 if the graph is acyclic."""
    best = 0
    for cycle in simple_cycles(g):
        best = max(best, len(cycle))
    return best


def hamiltonian_path_from(g: Graph, v0: int) -> bool:
    n = g.node_count
    others = [v for v in range(n) if v != v0]
    for perm in itertools.permutations(others):
        order = [v0] + list(perm)
        if all(g.has_edge(order[i], order[i + 1]) for i in range(n - 1)):
            return True
    return False


def min_mean_cycle_by_enumeration(
    node_count: int, edges: Iterable[tuple[int, int]], weights: Sequence[float]
) -> float:
    """Min over simple cycles of the average node weight."""
    g = Graph.from_edges(node_count, edges)
    best = None
    for cycle in simple_cycles(g):
        mean = sum(weights[v] for v in cycle) / len(cycle)
        if best is None or mean < best:
            best = mean
    assert best is not None, "oracle needs at least one cycle"
    return best


def per_unit_decay_total(
    profiles: Sequence, lam: Sequence[float], nodes: Sequence[int]
) -> float:
    """Deterministic per-generation bookkeeping of profile decay.

    Keeps every generation instant alive per node and collects the decayed
    remainders on each visit; this is the process the closed form sums up.
    """
    outstanding: list[list[int]] = [[] for _ in range(len(lam))]
    collected = 0.0
    for t, visited in enumerate(nodes):
        for v in range(len(lam)):
            outstanding[v].append(t)
        collected += sum(
            lam[visited] * profiles[visited].value(t - born)
            for born in outstanding[visited]
        )
        outstanding[visited].clear()
    return collected


def long_horizon_average(
    lam: Sequence[float],
    gamma: Sequence[float],
    prefix: Sequence[int],
    cycle: Sequence[int],
    horizon: int,
) -> float:
    """Finite average of the explicit totals, converging to the limit."""
    nodes = list(prefix)
    while len(nodes) < horizon + 1:
        nodes.extend(cycle)
    nodes = nodes[: horizon + 1]
    return explicit_path_total(lam, gamma, nodes) / (horizon + 1)


def layered_dp_reference(
    g: Graph,
    v0: int,
    horizon: int,
    step_reward: Callable[[int, int], float],
    state_budget: int,
    horizon_cap: int,
) -> FiniteSolution:
    """The finite-horizon DP with one dict entry per visit-age state.

    The per-state loop the vectorized engine replaced, kept as its
    reference: same values, witnesses, tie-breaks and state counts.
    """
    if not 0 <= v0 < g.node_count:
        raise ValueError(f"start node {v0} out of range")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if horizon > horizon_cap:
        raise InstanceTooLargeError(
            f"horizon {horizon} exceeds the layer-loop cap of {horizon_cap}"
        )
    n = g.node_count
    start: State = (v0, (1,) * n)
    # layer maps state -> (value, parent state in the previous layer)
    layer: dict[State, tuple[float, State | None]] = {
        start: (step_reward(v0, 1), None)
    }
    parents: list[dict[State, State | None]] = [{start: None}]
    total_states = 1

    for _ in range(horizon):
        nxt: dict[State, tuple[float, State | None]] = {}
        for (v, ages), (value, _) in layer.items():
            state_key: State = (v, ages)
            for w in g.adjacency[v]:
                new_ages = tuple(
                    1 if u == v else ages[u] + 1 for u in range(n)
                )
                gained = value + step_reward(w, new_ages[w])
                key: State = (w, new_ages)
                seen = nxt.get(key)
                if seen is None:
                    nxt[key] = (gained, state_key)
                    total_states += 1
                    if total_states > state_budget:
                        raise StateBudgetExceededError(state_budget)
                elif gained > seen[0] or (
                    gained == seen[0]
                    and seen[1] is not None
                    and state_key < seen[1]
                ):
                    # Ties keep the lexicographically smallest predecessor,
                    # so the witness is schedule-independent.
                    nxt[key] = (gained, state_key)
        if not nxt:
            raise NoPathError(
                f"no path of length {horizon} from node {v0}"
            )
        parents.append({key: val[1] for key, val in nxt.items()})
        layer = nxt

    best_state: State | None = None
    best_value = -1.0
    for key, (value, _) in layer.items():
        if best_state is None or value > best_value or (
            value == best_value and key < best_state
        ):
            best_state, best_value = key, value

    assert best_state is not None
    nodes = []
    cursor: State | None = best_state
    for t in range(horizon, -1, -1):
        assert cursor is not None
        nodes.append(cursor[0])
        cursor = parents[t][cursor]
    nodes.reverse()
    return FiniteSolution(
        RewardValue(best_value, "finite_sum", horizon=horizon),
        Path(tuple(nodes)),
        total_states,
    )


def _truncated_successor(
    ages: tuple[int, ...], v: int, w: int, caps: tuple[int, ...], n: int
) -> State:
    # Leaving v resets its age to 1; every other age ticks up and overflows
    # to 0 once it passes its node's cap (0 also stays 0).
    return (
        w,
        tuple(
            1
            if u == v
            else (ages[u] + 1 if 0 < ages[u] and ages[u] + 1 <= caps[u] else 0)
            for u in range(n)
        ),
    )


def truncated_bfs_reference(
    g: Graph, v0: int, depth: int | tuple[int, ...], *, state_budget: int
) -> tuple[tuple[State, ...], int, Graph]:
    """Tuple-per-state BFS of the truncated visit-age graph.

    The per-state loop the vectorized engine replaced, kept as its
    reference. ``depth`` caps every node's age, or is a tuple of one cap
    per node. Returns ``(states, initial, state_graph)`` as
    :func:`reward_routing.build_truncated` lays them out: states in FIFO
    discovery order, so ``initial`` is 0, and each state's targets sorted
    as a :class:`Graph` holds them.
    """
    n = g.node_count
    caps = (depth,) * n if isinstance(depth, int) else depth
    if len(caps) != n or min(caps, default=1) < 1:
        raise ValueError("truncation depth must be at least 1")
    if not 0 <= v0 < n:
        raise ValueError(f"start node {v0} out of range")
    initial: State = (v0, (1,) * n)
    discovered: dict[State, int] = {initial: 0}
    order: list[State] = [initial]
    edges: list[tuple[int, int]] = []
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        v, ages = state
        src = discovered[state]
        for w in g.adjacency[v]:
            succ = _truncated_successor(ages, v, w, caps, n)
            idx = discovered.get(succ)
            if idx is None:
                idx = len(order)
                if idx >= state_budget:
                    raise StateBudgetExceededError(
                        state_budget,
                        f"truncated graph at depth {max(caps, default=1)} exceeds "
                        f"{state_budget} states",
                    )
                discovered[succ] = idx
                order.append(succ)
                queue.append(succ)
            edges.append((src, idx))

    adjacency: list[list[int]] = [[] for _ in range(len(order))]
    for src, dst in edges:
        adjacency[src].append(dst)
    state_graph = Graph(
        len(order), tuple(tuple(sorted(set(a))) for a in adjacency)
    )
    return tuple(order), 0, state_graph


def bounded_memory_reference(
    g: Graph,
    spec: RewardSpec,
    v0: int,
    memory_size: int,
    *,
    max_nodes: int = 4,
    max_memory: int = 3,
) -> BoundedMemorySolution:
    """Bounded-memory synthesis by enumerating every product strategy.

    The search :func:`reward_routing.solve_bounded_memory` replaced, kept as
    its reference: each branch re-walks from the start, and every memory
    slot of a successor is tried, used or not. Same guards, value, choice
    map, witness and tie rule (the first strictly best lasso wins).
    """
    if g.node_count > max_nodes or memory_size > max_memory:
        raise InstanceTooLargeError(
            f"bounded-memory enumeration guarded at {max_nodes} nodes "
            f"and memory {max_memory}"
        )
    if spec.node_count != g.node_count:
        raise ValueError("spec size disagrees with the graph")
    slots = range(1, memory_size + 1)
    start: ProductNode = (v0, 1)
    choice: dict[ProductNode, ProductNode] = {}
    cycle_values: dict[tuple[int, ...], float] = {}
    best: tuple[float, dict[ProductNode, ProductNode], list[ProductNode], int] | None = None

    def score(seq: list[ProductNode], split: int) -> float:
        key = _canonical_cycle(tuple(p[0] for p in seq[split:]))
        value = cycle_values.get(key)
        if value is None:
            value = average_reward(spec, Lasso((), key)).value
            cycle_values[key] = value
        return value

    def explore() -> None:
        nonlocal best
        seq = [start]
        pos = {start: 0}
        current = start
        while True:
            target = choice.get(current)
            if target is None:
                # Every slot change is allowed alongside each edge.
                for candidate in [(w, m) for w in g.adjacency[current[0]] for m in slots]:
                    choice[current] = candidate
                    explore()
                choice.pop(current, None)  # a dead end sets no choice
                return
            if target in pos:
                value = score(seq, pos[target])
                if best is None or value > best[0]:
                    best = (value, dict(choice), seq, pos[target])
                return
            seq.append(target)
            pos[target] = len(seq) - 1
            current = target

    explore()
    if best is None:
        raise NoCycleError(f"no infinite path starts at node {v0}")
    value, choices, seq, split = best

    witness = validate_lasso(
        g, [p[0] for p in seq[:split]], [p[0] for p in seq[split:]]
    )
    exact = average_reward(spec, witness)

    # Fill the unreachable product nodes with the smallest successor and
    # package the product choices as an explicit memory structure.
    update: dict[tuple[int, int], int] = {}
    tau: dict[tuple[int, int], int] = {}
    for node in itertools.product(range(g.node_count), slots):
        v, slot = node
        picked = choices.get(node)
        if picked is None:
            succs = g.adjacency[v]
            if not succs:
                update[(slot, v)] = 1
                continue
            picked = (succs[0], 1)
        tau[(v, slot)] = picked[0]
        update[(slot, v)] = picked[1]
    strategy = FiniteStrategy(
        MemoryStructure(memory_size, 1, update), tau, v0
    )
    return BoundedMemorySolution(exact, strategy, witness)



def parse_graph_document_reference(doc: Any) -> GraphModel:
    """The graph-file parser :func:`reward_routing.cli.parse_graph_document`
    replaced, kept as its reference: every item's field name formatted up
    front, each number checked through the helpers, the edges gathered as
    pairs and the adjacency built from sets. A ``null`` default counts as
    absent, as it does on a node.
    """
    if not isinstance(doc, dict):
        raise GraphFileError("document", "top level must be an object")
    defaults = doc.get("defaults", {})
    if not isinstance(defaults, dict):
        raise GraphFileError("defaults", "must be an object")
    if defaults.get("lambda") is not None:
        _parse_lambda(defaults["lambda"], "defaults.lambda")
    if defaults.get("gamma") is not None:
        _parse_gamma(defaults["gamma"], "defaults.gamma")
    raw_nodes = _require(doc, "nodes", "nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise GraphFileError("nodes", "must be a non-empty list")

    index: dict[str, int] = {}
    lams: list[float] = []
    decays: list[float | DecayProfile] = []
    for i, raw in enumerate(raw_nodes):
        field = f"nodes[{i}]"
        if not isinstance(raw, dict):
            raise GraphFileError(field, "must be an object")
        node_id = _require(raw, "id", f"{field}.id")
        if not isinstance(node_id, str):
            raise GraphFileError(f"{field}.id", "must be a string")
        if node_id in index:
            raise GraphFileError(f"{field}.id", f"duplicate id {node_id!r}")
        index[node_id] = i

        lam = raw.get("lambda")
        if lam is None:
            lam = defaults.get("lambda")
        if lam is None:
            raise GraphFileError(f"{field}.lambda", "missing and no default provided")
        lams.append(_parse_lambda(lam, f"{field}.lambda"))

        gamma = raw.get("gamma")
        profile_raw = raw.get("decay_profile")
        if gamma is not None and profile_raw is not None:
            raise GraphFileError(field, "gamma and decay_profile are mutually exclusive")
        if profile_raw is not None:
            decays.append(_parse_profile(profile_raw, f"{field}.decay_profile"))
            continue
        if gamma is None:
            gamma = defaults.get("gamma")
        if gamma is None:
            raise GraphFileError(f"{field}.gamma", "missing and no default provided")
        decays.append(_parse_gamma(gamma, f"{field}.gamma"))

    raw_edges = _require(doc, "edges", "edges")
    if not isinstance(raw_edges, list):
        raise GraphFileError("edges", "must be a list")
    edges: list[tuple[int, int]] = []
    for i, raw in enumerate(raw_edges):
        field = f"edges[{i}]"
        if not isinstance(raw, list) or len(raw) != 2:
            raise GraphFileError(field, "must be a [from, to] pair")
        for endpoint in raw:
            if not isinstance(endpoint, str) or endpoint not in index:
                raise GraphFileError(field, f"unknown node id {endpoint!r}")
        edges.append((index[raw[0]], index[raw[1]]))

    ids = tuple(index)
    succs: list[set[int]] = [set() for _ in ids]
    for u, v in edges:
        succs[u].add(v)
    graph = Graph(len(ids), tuple(tuple(sorted(s)) for s in succs))
    return GraphModel(graph, tuple(lams), tuple(decays), ids, index)


def _bfs_stop_on_pop(
    g: Graph, src: int, stop: Container[int], within: Container[int]
) -> tuple[dict[int, int], int | None]:
    """Breadth-first search that tests ``stop`` as each node leaves the queue."""
    parent = {src: src}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if v in stop:
            return parent, v
        for w in g.successors(v):
            if w not in parent and w in within:
                parent[w] = v
                queue.append(w)
    return parent, None


def covering_cycle_reference(g: Graph, scc: Iterable[int]) -> Path:
    """The covering walk as it was before its search stopped on discovery:
    from the smallest node, a shortest leg inside the set to a nearest
    uncovered node, then back to the start. Same errors as
    :func:`reward_routing.covering_cycle`.
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
        parent, hit = _bfs_stop_on_pop(g, walk[-1], uncovered or (start,), inside)
        if hit is None:
            raise NotStronglyConnectedError(f"no path inside the set from {walk[-1]}")
        leg = [hit]
        while parent[leg[-1]] != leg[-1]:
            leg.append(parent[leg[-1]])
        walk += leg[-2::-1]
        if not uncovered:
            return Path(tuple(walk))
        uncovered.remove(hit)


def round_floats_reference(value: Any) -> Any:
    """12 significant digits on every float, testing each value's type in turn."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: round_floats_reference(v) for k, v in value.items()}
    if isinstance(value, list):
        return [round_floats_reference(v) for v in value]
    return value


# ``infinite._howard_max_mean_cycle`` as it was before its shortcuts: every
# iteration runs both switches in full.
def howard_reference(
    src: np.ndarray,
    dst: np.ndarray,
    w: Sequence[float],
    start: int = 0,
) -> tuple[float, list[int]]:
    """Best mean node weight ``w`` over the cycles reachable from ``start``.

    Howard's policy iteration (Cochet-Terrasson et al. 1998) on the whole
    graph, which need not be strongly connected but must give every state
    a successor, as a build on :func:`_live_graph` does. The edges run
    from ``src`` to ``dst``, ``intp`` arrays grouped by source in
    ascending order, as :func:`build_truncated` emits them; within a
    source, edge order is tie order. Neither their order nor their
    endpoints are checked: ungrouped edges give a wrong answer, not an
    error. ``w`` holds one weight per state. A policy picks one successor
    per state; it starts at the heaviest successor and switches only on an
    improvement beyond ``TOLERANCE`` times the largest weight magnitude,
    first of the cycle mean reached, then of the bias; the returned mean
    falls short of the best by at most that margin. Ties go to the
    source's first edge. Returns ``(mean, cycle)``: ``cycle`` is the cycle
    the final policy reaches from ``start``, listed once in traversal
    order, and ``mean`` is its exactly summed mean weight.

    Raises :class:`InvalidInputError` if some state has no out-edge,
    :class:`SolverContractError` after ``_HOWARD_MAX_ITERATIONS`` improvements.
    """
    w = np.asarray(w, dtype=np.float64)
    m = len(w)
    if not 0 <= start < m:
        raise InvalidInputError(f"start state {start} out of range")
    starts = np.searchsorted(src, np.arange(m))
    degree = np.diff(starts, append=len(src))
    if not degree.all():
        raise InvalidInputError(f"state {int(np.argmin(degree))} has no out-edge")
    targets, positions = np.append(dst, -1), np.arange(len(src))
    tol = TOLERANCE * float(np.abs(w).max())

    def first_successor(mask: np.ndarray) -> np.ndarray:
        # Per source segment, the target of its first edge where mask
        # holds; -1 for segments without one.
        pick = np.where(mask, positions, len(mask))
        return targets[np.minimum.reduceat(pick, starts)]

    def improves(new: np.ndarray, old: np.ndarray) -> np.ndarray:
        return new > old + tol

    def switch(value: np.ndarray, current: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Per state: does some successor's value beat the current one, and
        # the lowest successor that does while tying the best.
        best = np.maximum.reduceat(value, starts)
        pick = improves(value, current[src]) & ~improves(best[src], value)
        return improves(best, current), first_successor(pick)

    heaviest = np.maximum.reduceat(w[dst], starts)
    policy = first_successor(w[dst] == heaviest[src])
    for _ in range(_HOWARD_MAX_ITERATIONS + 1):
        eta, bias, landing = _evaluate_policy(policy, w)
        # Improve the cycle mean reached first; among successors that
        # reach the same mean, improve the bias.
        eta_next = eta[dst]
        raise_eta, to_eta = switch(eta_next, eta)
        same = ~improves(eta_next, eta[src]) & ~improves(eta[src], eta_next)
        current = bias[policy]
        bias_next = np.where(same, bias[dst], current[src])
        raise_bias, to_bias = switch(bias_next, current)
        raise_bias &= ~raise_eta
        if not (raise_eta.any() or raise_bias.any()):
            break
        policy = np.where(raise_eta, to_eta, np.where(raise_bias, to_bias, policy))
    else:
        raise SolverContractError(
            "policy iteration did not converge in "
            f"{_HOWARD_MAX_ITERATIONS} iterations"
        )

    head = int(landing[start])
    cycle = [head]
    cursor = int(policy[head])
    while cursor != head:
        cycle.append(cursor)
        cursor = int(policy[cursor])
    return math.fsum(w[cycle]) / len(cycle), cycle
