"""Limit-average reward: exact solver without decay, approximation with it.

When rewards never disappear (all survival probabilities equal 1) the
optimal long-run average is the heaviest reachable strongly connected
component, collected by looping a covering walk; that solver is polynomial.

With decay the problem is approximated on a truncated visit-age graph:
states ``(node, ages)`` track how long ago each node was visited, capped at
a depth ``K`` (age 0 encodes "longer ago than K"). Each state carries a
pessimistic and an optimistic weight; one call of Howard's policy
iteration for the maximum mean cycle runs both weightings on the build's
sorted edge arrays, and yields a bracket ``[r_under, r_over]`` around the
true optimum whose width is controlled by ``K``, together with ultimately
periodic witness paths. Karp's recurrence (:func:`karp_mean_cycle`) stays
as the reference the tests check Howard against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import (
    InvalidInputError,
    NoCycleError,
    NotStronglyConnectedError,
    SolverContractError,
    StateBudgetExceededError,
)
from .finite import (
    DEFAULT_STATE_BUDGET,
    State,
    _age_dtype,
    _csr,
    _expand,
    _PairTable,
    _sort_states,
)
from .graph import (
    Graph,
    Lasso,
    _check_int,
    _check_start,
    covering_cycle,
    scc_decompose,
    shortest_path,
    validate_lasso,
)
from .rewards import (
    TOLERANCE,
    RewardSpec,
    RewardValue,
    _OVERFLOW,
    _check_param,
    _check_rescore,
    average_reward,
    decayed_average_reward,
    geometric_series,
)

# Karp's table holds (m + 1) * m floats for m states; refuse sizes where
# that stops fitting comfortably in memory.
_KARP_CELL_LIMIT = 60_000_000

# Policy iteration settles in a handful of rounds on truncated graphs; the
# cap only turns a numerical livelock into an error.
_HOWARD_MAX_ITERATIONS = 1000


def truncation_depth(spec: RewardSpec, epsilon: float) -> int:
    """Smallest age cap that keeps the per-step truncation error within epsilon.

    Per node the error of capping ages at ``K`` is
    ``lam * gamma**K / (1 - gamma)``; the result is the largest per-node
    requirement, at least 1. Nodes that generate nothing are ignored. When
    ``epsilon * (1 - gamma) / lam`` underflows to 0, its logarithm is taken
    term by term instead.
    """
    if not epsilon > 0:
        raise InvalidInputError("epsilon must be positive")
    depth = 1
    for lam, gamma in zip(spec.lam, spec.gamma):
        if lam == 0.0:
            continue
        if gamma >= 1.0:
            raise InvalidInputError("survival probability 1 cannot be truncated")
        ratio = epsilon * (1.0 - gamma) / lam
        if ratio >= 1.0:
            continue
        if ratio > 0.0:
            log_ratio = math.log(ratio)
        else:
            log_ratio = math.log(epsilon) + math.log(1.0 - gamma) - math.log(lam)
        # The 1e-12 slack keeps exact integer boundaries from rounding up.
        needed = math.ceil(log_ratio / math.log(gamma) - 1e-12)
        depth = max(depth, needed)
    return depth


@dataclass(frozen=True)
class WeightPair:
    """Pessimistic/optimistic weights of one truncated visit-age state.

    ``cost_over``/``cost_under`` bound the true cost ``gamma ** age`` from
    above and below when the age overflowed the cap (encoded as 0);
    ``reward_under``/``reward_over`` are their collected-reward duals.
    """

    cost_over: float
    cost_under: float
    reward_under: float
    reward_over: float


def _weight_values(
    spec: RewardSpec, v: int, age: int, depth: int
) -> tuple[float, float, float, float]:
    """The fields of :class:`WeightPair` for a state at ``v`` of own age ``age``."""
    lam, gamma = spec.lam[v], spec.gamma[v]
    if age > 0:
        cost = gamma**age
        exact = lam * geometric_series(gamma, age)
        return cost, cost, exact, exact
    return (
        gamma**depth,
        0.0,
        lam * geometric_series(gamma, depth),
        lam / (1.0 - gamma),
    )


def weight_pair(spec: RewardSpec, state: State, depth: int) -> WeightPair:
    v, ages = state
    return WeightPair(*_weight_values(spec, v, ages[v], depth))


@dataclass(frozen=True)
class WeightTable:
    """The reward columns of :class:`WeightPair`, per ``TruncatedGraph`` state."""

    reward_under: np.ndarray
    reward_over: np.ndarray


@dataclass(frozen=True, eq=False)
class TruncatedGraph:
    """The reachable part of the truncated visit-age graph, as arrays.

    States are sorted by node, then age vector, so state indices double as
    tie-break ranks. State ``i`` is ``node_array[i]`` with ages
    ``age_matrix[:, i]``; the matrix is C-ordered, one contiguous row of
    ages per node. ``edge_arrays`` holds ``(src, dst)`` as ``intp``
    arrays, strictly increasing by source, then target, so
    :func:`_howard_max_mean_cycle` takes them without a sort. ``parent[i]``
    is the state the build's BFS first reached ``i`` from
    (``parent[initial] == initial``), so its walks are the paths
    :func:`shortest_path` finds. ``states`` (tuples) and ``state_graph``
    (a :class:`Graph`) are views built on first read.
    """

    graph: Graph
    depth: int
    initial: int
    node_array: np.ndarray = field(repr=False)
    age_matrix: np.ndarray = field(repr=False)
    edge_arrays: tuple[np.ndarray, np.ndarray] = field(repr=False)
    parent: np.ndarray = field(repr=False)

    @property
    def state_count(self) -> int:
        return len(self.node_array)

    @cached_property
    def states(self) -> tuple[State, ...]:
        ages = map(tuple, self.age_matrix.T.tolist())
        return tuple(zip(self.node_array.tolist(), ages))

    @cached_property
    def state_graph(self) -> Graph:
        src, dst = self.edge_arrays
        m, targets = self.state_count, dst.tolist()
        bounds = np.searchsorted(src, np.arange(m + 1)).tolist()
        return Graph(m, tuple(tuple(targets[a:b]) for a, b in zip(bounds, bounds[1:])))

    def weights(self, spec: RewardSpec) -> WeightTable:
        """The :func:`weight_pair` reward fields of every state, as arrays.

        Weights depend only on a state's node and its own age, so each
        such pair is weighed once, with the same arithmetic as
        :func:`weight_pair`, and the states read it from that table.
        """
        own_ages = self.age_matrix[self.node_array, np.arange(self.state_count)]
        table = _PairTable(
            lambda v, age: _weight_values(spec, v, age, self.depth)[2:],
            self.graph.node_count,
            (2,),
        )
        columns = table(self.node_array, own_ages)
        return WeightTable(*(columns[:, k].copy() for k in range(2)))


def build_truncated(
    g: Graph,
    v0: int,
    depth: int,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> TruncatedGraph:
    """Breadth-first expansion of the truncated visit-age graph from ``v0``.

    Starts at ``(v0, (1, ..., 1))`` and only materializes reachable states.
    Each BFS level expands the whole frontier at once with the visit-age
    engine of :mod:`reward_routing.finite` and sorts the successors with
    the known states at the same nodes in one ``np.lexsort``; successors
    found nowhere before form the next frontier, in FIFO discovery order,
    each with its first discoverer as parent. The same sort gives every
    successor its BFS index, the target of its edge. At the end one sort
    puts the states in order, and each source's block of edges moves to
    the source's sorted place, its targets renumbered. Raises
    :class:`StateBudgetExceededError` when a level takes the state count
    past the budget.
    """
    _check_int("truncation depth", depth)
    if depth < 1:
        raise InvalidInputError("truncation depth must be at least 1")
    _check_start(g, v0)
    csr = _csr(g)
    nodes = np.full(1, v0, dtype=csr[2].dtype)
    ages = np.ones((g.node_count, 1), dtype=_age_dtype(depth))
    parent = np.zeros(1, dtype=np.intp)
    # Per level, the BFS index of every successor of the frontier: the
    # edge targets, by BFS source and each source's in adjacency order.
    targets: list[np.ndarray] = []
    frontier = slice(0, 1)
    while frontier.start < frontier.stop:
        pred, succ, succ_ages = _expand(csr, nodes[frontier], ages[:, frontier], depth)
        # Only known states at the successors' nodes can equal a successor;
        # stability puts each ahead of its rediscoveries.
        near = np.flatnonzero(np.isin(nodes, succ))
        order, fresh = _sort_states(
            np.concatenate((nodes[near], succ)),
            np.concatenate((ages.take(near, axis=1), succ_ages), axis=1),
        )
        # Positions among the successors; known states are negative.
        order -= len(near)
        firsts = order[fresh]
        found = firsts >= 0
        # Successors come by predecessor, each one's in adjacency order, so
        # position order is discovery order.
        is_new = np.zeros(len(succ), dtype=bool)
        is_new[firsts[found]] = True
        added = np.flatnonzero(is_new)
        # The BFS index of each run of equal states: the known state's own,
        # or the one its first successor gets in discovery order.
        index = np.empty(len(firsts), dtype=np.intp)
        index[~found] = near[firsts[~found] + len(near)]
        index[found] = len(nodes) - 1 + np.cumsum(is_new)[firsts[found]]
        is_succ = order >= 0
        level = np.empty(len(succ), dtype=np.intp)
        level[order[is_succ]] = index[np.cumsum(fresh)[is_succ] - 1]
        targets.append(level)
        parent = np.concatenate((parent, pred[added] + frontier.start))
        frontier = slice(len(nodes), len(nodes) + len(added))
        nodes = np.concatenate((nodes, succ[added]))
        ages = np.concatenate((ages, succ_ages.take(added, axis=1)), axis=1)
        if len(added) and len(nodes) > state_budget:
            raise StateBudgetExceededError(
                state_budget,
                f"truncated graph at depth {depth} exceeds "
                f"{state_budget} states",
            )
    order, _ = _sort_states(nodes, ages)
    # Map BFS indices to sorted ones; the start state was BFS index 0.
    m = len(nodes)
    rank = np.empty(m, dtype=np.intp)
    rank[order] = np.arange(m)
    parent = rank[parent[order]]
    initial = int(rank[0])

    # Move each source's block of edges from its BFS slot to its sorted
    # one. States sort by node first and a source's successors lie at
    # distinct nodes in ascending order, so targets stay ascending.
    degree = csr[1][nodes]
    first = degree.cumsum() - degree
    nodes, ages = nodes[order], ages.take(order, axis=1)
    degree = degree[order]
    src = np.arange(m).repeat(degree)
    slot = (first[order] - degree.cumsum() + degree).repeat(degree)
    slot += np.arange(len(src))
    dst = rank[np.concatenate(targets)[slot]]
    return TruncatedGraph(g, depth, initial, nodes, ages, (src, dst), parent)


def _verify_strongly_connected(m: int, edges: list[tuple[int, int]]) -> None:
    if m < 1:
        raise NotStronglyConnectedError("empty subgraph")
    if not edges:
        raise NotStronglyConnectedError("subgraph has no edges, hence no cycle")
    components = scc_decompose(Graph.from_edges(m, edges))
    if len(components) != 1:
        count = len(components)
        raise NotStronglyConnectedError(f"{m} states form {count} components")


def karp_mean_cycle(
    state_count: int,
    edges: Sequence[tuple[int, int]],
    weights: Sequence[float],
    mode: str = "min",
) -> tuple[float, list[int]]:
    """Optimal mean node weight over cycles of a strongly connected graph.

    Karp's recurrence: ``W[n][v]``, the cheapest walk of length ``n`` from
    state 0 to ``v``, is tabulated for ``n`` up to the state count; the
    optimum is ``min over v of max over n`` of the normalized differences.
    A witness cycle is recovered by walking the table backwards from the
    minimizing state and cutting at the repetition nearest the walk's end.

    ``edges`` lists ``(source, target)`` pairs in any order.
    ``mode="max"`` negates the weights and the resulting mean. States
    should be indexed in the caller's preferred tie-break order: index 0
    seeds the walks and ties resolve toward lower indices. Returns
    ``(mean, cycle)`` where ``cycle`` lists state indices once, in
    traversal order. The table holds ``(m + 1) * m`` floats, so this is
    the reference the tests check Howard against, for small graphs; past
    ``_KARP_CELL_LIMIT`` cells it raises :class:`StateBudgetExceededError`.
    """
    if mode not in ("min", "max"):
        raise InvalidInputError(f"mode must be 'min' or 'max', got {mode!r}")
    edges = list(edges)
    _verify_strongly_connected(state_count, edges)
    sign = -1.0 if mode == "max" else 1.0
    w = sign * np.asarray(weights, dtype=np.float64)
    if len(w) != state_count:
        raise InvalidInputError("weights length disagrees with state_count")
    src, dst = np.array(edges, dtype=np.intp).T

    m = state_count
    if (m + 1) * m > _KARP_CELL_LIMIT:
        raise StateBudgetExceededError(
            _KARP_CELL_LIMIT,
            f"Karp table for {m} states does not fit the cell limit; "
            "use a coarser approximation target",
        )

    # Sort edges by destination (then source) so each destination forms a
    # contiguous segment with ascending sources.
    order = np.lexsort((src, dst))
    src_sorted = src[order]
    dst_sorted = dst[order]
    seg_starts = np.searchsorted(dst_sorted, np.arange(m))

    table = np.full((m + 1, m), np.inf)
    table[0, 0] = 0.0
    for n in range(1, m + 1):
        best_in = np.minimum.reduceat(table[n - 1, src_sorted], seg_starts)
        table[n] = best_in + w

    with np.errstate(invalid="ignore"):
        diffs = table[m][None, :] - table[:m, :]
        denoms = (m - np.arange(m)).astype(np.float64)[:, None]
        ratios = np.where(np.isinf(table[:m, :]), -np.inf, diffs / denoms)
    per_state = ratios.max(axis=0)
    per_state = np.where(np.isinf(table[m]), np.inf, per_state)
    target = int(np.argmin(per_state))
    mean = float(per_state[target])

    # Reconstruct the cheapest length-m walk ending at the target.
    walk = [target]
    cursor = target
    for n in range(m, 0, -1):
        lo = seg_starts[cursor]
        hi = seg_starts[cursor + 1] if cursor + 1 < m else len(src_sorted)
        preds = src_sorted[lo:hi]
        cursor = int(preds[np.argmin(table[n - 1, preds])])
        walk.append(cursor)
    walk.reverse()

    # Any cycle inside this walk attains the optimal mean; take the one
    # closest to the end, deterministically.
    seen: dict[int, int] = {}
    cycle: list[int] | None = None
    for i in range(len(walk) - 1, -1, -1):
        state = walk[i]
        if state in seen:
            cycle = walk[i : seen[state]]
            break
        seen[state] = i
    assert cycle is not None  # a length-m walk over m states must repeat

    achieved = float(np.mean(w[cycle]))
    if abs(achieved - mean) > TOLERANCE * max(1.0, abs(mean)):
        raise SolverContractError(
            f"extracted cycle mean {achieved} disagrees with {mean}"
        )
    return sign * mean, cycle


def _trim_dead_ends(m: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Mask of the states that can reach a cycle.

    Peels states whose out-degree has dropped to 0, one layer per round.
    """
    degree = np.bincount(src, minlength=m)
    alive = np.ones(m, dtype=bool)
    dying = degree == 0
    while dying.any():
        alive &= ~dying
        degree -= np.bincount(src[dying[dst]], minlength=m)
        dying = alive & (degree == 0)
    return alive


def _evaluate_policy(
    policy: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cycle mean ``eta``, bias ``h`` and a cycle state ``landing`` per state.

    Each state follows ``policy`` into one cycle; ``eta`` is that cycle's
    mean weight. The bias is 0 at the cycle's lowest state and satisfies
    ``h[u] = w[u] - eta[u] + h[policy[u]]`` elsewhere. Cycles and biases
    come from pointer doubling, ``2**rounds >= m`` steps deep.
    """
    m = len(policy)
    rounds = max(1, (m - 1).bit_length())
    jump, low = policy, np.arange(m)
    for _ in range(rounds):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    # jump[u] now lies on u's cycle, and low[jump[u]] is that cycle's lowest
    # state; the cycle states are exactly the image of jump.
    rep = low[jump]
    on_cycle = np.zeros(m, dtype=bool)
    on_cycle[jump] = True
    cyc_rep = rep[on_cycle]
    count = np.bincount(cyc_rep, minlength=m)
    total = np.bincount(cyc_rep, weights=w[on_cycle], minlength=m)
    eta = total[rep] / count[rep]

    roots = np.flatnonzero(count)
    step = policy.copy()
    step[roots] = roots
    bias = w - eta
    bias[roots] = 0.0
    for _ in range(rounds):
        bias = bias + bias[step]
        step = step[step]
    return eta, bias, jump


def _howard_max_mean_cycle(
    src: np.ndarray,
    dst: np.ndarray,
    weightings: Sequence[Sequence[float]],
    start: int = 0,
) -> list[tuple[float, list[int]]]:
    """Best mean node weight over the cycles reachable from ``start``, per weighting.

    Howard's policy iteration (Cochet-Terrasson et al. 1998) on the whole
    graph, which need not be strongly connected. The edges run from
    ``src`` to ``dst``, ``intp`` arrays sorted by source, then target, as
    :func:`build_truncated` emits them. Neither their order nor their
    endpoints are checked: unsorted edges give a wrong answer, not an
    error. Each weighting holds one weight per state. States that cannot
    reach a cycle are trimmed once, and every weighting runs on that one
    graph. A policy picks one successor per state; it starts at the
    heaviest successor and switches only on an improvement beyond
    ``TOLERANCE`` times the largest weight magnitude (at least 1), first of
    the cycle mean reached, then of the bias; the returned mean falls short
    of the best by at most that margin. Ties go to the lowest successor.
    Returns one ``(mean, cycle)`` per weighting: ``cycle`` is the cycle the
    final policy reaches from ``start``, listed once in traversal order,
    and ``mean`` is its exactly summed mean weight.

    Raises :class:`NoCycleError` if no cycle is reachable from ``start``,
    :class:`SolverContractError` after ``_HOWARD_MAX_ITERATIONS`` improvements.
    """
    weightings = [np.asarray(w, dtype=np.float64) for w in weightings]
    lengths = {len(w) for w in weightings}
    if len(lengths) != 1:
        raise InvalidInputError("weightings must be one or more, of one length")
    (m,) = lengths
    if not 0 <= start < m:
        raise InvalidInputError(f"start state {start} out of range")
    alive = _trim_dead_ends(m, src, dst)
    if not alive[start]:
        raise NoCycleError(f"no cycle is reachable from state {start}")
    kept = np.flatnonzero(alive)
    live_index = np.cumsum(alive) - 1
    # Compact to the live states, keeping their order (and so the ties).
    if len(kept) < m:
        live = alive[src] & alive[dst]
        src, dst = live_index[src[live]], live_index[dst[live]]
    # Every live state keeps a live successor, so no segment is empty.
    starts = np.searchsorted(src, np.arange(len(kept)))
    targets, positions = np.append(dst, -1), np.arange(len(src))

    def first_successor(mask: np.ndarray) -> np.ndarray:
        # Per source segment, the target of its first edge where mask
        # holds; -1 for segments without one.
        pick = np.where(mask, positions, len(mask))
        return targets[np.minimum.reduceat(pick, starts)]

    results = []
    for w_all in weightings:
        w = w_all[kept]
        tol = TOLERANCE * max(1.0, float(np.abs(w).max()))

        def improves(new: np.ndarray, old: np.ndarray) -> np.ndarray:
            return new > old + tol

        def switch(
            value: np.ndarray, current: np.ndarray
        ) -> tuple[np.ndarray, np.ndarray]:
            # Per state: does some successor's value beat the current one,
            # and the lowest successor that does while tying the best.
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

        head = int(landing[live_index[start]])
        cycle = [int(kept[head])]
        cursor = int(policy[head])
        while cursor != head:
            cycle.append(int(kept[cursor]))
            cursor = int(policy[cursor])
        results.append((math.fsum(w_all[cycle]) / len(cycle), cycle))
    return results


@dataclass(frozen=True)
class ValueBracket:
    """Approximation bracket around the optimal limit-average reward.

    ``r_under`` is the exact long-run value of ``pi_under`` (a real path,
    hence a lower bound); ``r_over`` is the optimistic cycle mean on the
    truncated graph, an upper bound on every path's value. Their gap is
    at most the requested epsilon.
    """

    r_under: float
    r_over: float
    pi_under: Lasso
    pi_over: Lasso
    depth: int
    epsilon_achieved: float
    state_count: int


@dataclass(frozen=True)
class NondiscountedSolution:
    value: RewardValue
    witness: Lasso
    component: tuple[int, ...]


def _cycle_bearing_components(
    state_graph: Graph, root: int | None = None
) -> list[tuple[int, ...]]:
    """The components of :func:`scc_decompose` that hold a cycle, in its order."""
    return [
        comp
        for comp in scc_decompose(state_graph, root)
        if len(comp) > 1 or state_graph.has_edge(comp[0], comp[0])
    ]


def _component_karp(
    tg: TruncatedGraph, comp: tuple[int, ...], weights: np.ndarray, mode: str
) -> tuple[float, list[int]]:
    """Run Karp on one component; returns the mean and global state cycle.

    The per-component reference the tests check the production path against.
    """
    local = {s: i for i, s in enumerate(comp)}
    edges = [
        (local[u], local[v])
        for u in comp
        for v in tg.state_graph.adjacency[u]
        if v in local
    ]
    mean, cycle = karp_mean_cycle(
        len(comp), edges, [float(weights[s]) for s in comp], mode
    )
    return mean, [comp[i] for i in cycle]


def _cycle_to_lasso(tg: TruncatedGraph, cycle: list[int]) -> Lasso:
    """Reach path plus cycle, projected from states down to graph nodes.

    The cycle starts at its lowest state, reached along ``tg.parent``.
    """
    pivot = cycle.index(min(cycle))
    rotated = cycle[pivot:] + cycle[:pivot]
    reach = [rotated[0]]
    while reach[-1] != tg.initial:
        reach.append(int(tg.parent[reach[-1]]))
    prefix = tg.node_array[reach[:0:-1]].tolist()
    return validate_lasso(tg.graph, prefix, tg.node_array[rotated].tolist())


def solve_nondiscounted(
    g: Graph, lam: Sequence[float], v0: int
) -> NondiscountedSolution:
    """Optimal limit-average reward when rewards never disappear.

    The value is the largest total generation rate over the cycle-bearing
    strongly connected components reachable from ``v0``, which one Tarjan
    pass rooted at ``v0`` finds; ties go to the component with the
    smallest node. A witness loops a covering walk of the winning
    component forever; a replay of it without decay that misses the value
    raises :class:`SolverContractError`. Polynomial time. Each rate is
    checked as :class:`reward_routing.rewards.RewardSpec` checks it.
    """
    if len(lam) != g.node_count:
        raise InvalidInputError("lam length disagrees with the graph")
    for v, value in enumerate(lam):
        _check_param("lam", v, value)
    _check_start(g, v0)
    components = _cycle_bearing_components(g, v0)
    if not components:
        raise NoCycleError(f"no infinite path starts at node {v0}")
    total, best = max(
        ((sum(lam[v] for v in comp), comp) for comp in components), key=itemgetter(0)
    )
    walk = covering_cycle(g, best)
    to_walk = shortest_path(g, v0, walk.nodes[0])
    witness = validate_lasso(g, to_walk.nodes[:-1], walk.nodes[:-1])
    replay = decayed_average_reward((1.0,) * g.node_count, lam, witness)
    _check_rescore(total, replay.value)
    return NondiscountedSolution(
        RewardValue(total, "limit_average"), witness, best
    )


def _feasible_epsilon_estimate(spec: RewardSpec, budget: int) -> float:
    """Crude epsilon that would likely fit the budget, for error messages."""
    n = spec.node_count
    depth = max(1, int((budget / max(n, 1)) ** (1.0 / n)) - 1)
    worst = 0.0
    for lam, gamma in zip(spec.lam, spec.gamma):
        if lam > 0 and gamma < 1:
            worst = max(worst, lam * gamma**depth / (1.0 - gamma))
    return worst


def solve_infinite_approx(
    g: Graph,
    spec: RewardSpec,
    v0: int,
    epsilon: float,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> ValueBracket:
    """Bracket the optimal limit-average reward to within ``epsilon``.

    Builds the truncated visit-age graph and makes one
    :func:`_howard_max_mean_cycle` call over all of it with both weightings,
    from the initial state; the cycles it reaches are the pessimistic and
    optimistic witnesses. ``r_under`` is reported as the exact replay value
    of its witness, so ``average_reward(spec, pi_under) == r_under`` holds
    identically. The state budget is the only size limit. Raises
    :class:`SolverContractError` if the bracket breaks its contract, and
    :class:`InvalidInputError` if the rates are so large that a reward
    sum overflows a float.

    All survival probabilities must be below 1. With no decay anywhere,
    :func:`solve_nondiscounted` takes over and the bracket collapses to
    its value, with ``depth`` and ``state_count`` 0.
    """
    if spec.node_count != g.node_count:
        raise InvalidInputError("spec size disagrees with the graph")
    if not epsilon > 0:
        raise InvalidInputError("epsilon must be positive")
    if all(gamma == 1.0 for gamma in spec.gamma):
        exact = solve_nondiscounted(g, spec.lam, v0)
        value, witness = exact.value.value, exact.witness
        return ValueBracket(
            value, value, witness, witness, depth=0, epsilon_achieved=0.0, state_count=0
        )
    if any(gamma == 1.0 for gamma in spec.gamma):
        raise InvalidInputError(
            "mixing decaying and non-decaying nodes is not supported"
        )

    depth = truncation_depth(spec, epsilon)
    try:
        tg = build_truncated(g, v0, depth, state_budget=state_budget)
    except StateBudgetExceededError as exc:
        raise StateBudgetExceededError(
            state_budget,
            f"{exc}; epsilon around {_feasible_epsilon_estimate(spec, state_budget):.3g} "
            "should fit the budget",
        ) from exc
    weights = tg.weights(spec)
    weightings = (weights.reward_under, weights.reward_over)
    if not all(np.isfinite(w).all() for w in weightings):
        raise InvalidInputError(
            "optimistic weight lambda/(1-gamma) overflows a float; scale lambda down"
        )
    try:
        (_, cycle_under), (mean_over, cycle_over) = _howard_max_mean_cycle(
            *tg.edge_arrays, weightings, tg.initial
        )
    except NoCycleError:
        raise NoCycleError(f"no infinite path starts at node {v0}") from None
    except OverflowError:
        raise InvalidInputError(_OVERFLOW) from None

    pi_under = _cycle_to_lasso(tg, cycle_under)
    pi_over = _cycle_to_lasso(tg, cycle_over)
    r_under = average_reward(spec, pi_under).value
    # r_under is the exact value of a real path, so it never exceeds the
    # optimum; lifting r_over to it only sheds rounding noise.
    r_over = max(mean_over, r_under)
    if r_under > r_over + TOLERANCE or r_over - r_under > epsilon + TOLERANCE:
        raise SolverContractError(
            f"bracket [{r_under}, {r_over}] violates its contract at "
            f"epsilon {epsilon}"
        )
    return ValueBracket(
        r_under=r_under,
        r_over=r_over,
        pi_under=pi_under,
        pi_over=pi_over,
        depth=depth,
        epsilon_achieved=r_over - r_under,
        state_count=tg.state_count,
    )


def decide_infinite_value(
    g: Graph,
    spec: RewardSpec,
    v0: int,
    threshold: float,
    epsilon: float,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> tuple[str, ValueBracket]:
    """Compare the optimal limit-average reward against a threshold.

    Returns ``("yes", bracket)`` when the lower bound already clears the
    threshold, ``("no", bracket)`` when the upper bound stays below it,
    and ``("unknown", bracket)`` otherwise; the caller may retry with a
    smaller epsilon.
    """
    bracket = solve_infinite_approx(
        g, spec, v0, epsilon, state_budget=state_budget
    )
    if bracket.r_under >= threshold - TOLERANCE:
        return "yes", bracket
    if bracket.r_over < threshold - TOLERANCE:
        return "no", bracket
    return "unknown", bracket
