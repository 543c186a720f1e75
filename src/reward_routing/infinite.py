"""Limit-average reward: exact solver without decay, approximation with it.

When rewards never disappear (all survival probabilities equal 1) the
optimal long-run average is the heaviest reachable strongly connected
component, collected by looping a covering walk; that solver is polynomial.

With decay the problem is approximated on a truncated visit-age graph:
states ``(node, ages)`` track how long ago each node was visited, each
node's age capped at its own depth ``K_v`` (age 0 encodes "longer ago
than ``K_v``"), the smallest that keeps the error of that node's
collections within epsilon. Each state carries a pessimistic and an
optimistic weight. Howard's policy iteration for the maximum mean cycle
runs once, on the build's edge arrays with the optimistic weights:
states in BFS discovery order, and each state's successors the
consecutive states that share the ages it leaves behind, in tie order
(ascending target node).
Its cycle mean bounds every path's value from above, and the exact
replay of its lasso, a real path, is at least the cycle's pessimistic
mean: a bracket ``[r_under, r_over]`` around the true optimum whose width
is controlled by the caps, with one ultimately periodic witness path.
Karp's recurrence (:func:`karp_mean_cycle`) is the tests' reference for
Howard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from decimal import ROUND_CEILING, Context
from functools import cached_property
from operator import itemgetter
from typing import Collection, Iterable, Sequence

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
    _PairTable,
    _post_visit,
    _ranges,
    _sort_columns,
    _successors,
)
from .graph import (
    Graph,
    Lasso,
    _bfs,
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
    _agree,
    _check_param,
    _check_rescore,
    _check_threshold,
    _is_finite_number,
    _reaches,
    _step_limit,
    average_reward,
    decayed_average_reward,
    make_step_reward,
)

# Karp's table holds (m + 1) * m floats for m states; refuse sizes where
# that stops fitting comfortably in memory.
_KARP_CELL_LIMIT = 60_000_000

# Policy iteration settles in a handful of rounds on truncated graphs; the
# cap only turns a numerical livelock into an error.
_HOWARD_MAX_ITERATIONS = 1000


def _check_epsilon(epsilon: float) -> None:
    if not _is_finite_number(epsilon):
        raise InvalidInputError("epsilon must be a finite number")
    if not epsilon > 0:
        raise InvalidInputError("epsilon must be positive")


def _node_caps(spec: RewardSpec, epsilon: float, nodes: Iterable[int]) -> np.ndarray:
    """Per node, the smallest age cap that keeps its truncation error within epsilon.

    The error of capping ``v``'s age at ``K`` is
    ``lam * gamma**K / (1 - gamma)``. Nodes that generate nothing, and
    nodes outside ``nodes``, get cap 1. ``epsilon`` is checked by the
    caller. When ``epsilon * (1 - gamma) / lam`` underflows to 0, its
    logarithm is taken term by term instead.
    """
    caps = np.ones(spec.node_count, dtype=np.intp)
    for v in nodes:
        lam, gamma = spec.lam[v], spec.gamma[v]
        if lam == 0.0:
            continue
        _step_limit(lam, gamma)  # refuses gamma 1
        ratio = epsilon * (1.0 - gamma) / lam
        if ratio >= 1.0:
            continue
        if ratio > 0.0:
            log_ratio = math.log(ratio)
        else:
            log_ratio = math.log(epsilon) + math.log(1.0 - gamma) - math.log(lam)
        # The 1e-12 slack keeps exact integer boundaries from rounding up.
        caps[v] = max(1, math.ceil(log_ratio / math.log(gamma) - 1e-12))
    return caps


def truncation_depth(spec: RewardSpec, epsilon: float) -> int:
    """The largest per-node age cap that keeps truncation errors within epsilon.

    Each step collects at one node only, so capping every node at its own
    cap keeps the per-step error within epsilon; this is the largest of
    them over every node, at least 1. A solve's ``depth``, which documents
    report, is the largest cap over the nodes its start reaches on an
    infinite path only, so it can be smaller.
    """
    _check_epsilon(epsilon)
    return int(_node_caps(spec, epsilon, range(spec.node_count)).max(initial=1))


@dataclass(frozen=True)
class WeightPair:
    """Pessimistic/optimistic weights of one truncated visit-age state.

    ``cost_over``/``cost_under`` bound the true cost ``gamma ** age`` from
    above and below when the age overflowed the cap (encoded as 0);
    ``reward_under``/``reward_over`` are their collected-reward duals: the
    step reward at the cap and its limit.
    """

    cost_over: float
    cost_under: float
    reward_under: float
    reward_over: float


def weight_pair(spec: RewardSpec, state: State, depth: int) -> WeightPair:
    v, ages = state
    age, gamma = ages[v], spec.gamma[v]
    step = make_step_reward(spec.lam, spec.gamma)
    if age > 0:
        cost, exact = gamma**age, step(v, age)
        return WeightPair(cost, cost, exact, exact)
    return WeightPair(gamma**depth, 0.0, step(v, depth), _step_limit(spec.lam[v], gamma))


@dataclass(frozen=True)
class WeightTable:
    """The reward columns of :class:`WeightPair`, per ``TruncatedGraph`` state."""

    reward_under: np.ndarray
    reward_over: np.ndarray


@dataclass(frozen=True, eq=False)
class TruncatedGraph:
    """The reachable part of the truncated visit-age graph, as arrays.

    Node ``v``'s age is capped at ``caps[v]``; ``depth`` is the largest
    cap. States are numbered in BFS discovery order, so the start state
    ``initial`` is 0 and ``parent[i] < i`` for every other state ``i``.
    State ``i`` is ``node_array[i]`` with ages ``age_matrix[:, i]``; the
    matrix is C-ordered, one contiguous row of ages per node.
    ``edge_arrays`` holds ``(src, dst)`` as ``intp`` arrays, strictly
    increasing by source, then target: a state's successors are the
    consecutive states of its post-visit vector (see
    :func:`build_truncated`), one per successor of its node in adjacency
    order, so within a source target nodes and indices ascend alike. That
    order is the tie order of :func:`_howard_max_mean_cycle`, which takes
    them without a sort.
    ``parent[i]`` is the state the build's BFS first reached ``i`` from
    (``parent[0] == 0``), so its walks are the paths
    :func:`shortest_path` finds. State ``c``'s own age
    ``age_matrix[node_array[c], c]`` is 0 where it overflowed its cap. A
    cycle is exact when both weightings of :meth:`weights` agree on it.
    ``states`` (tuples) and ``state_graph`` (a :class:`Graph`) are views
    built on first read.
    """

    graph: Graph
    depth: int
    initial: int
    caps: np.ndarray = field(repr=False)
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

        Both read :func:`reward_routing.rewards.make_step_reward`, once per
        node and age: ``reward_under`` at each state's own age, or at its
        node's cap where that age overflowed, and ``reward_over`` the same
        with each overflowed entry at its node's limit ``lam / (1 - gamma)``.
        """
        n = self.graph.node_count
        if spec.node_count != n:
            raise InvalidInputError("spec size disagrees with the graph")
        nodes = self.node_array
        own_ages = self.age_matrix[nodes, np.arange(self.state_count)]
        overflowed = own_ages == 0
        steps = _PairTable(make_step_reward(spec.lam, spec.gamma), n)
        reward_under = steps(nodes, np.where(overflowed, self.caps[nodes], own_ages))
        reward_over = reward_under.copy()
        at = nodes[overflowed]
        limits = np.zeros(n)
        for v in np.flatnonzero(np.bincount(at, minlength=n)).tolist():
            limits[v] = _step_limit(spec.lam[v], spec.gamma[v])
        reward_over[overflowed] = limits[at]
        return WeightTable(reward_under, reward_over)


def build_truncated(
    g: Graph,
    v0: int,
    depth: int | Sequence[int],
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> TruncatedGraph:
    """Breadth-first expansion of the truncated visit-age graph from ``v0``.

    ``depth`` caps every node's age, or gives one cap per node. Starts at
    ``(v0, (1, ..., 1))`` and only materializes reachable states.
    Every other state is ``(w, A)``: ``A`` is the post-visit vector, the
    ages right after leaving the node ``v`` whose age in ``A`` is 1, and
    ``w`` a successor of ``v``. So a state's successors are the states of
    its own post-visit vector, one per successor of the node it leaves,
    and the BFS runs over these vectors. Each level computes one vector
    per frontier state with the visit-age engine of
    :mod:`reward_routing.finite` and sorts them with the known vectors
    left at the same nodes in one ``np.lexsort``. A vector found nowhere
    before brings all its states at once: they take the next BFS indices,
    in frontier order and each vector's in adjacency order, with the
    frontier state that first left it as parent, and form the next
    frontier. Every state's edges then run through its vector's block of
    consecutive states. In a one-node graph leaving the start gives back
    its own ages, so its block is the start itself.
    Raises :class:`StateBudgetExceededError` when a level takes the state
    count past the budget.
    """
    uniform = np.ndim(depth) == 0
    for cap in [depth] if uniform else depth:
        _check_int("truncation depth", cap)
        if cap < 1:
            raise InvalidInputError("truncation depth must be at least 1")
    caps = np.array([depth] * g.node_count if uniform else depth, dtype=np.intp)
    if len(caps) != g.node_count:
        raise InvalidInputError("truncation caps disagree with the graph")
    depth = int(caps.max(initial=1))
    _check_start(g, v0)
    csr = _csr(g)
    nodes = np.full(1, v0, dtype=csr[2].dtype)
    ages = np.ones((g.node_count, 1), dtype=_age_dtype(depth))
    # One cap per age row, in the ages' own dtype.
    cap_column = caps.astype(ages.dtype)[:, None]
    # The post-visit vectors found so far, one column each, with the node
    # each was left at and the first state of its block. In a one-node
    # graph, leaving the start gives back its own ages: the start is the
    # block of its own vector.
    one = int(g.node_count == 1)
    known, left, heads = ages[:, :one], nodes[:one], np.zeros(one, dtype=np.intp)
    # Per level, its states as (nodes, ages, parents), and the first state
    # of the block each state's edges point to.
    levels = [(nodes, ages, np.zeros(1, dtype=np.intp))]
    targets: list[np.ndarray] = []
    count = 1
    while len(nodes):
        post = _post_visit(nodes, ages, cap_column)
        # Only vectors left at the frontier's nodes can equal one of its
        # own; stability puts each known one ahead of its rediscoveries.
        at = np.zeros(g.node_count, dtype=bool)
        at[nodes] = True
        near = np.flatnonzero(at[left])
        order, fresh = _sort_columns(np.concatenate((known[:, near], post), axis=1))
        # Each run of equal vectors starts at a known one, or else at the
        # frontier state that first left it: a new vector.
        firsts = order[fresh] - len(near)
        is_new = np.zeros(len(nodes), dtype=bool)
        is_new[firsts[firsts >= 0]] = True
        added = np.flatnonzero(is_new)
        # A new vector's states are its leaver's successors: they take the
        # next indices, in frontier order, each block in adjacency order.
        sizes = csr[1][nodes[added]]
        starts = count + sizes.cumsum() - sizes
        block = np.concatenate((heads[near], np.zeros(len(nodes), dtype=np.intp)))
        block[len(near) + added] = starts
        level = np.empty(len(order), dtype=np.intp)
        level[order] = block[order[fresh]][np.cumsum(fresh) - 1]
        # A copy: a view would keep the known vectors' part alive.
        targets.append(level[len(near) :].copy())
        known = np.concatenate((known, post[:, added]), axis=1)
        left = np.concatenate((left, nodes[added]))
        heads = np.concatenate((heads, starts))
        position, succ = _successors(csr, nodes[added])
        leaver = added[position]
        parent = leaver + (count - len(nodes))
        nodes, ages = succ, post.take(leaver, axis=1)
        levels.append((nodes, ages, parent))
        count += len(nodes)
        if len(nodes) and count > state_budget:
            raise StateBudgetExceededError(
                state_budget,
                f"truncated graph at depth {depth} exceeds "
                f"{state_budget} states",
            )
    nodes, ages, parent = (np.concatenate(part, axis=-1) for part in zip(*levels))
    # Each source's edges run through its vector's block in order.
    src, dst = _ranges(np.concatenate(targets), csr[1][nodes])
    return TruncatedGraph(g, depth, 0, caps, nodes, ages, (src, dst), parent)


def _live_graph(g: Graph, v0: int) -> Graph:
    """``g`` without the edges into nodes that have no infinite path onward.

    A truncated state has its node's successors, so it reaches a cycle
    exactly when its node has an infinite path. One queue over reverse
    edges peels the nodes left without a live successor, in linear time.
    Raises :class:`NoCycleError` if ``v0`` is peeled.
    """
    _check_start(g, v0)
    degree = [len(succ) for succ in g.adjacency]
    dead = [v for v, d in enumerate(degree) if not d]
    if not dead:
        return g
    preds: list[list[int]] = [[] for _ in degree]
    for u, succ in enumerate(g.adjacency):
        for w in succ:
            preds[w].append(u)
    for v in dead:  # the queue: each peeled node appends the ones it kills
        for u in preds[v]:
            degree[u] -= 1
            if not degree[u]:
                dead.append(u)
    if not degree[v0]:
        raise NoCycleError(f"no infinite path starts at node {v0}")
    return replace(g, adjacency=tuple(tuple(w for w in s if degree[w]) for s in g.adjacency))


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
    bounds = np.searchsorted(dst_sorted, np.arange(m + 1))

    table = np.full((m + 1, m), np.inf)
    table[0, 0] = 0.0
    for n in range(1, m + 1):
        best_in = np.minimum.reduceat(table[n - 1, src_sorted], bounds[:-1])
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
        preds = src_sorted[bounds[cursor] : bounds[cursor + 1]]
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
    if not _agree(achieved, mean):
        raise SolverContractError(
            f"extracted cycle mean {achieved} disagrees with {mean}"
        )
    return sign * mean, cycle


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
    falls short of the best by at most that margin. A switch that cannot
    fire is skipped: the mean's when every state reaches the same one,
    and the successor pick where no state improves. Ties go to the
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

    def switch(value: np.ndarray, current: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        # Per state: does some successor's value beat the current one, and
        # the lowest successor that does while tying the best; None when no
        # state's does.
        best = np.maximum.reduceat(value, starts)
        raises = improves(best, current)
        if not raises.any():
            return None
        pick = improves(value, current[src]) & ~improves(best[src], value)
        return raises, first_successor(pick)

    heaviest = np.maximum.reduceat(w[dst], starts)
    policy = first_successor(w[dst] == heaviest[src])
    for _ in range(_HOWARD_MAX_ITERATIONS + 1):
        eta, bias, landing = _evaluate_policy(policy, w)
        # Improve the cycle mean reached first; among successors that
        # reach the same mean, improve the bias. Where every state reaches
        # one mean, none can raise it and every edge keeps it.
        current = bias[policy]
        if eta.min() == eta.max():
            by_eta, bias_next = None, bias[dst]
        else:
            eta_next = eta[dst]
            by_eta = switch(eta_next, eta)
            same = ~improves(eta_next, eta[src]) & ~improves(eta[src], eta_next)
            bias_next = np.where(same, bias[dst], current[src])
        by_bias = switch(bias_next, current)
        if by_eta is None and by_bias is None:
            break
        # A raised mean takes precedence over a raised bias.
        for raises, to in filter(None, (by_bias, by_eta)):
            policy = np.where(raises, to, policy)
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


@dataclass(frozen=True)
class ValueBracket:
    """Approximation bracket around the optimal limit-average reward.

    ``r_under`` is the exact long-run value of ``pi_under`` (a real path,
    hence a lower bound); ``r_over`` is the optimistic cycle mean on the
    truncated graph, an upper bound on every path's value. Their gap is
    at most the requested epsilon. A decaying solve reports the lasso of
    the optimistic cycle as both witnesses, one object.
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

    The cycle starts at its lowest state in (node, ages) order, reached
    along ``tg.parent``.
    """
    pivot = int(_sort_columns(np.vstack((tg.node_array[cycle], tg.age_matrix[:, cycle])))[0][0])
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


def _feasible_epsilon_estimate(
    spec: RewardSpec, budget: int, nodes: Collection[int], edge_count: int
) -> float:
    """An epsilon whose build fits the budget, for error messages; 0 if none.

    ``nodes`` are the ones a solve gives their own caps: capped at ``K``,
    their ages make at most ``n * (K + 1)**n`` states. At ``K`` 1 a state
    is the start or the edge into it, of ``edge_count``. The estimate is
    rounded up to three significant digits, which the message prints
    exactly: rounded down, it could take a node's cap one past the depth
    the budget fits.
    """
    n = len(nodes)
    depth = int((budget / n) ** (1.0 / n)) - 1
    if depth < 1 and edge_count >= budget:
        return 0.0
    depth = max(depth, 1)
    # Every gamma is below 1 here: the solve refused or delegated the rest.
    pairs = [(spec.lam[v], spec.gamma[v]) for v in nodes]
    estimate = max(lam * gamma**depth / (1.0 - gamma) for lam, gamma in pairs)
    return float(Context(3, ROUND_CEILING).create_decimal_from_float(estimate))


def solve_infinite_approx(
    g: Graph,
    spec: RewardSpec,
    v0: int,
    epsilon: float,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> ValueBracket:
    """Bracket the optimal limit-average reward to within ``epsilon``.

    A start with no infinite path raises :class:`NoCycleError` before any
    state is built. Otherwise builds the truncated visit-age graph on the
    nodes with one (:func:`_live_graph`), so ``state_count`` counts the
    reachable states an infinite path passes. Each node the start reaches
    there is capped at its own depth (:func:`_node_caps`), every other node
    at 1, and ``depth`` reports the largest cap. Then it runs
    :func:`_howard_max_mean_cycle` once over all of it from the initial
    state, in units of the largest rate, with the optimistic weights. That
    cycle's lasso is both witnesses, and ``r_under`` is its exact replay, so
    ``average_reward(spec, pi_under) == r_under`` holds identically. A
    cycle is exact when both weightings agree on it; then its mean is that
    replay and so the optimum: ``r_over == r_under``, and a replay off the
    mean raises :class:`SolverContractError`. Otherwise ``r_over`` is the
    cycle mean; an overflowed visit collects at most epsilon less than it
    weighs. The state budget is the only size limit. Raises
    :class:`SolverContractError` if the bracket breaks its contract (a
    width past ``epsilon`` by more than ``TOLERANCE`` times the larger
    end), and :class:`InvalidInputError` if a reward sum overflows a
    float.

    All survival probabilities must be below 1. With no decay anywhere,
    :func:`solve_nondiscounted` takes over and the bracket collapses to
    its value, with ``depth`` and ``state_count`` 0.
    """
    if spec.node_count != g.node_count:
        raise InvalidInputError("spec size disagrees with the graph")
    _check_epsilon(epsilon)
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

    live = _live_graph(g, v0)
    reached = _bfs(live, v0, ())[0]
    caps = _node_caps(spec, epsilon, reached)
    try:
        tg = build_truncated(live, v0, caps, state_budget=state_budget)
    except StateBudgetExceededError as exc:
        estimate = _feasible_epsilon_estimate(spec, state_budget, reached, live.edge_count)
        advice = f"epsilon around {estimate:.3g} should fit the budget"
        # Caps only grow as epsilon shrinks, so only a larger one can help.
        if not estimate > epsilon:
            advice = "raise the state budget"
        raise StateBudgetExceededError(state_budget, f"{exc}; {advice}") from exc
    # In units of the largest rate no weight passes 1/(1-gamma) <= 2**53.
    unit = max(spec.lam) or 1.0
    weights = tg.weights(RewardSpec(tuple(lam / unit for lam in spec.lam), spec.gamma))
    mean_over, cycle_over = _howard_max_mean_cycle(
        *tg.edge_arrays, weights.reward_over, tg.initial
    )
    # Where both weightings agree on the cycle, its weights are exact.
    exact = np.array_equal(weights.reward_under[cycle_over], weights.reward_over[cycle_over])
    mean_over *= unit
    if not math.isfinite(mean_over):
        raise InvalidInputError(_OVERFLOW)
    witness = _cycle_to_lasso(tg, cycle_over)
    r_under = average_reward(spec, witness).value
    if exact:
        # The upper bound is a real path's value, hence the optimum.
        _check_rescore(mean_over, r_under)
    # r_under is the exact value of a real path, so it never exceeds the
    # optimum; lifting r_over to it only sheds rounding noise.
    r_over = r_under if exact else max(mean_over, r_under)
    if r_over - r_under > epsilon + TOLERANCE * max(abs(r_over), abs(r_under)):
        raise SolverContractError(
            f"bracket [{r_under}, {r_over}] violates its contract at "
            f"epsilon {epsilon}"
        )
    return ValueBracket(
        r_under, r_over, witness, witness, tg.depth, r_over - r_under, tg.state_count
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
    _check_threshold(threshold)
    bracket = solve_infinite_approx(g, spec, v0, epsilon, state_budget=state_budget)
    if _reaches(bracket.r_under, threshold):
        return "yes", bracket
    if not _reaches(bracket.r_over, threshold):
        return "no", bracket
    return "unknown", bracket
