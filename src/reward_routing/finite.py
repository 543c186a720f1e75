"""Exact finite-horizon optimization by layered DP over visit-age states.

A state is ``(node, ages)`` where ``ages[u]`` is the number of steps since
``u`` was last visited (``t + 1`` if never). The ages determine every
future collection exactly, so states reached by different histories can be
merged keeping the best accumulated value. Reachable states are typically
far fewer than the crude ``(N + 1) ** node_count`` bound.

This module also holds the visit-age state engine that the DP shares with
the truncated graph of :mod:`reward_routing.infinite`. A layer (or BFS
frontier) is a node vector plus a row-major age matrix with one column
per state, in the narrowest unsigned dtype that holds the largest age.
Each state leaves one post-visit age column: its ages right after it
leaves its node, which fix that node and which all its successors share.
So both solvers first sort these vectors by one stable ``np.lexsort``
over their integer age rows and merge equal ones, then expand each
distinct vector once, by array operations on a CSR view of the
adjacency. The DP keeps, per vector, the first predecessor of best value
by a segmented max over its run, and then checks the members ahead of it
whose sums can round to the same value; the truncated graph expands only
the vectors it has not met before.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InstanceTooLargeError,
    InvalidInputError,
    NoPathError,
    StateBudgetExceededError,
)
from .graph import Graph, Path, _check_int, _check_start, validate_path
from .rewards import (
    DecayProfile,
    RewardSpec,
    RewardValue,
    _OVERFLOW,
    _check_param,
    _check_rescore,
    _check_threshold,
    _reaches,
    decayed_path_reward,
    make_step_reward,
)

#: Cap on reachable visit-age states, across all layers here and in the
#: truncated graph of :mod:`reward_routing.infinite`.
DEFAULT_STATE_BUDGET = 5_000_000

#: The layer loop is linear in the horizon; refuse absurd horizons.
DEFAULT_HORIZON_CAP = 1_000_000

#: A visit-age state: the current node and every node's age.
State = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class FiniteSolution:
    value: RewardValue
    witness: Path
    states_expanded: int


def _age_dtype(cap: int) -> np.dtype:
    """Narrowest unsigned dtype that holds every age up to ``cap + 1``."""
    return np.min_scalar_type(cap + 1)


def _csr(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The adjacency as ``(first, degree, targets)`` arrays.

    The successors of ``v`` are ``targets[first[v]:first[v] + degree[v]]``.
    """
    degree = np.fromiter(map(len, g.adjacency), dtype=np.intp, count=g.node_count)
    first = degree.cumsum() - degree
    targets = np.fromiter(
        chain.from_iterable(g.adjacency),
        dtype=np.min_scalar_type(g.node_count - 1),
        count=int(degree.sum()),
    )
    return first, degree, targets


def _post_visit(
    nodes: np.ndarray, ages: np.ndarray, depth: int | np.ndarray | None
) -> np.ndarray:
    """One post-visit age column per state: its ages right after it leaves.

    Leaving node ``v`` resets its age to 1 and every other age ticks up;
    under a ``depth`` cap, one for all rows or a column of one per row, an
    age that would pass it overflows to 0, and 0 stays 0. ``depth=None``
    is the uncapped DP. Every other age comes out 0 or at least 2, so a
    post-visit vector fixes the node it was left at, and with it its
    successors. The columns come out C-ordered, so each node's ages are
    one contiguous row.
    """
    post = ages.copy()
    if depth is not None:
        post *= post < depth
        post += post > 0
    else:
        post += 1
    post[nodes, np.arange(len(nodes))] = 1
    return post


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run ``i`` of ``counts[i]`` consecutive integers from ``starts[i]``.

    Returns ``(owner, index)``: the runs back to back, in order, with the
    ``i`` each entry belongs to.
    """
    owner = np.arange(len(counts)).repeat(counts)
    index = np.arange(len(owner)) + (starts - counts.cumsum() + counts).repeat(counts)
    return owner, index


def _successors(
    csr: tuple[np.ndarray, np.ndarray, np.ndarray], nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every successor of every node, as ``(position, successor)``.

    Successors come grouped by position in ``nodes``, in order, and each
    node's in adjacency order, which is ascending.
    """
    first, degree, targets = csr
    position, edge = _ranges(first[nodes], degree[nodes])
    return position, targets[edge]


def _sort_columns(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column order of an integer matrix and, per position, whether it starts a run.

    One stable ``np.lexsort`` by the rows, the first row first, so equal
    columns form runs in input order. Rows equal in every column cannot
    change the order and are left out of the sort; when no row is left,
    every column is equal and the order is the input order.
    """
    count = keys.shape[1]
    fresh = np.empty(count, dtype=bool)
    fresh[:1] = True
    if count < 2:
        return np.arange(count), fresh
    # ufunc reductions: np.any costs several times more on small layers.
    keys = keys[np.logical_or.reduce(keys != keys[:, :1], axis=1)]
    order = np.lexsort(keys[::-1]) if len(keys) else np.arange(count)
    ordered = keys.take(order, axis=1)
    np.logical_or.reduce(ordered[:, 1:] != ordered[:, :-1], axis=0, out=fresh[1:])
    return order, fresh


class _PairTable:
    """``fn(node, age)`` per array element, each pair computed on first use.

    Only pairs that a lookup asks for are computed, so an ``fn`` that fails
    past some age (a decay profile without a tail) fails only once a state
    reaches that age. The table is laid out age-major and grows with the
    largest age asked for.
    """

    def __init__(self, fn: Callable[[int, int], float], node_count: int) -> None:
        self._fn = fn
        self._node_count = node_count
        self._values = np.zeros(16 * node_count)
        self._known = np.zeros(16 * node_count, dtype=bool)

    def __call__(self, nodes: np.ndarray, ages: np.ndarray) -> np.ndarray:
        index = ages.astype(np.intp)
        index *= self._node_count
        index += nodes
        size = len(self._known)
        if len(index) and index.max() >= size:
            size = max(2 * size, int(index.max()) + 1)
            values = np.zeros(size)
            values[: len(self._values)] = self._values
            known = np.zeros(size, dtype=bool)
            known[: len(self._known)] = self._known
            self._values, self._known = values, known
        for i in sorted(set(index[~self._known[index]].tolist())):
            age, node = divmod(i, self._node_count)
            self._values[i] = self._fn(node, age)
            self._known[i] = True
        return self._values[index]


def _solve_layered(
    g: Graph,
    v0: int,
    horizon: int,
    step_reward: Callable[[int, int], float],
    state_budget: int,
) -> FiniteSolution:
    _check_start(g, v0)
    _check_int("horizon", horizon)
    if horizon < 0:
        raise InvalidInputError("horizon must be non-negative")
    if horizon > DEFAULT_HORIZON_CAP:
        raise InstanceTooLargeError(
            f"horizon {horizon} exceeds the layer-loop cap of {DEFAULT_HORIZON_CAP}"
        )
    csr = _csr(g)
    steps = _PairTable(step_reward, g.node_count)
    nodes = np.full(1, v0, dtype=csr[2].dtype)
    ages = np.ones((g.node_count, 1), dtype=_age_dtype(horizon))
    values = steps(nodes, ages[v0])
    # Each layer is sorted by state; per layer, the nodes and the index of
    # each state's predecessor in the previous layer.
    layer_nodes = [nodes]
    parents = []
    total_states = 1

    # An overflowing sum turns inf and is refused after the loop.
    with np.errstate(over="ignore"):
        for _ in range(horizon):
            # Each state's successors are the states of its post-visit
            # vector, and a successor's value is its predecessor's plus a
            # step that the vector and the successor node fix. So the
            # predecessors are merged by vector first, and each distinct
            # vector is expanded once.
            post = _post_visit(nodes, ages, None)
            order, fresh = _sort_columns(post)
            merged = np.count_nonzero(fresh) < len(fresh)
            if not merged:
                # Small solves mostly leave no vector twice; skipping the
                # selection keeps their per-layer cost at the sort's.
                kept = order
            else:
                # The best sum wins; ties keep the smallest predecessor in
                # state order, the order each run of equal vectors lists
                # its members in. Pick the run's first member of largest
                # value: every run holds one, so the first such position
                # at or after a run's start is the run's own.
                starts = np.flatnonzero(fresh)
                ranked = values[order]
                best = np.maximum.reduceat(ranked, starts)
                run = np.cumsum(fresh) - 1
                hits = np.flatnonzero(ranked == best[run])
                firsts = hits[np.searchsorted(hits, starts)]
                kept = order[firsts]
            # One entry per successor state, by vector in age order.
            vector, succ = _successors(csr, nodes[kept])
            parent = kept[vector]
            step = steps(succ, post[succ, parent])
            gained = values[parent] + step
            if not len(succ):
                raise NoPathError(
                    f"no path of length {horizon} from node {v0}"
                )
            total_states += len(succ)
            if total_states > state_budget:
                raise StateBudgetExceededError(state_budget)
            if merged:
                # A member ahead of its run's pick has a smaller value, yet
                # its rounded sum with a step can equal the pick's, and
                # then it wins the tie for that successor. Two sums round
                # alike only if the values lie within one spacing of the
                # larger sum, so only members within two are compared,
                # per successor; the smallest one that ties wins.
                ahead = np.flatnonzero(np.arange(len(order)) < firsts[run])
                top = best[run[ahead]]
                apart = top - ranked[ahead] > 2 * np.spacing(top + step.max())
                near = ahead[~apart]
                if len(near):
                    member, entry = _ranges(
                        np.searchsorted(vector, run[near]), csr[1][nodes[order[near]]]
                    )
                    near = near[member]
                    tie = ranked[near] + step[entry] == gained[entry]
                    np.minimum.at(parent, entry[tie], order[near[tie]])
            # Stable by node, so (node, ages): the layer in state order.
            layer = np.argsort(succ, kind="stable")
            parent, nodes, values = parent[layer], succ[layer], gained[layer]
            ages = post.take(parent, axis=1)
            layer_nodes.append(nodes)
            parents.append(parent)

    # argmax takes the first best state, the smallest in state order.
    cursor = int(values.argmax())
    best_value = float(values[cursor])
    if not np.isfinite(best_value):
        raise InvalidInputError(_OVERFLOW)
    route = [int(nodes[cursor])]
    for t in range(horizon, 0, -1):
        cursor = int(parents[t - 1][cursor])
        route.append(int(layer_nodes[t - 1][cursor]))
    route.reverse()
    return FiniteSolution(
        RewardValue(best_value, "finite_sum", horizon=horizon),
        Path(tuple(route)),
        total_states,
    )


def solve_finite(
    g: Graph,
    spec: RewardSpec,
    v0: int,
    horizon: int,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> FiniteSolution:
    """Optimal expected total reward over all paths of the given length.

    Returns the exact optimum and a witness path achieving it; the
    witness replays to the value, as :func:`solve_finite_decay` checks.
    """
    return solve_finite_decay(g, spec.lam, spec.gamma, v0, horizon, state_budget=state_budget)


def solve_finite_decay(
    g: Graph,
    lam: Sequence[float],
    decays: Sequence[float | DecayProfile],
    v0: int,
    horizon: int,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> FiniteSolution:
    """As :func:`solve_finite` with a γ or a :class:`DecayProfile` per node.

    ``decays[v]`` is node ``v``'s survival probability ``gamma`` or its
    profile; :func:`solve_finite` is this solver with γ values only.
    ``lam`` and each γ are checked as
    :class:`reward_routing.rewards.RewardSpec` checks them, so no state's
    value can be NaN. The witness is validated and replayed by
    :func:`reward_routing.rewards.decayed_path_reward`; a disagreeing
    replay raises :class:`SolverContractError`.
    """
    if len(lam) != g.node_count or len(decays) != g.node_count:
        raise InvalidInputError("spec size disagrees with the graph")
    for v, value in enumerate(lam):
        _check_param("lam", v, value)
    for v, decay in enumerate(decays):
        if not isinstance(decay, DecayProfile):
            _check_param("gamma", v, decay)
    solution = _solve_layered(g, v0, horizon, make_step_reward(lam, decays), state_budget)
    validate_path(g, solution.witness.nodes)
    replay = decayed_path_reward(decays, lam, solution.witness)
    _check_rescore(solution.value.value, replay.value)
    return solution


def decide_finite_value(
    g: Graph,
    spec: RewardSpec,
    v0: int,
    horizon: int,
    threshold: float,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> bool:
    """Whether the optimal reward over the horizon reaches the threshold.

    False when no path of the requested length exists at all.
    """
    _check_threshold(threshold)
    try:
        solution = solve_finite(g, spec, v0, horizon, state_budget=state_budget)
    except NoPathError:
        return False
    return _reaches(solution.value.value, threshold)
