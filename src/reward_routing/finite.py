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
The successors of every state come out of array operations on a CSR view
of the adjacency. Equal states are found by one stable ``np.lexsort``
over the integer node and age keys only; the DP then keeps one state per
run of equals by a segmented max over the run.
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


def _expand(
    csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    nodes: np.ndarray,
    ages: np.ndarray,
    depth: int | np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every successor of every state, as ``(predecessor, nodes, ages)``.

    Successors come grouped by predecessor, in state order, and each
    state's in adjacency order. Leaving ``v`` resets its age to 1 and every
    other age ticks up; under a ``depth`` cap, one for all rows or a column
    of one per row, an age that would pass it overflows to 0, and 0 stays
    0. ``depth=None`` is the uncapped DP. The age matrix comes out
    C-ordered, so each node's ages are one contiguous row.
    """
    first, degree, targets = csr
    degree = degree[nodes]
    pred = np.arange(len(nodes)).repeat(degree)
    slots = np.arange(len(pred))
    # Slot i of predecessor p reads edge first[v] + i - (slots before p).
    succ = targets[slots + (first[nodes] - degree.cumsum() + degree).repeat(degree)]
    succ_ages = ages.take(pred, axis=1)
    if depth is not None:
        succ_ages *= succ_ages < depth
        succ_ages += succ_ages > 0
    else:
        succ_ages += 1
    succ_ages[nodes[pred], slots] = 1
    return pred, succ, succ_ages


def _sort_states(nodes: np.ndarray, ages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """State order and, per sorted position, whether it starts a new state.

    One stable ``np.lexsort`` by node, then ages, then position, all
    integer keys: equal states come out in input order. Age rows that are
    equal in every state cannot change the order and are left out of the
    sort.
    """
    ages = ages[(ages != ages[:, :1]).any(axis=1)]
    order = np.lexsort((*ages[::-1], nodes))
    fresh = np.empty(len(order), dtype=bool)
    fresh[:1] = True
    ordered = nodes[order]
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    ordered = ages.take(order, axis=1)
    fresh[1:] |= (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
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
            pred, succ, succ_ages = _expand(csr, nodes, ages, None)
            gained = values[pred] + steps(succ, succ_ages[succ, np.arange(len(succ))])
            order, fresh = _sort_states(succ, succ_ages)
            if fresh.all():
                # Small solves mostly have no duplicates; skipping the
                # selection here keeps their per-layer cost at the sort's.
                keep = order
            else:
                # The best value wins; ties keep the smallest predecessor, which
                # is the lexicographically smallest since the layer is sorted.
                # A run of equal states lists its members by predecessor, so
                # keep its first position that holds the run's maximum: every
                # run holds one, so the first such position at or after a
                # run's start is the run's own.
                starts = np.flatnonzero(fresh)
                ranked = gained[order]
                best = np.maximum.reduceat(ranked, starts)
                hits = np.flatnonzero(ranked == best.repeat(np.diff(starts, append=len(order))))
                keep = order[hits[np.searchsorted(hits, starts)]]
            if not len(keep):
                raise NoPathError(
                    f"no path of length {horizon} from node {v0}"
                )
            total_states += len(keep)
            if total_states > state_budget:
                raise StateBudgetExceededError(state_budget)
            nodes, ages, values = succ[keep], succ_ages.take(keep, axis=1), gained[keep]
            layer_nodes.append(nodes)
            parents.append(pred[keep])

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
