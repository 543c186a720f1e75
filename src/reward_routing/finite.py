"""Exact finite-horizon optimization by layered DP over visit-age states.

A state is ``(node, ages)`` where ``ages[u]`` is the number of steps since
``u`` was last visited (``t + 1`` if never). The ages determine every
future collection exactly, so states reached by different histories can be
merged keeping the best accumulated value. The frontier is a hash map per
layer; reachable states are typically far fewer than the crude
``(N + 1) ** node_count`` bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InstanceTooLargeError, NoPathError, StateBudgetExceededError
from .graph import Graph, Path
from .rewards import (
    TOLERANCE,
    DecayProfile,
    RewardSpec,
    RewardValue,
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


def _solve_layered(
    g: Graph,
    v0: int,
    horizon: int,
    step_reward: Callable[[int, int], float],
    state_budget: int,
    horizon_cap: int,
) -> FiniteSolution:
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


def solve_finite(
    g: Graph,
    spec: RewardSpec,
    v0: int,
    horizon: int,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
    horizon_cap: int = DEFAULT_HORIZON_CAP,
) -> FiniteSolution:
    """Optimal expected total reward over all paths of the given length.

    Returns the exact optimum and a witness path achieving it; replaying
    the witness through :func:`reward_routing.rewards.path_reward` gives
    the returned value.
    """
    if spec.node_count != g.node_count:
        raise ValueError("spec size disagrees with the graph")
    step_reward = make_step_reward(spec.lam, spec.survival_sums())
    return _solve_layered(g, v0, horizon, step_reward, state_budget, horizon_cap)


def solve_finite_decay(
    g: Graph,
    lam: Sequence[float],
    profiles: Sequence[DecayProfile],
    v0: int,
    horizon: int,
    *,
    state_budget: int = DEFAULT_STATE_BUDGET,
    horizon_cap: int = DEFAULT_HORIZON_CAP,
) -> FiniteSolution:
    """As :func:`solve_finite` but with explicit per-node decay profiles."""
    if len(lam) != g.node_count or len(profiles) != g.node_count:
        raise ValueError("lam/profiles size disagrees with the graph")
    step_reward = make_step_reward(lam, [p.sum_first for p in profiles])
    return _solve_layered(g, v0, horizon, step_reward, state_budget, horizon_cap)


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
    try:
        solution = solve_finite(g, spec, v0, horizon, state_budget=state_budget)
    except NoPathError:
        return False
    return solution.value.value >= threshold - TOLERANCE
