"""Optimal reward collection on directed graphs with decaying rewards.

Nodes generate rewards at a fixed expected rate; uncollected rewards
survive each step with a per-node probability. The library computes exact
finite-horizon optima, brackets the optimal long-run average to any
precision with witness paths, solves the no-decay case exactly, searches
bounded-memory strategies, and ships a seeded Monte Carlo oracle plus a
CLI for reproducible runs.
"""

from .errors import (
    InstanceTooLargeError,
    InvalidInputError,
    NoCycleError,
    NoPathError,
    NotStronglyConnectedError,
    ProfileTableExhaustedError,
    RewardRoutingError,
    SolverContractError,
    StateBudgetExceededError,
)
from .finite import (
    FiniteSolution,
    decide_finite_value,
    solve_finite,
    solve_finite_decay,
)
from .graph import (
    Graph,
    Lasso,
    Path,
    covering_cycle,
    longest_simple_cycle,
    scc_decompose,
    shortest_path,
    validate_lasso,
    validate_path,
)
from .infinite import (
    NondiscountedSolution,
    TruncatedGraph,
    ValueBracket,
    WeightPair,
    build_truncated,
    decide_infinite_value,
    karp_mean_cycle,
    solve_infinite_approx,
    solve_nondiscounted,
    truncation_depth,
    weight_pair,
)
from .memory import (
    BoundedMemorySolution,
    FiniteStrategy,
    MemoryStructure,
    outcome,
    solve_bounded_memory,
)
from .rewards import (
    TOLERANCE,
    DecayProfile,
    RewardSpec,
    RewardValue,
    average_reward,
    average_reward_bounds,
    decayed_average_reward,
    decayed_path_reward,
    geometric_series,
    path_reward,
)
from .simulate import (
    SimConfig,
    SimResult,
    simulate_average_reward,
    simulate_finite_reward,
)

__version__ = "0.1.0"

__all__ = [
    "BoundedMemorySolution",
    "DecayProfile",
    "FiniteSolution",
    "FiniteStrategy",
    "Graph",
    "InstanceTooLargeError",
    "InvalidInputError",
    "Lasso",
    "MemoryStructure",
    "NoCycleError",
    "NoPathError",
    "NondiscountedSolution",
    "NotStronglyConnectedError",
    "Path",
    "ProfileTableExhaustedError",
    "RewardRoutingError",
    "RewardSpec",
    "RewardValue",
    "SimConfig",
    "SimResult",
    "SolverContractError",
    "StateBudgetExceededError",
    "TOLERANCE",
    "TruncatedGraph",
    "ValueBracket",
    "WeightPair",
    "average_reward",
    "average_reward_bounds",
    "build_truncated",
    "covering_cycle",
    "decayed_average_reward",
    "decayed_path_reward",
    "decide_finite_value",
    "decide_infinite_value",
    "geometric_series",
    "karp_mean_cycle",
    "longest_simple_cycle",
    "outcome",
    "path_reward",
    "scc_decompose",
    "shortest_path",
    "simulate_average_reward",
    "simulate_finite_reward",
    "solve_bounded_memory",
    "solve_finite",
    "solve_finite_decay",
    "solve_infinite_approx",
    "solve_nondiscounted",
    "truncation_depth",
    "validate_lasso",
    "validate_path",
    "weight_pair",
]
