"""Seeded Monte Carlo oracle for the reward process.

Simulates the mechanism the closed forms summarize: at every step each
node generates reward units, every uncollected unit independently survives
one step with its node's probability, and arriving at a node collects
everything waiting there. Poisson generation realizes a stochastic process
with the right mean; deterministic mode propagates expected masses instead
and reproduces the closed forms exactly.

Randomness comes from the counter-based Philox generator, with one
substream per (seed, trial block), so identical configurations give
bit-identical results regardless of how blocks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .graph import Graph, Lasso, Path, _check_int, validate_path
from .rewards import RewardSpec

_GENERATION_MODES = ("poisson", "deterministic")

#: Trials are simulated in blocks of this size, one RNG substream each.
TRIAL_BLOCK = 65536

# Expected units per trial stay below this, so the int64 unit counts have
# room for Poisson spread and every rate is below numpy's limit of ~9.2e18.
_UNIT_LIMIT = 2.0**62


@dataclass(frozen=True)
class SimConfig:
    """Trial count, seed, generation mode, and (optional) horizon."""

    trials: int
    seed: int
    generation: str = "poisson"
    horizon: int | None = None

    def __post_init__(self) -> None:
        _check_int("trials", self.trials)
        _check_int("seed", self.seed)
        if self.horizon is not None:
            _check_int("horizon", self.horizon)
        if self.trials < 1:
            raise InvalidInputError("at least one trial required")
        if self.generation not in _GENERATION_MODES:
            raise InvalidInputError(
                f"generation must be one of {_GENERATION_MODES}, "
                f"got {self.generation!r}"
            )


@dataclass(frozen=True)
class SimResult:
    mean: float
    stderr: float
    trials: int
    seed: int


def _substream(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _deterministic_total(spec: RewardSpec, route: Sequence[int]) -> float:
    """Propagate expected masses: generate, collect at the visit, decay."""
    mass = [0.0] * spec.node_count
    collected = 0.0
    for t, visited in enumerate(route):
        for v in range(spec.node_count):
            mass[v] += spec.lam[v]
        collected += mass[visited]
        mass[visited] = 0.0
        if t < len(route) - 1:
            for v in range(spec.node_count):
                mass[v] *= spec.gamma[v]
    if not math.isfinite(collected):
        raise InvalidInputError("simulated reward overflows a float; scale lambda down")
    return collected


def _poisson_totals(
    spec: RewardSpec, route: Sequence[int], trials: int, seed: int
) -> np.ndarray:
    """Per-trial collected unit counts, simulated mechanistically."""
    n = spec.node_count
    lam = np.asarray(spec.lam, dtype=np.float64)
    gamma = np.asarray(spec.gamma, dtype=np.float64)
    decaying = np.flatnonzero(gamma < 1.0)
    totals = np.empty(trials, dtype=np.int64)
    steps = len(route)
    # A sum past the float range is inf, which the limit refuses anyway.
    with np.errstate(over="ignore"):
        too_large = lam.sum() * steps > _UNIT_LIMIT
    if too_large:
        v = int(lam.argmax())
        raise InvalidInputError(
            f"lam[{v}] = {lam[v]:g} is too large for Poisson simulation over {steps} "
            "steps: its unit counts overflow; scale lambda down or use deterministic mode"
        )
    for block_index, start in enumerate(range(0, trials, TRIAL_BLOCK)):
        size = min(TRIAL_BLOCK, trials - start)
        rng = _substream(seed, block_index)
        counts = np.zeros((size, n), dtype=np.int64)
        block_total = np.zeros(size, dtype=np.int64)
        for t, visited in enumerate(route):
            counts += rng.poisson(lam=lam, size=(size, n))
            block_total += counts[:, visited]
            counts[:, visited] = 0
            if t < steps - 1 and decaying.size:
                counts[:, decaying] = rng.binomial(
                    counts[:, decaying], gamma[decaying]
                )
        totals[start : start + size] = block_total
    return totals


def _summarize(totals: np.ndarray, cfg: SimConfig) -> SimResult:
    mean = float(np.mean(totals))
    if len(totals) > 1:
        stderr = float(np.std(totals, ddof=1) / math.sqrt(len(totals)))
    else:
        stderr = 0.0
    return SimResult(mean, stderr, cfg.trials, cfg.seed)


def simulate_finite_reward(
    g: Graph, spec: RewardSpec, p: Path, cfg: SimConfig
) -> SimResult:
    """Monte Carlo estimate of the total reward collected along a path.

    The expectation equals the closed-form path reward; deterministic
    generation returns that value with zero spread.
    """
    if spec.node_count != g.node_count:
        raise InvalidInputError("spec size disagrees with the graph")
    validate_path(g, p.nodes)
    if cfg.horizon is not None and cfg.horizon != p.length:
        raise InvalidInputError(
            f"config horizon {cfg.horizon} but the path has length {p.length}"
        )
    if cfg.generation == "deterministic":
        value = _deterministic_total(spec, p.nodes)
        return SimResult(value, 0.0, cfg.trials, cfg.seed)
    totals = _poisson_totals(spec, p.nodes, cfg.trials, cfg.seed)
    return _summarize(totals, cfg)


def simulate_average_reward(
    g: Graph, spec: RewardSpec, lasso: Lasso, cfg: SimConfig
) -> SimResult:
    """Monte Carlo estimate of the per-step reward of an ultimately periodic path.

    Unrolls the lasso to the configured horizon, simulates the finite
    total, and divides by the number of visits. The horizon must cover the
    cycle at least a hundred times for the average to be close to its limit.
    """
    if spec.node_count != g.node_count:
        raise InvalidInputError("spec size disagrees with the graph")
    if cfg.horizon is None:
        raise InvalidInputError("average-reward simulation needs a horizon")
    if cfg.horizon < 100 * len(lasso.cycle):
        raise InvalidInputError(
            f"horizon {cfg.horizon} too short; need at least "
            f"{100 * len(lasso.cycle)} steps for this cycle"
        )
    route = lasso.unroll(cfg.horizon)
    validate_path(g, route)
    visits = cfg.horizon + 1
    if cfg.generation == "deterministic":
        value = _deterministic_total(spec, route) / visits
        return SimResult(value, 0.0, cfg.trials, cfg.seed)
    totals = _poisson_totals(spec, route, cfg.trials, cfg.seed)
    summary = _summarize(totals, cfg)
    return SimResult(
        summary.mean / visits, summary.stderr / visits, cfg.trials, cfg.seed
    )
