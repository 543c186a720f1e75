"""The reward algebra for decaying, accumulating node rewards.

Each node ``v`` generates an expected reward ``lam[v]`` per step; an
uncollected reward survives one more step with probability ``gamma[v]``.
Visiting a node collects everything that accumulated there since the
previous visit. The closed forms here evaluate finite paths exactly and
ultimately periodic paths in their steady state.

Closed forms are preferred over naive geometric summation, except very
close to ``gamma = 1`` where the explicit sum avoids cancellation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InvalidInputError, ProfileTableExhaustedError, SolverContractError
from .graph import Graph, Lasso, Path, longest_simple_cycle

#: Why a reward sum too large for a float is refused; only huge rates cause one.
_OVERFLOW = "collected reward overflows a float; scale lambda down"

_FLOAT_MAX = sys.float_info.max

# Below this distance from 1 the closed form (1 - g**q) / (1 - g) loses
# precision to cancellation; sum explicitly instead.
_NEAR_ONE = 1e-6

#: Relative comparison tolerance: two values agree when they differ by at
#: most ``TOLERANCE`` times the larger magnitude, in any unit of the rates.
TOLERANCE = 1e-9


def _agree(a: float, b: float) -> bool:
    """Whether ``a`` and ``b`` agree within ``TOLERANCE`` times the larger one."""
    return abs(a - b) <= TOLERANCE * max(abs(a), abs(b))


def _reaches(value: float, threshold: float) -> bool:
    """Whether ``value`` reaches ``threshold`` within ``TOLERANCE`` times its size."""
    return value >= threshold - TOLERANCE * abs(threshold)


def geometric_series(gamma: float, count: int) -> float:
    """Sum of ``gamma ** j`` for ``j in range(count)``, stable near 1."""
    if count <= 0:
        return 0.0
    if gamma == 1.0:
        return float(count)
    if 1.0 - gamma < _NEAR_ONE:
        return math.fsum(gamma**j for j in range(count))
    return (1.0 - gamma**count) / (1.0 - gamma)


def _is_finite_number(value: object) -> bool:
    """Whether ``value`` is a real number in the float range; booleans,
    NaN, the infinities and integers past the largest float are not."""
    try:
        return -_FLOAT_MAX <= value <= _FLOAT_MAX and type(value) is not bool
    except (TypeError, ValueError):
        return False


def _check_threshold(threshold: float) -> None:
    """Refuse a decision threshold that is not a finite number."""
    if not _is_finite_number(threshold):
        raise InvalidInputError("threshold must be a finite number")


def _check_param(name: str, v: int, value: float) -> None:
    """Refuse ``lam[v]`` or ``gamma[v]`` unless it is a finite number in range.

    A rate must be non-negative and a survival probability lie in (0, 1].
    """
    if not _is_finite_number(value):
        raise InvalidInputError(f"{name}[{v}] must be a finite number")
    if name == "lam":
        if value < 0:
            raise InvalidInputError(f"lam[{v}] must be non-negative")
    elif not 0.0 < value <= 1.0:
        raise InvalidInputError(f"gamma[{v}] must lie in (0, 1]")


@dataclass(frozen=True)
class RewardSpec:
    """Per-node expected generation rates and survival probabilities."""

    lam: tuple[float, ...]
    gamma: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lam) != len(self.gamma):
            raise InvalidInputError("lam and gamma must have equal length")
        if not self.lam:
            raise InvalidInputError("spec needs at least one node")
        for name, values in (("lam", self.lam), ("gamma", self.gamma)):
            for v, value in enumerate(values):
                _check_param(name, v, value)

    @staticmethod
    def uniform(node_count: int, lam: float, gamma: float) -> "RewardSpec":
        return RewardSpec((lam,) * node_count, (gamma,) * node_count)

    @property
    def node_count(self) -> int:
        return len(self.lam)

    def uniform_gamma(self) -> float:
        """The shared survival probability; errors if it varies by node."""
        if len(set(self.gamma)) != 1:
            raise InvalidInputError("gamma differs between nodes")
        return self.gamma[0]

    def uniform_lambda(self) -> float:
        if len(set(self.lam)) != 1:
            raise InvalidInputError("lam differs between nodes")
        return self.lam[0]


@dataclass(frozen=True)
class RewardValue:
    """A reward amount tagged with its flavor.

    ``kind`` is ``"finite_sum"`` (total over a horizon, which is then set)
    or ``"limit_average"`` (per-step long-run average).
    """

    value: float
    kind: str
    horizon: int | None = None


def make_step_reward(
    lam: Sequence[float], decays: Sequence[float | DecayProfile]
) -> Callable[[int, int], float]:
    """``(node, age) -> lam[node] * (sum of age survival fractions)``.

    This is the reward one visit collects. ``decays[v]`` is node ``v``'s
    survival probability ``gamma``, summed by :func:`geometric_series`, or
    its :class:`DecayProfile`, summed by :meth:`DecayProfile.sum_first`.
    Only the nodes actually scored are read; nothing is cached.
    """

    def step(v: int, age: int) -> float:
        decay = decays[v]
        if isinstance(decay, DecayProfile):
            return lam[v] * decay.sum_first(age)
        return lam[v] * geometric_series(decay, age)

    return step


def _step_limit(lam: float, gamma: float) -> float:
    """``lam / (1 - gamma)``, the step reward's limit; refuses ``gamma`` 1."""
    if gamma >= 1.0:
        raise InvalidInputError("survival probability 1 cannot be truncated")
    return lam / (1.0 - gamma)


def _collected(
    lam: Sequence[float],
    decays: Sequence[float | DecayProfile],
    nodes: Sequence[int],
    ages: Sequence[int],
) -> float:
    """Exact total of the step rewards of the visits ``zip(nodes, ages)``.

    Every solver re-scores its witness here, so a total too large for a
    float, or a node without a rate, is refused as the input's fault.
    """
    covered = min(len(lam), len(decays))
    v = min(nodes) if min(nodes) < 0 else max(nodes)
    if not 0 <= v < covered:
        raise InvalidInputError(
            f"node {v} has no rate: lam and decays cover {covered} nodes"
        )
    try:
        total = math.fsum(map(make_step_reward(lam, decays), nodes, ages))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise InvalidInputError(_OVERFLOW)
    return total


def _check_rescore(reported: float, replayed: float) -> None:
    """Raise :class:`SolverContractError` if a witness replays off its value."""
    if not _agree(reported, replayed):
        raise SolverContractError(
            f"witness re-scores to {replayed}, solver reported {reported}"
        )


def _visit_ages(nodes: Sequence[int]) -> list[int]:
    """Age of the occupied node at each position (single forward pass)."""
    seen: dict[int, int] = {}
    ages = []
    for t, v in enumerate(nodes):
        ages.append(t - seen[v] if v in seen else t + 1)
        seen[v] = t
    return ages


def path_reward(spec: RewardSpec, p: Path) -> RewardValue:
    """Total expected reward collected along a finite path."""
    return decayed_path_reward(spec.gamma, spec.lam, p)


def _steady_cycle_ages(lasso: Lasso) -> list[int]:
    """Per-position visit ages over one steady period of the lasso.

    From the second period on, every cycle node was last visited inside the
    previous period, so the ages of period two repeat forever and the prefix
    never affects them.
    """
    return _visit_ages(lasso.cycle * 2)[len(lasso.cycle) :]


def average_reward(spec: RewardSpec, lasso: Lasso) -> RewardValue:
    """Exact limit-average expected reward of an ultimately periodic path."""
    return decayed_average_reward(spec.gamma, spec.lam, lasso)


def decayed_average_reward(
    decays: Sequence[float | DecayProfile], lam: Sequence[float], lasso: Lasso
) -> RewardValue:
    """Exact limit-average expected reward of a lasso under per-node decays.

    The average over one steady period of the cycle; the prefix only
    shifts which period is steady and never affects the value. ``decays``
    is read as by :func:`decayed_path_reward`; with ``gamma`` values this
    is :func:`average_reward`.
    """
    total = _collected(lam, decays, lasso.cycle, _steady_cycle_ages(lasso))
    return RewardValue(total / len(lasso.cycle), "limit_average")


@dataclass(frozen=True)
class DecayProfile:
    """An explicit decay sequence: fraction of a reward left after ``i`` steps.

    ``table`` starts at 1 and decreases strictly. Past the table the profile
    follows the tail rule: ``"geometric"`` continues from the last entry
    with the given ratio, ``"zero"`` drops to nothing, and ``None`` means
    reading past the table is an error.
    """

    table: tuple[float, ...]
    tail: str | None = None
    ratio: float | None = None

    def __post_init__(self) -> None:
        for i, value in enumerate(self.table):
            if not _is_finite_number(value):
                raise InvalidInputError(f"table[{i}] must be a finite number")
        if self.ratio is not None and not _is_finite_number(self.ratio):
            raise InvalidInputError("ratio must be a finite number")
        if not self.table or self.table[0] != 1.0:
            raise InvalidInputError("profile table must start at 1.0")
        for i in range(1, len(self.table)):
            if not 0.0 < self.table[i] < self.table[i - 1]:
                raise InvalidInputError("profile table must decrease strictly toward 0")
        if self.tail not in (None, "geometric", "zero"):
            raise InvalidInputError(f"unknown tail rule {self.tail!r}")
        if self.tail == "geometric":
            if self.ratio is None or not 0.0 < self.ratio < 1.0:
                raise InvalidInputError("geometric tail needs a ratio in (0, 1)")
        elif self.ratio is not None:
            raise InvalidInputError("ratio only applies to the geometric tail")
        # Cumulative sums of the table for O(1) prefix queries.
        acc, sums = 0.0, []
        for value in self.table:
            acc += value
            sums.append(acc)
        object.__setattr__(self, "_table_sums", tuple(sums))

    @staticmethod
    def geometric(gamma: float) -> "DecayProfile":
        """The multiplicative profile ``gamma ** i`` (requires ``gamma < 1``)."""
        return DecayProfile((1.0,), tail="geometric", ratio=gamma)

    def value(self, i: int) -> float:
        """Remaining fraction after ``i`` steps of decay."""
        if i < 0:
            raise InvalidInputError("decay index must be non-negative")
        if i < len(self.table):
            return self.table[i]
        if self.tail == "zero":
            return 0.0
        if self.tail == "geometric":
            assert self.ratio is not None
            return self.table[-1] * self.ratio ** (i - len(self.table) + 1)
        raise ProfileTableExhaustedError(
            f"profile table has {len(self.table)} entries, index {i} requested"
        )

    def sum_first(self, count: int) -> float:
        """Sum of the first ``count`` profile values."""
        if count <= 0:
            return 0.0
        sums: tuple[float, ...] = self._table_sums  # type: ignore[attr-defined]
        if count <= len(self.table):
            return sums[count - 1]
        if self.tail == "zero":
            return sums[-1]
        if self.tail == "geometric":
            assert self.ratio is not None
            extra = count - len(self.table)
            return sums[-1] + self.table[-1] * self.ratio * geometric_series(
                self.ratio, extra
            )
        raise ProfileTableExhaustedError(
            f"profile table has {len(self.table)} entries, {count} values requested"
        )


def decayed_path_reward(
    decays: Sequence[float | DecayProfile], lam: Sequence[float], p: Path
) -> RewardValue:
    """Total expected reward along a path under per-node decays.

    Each visit collects ``lam[v]`` units generated at the current and the
    previous ``age - 1`` steps, decayed by ``profile(0) .. profile(age-1)``.
    ``decays[v]`` is node ``v``'s survival probability ``gamma`` or its
    :class:`DecayProfile`, as in :func:`make_step_reward`. With ``gamma``
    values this is :func:`path_reward`; a geometric profile reproduces it.
    """
    total = _collected(lam, decays, p.nodes, _visit_ages(p.nodes))
    return RewardValue(total, "finite_sum", horizon=p.length)


def average_reward_bounds(g: Graph, spec: RewardSpec) -> tuple[float, float]:
    """Bounds on the optimal limit-average reward, from the step reward.

    Lower bound: the value of repeating a longest simple cycle (length
    ``p``), a visit at age ``p``; upper bound: a visit at the full node
    count. Uses the exact cycle search, so only suitable at desk scale.
    Node-invariant parameters required.
    """
    spec.uniform_gamma()
    spec.uniform_lambda()
    step = make_step_reward(spec.lam, spec.gamma)
    return step(0, longest_simple_cycle(g).length), step(0, g.node_count)
