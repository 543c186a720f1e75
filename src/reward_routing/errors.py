"""Exception types shared across the library."""

from __future__ import annotations


class RewardRoutingError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(RewardRoutingError, ValueError):
    """A value the caller passed is malformed, out of range or inconsistent.

    Every library check on the caller's arguments raises this class. It is
    also a ``ValueError``, so callers that catch that keep working.
    """


class EmptyPathError(InvalidInputError):
    """A path must contain at least one node."""


class BadEdgeError(InvalidInputError):
    """A node sequence takes a step that is not an edge of the graph.

    ``step`` is the index of the first offending step, i.e. the pair
    ``(nodes[step], nodes[step + 1])``.
    """

    def __init__(self, step: int, src: int, dst: int) -> None:
        self.step = step
        self.src = src
        self.dst = dst
        super().__init__(f"step {step}: ({src}, {dst}) is not an edge")


class NotStronglyConnectedError(RewardRoutingError):
    """The operation needs a strongly connected, cycle-bearing input."""


class NoCycleError(RewardRoutingError):
    """No cycle exists where one is required (e.g. no infinite path)."""


class NoPathError(RewardRoutingError):
    """No path of the requested length exists from the start node."""


class InstanceTooLargeError(RewardRoutingError):
    """Input exceeds the guard of an exponential-time operation.

    The guards exist because these operations witness NP-hard quantities;
    raise the limit explicitly if you accept the runtime.
    """


class StateBudgetExceededError(RewardRoutingError):
    """An augmented state space grew past the configured budget."""

    def __init__(self, budget: int, message: str | None = None) -> None:
        self.budget = budget
        super().__init__(message or f"state budget of {budget} states exceeded")


class SolverContractError(RewardRoutingError, RuntimeError):
    """A solver's answer failed a check the solver makes on its own output.

    This is an internal fault, never a property of the input: a witness
    that does not re-score to the reported value, a bracket that breaks
    its contract, or a mean-cycle solver that does not converge.
    """


class NodeVariantSpecError(InvalidInputError):
    """Operation is only defined for node-invariant reward parameters."""


class ProfileTableExhaustedError(RewardRoutingError):
    """A decay profile without a tail rule was read past its table."""


class ChoiceNotEdgeError(InvalidInputError):
    """A strategy chose a successor that is not connected by an edge."""


class HorizonMismatchError(InvalidInputError):
    """Simulation horizon disagrees with the length of the given path."""
