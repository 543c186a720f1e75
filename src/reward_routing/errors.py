"""Exception types shared across the library."""

from __future__ import annotations


class RewardRoutingError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(RewardRoutingError, ValueError):
    """A value the caller passed is malformed, out of range or inconsistent.

    Every library check on the caller's arguments raises this class. It is
    also a ``ValueError``, so callers that catch that keep working.
    """


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


class ProfileTableExhaustedError(RewardRoutingError):
    """A decay profile without a tail rule was read past its table."""
