"""Shared exception types."""


class CycletreeError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceededError(CycletreeError):
    """An oracle level has more points than the budget or the oracle's size cap."""

    def __init__(self, required: int, budget: int, limit: str = "budget"):
        self.required = required
        self.budget = budget
        super().__init__(f"budget exceeded: {required} points required, {limit} is {budget}")


class InvariantError(CycletreeError, AssertionError):
    """A structural invariant of the lift theory or of the oracle failed; the
    message names p, the map, the level and the cycle rep where known."""

    def __init__(self, what: str, p=None, fmap=None, level=None, rep=None):
        self.p, self.fmap, self.level, self.rep = p, fmap, level, rep
        context = ", ".join(f"{name}={value}" for name, value in zip(
            ("p", "map", "level", "rep"), (p, fmap, level, rep)) if value is not None)
        super().__init__(f"invariant violated: {what} [{context}]")


class NotACycleError(CycletreeError):
    """The residues handed in do not form a cycle of the stated length."""


class BadReductionError(CycletreeError):
    """A rational map was evaluated where its denominator vanishes mod p."""

    def __init__(self, x: int, p: int):
        self.x = x
        self.p = p
        super().__init__(f"bad reduction: denominator vanishes mod {p} at x = {x}")


class NotPeriodicError(CycletreeError):
    """A point claimed to be periodic is not, or the period is wrong."""


class SeparationError(CycletreeError):
    """Separation analysis is not applicable to the given data."""
