"""Exception types shared across the package, and the one size budget.

Every mathematically meaningful failure carries the exact integers that
witness it, so callers (and the CLI) can print deficits instead of guesses.
Work whose size is known in advance is checked against GROWTHFORGE_BUDGET
before anything is allocated.
"""

import os

DEFAULT_BUDGET = 5_000_000


def size_budget() -> int:
    """GROWTHFORGE_BUDGET, or DEFAULT_BUDGET when unset; not a positive integer is a ValueError."""
    raw = os.environ.get("GROWTHFORGE_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise ValueError(f"GROWTHFORGE_BUDGET must be a positive integer, got {raw!r}")


class GrowthForgeError(Exception):
    """Base class for all package errors."""


class UncoveredArgument(GrowthForgeError):
    """A table-backed growth function was evaluated outside its support."""

    def __init__(self, n: int):
        super().__init__(f"growth table has no value at n={n}")
        self.n = n


class HorizonTooSmall(GrowthForgeError):
    """No admissible threshold level exists within the verified horizon.

    Raised both when the horizon is genuinely too small and when the growth
    family analytically never satisfies the dominance inequality; the two are
    indistinguishable from a finite check.
    """

    def __init__(self, message: str, t: int, horizon: int):
        super().__init__(message)
        self.t = t
        self.horizon = horizon


class InsufficientWords(GrowthForgeError):
    """A choice set needs more admissible words than the level provides."""

    def __init__(self, level: int, required: int, available: int):
        super().__init__(
            f"level {level}: need {required} admissible words, only {available} exist"
        )
        self.level = level
        self.required = required
        self.available = available

    @property
    def deficit(self) -> int:
        return self.required - self.available


class CapacityExceeded(GrowthForgeError):
    """A free-subalgebra level cannot hold all required power products."""

    def __init__(self, level: int, required: int, available: int):
        super().__init__(
            f"level {level}: must include {required} products but |C| = {available}"
            f" (deficit {required - available})"
        )
        self.level = level
        self.required = required
        self.available = available

    @property
    def deficit(self) -> int:
        return self.required - self.available


class BudgetExceeded(GrowthForgeError):
    """Work of a size known in advance would exceed GROWTHFORGE_BUDGET."""

    def __init__(self, needed: int, budget: int, what: str, unit: str):
        super().__init__(f"{what} needs {needed} {unit}, budget is {budget}"
                         f" (deficit {needed - budget})")
        self.needed = needed
        self.budget = budget

    @property
    def deficit(self) -> int:
        return self.needed - self.budget


def require_budget(needed: int, what: str, unit: str) -> None:
    """Refuse work of `needed` units over the budget, stating the exact deficit."""
    budget = size_budget()
    if needed > budget:
        raise BudgetExceeded(needed, budget, what, unit)


class DepthTooShallow(GrowthForgeError):
    """Requested factor length exceeds what the build depth certifies."""

    def __init__(self, n: int, max_n: int):
        super().__init__(f"factor length {n} exceeds certified maximum {max_n}")
        self.n = n
        self.max_n = max_n


class SystemFileError(GrowthForgeError):
    """A persisted system file is unreadable, tampered, or inconsistent."""
