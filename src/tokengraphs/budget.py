"""Resource budgets shared by the exact solvers.

A solve that runs out of its budget raises :class:`BudgetExceededError`; it
never degrades to a guessed answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


class BudgetExceededError(RuntimeError):
    """Raised when a solver runs out of its time or node budget.

    The solver never degrades to a suboptimal answer; it aborts instead.
    """


@dataclass(frozen=True)
class Budget:
    """Per-call resource ceiling for the exact solvers."""

    seconds: float | None = None
    node_limit: int | None = None


class _BudgetClock:
    __slots__ = ("deadline", "node_limit", "nodes")

    def __init__(self, budget: Budget | None):
        self.nodes = 0
        self.deadline = None
        self.node_limit = None
        if budget is not None:
            if budget.seconds is not None:
                self.deadline = time.monotonic() + budget.seconds
            self.node_limit = budget.node_limit

    def tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise BudgetExceededError(f"search aborted after {self.nodes} nodes")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError(f"search aborted on time budget after {self.nodes} nodes")
