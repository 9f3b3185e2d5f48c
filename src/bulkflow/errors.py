"""Exceptions shared across modules."""

from __future__ import annotations


class BudgetExceeded(Exception):
    """An exponential construction or oracle was refused; carries the size needed."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class InstanceError(ValueError):
    """Malformed or unsupported instance input."""


class StepLimitExceeded(RuntimeError):
    """An arrival was not covered within the solver's growth-step cap."""

    def __init__(self, pair: int, cap: int):
        super().__init__(f"pair {pair} was not covered within the cap of "
                         f"{cap} growth steps")
        self.pair = pair
        self.cap = cap
