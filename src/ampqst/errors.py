"""Shared solver exceptions."""

from __future__ import annotations

__all__ = ["DivergenceError"]


class DivergenceError(RuntimeError):
    """An iterative solver produced non-finite values or a blown-up residual.

    Carries the last finite iterate and the iteration count (AMP: the steps
    completed; MiFGD: the failing iteration), so a failed run of either
    solver is reported the same way.
    """

    def __init__(self, message: str, *, iterate, iterations: int):
        super().__init__(message)
        self.iterate = iterate
        self.iterations = iterations
