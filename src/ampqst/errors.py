"""Shared solver exceptions."""

from __future__ import annotations

__all__ = ["DivergenceError"]


class DivergenceError(RuntimeError):
    """An iterative solver produced non-finite values or a blown-up residual.

    Carries the last finite iterate, the iteration count (AMP: the steps
    completed; MiFGD: the failing iteration) and AMP's trace up to the
    failure, so a failed run of either solver is reported the same way.
    """

    def __init__(self, message: str, trace=None, iterate=None,
                 iterations: int | None = None):
        super().__init__(message)
        self.trace = trace
        self.iterate = iterate
        self.iterations = iterations
