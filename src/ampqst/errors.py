"""Shared solver exceptions."""

from __future__ import annotations

__all__ = ["DivergenceError"]


class DivergenceError(RuntimeError):
    """An iterative solver produced non-finite values or a blown-up residual.

    Carries the last finite iterate, (for AMP) the trace collected up to the
    failure and (for MiFGD) the iteration that failed, so a failed run can
    still be reported.
    """

    def __init__(self, message: str, trace=None, iterate=None,
                 iterations: int | None = None):
        super().__init__(message)
        self.trace = trace
        self.iterate = iterate
        self.iterations = iterations
