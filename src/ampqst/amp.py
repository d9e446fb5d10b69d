"""Approximate message passing for low-rank density-matrix recovery.

The iteration alternates a residual update with an Onsager correction, a
pseudo-data step through the adjoint of the rescaled sensing map, and a
low-rank denoiser:

    r_t   = y~ - A~(rho_t) + c_t * r_{t-1}
    v_t   = rho_t + A~^dagger(r_t)
    rho_{t+1} = lam * denoise(v_t; tau_t) + (1 - lam) * rho_t

with threshold tau_t = alpha * sigma_t * sqrt(d), sigma_t = ||r_t||_2 / sqrt(M),
starting from rho_0 = I/d and r_{-1} = 0. The Onsager coefficient c_t is the
normalized divergence of the denoiser at the previous pseudo-data, estimated
by Monte Carlo: the exact derivative Re <h, Df(v)[h]> along one random
Hermitian probe h per iteration (see ``states.SpectralDerivative``).
``A~ = s A`` and ``y~ = s y`` are the raw Pauli map and data rescaled by
s = sqrt(d/M), so that the Gram operator is an identity on average. The rescaling belongs to AMP:
``amp_step`` applies s as a scalar to the raw SensingMap and data, which
stay unscaled everywhere else. Without it (``normalize=False``, s = 1) the
iteration blows up, which run_amp returns as a result with ``diverged`` True.

This module holds the iteration only: config, state, trace, step and loop.
The denoiser, ``svt`` or ``psvt`` with its derivative, is
``states.spectral_denoise`` of the pseudo-data, the only O(d^3) step: one
``eigh`` below d = 128, for ``svt`` and at the first iteration. From d = 128
on, ``psvt`` is warm-started from the previous step's derivative and finds
only its k kept eigenpairs within a cap on its sweeps, certified by one
Cholesky factorization, with ``eigh`` whenever they cannot be certified; its
probe then takes one batched Cholesky of k bordered matrices. The map is
applied unchecked to Hermitian iterates; ``AmpTrace`` takes fidelities from
r x r grams.

Each step's probe takes its standard normals from the run's generator:
2 d^2 of them below d = 128, and from d = 128 on 2 k (k + d), which draw
only the k x d rows of the probe's direction that the derivative reads
(``SpectralDerivative.probe_shape``). The package makes no thread.

Each run owns its mutable state; the shared SensingMap is read-only, so
independent runs (trials, seeds) parallelize freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import SensingMap, _adjoint, _check_data, _sense
from .states import (DensityFactor, SpectralDerivative, as_density, as_rng,
                     gram_fidelities, spectral_denoise)

__all__ = [
    "AmpConfig",
    "AmpState",
    "AmpTrace",
    "DENOISERS",
    "amp_step",
    "run_amp",
]

_SIGMA_BLOWUP = 1e6   # sigma_t above this multiple of sigma_0 counts as divergence
_PENDING_GRAM_ENTRIES = 2 ** 16   # bounds the r x r grams awaiting one eigvalsh
DENOISERS = ("svt", "psvt")


@dataclass
class AmpConfig:
    """Solver hyperparameters.

    ``damping`` is the convex blending weight lam; ``damping=1`` runs the
    undamped update. ``denoiser`` names one of ``DENOISERS`` in any case and
    is stored lower-cased. Each Onsager estimate takes one Hermitian probe,
    drawn from a generator seeded by ``seed``; the probe's directional
    derivative is exact, so the only randomness is the probe itself.
    ``normalize=True`` rescales map and data by sqrt(d/M) inside each step;
    disabling it runs the raw (divergent) baseline.
    """

    alpha: float = 2.0
    damping: float = 0.01
    max_iter: int = 2000
    denoiser: str = "psvt"
    normalize: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        self.denoiser = self.denoiser.lower()
        if self.denoiser not in DENOISERS:
            raise ValueError(f"unknown denoiser {self.denoiser!r}")


@dataclass
class AmpState:
    """One solver state: iterate rho_t plus the residual bookkeeping.

    ``residual`` is r_{t-1} as seen from the next step (the residual computed
    while producing ``rho``); ``tau`` holds tau_{t-1}, and ``derivative`` the
    denoiser's derivative at v_{t-1} that the next Onsager estimate probes
    and the next denoiser call starts from.
    """

    rho: np.ndarray
    residual: np.ndarray
    onsager: float
    sigma: float
    tau: float
    t: int
    derivative: SpectralDerivative | None = None


class AmpTrace:
    """Per-iteration diagnostics of one ``run_amp`` call as float64 columns.

    Built by the caller from the truth's ``factor_density`` rho = B B^dagger,
    for the ``nmse`` and ``fidelity`` columns, or without one. ``run_amp``
    records each state, whose fidelity waits as the r x r gram B^dagger rho_t B
    for one stacked eigvalsh, and closes it to its columns and ``diverged``.
    """

    def __init__(self, truth: DensityFactor | None = None):
        self.nmse = self.fidelity = None
        self._steps, self._grams, self._nmse, self._fids = [], [], [], []
        self._truth = None if truth is None else (
            truth.rho, truth.factor.conj().T, truth.factor, np.linalg.norm(truth.rho) ** 2)

    def __len__(self):
        return len(self.sigma)

    def record(self, state: AmpState, physical: bool) -> None:
        """Append a state; ``physical`` says its iterate is a density matrix."""
        self._steps.extend((state.sigma, state.tau, state.onsager))
        if self._truth is not None:
            truth, Bh, B, truth_sq = self._truth
            # states.nmse without its per-call checks
            self._nmse.append(np.linalg.norm(state.rho - truth) ** 2 / truth_sq)
            self._grams.append(Bh @ (state.rho if physical else as_density(state.rho)) @ B)
            if len(self._grams) * len(Bh) ** 2 >= _PENDING_GRAM_ENTRIES:
                self._flush()

    def _flush(self) -> None:
        if self._grams:
            self._fids.extend(gram_fidelities(np.stack(self._grams), len(self._truth[0])))
            self._grams.clear()

    def close(self, M: int, diverged: bool) -> None:
        """Build the columns for a map of ``M`` observables; drop the rest."""
        self._flush()
        self.sigma, self.tau, self.onsager = np.array(self._steps).reshape(-1, 3).T.copy()
        self.residual_norm, self.diverged = self.sigma * np.sqrt(M), diverged
        if self._truth is not None:
            self.nmse, self.fidelity = np.array(self._nmse), np.array(self._fids)
        for name in [k for k in vars(self) if k.startswith("_")]:
            delattr(self, name)


def amp_step(state: AmpState, smap: SensingMap, y: np.ndarray,
             config: AmpConfig, rng: np.random.Generator) -> AmpState:
    """Advance the AMP iteration by one step.

    ``smap`` is the raw map and ``y`` the raw data; with ``config.normalize``
    both are rescaled here by s = sqrt(d/M). Raises FloatingPointError on
    non-finite values.
    """
    d, M = smap.d, smap.M
    s = math.sqrt(d / M) if config.normalize else 1.0

    if state.derivative is None:
        c_hat = 0.0
    else:
        # The probe measures the divergence over the d^2-dimensional Hermitian
        # subspace; the residual recursion needs it over the full complex
        # matrix space (2 d^2 real coordinates), which for a spectral denoiser
        # is twice that. Without the factor the damped and undamped dynamics
        # collapse onto each other and the damping step loses its effect.
        # Below d = 128, normals are drawn even when nothing is kept: one
        # stream for all k.
        derivative = state.derivative
        c_hat = 2.0 * derivative.probe(rng.standard_normal(derivative.probe_shape)) / M

    r = s * y - s * _sense(smap, state.rho) + c_hat * state.residual
    sigma = math.sqrt(r @ r) / math.sqrt(M)
    tau = config.alpha * sigma * math.sqrt(d)
    v = state.rho + _adjoint(smap, s * r)
    try:    # the denoiser rejects a non-finite v or tau (r enters both)
        rho_next, derivative = spectral_denoise(v, tau, config.denoiser == "psvt",
                                                state.derivative)
    except ValueError as err:
        raise FloatingPointError(f"non-finite values at iteration {state.t}") from err
    rho_next *= config.damping
    rho_next += (1.0 - config.damping) * state.rho
    if not np.isfinite(rho_next).all():
        raise FloatingPointError(f"non-finite iterate at iteration {state.t}")
    return AmpState(rho=rho_next, residual=r, onsager=c_hat, sigma=sigma,
                    tau=tau, t=state.t + 1, derivative=derivative)


def initial_state(smap: SensingMap) -> AmpState:
    """rho_0 = I/d, r_{-1} = 0."""
    d, M = smap.d, smap.M
    return AmpState(rho=np.eye(d, dtype=np.complex128) / d,
                    residual=np.zeros(M), onsager=0.0, sigma=0.0, tau=0.0, t=0)


def run_amp(smap: SensingMap, y: np.ndarray, config: AmpConfig,
            trace: AmpTrace | None = None):
    """Run the AMP solver; returns ``(rho_hat, iterations, diverged)``.

    ``smap`` is the raw map and ``y`` holds raw sample means. With
    ``config.normalize`` (the default) each step rescales both by sqrt(d/M);
    with it disabled they are used as given (the divergent baseline). The run
    stops after ``config.max_iter`` updates or when it blows up: a non-finite
    step, or sigma_t far above sigma_0. ``rho_hat`` is the last finite
    iterate and ``iterations`` the updates completed. A ``trace`` records
    each state and is closed once, with ``diverged``.
    """
    y = _check_data(smap, y)
    rng = as_rng(config.seed)
    state = initial_state(smap)
    diverged = False
    for _ in range(config.max_iter):
        try:
            state = amp_step(state, smap, y, config, rng)
        except FloatingPointError:
            diverged = True
            break
        if trace is not None:
            trace.record(state, config.denoiser == "psvt")   # PSVT's are states
        sigma0 = state.sigma if state.t == 1 else sigma0
        diverged = sigma0 > 0 and state.sigma > _SIGMA_BLOWUP * sigma0
        if diverged:
            break
    if trace is not None:
        trace.close(smap.M, diverged)
    return state.rho, state.t, diverged
