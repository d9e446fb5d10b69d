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
by Monte Carlo: the mean over random Hermitian probes h of the exact
derivative Re <h, Df(v)[h]> (see ``SpectralDerivative``). ``A~ = s A`` and
``y~ = s y`` are the raw Pauli map and data rescaled by s = sqrt(d/M), so that
the Gram operator is an identity on average. The rescaling belongs to AMP:
``amp_step`` applies s as a scalar to the raw SensingMap and data, which
stay unscaled everywhere else. Without it (``normalize=False``, s = 1) the
iteration blows up, which run_amp reports as a DivergenceError.

Denoisers: ``svt`` soft-shrinks the eigenvalue magnitudes (singular value
thresholding specialized to Hermitian matrices), and ``psvt`` composes it
with the projection onto the density-matrix set, so every damped iterate is
a valid state. Both are spectral functions evaluated from one ``eigh`` of
the pseudo-data, so an iteration does a single eigendecomposition.

Each run owns its mutable state; the shared SensingMap is read-only, so
independent runs (trials, seeds) parallelize freely.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .pauli import SensingMap, apply_adjoint, apply_sensing
from .states import as_rng, factor_density, nmse, state_fidelity

__all__ = [
    "AmpConfig",
    "AmpState",
    "AmpTrace",
    "SpectralDerivative",
    "spectral_denoise",
    "svt",
    "psvt",
    "DENOISERS",
    "estimate_onsager",
    "hermitian_probe",
    "amp_step",
    "run_amp",
]

_SIGMA_BLOWUP = 1e6   # sigma_t above this multiple of sigma_0 counts as divergence
DENOISERS = ("svt", "psvt")


@dataclass(frozen=True)
class SpectralDerivative:
    """Derivative of a spectral denoiser ``f(H) = V diag(w(lam)) V^dagger``.

    By the Daleckii-Krein / Lewis formula, along a Hermitian h with
    ``h~ = V^dagger h V`` and ``a = Re diag(h~)``, Re <h, Df(H)[h]>_F =
    sum_{i != j} gamma_ij |h~_ij|^2 + a^T J a, where
    gamma_ij = (w_i - w_j) / (lam_i - lam_j) and J = dw/dlam.
    """

    vecs: np.ndarray
    gamma: np.ndarray       # zero diagonal
    jac: np.ndarray

    def probe(self, h: np.ndarray) -> float:
        """Exact ``Re <h, Df(H)[h]>_F`` for a Hermitian direction ``h``."""
        ht = self.vecs.conj().T @ h @ self.vecs
        a = ht.diagonal().real
        return float(np.sum(self.gamma * (ht.real ** 2 + ht.imag ** 2))
                     + a @ self.jac @ a)


def spectral_denoise(H: np.ndarray, tau: float, project: bool):
    """``(f(H), SpectralDerivative)`` for ``svt`` or, with ``project``, ``psvt``.

    One eigendecomposition: soft-threshold the eigenvalues to
    ``s = sign(lam) (|lam| - tau)_+``; ``svt`` keeps ``w = s``, ``psvt`` keeps
    the positive ``s`` divided by their sum, or returns I/d when none is
    positive, as ``project_to_density`` does.
    """
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    lam, vecs = np.linalg.eigh(np.asarray(H, dtype=np.complex128))
    d = lam.size
    w = np.sign(lam) * np.clip(np.abs(lam) - tau, 0.0, None)
    # the linear piece of the threshold each eigenvalue lies on, and its slope
    piece = (w > 0.0) if project else np.sign(w)
    slope = np.abs(piece).astype(np.float64)
    jac = np.diag(slope)
    if project:
        total = w[piece].sum()
        if total == 0.0:
            zeros = np.zeros((d, d))
            return (np.eye(d, dtype=np.complex128) / d,
                    SpectralDerivative(vecs, zeros, zeros))
        w = np.where(piece, w / total, 0.0)
        slope /= total
        jac = np.diag(slope) - np.outer(w, slope)
    # Within one piece the divided difference is that piece's slope; across
    # pieces the eigenvalues differ, so the quotient is safe from ties.
    same = piece[:, None] == piece[None, :]
    gamma = np.where(same, slope[:, None],
                     (w[:, None] - w[None, :])
                     / np.where(same, 1.0, lam[:, None] - lam[None, :]))
    np.fill_diagonal(gamma, 0.0)
    V = vecs[:, w != 0.0]
    out = (V * w[w != 0.0]) @ V.conj().T
    return 0.5 * (out + out.conj().T), SpectralDerivative(vecs, gamma, jac)


def svt(H: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding of a Hermitian matrix.

    The singular values of a Hermitian H are |lambda_k| with singular vector
    pairs sign(lambda_k) |psi_k><psi_k|, so one eigendecomposition gives
    sum_k sign(lambda_k) (|lambda_k| - tau)_+ |psi_k><psi_k| exactly.
    """
    return spectral_denoise(H, tau, project=False)[0]


def psvt(H: np.ndarray, tau: float) -> np.ndarray:
    """Projected SVT: threshold, then project onto the density-matrix set.

    Equals ``project_to_density(svt(H, tau))`` from a single decomposition.
    """
    return spectral_denoise(H, tau, project=True)[0]


@dataclass
class AmpConfig:
    """Solver hyperparameters.

    ``damping`` is the convex blending weight lam; ``damping=1`` runs the
    undamped update. ``denoiser`` names one of ``DENOISERS`` in any case and
    is stored lower-cased. ``mc_samples`` is the number of
    Hermitian probes averaged per Onsager estimate, drawn from a generator
    seeded by ``seed``; each probe's directional derivative is exact, so
    the only randomness is the probe itself.
    ``normalize=True`` rescales map and data by sqrt(d/M) inside each step;
    disabling it runs the raw (divergent) baseline.
    """

    alpha: float = 2.0
    damping: float = 0.01
    max_iter: int = 2000
    mc_samples: int = 1
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
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be at least 1")
        self.denoiser = self.denoiser.lower()
        if self.denoiser not in DENOISERS:
            raise ValueError(f"unknown denoiser {self.denoiser!r}")


@dataclass
class AmpState:
    """One solver state: iterate rho_t plus the residual bookkeeping.

    ``residual`` is r_{t-1} as seen from the next step (the residual computed
    while producing ``rho``); ``tau`` holds tau_{t-1}, and ``derivative`` the
    denoiser's derivative at v_{t-1} that the next Onsager estimate probes.
    """

    rho: np.ndarray
    residual: np.ndarray
    onsager: float
    sigma: float
    tau: float
    t: int
    derivative: SpectralDerivative | None = None


@dataclass
class AmpTrace:
    """Per-iteration diagnostics, exportable as CSV."""

    sigma: list = field(default_factory=list)
    tau: list = field(default_factory=list)
    onsager: list = field(default_factory=list)
    residual_norm: list = field(default_factory=list)
    nmse: list | None = None
    fidelity: list | None = None
    diverged: bool = False

    def __len__(self):
        return len(self.sigma)

    def to_csv(self, path) -> None:
        cols = ["t", "sigma", "tau", "onsager", "residual_norm"]
        if self.nmse is not None:
            cols += ["nmse", "fidelity"]
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for t in range(len(self)):
                row = [t, f"{self.sigma[t]:.17g}", f"{self.tau[t]:.17g}",
                       f"{self.onsager[t]:.17g}", f"{self.residual_norm[t]:.17g}"]
                if self.nmse is not None:
                    row += [f"{self.nmse[t]:.17g}", f"{self.fidelity[t]:.17g}"]
                writer.writerow(row)


def hermitian_probe(rng: np.random.Generator, d: int) -> np.ndarray:
    """Hermitian random probe with unit second moment in every entry.

    Off-diagonal entries are CN(0,1) (conjugate-paired), diagonal entries
    real N(0,1), so E||h||_F^2 = d^2 exactly as for an unconstrained CN(0,1)
    matrix. Keeping the probe Hermitian keeps the perturbed pseudo-data in
    the denoiser's domain.
    """
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2.0


def estimate_onsager(denoiser, v_prev: np.ndarray, tau_prev: float, M: int,
                     epsilon: float, k: int, seed) -> float:
    """Monte Carlo estimate of the normalized denoiser divergence.

    Averages ``Re <h, f(v + eps h) - f(v)>_F / eps`` over ``k`` Hermitian
    probes ``h`` and divides by ``M``: the paper's finite-difference probe,
    kept as the reference for the exact ``SpectralDerivative.probe``.
    """
    if epsilon <= 0:
        raise ValueError("probe scale must be positive")
    if k < 1:
        raise ValueError("need at least one probe sample")
    rng = as_rng(seed)
    d = v_prev.shape[0]
    f_v = denoiser(v_prev, tau_prev)
    total = 0.0
    for _ in range(k):
        h = hermitian_probe(rng, d)
        diff = denoiser(v_prev + epsilon * h, tau_prev) - f_v
        total += float(np.sum((h.conj() * diff).real)) / epsilon
    return total / (M * k)


def _check_finite(*arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def amp_step(state: AmpState, smap: SensingMap, y: np.ndarray,
             config: AmpConfig, rng: np.random.Generator) -> AmpState:
    """Advance the AMP iteration by one step.

    ``smap`` is the raw map and ``y`` the raw data; with ``config.normalize``
    both are rescaled here by s = sqrt(d/M). Raises DivergenceError on
    non-finite values.
    """
    d, M = smap.d, smap.M
    s = float(np.sqrt(d / M)) if config.normalize else 1.0

    if state.derivative is None:
        c_hat = 0.0
    else:
        # The probe measures the divergence over the d^2-dimensional Hermitian
        # subspace; the residual recursion needs it over the full complex
        # matrix space (2 d^2 real coordinates), which for a spectral denoiser
        # is twice that. Without the factor the damped and undamped dynamics
        # collapse onto each other and the damping step loses its effect.
        total = sum(state.derivative.probe(hermitian_probe(rng, d))
                    for _ in range(config.mc_samples))
        c_hat = 2.0 * total / (M * config.mc_samples)

    r = s * y - s * apply_sensing(smap, state.rho) + c_hat * state.residual
    sigma = float(np.linalg.norm(r) / np.sqrt(M))
    tau = config.alpha * sigma * np.sqrt(d)
    v = state.rho + apply_adjoint(smap, s * r)
    if not _check_finite(r, v):
        raise DivergenceError(f"non-finite values at iteration {state.t}",
                              iterate=state.rho)
    denoised, derivative = spectral_denoise(v, tau, config.denoiser == "psvt")
    rho_next = config.damping * denoised + (1.0 - config.damping) * state.rho
    if not _check_finite(rho_next):
        raise DivergenceError(f"non-finite iterate at iteration {state.t}",
                              iterate=state.rho)
    return AmpState(rho=rho_next, residual=r, onsager=c_hat, sigma=sigma,
                    tau=tau, t=state.t + 1, derivative=derivative)


def initial_state(smap: SensingMap) -> AmpState:
    """rho_0 = I/d, r_{-1} = 0."""
    d, M = smap.d, smap.M
    return AmpState(rho=np.eye(d, dtype=np.complex128) / d,
                    residual=np.zeros(M), onsager=0.0, sigma=0.0, tau=0.0, t=0)


def run_amp(smap: SensingMap, y: np.ndarray, config: AmpConfig,
            ground_truth: np.ndarray | None = None):
    """Run the AMP solver and return ``(rho_hat, trace)``.

    ``smap`` is the raw map and ``y`` holds raw sample means. With
    ``config.normalize`` (the default) each step rescales both by sqrt(d/M);
    with it disabled they are used as given (the divergent baseline). Raises
    DivergenceError (carrying the trace so far and the last finite iterate)
    on blow-up.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (smap.M,):
        raise ValueError("data vector length does not match the map")

    rng = as_rng(config.seed)
    trace = AmpTrace()
    if ground_truth is not None:
        trace.nmse = []
        trace.fidelity = []
        truth = factor_density(ground_truth)

    state = initial_state(smap)
    sigma0 = None
    try:
        for _ in range(config.max_iter):
            state = amp_step(state, smap, y, config, rng)
            trace.sigma.append(state.sigma)
            trace.tau.append(state.tau)
            trace.onsager.append(state.onsager)
            trace.residual_norm.append(state.sigma * np.sqrt(smap.M))
            if ground_truth is not None:
                trace.nmse.append(nmse(ground_truth, state.rho))
                trace.fidelity.append(state_fidelity(truth, state.rho))
            if sigma0 is None:
                sigma0 = state.sigma
            elif sigma0 > 0 and state.sigma > _SIGMA_BLOWUP * sigma0:
                raise DivergenceError(
                    f"residual blow-up at iteration {state.t}: "
                    f"sigma={state.sigma:.3g} vs sigma_0={sigma0:.3g}",
                    iterate=state.rho)
    except DivergenceError as err:
        trace.diverged = True
        err.trace = trace
        raise
    return state.rho, trace
