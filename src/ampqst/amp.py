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
Hermitian probe h per iteration (see ``SpectralDerivative``). ``A~ = s A`` and
``y~ = s y`` are the raw Pauli map and data rescaled by s = sqrt(d/M), so that
the Gram operator is an identity on average. The rescaling belongs to AMP:
``amp_step`` applies s as a scalar to the raw SensingMap and data, which
stay unscaled everywhere else. Without it (``normalize=False``, s = 1) the
iteration blows up, which run_amp reports as a DivergenceError.

Denoisers: ``svt`` soft-shrinks the eigenvalue magnitudes (singular value
thresholding specialized to Hermitian matrices), and ``psvt`` composes it
with the projection onto the density-matrix set, so every damped iterate is
a valid state. Both are spectral functions evaluated from one ``eigh`` of
the pseudo-data, the only O(d^3) step of an iteration; a probe of their
derivative costs O(k d^2) for k kept eigenvalues. The loop applies the map
unchecked to Hermitian iterates; ``AmpTrace`` takes fidelities from r x r grams.

Each run owns its mutable state; the shared SensingMap is read-only, so
independent runs (trials, seeds) parallelize freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .pauli import SensingMap, _adjoint, _check_data, _sense
from .states import DensityFactor, as_density, as_rng, check_hermitian, gram_fidelities

__all__ = [
    "AmpConfig",
    "AmpState",
    "AmpTrace",
    "SpectralDerivative",
    "spectral_denoise",
    "svt",
    "psvt",
    "DENOISERS",
    "amp_step",
    "run_amp",
]

_SIGMA_BLOWUP = 1e6   # sigma_t above this multiple of sigma_0 counts as divergence
_PENDING_GRAM_ENTRIES = 2 ** 16   # bounds the r x r grams awaiting one eigvalsh
DENOISERS = ("svt", "psvt")


@dataclass(frozen=True)
class SpectralDerivative:
    """Derivative of a spectral denoiser ``f(H) = V diag(w(lam)) V^dagger``.

    By the Daleckii-Krein / Lewis formula, along a Hermitian h with
    ``h~ = V^dagger h V`` and ``a = Re diag(h~)``, Re <h, Df(H)[h]>_F =
    sum_{i != j} gamma_ij |h~_ij|^2 + a^T J a, where
    gamma_ij = (w_i - w_j) / (lam_i - lam_j) and J = dw/dlam. Both vanish
    off K = {i : w_i != 0}, so ``gamma`` keeps only rows K, zero on the
    diagonal and doubled at (i in K, j not in K) for (j, i); on K,
    J = slope (I - c 1^T) with ``coupling`` c = w (psvt) or 0 (svt).
    ``vkh`` is V_K^dagger, the kept eigenvectors as contiguous rows.
    """

    vecs: np.ndarray
    vkh: np.ndarray
    gamma: np.ndarray
    slope: float
    coupling: np.ndarray

    def probe(self, z: np.ndarray) -> float:
        """Exact ``Re <h, Df(H)[h]>_F`` in O(k d^2), from the standard normals
        ``z = (re, im)`` of shape (2, d, d) that give the Hermitian direction
        ``h = ((re + re^T) + i (im - im^T)) / 2``."""
        h2 = np.empty(z.shape[1:], dtype=np.complex128)      # 2h
        np.add(z[0], z[0].T, out=h2.real)
        np.subtract(z[1], z[1].T, out=h2.imag)
        left = self.vkh @ h2                                  # rows K of 2 V^dagger h
        rows = left @ self.vecs                               # rows K of 2 h~
        # Re of the K x K diagonal of 2 h~: row sums of left * conj(V_K^dagger)
        a = (left.view(np.float64) * self.vkh.view(np.float64)).sum(axis=1)
        value = np.vdot(rows, self.gamma * rows).real
        return 0.25 * float(value + self.slope * (a @ (a - self.coupling @ a)))


def spectral_denoise(H: np.ndarray, tau: float, project: bool):
    """``(f(H), SpectralDerivative)`` for ``svt`` or, with ``project``, ``psvt``.

    One eigendecomposition: soft-threshold the eigenvalues to
    ``s = sign(lam) (|lam| - tau)_+``; ``svt`` keeps ``w = s``, ``psvt`` keeps
    the positive ``s`` divided by their sum, or returns I/d when none is
    positive, as ``project_to_density`` does. Raises ValueError on a
    negative or non-finite threshold and on a non-finite matrix; ``svt`` and
    ``psvt`` check Hermiticity, ``amp_step``'s v is Hermitian by construction.
    """
    if not 0.0 <= tau < np.inf:
        raise ValueError("threshold must be nonnegative and finite")
    H = np.asarray(H, dtype=np.complex128)
    if not np.isfinite(H).all():
        raise ValueError("matrix must be finite")
    lam, vecs = np.linalg.eigh(H)
    d = lam.size
    # The eigenvalues ascend, so K is two tails, each on one linear piece of
    # the threshold: lam[:lo] < -tau (svt only) and lam[hi:] > tau.
    hi = int(lam.searchsorted(tau, "right"))
    lo = 0 if project else int(lam.searchsorted(-tau))
    kept = np.r_[:lo, hi:d] if lo else slice(hi, d)
    lk, vk = lam[kept], vecs[:, kept]
    wk = lk - np.copysign(tau, lk)
    k, slope = wk.size, 1.0
    if project and k:
        total = wk.sum()
        wk, slope = wk / total, 1.0 / total
    # Within one piece the divided difference is the slope; across pieces
    # the eigenvalues differ, so the quotients are safe from ties.
    gamma = np.full((k, d), slope)
    gamma[:, lo:hi] = 2.0 * wk[:, None] / (lk[:, None] - lam[lo:hi])  # for (j, i) too
    if lo:
        gamma[:lo, hi:] = (wk[:lo, None] - wk[lo:]) / (lk[:lo, None] - lk[lo:])
        gamma[lo:, :lo] = gamma[:lo, hi:].T
    np.fill_diagonal(gamma[:lo, :lo], 0.0)     # entries (i, kept[i]) are J's
    np.fill_diagonal(gamma[lo:, hi:], 0.0)
    vkh = np.conjugate(vk.T, order="C")
    derivative = SpectralDerivative(vecs, vkh, gamma, slope,
                                    wk if project else np.zeros(k))
    if project and not k:
        return np.eye(d, dtype=np.complex128) / d, derivative
    out = (vk * wk) @ vkh
    return 0.5 * (out + out.conj().T), derivative


def svt(H: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding of a Hermitian matrix.

    The singular values of a Hermitian H are |lambda_k| with singular vector
    pairs sign(lambda_k) |psi_k><psi_k|, so one eigendecomposition gives
    sum_k sign(lambda_k) (|lambda_k| - tau)_+ |psi_k><psi_k| exactly. Refuses
    a matrix that is not finite, or not Hermitian within 1e-8.
    """
    return spectral_denoise(check_hermitian(H, 1e-8), tau, project=False)[0]


def psvt(H: np.ndarray, tau: float) -> np.ndarray:
    """Projected SVT: threshold, then project onto the density-matrix set.

    Equals ``project_to_density(svt(H, tau))`` from a single decomposition,
    and refuses the matrices that ``project_to_density`` refuses.
    """
    return spectral_denoise(check_hermitian(H, 1e-8), tau, project=True)[0]


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
    denoiser's derivative at v_{t-1} that the next Onsager estimate probes.
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
    both are rescaled here by s = sqrt(d/M). Raises DivergenceError on
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
        # Normals are drawn even when nothing is kept: one stream for all k.
        c_hat = 2.0 * state.derivative.probe(rng.standard_normal((2, d, d))) / M

    r = s * y - s * _sense(smap, state.rho) + c_hat * state.residual
    sigma = math.sqrt(r @ r) / math.sqrt(M)
    tau = config.alpha * sigma * math.sqrt(d)
    v = state.rho + _adjoint(smap, s * r)
    try:    # the denoiser rejects a non-finite v or tau (r enters both)
        rho_next, derivative = spectral_denoise(v, tau, config.denoiser == "psvt")
    except ValueError as err:
        raise DivergenceError(f"non-finite values at iteration {state.t}",
                              iterate=state.rho, iterations=state.t) from err
    rho_next *= config.damping
    rho_next += (1.0 - config.damping) * state.rho
    if not np.isfinite(rho_next).all():
        raise DivergenceError(f"non-finite iterate at iteration {state.t}",
                              iterate=state.rho, iterations=state.t)
    return AmpState(rho=rho_next, residual=r, onsager=c_hat, sigma=sigma,
                    tau=tau, t=state.t + 1, derivative=derivative)


def initial_state(smap: SensingMap) -> AmpState:
    """rho_0 = I/d, r_{-1} = 0."""
    d, M = smap.d, smap.M
    return AmpState(rho=np.eye(d, dtype=np.complex128) / d,
                    residual=np.zeros(M), onsager=0.0, sigma=0.0, tau=0.0, t=0)


def run_amp(smap: SensingMap, y: np.ndarray, config: AmpConfig,
            trace: AmpTrace | None = None):
    """Run the AMP solver and return ``(rho_hat, iterations)``.

    ``smap`` is the raw map and ``y`` holds raw sample means. With
    ``config.normalize`` (the default) each step rescales both by sqrt(d/M);
    with it disabled they are used as given (the divergent baseline). Raises
    DivergenceError (carrying the last finite iterate and the steps
    completed) on blow-up. A ``trace`` records each state and is closed,
    ``diverged`` on a blow-up.
    """
    y = _check_data(smap, y)
    rng = as_rng(config.seed)
    state = initial_state(smap)
    try:
        for _ in range(config.max_iter):
            state = amp_step(state, smap, y, config, rng)
            if trace is not None:
                trace.record(state, config.denoiser == "psvt")   # PSVT's are states
            sigma0 = state.sigma if state.t == 1 else sigma0
            if sigma0 > 0 and state.sigma > _SIGMA_BLOWUP * sigma0:
                raise DivergenceError(
                    f"residual blow-up at iteration {state.t}: "
                    f"sigma={state.sigma:.3g} vs sigma_0={sigma0:.3g}",
                    iterate=state.rho, iterations=state.t)
    except DivergenceError:
        if trace is not None:
            trace.close(smap.M, diverged=True)
        raise
    if trace is not None:
        trace.close(smap.M, diverged=False)
    return state.rho, state.t
