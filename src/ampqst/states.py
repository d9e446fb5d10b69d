"""Benchmark states, the spectral rules on density matrices, fidelity
metrics, and the DMAT v1 text format. The spectral rules hold every
eigendecomposition of the package: the SVT/PSVT denoisers with their exact
derivative, the projection (PSVT at threshold 0) and the factorization. From
d = 128 on, PSVT inside AMP finds its kept eigenpairs by a warm-started
search of at most ``_MAX_SWEEPS`` sweeps, with ``eigh`` whenever they cannot
be certified.

Conventions used throughout the package:

* ``n`` qubits live in a Hilbert space of dimension ``d = 2**n``; basis state
  ``|b_1 ... b_n>`` has index ``sum_j b_j * 2**(n-j)`` (leftmost qubit is the
  most significant bit).
* Density matrices are ``(d, d)`` complex128 arrays: Hermitian, positive
  semidefinite up to ``-1e-10`` eigenvalue round-off, unit trace to ``1e-10``.
* Complex normal CN(0, s^2) draws have real and imaginary parts that are each
  N(0, s^2/2), so the squared modulus has mean ``s^2``.

Everything here is a pure function over immutable inputs and safe to call
concurrently; randomized constructors take a caller-owned seed or Generator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERMITIAN_ATOL",
    "EIGENVALUE_CLIP",
    "DensityFactor",
    "as_rng",
    "complex_normal",
    "check_hermitian",
    "check_state_vector",
    "is_density",
    "make_named_state",
    "pure_density",
    "make_random_state",
    "SpectralDerivative",
    "spectral_denoise",
    "svt",
    "psvt",
    "project_to_density",
    "as_density",
    "factor_density",
    "nmse",
    "state_fidelity",
    "gram_fidelities",
    "ascii_lines",
    "write_density",
    "read_density",
]

# Type-level tolerances: Hermiticity of stored matrices, and the band of
# negative eigenvalues treated as round-off zeros.
HERMITIAN_ATOL = 1e-12
EIGENVALUE_CLIP = 1e-10


def as_rng(seed) -> np.random.Generator:
    """``seed`` itself if it is a Generator, else the stream of an int or a key
    tuple of ints: ``default_rng(keys)``, the stream of ``SeedSequence(keys)``.
    Every Generator of the package comes from here."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def complex_normal(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    """Sample CN(0, scale^2): real/imag parts each N(0, scale^2 / 2)."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (scale / np.sqrt(2.0)) * z


def check_state_vector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim != 1 or psi.size == 0 or psi.size & (psi.size - 1):
        raise ValueError("state vector must be 1-d with power-of-two length")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
        raise ValueError("state vector is not normalized")
    return psi


def check_hermitian(H: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    H = np.asarray(H, dtype=np.complex128)
    if not np.isfinite(H).all():    # first: a NaN passes every > comparison
        raise ValueError("matrix holds non-finite values")
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(H - H.conj().T)) > atol:
        raise ValueError(f"matrix is not Hermitian within {atol:g}")
    return H


def _hermitian_unit_trace(rho: np.ndarray) -> bool:
    """The checks of a density matrix short of its spectrum."""
    try:
        rho = check_hermitian(rho, 1e-8)
    except ValueError:
        return False
    return not abs(np.trace(rho).real - 1.0) > 1e-10


def _qubit_count(rho: np.ndarray) -> int:
    """n of a 2^n x 2^n matrix, n >= 1; any other shape is refused by name."""
    d = rho.shape[0] if rho.ndim == 2 else 0
    if rho.shape != (d, d) or d < 2 or d & (d - 1):
        raise ValueError(f"expected a 2^n x 2^n matrix, n >= 1, got shape {rho.shape}")
    return d.bit_length() - 1


def is_density(rho: np.ndarray) -> bool:
    """True if ``rho`` is Hermitian, unit trace and PSD to ``-EIGENVALUE_CLIP``
    (the spectrum of ``0.5 (rho + rho^dagger)``, as ``factor_density`` takes it)."""
    rho = np.asarray(rho, dtype=np.complex128)
    return _hermitian_unit_trace(rho) and bool(
        np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= -EIGENVALUE_CLIP)


# ---------------------------------------------------------------------------
# State construction
# ---------------------------------------------------------------------------

def make_named_state(kind: str, n: int) -> np.ndarray:
    """State vector of the GHZ, Hadamard, or W family on ``n`` qubits.

    GHZ(n)      = (|0...0> + |1...1>) / sqrt(2)
    Hadamard(n) = ((|0> + |1>) / sqrt(2))^(tensor n)
    W(n)        = (1/sqrt(n)) * sum_i |0..010..0>   (single excitation)
    """
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    d = 1 << n
    psi = np.zeros(d, dtype=np.complex128)
    key = kind.strip().lower()
    if key == "ghz":
        psi[0] = psi[d - 1] = 1.0 / np.sqrt(2.0)
    elif key == "hadamard":
        psi[:] = 1.0 / np.sqrt(d)
    elif key == "w":
        for i in range(n):
            psi[1 << (n - 1 - i)] = 1.0 / np.sqrt(n)
    else:
        raise ValueError(f"unknown state kind {kind!r} (expected GHZ, Hadamard, or W)")
    return psi


def pure_density(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |psi><psi| of a normalized state vector."""
    psi = check_state_vector(psi)
    return np.outer(psi, psi.conj())


def make_random_state(n: int, r: int, seed) -> np.ndarray:
    """Random rank-``r`` mixed state on ``n`` qubits.

    Draws ``r`` vectors with per-coordinate CN(0,1) entries, normalizes each,
    draws mixing weights from U(0,1) normalized to sum to one, and returns
    the corresponding convex combination of rank-1 projectors. Deterministic
    for a given seed.
    """
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    d = 1 << n
    if not 1 <= r <= d:
        raise ValueError(f"rank must satisfy 1 <= r <= {d}, got {r}")
    rng = as_rng(seed)
    vecs = complex_normal(rng, (r, d))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    p = rng.random(r)
    p /= p.sum()
    rho = (vecs.conj().T * p) @ vecs
    return 0.5 * (rho + rho.conj().T)


# ---------------------------------------------------------------------------
# Spectral rules: the denoisers, their derivative, and the projection
# ---------------------------------------------------------------------------

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

    The probe takes one of two forms. After a full ``eigh``, ``vecs`` is all
    of V and ``gamma`` is k x d. After the kept pairs alone were found (psvt,
    see ``spectral_denoise``), ``vecs`` is V_K, ``gamma`` the k x k block,
    and ``deflated`` the certified positive definite
    C = tau I - H + V_K diag(lam_K - lower) V_K^dagger; the unkept columns
    then sum to 2 w_i b_i^dagger (C + (lam_i - tau) I)^-1 b_i per kept i,
    with b_i the part of 2h v_i orthogonal to K, since C + (lam_i - tau) I
    is lam_i - H on that complement; one batched Cholesky of bordered
    matrices gives the k terms. ``block`` holds the top eigenvectors
    that warm-start the next psvt call's sweeps at d >= ``_WARM_MIN_DIM``,
    else None.
    """

    vecs: np.ndarray
    vkh: np.ndarray
    gamma: np.ndarray
    slope: float
    coupling: np.ndarray
    block: np.ndarray | None = None
    deflated: np.ndarray | None = None

    @property
    def probe_shape(self) -> tuple:
        """The shape of the standard normals ``probe`` takes from a run's
        generator: (2, d, d), or (2, k, k + d) from d = ``_WARM_MIN_DIM`` on."""
        k, d = self.vkh.shape
        return (2, k, k + d) if d >= _WARM_MIN_DIM else (2, d, d)

    def probe(self, z: np.ndarray) -> float:
        """Exact ``Re <h, Df(H)[h]>_F`` along a GUE direction h drawn from
        the standard normals ``z = (re, im)``: O(k d^2) after a full ``eigh``,
        plus one batched Cholesky of k (d + 1) x (d + 1) matrices in the
        deflated form.

        For z of shape (2, d, d), ``h = ((re + re^T) + i (im - im^T)) / 2``.
        The probe reads only the rows K of 2 V^dagger h, so z of shape
        (2, k, k + d) draws them alone. By the GUE's unitary invariance,
        V_K^dagger 2h V_K is the k x k GUE ``g`` of the first k columns, drawn
        as above, and V_K^dagger 2h P_perp, with P_perp = I - V_K V_K^dagger,
        has the law of sqrt(2) Z P_perp, independent of g, with Z = re + i im
        over the other d columns: the same probe law from 2 k (k + d)
        normals in place of 2 d^2."""
        m = z.shape[1]
        g = np.empty((m, m), dtype=np.complex128)             # 2h, or V_K^dagger 2h V_K
        np.add(z[0, :, :m], z[0, :, :m].T, out=g.real)
        np.subtract(z[1, :, :m], z[1, :, :m].T, out=g.imag)
        if m == z.shape[2]:
            left = self.vkh @ g                               # rows K of 2 V^dagger h
        else:
            Z = z[0, :, m:] + 1j * z[1, :, m:]
            left = g @ self.vkh + math.sqrt(2.0) * (Z - (Z @ self.vkh.conj().T) @ self.vkh)
        rows = left @ self.vecs                               # rows K of 2 h~
        # Re of the K x K diagonal of 2 h~: row sums of left * conj(V_K^dagger)
        a = (left.view(np.float64) * self.vkh.view(np.float64)).sum(axis=1)
        value = np.vdot(rows, self.gamma * rows).real
        if self.deflated is not None and a.size:
            value += 2.0 * self.coupling @ self._resolvent_terms(left - rows @ self.vkh)
        return 0.25 * float(value + self.slope * (a @ (a - self.coupling @ a)))

    def _resolvent_terms(self, b: np.ndarray) -> np.ndarray:
        """``u_i^dagger (C + s_i I)^-1 u_i`` for the rows ``b_i = conj(u_i)``,
        s_i = lam_i - tau = w_i / slope, from one batched Cholesky of the
        bordered matrices [[C + s_i I, u_i], [u_i^dagger, beta_i]]: the last
        row of each factor is (l_i^dagger, delta_i) with L l_i = u_i, so
        ||l_i||^2 is the term. beta_i = 2 ||u_i||^2 / s_i + 1 exceeds it,
        since C is positive definite, so the factorization exists for any
        s_i > 0 and any u_i, zero included. LAPACK reads the lower triangle."""
        k, d = b.shape
        shift = self.coupling / self.slope
        bordered = np.empty((k, d + 1, d + 1), dtype=np.complex128)
        bordered[:, :d, :d] = self.deflated
        bordered.reshape(k, -1)[:, :d * (d + 2):d + 2] += shift[:, None]
        bordered[:, d, :d] = b
        bordered[:, d, d] = 2.0 * np.einsum("ij,ij->i", b, b.conj()).real / shift + 1.0
        last = np.linalg.cholesky(bordered)[:, d, :d]
        return np.einsum("ij,ij->i", last, last.conj()).real


# From this dimension on, psvt's kept pairs are found by a warm-started
# Chebyshev-filtered subspace iteration, not by a full eigh; at d = 64 the
# search costs about as much as eigh.
_WARM_MIN_DIM = 128
_BLOCK_SPARE = 2          # block vectors beyond the kept ones
# Each kept pair adds a (d + 1) x (d + 1) Cholesky factorization to the
# probe, a tenth of an eigh at d = 128, so a larger kept set is left to eigh.
_MAX_KEPT = 4
# Sweeps before eigh takes over. Warm steps of GHZ n = 7 and n = 8 trials at
# fraction 0.5 certify within 8 sweeps at d = 128 and 12 at d = 256. A sweep
# costs about a fourteenth of an eigh at d = 128, so a step that stops at the
# cap costs about two.
_MAX_SWEEPS = 12
_RESIDUAL_TOL = 1e-13     # kept residuals, relative to the spectral scale
_LOWER_FACTOR = 1.2       # filter's lower end, in units of the bulk's top edge
_EPS = np.finfo(np.float64).eps


def _rayleigh_ritz(H: np.ndarray, basis: np.ndarray):
    """Ritz values (ascending), Ritz vectors and residual norms of H on the
    span of the orthonormal columns ``basis``."""
    Hb = H @ basis
    small = basis.conj().T @ Hb
    theta, rot = np.linalg.eigh(0.5 * (small + small.conj().T))
    X = basis @ rot
    R = Hb @ rot - X * theta
    return theta, X, np.linalg.norm(R, axis=0)


def _chebyshev_filter(H: np.ndarray, X: np.ndarray, degree: int,
                      lower: float, upper: float) -> np.ndarray:
    """T_degree((H - c) / e) X for the interval [lower, upper] = [c - e, c + e],
    on which the Chebyshev polynomial stays within [-1, 1]; it grows fast
    outside."""
    scaled = (4.0 / (upper - lower)) * H               # 2 (H - c) / e
    scaled.flat[::len(H) + 1] -= 2.0 * (upper + lower) / (upper - lower)
    prev, cur = X, 0.5 * (scaled @ X)
    for _ in range(degree - 1):
        nxt = scaled @ cur
        nxt -= prev
        prev, cur = cur, nxt
    return cur


def _kept_pairs(H: np.ndarray, tau: float, block: np.ndarray):
    """PSVT's kept eigenpairs of H, warm-started from the previous ``block``.

    Returns ``(lam_K, V_K, block, C)``, the pairs ascending, or None when
    ``eigh`` must take over: the block fills (all its Ritz values exceed
    tau), more than ``_MAX_KEPT`` are kept, ``_MAX_SWEEPS`` sweeps leave a
    kept residual above tolerance, or the certificate fails. Each sweep is a
    Chebyshev filter that damps [lower, upper] and grows the kept end, then a
    Rayleigh-Ritz step; its degree is the one the Ritz gap predicts to bring
    the worst kept residual under tolerance.
    The certificate is one Cholesky factorization of
    C = tau I - H + V_K diag(lam_K - lower) V_K^dagger: it exists only if no
    eigenvalue of H beyond those k exceeds tau (Weyl), so the k Ritz pairs
    above tau are the whole kept set.
    """
    p = block.shape[1]
    theta, X, res = _rayleigh_ritz(H, block)
    for sweep in range(_MAX_SWEEPS + 1):
        k = int(np.count_nonzero(theta > tau))
        if k == p or k > _MAX_KEPT:
            return None
        # The unkept bulk is taken as symmetric about zero: its top edge, or
        # tau above it, sets the lower end; the block's lowest Ritz value
        # sets the upper end, past which the block's own vectors lie.
        lower = -_LOWER_FACTOR * max(abs(theta[p - k - 1]), tau)
        worst = res[p - k:].max(initial=0.0)
        tol = _RESIDUAL_TOL * max(abs(theta[-1]), -lower)
        if worst <= tol:
            break
        if sweep == _MAX_SWEEPS:
            return None
        upper = theta[0] if theta[0] > lower else tau
        if upper <= lower:
            return None
        # T_m grows like exp(m acosh t) at t = 1 + 2 (theta - upper) / width.
        # The lowest kept Ritz value needs the degree that takes the worst
        # residual to tolerance; per sweep, the top one may outgrow it only
        # as far as round-off in the worst residual's leak can bear.
        growth = np.arccosh(1.0 + 2.0 * (theta[[p - k, -1]] - upper) / (upper - lower))
        needed = math.ceil(math.acosh(worst / tol) / growth[0])
        spread = growth[1] - growth[0]
        bearable = math.log(0.1 * tol / (_EPS * worst))
        degree = needed if spread <= 0 else min(needed, max(1, int(bearable / spread)))
        theta, X, res = _rayleigh_ritz(
            H, np.linalg.qr(_chebyshev_filter(H, X, degree, lower, upper))[0])
    lam_k, vk = theta[p - k:], X[:, p - k:]
    deflated = (vk * (lam_k - lower)) @ vk.conj().T
    deflated -= H
    deflated.flat[::len(H) + 1] += tau
    try:
        np.linalg.cholesky(deflated)
    except np.linalg.LinAlgError:
        return None
    return lam_k, vk, X, deflated


def spectral_denoise(H: np.ndarray, tau: float, project: bool,
                     previous: SpectralDerivative | None = None):
    """``(f(H), SpectralDerivative)`` for ``svt`` or, with ``project``, ``psvt``.

    Soft-threshold the eigenvalues to ``s = sign(lam) (|lam| - tau)_+``;
    ``svt`` keeps ``w = s``, ``psvt`` keeps the positive ``s`` divided by
    their sum, or returns I/d when none is positive. Raises ValueError on a
    negative or non-finite threshold and on a non-finite matrix; ``H`` is
    taken as Hermitian: ``svt`` and ``psvt`` pass a checked one, ``amp_step``'s
    v is Hermitian by construction.

    The eigenpairs come from one full ``eigh``, except for psvt at
    d >= ``_WARM_MIN_DIM`` given the ``previous`` derivative of a call of the
    same size: its ``block`` warm-starts ``_kept_pairs``, which finds the
    kept pairs alone within ``_MAX_SWEEPS`` sweeps and certifies them, and the
    derivative takes the deflated form. ``eigh`` takes over whenever
    ``_kept_pairs`` cannot certify, and for svt, whose kept set has two tails.
    """
    if not 0.0 <= tau < np.inf:
        raise ValueError("threshold must be nonnegative and finite")
    H = np.asarray(H, dtype=np.complex128)
    if not np.isfinite(H).all():
        raise ValueError("matrix holds non-finite values")
    d = len(H)
    warm = project and d >= _WARM_MIN_DIM
    found = None
    if warm and previous is not None and previous.block is not None \
            and len(previous.block) == d:
        found = _kept_pairs(H, tau, previous.block)
    if found is None:
        lam, vecs = np.linalg.eigh(H)
        # The eigenvalues ascend, so K is two tails, each on one linear piece
        # of the threshold: lam[:lo] < -tau (svt only) and lam[hi:] > tau.
        hi = int(lam.searchsorted(tau, "right"))
        lo = 0 if project else int(lam.searchsorted(-tau))
        kept = np.r_[:lo, hi:d] if lo else slice(hi, d)
        lk, vk = lam[kept], vecs[:, kept]
        block = vecs[:, hi - _BLOCK_SPARE:] if warm and d - hi <= _MAX_KEPT else None
        deflated = None
    else:
        lk, vk, block, deflated = found
        vecs, lo, hi = vk, 0, 0
    wk = lk - np.copysign(tau, lk)
    k, slope = wk.size, 1.0
    if project and k:
        total = wk.sum()
        wk, slope = wk / total, 1.0 / total
    # Within one piece the divided difference is the slope; across pieces
    # the eigenvalues differ, so the quotients are safe from ties.
    gamma = np.full((k, vecs.shape[1]), slope)
    if found is None:
        gamma[:, lo:hi] = 2.0 * wk[:, None] / (lk[:, None] - lam[lo:hi])  # for (j, i) too
    if lo:
        gamma[:lo, hi:] = (wk[:lo, None] - wk[lo:]) / (lk[:lo, None] - lk[lo:])
        gamma[lo:, :lo] = gamma[:lo, hi:].T
    np.fill_diagonal(gamma[:lo, :lo], 0.0)     # entries (i, kept[i]) are J's
    np.fill_diagonal(gamma[lo:, hi:], 0.0)
    vkh = np.conjugate(vk.T, order="C")
    derivative = SpectralDerivative(vecs, vkh, gamma, slope,
                                    wk if project else np.zeros(k), block, deflated)
    if project and not k:
        return np.eye(d, dtype=np.complex128) / d, derivative
    out = (vk * wk) @ vkh
    return 0.5 * (out + out.conj().T), derivative


def svt(H: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding of a Hermitian matrix.

    The singular values of a Hermitian H are |lambda_k| with singular vector
    pairs sign(lambda_k) |psi_k><psi_k|, so one eigendecomposition gives
    sum_k sign(lambda_k) (|lambda_k| - tau)_+ |psi_k><psi_k| exactly. Refuses
    a matrix that is not finite, or not Hermitian within 1e-8, and
    thresholds the Hermitian part ``0.5 (H + H^dagger)`` of the rest.
    """
    return spectral_denoise(_hermitian_part(H), tau, project=False)[0]


def psvt(H: np.ndarray, tau: float) -> np.ndarray:
    """Projected SVT: threshold, then project onto the density-matrix set.

    Equals ``project_to_density(svt(H, tau))`` from a single decomposition,
    and checks its input as ``svt`` does; at ``tau = 0`` it is the projection.
    """
    return spectral_denoise(_hermitian_part(H), tau, project=True)[0]


def _hermitian_part(H: np.ndarray) -> np.ndarray:
    H = check_hermitian(H, 1e-8)    # the tolerance of every public denoiser
    return 0.5 * (H + H.conj().T)


def project_to_density(H: np.ndarray) -> np.ndarray:
    """Project a Hermitian matrix onto the density-matrix set, ``psvt(H, 0)``:
    the positive eigenvalues divided by their sum, or I/d when none is
    positive, so that downstream solvers stay total."""
    return psvt(H, 0.0)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def nmse(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Squared Frobenius error of ``estimate`` normalized by ``||truth||_F^2``."""
    truth = np.asarray(truth, dtype=np.complex128)
    estimate = np.asarray(estimate, dtype=np.complex128)
    if truth.shape != estimate.shape:
        raise ValueError("dimension mismatch between truth and estimate")
    denom = np.linalg.norm(truth) ** 2
    if denom == 0.0:
        raise ValueError("truth matrix is zero")
    return float(np.linalg.norm(estimate - truth) ** 2 / denom)


def as_density(H: np.ndarray) -> np.ndarray:
    """``H`` itself if it is a density matrix, else ``project_to_density(H)``:
    the one rule that makes a Hermitian estimate physical before it is judged."""
    H = np.asarray(H, dtype=np.complex128)
    return H if is_density(H) else project_to_density(H)


@dataclass(frozen=True)
class DensityFactor:
    """A validated density matrix ``rho`` and its d x r ``factor`` B with
    rho = B B^dagger, both read-only. Built only by ``factor_density``."""

    rho: np.ndarray
    factor: np.ndarray

    def fidelity(self, sigma: np.ndarray) -> float:
        """F(rho, sigma) for a ``sigma`` already known to be a density matrix
        of the same dimension, unchecked: the r x r tail of ``state_fidelity``."""
        B = self.factor
        return gram_fidelities(B.conj().T @ sigma @ B, B.shape[0])[0]


def _round_off_floor(vals: np.ndarray, d: int) -> np.ndarray:
    # eigenvalues at round-off level would contribute sqrt(eps) each; drop them
    return d * np.finfo(np.float64).eps * np.maximum(vals.max(-1, keepdims=True), 1.0)


def factor_density(rho: np.ndarray) -> DensityFactor:
    """Validate a density matrix, keep it read-only, factor it as B B^dagger.

    One ``eigh``, which also holds the PSD check of ``is_density``;
    B = V_r sqrt(lam_r) keeps the eigenvalues above the round-off floor
    ``d eps max(lam_max, 1)``.
    """
    rho = np.array(rho, dtype=np.complex128)
    if _hermitian_unit_trace(rho):
        vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
        if vals[0] >= -EIGENVALUE_CLIP:
            keep = vals > _round_off_floor(vals, vals.size)
            B = vecs[:, keep] * np.sqrt(vals[keep])
            rho.flags.writeable = B.flags.writeable = False
            return DensityFactor(rho, B)
    raise ValueError("matrix is not a valid density matrix")


def state_fidelity(rho, sigma: np.ndarray) -> float:
    """State fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1].

    ``rho`` is a valid density matrix or its ``factor_density``; a matrix is
    factored here. With rho = B B^dagger, F = (sum_i sqrt(mu_i))^2 over the
    eigenvalues mu of the r x r matrix B^dagger sigma B, the nonzero ones of
    sqrt(rho) sigma sqrt(rho). ``sigma`` may be any Hermitian matrix, made
    physical by ``as_density`` first; an unphysical ``rho`` is refused.
    """
    truth = rho if isinstance(rho, DensityFactor) else factor_density(rho)
    sigma = np.asarray(sigma, dtype=np.complex128)
    if sigma.shape != truth.rho.shape:
        raise ValueError("dimension mismatch between rho and sigma")
    return truth.fidelity(as_density(sigma))


def gram_fidelities(grams: np.ndarray, d: int) -> list:
    """``state_fidelity``'s tail: ``(sum sqrt(mu))^2`` for each r x r gram
    ``B^dagger sigma B`` (one, or a stack sharing one ``eigvalsh``), ``mu`` its
    eigenvalues, ``d`` the dimension of sigma, which must be a density matrix."""
    vals = np.linalg.eigvalsh(0.5 * (grams + grams.conj().swapaxes(-1, -2)))
    vals = np.where(vals > _round_off_floor(vals, d), vals, 0.0)
    # each row sum is squared as a scalar: an array square can differ by an ulp
    fids = [float(total ** 2) for total in np.sum(np.sqrt(vals), axis=-1).reshape(-1)]
    if any(f > 1.0 + 1e-6 for f in fids):
        raise ArithmeticError(f"fidelity {max(fids)} exceeds 1 beyond round-off")
    return [min(max(f, 0.0), 1.0) for f in fids]


# ---------------------------------------------------------------------------
# DMAT v1 text format
# ---------------------------------------------------------------------------

def ascii_lines(path, where) -> list:
    """The lines of an ASCII text file, split at \\n, \\r\\n or \\r; a line
    holding another byte raises ValueError(where(lineno)), lines from 1."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii():
            raise ValueError(where(lineno))
    return [line.decode("ascii") for line in lines]


def write_density(path, rho: np.ndarray) -> None:
    """Write a Hermitian matrix in the DMAT v1 text format.

    Line 1 is ``DMAT v1 n=<n>`` followed by d^2 lines ``<re> <im>`` in
    row-major order, 17 significant digits (exact float64 round trip).
    """
    n = _qubit_count(check_hermitian(rho))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"DMAT v1 n={n}\n")
        for v in rho.reshape(-1):
            fh.write(f"{v.real:.17g} {v.imag:.17g}\n")


def read_density(path) -> np.ndarray:
    """Read a DMAT v1 file, verifying Hermiticity; a bad line is named."""
    lines = ascii_lines(path, lambda k: f"DMAT v1: non-ASCII byte at line {k}")
    header = re.fullmatch(r"DMAT v1 n=([1-9][0-9]*)",
                          " ".join(lines[0].split()) if lines else "")
    if header is None:
        raise ValueError("DMAT v1: malformed header at line 1")
    d = 1 << int(header[1])
    # sized by the lines the file holds, not by the header's n alone
    flat = np.empty(min(d * d, len(lines) - 1), dtype=np.complex128)
    for k, line in enumerate(lines[1:1 + flat.size]):
        try:
            re_part, im_part = line.split()
            flat[k] = float(re_part) + 1j * float(im_part)
        except ValueError:
            raise ValueError(f"DMAT v1: malformed entry at line {k + 2}") from None
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise ValueError(f"DMAT v1: non-finite entry at line {bad[0] + 2}")
    if flat.size < d * d:
        raise ValueError(f"DMAT v1: malformed entry at line {len(lines) + 1}")
    for k, line in enumerate(lines[d * d + 1:], start=d * d + 2):
        if line.strip():
            raise ValueError(f"DMAT v1: unexpected data at line {k}")
    return check_hermitian(flat.reshape(d, d))
