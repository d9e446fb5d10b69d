"""Benchmark states, the spectral rules on density matrices, fidelity
metrics, and the DMAT v1 text format. The spectral rules hold every
eigendecomposition of the package: the SVT/PSVT denoisers with their exact
derivative, the projection (PSVT at threshold 0) and the factorization.

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
    "numerical_rank",
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
    positive. Raises ValueError on a negative or non-finite threshold and on
    a non-finite matrix; ``H`` is taken as Hermitian: ``svt`` and ``psvt``
    pass a checked one, ``amp_step``'s v is Hermitian by construction.
    """
    if not 0.0 <= tau < np.inf:
        raise ValueError("threshold must be nonnegative and finite")
    H = np.asarray(H, dtype=np.complex128)
    if not np.isfinite(H).all():
        raise ValueError("matrix holds non-finite values")
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


def numerical_rank(H: np.ndarray, tol: float = 1e-9) -> int:
    """Number of eigenvalues exceeding ``tol`` (Hermitian input)."""
    return int(np.count_nonzero(np.linalg.eigvalsh(np.asarray(H, np.complex128)) > tol))


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
