"""Benchmark states, projection onto density matrices, fidelity metrics, and
the DMAT v1 text format.

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
    "check_density",
    "make_named_state",
    "pure_density",
    "make_random_state",
    "project_to_density",
    "factor_density",
    "numerical_rank",
    "nmse",
    "state_fidelity",
    "ascii_lines",
    "write_density",
    "read_density",
]

# Type-level tolerances: Hermiticity of stored matrices, and the band of
# negative eigenvalues treated as round-off zeros.
HERMITIAN_ATOL = 1e-12
EIGENVALUE_CLIP = 1e-10


def as_rng(seed) -> np.random.Generator:
    """Return ``seed`` itself if it is already a Generator, else seed a new one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def complex_normal(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    """Sample CN(0, scale^2): real/imag parts each N(0, scale^2 / 2)."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (scale / np.sqrt(2.0)) * z


def check_state_vector(psi: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim != 1 or psi.size == 0 or psi.size & (psi.size - 1):
        raise ValueError("state vector must be 1-d with power-of-two length")
    if abs(np.linalg.norm(psi) - 1.0) > atol:
        raise ValueError("state vector is not normalized")
    return psi


def check_hermitian(H: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(H - H.conj().T)) > atol:
        raise ValueError(f"matrix is not Hermitian within {atol:g}")
    return H


def is_density(rho: np.ndarray, eig_tol: float = EIGENVALUE_CLIP,
               trace_tol: float = 1e-10) -> bool:
    """True if ``rho`` is Hermitian, PSD up to ``-eig_tol``, and unit trace."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if np.max(np.abs(rho - rho.conj().T)) > 1e-8:
        return False
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        return False
    return bool(np.linalg.eigvalsh(rho).min() >= -eig_tol)


def check_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if not is_density(rho):
        raise ValueError("matrix is not a valid density matrix")
    return rho


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
# Projection
# ---------------------------------------------------------------------------

def project_to_density(H: np.ndarray) -> np.ndarray:
    """Project a Hermitian matrix onto the density-matrix set.

    Keeps the eigenvectors, drops nonpositive eigenvalues, and renormalizes
    the positive ones by their sum. If no eigenvalue is positive, returns the
    maximally mixed state I/d so that downstream solvers stay total. The
    eigenvalue order cannot change the result, so no tie-break sort is done.
    """
    H = check_hermitian(H, 1e-8)
    vals, vecs = np.linalg.eigh(0.5 * (H + H.conj().T))
    pos = vals > 0.0
    if not pos.any():
        return np.eye(vals.size, dtype=np.complex128) / vals.size
    V = vecs[:, pos]
    out = (V * (vals[pos] / vals[pos].sum())) @ V.conj().T
    return 0.5 * (out + out.conj().T)


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


@dataclass(frozen=True)
class DensityFactor:
    """Read-only d x r ``factor`` B of a validated rho = B B^dagger.

    Built only by ``factor_density``.
    """

    factor: np.ndarray


def _round_off_floor(vals: np.ndarray, d: int) -> float:
    # eigenvalues at round-off level would contribute sqrt(eps) each; drop them
    return d * np.finfo(np.float64).eps * max(float(vals.max()), 1.0)


def factor_density(rho: np.ndarray) -> DensityFactor:
    """Validate a density matrix and factor it as rho = B B^dagger.

    One ``eigh``; B = V_r sqrt(lam_r) keeps the eigenvalues above the
    round-off floor ``d eps max(lam_max, 1)``.
    """
    rho = check_density(rho)
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    keep = vals > _round_off_floor(vals, vals.size)
    B = vecs[:, keep] * np.sqrt(vals[keep])
    B.flags.writeable = False
    return DensityFactor(B)


def state_fidelity(rho, sigma: np.ndarray) -> float:
    """State fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1].

    ``rho`` is a valid density matrix or its ``factor_density``; a matrix is
    factored here. With rho = B B^dagger, F = (sum_i sqrt(mu_i))^2 over the
    eigenvalues mu of the r x r matrix B^dagger sigma B, the nonzero ones of
    sqrt(rho) sigma sqrt(rho). ``sigma`` may be any Hermitian matrix; one that
    is not PSD with unit trace is first projected onto the density-matrix set.
    When both arguments are unphysical only the second is projected.
    """
    B = (rho if isinstance(rho, DensityFactor) else factor_density(rho)).factor
    sigma = np.asarray(sigma, dtype=np.complex128)
    if sigma.shape != (B.shape[0], B.shape[0]):
        raise ValueError("dimension mismatch between rho and sigma")
    if not is_density(sigma):
        sigma = project_to_density(sigma)
    m = B.conj().T @ sigma @ B
    vals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    vals = np.where(vals > _round_off_floor(vals, B.shape[0]), vals, 0.0)
    f = float(np.sum(np.sqrt(vals)) ** 2)
    if f > 1.0 + 1e-6:
        raise ArithmeticError(f"fidelity {f} exceeds 1 beyond round-off")
    return float(np.clip(f, 0.0, 1.0))


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
    rho = check_hermitian(rho)
    d = rho.shape[0]
    n = d.bit_length() - 1
    if 1 << n != d:
        raise ValueError("matrix dimension is not a power of two")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"DMAT v1 n={n}\n")
        for v in rho.reshape(-1):
            fh.write(f"{v.real:.17g} {v.imag:.17g}\n")


def read_density(path) -> np.ndarray:
    """Read a DMAT v1 file, verifying Hermiticity; a malformed line is named."""
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
    if flat.size < d * d:
        raise ValueError(f"DMAT v1: malformed entry at line {len(lines) + 1}")
    for k, line in enumerate(lines[d * d + 1:], start=d * d + 2):
        if line.strip():
            raise ValueError(f"DMAT v1: unexpected data at line {k}")
    return check_hermitian(flat.reshape(d, d))
