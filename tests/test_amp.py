import gc
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from ampqst import amp as amp_module
from ampqst import states as states_module
from ampqst.amp import (
    AmpConfig,
    AmpState,
    AmpTrace,
    initial_state,
    amp_step,
    run_amp,
)
from ampqst.measure import build_measurements
from ampqst.pauli import (
    MeasurementPlan,
    apply_adjoint,
    apply_sensing,
    sample_observables,
)
from ampqst.states import (
    as_rng,
    factor_density,
    is_density,
    make_named_state,
    make_random_state,
    nmse,
    project_to_density,
    psvt,
    pure_density,
    spectral_denoise,
    state_fidelity,
    svt,
)
from conftest import words_of


PAULI1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_word(word):
    out = np.array([[1.0]], dtype=complex)
    for ch in word:
        out = np.kron(out, PAULI1[ch])
    return out


def random_hermitian(rng, d, scale=1.0):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (A + A.conj().T)


def svd_oracle(X, tau):
    """Dense SVD soft-thresholding, the generic route."""
    U, s, Vh = np.linalg.svd(X)
    return (U * np.clip(s - tau, 0.0, None)) @ Vh


def with_spectrum(rng, lam):
    """Hermitian matrix with eigenvalues ``lam`` in a random eigenbasis."""
    d = len(lam)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    H = (Q * np.asarray(lam, dtype=float)) @ Q.conj().T
    return 0.5 * (H + H.conj().T)


def amp_like(kept, tau=0.5, d=128, seed=31):
    """A spectrum as AMP's pseudo-data show it: an unkept bulk in
    [-0.8 tau, 0.95 tau] and the ``kept`` eigenvalues above tau."""
    bulk = np.random.default_rng(seed).uniform(-0.8 * tau, 0.95 * tau, d - len(kept))
    return np.concatenate([bulk, kept])


def nearby(H, scale=1e-5, seed=16):
    """H moved by a small Hermitian step, as pseudo-data move between
    iterations: its derivative is the warm start of a call on H."""
    return H + scale * random_hermitian(np.random.default_rng(seed), len(H))


def hermitian(z):
    """The Hermitian direction ``((re + re^T) + i (im - im^T)) / 2`` that
    ``SpectralDerivative.probe`` takes from the normals ``z = (re, im)``."""
    re, im = z
    h = ((re + re.T) / 2.0).astype(np.complex128)
    h.imag = (im - im.T) / 2.0
    return h


def rebuilt_direction(derivative, z, rng):
    """The (2, d, d) normals ``(Re 2h / 2, Im 2h / 2)`` of a full direction
    whose rows K are those the subspace normals ``z`` of shape (2, k, k + d)
    give: 2h = V_K g V_K^dagger + sqrt(2) (V_K Z P + P Z^dagger V_K^dagger)
    + P W P, with g the k x k GUE and Z = re + i im of the last d columns,
    P = I - V_K V_K^dagger and W any Hermitian matrix."""
    vkh = derivative.vkh
    k, d = vkh.shape
    vk = vkh.conj().T
    P = np.eye(d) - vk @ vkh
    off = np.sqrt(2.0) * vk @ (z[0, :, k:] + 1j * z[1, :, k:]) @ P
    h2 = vk @ (2.0 * hermitian(z[:, :, :k])) @ vkh + off + off.conj().T \
        + P @ random_hermitian(rng, d) @ P
    h2 = 0.5 * (h2 + h2.conj().T)
    return np.stack([h2.real / 2.0, h2.imag / 2.0])


def hermitian_probe(rng, d):
    """Hermitian random probe with unit second moment in every entry.

    Off-diagonal entries are CN(0,1) (conjugate-paired), diagonal entries
    real N(0,1), so E||h||_F^2 = d^2 exactly as for an unconstrained CN(0,1)
    matrix: the direction of ``amp_step``'s probe, from the same draw.
    """
    return hermitian(rng.standard_normal((2, d, d)))


@dataclass(frozen=True)
class DenseDerivative:
    """The dense Daleckii-Krein probe: ``h~ = V^dagger h V`` in full, the
    d x d divided differences ``gamma`` and the Jacobian ``jac`` = dw/dlam."""

    vecs: np.ndarray
    gamma: np.ndarray
    jac: np.ndarray

    @property
    def probe_shape(self):
        return (2, *self.vecs.shape)     # the full draw: the oracle runs below d = 128

    def probe(self, z):
        ht = self.vecs.conj().T @ hermitian(z) @ self.vecs
        a = ht.diagonal().real
        return float(np.sum(self.gamma * (ht.real ** 2 + ht.imag ** 2))
                     + a @ self.jac @ a)


def dense_spectral_denoise(H, tau, project):
    """``spectral_denoise`` with the dense derivative, piece by piece."""
    lam, vecs = np.linalg.eigh(np.asarray(H, dtype=np.complex128))
    d = lam.size
    w = np.sign(lam) * np.clip(np.abs(lam) - tau, 0.0, None)
    # the linear piece of the threshold each eigenvalue lies on, and its slope
    piece = (w > 0.0) if project else np.sign(w)
    slope = np.abs(piece).astype(np.float64)
    if project:
        total = w[piece].sum()
        if total == 0.0:
            zeros = np.zeros((d, d))
            return (np.eye(d, dtype=np.complex128) / d,
                    DenseDerivative(vecs, zeros, zeros))
        w = np.where(piece, w / total, 0.0)
        slope /= total
    jac = np.diag(slope) - np.outer(w, slope) if project else np.diag(slope)
    same = piece[:, None] == piece[None, :]
    gamma = np.where(same, slope[:, None],
                     (w[:, None] - w[None, :])
                     / np.where(same, 1.0, lam[:, None] - lam[None, :]))
    np.fill_diagonal(gamma, 0.0)
    V = vecs[:, w != 0.0]
    out = (V * w[w != 0.0]) @ V.conj().T
    return 0.5 * (out + out.conj().T), DenseDerivative(vecs, gamma, jac)


def estimate_onsager(denoiser, v_prev, tau_prev, M, epsilon, k, seed):
    """Monte Carlo estimate of the normalized denoiser divergence.

    Averages ``Re <h, f(v + eps h) - f(v)>_F / eps`` over ``k`` Hermitian
    probes ``h`` and divides by ``M``: the paper's finite-difference probe,
    the reference for the exact ``SpectralDerivative.probe``.
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


class TestSvt:
    def test_diagonal_shrink(self):
        out = svt(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_zero_threshold_identity(self):
        rng = np.random.default_rng(0)
        H = random_hermitian(rng, 6)
        assert np.max(np.abs(svt(H, 0.0) - H)) < 1e-10

    def test_large_threshold_zero(self):
        rng = np.random.default_rng(1)
        H = random_hermitian(rng, 5)
        tau = np.abs(np.linalg.eigvalsh(H)).max() + 0.1
        assert np.allclose(svt(H, tau), 0.0)

    def test_negative_eigenvalues_shrink_toward_zero(self):
        out = svt(np.diag([-3.0, 0.5]), 1.0)
        assert np.allclose(out, np.diag([-2.0, 0.0]))

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            H = random_hermitian(rng, 8)
            tau = float(rng.uniform(0, 2))
            assert np.max(np.abs(svt(H, tau) - svd_oracle(H, tau))) < 1e-9

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), -0.1)


class TestPsvt:
    def test_pure_state_fixed_point(self):
        rho = pure_density(np.array([1.0, 1j]) / np.sqrt(2.0))
        assert np.max(np.abs(psvt(rho, 0.5) - rho)) < 1e-12

    def test_hand_composed_example(self):
        out = psvt(np.diag([0.9, -0.3, 0.2, 0.0]), 0.1)
        assert np.allclose(out, np.diag([8 / 9, 0.0, 1 / 9, 0.0]))

    def test_always_density(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            H = random_hermitian(rng, 8, scale=rng.uniform(0.1, 5.0))
            assert is_density(psvt(H, float(rng.uniform(0, 1))))

    def test_all_killed_gives_maximally_mixed(self):
        out = psvt(np.diag([0.1, -0.1]), 0.5)
        assert np.allclose(out, np.eye(2) / 2)


@pytest.mark.parametrize("denoise", [svt, psvt])
def test_public_denoisers_refuse_what_the_projection_refuses(denoise):
    # unchecked, psvt returned I/2 for this matrix
    H = np.array([[0.0, 1.0], [0.0, 0.0]])
    for refuse in (project_to_density, lambda H: denoise(H, 0.0)):
        with pytest.raises(ValueError, match="not Hermitian within 1e-08"):
            refuse(H)
    near = np.diag([1.0, 0.0]).astype(complex)
    near[0, 1] = 5e-9                           # within the tolerance
    assert np.allclose(denoise(near, 0.0), np.diag([1.0, 0.0]), atol=1e-8)


@pytest.mark.parametrize("denoise", [svt, psvt])
def test_public_denoisers_take_the_hermitian_part(denoise):
    # eigh reads one triangle; the Hermitian part reads both, as the
    # projection does
    rng = np.random.default_rng(24)
    H = random_hermitian(rng, 8)
    skew = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    near = H + 1e-10 * (skew - skew.conj().T)
    part = 0.5 * (near + near.conj().T)
    assert not np.array_equal(near, part)
    for tau in (0.0, 0.3):
        assert np.array_equal(denoise(near, tau), denoise(part, tau))


class TestOnsagerEstimator:
    def test_zero_denoiser_exactly_zero(self):
        rng = np.random.default_rng(4)
        v = random_hermitian(rng, 8)
        c = estimate_onsager(lambda H, t: np.zeros_like(H), v, 0.3, 64,
                             1e-4, 4, rng)
        assert c == 0.0

    def test_identity_denoiser_unit(self):
        # M = d^2: expectation exactly 1; single sample within 3 sigma
        d = 16
        rng = np.random.default_rng(5)
        v = random_hermitian(rng, d)
        c = estimate_onsager(lambda H, t: H, v, 0.1, d * d, 1e-5, 1, rng)
        assert abs(c - 1.0) < 3.0 / d * np.sqrt(2)

    def test_linear_denoiser_half(self):
        d = 16
        rng = np.random.default_rng(6)
        v = random_hermitian(rng, d)
        c = estimate_onsager(lambda H, t: 0.5 * H, v, 0.1, d * d, 1e-5, 8, rng)
        assert abs(c - 0.5) < 3.0 / (2 * d) * np.sqrt(2)

    def test_matches_closed_form_svt_divergence(self):
        # eigenvalue soft-thresholding has a known divergence over the
        # Hermitian space; the probe average must approach it
        d = 12
        rng = np.random.default_rng(7)
        H = random_hermitian(rng, d)
        tau = 1.0
        lam = np.linalg.eigvalsh(H)
        eta = np.sign(lam) * np.clip(np.abs(lam) - tau, 0.0, None)
        div = float(np.sum(np.abs(lam) > tau))
        for i in range(d):
            for j in range(d):
                if i != j:
                    div += (eta[i] - eta[j]) / (lam[i] - lam[j])
        est = estimate_onsager(svt, H, tau, d * d, 1e-6, 400, rng)
        assert abs(est - div / (d * d)) < 0.05

    def test_deterministic_per_seed(self):
        v = random_hermitian(np.random.default_rng(8), 6)
        a = estimate_onsager(svt, v, 0.2, 36, 1e-5, 2, 123)
        b = estimate_onsager(svt, v, 0.2, 36, 1e-5, 2, 123)
        assert a == b

    def test_probe_statistics(self):
        rng = np.random.default_rng(9)
        h = hermitian_probe(rng, 64)
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.1

    def test_probe_is_the_symmetrized_complex_draw(self):
        # the same stream and bits as (z + z^dagger) / 2, z = re + i im
        for d in (1, 5, 32):
            rng = np.random.default_rng(d)
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = hermitian_probe(np.random.default_rng(d), d)
            assert np.array_equal(h, (z + z.conj().T) / 2.0)


class TestSpectralDenoise:
    """The fused denoisers and their exact probe against the seed's routes:
    two decompositions (threshold, then project) and a finite difference."""

    def test_fused_matches_two_step_and_svd_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            H = random_hermitian(rng, 8, scale=rng.uniform(0.1, 5.0))
            tau = float(rng.uniform(0, 2))
            ref = svd_oracle(H, tau)
            tol = 1e-14 * max(1.0, np.linalg.norm(H, 2))
            assert np.max(np.abs(svt(H, tau) - ref)) < tol
            out = psvt(H, tau)
            assert np.max(np.abs(out - project_to_density(svt(H, tau)))) < 1e-14
            assert np.max(np.abs(out - project_to_density(ref))) < 1e-14

    @pytest.mark.parametrize("denoiser", [svt, psvt])
    @pytest.mark.parametrize("lam", [
        np.linspace(-2.5, 2.5, 10),                                  # generic
        [2.0, 2.0, 2.0 + 1e-12, 1.2, 1.2, -1.5, -1.5, 0.1, 0.1, 0.0],  # ties
        [0.4, 0.3, 0.3, 0.0, -0.2, -0.45, 0.1, 0.1, -0.1, 0.25],       # all killed
    ], ids=["generic", "tied", "all-killed"])
    def test_probe_matches_finite_difference(self, denoiser, lam):
        rng = np.random.default_rng(11)
        H = with_spectrum(rng, lam)
        tau = 0.5
        d = H.shape[0]
        _, derivative = spectral_denoise(H, tau, project=denoiser is psvt)
        for seed in range(5):
            # M = 1 and one sample: estimate_onsager returns the bare quotient
            fd = estimate_onsager(denoiser, H, tau, 1, 1e-7, 1, seed)
            exact = derivative.probe(np.random.default_rng(seed).standard_normal((2, d, d)))
            assert abs(exact - fd) <= 1e-5 * max(1.0, abs(exact))
            if max(abs(x) for x in lam) < tau:
                assert exact == 0.0 and fd == 0.0

    @pytest.mark.parametrize("denoiser", [svt, psvt])
    @pytest.mark.parametrize("spectrum", [
        lambda d: np.linspace(-2.5, 2.5, d),
        lambda d: np.resize([2.0, 2.0, 2.0 + 1e-12, 1.2, 1.2, -1.5, -1.5, 0.1, 0.1, 0.0], d),
        lambda d: np.resize([0.4, 0.3, 0.3, 0.0, -0.2, -0.45, 0.1, 0.1, -0.1, 0.25], d),
    ], ids=["generic", "tied", "all-killed"])
    @pytest.mark.parametrize("d", [1, 2, 8, 64, 128])
    def test_probe_matches_dense_oracle(self, denoiser, spectrum, d):
        # rows K of h~ from the normals against the full V^dagger h V; the
        # call is warm-started as amp_step's is, which psvt uses at d >= 128
        rng = np.random.default_rng(13)
        lam = spectrum(d)
        H = with_spectrum(rng, lam)
        tau, project = 0.5, denoiser is psvt
        _, previous = spectral_denoise(nearby(H), tau, project)
        _, derivative = spectral_denoise(H, tau, project, previous)
        _, dense = dense_spectral_denoise(H, tau, project)
        for _ in range(5):
            z = rng.standard_normal((2, d, d))
            exact, ref = derivative.probe(z), dense.probe(z)
            assert abs(exact - ref) <= 1e-12 * abs(ref)
            if np.max(np.abs(lam)) < tau:
                assert exact == 0.0

    @pytest.mark.parametrize("project", [False, True], ids=["svt", "psvt"])
    @pytest.mark.parametrize("lam, tau, rotate", [
        ([1.5, 0.5, 0.2, -0.5, -1.2, 0.5], 0.5, False),            # |lam| = tau
        ([1.0, 0.0, 0.0, -0.7, 0.3, 0.0], 0.0, False),             # tau = 0
        ([-2.0, -1.5, -1.5, -0.1, 0.2, 1.1, 2.5, 2.5], 0.5, True),  # two tails
        ([0.4, -0.3, 0.0, 0.25, -0.45], 0.5, True),                # k = 0
        (amp_like([0.9, 1.7, 2.6]), 0.5, True),                     # d = 128
        (amp_like([1.3, 1.3, 2.0]), 0.5, True),                     # tied, d = 128
        (amp_like([]), 0.5, True),                                  # k = 0, d = 128
    ], ids=["at-tau", "tau-zero", "two-tails", "none-kept",
            "d128", "d128-tied", "d128-none-kept"])
    def test_kept_tails_match_dense_oracle(self, project, lam, tau, rotate,
                                           eigensolver_calls):
        # K is the tails lam > tau and, for svt, lam < -tau: an eigenvalue at
        # +-tau or at zero is not kept. Diagonal inputs keep their exact
        # eigenvalues, so the boundary cases really sit on the boundary. The
        # call is warm-started as amp_step's is: psvt at d = 128 then finds
        # the kept pairs with no d x d eigh, and svt still takes one.
        rng = np.random.default_rng(15)
        lam = np.asarray(lam)
        d = lam.size
        H = with_spectrum(rng, lam) if rotate else np.diag(lam).astype(complex)
        if not rotate:
            assert np.array_equal(np.linalg.eigvalsh(H), np.sort(lam))
        _, previous = spectral_denoise(nearby(H), tau, project)
        eigensolver_calls.clear()
        out, derivative = spectral_denoise(H, tau, project, previous)
        assert (("eigh", (d, d)) in eigensolver_calls) == (not project or d < 128)
        ref, dense = dense_spectral_denoise(H, tau, project)
        k = np.count_nonzero(lam > tau if project else np.abs(lam) > tau)
        assert derivative.vkh.shape == (k, d)
        assert np.max(np.abs(out - ref)) <= (1e-14 if d < 128 else 1e-12)
        for _ in range(5):
            z = rng.standard_normal((2, lam.size, lam.size))
            exact, oracle = derivative.probe(z), dense.probe(z)
            assert abs(exact - oracle) <= 1e-12 * abs(oracle)
            if k == 0:
                assert exact == 0.0

    @pytest.mark.filterwarnings("error")    # finiteness is checked before inf - inf
    @pytest.mark.parametrize("project", [False, True])
    @pytest.mark.parametrize("bad", [(np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.1),
                                     (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf)])
    def test_non_finite_input_rejected(self, project, bad):
        # unchecked, each of these returned a matrix (I/d, zero or NaN)
        entry, tau = bad
        H = np.diag([1.0, entry, 0.2]).astype(complex)
        with pytest.raises(ValueError, match="finite"):
            spectral_denoise(H, tau, project)
        with pytest.raises(ValueError, match="finite"):
            (psvt if project else svt)(H, tau)

    def test_probe_mean_matches_closed_form_psvt_divergence(self):
        d = 12
        rng = np.random.default_rng(12)
        H = random_hermitian(rng, d)
        tau = 1.0
        lam = np.linalg.eigvalsh(H)
        s = np.sign(lam) * np.clip(np.abs(lam) - tau, 0.0, None)
        kept = s > 0
        total = s[kept].sum()
        w = np.where(kept, s / total, 0.0)
        div = (kept.sum() - 1) / total
        for i in range(d):
            for j in range(d):
                if i != j:
                    div += (w[i] - w[j]) / (lam[i] - lam[j])
        _, derivative = spectral_denoise(H, tau, project=True)
        probes = [derivative.probe(rng.standard_normal((2, d, d))) for _ in range(2000)]
        assert abs(np.mean(probes) - div) < 0.03 * div


class TestWarmKeptPairs:
    """psvt at d >= 128 with a warm start: the kept pairs alone, certified,
    or a full eigh whenever they cannot be; the result is then the cold
    call's, bit for bit."""

    TAU = 0.5

    def warm_call(self, H, previous, calls):
        calls.clear()
        out, derivative = spectral_denoise(H, self.TAU, True, previous)
        return out, derivative, list(calls)

    def assert_is_the_cold_call(self, H, out, derivative, calls):
        assert calls.count(("eigh", H.shape)) == 1
        cold, cold_derivative = spectral_denoise(H, self.TAU, True)
        assert np.array_equal(out, cold)
        z = np.random.default_rng(3).standard_normal((2, *H.shape))
        assert derivative.probe(z) == cold_derivative.probe(z)

    @pytest.mark.parametrize("kept", [[0.8], [0.9, 1.7], [1.3, 1.3, 2.0, 3.5],
                                      [TAU + 0.004, 0.9, 3.5], [TAU + 0.018, 0.9, 3.5]],
                             ids=["k1", "k2", "k4-tied", "k3-4e-3-above", "k3-1.8e-2-above"])
    def test_successive_calls_match_dense_oracle(self, kept, eigensolver_calls):
        # a run of nearby matrices, each warm-started from the last: no call
        # after the first takes a d x d eigh, and each matches the oracle. The
        # k3 spectra mimic the k = 3 steps of GHZ n = 7 trials at fraction 0.5:
        # the lowest kept eigenvalue, just above tau, needs several sweeps.
        rng = np.random.default_rng(17)
        H = with_spectrum(rng, amp_like(kept, self.TAU))
        _, previous = spectral_denoise(H, self.TAU, True)
        for step in range(4):
            H = nearby(H, 1e-5, seed=step)
            out, previous, calls = self.warm_call(H, previous, eigensolver_calls)
            assert ("eigh", H.shape) not in calls
            ref, dense = dense_spectral_denoise(H, self.TAU, True)
            assert np.max(np.abs(out - ref)) <= 1e-12
            for _ in range(3):
                z = rng.standard_normal((2, *H.shape))
                exact, oracle = previous.probe(z), dense.probe(z)
                assert abs(exact - oracle) <= 1e-12 * abs(oracle)

    def test_none_kept_gives_the_maximally_mixed_state(self, eigensolver_calls):
        H = with_spectrum(np.random.default_rng(18), amp_like([], self.TAU))
        _, previous = spectral_denoise(nearby(H), self.TAU, True)
        out, derivative, calls = self.warm_call(H, previous, eigensolver_calls)
        assert ("eigh", H.shape) not in calls
        assert np.array_equal(out, np.eye(128) / 128)
        assert derivative.probe(np.random.default_rng(4).standard_normal((2, 128, 128))) == 0.0

    def test_wrong_subspace_fails_the_certificate(self, eigensolver_calls):
        # The warm block holds exact eigenvectors of H, but not the top one:
        # its residuals converge at once and its two Ritz values above tau
        # look like the whole kept set. Only the Cholesky certificate sees
        # the third eigenvalue above tau.
        rng = np.random.default_rng(19)
        Q, _ = np.linalg.qr(rng.standard_normal((128, 128))
                            + 1j * rng.standard_normal((128, 128)))
        lam = np.sort(amp_like([0.9, 1.7, 2.6], self.TAU))
        wrong = lam.copy()
        wrong[[-1, 0]] = wrong[[0, -1]]         # the top eigenvector leaves the block
        H, decoy = ((Q * x) @ Q.conj().T for x in (lam, wrong))
        H, decoy = (0.5 * (A + A.conj().T) for A in (H, decoy))
        _, previous = spectral_denoise(decoy, self.TAU, True)
        out, derivative, calls = self.warm_call(H, previous, eigensolver_calls)
        self.assert_is_the_cold_call(H, out, derivative, calls)

    def test_full_block_goes_to_eigh(self, eigensolver_calls, function_calls):
        # one kept pair seeds a block of three; H has four above tau, so all
        # three Ritz values exceed tau and nothing is left to certify
        function_calls.watch(np.linalg, "cholesky")
        rng = np.random.default_rng(20)
        H = with_spectrum(rng, amp_like([0.9, 1.2, 1.7, 2.6], self.TAU))
        lam, V = np.linalg.eigh(H)
        # the same eigenvectors in the same order, with one value above tau
        few = (V * np.where(lam > 2.0, lam, lam * 0.49 / 1.7)) @ V.conj().T
        _, previous = spectral_denoise(0.5 * (few + few.conj().T), self.TAU, True)
        assert previous.block.shape == (128, 3)
        out, derivative, calls = self.warm_call(H, previous, eigensolver_calls)
        assert "cholesky" not in calls
        self.assert_is_the_cold_call(H, out, derivative, calls)

    def test_exhausted_sweep_cap_goes_to_eigh(self, eigensolver_calls, function_calls):
        # the lowest kept eigenvalue sits 1e-4 above tau, two unkept ones 1e-4
        # and 2e-4 below: the filter separates them in about 80 sweeps, so the
        # search stops at the cap, after its first Rayleigh-Ritz step and
        # one per sweep
        function_calls.watch(np.linalg, "cholesky")
        kept = [self.TAU + 1e-4, 1.7]
        H = with_spectrum(np.random.default_rng(21), np.r_[amp_like(kept, self.TAU)[:-4],
                                                           self.TAU - 2e-4, self.TAU - 1e-4,
                                                           kept])
        _, previous = spectral_denoise(nearby(H, 1e-4), self.TAU, True)
        out, derivative, calls = self.warm_call(H, previous, eigensolver_calls)
        assert "cholesky" not in calls
        assert calls.count(("eigh", (4, 4))) == states_module._MAX_SWEEPS + 1
        self.assert_is_the_cold_call(H, out, derivative, calls)

    def test_more_than_four_kept_go_to_eigh(self, eigensolver_calls):
        # each kept pair costs the probe one d x d factorization, so five are left
        # to eigh: no block is seeded
        H = with_spectrum(np.random.default_rng(23),
                          amp_like([0.9, 1.2, 1.7, 2.1, 2.6], self.TAU))
        _, previous = spectral_denoise(nearby(H), self.TAU, True)
        assert previous.block is None
        out, derivative, calls = self.warm_call(H, previous, eigensolver_calls)
        self.assert_is_the_cold_call(H, out, derivative, calls)

    def test_public_rules_take_no_warm_start(self, eigensolver_calls):
        # svt, psvt and the projection decompose in full at any size
        H = with_spectrum(np.random.default_rng(22), amp_like([0.9, 1.7], self.TAU))
        for rule in (lambda H: svt(H, self.TAU), lambda H: psvt(H, self.TAU),
                     project_to_density):
            eigensolver_calls.clear()
            rule(H)
            assert eigensolver_calls == [("eigh", H.shape)]


class TestBorderedProbe:
    """The deflated probe's k resolvent terms come from one batched Cholesky
    of bordered matrices. At its hardest inputs, a kept eigenvalue barely
    above tau (s_i about 1e-12 of the spectral scale) and a zero b_i, it
    neither raises nor overflows and matches the dense oracle within the
    d = 128 bound."""

    TAU = 0.5
    BARELY = [TAU + 1e-12 * 1.7, 1.7]

    def warm(self, H, calls):
        # the cold call's block holds H's exact top eigenvectors, so the warm
        # call certifies them at once and takes the deflated form
        _, previous = spectral_denoise(H, self.TAU, True)
        calls.clear()
        with np.errstate(all="raise"):
            out, derivative = spectral_denoise(H, self.TAU, True, previous)
        assert derivative.deflated is not None and ("eigh", H.shape) not in calls
        ref, dense = dense_spectral_denoise(H, self.TAU, True)
        assert np.max(np.abs(out - ref)) <= 1e-12
        return derivative, dense

    def assert_matches(self, derivative, dense, z):
        with np.errstate(all="raise"):
            exact = derivative.probe(z)
        oracle = dense.probe(z)
        assert np.isfinite(exact) and abs(exact - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize("kept", [[0.9, 1.7], BARELY], ids=["apart", "barely-above"])
    @pytest.mark.parametrize("direction", ["random", "zero-b", "one-zero-b"])
    def test_diagonal_matches_dense_oracle(self, kept, direction, eigensolver_calls):
        # in the standard basis the kept vectors are exact, so a direction
        # that keeps K in K gives exactly zero b_i
        rng = np.random.default_rng(41)
        lam = rng.permutation(amp_like(kept, self.TAU))
        H = np.diag(lam).astype(np.complex128)
        derivative, dense = self.warm(H, eigensolver_calls)
        low, high = np.argsort(lam)[-2:]
        if direction == "random":
            h = hermitian(rng.standard_normal((2, 128, 128)))
        else:
            h = np.zeros((128, 128), dtype=np.complex128)
            h[np.ix_([low, high], [low, high])] = random_hermitian(rng, 2)
            if direction == "one-zero-b":
                # 2h v_high leaves K, 2h v_low (the barely kept one) stays in it
                j = np.argmin(lam)
                h[high, j] = h[j, high] = 0.7
        z = np.stack([h.real, h.imag])
        b = derivative.vkh @ (2 * h) - (derivative.vkh @ (2 * h) @ derivative.vecs) \
            @ derivative.vkh
        zero = {"random": [], "zero-b": [0, 1], "one-zero-b": [0]}[direction]
        assert [i for i in range(2) if not b[i].any()] == zero
        self.assert_matches(derivative, dense, z)

    def test_rotated_barely_above_matches_dense_oracle(self, eigensolver_calls):
        rng = np.random.default_rng(42)
        H = with_spectrum(rng, amp_like(self.BARELY, self.TAU))
        derivative, dense = self.warm(H, eigensolver_calls)
        assert len(derivative.coupling) == 2
        assert derivative.coupling[0] / derivative.slope < 1e-11
        for _ in range(3):
            self.assert_matches(derivative, dense, rng.standard_normal((2, 128, 128)))


class TestSubspaceProbe:
    """From d = 128 on, a probe's normals give only the rows K of its
    direction, 2 k (k + d) of them in place of 2 d^2: the same probe of a
    full direction rebuilt from them, and the same law as the full draw."""

    TAU = 0.5
    FORMS = ["deflated", "eigh", "svt", "k0-deflated", "k0-eigh"]

    def derivative(self, form):
        lam = amp_like([] if form.startswith("k0") else [0.9, 1.7], self.TAU)
        if form == "svt":
            lam[0] = -1.2          # a kept tail below -tau as well
        H = with_spectrum(np.random.default_rng(43), lam)
        _, derivative = spectral_denoise(H, self.TAU, form != "svt")
        if form.endswith("deflated"):
            _, derivative = spectral_denoise(H, self.TAU, True, derivative)
        assert (derivative.deflated is not None) == form.endswith("deflated")
        return derivative

    @pytest.mark.parametrize("form", FORMS)
    def test_matches_the_probe_of_the_rebuilt_direction(self, form):
        derivative = self.derivative(form)
        k, d = derivative.vkh.shape
        assert derivative.probe_shape == (2, k, k + d)
        assert k == {"svt": 3, "deflated": 2, "eigh": 2}.get(form, 0)
        rng = np.random.default_rng(44)
        for _ in range(3):
            z = rng.standard_normal(derivative.probe_shape)
            exact = derivative.probe(z)
            oracle = derivative.probe(rebuilt_direction(derivative, z, rng))
            assert abs(exact - oracle) <= 1e-12 * abs(oracle)
            assert (exact == 0.0) == (k == 0)

    @pytest.mark.parametrize("form", ["deflated", "svt"])
    def test_law_matches_the_full_draw(self, form):
        # mean and variance of the probe from 2 k (k + d) normals against
        # those from 2 d^2, within 4 standard errors of their differences
        derivative, rng, n = self.derivative(form), np.random.default_rng(45), 500
        sub, full = (np.array([derivative.probe(rng.standard_normal(shape))
                               for _ in range(n)])
                     for shape in (derivative.probe_shape, (2, 128, 128)))
        assert abs(sub.mean() - full.mean()) <= 4 * np.sqrt((sub.var() + full.var()) / n)
        sub, full = (sub - sub.mean()) ** 2, (full - full.mean()) ** 2
        assert abs(sub.mean() - full.mean()) <= 4 * np.sqrt((sub.var() + full.var()) / n)


def make_problem(n=3, M=None, seed=0, shots=None, rank=1, rho=None):
    if rho is None:
        rho = make_random_state(n, rank, np.random.default_rng((seed, 1)))
    if M is None:
        codes = np.arange(4 ** n)
    else:
        codes = sample_observables(n, M, np.random.default_rng((seed, 2)))
    plan = MeasurementPlan(n, "observables", codes)
    smap, y = build_measurements(rho, plan, shots=shots, seed=(seed, 3))
    return rho, smap, y


def pseudo_data(prev_rho, smap, new):
    """v = rho_prev + A~^dagger(r), recomputed as amp_step forms it."""
    s = float(np.sqrt(smap.d / smap.M))
    return prev_rho + apply_adjoint(smap, s * new.residual)


class TestAmpStep:
    def test_truth_is_fixed_point_of_data_term(self):
        rho, smap, y = make_problem()
        cfg = AmpConfig(seed=0)
        state = initial_state(smap)
        state.rho = rho
        new = amp_step(state, smap, y, cfg, np.random.default_rng(0))
        assert np.max(np.abs(new.residual)) < 1e-10
        assert new.sigma < 1e-10
        assert np.max(np.abs(pseudo_data(rho, smap, new) - rho)) < 1e-9
        assert np.max(np.abs(new.rho - rho)) < 1e-12

    def test_first_step_has_no_onsager(self):
        rho, smap, y = make_problem(seed=1)
        s = np.sqrt(smap.d / smap.M)
        cfg = AmpConfig(seed=0)
        new = amp_step(initial_state(smap), smap, y, cfg, np.random.default_rng(0))
        expected_r = s * y - s * apply_sensing(smap, np.eye(8) / 8)
        assert new.onsager == 0.0
        assert np.allclose(new.residual, expected_r, atol=1e-12)

    def test_non_finite_iterate_raises_floating_point_error(self):
        # the builtin error, carrying nothing: run_amp keeps the last state
        rho, smap, y = make_problem(seed=1)
        state = initial_state(smap)
        state.rho[0, 0] = np.inf
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="at iteration 0"):
            amp_step(state, smap, y, AmpConfig(seed=0), np.random.default_rng(0))

    def test_residual_is_real_vector(self):
        rho, smap, y = make_problem(seed=2, shots=256)
        state = initial_state(smap)
        rng = np.random.default_rng(1)
        for _ in range(5):
            state = amp_step(state, smap, y, AmpConfig(seed=0), rng)
            assert state.residual.dtype == np.float64

    def test_onsager_is_twice_the_probe_estimate(self):
        # the step probes the previous pseudo-data with the first draws of
        # its generator, as estimate_onsager does with the same seed
        rho, smap, y = make_problem(seed=12, M=40, shots=512)
        cfg = AmpConfig(seed=0)
        rng = np.random.default_rng(5)
        start = initial_state(smap)
        first = amp_step(start, smap, y, cfg, rng)
        second = amp_step(first, smap, y, cfg, rng)
        fd = estimate_onsager(psvt, pseudo_data(start.rho, smap, first), first.tau,
                              smap.M, 1e-7, 1, np.random.default_rng(5))
        assert second.onsager != 0.0
        assert abs(second.onsager - 2.0 * fd) <= 1e-5 * abs(second.onsager)

    def test_damping_convexity(self):
        rho, smap, y = make_problem(seed=3, shots=512)
        cfg = AmpConfig(seed=0, damping=0.3)
        rng = np.random.default_rng(2)
        state = initial_state(smap)
        prev_rho = state.rho.copy()
        state = amp_step(state, smap, y, cfg, rng)
        denoised = psvt(pseudo_data(prev_rho, smap, state), state.tau)
        reassembled = 0.3 * denoised + 0.7 * prev_rho
        assert np.linalg.norm(state.rho - reassembled) == 0.0

    def test_psvt_iterates_are_densities(self):
        # AmpTrace's truth fidelity of a PSVT iterate relies on this, over a
        # run as long as the flagship's, without checking it
        rho, smap, y = make_problem(seed=4, shots=512)
        rng = np.random.default_rng(3)
        state = initial_state(smap)
        for _ in range(2000):
            state = amp_step(state, smap, y, AmpConfig(seed=0), rng)
            assert is_density(state.rho)
            assert np.array_equal(state.rho, state.rho.conj().T)


class TestRunAmp:
    def test_noiseless_full_basis_recovery(self):
        rho, smap, y = make_problem(n=3, seed=5)
        rho_hat, _, _ = run_amp(smap, y, AmpConfig(seed=1))
        oracle = sum(y[k] * kron_word(w) for k, w in enumerate(words_of(smap))) / smap.d
        assert nmse(oracle, rho_hat) < 1e-6
        assert nmse(rho, rho_hat) < 1e-6

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected_at_the_boundary(self, bad):
        # not reported as a divergence at iteration 0
        rho, smap, y = make_problem(n=2, seed=6)
        y = y.copy()
        y[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            run_amp(smap, y, AmpConfig(seed=0, max_iter=5))

    def test_unnormalized_baseline_diverges(self):
        rho, smap, y = make_problem(n=3, M=32, seed=6, shots=512)
        cfg = AmpConfig(seed=2, denoiser="svt", damping=1.0,
                        normalize=False)
        trace = AmpTrace()
        rho_hat, iterations, diverged = run_amp(smap, y, cfg, trace)
        assert len(trace) <= 200
        assert diverged is trace.diverged is True
        assert np.isfinite(rho_hat).all()
        # the updates completed, as MiFGD counts them
        assert iterations == len(trace)

    def test_trace_lengths_and_tau_relation(self):
        rho, smap, y = make_problem(n=2, seed=7, shots=256)
        cfg = AmpConfig(seed=3, max_iter=40)
        trace = AmpTrace(factor_density(rho))
        rho_hat, _, _ = run_amp(smap, y, cfg, trace)
        assert len(trace) == 40
        assert len(trace.nmse) == 40 and len(trace.fidelity) == 40
        for col in (trace.sigma, trace.tau, trace.onsager, trace.residual_norm,
                    trace.nmse, trace.fidelity):
            assert isinstance(col, np.ndarray) and col.dtype == np.float64
        for s, t in zip(trace.sigma, trace.tau):
            assert abs(t - 2.0 * s * np.sqrt(smap.d)) < 1e-12

    @pytest.mark.parametrize("denoiser", ["psvt", "svt"])
    @pytest.mark.parametrize("n, M, rank, iters", [(3, 40, 3, 25), (5, 384, 3, 200)],
                             ids=["n3", "flagship-shape"])
    def test_trace_fidelity_matches_dense_recomputation(self, denoiser, n, M, rank, iters):
        # replay the iterates and judge each against the dense truth array:
        # the stacked PSVT path and the checked SVT path give the same bits,
        # and AmpTrace's NMSE, computed without states.nmse, gives its bits
        rho, smap, y = make_problem(n=n, M=M, seed=12, shots=512, rank=rank)
        cfg = AmpConfig(seed=7, max_iter=iters, denoiser=denoiser)
        trace = AmpTrace(factor_density(rho))
        run_amp(smap, y, cfg, trace)
        state, rng = initial_state(smap), np.random.default_rng(cfg.seed)
        for t in range(cfg.max_iter):
            state = amp_step(state, smap, y, cfg, rng)
            assert trace.nmse[t] == nmse(rho, state.rho)
            assert trace.fidelity[t] == state_fidelity(rho, state.rho)

    def test_truth_metrics_leave_the_run_unchanged(self):
        rho, smap, y = make_problem(n=3, M=40, seed=14, shots=512, rank=2)
        cfg = AmpConfig(seed=9, max_iter=60)
        bare, full = AmpTrace(), AmpTrace(factor_density(rho))
        plain, _, _ = run_amp(smap, y, cfg, bare)
        judged, _, _ = run_amp(smap, y, cfg, full)
        assert np.array_equal(plain, judged)
        for col in ("sigma", "tau", "onsager", "residual_norm"):
            assert np.array_equal(getattr(bare, col), getattr(full, col))
        assert bare.nmse is None and bare.fidelity is None

    def test_truth_is_factored_once_per_run(self, eigensolver_calls):
        # per iteration: the denoiser's one d x d eigh and nothing else;
        # once per run: one stacked r x r eigvalsh for every iterate's
        # fidelity. The caller factors the truth; the trace does not.
        rho, smap, y = make_problem(n=3, M=40, seed=13, shots=512, rank=2)
        truth = factor_density(rho)
        calls = eigensolver_calls
        calls.clear()
        iters = 30
        run_amp(smap, y, AmpConfig(seed=8, max_iter=iters), AmpTrace(truth))
        assert calls.count(("eigh", (8, 8))) == iters
        assert calls.count(("eigvalsh", (iters, 2, 2))) == 1
        assert len(calls) == iters + 1

    def test_warm_run_makes_one_full_eigh(self, eigensolver_calls):
        # at n = 7 the cold start's 128 x 128 eigh seeds the block; every
        # later step finds its kept pairs by the p x p Rayleigh-Ritz steps
        # of the warm start, p = k + 2 = 4, and certifies them
        _, smap, y = make_problem(n=7, M=4000, seed=3, shots=1024, rank=2)
        calls = eigensolver_calls
        calls.clear()
        iters = 30
        run_amp(smap, y, AmpConfig(seed=8, max_iter=iters))
        assert calls.count(("eigh", (128, 128))) == 1
        assert calls.count(("eigh", (4, 4))) >= iters - 1
        assert len(calls) == 1 + calls.count(("eigh", (4, 4)))

    def test_diverging_trace_columns_agree(self):
        rho, smap, y = make_problem(n=3, M=32, seed=6, shots=512)
        cfg = AmpConfig(seed=2, denoiser="svt", damping=1.0, normalize=False)
        trace = AmpTrace(factor_density(rho))
        _, iterations, diverged = run_amp(smap, y, cfg, trace)
        assert diverged and trace.diverged and iterations == len(trace) > 0
        for col in (trace.tau, trace.onsager, trace.residual_norm,
                    trace.nmse, trace.fidelity):
            assert len(col) == len(trace)

    def test_divergence_keeps_pending_fidelities(self, monkeypatch):
        # PSVT iterates stay bounded, so the failure is injected: the step
        # after ten iterations goes non-finite, with ten fidelities still pending
        rho, smap, y = make_problem(n=3, M=40, seed=16, shots=512, rank=2)
        cfg = AmpConfig(seed=4, max_iter=30)
        ref = AmpTrace(factor_density(rho))
        run_amp(smap, y, AmpConfig(seed=4, max_iter=10), ref)
        step = amp_module.amp_step

        def failing_step(state, *args):
            if state.t == 10:
                raise FloatingPointError("injected")
            return step(state, *args)
        monkeypatch.setattr(amp_module, "amp_step", failing_step)
        trace = AmpTrace(factor_density(rho))
        _, iterations, diverged = run_amp(smap, y, cfg, trace)
        assert diverged and trace.diverged and iterations == len(trace) == 10
        assert np.array_equal(trace.fidelity, ref.fidelity)
        assert np.array_equal(trace.nmse, ref.nmse)

    @pytest.mark.parametrize("n, rank, M, seed", [(3, None, 48, 0), (5, 3, 384, 3)],
                             ids=["ghz3", "random5-rank3"])
    def test_run_matches_the_dense_oracle(self, monkeypatch, n, rank, M, seed):
        # The rank-3 run keeps nothing in some iterations before keeping
        # again: a probe that drew no normals there would shift the stream.
        rho = pure_density(make_named_state("ghz", n)) if rank is None else None
        _, smap, y = make_problem(n=n, M=M, seed=seed, shots=1024, rank=rank, rho=rho)
        cfg = AmpConfig(seed=6, max_iter=300)
        fast = AmpTrace()
        run_amp(smap, y, cfg, fast)
        kept = []

        def dense(H, tau, project, previous=None):    # the warm start is ignored
            out, derivative = dense_spectral_denoise(H, tau, project)
            kept.append(bool(derivative.gamma.any() or derivative.jac.any()))
            return out, derivative
        monkeypatch.setattr(amp_module, "spectral_denoise", dense)
        slow = AmpTrace()
        run_amp(smap, y, cfg, slow)
        if rank is not None:
            assert not all(kept) and any(kept[kept.index(False) + 1:])
        for col in ("sigma", "tau", "onsager", "residual_norm"):
            assert np.allclose(getattr(fast, col), getattr(slow, col), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("alpha", [2.0, 50.0], ids=["kept", "none-kept"])
    def test_probes_take_2d2_normals_each(self, alpha):
        # t iterations probe t - 1 times, each probe 2 d^2 normals, whatever
        # the step keeps: the generator is left where a fresh one is after
        # 2 d^2 (t - 1) draws. At alpha = 50 nothing is kept.
        rho, smap, y = make_problem(n=3, M=40, seed=17, shots=512, rank=2)
        rng, iters, d = np.random.default_rng(21), 30, smap.d
        trace = AmpTrace()
        run_amp(smap, y, AmpConfig(seed=rng, max_iter=iters, alpha=alpha), trace)
        assert len(trace) == iters
        assert (trace.onsager[1:] != 0.0).any() == (alpha == 2.0)
        fresh = np.random.default_rng(21)
        fresh.standard_normal(2 * d * d * (iters - 1))
        assert np.array_equal(rng.standard_normal(8), fresh.standard_normal(8))

    @pytest.mark.parametrize("alpha", [2.0, 50.0], ids=["kept", "none-kept"])
    def test_probes_take_2k_k_plus_d_normals_each_at_d128(self, monkeypatch, alpha):
        # from d = 128 on, a probe draws 2 k (k + d) normals for the k pairs
        # its derivative keeps, so none at all when nothing is kept
        _, smap, y = make_problem(n=7, M=3000, seed=31, shots=1024)
        kept, denoise = [], amp_module.spectral_denoise

        def counting(*args):
            out, derivative = denoise(*args)
            kept.append(len(derivative.vkh))
            return out, derivative
        monkeypatch.setattr(amp_module, "spectral_denoise", counting)
        rng, iters, d = np.random.default_rng(21), 10, smap.d
        run_amp(smap, y, AmpConfig(seed=rng, max_iter=iters, alpha=alpha))
        assert len(kept) == iters and any(kept) == (alpha == 2.0)
        fresh = np.random.default_rng(21)
        fresh.standard_normal(sum(2 * k * (k + d) for k in kept[:-1]))
        assert np.array_equal(rng.standard_normal(8), fresh.standard_normal(8))

    def test_untraced_run_returns_iterations(self):
        rho, smap, y = make_problem(n=3, M=40, seed=14, shots=512, rank=2)
        cfg = AmpConfig(seed=9, max_iter=25, denoiser="svt")
        plain, iters, _ = run_amp(smap, y, cfg)
        judged, judged_iters, _ = run_amp(smap, y, cfg, AmpTrace(factor_density(rho)))
        assert iters == judged_iters == cfg.max_iter
        assert plain.tobytes() == judged.tobytes()

    @pytest.mark.parametrize("truth", [False, True], ids=["bare", "judged"])
    @pytest.mark.parametrize("diverge", [False, True], ids=["ran", "diverged"])
    def test_closed_trace_holds_only_its_columns(self, truth, diverge):
        rho, smap, y = make_problem(n=3, M=32, seed=6, shots=512)
        cfg = AmpConfig(seed=2, denoiser="svt", damping=1.0, normalize=not diverge,
                        max_iter=300)
        trace = AmpTrace(factor_density(rho) if truth else None)
        _, iterations, diverged = run_amp(smap, y, cfg, trace)
        assert diverged is diverge and iterations == len(trace)
        held = vars(trace)
        assert held.pop("diverged") is diverge
        columns = ["sigma", "tau", "onsager", "residual_norm"]
        columns += ["nmse", "fidelity"] if truth else []
        assert sorted(k for k, v in held.items() if v is not None) == sorted(columns)
        for name in columns:
            assert held[name].dtype == np.float64 and held[name].shape == (len(trace),)
        assert (len(trace) < cfg.max_iter) == diverge

    def test_truth_of_another_dimension_is_refused(self):
        rho, smap, y = make_problem(n=3, M=40, seed=14, shots=512, rank=2)
        with pytest.raises(ValueError):
            run_amp(smap, y, AmpConfig(seed=9, max_iter=5),
                    AmpTrace(factor_density(make_random_state(2, 1, 0))))

    def test_retained_trace_is_compact(self):
        # a caller that keeps every trial's trace keeps six float64 columns
        rho, smap, y = make_problem(n=2, seed=15, shots=256)
        cfg = AmpConfig(seed=3, max_iter=2000)
        run_amp(smap, y, AmpConfig(seed=3, max_iter=5), AmpTrace(factor_density(rho)))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = AmpTrace(factor_density(rho))
            run_amp(smap, y, cfg, trace)
            gc.collect()   # also empties the interpreter's free lists
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == 2000
        assert held <= 120_000

    def test_deterministic_per_seed(self):
        rho, smap, y = make_problem(n=2, seed=9, shots=128)
        a, _, _ = run_amp(smap, y, AmpConfig(seed=5, max_iter=30))
        b, _, _ = run_amp(smap, y, AmpConfig(seed=5, max_iter=30))
        assert np.array_equal(a, b)

    def test_concurrent_runs_under_a_short_switch_interval(self):
        # more runs than cores in the caller's threads, switching every
        # microsecond: each run still equals the same run made alone
        _, smap, y = make_problem(n=7, M=3000, seed=31, shots=1024)
        configs = [AmpConfig(seed=seed, max_iter=8) for seed in range((os.cpu_count() or 1) + 2)]
        expected = [run_amp(smap, y, config) for config in configs]
        results = [None] * len(configs)

        def work(k):
            results[k] = run_amp(smap, y, configs[k])

        runs = [threading.Thread(target=work, args=(k,)) for k in range(len(configs))]
        interval, start = sys.getswitchinterval(), time.monotonic()
        sys.setswitchinterval(1e-6)
        try:
            for run in runs:
                run.start()
            for run in runs:
                run.join(timeout=max(1.0, 120.0 - (time.monotonic() - start)))
        finally:
            sys.setswitchinterval(interval)
        assert not any(run.is_alive() for run in runs)
        for (rho_hat, iterations, diverged), (ref, ref_iterations, ref_diverged) \
                in zip(results, expected):
            assert rho_hat.tobytes() == ref.tobytes()
            assert (iterations, diverged) == (ref_iterations, ref_diverged)

    def test_sigma_stagnates_in_converged_run(self):
        # the Monte Carlo Onsager coefficient jitters the plateau, so the
        # stagnation check is on the windowed trend, not per-step order
        rho, smap, y = make_problem(n=3, M=48, seed=11, shots=1024)
        trace = AmpTrace()
        run_amp(smap, y, AmpConfig(seed=9, max_iter=600), trace)
        s = np.array(trace.sigma)
        assert s[-1] < s[0]
        assert np.mean(s[-50:]) <= 1.05 * np.mean(s[-100:-50])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AmpConfig(damping=0.0)
        with pytest.raises(ValueError):
            AmpConfig(damping=1.5)
        with pytest.raises(ValueError):
            AmpConfig(alpha=-1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="alpha"):
                AmpConfig(alpha=bad)
            with pytest.raises(ValueError, match="damping"):
                AmpConfig(damping=bad)
        with pytest.raises(ValueError):
            AmpConfig(denoiser="hard")
        assert AmpConfig(denoiser="SVT").denoiser == "svt"
