import numpy as np
import pytest

from ampqst.amp import (
    AmpConfig,
    AmpState,
    estimate_onsager,
    hermitian_probe,
    initial_state,
    amp_step,
    psvt,
    run_amp,
    spectral_denoise,
    svt,
)
from ampqst.errors import DivergenceError
from ampqst.measure import build_measurements
from ampqst.pauli import (
    MeasurementPlan,
    apply_adjoint,
    apply_sensing,
    pauli_words_from_indices,
    sample_observables,
)
from ampqst.states import (
    is_density,
    make_random_state,
    nmse,
    project_to_density,
    pure_density,
    state_fidelity,
)


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
            exact = derivative.probe(hermitian_probe(np.random.default_rng(seed), d))
            assert abs(exact - fd) <= 1e-5 * max(1.0, abs(exact))
            if max(abs(x) for x in lam) < tau:
                assert exact == 0.0 and fd == 0.0

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
        probes = [derivative.probe(hermitian_probe(rng, d)) for _ in range(2000)]
        assert abs(np.mean(probes) - div) < 0.03 * div


def make_problem(n=3, M=None, seed=0, shots=None, rank=1):
    rho = make_random_state(n, rank, np.random.default_rng((seed, 1)))
    if M is None:
        words = pauli_words_from_indices(np.arange(4 ** n), n)
    else:
        words = sample_observables(n, M, np.random.default_rng((seed, 2)))
    plan = MeasurementPlan(n=n, mode="observables", words=tuple(words))
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
        cfg = AmpConfig(seed=0, mc_samples=3)
        rng = np.random.default_rng(5)
        start = initial_state(smap)
        first = amp_step(start, smap, y, cfg, rng)
        second = amp_step(first, smap, y, cfg, rng)
        fd = estimate_onsager(psvt, pseudo_data(start.rho, smap, first), first.tau,
                              smap.M, 1e-7, 3, np.random.default_rng(5))
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
        rho, smap, y = make_problem(seed=4, shots=512)
        rng = np.random.default_rng(3)
        state = initial_state(smap)
        for _ in range(10):
            state = amp_step(state, smap, y, AmpConfig(seed=0), rng)
            assert is_density(state.rho)


class TestRunAmp:
    def test_noiseless_full_basis_recovery(self):
        rho, smap, y = make_problem(n=3, seed=5)
        rho_hat, trace = run_amp(smap, y, AmpConfig(seed=1))
        oracle = sum(y[k] * kron_word(w) for k, w in enumerate(smap.words)) / smap.d
        assert nmse(oracle, rho_hat) < 1e-6
        assert nmse(rho, rho_hat) < 1e-6

    def test_unnormalized_baseline_diverges(self):
        rho, smap, y = make_problem(n=3, M=32, seed=6, shots=512)
        cfg = AmpConfig(seed=2, denoiser="svt", damping=1.0,
                        normalize=False)
        with pytest.raises(DivergenceError) as exc:
            run_amp(smap, y, cfg)
        assert exc.value.trace is not None
        assert len(exc.value.trace) <= 200
        assert exc.value.trace.diverged

    def test_trace_lengths_and_tau_relation(self):
        rho, smap, y = make_problem(n=2, seed=7, shots=256)
        cfg = AmpConfig(seed=3, max_iter=40)
        rho_hat, trace = run_amp(smap, y, cfg, ground_truth=rho)
        assert len(trace) == 40
        assert len(trace.nmse) == 40 and len(trace.fidelity) == 40
        for s, t in zip(trace.sigma, trace.tau):
            assert abs(t - 2.0 * s * np.sqrt(smap.d)) < 1e-12

    def test_trace_fidelity_matches_dense_recomputation(self):
        # replay the iterates and judge each against the dense truth array
        rho, smap, y = make_problem(n=3, M=40, seed=12, shots=512, rank=3)
        cfg = AmpConfig(seed=7, max_iter=25)
        _, trace = run_amp(smap, y, cfg, ground_truth=rho)
        state, rng = initial_state(smap), np.random.default_rng(cfg.seed)
        for t in range(cfg.max_iter):
            state = amp_step(state, smap, y, cfg, rng)
            assert trace.nmse[t] == nmse(rho, state.rho)
            assert abs(trace.fidelity[t] - state_fidelity(rho, state.rho)) < 1e-12

    def test_truth_is_factored_once_per_run(self, eigensolver_calls):
        # per iteration: the denoiser's one d x d eigh, and the fidelity's
        # d x d eigvalsh (is_density of the iterate) and r x r eigvalsh;
        # once per run: check_density's eigvalsh and the factor's eigh
        rho, smap, y = make_problem(n=3, M=40, seed=13, shots=512, rank=2)
        calls = eigensolver_calls
        calls.clear()
        iters = 30
        run_amp(smap, y, AmpConfig(seed=8, max_iter=iters), ground_truth=rho)
        assert calls.count(("eigh", 8)) == iters + 1
        assert calls.count(("eigvalsh", 8)) == iters + 1
        assert calls.count(("eigvalsh", 2)) == iters
        assert len(calls) == 3 * iters + 2

    def test_trace_csv_export(self, tmp_path):
        rho, smap, y = make_problem(n=2, seed=8, shots=128)
        _, trace = run_amp(smap, y, AmpConfig(seed=4, max_iter=10),
                           ground_truth=rho)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,sigma,tau,onsager,residual_norm,nmse,fidelity"
        assert len(lines) == 11

    def test_deterministic_per_seed(self):
        rho, smap, y = make_problem(n=2, seed=9, shots=128)
        a, _ = run_amp(smap, y, AmpConfig(seed=5, max_iter=30))
        b, _ = run_amp(smap, y, AmpConfig(seed=5, max_iter=30))
        assert np.array_equal(a, b)

    def test_sigma_stagnates_in_converged_run(self):
        # the Monte Carlo Onsager coefficient jitters the plateau, so the
        # stagnation check is on the windowed trend, not per-step order
        rho, smap, y = make_problem(n=3, M=48, seed=11, shots=1024)
        _, trace = run_amp(smap, y, AmpConfig(seed=9, max_iter=600))
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
