import numpy as np
import pytest

from ampqst.mifgd import MifgdConfig, run_mifgd
from ampqst.measure import build_measurements
from ampqst.pauli import MeasurementPlan, apply_sensing, pauli_words_from_indices
from ampqst.states import (
    make_random_state,
    numerical_rank,
    project_to_density,
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


def full_basis_problem(n, seed, rank=1):
    rho = make_random_state(n, rank, np.random.default_rng((seed, 1)))
    words = tuple(pauli_words_from_indices(np.arange(4 ** n), n))
    plan = MeasurementPlan(n=n, mode="observables", words=words)
    smap, y = build_measurements(rho, plan, shots=None, seed=(seed, 2))
    return rho, smap, y


class TestMomentum:
    def test_default(self):
        assert MifgdConfig().mu == 0.75

    def test_explicit_zero(self):
        assert MifgdConfig(mu=0.0).mu == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MifgdConfig(mu=-0.1)


class TestRunMifgd:
    def test_noiseless_pure_recovery(self):
        rho, smap, y = full_basis_problem(2, seed=0)
        oracle = sum(y[k] * kron_word(w) for k, w in enumerate(smap.words)) / smap.d
        rho_hat, iters = run_mifgd(smap, y, MifgdConfig(rank_budget=1, mu=0.0, seed=3))
        fid = state_fidelity(project_to_density(oracle),
                             project_to_density(rho_hat))
        assert fid > 0.99

    def test_zero_step_size_freezes(self):
        rho, smap, y = full_basis_problem(2, seed=1)
        cfg = MifgdConfig(eta=1e-30, mu=0.0, rank_budget=2, max_iter=5, seed=7)
        rho_hat, _ = run_mifgd(smap, y, cfg)
        # eta ~ 0: the iterate stays at U0 U0^dagger
        rng = np.random.default_rng(7)
        from ampqst.states import complex_normal
        U0 = complex_normal(rng, (smap.d, 2), scale=1.0 / np.sqrt(smap.d))
        assert np.allclose(rho_hat, U0 @ U0.conj().T, atol=1e-20)

    def test_output_is_psd_gram_form(self):
        rho, smap, y = full_basis_problem(2, seed=2, rank=3)
        rho_hat, _ = run_mifgd(smap, y, MifgdConfig(rank_budget=3, seed=1,
                                                    max_iter=50))
        assert np.linalg.eigvalsh(rho_hat).min() >= -1e-12

    def test_rank_bounded_by_budget(self):
        rho, smap, y = full_basis_problem(3, seed=3, rank=4)
        for r in (1, 2):
            rho_hat, _ = run_mifgd(smap, y, MifgdConfig(rank_budget=r, seed=2,
                                                        max_iter=40))
            assert numerical_rank(rho_hat, 1e-12) <= r

    def test_data_fit_nonincreasing_plain_gd(self):
        rho, smap, y = full_basis_problem(2, seed=4)
        fits = []
        for t in range(1, 51):
            cfg = MifgdConfig(eta=5e-4, mu=0.0, rank_budget=1, max_iter=t,
                              rel_tol=1e-30, seed=5)
            rho_hat, iters = run_mifgd(smap, y, cfg)
            assert iters == t
            fits.append(np.linalg.norm(apply_sensing(smap, rho_hat) - y))
        diffs = np.diff(fits)
        assert np.all(diffs <= 1e-12)

    def test_stops_on_relative_tolerance(self):
        rho, smap, y = full_basis_problem(2, seed=6)
        cfg = MifgdConfig(rank_budget=1, mu=0.0, rel_tol=1e-3, seed=8)
        _, iters = run_mifgd(smap, y, cfg)
        assert iters < 1000

    def test_deterministic(self):
        rho, smap, y = full_basis_problem(2, seed=7)
        cfg = MifgdConfig(rank_budget=3, seed=11, max_iter=30)
        a, _ = run_mifgd(smap, y, cfg)
        b, _ = run_mifgd(smap, y, cfg)
        assert np.array_equal(a, b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MifgdConfig(eta=0.0)
        with pytest.raises(ValueError):
            MifgdConfig(rank_budget=0)
        with pytest.raises(ValueError):
            MifgdConfig(rel_tol=0.0)
        for bad in (np.nan, np.inf):
            for name in ("eta", "mu", "rel_tol"):
                with pytest.raises(ValueError):
                    MifgdConfig(**{name: bad})
