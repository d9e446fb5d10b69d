import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ampqst.states import (
    SpectralDecomposition,
    check_density,
    is_density,
    make_named_state,
    make_random_state,
    nmse,
    numerical_rank,
    project_to_density,
    pure_density,
    read_density,
    spectral_decompose,
    state_fidelity,
    write_density,
)

RT2 = 1.0 / np.sqrt(2.0)


class TestNamedStates:
    def test_ghz_two_qubits(self):
        psi = make_named_state("GHZ", 2)
        assert np.allclose(psi, [RT2, 0, 0, RT2])

    def test_hadamard_one_qubit(self):
        assert np.allclose(make_named_state("Hadamard", 1), [RT2, RT2])

    def test_w_two_qubits(self):
        assert np.allclose(make_named_state("W", 2), [0, RT2, RT2, 0])

    def test_w_norm_large_n(self):
        psi = make_named_state("w", 6)
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
        assert np.count_nonzero(psi) == 6

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            make_named_state("GHZ", 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_named_state("bell", 2)


class TestPureDensity:
    def test_basis_state(self):
        rho = pure_density(np.array([1.0, 0.0]))
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_plus_state(self):
        rho = pure_density(np.array([RT2, RT2]))
        assert np.allclose(rho, 0.25 * 2 * np.ones((2, 2)))

    def test_ghz_corners(self):
        rho = pure_density(make_named_state("GHZ", 2))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho, expected)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            pure_density(np.array([1.0, 1.0]))


class TestRandomStates:
    def test_rank_one_is_pure(self):
        rho = make_random_state(3, 1, 11)
        vals = np.linalg.eigvalsh(rho)
        assert abs(np.trace(rho).real - 1) < 1e-12
        assert abs(vals[-1] - 1.0) < 1e-10

    def test_rank_cap(self):
        rho = make_random_state(3, 3, 4)
        vals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert vals[3] < 1e-10

    def test_full_rank_trace(self):
        rho = make_random_state(2, 4, 8)
        assert abs(np.trace(rho).real - 1) < 1e-12

    def test_rank_above_dim_rejected(self):
        with pytest.raises(ValueError):
            make_random_state(2, 5, 0)

    def test_deterministic_per_seed(self):
        assert np.array_equal(make_random_state(3, 2, 42), make_random_state(3, 2, 42))

    def test_invariants_many_seeds(self):
        # 100 draws spread over n <= 4 and every rank
        count = 0
        for n in range(1, 5):
            d = 1 << n
            for r in range(1, d + 1):
                for seed in range(5 if n < 4 else 2):
                    rho = make_random_state(n, r, seed)
                    assert is_density(rho), (n, r, seed)
                    assert numerical_rank(rho, 1e-10) <= r
                    count += 1
        assert count >= 100


class TestSpectral:
    def test_scaled_identity(self):
        dec = spectral_decompose(np.eye(4) / 4)
        assert np.allclose(dec.eigenvalues, 0.25)

    def test_diagonal(self):
        dec = spectral_decompose(np.diag([2.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [2.0, -1.0])

    def test_pauli_x(self):
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        dec = spectral_decompose(X)
        assert np.allclose(dec.eigenvalues, [1.0, -1.0])

    def test_reconstruction_and_gram(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            H = A + A.conj().T
            dec = spectral_decompose(H)
            assert np.linalg.norm(dec.reconstruct() - H) <= 1e-10 * np.linalg.norm(H)
            G = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.max(np.abs(G - np.eye(8))) < 1e-10
            assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_non_hermitian_rejected(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            spectral_decompose(M)


class TestProjection:
    def test_clip_and_renormalize(self):
        out = project_to_density(np.diag([0.8, 0.4, -0.2, 0.0]))
        assert np.allclose(out, np.diag([2 / 3, 1 / 3, 0, 0]))

    def test_density_fixed_point(self):
        rho = make_random_state(3, 4, 3)
        assert np.max(np.abs(project_to_density(rho) - rho)) < 1e-10

    def test_degenerate_input_gives_maximally_mixed(self):
        out = project_to_density(np.diag([-1.0, -2.0]))
        assert np.allclose(out, np.eye(2) / 2)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            H = 0.5 * (A + A.conj().T)
            once = project_to_density(H)
            twice = project_to_density(once)
            assert np.max(np.abs(twice - once)) < 1e-10
            assert is_density(once)


class TestMetrics:
    def test_nmse_zero_on_equal(self):
        rho = make_random_state(2, 2, 1)
        assert nmse(rho, rho) == 0.0

    def test_nmse_pure_vs_mixed(self):
        rho = pure_density(np.array([1.0, 0.0]))
        assert abs(nmse(rho, np.eye(2) / 2) - 0.5) < 1e-12
        rho8 = pure_density(make_named_state("GHZ", 3))
        assert abs(nmse(rho8, np.eye(8) / 8) - 0.875) < 1e-12

    def test_nmse_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nmse(np.eye(2) / 2, np.eye(4) / 4)

    def test_fidelity_self(self):
        rho = make_random_state(3, 2, 9)
        assert abs(state_fidelity(rho, rho) - 1.0) < 1e-10

    def test_fidelity_orthogonal(self):
        zero = pure_density(np.array([1.0, 0.0]))
        one = pure_density(np.array([0.0, 1.0]))
        assert state_fidelity(zero, one) < 1e-12

    def test_fidelity_pure_vs_mixed(self):
        rho = pure_density(make_named_state("GHZ", 2))
        assert abs(state_fidelity(rho, np.eye(4) / 4) - 0.25) < 1e-10

    def test_fidelity_symmetric(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3):
            for seed in range(4):
                a = make_random_state(n, 2, rng)
                b = make_random_state(n, (1 << n), rng)
                assert abs(state_fidelity(a, b) - state_fidelity(b, a)) < 1e-8

    def test_fidelity_pure_oracle(self):
        # for pure rho the fidelity reduces to <psi|sigma|psi>
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            psi = make_named_state("W", n)
            rho = pure_density(psi)
            sigma = make_random_state(n, 2, rng)
            direct = float(np.real(psi.conj() @ sigma @ psi))
            assert abs(state_fidelity(rho, sigma) - direct) < 1e-8

    def test_fidelity_projects_unphysical_estimate(self):
        rho = pure_density(np.array([1.0, 0.0]))
        sigma = np.diag([1.4, -0.4])
        assert abs(state_fidelity(rho, sigma) - 1.0) < 1e-10

    def test_fidelity_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = make_random_state(2, 1, rng)
            b = make_random_state(2, 3, rng)
            f = state_fidelity(a, b)
            assert 0.0 <= f <= 1.0


class TestDmatFormat:
    def test_round_trip(self, tmp_path):
        rho = make_random_state(3, 3, 21)
        path = tmp_path / "state.dmat"
        write_density(path, rho)
        back = read_density(path)
        assert np.array_equal(back, rho)

    def test_header(self, tmp_path):
        path = tmp_path / "state.dmat"
        write_density(path, np.eye(2) / 2)
        first = path.read_text().splitlines()[0]
        assert first == "DMAT v1 n=1"

    def test_reader_verifies_hermiticity(self, tmp_path):
        path = tmp_path / "bad.dmat"
        path.write_text("DMAT v1 n=1\n1 0\n0.5 0\n0 0\n0 0\n")
        with pytest.raises(ValueError):
            read_density(path)

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        with pytest.raises(ValueError):
            read_density(path)

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_round_trip_random_states(self, tmp_path_factory, n, rank, seed):
        rho = make_random_state(n, min(rank, 1 << n), seed)
        path = tmp_path_factory.mktemp("dmat") / "state.dmat"
        write_density(path, rho)
        assert np.array_equal(read_density(path), rho)

    @pytest.mark.parametrize("text, line", [
        ("DMAT v1 n=1\n0.5 0\n0 0\n0 0\n0.5 0\n\n0 0\n", 7),  # trailing entry
        ("DMAT v1 n=1\n0.5 0\n0 0\n0 0\n0.5 0 0\n", 5),          # extra field
        ("DMAT v1 n=1\n0.5 0\n0 x\n0 0\n0.5 0\n", 3),            # not a number
        ("DMAT v1 n=1\n0.5 0\n0 0\n", 4),                          # too few entries
    ])
    def test_malformed_names_the_line(self, tmp_path, text, line):
        path = tmp_path / "bad.dmat"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}"):
            read_density(path)


def test_check_density_rejects_non_psd():
    with pytest.raises(ValueError):
        check_density(np.diag([1.5, -0.5]))


def test_numerical_rank_threshold():
    H = np.diag([0.5, 0.5, 5e-10, 0.0])
    assert numerical_rank(H, 1e-9) == 2
