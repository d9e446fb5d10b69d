import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from ampqst.states import (
    DensityFactor,
    check_density,
    check_hermitian,
    factor_density,
    is_density,
    make_named_state,
    make_random_state,
    nmse,
    numerical_rank,
    project_to_density,
    pure_density,
    read_density,
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
    """The eigendecompositions left in the package: the factor of a density
    matrix, the projection onto density matrices, and the numerical rank."""

    def test_scaled_identity(self):
        B = factor_density(np.eye(4) / 4).factor
        assert B.shape == (4, 4)
        assert np.allclose(B.conj().T @ B, np.eye(4) / 4)
        assert np.allclose(B @ B.conj().T, np.eye(4) / 4)

    def test_diagonal(self):
        B = factor_density(np.diag([0.75, 0.0, 0.25])).factor
        assert B.shape == (3, 2)
        assert np.allclose(np.sort(np.linalg.eigvalsh(B.conj().T @ B)), [0.25, 0.75])
        assert numerical_rank(np.diag([2.0, -1.0])) == 1

    def test_pauli_x(self):
        # eigenvalues +1 and -1: the projection keeps the +1 eigenvector
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        assert numerical_rank(X) == 1
        assert np.allclose(project_to_density(X), (np.eye(2) + X) / 2)

    def test_reconstruction_and_gram(self):
        # B B^dagger rebuilds rho; the columns of B are orthogonal, with
        # squared norms the nonzero eigenvalues of rho
        for seed in range(20):
            rho = make_random_state(3, 1 + seed % 8, seed)
            B = factor_density(rho).factor
            assert B.shape == (8, 1 + seed % 8)
            assert np.linalg.norm(B @ B.conj().T - rho) <= 1e-10 * np.linalg.norm(rho)
            G = B.conj().T @ B
            assert np.max(np.abs(G - np.diag(np.diag(G)))) < 1e-10
            expected = np.linalg.eigvalsh(rho)[-B.shape[1]:]
            assert np.allclose(np.sort(np.diag(G).real), expected)

    def test_non_hermitian_rejected(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            project_to_density(M)
        with pytest.raises(ValueError):
            factor_density(M)


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


def _lex_key(v):
    # first-differing-coordinate comparison, real part before imaginary
    return tuple(np.column_stack([v.real, v.imag]).ravel())


def sorted_spectrum(H):
    """``(eigenvalues, eigenvectors)`` of a Hermitian matrix, eigenvalues
    descending, exact ties broken by lexicographic comparison of the
    eigenvector coordinates."""
    H = check_hermitian(H, 1e-8)
    vals, vecs = np.linalg.eigh(0.5 * (H + H.conj().T))
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    start = 0
    while start < vals.size:
        stop = start + 1
        while stop < vals.size and vals[stop] == vals[start]:
            stop += 1
        if stop - start > 1:
            sub = sorted(range(start, stop), key=lambda j: _lex_key(vecs[:, j]))
            vecs[:, start:stop] = vecs[:, sub]
        start = stop
    return vals, vecs


def project_via_sorted_spectrum(H):
    """``project_to_density`` through the sorted, tie-broken decomposition."""
    vals, vecs = sorted_spectrum(H)
    pos = vals > 0.0
    if not pos.any():
        return np.eye(len(H), dtype=complex) / len(H)
    V = vecs[:, pos]
    out = (V * (vals[pos] / vals[pos].sum())) @ V.conj().T
    return 0.5 * (out + out.conj().T)


def in_random_basis(rng, lam):
    d = len(lam)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    H = (Q * np.asarray(lam, dtype=float)) @ Q.conj().T
    return 0.5 * (H + H.conj().T)


class TestProjectionOrder:
    """The eigenvalue order of the decomposition cannot change the projector."""

    def test_matches_sorted_decomposition_on_random_spectra(self):
        rng = np.random.default_rng(12)
        for d in (2, 4, 8, 16):
            for _ in range(10):
                A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                H = 0.5 * (A + A.conj().T)
                diff = project_to_density(H) - project_via_sorted_spectrum(H)
                assert np.max(np.abs(diff)) < 1e-14

    @pytest.mark.parametrize("lam", [
        [0.25, 0.25, 0.25, 0.25],                 # I/4
        [0.3, 0.3, 0.2, 0.2],                     # repeated pairs
        [0.5, 0.5, -0.1, -0.1, 0.0, 0.0, 0.1, 0.1],
        [-1.0, -1.0, -2.0, 0.0],                  # no positive eigenvalue
        [-0.3, -0.7],
    ])
    def test_matches_sorted_decomposition_on_tied_spectra(self, lam):
        rng = np.random.default_rng(13)
        for H in (np.diag(np.asarray(lam, dtype=complex)), in_random_basis(rng, lam)):
            diff = project_to_density(H) - project_via_sorted_spectrum(H)
            assert np.max(np.abs(diff)) < 1e-14

    def test_keeps_hermiticity_rejection(self):
        with pytest.raises(ValueError, match="Hermitian"):
            project_to_density(np.array([[0.5, 1e-6], [0.0, 0.5]]))


def random_factor(rng, d, r):
    """A d x r matrix W with Tr(W W^dagger) = 1, so W W^dagger has rank r."""
    W = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return W / np.linalg.norm(W)


def trace_norm_fidelity(W, sigma):
    """Dense oracle ||sqrt(sigma) W||_1^2 = F(W W^dagger, sigma).

    ``scipy.linalg.sqrtm`` of a rank-deficient matrix turns its round-off
    eigenvalues (~1e-17) into errors of order sqrt(eps) ~ 1e-8, so the oracle
    roots the full-rank sigma and reads rho through the factor it was built
    from; the fidelity is symmetric in its two arguments.
    """
    root = scipy.linalg.sqrtm(sigma)
    return float(np.sum(np.linalg.svd(root @ W, compute_uv=False)) ** 2)


class TestFactoredFidelity:
    def test_matches_dense_oracle_every_rank(self):
        rng = np.random.default_rng(21)
        for n in range(1, 5):
            d = 1 << n
            for r in range(1, d + 1):
                W = random_factor(rng, d, r)
                rho = W @ W.conj().T
                sigma = make_random_state(n, d, rng)
                oracle = trace_norm_fidelity(W, sigma)
                assert abs(state_fidelity(rho, sigma) - oracle) < 1e-10, (n, r)
                assert abs(state_fidelity(factor_density(rho), sigma)
                           - oracle) < 1e-10, (n, r)

    def test_factor_reconstructs_and_has_the_rank(self):
        rng = np.random.default_rng(22)
        for n, r in ((1, 1), (2, 3), (3, 2), (4, 16)):
            W = random_factor(rng, 1 << n, r)
            rho = W @ W.conj().T
            truth = factor_density(rho)
            assert isinstance(truth, DensityFactor)
            B = truth.factor
            assert B.shape == (1 << n, r)
            assert np.max(np.abs(B @ B.conj().T - rho)) < 1e-14
            assert not B.flags.writeable

    def test_round_off_eigenvalues_are_dropped(self):
        # eigenvalues of +-1e-16 sit below the floor d eps max(lam_max, 1)
        rng = np.random.default_rng(23)
        exact = [0.6, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        noisy = [0.6, 0.4, 1e-16, -1e-16, 3e-17, 0.0, -2e-17, 0.0]
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8))
                            + 1j * rng.standard_normal((8, 8)))
        rho_exact = (Q * np.array(exact)) @ Q.conj().T
        rho_noisy = (Q * np.array(noisy)) @ Q.conj().T
        assert factor_density(rho_noisy).factor.shape == (8, 2)
        sigma = make_random_state(3, 8, rng)
        oracle = trace_norm_fidelity(Q[:, :2] * np.sqrt([0.6, 0.4]), sigma)
        for rho in (rho_exact, rho_noisy):
            assert abs(state_fidelity(rho, sigma) - oracle) < 1e-10

    def test_unphysical_sigma_is_projected(self):
        # sigma has a negative eigenvalue, so it is first projected; the
        # projection drops that eigenvalue and renormalizes the rest
        rng = np.random.default_rng(24)
        for n in (1, 2, 3):
            d = 1 << n
            lam = rng.random(d)
            lam[0] = -0.3
            Q, _ = np.linalg.qr(rng.standard_normal((d, d))
                                + 1j * rng.standard_normal((d, d)))
            sigma = (Q * lam) @ Q.conj().T
            assert not is_density(sigma)
            projected = Q[:, 1:] * np.sqrt(lam[1:] / lam[1:].sum())
            rho = make_random_state(n, d, rng)
            f = state_fidelity(factor_density(rho), sigma)
            assert f == state_fidelity(rho, sigma)
            assert abs(f - trace_norm_fidelity(projected, rho)) < 1e-10

    def test_pure_truth_gives_expectation(self):
        rng = np.random.default_rng(25)
        for n in range(1, 5):
            d = 1 << n
            psi = random_factor(rng, d, 1)[:, 0]
            sigma = make_random_state(n, int(rng.integers(1, d + 1)), rng)
            direct = float(np.real(psi.conj() @ sigma @ psi))
            truth = factor_density(pure_density(psi))
            assert truth.factor.shape == (d, 1)
            assert abs(state_fidelity(truth, sigma) - direct) < 1e-12

    @pytest.mark.parametrize("bad", [
        np.diag([1.5, -0.5]),                     # negative eigenvalue
        np.eye(2),                                # trace 2
        np.array([[0.5, 0.1], [0.0, 0.5]]),       # not Hermitian
        np.ones((2, 3)) / 2,                      # not square
    ])
    def test_factor_rejects_non_density(self, bad):
        with pytest.raises(ValueError):
            factor_density(bad)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            state_fidelity(factor_density(np.eye(2) / 2), np.eye(4) / 4)

    def test_eigensolver_budget(self, eigensolver_calls):
        # one call on a factored rank-3 truth at d=32: is_density's d x d
        # eigvalsh and one 3 x 3 eigvalsh, no eigh at all
        rng = np.random.default_rng(26)
        truth = factor_density(make_random_state(5, 3, rng))
        sigma = make_random_state(5, 4, rng)
        eigensolver_calls.clear()
        state_fidelity(truth, sigma)
        assert sorted(eigensolver_calls) == [("eigvalsh", 3), ("eigvalsh", 32)]


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
        ("DMAT v1 n=40\n0.5 0\n", 3),                             # n beyond any buffer
        ("DMAT v1 n=x\n0.5 0\n", 1),                               # n not a number
        ("DMAT v1 n=-1\n0.5 0\n", 1),                              # negative n
        ("DMAT v1 n=0\n1 0\n", 1),                                 # no qubit
        ("", 1),                                                   # empty file
    ])
    def test_malformed_names_the_line(self, tmp_path, text, line):
        path = tmp_path / "bad.dmat"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}"):
            read_density(path)

    def test_non_ascii_byte_names_the_line(self, tmp_path):
        path = tmp_path / "bad.dmat"
        path.write_bytes(b"DMAT v1 n=1\n0.5 0\n0 0\xe9\n0 0\n0.5 0\n")
        with pytest.raises(ValueError, match="DMAT v1: non-ASCII byte at line 3"):
            read_density(path)

    def test_short_file_allocates_no_matrix(self, tmp_path):
        # n=12 asks for 4^12 entries (268 MB); the three lines present are
        # counted before any buffer is sized
        path = tmp_path / "short.dmat"
        path.write_text("DMAT v1 n=12\n1 0\n0 0\n0 0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="malformed entry at line 5"):
                read_density(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


def test_check_density_rejects_non_psd():
    with pytest.raises(ValueError):
        check_density(np.diag([1.5, -0.5]))


def test_numerical_rank_threshold():
    H = np.diag([0.5, 0.5, 5e-10, 0.0])
    assert numerical_rank(H, 1e-9) == 2
