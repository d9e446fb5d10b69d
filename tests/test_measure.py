import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from ampqst import measure, pauli
from ampqst.measure import (
    CHANNELS,
    NoiseModel,
    PhotonicNoise,
    ShotRecord,
    apply_coherent,
    apply_composite,
    apply_depolarizing,
    apply_loss,
    apply_pauli_flip,
    build_measurements,
    estimate,
    outcome_probabilities,
    overrotation_unitary,
    parity_estimates,
    read_shots,
    rotation_x,
    simulate,
    write_shots,
)
from ampqst.pauli import (
    MeasurementPlan,
    apply_adjoint,
    apply_sensing,
    covered_codes,
    sample_settings_until,
)
from ampqst.states import (
    is_density,
    make_named_state,
    make_random_state,
    pure_density,
)
from conftest import codes_of, map_of, numerical_rank, plan_of, words_of

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PROJ = {
    ("X", 0): 0.5 * np.array([[1, 1], [1, 1]], dtype=complex),
    ("X", 1): 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex),
    ("Y", 0): 0.5 * np.array([[1, -1j], [1j, 1]], dtype=complex),
    ("Y", 1): 0.5 * np.array([[1, 1j], [-1j, 1]], dtype=complex),
    ("Z", 0): np.array([[1, 0], [0, 0]], dtype=complex),
    ("Z", 1): np.array([[0, 0], [0, 1]], dtype=complex),
}


def oracle_distribution(rho, setting):
    """Projector-by-projector outcome probabilities (independent route)."""
    n = len(setting)
    probs = np.zeros(1 << n)
    for b in range(1 << n):
        proj = np.array([[1.0]], dtype=complex)
        for j, letter in enumerate(setting):
            bit = (b >> (n - 1 - j)) & 1
            proj = np.kron(proj, PROJ[(letter, bit)])
        probs[b] = np.real(np.trace(proj @ rho))
    return probs


# Columns are the +1 / -1 eigenvectors of each basis letter, so V^dagger maps
# that basis onto the computational one.
BASIS = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2.0),
    "Z": np.eye(2, dtype=complex),
}


def apply_readout(probs, q):
    """Convolve an independent per-bit flip channel (flip probability q)
    into a vector of 2^n outcome probabilities."""
    if not 0.0 <= q <= 0.5:
        raise ValueError("readout flip probability must lie in [0, 0.5]")
    p = np.asarray(probs, dtype=np.float64)
    n = p.size.bit_length() - 1
    p = p.reshape((2,) * n)
    for axis in range(n):
        p = (1.0 - q) * p + q * np.flip(p, axis=axis)
    return p.reshape(-1)


def kron_distribution(rho, setting, theta=0.0, q=0.0):
    """Outcome probabilities of one setting through its d x d gate: the
    Kronecker product over letters of V^dagger, each X or Y letter followed
    by an RX(theta) overrotation, then the readout flips of ``apply_readout``
    (a per-setting oracle, independent of the batched transform)."""
    G = np.array([[1.0]], dtype=complex)
    for ch in setting:
        g = BASIS[ch].conj().T
        G = np.kron(G, rotation_x(theta) @ g if ch != "Z" else g)
    probs = np.einsum("ij,ij->i", G @ rho, G.conj()).real
    return apply_readout(np.clip(probs, 0.0, None), q)


def distribution(rho, setting, theta=0.0):
    """Outcome probabilities of one setting given as text."""
    return outcome_probabilities(rho, codes_of([setting]), theta)[0]


def kron_word(word):
    out = np.array([[1.0]], dtype=complex)
    for ch in word:
        out = np.kron(out, {"I": I2, "X": X, "Y": Y, "Z": Z}[ch])
    return out


class TestExpectations:
    def test_mixed_state_traceless(self):
        smap = map_of(["XZ", "YY", "IX"])
        assert np.allclose(apply_sensing(smap, np.eye(4) / 4), 0.0)

    def test_ghz_stabilizers(self):
        rho = pure_density(make_named_state("GHZ", 2))
        smap = map_of(["ZZ", "ZI", "XX"])
        y = apply_sensing(smap, rho)
        assert np.allclose(y, [1.0, 0.0, 1.0], atol=1e-12)


def one_word_draw(rho, word, N, seed):
    """The observables-mode estimate of one word from N shots."""
    plan = plan_of(len(word), "observables", [word])
    return build_measurements(rho, plan, N, seed=seed)[1][0]


def per_word_draws(p, N, seed):
    """The observables-mode draw one word at a time: a scalar binomial per
    clipped success probability, in plan order, from the stream of index 0."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    return np.array([2.0 * rng.binomial(N, min(max(pk, 0.0), 1.0)) / N - 1.0
                     for pk in p])


class TestShotSampling:
    def test_degenerate_probabilities(self):
        zero = pure_density(np.array([1.0, 0.0]))
        assert one_word_draw(zero, "Z", 100, 0) == 1.0
        one = pure_density(np.array([0.0, 1.0]))
        assert one_word_draw(one, "Z", 100, 0) == -1.0

    def test_deterministic_per_seed(self):
        rho = make_random_state(2, 2, 5)
        a = one_word_draw(rho, "XY", 512, 42)
        b = one_word_draw(rho, "XY", 512, 42)
        assert a == b

    def test_mean_matches_binomial_oracle(self):
        # p = 0.5, N = 100: the sample mean over 10^4 draws has standard
        # error 0.1/100 = 1e-3, so 0.01 is a ten-sigma band
        plus = pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0))
        draws = [one_word_draw(plus, "Z", 100, (7, k)) for k in range(10_000)]
        assert abs(np.mean(draws)) < 0.01

    def test_unbiasedness_four_sigma(self):
        rho = make_random_state(2, 2, 3)
        exact = apply_sensing(map_of(["XZ"]), rho)[0]
        N, K = 64, 10_000
        draws = [one_word_draw(rho, "XZ", N, (11, k)) for k in range(K)]
        se = np.sqrt((1 - exact ** 2) / N / K)
        assert abs(np.mean(draws) - exact) < 4 * se

    def test_invalid_shot_count(self):
        with pytest.raises(ValueError):
            one_word_draw(np.eye(2) / 2, "Z", 0, 0)

    def test_probability_outside_unit_interval_rejected(self):
        # 2|0><0| is no state: Tr[Z rho] = 2 gives p = 1.5
        with pytest.raises(ValueError, match="corrupted state"):
            one_word_draw(2 * pure_density(np.array([1.0, 0.0])), "Z", 10, 0)

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
               st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=20,
               unique=True)),
           st.sampled_from(["random", "GHZ"]), st.sampled_from([1, 7, 1024]),
           st.integers(0, 2**32 - 1))
    def test_vector_draw_matches_per_word_loop(self, words, state, N, seed):
        n = len(words[0])
        rho = (make_random_state(n, 2, seed) if state == "random"
               else pure_density(make_named_state(state, n)))
        plan = plan_of(n, "observables", words)
        smap, y = build_measurements(rho, plan, N, seed=seed)
        p = (apply_sensing(smap, rho) + 1.0) / 2.0
        dense = [(np.trace(kron_word(w) @ rho).real + 1.0) / 2.0 for w in words]
        assert np.max(np.abs(p - dense)) <= 1e-14
        assert np.array_equal(y, per_word_draws(p, N, seed))


class TestOutcomeDistributions:
    def test_zero_state_z(self):
        dist = distribution(pure_density(np.array([1.0, 0.0])), "Z")
        assert np.allclose(dist, [1.0, 0.0])

    def test_zero_state_x(self):
        dist = distribution(pure_density(np.array([1.0, 0.0])), "X")
        assert np.allclose(dist, [0.5, 0.5])

    def test_ghz_zz(self):
        dist = distribution(pure_density(make_named_state("GHZ", 2)), "ZZ")
        assert np.allclose(dist, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_matches_projector_oracle(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            rho = make_random_state(n, 2, rng)
            for setting in ("X" * n, "YZX"[:n], "ZYX"[:n]):
                dist = distribution(rho, setting)
                assert np.allclose(dist, oracle_distribution(rho, setting),
                                   atol=1e-12)
                assert abs(dist.sum() - 1.0) < 1e-10


def covered_words(setting):
    """Reference cover, letter by letter: the words one setting covers, in
    mask order, each keeping the letters where the mask bit is 1 (leftmost
    letter the most significant bit) and I elsewhere."""
    n = len(setting)
    return ["".join(ch if (mask >> (n - 1 - j)) & 1 else "I"
                    for j, ch in enumerate(setting)) for mask in range(1 << n)]


def parity_of_mask(dist, mask):
    """Reference parity estimate of one mask (leftmost qubit the most
    significant bit): ``sum_b (-1)**|b & mask| p(b)``, p normalized first."""
    p = np.asarray(dist, dtype=np.float64)
    b = np.arange(p.size, dtype=np.uint64)
    parity = np.bitwise_count(b & np.uint64(mask)) & 1
    signs = 1.0 - 2.0 * parity.astype(np.float64)
    return float(signs @ (p / p.sum()))


class TestParityMarginalization:
    def test_zero_state(self):
        dist = distribution(pure_density(np.array([1.0, 0.0])), "Z")
        assert abs(parity_estimates(dist[None])[0, 0b1] - 1.0) < 1e-12

    def test_ghz_xx(self):
        dist = distribution(pure_density(make_named_state("GHZ", 2)), "XX")
        assert abs(parity_estimates(dist[None])[0, 0b11] - 1.0) < 1e-12

    def test_identity_mask(self):
        dist = distribution(make_random_state(3, 2, 0), "XYZ")
        assert abs(parity_estimates(dist[None])[0, 0b000] - 1.0) < 1e-12

    def test_counts_are_normalized(self):
        est = parity_estimates(np.array([[30, 0, 0, 70]]))[0]
        assert abs(est[0b11] - 1.0) < 1e-12
        assert abs(est[0b01] - (0.3 - 0.7)) < 1e-12

    def test_oracle_equivalence_all_settings(self):
        # every masked observable of every setting equals Tr[P rho], n <= 3
        rng = np.random.default_rng(2)
        for n in (2, 3):
            rho = make_random_state(n, 2, rng)
            for letters in itertools.product("XYZ", repeat=n):
                setting = "".join(letters)
                est = parity_estimates(distribution(rho, setting)[None])[0]
                for mask, word in enumerate(covered_words(setting)):
                    direct = np.real(np.trace(kron_word(word) @ rho))
                    assert abs(est[mask] - direct) < 1e-12


def parity_matrix(n):
    """The +-1 matrix (-1)**|a & b| of the n-qubit Walsh-Hadamard transform."""
    b = np.arange(1 << n)
    return 1 - 2 * (np.bitwise_count(b[:, None] & b[None, :]) & 1).astype(np.int64)


class TestParityEstimates:
    # the reference sums d = 2^n rounded frequencies, so it is only within
    # d rounding errors of the exact value; the transform rounds once
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.sampled_from(["power of two", "other total", "probabilities"]))
    def test_matches_per_mask_oracle(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        d = 1 << n
        p = rng.dirichlet(np.full(d, 10.0 ** rng.uniform(-2, 1)), size=3)
        if kind == "probabilities":
            freqs = p
        else:
            N = (1 << int(rng.integers(0, 21)) if kind == "power of two"
                 else 2 * int(rng.integers(1, 500_000)) + 1)
            freqs = np.array([rng.multinomial(N, row) for row in p])
        got = parity_estimates(freqs)
        want = np.array([[parity_of_mask(row, a) for a in range(d)]
                         for row in freqs])
        if kind == "power of two":
            assert np.array_equal(got, want)
        elif kind == "other total":
            # correctly rounded: the exact integer transform over N, one division
            exact = freqs @ parity_matrix(n)
            assert np.array_equal(got, exact / freqs.sum(axis=1, keepdims=True))
            assert np.max(np.abs(got - want)) <= d * np.finfo(float).eps / 2
        else:
            assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("freqs", [np.zeros((2, 4)), np.ones((2, 6)),
                                       np.ones(4), np.ones((1, 2, 2))])
    def test_malformed_frequencies_rejected(self, freqs):
        with pytest.raises(ValueError, match="empty outcome distribution"):
            parity_estimates(freqs)


def per_letter_row(word):
    """(y_count, cols, signs) of one Pauli word, built letter by letter."""
    n, d = len(word), 1 << len(word)
    rows = np.arange(d, dtype=np.int64)
    cols, signs, y_count = rows.copy(), np.ones(d, dtype=np.int8), 0
    for q, letter in enumerate(word):
        bit = ((rows >> (n - 1 - q)) & 1).astype(np.int8)
        if letter in "XY":
            cols ^= 1 << (n - 1 - q)
        if letter == "Y":
            y_count += 1
            signs *= 2 * bit - 1
        elif letter == "Z":
            signs *= 1 - 2 * bit
    return y_count, rows * d + cols, signs


def per_word_matrix(words):
    """The real M x 2d^2 CSR sensing matrix, on the interleaved real
    coordinates of X, stacked from per-word rows."""
    rows = [per_letter_row(w) for w in words]
    y = np.array([r[0] for r in rows])[:, None]
    data = np.stack([r[2] for r in rows]) * (1.0 - 2.0 * ((y >> 1) & 1))
    indices = 2 * np.stack([r[1] for r in rows]) + (y & 1)
    M, d = data.shape
    return sp.csr_matrix((data.reshape(-1), indices.reshape(-1),
                          np.arange(0, (M + 1) * d, d)), shape=(M, 2 * d * d))


def per_word_synthesis(probs, plan, shots, seed):
    """Settings-mode synthesis one covered word at a time from each setting's
    outcome probabilities: (words, y, rows), a row being a setting's counts,
    or its probabilities at infinite shots."""
    estimates, counts = {}, []
    for k, (setting, dist) in enumerate(zip(plan.words, probs)):
        freqs = dist
        if shots is not None:
            rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
            counts.append(rng.multinomial(shots, dist / dist.sum()))
            freqs = counts[-1] / shots
        else:
            counts.append(dist)
        for mask, word in enumerate(covered_words(setting)):
            estimates.setdefault(word, []).append(parity_of_mask(freqs, mask))
    words = list(estimates)                    # in order of first appearance
    return words, np.array([np.mean(estimates[w]) for w in words]), counts


class TestSettingsSynthesis:
    NOISES = [NoiseModel(), NoiseModel(readout_q=0.03),
              NoiseModel(readout_q=0.01, coherent_theta=0.05)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("shots", [1024, 1000, None])
    def test_matches_per_word_loop(self, n, noise, shots):
        rho = make_random_state(n, 2, 40 + n)
        settings = sample_settings_until(n, min(4 ** n, 12 * n), n)
        plan = MeasurementPlan(n, "settings", settings)
        rec = simulate(rho, plan, shots, noise, seed=7)
        smap, y = estimate(rec)
        theta, q = noise.coherent_theta, noise.readout_q
        probs = outcome_probabilities(rho, settings, theta, q)
        oracle = [kron_distribution(rho, s, theta, q) for s in plan.words]
        assert np.max(np.abs(probs - oracle)) <= 1e-14
        words, y_ref, counts = per_word_synthesis(probs, plan, shots, 7)
        assert words_of(smap) == words
        # the map acts as the per-word matrix, forward and adjoint, up to
        # the round-off of sums of d terms
        A_ref, d, eps = per_word_matrix(words), 1 << n, np.finfo(float).eps
        fwd_ref = A_ref @ rho.reshape(-1).view(np.float64)
        assert np.max(np.abs(apply_sensing(smap, rho) - fwd_ref)) \
            <= d * eps * np.max(np.abs(rho))
        adj_ref = (A_ref.T @ y).view(np.complex128).reshape(d, d)
        assert np.max(np.abs(apply_adjoint(smap, y) - adj_ref)) \
            <= d * eps * np.max(np.abs(y))
        if shots == 1024:
            assert np.array_equal(y, y_ref)
        elif shots == 1000:
            assert np.max(np.abs(y - y_ref)) <= (1 << n) * np.finfo(float).eps / 2
        else:
            assert np.max(np.abs(y - y_ref)) <= 1e-15
        # a settings record at any shot count: counts drawn on the setting's
        # own stream from the batch's probabilities, or those probabilities
        assert (rec.plan, rec.shots) == (plan, shots)
        assert np.array_equal(rec.data, np.array(counts))

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
               st.lists(st.text("XYZ", min_size=n, max_size=n), min_size=1,
                        max_size=12, unique=True),
               st.integers(1, 1 << n))),
           st.sampled_from([0.0, 0.07, -0.3]) | st.floats(-np.pi, np.pi),
           st.sampled_from([0.0, 0.03, 0.5]) | st.floats(0.0, 0.5),
           st.integers(0, 2**32 - 1))
    def test_matches_per_setting_gates(self, settings_rank, theta, q, seed):
        # the batched transform against each setting's own d x d gate; its
        # readout against apply_readout row by row
        settings, rank = settings_rank
        rho = make_random_state(len(settings[0]), rank, seed)
        codes = codes_of(settings)
        probs = outcome_probabilities(rho, codes, theta, q)
        oracle = [kron_distribution(rho, s, theta, q) for s in settings]
        assert np.max(np.abs(probs - oracle)) <= 1e-14
        per_row = [apply_readout(p, q) for p in outcome_probabilities(rho, codes, theta)]
        assert np.max(np.abs(probs - per_row)) <= 1e-14

    @pytest.mark.parametrize("mode", ["observables", "settings"])
    def test_no_per_word_calls(self, function_calls, mode):
        # plans hold codes, so measurement parses and decodes no word; both
        # modes simulate from all 4^n expectations of the codes (the all-codes
        # map, which needs no checked constructor), and only the estimate
        # builds a map of the plan
        rho = make_random_state(5, 2, 3)
        if mode == "observables":
            codes = pauli.sample_observables(5, 400, 1)
        else:
            codes = sample_settings_until(5, 400, 1)
        plan = MeasurementPlan(5, mode, codes)
        for owner, name in itertools.product(
                (pauli, measure),
                ("pauli_indices_from_words", "sensing_map_from_indices")):
            function_calls.watch(owner, name)
        function_calls.watch(pauli, "pauli_words_from_indices")
        smap, y = build_measurements(rho, plan, shots=1024, seed=0)
        assert smap.M >= 400
        assert function_calls == ["sensing_map_from_indices"]


class TestReadout:
    def test_identity_at_zero(self):
        dist = distribution(make_random_state(2, 1, 3), "XZ")
        out = apply_readout(dist, 0.0)
        assert np.allclose(out, dist)

    def test_half_flips_single_bit(self):
        assert np.allclose(apply_readout(np.array([1.0, 0.0]), 0.5), [0.5, 0.5])

    def test_small_flip(self):
        assert np.allclose(apply_readout(np.array([1.0, 0.0]), 0.1), [0.9, 0.1])

    def test_two_bit_convolution(self):
        q = 0.2
        out = apply_readout(np.array([1.0, 0, 0, 0]), q)
        expected = [(1 - q) ** 2, (1 - q) * q, q * (1 - q), q * q]
        assert np.allclose(out, expected)

    def test_out_of_range(self):
        dist = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            apply_readout(dist, 0.6)


class TestChannels:
    def test_depolarizing_endpoints(self):
        rho = pure_density(np.array([1.0, 0.0]))
        assert np.allclose(apply_depolarizing(rho, 0.0), rho)
        assert np.allclose(apply_depolarizing(rho, 1.0), np.eye(2) / 2)
        assert np.allclose(apply_depolarizing(rho, 0.5), np.diag([0.75, 0.25]))

    def test_depolarizing_full_rank(self):
        rho = pure_density(make_named_state("W", 3))
        out = apply_depolarizing(rho, 0.3)
        assert np.all(np.linalg.eigvalsh(out) >= 0.3 / 8 - 1e-12)

    def test_coherent_identity_and_flip(self):
        rho = pure_density(np.array([1.0, 0.0]))
        assert np.allclose(apply_coherent(rho, np.eye(2)), rho)
        assert np.allclose(apply_coherent(rho, X), np.diag([0.0, 1.0]))

    def test_coherent_preserves_spectrum(self):
        rho = make_random_state(2, 3, 9)
        U = overrotation_unitary(2, 0.4)
        out = apply_coherent(rho, U)
        assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho),
                           atol=1e-10)

    def test_coherent_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            apply_coherent(np.eye(2) / 2, np.array([[1, 0], [0, 2.0]]))

    def test_bit_flip(self):
        rho = pure_density(np.array([1.0, 0.0]))
        assert np.allclose(apply_pauli_flip(rho, 1, "bit"), np.diag([0.0, 1.0]))

    def test_phase_flip(self):
        zero = pure_density(np.array([1.0, 0.0]))
        assert np.allclose(apply_pauli_flip(zero, 1, "phase"), zero)
        plus = pure_density(np.array([1.0, 1.0]) / np.sqrt(2))
        minus = pure_density(np.array([1.0, -1.0]) / np.sqrt(2))
        assert np.allclose(apply_pauli_flip(plus, 1, "phase"), minus)

    def test_flip_involution(self):
        rho = make_random_state(3, 2, 4)
        for qubit in (1, 2, 3):
            for kind in ("bit", "phase"):
                twice = apply_pauli_flip(apply_pauli_flip(rho, qubit, kind),
                                         qubit, kind)
                assert np.max(np.abs(twice - rho)) < 1e-12

    def test_flip_matches_pauli_conjugation(self):
        # a permutation and a sign flip are exact, so the bits are the kron's
        for n in (1, 2, 3, 4):
            rho = make_random_state(n, 2, 6 + n)
            for qubit in range(1, n + 1):
                X_i, Z_i = (kron_word("I" * (qubit - 1) + P + "I" * (n - qubit))
                            for P in "XZ")
                assert np.array_equal(apply_pauli_flip(rho, qubit, "bit"),
                                      X_i @ rho @ X_i)
                assert np.array_equal(apply_pauli_flip(rho, qubit, "phase"),
                                      Z_i @ rho @ Z_i)

    def test_qubit_index_validation(self):
        with pytest.raises(ValueError):
            apply_pauli_flip(np.eye(2) / 2, 2, "bit")
        with pytest.raises(ValueError):
            apply_loss(np.eye(2) / 2, 0)

    @pytest.mark.parametrize("rho", [np.eye(3) / 3, np.eye(6) / 6, np.ones((4, 2)),
                                     np.ones(4), np.ones((1, 1))],
                             ids=["3x3", "6x6", "4x2", "1-d", "1x1"])
    @pytest.mark.parametrize("channel", [
        lambda rho: apply_pauli_flip(rho, 1, "bit"),
        lambda rho: apply_pauli_flip(rho, 1, "phase"),
        lambda rho: apply_loss(rho, 1),
        lambda rho: apply_composite(rho, PhotonicNoise(0.7, ((0.1, 0.1, 0.1),))),
    ], ids=["bit", "phase", "loss", "composite"])
    def test_only_2n_square_matrices_accepted(self, channel, rho):
        # n read off bit_length alone would turn a 3 x 3 input into a 2 x 2
        # bit flip, and fail loss in numpy broadcasting
        with pytest.raises(ValueError, match=re.escape(
                f"expected a 2^n x 2^n matrix, n >= 1, got shape {rho.shape}")):
            channel(rho)

    def test_every_channel_output_is_density(self):
        rng = np.random.default_rng(20)
        for n in (1, 2, 3):
            rho = make_random_state(n, 2, rng)
            outputs = [
                apply_depolarizing(rho, 0.2),
                apply_coherent(rho, overrotation_unitary(n, 0.3)),
                apply_pauli_flip(rho, 1, "bit"),
                apply_pauli_flip(rho, n, "phase"),
                apply_loss(rho, 1),
                apply_composite(rho, random_photonic(n, rng)),
            ]
            for out in outputs:
                assert is_density(out)


def partial_trace_oracle(rho, qubit, n):
    """Trace out one qubit, then re-insert I/2 in its slot via Kronecker."""
    d = 1 << n
    t = rho.reshape((2,) * (2 * n))
    kept = np.trace(t, axis1=qubit - 1, axis2=n + qubit - 1)
    kept = kept.reshape(d // 2, d // 2)
    # rebuild with identity at the lost slot
    out = np.zeros((d, d), dtype=complex)
    low = 1 << (n - qubit)
    for a in range(2):
        for i in range(d // 2):
            for j in range(d // 2):
                hi_i, lo_i = divmod(i, low)
                hi_j, lo_j = divmod(j, low)
                out[(hi_i * 2 + a) * low + lo_i,
                    (hi_j * 2 + a) * low + lo_j] += 0.5 * kept[i, j]
    return out


class TestLossChannel:
    def test_single_qubit_loss(self):
        rho = make_random_state(1, 2, 2)
        assert np.allclose(apply_loss(rho, 1), np.eye(2) / 2)

    def test_block_form_first_qubit(self):
        rho = make_random_state(2, 3, 5)
        A, D = rho[:2, :2], rho[2:, 2:]
        expected = 0.5 * np.kron(np.eye(2), A + D)
        assert np.allclose(apply_loss(rho, 1), expected, atol=1e-12)

    def test_matches_partial_trace_oracle(self):
        rng = np.random.default_rng(8)
        for n in (2, 3):
            rho = make_random_state(n, 2, rng)
            for qubit in range(1, n + 1):
                assert np.allclose(apply_loss(rho, qubit),
                                   partial_trace_oracle(rho, qubit, n),
                                   atol=1e-12), (n, qubit)

    def test_is_the_one_qubit_pauli_twirl(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 4):
            rho = make_random_state(n, 3 if n > 1 else 2, rng)
            for qubit in range(1, n + 1):
                twirl = sum(P @ rho @ P for P in (
                    kron_word("I" * (qubit - 1) + L + "I" * (n - qubit))
                    for L in "IXYZ")) / 4
                assert np.max(np.abs(apply_loss(rho, qubit) - twirl)) <= 1e-15

    def test_ghz_two_qubits(self):
        out = apply_loss(pure_density(make_named_state("GHZ", 2)), 1)
        assert np.allclose(out, np.eye(4) / 4)

    def test_rank_bound_rank_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = make_random_state(2, 1, rng)
            assert numerical_rank(apply_loss(rho, 1), 1e-9) <= 4

    def test_commutes_on_distinct_qubits(self):
        rho = make_random_state(3, 3, 7)
        ab = apply_loss(apply_loss(rho, 1), 3)
        ba = apply_loss(apply_loss(rho, 3), 1)
        assert np.max(np.abs(ab - ba)) < 1e-12


def random_photonic(n, rng):
    w = rng.dirichlet(np.ones(3 * n + 1))
    return PhotonicNoise(p0=float(w[0]),
                         triples=tuple(tuple(w[1 + 3 * i:4 + 3 * i]) for i in range(n)))


class TestCompositeChannel:
    def test_identity_weight_one(self):
        rho = make_random_state(2, 1, 0)
        model = PhotonicNoise(p0=1.0, triples=((0, 0, 0), (0, 0, 0)))
        assert np.allclose(apply_composite(rho, model), rho)

    def test_output_is_density(self):
        rng = np.random.default_rng(10)
        for n in (2, 3):
            rho = make_random_state(n, 1, rng)
            out = apply_composite(rho, random_photonic(n, rng))
            assert is_density(out)

    def test_rank_bound(self):
        rng = np.random.default_rng(12)
        for n in (2, 3):
            for _ in range(50):
                rho = make_random_state(n, 1, rng)
                out = apply_composite(rho, random_photonic(n, rng))
                assert numerical_rank(out, 1e-9) <= 6 * n + 1

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            PhotonicNoise(p0=0.9, triples=((0.2, 0, 0),))
        with pytest.raises(ValueError):
            PhotonicNoise(p0=1.1, triples=((-0.1, 0, 0),))


class TestNoisyBasisMeasurement:
    def test_zero_angle_reduces_to_exact(self):
        rho = make_random_state(2, 2, 13)
        for setting in ("XY", "ZX"):
            a = distribution(rho, setting, 0.0)
            b = distribution(rho, setting)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_all_z_immune(self):
        rho = make_random_state(2, 3, 14)
        a = distribution(rho, "ZZ", 0.3)
        b = distribution(rho, "ZZ")
        assert np.max(np.abs(a - b)) < 1e-12

    def test_plus_state_oracle(self):
        # |+> measured in X with overrotation: direct 2x2 computation
        plus = pure_density(np.array([1.0, 1.0]) / np.sqrt(2.0))
        theta = 0.23
        H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        RX = np.array([[c, -1j * s], [-1j * s, c]])
        G = RX @ H.conj().T
        expected = np.real(np.diag(G @ plus @ G.conj().T))
        dist = distribution(plus, "X", theta)
        assert np.allclose(dist, expected, atol=1e-12)
        assert abs(dist[0] - np.cos(theta / 2) ** 2) < 1e-12


class TestBuildMeasurements:
    def test_observable_mode_infinite_matches_exact(self):
        rho = make_random_state(3, 2, 1)
        plan = plan_of(3, "observables", ("XYZ", "ZZI", "IXI", "YYY"))
        smap, y = build_measurements(rho, plan, shots=None, seed=0)
        assert np.array_equal(y, apply_sensing(smap, rho))

    def test_modes_agree_at_infinite_shots(self):
        rho = make_random_state(2, 2, 2)
        settings_plan = plan_of(2, "settings", ("XY", "ZZ"))
        smap_s, y_s = build_measurements(rho, settings_plan, shots=None, seed=0)
        obs_plan = MeasurementPlan(2, "observables", smap_s.codes)
        smap_o, y_o = build_measurements(rho, obs_plan, shots=None, seed=0)
        assert np.max(np.abs(y_s - y_o)) < 1e-12

    def test_settings_coverage_count(self):
        rho = pure_density(make_named_state("GHZ", 3))
        settings = sample_settings_until(3, 64, 5)
        assert len(settings) == 27
        assert np.unique(covered_codes(settings[:-1], 3)).size < 64
        plan = MeasurementPlan(3, "settings", settings)
        smap, y = build_measurements(rho, plan, shots=16, seed=1)
        assert smap.M == 64

    def test_observable_mode_consumes_one_draw_each(self):
        rho = make_random_state(2, 3, 3)
        plan = plan_of(2, "observables", ("XX", "YZ", "IX", "ZZ", "XY"))
        smap, y = build_measurements(rho, plan, shots=64, seed=9)
        # replay the exact RNG stream: M draws, one per observable, in order
        p = (apply_sensing(smap, rho) + 1.0) / 2.0
        assert np.array_equal(y, per_word_draws(p, 64, 9))

    def test_measurement_noise_requires_settings(self):
        rho = make_random_state(2, 1, 4)
        plan = plan_of(2, "observables", ["XX"])
        with pytest.raises(ValueError):
            build_measurements(rho, plan, shots=10,
                               noise=NoiseModel(readout_q=0.1), seed=0)

    @pytest.mark.parametrize("kwargs", [
        {"coherent_theta": np.nan}, {"coherent_theta": np.inf},
        {"coherent_theta": -np.inf}, {"readout_q": np.nan},
        {"depolarizing_eps": np.nan}])
    def test_noise_model_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError):
            NoiseModel(**kwargs)

    def test_channels_name_every_noise_field(self):
        assert sorted(CHANNELS.values()) == sorted(
            f.name for f in dataclasses.fields(NoiseModel))

    def test_prepare_applies_the_state_side_channels(self):
        rho = make_random_state(2, 2, 8)
        # readout acts at measurement only: the target itself is prepared
        assert NoiseModel().prepare(rho) is rho
        assert NoiseModel(readout_q=0.1).prepare(rho) is rho
        noise = NoiseModel(depolarizing_eps=0.05, coherent_theta=0.2)
        overrotated = apply_coherent(rho, overrotation_unitary(2, 0.2))
        assert np.array_equal(noise.prepare(rho), apply_depolarizing(overrotated, 0.05))

    def test_settings_mode_shared_shots_reproducible(self):
        rho = make_random_state(2, 2, 6)
        plan = plan_of(2, "settings", ("XX", "YZ"))
        a = build_measurements(rho, plan, shots=128, seed=3)[1]
        b = build_measurements(rho, plan, shots=128, seed=3)[1]
        assert np.array_equal(a, b)

    def test_readout_shrinks_expectations(self):
        rho = pure_density(make_named_state("GHZ", 2))
        plan = plan_of(2, "settings", ["ZZ"])
        smap, y = build_measurements(rho, plan, shots=None,
                                     noise=NoiseModel(readout_q=0.1), seed=0)
        idx = words_of(smap).index("ZZ")
        assert abs(y[idx] - (1 - 2 * 0.1) ** 2) < 1e-12


def record(n, mode, shots, words, data):
    return ShotRecord(plan_of(n, mode, words), shots, data)


def same_plan(a, b):
    return (a.n, a.mode, a.words) == (b.n, b.mode, b.words)


class TestShotsFormat:
    def test_observables_round_trip(self, tmp_path):
        rec = record(2, "observables", 128, ("XX", "IZ"), np.array([0.5, -0.25]))
        path = tmp_path / "shots.txt"
        write_shots(path, rec)
        back = read_shots(path)
        assert same_plan(back.plan, rec.plan)
        assert np.array_equal(back.data, rec.data)
        assert back.shots == 128

    def test_settings_round_trip(self, tmp_path):
        counts0 = np.array([3, 0, 0, 5], dtype=np.int64)
        counts1 = np.array([0, 8, 0, 0], dtype=np.int64)
        rec = record(2, "settings", 8, ("XY", "ZZ"), (counts0, counts1))
        path = tmp_path / "shots.txt"
        write_shots(path, rec)
        back = read_shots(path)
        assert back.plan.mode == "settings"
        assert np.array_equal(back.data[0], counts0)
        assert np.array_equal(back.data[1], counts1)

    def test_infinite_header(self, tmp_path):
        rec = record(1, "observables", None, ("Z",), np.array([1.0]))
        path = tmp_path / "shots.txt"
        write_shots(path, rec)
        assert path.read_text().splitlines()[0] == "SHOTS v1 n=1 N=inf mode=observables"
        assert read_shots(path).shots is None

    def test_record_validation(self):
        with pytest.raises(ValueError):
            record(1, "observables", 8, ("Z",), np.array([1.5]))
        with pytest.raises(ValueError):
            record(1, "observables", 8, ("Z",), np.array([np.nan]))
        with pytest.raises(ValueError):
            record(1, "observables", 8, (), np.array([]))
        with pytest.raises(ValueError):
            record(1, "settings", 8, ("Z",), (np.array([3, 3]),))

    def test_record_is_read_only(self):
        rec = record(1, "settings", 8, ("Z",), (np.array([3, 5]),))
        with pytest.raises(ValueError):
            rec.data[0, 0] = 8

    def test_exact_probabilities_are_not_written(self, tmp_path):
        rho = make_random_state(2, 1, 7)
        plan = plan_of(2, "settings", ("XX", "ZY"))
        rec = simulate(rho, plan, shots=None)
        assert (rec.shots, rec.data.dtype) == (None, np.float64)
        with pytest.raises(ValueError, match="exact probabilities"):
            write_shots(tmp_path / "rec.txt", rec)

    def test_build_measurements_record(self, tmp_path):
        rho = make_random_state(2, 1, 7)
        plan = plan_of(2, "settings", ("XX", "ZY"))
        rec = simulate(rho, plan, shots=32, seed=2)
        assert rec.plan is plan and rec.shots == 32
        path = tmp_path / "rec.txt"
        write_shots(path, rec)
        back = read_shots(path)
        assert np.array_equal(back.data, rec.data)


@st.composite
def shot_records(draw):
    """A valid ShotRecord on 1..3 qubits, in either mode."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        words = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n),
                              min_size=1, max_size=6, unique=True))
        values = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(words),
                               max_size=len(words)))
        return record(n, "observables", draw(st.none() | st.integers(1, 10**6)),
                      words, np.array(values))
    words = draw(st.lists(st.text("XYZ", min_size=n, max_size=n),
                          min_size=1, max_size=6, unique=True))
    shots = draw(st.integers(1, 10**6))
    counts = []
    for _ in words:
        cuts = draw(st.lists(st.integers(0, shots), min_size=(1 << n) - 1,
                             max_size=(1 << n) - 1))
        counts.append(np.diff([0] + sorted(cuts) + [shots]))
    return record(n, "settings", shots, words, counts)


class TestShotsReader:
    @given(shot_records())
    def test_round_trip(self, tmp_path_factory, rec):
        path = tmp_path_factory.mktemp("shots") / "shots.txt"
        write_shots(path, rec)
        back = read_shots(path)
        assert same_plan(back.plan, rec.plan) and back.shots == rec.shots
        assert np.array_equal(back.data, rec.data)

    @given(st.integers(1, 4), st.sampled_from(["observables", "settings"]),
           st.sampled_from([1, 7, 1024]), st.integers(0, 2**32 - 1))
    def test_file_path_matches_in_memory_path(self, tmp_path_factory, n, mode,
                                              shots, seed):
        # simulate -> write -> read -> estimate gives build_measurements' data
        rng = np.random.default_rng(seed)
        rho = make_random_state(n, min(2, 1 << n), rng)
        if mode == "observables":
            codes = pauli.sample_observables(n, min(4 ** n, 10), rng)
            noise = NoiseModel()
        else:
            codes = sample_settings_until(n, min(4 ** n, 6 * n), rng)
            noise = NoiseModel(readout_q=0.03)
        plan = MeasurementPlan(n, mode, codes)
        path = tmp_path_factory.mktemp("shots") / "shots.txt"
        write_shots(path, simulate(rho, plan, shots, noise, seed=seed))
        smap, y = estimate(read_shots(path))
        smap_ref, y_ref = build_measurements(rho, plan, shots, noise, seed=seed)
        assert np.array_equal(smap.codes, smap_ref.codes)
        assert y.tobytes() == y_ref.tobytes()

    @pytest.mark.parametrize("text, line", [
        ("SHOTS v1 n=2 N=8 mode=settings\nXY 1:8\n", 2),        # short bitstring
        ("SHOTS v1 n=2 N=8 mode=settings\nXY 111:8\n", 2),      # long bitstring
        ("SHOTS v1 q=2 N=8 mode=settings\nXY 00:8\n", 1),       # wrong prefix
        ("SHOTS v1 n=2 N=8 mode=settings\nXYZ 00:8\n", 2),      # word too long
        ("SHOTS v1 n=2 N=8 mode=settings\nZZ 00:8\nQQ 00:8\n", 3),
        ("SHOTS v1 n=2 N=8 mode=observables\nQQ 0.5\n", 2),
        ("SHOTS v1 n=2 N=8 mode=settings\nXY 00:4 00:4\n", 2),  # repeated outcome
        ("SHOTS v1 n=2 N=8 mode=observables\nXX 0.5 0.25\n", 2),  # extra field
        ("SHOTS v1 n=2 N=8 mode=observables\nXX\n", 2),         # missing value
        ("SHOTS v1 n=2 N=8 mode=settings\nXY 00:x\n", 2),
        ("SHOTS v1 n=2 N=8 mode=settings\nXY\n", 2),
        ("SHOTS v1 n=2 N=8 mode=settings\nXY 00:3\n", 2),       # counts short of N
        ("SHOTS v1 n=2 N=8 mode=observables\nXX 1.5\n", 2),     # mean beyond 1
        ("SHOTS v1 n=2 N=8 mode=observables\nXX nan\n", 2),
        ("SHOTS v1 n=2 N=inf mode=settings\nXY 00:8\n", 1),     # counts need N
        ("SHOTS v1 n=2 N=8 mode=observables\nXX 0.5\nXX 0.5\n", 3),  # repeated word
        ("SHOTS v1 n=2 N=8 mode=settings\nXY 00:8\nZZ 11:8\nXY 01:8\n", 4),
        ("SHOTS v1 n=2 N=8 mode=settings\n\n", 3),               # no data
        ("SHOTS v1 n=1 N=99999999999999999999 mode=settings\n"   # N beyond int64
         "Z 0:99999999999999999999\n", 1),
        ("SHOTS v1 n=1 N=8 mode=settings\nZ 0:99999999999999999999\n", 2),
    ])
    def test_malformed_names_the_line(self, tmp_path, text, line):
        path = tmp_path / "shots.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}"):
            read_shots(path)

    def test_large_n_is_rejected_before_any_row(self, tmp_path):
        # 80 bytes declaring n=22 would ask for 4M-entry count rows
        path = tmp_path / "shots.txt"
        path.write_text("SHOTS v1 n=22 N=8 mode=settings\n"
                        "ZZZZZZZZZZZZZZZZZZZZZZ 0000000000000000000000:8\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="line 1"):
                read_shots(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_non_ascii_byte_names_the_line(self, tmp_path):
        path = tmp_path / "shots.txt"
        path.write_bytes(b"SHOTS v1 n=2 N=8 mode=observables\nXX 0.5\nYY 0.\xe95\n")
        with pytest.raises(ValueError, match="SHOTS v1: non-ASCII byte at line 3"):
            read_shots(path)

    @given(st.sampled_from(["observables", "settings"]),
           st.text("IXYZQ01:.-e ", max_size=16))
    def test_fuzzed_line_reads_or_raises_value_error(self, tmp_path_factory,
                                                     mode, line):
        path = tmp_path_factory.mktemp("shots") / "shots.txt"
        path.write_text(f"SHOTS v1 n=2 N=8 mode={mode}\n{line}\n")
        try:
            read_shots(path)
        except ValueError:
            pass
