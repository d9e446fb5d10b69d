import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ampqst.measure import outcome_probabilities, read_shots
from ampqst.pauli import (
    MAX_QUBITS,
    MeasurementPlan,
    _all_expectations,
    apply_adjoint,
    apply_sensing,
    covered_codes,
    pauli_indices_from_words,
    pauli_words_from_indices,
    sample_observables,
    sample_settings_until,
    sensing_map_from_indices,
)
from ampqst.states import make_named_state, pure_density
from conftest import codes_of, map_of, words_of

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_pauli(word):
    out = np.array([[1.0]], dtype=complex)
    for ch in word:
        out = np.kron(out, SINGLE[ch])
    return out


def all_words(n):
    return ["".join(w) for w in itertools.product("IXYZ", repeat=n)]


def word_from_index_loop(index, n):
    """Reference decoder: one base-4 digit at a time, leftmost first."""
    return "".join("IXYZ"[(index >> 2 * (n - 1 - q)) & 3] for q in range(n))


def index_from_word_loop(word):
    """Reference parser: one letter at a time, leftmost most significant."""
    index = 0
    for ch in word:
        index = (index << 2) | "IXYZ".index(ch)
    return index


def covered_word_loop(setting, mask):
    """Reference cover: keep the setting's letters where the mask bit is 1
    (leftmost letter is the most significant bit), I elsewhere."""
    n = len(setting)
    return "".join(setting[j] if (mask >> (n - 1 - j)) & 1 else "I"
                   for j in range(n))


def covered(setting):
    """The words one setting covers, in mask order, through the codes."""
    n = len(setting)
    return pauli_words_from_indices(covered_codes(codes_of([setting]), n)[0], n)


def settings_per_draw(n, target_M, seed):
    """Reference sampler: decode and cover one drawn setting at a time; the
    setting words in draw order."""
    order = np.random.default_rng(seed).permutation(3 ** n)
    covered, total, settings = np.zeros(4 ** n, dtype=bool), 0, []
    for index in order:
        word = "".join("XYZ"[int(index) // 3 ** (n - 1 - q) % 3] for q in range(n))
        codes = covered_codes(codes_of([word]), n)[0]
        total += int(np.count_nonzero(~covered[codes]))
        covered[codes] = True
        settings.append(word)
        if total >= target_M:
            return settings


def coverage(settings, n):
    """Number of distinct Pauli words the n-qubit settings' codes cover."""
    return np.unique(covered_codes(settings, n)).size


def random_hermitian(rng, d):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (A + A.conj().T)


@st.composite
def maps_and_rngs(draw):
    """A sensing map on 1..4 qubits with distinct random words, and a seeded rng."""
    n = draw(st.integers(1, 4))
    words = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n),
                          min_size=1, max_size=12, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    return map_of(words), np.random.default_rng(seed)



def word_matrix(word):
    """The matrix of one word through the map: the adjoint of a unit vector."""
    return apply_adjoint(map_of([word]), np.ones(1))


class TestWords:
    def test_zz_diagonal_signs(self):
        assert np.array_equal(word_matrix("ZZ"), np.diag([1, -1, -1, 1]))

    def test_matches_kron_oracle(self):
        for word in ["X", "Z", "XY", "YY", "IZX", "XYZ", "YIYX"]:
            assert np.array_equal(word_matrix(word), kron_pauli(word)), word

    def test_invalid_letter(self):
        with pytest.raises(ValueError):
            map_of(["XQ"])

    def test_word_index_round_trip(self):
        words = pauli_words_from_indices(np.arange(64), 3)
        assert [index_from_word_loop(w) for w in words] == list(range(64))
        assert pauli_indices_from_words(words, 3).tolist() == list(range(64))

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, 4 ** n - 1), max_size=40))))
    def test_batch_decode_matches_per_index_loop(self, case):
        n, codes = case
        expected = [word_from_index_loop(c, n) for c in codes]
        assert pauli_words_from_indices(np.array(codes, dtype=np.int64), n) == expected

    def test_decode_rejects_out_of_range(self):
        for codes, n in (([16], 2), ([-1], 2), ([3, 64], 3), ([0], 0)):
            with pytest.raises(ValueError, match="out of range"):
                pauli_words_from_indices(codes, n)


def read_settings_file(words, path):
    """read_shots of a settings file holding one line per word."""
    path.write_text("SHOTS v1 n=2 N=1 mode=settings\n"
                    + "".join(f"{w} 00:1\n" for w in words), encoding="utf-8")
    return read_shots(path)


# every entry point that reads words from text, on two-letter settings
ENTRY_POINTS = {
    "pauli_indices_from_words":
        lambda words, path: pauli_indices_from_words(words, 2, "XYZ", "setting"),
    "read_shots": read_settings_file,
}


class TestCodec:
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, 4 ** n - 1), max_size=40))))
    def test_parse_inverts_decode(self, case):
        n, codes = case
        words = pauli_words_from_indices(codes, n)
        parsed = pauli_indices_from_words(words, n)
        assert parsed.dtype == np.int64 and parsed.tolist() == codes
        assert [index_from_word_loop(w) for w in words] == codes

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("bad", ["X", "XYZ", "XQ", "X\u00e9"],
                             ids=["short", "long", "letter", "non-ascii"])
    def test_entry_points_reject_the_same_bad_words(self, entry, bad, tmp_path):
        ENTRY_POINTS[entry](["XY", "ZZ"], tmp_path / "good.txt")
        # the first bad word is named, or its line where a file is read
        expected = "line 3" if entry == "read_shots" else re.escape(repr(bad))
        with pytest.raises(ValueError, match=expected):
            ENTRY_POINTS[entry](["XY", bad, "ZZ", "??"], tmp_path / "bad.txt")

    def test_parser_checks_lengths_before_letters(self):
        with pytest.raises(ValueError, match="invalid Pauli word 'XXX'"):
            pauli_indices_from_words(["XQ", "XXX"], 2)
        with pytest.raises(ValueError, match="invalid setting 'XI'"):
            pauli_indices_from_words(["XY", "XI"], 2, "XYZ", "setting")

    def test_map_holds_a_read_only_copy_of_its_codes_in_order(self):
        codes = sample_observables(3, 20, 0)
        smap = sensing_map_from_indices(codes, 3)
        assert smap.codes.dtype == np.int64 and smap.codes.tolist() == codes.tolist()
        assert not smap.codes.flags.writeable
        codes[0] = (codes[0] + 1) % 64
        assert smap.codes[0] != codes[0]
        assert words_of(map_of(["XZY", "YYI", "IIZ"])) == ["XZY", "YYI", "IIZ"]

    def test_map_from_codes_rejects_empty_duplicate_or_out_of_range(self):
        for codes, why in (([], "at least one"), ([5, 5], "duplicate"),
                           ([16], "out of range"), ([-1], "out of range")):
            with pytest.raises(ValueError, match=why):
                sensing_map_from_indices(codes, 2)


class TestSensingMap:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            map_of(["XX", "XX"])

    def test_rows_factorize(self):
        # the map applied to the unit basis of the interleaved real
        # coordinates of X gives its matrix; row k, read as a complex row
        # (real coordinate + i * imaginary coordinate of each entry), is
        # vec(P_k)^dagger. apply_sensing takes Hermitian input, so each unit
        # matrix E enters as its Hermitian part (E + E^dagger) / 2, on which
        # the real-linear map Re<P, E> takes the same value.
        smap = map_of(["XY", "ZI", "YY", "IZ", "YI", "YX"])
        d = smap.d
        columns = []
        for e in np.eye(2 * d * d):
            E = e.view(np.complex128).reshape(d, d)
            columns.append(apply_sensing(smap, (E + E.conj().T) / 2))
        A = np.column_stack(columns)
        for k, word in enumerate(words_of(smap)):
            expected = kron_pauli(word).conj().reshape(-1)
            row = A[k, 0::2] - 1j * A[k, 1::2]
            assert np.array_equal(row, expected), word

    def test_memory_contract(self):
        # O(d^2 + M) numbers: no array of the map has M*d entries; per word
        # the map holds its code, its take and its weight, and it holds
        # nothing outside these arrays but three ints (no per-word objects).
        # Above n = 5 the Sylvester factors are small: no d x d matrix.
        for n, M, factors in [(4, 200, [16]), (7, 2000, [16, 8])]:
            smap = sensing_map_from_indices(sample_observables(n, M, 0), n)
            d = smap.d
            assert [len(H) for H in smap.factors] == factors
            held = [v for v in vars(smap).values() if not isinstance(v, tuple)]
            arrays = [v for v in held if isinstance(v, np.ndarray)] + list(smap.factors)
            assert arrays and all(a.size < M * d for a in arrays)
            assert sum(a.nbytes for a in arrays) \
                <= 8 * (d * d + 3 * M + sum(f * f for f in factors))
            assert all(not a.flags.writeable for a in arrays)
            others = [v for v in held if not isinstance(v, np.ndarray)]
            assert others == [n, d, M] and all(type(v) is int for v in others)

    def test_build_peak_memory(self):
        # n=7 with 8192 distinct words: the map is built without any (M, d)
        # array, which alone would take 8 MB
        words = pauli_words_from_indices(sample_observables(7, 8192, 0), 7)
        tracemalloc.start()
        try:
            map_of(words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_invalid_or_unequal_words_rejected(self):
        for words in (["XX", "XXX"], ["X", ""], ["XX", "XQ"], ["XX", "Xé"]):
            with pytest.raises(ValueError):
                map_of(words)

    @given(st.integers(1, 6), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_adjoint_is_exactly_hermitian(self, n, M, seed):
        rng = np.random.default_rng(seed)
        smap = sensing_map_from_indices(sample_observables(n, min(M, 4 ** n), rng), n)
        out = apply_adjoint(smap, rng.standard_normal(smap.M))
        assert np.array_equal(out, out.conj().T)

    def test_apply_traceless(self):
        smap = map_of(["XI", "YZ", "ZZ"])
        y = apply_sensing(smap, np.eye(4) / 4)
        assert np.allclose(y, 0.0)

    def test_apply_identity_observable(self):
        smap = map_of(["II", "XX"])
        y = apply_sensing(smap, np.eye(4) / 4)
        assert abs(y[0] - 1.0) < 1e-12

    def test_apply_ghz_stabilizer(self):
        smap = map_of(["XX", "ZZ", "ZI"])
        y = apply_sensing(smap, pure_density(make_named_state("GHZ", 2)))
        assert abs(y[0] - 1.0) < 1e-12
        assert abs(y[1] - 1.0) < 1e-12
        assert abs(y[2]) < 1e-12

    def test_apply_rejects_non_hermitian(self):
        rng = np.random.default_rng(1)
        smap = map_of(all_words(2))
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError):
            apply_sensing(smap, X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_apply_rejects_non_finite(self, bad):
        # NaN compares False against the Hermiticity bound, so it is caught
        # on its own; inf entries, even Hermitian-paired, are too
        smap = map_of(all_words(2))
        X = np.eye(4, dtype=complex) / 4
        X[1, 2] = X[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            apply_sensing(smap, X)
        with pytest.raises(ValueError, match="non-finite"):
            apply_sensing(smap, np.full((4, 4), bad, dtype=complex))

    def test_apply_accepts_large_hermitian(self):
        # entries of 1e6, as on a diverging run: the Hermiticity bound scales
        # with the entries, and the output keeps its relative accuracy
        rng = np.random.default_rng(0)
        smap = map_of(all_words(3))
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        X = 1e6 * (A + A.conj().T) / 2
        y = apply_sensing(smap, X)
        dense = [np.trace(kron_pauli(w) @ X).real for w in all_words(3)]
        assert np.max(np.abs(y - dense)) < 1e-12 * np.max(np.abs(dense))

    def test_adjoint_basis_vector(self):
        smap = map_of(["XY", "ZZ"])
        e0 = np.array([1.0, 0.0])
        assert np.array_equal(apply_adjoint(smap, e0), kron_pauli("XY"))
        assert np.allclose(apply_adjoint(smap, np.zeros(2)), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_adjoint_rejects_non_finite_data(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            apply_adjoint(map_of(["XX", "ZZ"]), np.array([1.0, bad]))

    def test_adjoint_output_exactly_hermitian(self):
        rng = np.random.default_rng(0)
        smap = sensing_map_from_indices(sample_observables(3, 20, rng), 3)
        out = apply_adjoint(smap, rng.standard_normal(20))
        assert np.array_equal(out, out.conj().T)

    def test_adjoint_identity(self):
        # <A(X), y> == <X, A^dagger(y)>_F on random inputs
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            smap = sensing_map_from_indices(sample_observables(n, 3 ** n, rng), n)
            for _ in range(5):
                A = rng.standard_normal((smap.d, smap.d)) \
                    + 1j * rng.standard_normal((smap.d, smap.d))
                Xh = 0.5 * (A + A.conj().T)
                y = rng.standard_normal(smap.M)
                lhs = float(apply_sensing(smap, Xh) @ y)
                rhs = float(np.real(np.sum(Xh.conj() * apply_adjoint(smap, y))))
                assert abs(lhs - rhs) <= 1e-10

    def test_gram_identity_full_basis(self):
        # sum over all d^2 Paulis of Tr[P X] P equals d * X
        rng = np.random.default_rng(2)
        for n in (1, 2):
            d = 1 << n
            smap = map_of(all_words(n))
            A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            Xh = 0.5 * (A + A.conj().T)
            acc = apply_adjoint(smap, apply_sensing(smap, Xh))
            assert np.max(np.abs(acc - d * Xh)) < 1e-10

    def test_dimension_mismatch(self):
        smap = map_of(["XX"])
        with pytest.raises(ValueError):
            apply_sensing(smap, np.eye(8) / 8)
        with pytest.raises(ValueError):
            apply_adjoint(smap, np.zeros(3))

    def test_compositions_match_dense_oracle(self):
        # forward-adjoint compositions against the dense matrix of the map
        rng = np.random.default_rng(9)
        for n in (1, 2):
            d = 1 << n
            smap = sensing_map_from_indices(sample_observables(n, 3 ** n, rng), n)
            B = np.vstack([kron_pauli(w).conj().reshape(-1) for w in words_of(smap)])
            A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            Xh = 0.5 * (A + A.conj().T)
            y = rng.standard_normal(smap.M)
            fwd_of_adj = apply_sensing(smap, apply_adjoint(smap, y))
            assert np.max(np.abs(fwd_of_adj - np.real(B @ (B.conj().T @ y)))) < 1e-10
            adj_of_fwd = apply_adjoint(smap, apply_sensing(smap, Xh))
            dense = (B.conj().T @ (B @ Xh.reshape(-1))).reshape(d, d)
            assert np.max(np.abs(adj_of_fwd - dense)) < 1e-10


EPS = np.finfo(np.float64).eps


def sylvester(n):
    """The dense 2^n x 2^n Walsh-Hadamard matrix, entry by entry."""
    d = 1 << n
    return np.array([[(-1.0) ** bin(i & j).count("1") for j in range(d)]
                     for i in range(d)])


def dense_sense(smap, X):
    """The map through the one dense Sylvester product ``H_n @ G``."""
    G = X.reshape(-1)[smap.gather].view(np.float64).reshape(smap.d, 2 * smap.d)
    return (sylvester(smap.n) @ G).reshape(-1)[smap.take] * smap.weight


def dense_adjoint(smap, y):
    C = np.zeros((smap.d, 2 * smap.d))
    C.reshape(-1)[smap.take] = y * smap.weight
    X = (sylvester(smap.n) @ C).view(np.complex128).reshape(-1)
    return X[smap.gather].reshape(smap.d, smap.d)


def transform_tol(d, scale):
    """Entries of ``H_n @ G`` are sums of d terms of size at most ``scale``;
    float64 adds them, in any order, to within d eps times the sum of their
    magnitudes, so the factored and the dense product differ by at most
    twice that."""
    return 2.0 * d * EPS * d * scale


class TestFactoredTransform:
    """Above n = 5 the map takes H_n = H_4 (x) H_{n-4} as two small products;
    the dense Sylvester product is the oracle."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_factors_are_the_sylvester_matrix(self, n):
        smap = sensing_map_from_indices(sample_observables(n, 4, 0), n)
        assert [len(H) for H in smap.factors] == ([1 << n] if n <= 5 else [16, 1 << (n - 4)])
        assert np.array_equal(np.kron(*smap.factors) if n > 5 else smap.factors[0],
                              sylvester(n))
        # each map builds its own read-only factors: nothing is cached
        other = sensing_map_from_indices(sample_observables(n, 4, 1), n)
        for mine, theirs in zip(smap.factors, other.factors):
            assert not mine.flags.writeable and not np.shares_memory(mine, theirs)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_sensing_and_adjoint_match_the_dense_product(self, n):
        rng = np.random.default_rng(100 + n)
        smap = sensing_map_from_indices(sample_observables(n, min(4 ** n, 3000), rng), n)
        X = random_hermitian(rng, smap.d)
        y = rng.standard_normal(smap.M)
        tol = transform_tol(smap.d, np.max(np.abs(X)))
        assert np.max(np.abs(apply_sensing(smap, X) - dense_sense(smap, X))) <= tol
        out = apply_adjoint(smap, y)
        assert np.array_equal(out, out.conj().T)
        tol = transform_tol(smap.d, np.max(np.abs(y)))
        assert np.max(np.abs(out - dense_adjoint(smap, y))) <= tol

    @pytest.mark.parametrize("n", range(1, 10))
    def test_all_expectations_match_the_dense_product(self, n):
        X = random_hermitian(np.random.default_rng(200 + n), 1 << n)
        every = sensing_map_from_indices(np.arange(4 ** n), n)
        tol = transform_tol(every.d, np.max(np.abs(X)))
        assert np.max(np.abs(_all_expectations(X, n) - dense_sense(every, X))) <= tol

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_adjoint_identity(self, n):
        # <A(X), y> == <X, A^dagger(y)>_F: each side sums products of at most
        # d + M terms, 2 d ||y||_1 max|X| in magnitude
        rng = np.random.default_rng(300 + n)
        smap = sensing_map_from_indices(sample_observables(n, 2000, rng), n)
        X = random_hermitian(rng, smap.d)
        y = rng.standard_normal(smap.M)
        lhs = float(apply_sensing(smap, X) @ y)
        rhs = float(np.sum(X.conj() * apply_adjoint(smap, y)).real)
        tol = 2.0 * (smap.d + smap.M) * EPS * 2 * smap.d * np.abs(y).sum() * np.max(np.abs(X))
        assert abs(lhs - rhs) <= tol


class TestSensingMapProperties:
    @given(maps_and_rngs())
    def test_matches_dense_oracle_and_adjoint(self, case):
        smap, rng = case
        Xh = random_hermitian(rng, smap.d)
        y = apply_sensing(smap, Xh)
        dense = [np.trace(kron_pauli(w) @ Xh).real for w in words_of(smap)]
        assert np.max(np.abs(y - dense)) < 1e-10
        z = rng.standard_normal(smap.M)
        lhs = float(y @ z)
        rhs = float(np.real(np.sum(Xh.conj() * apply_adjoint(smap, z))))
        assert abs(lhs - rhs) <= 1e-10

    @given(maps_and_rngs())
    def test_rejects_small_anti_hermitian_part(self, case):
        smap, rng = case
        K = 1j * random_hermitian(rng, smap.d)
        with pytest.raises(ValueError):
            apply_sensing(smap, random_hermitian(rng, smap.d) + 1e-6 * K)


class TestSampling:
    def test_single_qubit_exhaustive(self):
        got = sample_observables(1, 4, 0)
        assert got.dtype == np.int64 and set(got.tolist()) == {0, 1, 2, 3}

    def test_two_qubit_full(self):
        got = sample_observables(2, 16, 1)
        assert set(pauli_words_from_indices(got, 2)) == set(all_words(2))

    def test_no_replacement(self):
        got = sample_observables(2, 8, 5)
        assert len(set(got.tolist())) == 8

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            sample_observables(1, 5, 0)

    @pytest.mark.parametrize("sample", [sample_observables, sample_settings_until])
    def test_qubit_bound_checked_first(self, sample):
        # n = 13 only: past the bound the settings sampler would permute all
        # 3^n settings (3.5e9 of them at n = 20) before any other check
        with pytest.raises(ValueError, match=f"qubits must lie in \\[1, {MAX_QUBITS}\\]"):
            sample(13, 1, 0)

    def test_deterministic(self):
        a = sample_observables(3, 10, 7)
        b = sample_observables(3, 10, 7)
        assert np.array_equal(a, b)

    def test_codes_in_draw_order(self):
        codes = np.random.default_rng(4).choice(4 ** 3, size=10, replace=False)
        assert sample_observables(3, 10, 4).tolist() == codes.tolist()


class TestSettings:
    def test_xy_setting_observables(self):
        assert set(covered("XY")) == {"II", "XI", "IY", "XY"}

    def test_z_setting(self):
        assert set(covered("Z")) == {"I", "Z"}

    def test_set_size(self):
        for s in ("XYZ", "ZZZ", "YXY"):
            assert len(set(covered(s))) == 8

    def test_identity_in_every_intersection(self):
        assert "II" in set(covered("XY")) & set(covered("ZZ"))
        codes = covered_codes(codes_of(["XYZ", "ZZZ", "YXY"]), 3)
        assert np.all(codes[:, 0] == 0)

    def test_covered_word_order(self):
        assert covered("XY") == ["II", "IY", "XI", "XY"]

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.text("XYZ", min_size=n, max_size=n), min_size=1, max_size=6)))
    def test_covered_codes_match_covered_words(self, settings):
        n = len(settings[0])
        codes = covered_codes(codes_of(settings), n)
        assert codes.shape == (len(settings), 1 << n)
        for k, setting in enumerate(settings):
            assert pauli_words_from_indices(codes[k], n) \
                == [covered_word_loop(setting, a) for a in range(1 << n)]

    def test_mixed_or_identity_settings_rejected(self):
        # covered_codes takes codes; the text checks are the parser's, and
        # the code checks those of outcome_probabilities and the plan
        for settings in (["XY", "XYZ"], ["XY", "XI"]):
            with pytest.raises(ValueError):
                pauli_indices_from_words(settings, 2, "XYZ", "setting")
        rho = np.eye(4) / 4
        for codes, why in (([], "at least one"), ([4], "I letter"),
                           ([21], "out of range"), ([-1], "out of range")):
            with pytest.raises(ValueError, match=why):
                outcome_probabilities(rho, codes)
        # n comes from the length of rho; its shape must then be 2^n x 2^n
        for bad_rho in (np.eye(5) / 5, np.eye(4)[:, :3], np.ones(4)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                outcome_probabilities(bad_rho, [5])                   # XX

    def test_table_counts_full_coverage(self):
        # covering all d^2 observables requires every one of the 3^n settings
        for n, expected in ((3, 27), (4, 81)):
            for seed in range(3):
                settings = sample_settings_until(n, 4 ** n, seed)
                assert settings.dtype == np.int64 and len(settings) == expected
                assert coverage(settings, n) == 4 ** n
                assert coverage(settings[:-1], n) < 4 ** n

    def test_quarter_coverage_mean(self):
        counts = [len(sample_settings_until(3, 16, s)) for s in range(100)]
        assert 2.0 <= np.mean(counts) <= 4.0

    def test_target_too_large(self):
        with pytest.raises(ValueError):
            sample_settings_until(2, 17, 0)
        for target in (0, 1):
            with pytest.raises(ValueError):
                sample_settings_until(0, target, 0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_per_draw_loop(self, n):
        d2 = 4 ** n
        for target in (1, d2 // 4 + 1, d2 // 2, d2):
            for seed in range(5):
                settings = sample_settings_until(n, target, seed)
                assert pauli_words_from_indices(settings, n) \
                    == settings_per_draw(n, target, seed)

    def test_matches_per_draw_loop_n8(self):
        for target in (1000, 4 ** 8):
            assert pauli_words_from_indices(sample_settings_until(8, target, 3), 8) \
                == settings_per_draw(8, target, 3)

    def test_coverage_is_genuine(self):
        # the drawn settings reach the target and stop at the first that does
        settings = sample_settings_until(3, 40, 12)
        assert coverage(settings, 3) >= 40 > coverage(settings[:-1], 3)
        manual = set()
        for s in pauli_words_from_indices(settings, 3):
            manual.update(covered_word_loop(s, a) for a in range(8))
        assert len(manual) == coverage(settings, 3)


class TestMeasurementPlan:
    @pytest.mark.parametrize("n, mode, codes, why", [
        (2, "observables", [], "at least one"),
        (2, "observables", [-1], "out of range"),
        (2, "observables", [16], "out of range"),
        (2, "observables", [1.5], "integers"),
        (2, "observables", [2 ** 70], "integers"),
        (2, "settings", [5, 4], "I letter"),            # XX, then XI
        (2, "settings", [5, 1], "I letter"),            # XX, then IX
        (1, "observables", [1, 1], "duplicate"),
        (2, "settings", [5, 5], "duplicate"),
        (0, "observables", [0], "qubits"),
        (MAX_QUBITS + 1, "observables", [0], "qubits"),
        (2, "words", [5], "unknown plan mode"),
    ])
    def test_rejects(self, n, mode, codes, why):
        with pytest.raises(ValueError, match=why):
            MeasurementPlan(n, mode, codes)

    def test_holds_read_only_codes_and_spells_words_on_read(self):
        codes = np.array([6, 15])                       # XY, ZZ
        plan = MeasurementPlan(2, "settings", codes)
        codes[0] = 7
        assert plan.codes.dtype == np.int64 and plan.codes.tolist() == [6, 15]
        assert not plan.codes.flags.writeable
        assert plan.words == ["XY", "ZZ"] and "words" not in vars(plan)

    @pytest.mark.parametrize("mode, alphabet, good, bad", [
        ("observables", "IXYZ", ("IX", "ZY"),
         ["XA", "X", "XYZ", "xy", "Iy", "", "X\u00e9"]),
        ("settings", "XYZ", ("XY", "ZZ"),
         ["XI", "X", "XYZ", "xy", "Zz", "", "Y\u00e9"]),
    ])
    def test_bad_words_named(self, mode, alphabet, good, bad):
        # the parser as read_shots calls it for a plan of this mode
        codes = pauli_indices_from_words(good, 2, alphabet, f"{mode} word")
        assert MeasurementPlan(2, mode, codes).words == list(good)
        for word in bad:
            # the first bad word is named, wherever it sits
            words = (good[0], word, "??", good[1])
            with pytest.raises(ValueError, match=rf"invalid {mode} word {word!r}"):
                pauli_indices_from_words(words, 2, alphabet, f"{mode} word")
