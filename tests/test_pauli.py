import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ampqst.measure import read_shots
from ampqst.pauli import (
    MeasurementPlan,
    apply_adjoint,
    apply_sensing,
    build_sensing_map,
    covered_codes,
    pauli_indices_from_words,
    pauli_words_from_indices,
    sample_observables,
    sample_settings_until,
    sensing_map_from_indices,
)
from ampqst.states import make_named_state, pure_density

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
    return pauli_words_from_indices(covered_codes([setting])[0], len(setting))


def settings_per_draw(n, target_M, seed):
    """Reference sampler: decode and cover one drawn setting at a time."""
    order = np.random.default_rng(seed).permutation(3 ** n)
    covered, total, settings = np.zeros(4 ** n, dtype=bool), 0, []
    for index in order:
        word = "".join("XYZ"[int(index) // 3 ** (n - 1 - q) % 3] for q in range(n))
        codes = covered_codes([word])[0]
        total += int(np.count_nonzero(~covered[codes]))
        covered[codes] = True
        settings.append(word)
        if total >= target_M:
            return settings


def coverage(settings):
    """Number of distinct Pauli words the settings cover."""
    return np.unique(covered_codes(settings)).size


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
    return build_sensing_map(words), np.random.default_rng(seed)



def word_matrix(word):
    """The matrix of one word through the map: the adjoint of a unit vector."""
    return apply_adjoint(build_sensing_map([word]), np.ones(1))


class TestWords:
    def test_zz_diagonal_signs(self):
        assert np.array_equal(word_matrix("ZZ"), np.diag([1, -1, -1, 1]))

    def test_matches_kron_oracle(self):
        for word in ["X", "Z", "XY", "YY", "IZX", "XYZ", "YIYX"]:
            assert np.array_equal(word_matrix(word), kron_pauli(word)), word

    def test_invalid_letter(self):
        with pytest.raises(ValueError):
            build_sensing_map(["XQ"])

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
    "MeasurementPlan": lambda words, path: MeasurementPlan(2, "settings", tuple(words)),
    "build_sensing_map": lambda words, path: build_sensing_map(words),
    "covered_codes": lambda words, path: covered_codes(words),
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
        # the first bad word is named (upper-cased where any case is taken),
        # or its line where a file is read
        expected = "line 3" if entry == "read_shots" else f"(?i){re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=expected):
            ENTRY_POINTS[entry](["XY", bad, "ZZ", "??"], tmp_path / "bad.txt")

    def test_parser_checks_lengths_before_letters(self):
        with pytest.raises(ValueError, match="invalid Pauli word 'XXX'"):
            pauli_indices_from_words(["XQ", "XXX"], 2)
        with pytest.raises(ValueError, match="invalid setting 'XI'"):
            pauli_indices_from_words(["XY", "XI"], 2, "XYZ", "setting")

    def test_map_from_codes_is_map_from_words(self):
        words = sample_observables(3, 20, 0)
        a = build_sensing_map(words)
        b = sensing_map_from_indices(pauli_indices_from_words(words, 3), 3)
        assert a.words == b.words == tuple(words)
        for name in ("gather", "take", "weight", "H"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_map_from_codes_rejects_empty_duplicate_or_out_of_range(self):
        for codes, why in (([], "at least one"), ([5, 5], "duplicate"),
                           ([16], "out of range")):
            with pytest.raises(ValueError, match=why):
                sensing_map_from_indices(codes, 2)


class TestSensingMap:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            build_sensing_map(["XX", "XX"])

    def test_rows_factorize(self):
        # the map applied to the unit basis of the interleaved real
        # coordinates of X gives its matrix; row k, read as a complex row
        # (real coordinate + i * imaginary coordinate of each entry), is
        # vec(P_k)^dagger. apply_sensing takes Hermitian input, so each unit
        # matrix E enters as its Hermitian part (E + E^dagger) / 2, on which
        # the real-linear map Re<P, E> takes the same value.
        smap = build_sensing_map(["XY", "ZI", "YY", "IZ", "YI", "YX"])
        d = smap.d
        columns = []
        for e in np.eye(2 * d * d):
            E = e.view(np.complex128).reshape(d, d)
            columns.append(apply_sensing(smap, (E + E.conj().T) / 2))
        A = np.column_stack(columns)
        for k, word in enumerate(smap.words):
            expected = kron_pauli(word).conj().reshape(-1)
            row = A[k, 0::2] - 1j * A[k, 1::2]
            assert np.array_equal(row, expected), word

    def test_memory_contract(self):
        # O(d^2 + M) numbers: no array of the map has M*d entries
        n, M = 4, 200
        smap = build_sensing_map(sample_observables(n, M, 0))
        d = smap.d
        arrays = [v for v in vars(smap).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.size < M * d for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 8 * (2 * d * d + 2 * M)
        assert all(not a.flags.writeable for a in arrays)

    def test_build_peak_memory(self):
        # n=7 with 8192 distinct words: the map is built without any (M, d)
        # array, which alone would take 8 MB
        words = sample_observables(7, 8192, 0)
        tracemalloc.start()
        try:
            build_sensing_map(words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_words_kept_upper_case_in_order(self):
        smap = build_sensing_map(["xzy", "yyi", "IIZ"])
        assert smap.words == ("XZY", "YYI", "IIZ")
        assert all(type(w) is str for w in smap.words)
        with pytest.raises(ValueError, match="duplicate"):
            build_sensing_map(["xx", "XX"])

    def test_invalid_or_unequal_words_rejected(self):
        for words in (["XX", "XXX"], ["X", ""], ["XX", "XQ"], ["XX", "Xé"]):
            with pytest.raises(ValueError):
                build_sensing_map(words)

    @given(st.integers(1, 6), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_adjoint_is_exactly_hermitian(self, n, M, seed):
        rng = np.random.default_rng(seed)
        smap = build_sensing_map(sample_observables(n, min(M, 4 ** n), rng))
        out = apply_adjoint(smap, rng.standard_normal(smap.M))
        assert np.array_equal(out, out.conj().T)

    def test_apply_traceless(self):
        smap = build_sensing_map(["XI", "YZ", "ZZ"])
        y = apply_sensing(smap, np.eye(4) / 4)
        assert np.allclose(y, 0.0)

    def test_apply_identity_observable(self):
        smap = build_sensing_map(["II", "XX"])
        y = apply_sensing(smap, np.eye(4) / 4)
        assert abs(y[0] - 1.0) < 1e-12

    def test_apply_ghz_stabilizer(self):
        smap = build_sensing_map(["XX", "ZZ", "ZI"])
        y = apply_sensing(smap, pure_density(make_named_state("GHZ", 2)))
        assert abs(y[0] - 1.0) < 1e-12
        assert abs(y[1] - 1.0) < 1e-12
        assert abs(y[2]) < 1e-12

    def test_apply_rejects_non_hermitian(self):
        rng = np.random.default_rng(1)
        smap = build_sensing_map(all_words(2))
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError):
            apply_sensing(smap, X)

    def test_apply_accepts_large_hermitian(self):
        # entries of 1e6, as on a diverging run: the Hermiticity bound scales
        # with the entries, and the output keeps its relative accuracy
        rng = np.random.default_rng(0)
        smap = build_sensing_map(all_words(3))
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        X = 1e6 * (A + A.conj().T) / 2
        y = apply_sensing(smap, X)
        dense = [np.trace(kron_pauli(w) @ X).real for w in all_words(3)]
        assert np.max(np.abs(y - dense)) < 1e-12 * np.max(np.abs(dense))

    def test_adjoint_basis_vector(self):
        smap = build_sensing_map(["XY", "ZZ"])
        e0 = np.array([1.0, 0.0])
        assert np.array_equal(apply_adjoint(smap, e0), kron_pauli("XY"))
        assert np.allclose(apply_adjoint(smap, np.zeros(2)), 0.0)

    def test_adjoint_output_exactly_hermitian(self):
        rng = np.random.default_rng(0)
        smap = build_sensing_map(sample_observables(3, 20, rng))
        out = apply_adjoint(smap, rng.standard_normal(20))
        assert np.array_equal(out, out.conj().T)

    def test_adjoint_identity(self):
        # <A(X), y> == <X, A^dagger(y)>_F on random inputs
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            smap = build_sensing_map(sample_observables(n, 3 ** n, rng))
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
            smap = build_sensing_map(all_words(n))
            A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            Xh = 0.5 * (A + A.conj().T)
            acc = apply_adjoint(smap, apply_sensing(smap, Xh))
            assert np.max(np.abs(acc - d * Xh)) < 1e-10

    def test_dimension_mismatch(self):
        smap = build_sensing_map(["XX"])
        with pytest.raises(ValueError):
            apply_sensing(smap, np.eye(8) / 8)
        with pytest.raises(ValueError):
            apply_adjoint(smap, np.zeros(3))

    def test_compositions_match_dense_oracle(self):
        # forward-adjoint compositions against the dense matrix of the map
        rng = np.random.default_rng(9)
        for n in (1, 2):
            d = 1 << n
            smap = build_sensing_map(sample_observables(n, 3 ** n, rng))
            B = np.vstack([kron_pauli(w).conj().reshape(-1) for w in smap.words])
            A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            Xh = 0.5 * (A + A.conj().T)
            y = rng.standard_normal(smap.M)
            fwd_of_adj = apply_sensing(smap, apply_adjoint(smap, y))
            assert np.max(np.abs(fwd_of_adj - np.real(B @ (B.conj().T @ y)))) < 1e-10
            adj_of_fwd = apply_adjoint(smap, apply_sensing(smap, Xh))
            dense = (B.conj().T @ (B @ Xh.reshape(-1))).reshape(d, d)
            assert np.max(np.abs(adj_of_fwd - dense)) < 1e-10


class TestSensingMapProperties:
    @given(maps_and_rngs())
    def test_matches_dense_oracle_and_adjoint(self, case):
        smap, rng = case
        Xh = random_hermitian(rng, smap.d)
        y = apply_sensing(smap, Xh)
        dense = [np.trace(kron_pauli(w) @ Xh).real for w in smap.words]
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
        got = set(sample_observables(1, 4, 0))
        assert got == {"I", "X", "Y", "Z"}

    def test_two_qubit_full(self):
        got = set(sample_observables(2, 16, 1))
        assert got == set(all_words(2))

    def test_no_replacement(self):
        got = sample_observables(2, 8, 5)
        assert len(set(got)) == 8

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            sample_observables(1, 5, 0)

    def test_deterministic(self):
        a = sample_observables(3, 10, 7)
        b = sample_observables(3, 10, 7)
        assert a == b

    def test_words_in_draw_order(self):
        codes = np.random.default_rng(4).choice(4 ** 3, size=10, replace=False)
        assert sample_observables(3, 10, 4) == [word_from_index_loop(c, 3) for c in codes]


class TestSettings:
    def test_xy_setting_observables(self):
        assert set(covered("XY")) == {"II", "XI", "IY", "XY"}

    def test_z_setting(self):
        assert set(covered("z")) == {"I", "Z"}

    def test_set_size(self):
        for s in ("XYZ", "ZZZ", "YXY"):
            assert len(set(covered(s))) == 8

    def test_identity_in_every_intersection(self):
        assert "II" in set(covered("XY")) & set(covered("ZZ"))
        codes = covered_codes(["XYZ", "ZZZ", "YXY"])
        assert np.all(codes[:, 0] == 0)

    def test_covered_word_order(self):
        assert covered("XY") == ["II", "IY", "XI", "XY"]

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.text("XYZ", min_size=n, max_size=n), min_size=1, max_size=6)))
    def test_covered_codes_match_covered_words(self, settings):
        codes = covered_codes(settings)
        n = len(settings[0])
        assert codes.shape == (len(settings), 1 << n)
        for k, setting in enumerate(settings):
            assert pauli_words_from_indices(codes[k], n) \
                == [covered_word_loop(setting, a) for a in range(1 << n)]

    def test_covered_codes_reject_mixed_settings(self):
        for settings in (["XY", "XYZ"], ["XY", "XI"], []):
            with pytest.raises(ValueError):
                covered_codes(settings)

    def test_table_counts_full_coverage(self):
        # covering all d^2 observables requires every one of the 3^n settings
        for n, expected in ((3, 27), (4, 81)):
            for seed in range(3):
                settings = sample_settings_until(n, 4 ** n, seed)
                assert len(settings) == expected
                assert coverage(settings) == 4 ** n
                assert coverage(settings[:-1]) < 4 ** n

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
                assert sample_settings_until(n, target, seed) \
                    == settings_per_draw(n, target, seed)

    def test_matches_per_draw_loop_n8(self):
        for target in (1000, 4 ** 8):
            assert sample_settings_until(8, target, 3) == settings_per_draw(8, target, 3)

    def test_coverage_is_genuine(self):
        # the drawn settings reach the target and stop at the first that does
        settings = sample_settings_until(3, 40, 12)
        assert coverage(settings) >= 40 > coverage(settings[:-1])
        manual = set()
        for s in settings:
            manual.update(covered_word_loop(s, a) for a in range(8))
        assert len(manual) == coverage(settings)


class TestMeasurementPlan:
    def test_settings_reject_identity_letter(self):
        with pytest.raises(ValueError):
            MeasurementPlan(n=2, mode="settings", words=("XI",))

    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError):
            MeasurementPlan(n=1, mode="observables", words=("X", "X"))

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            MeasurementPlan(n=2, mode="observables", words=())

    @pytest.mark.parametrize("mode, good, bad", [
        ("observables", ("IX", "ZY"), ["XA", "X", "XYZ", "xy", "Iy", "", "X\u00e9"]),
        ("settings", ("XY", "ZZ"), ["XI", "X", "XYZ", "xy", "Zz", "", "Y\u00e9"]),
    ])
    def test_bad_words_named(self, mode, good, bad):
        assert MeasurementPlan(n=2, mode=mode, words=good).words == good
        for word in bad:
            # the first bad word is named, wherever it sits
            words = (good[0], word, "??", good[1])
            with pytest.raises(ValueError, match=rf"invalid {mode} word {word!r}"):
                MeasurementPlan(n=2, mode=mode, words=words)
