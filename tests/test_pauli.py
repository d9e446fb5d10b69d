import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ampqst.pauli import (
    MeasurementPlan,
    apply_adjoint,
    apply_sensing,
    build_pauli,
    build_sensing_map,
    covered_codes,
    covered_words,
    observables_of_setting,
    pauli_expectation,
    pauli_index_from_word,
    pauli_word_from_index,
    pauli_words_from_indices,
    read_plan,
    sample_observables,
    sample_settings_until,
    write_plan,
)
from ampqst.states import make_named_state, make_random_state, pure_density

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



class TestBuildPauli:
    def test_y_integer_row(self):
        p = build_pauli("Y")
        assert p.y_count == 1
        row = np.zeros(4)
        row[p.cols] = p.signs
        assert np.array_equal(row, [0, -1, 1, 0])

    def test_identity_row(self):
        p = build_pauli("I")
        dense = np.zeros(4, dtype=complex)
        dense[p.cols] = p.values
        assert np.array_equal(dense, [1, 0, 0, 1])

    def test_zz_diagonal_signs(self):
        p = build_pauli("ZZ")
        assert len(p.cols) == 4
        dense = np.zeros(16, dtype=complex)
        dense[p.cols] = p.values
        assert np.array_equal(dense.reshape(4, 4), np.diag([1, -1, -1, 1]))

    def test_matches_kron_oracle(self):
        for word in ["X", "Z", "XY", "YY", "IZX", "XYZ", "YIYX"]:
            assert np.allclose(build_pauli(word).dense(), kron_pauli(word)), word

    def test_sparse_row_is_vec_dagger(self):
        for word in ["Y", "XZ", "YX"]:
            p = build_pauli(word)
            vec_dag = kron_pauli(word).conj().reshape(-1)
            row = np.zeros(vec_dag.size, dtype=complex)
            row[p.cols] = p.values
            assert np.allclose(row, vec_dag)

    def test_invalid_letter(self):
        with pytest.raises(ValueError):
            build_pauli("XQ")

    def test_row_structure_invariants(self):
        # d nonzeros, unit modulus, integer after the i^y twist (up to n=4)
        for n in range(1, 5):
            for word in all_words(n):
                p = build_pauli(word)
                assert len(p.cols) == 1 << n
                assert len(np.unique(p.cols)) == 1 << n
                assert np.allclose(np.abs(p.values), 1.0)
                twisted = (1j ** p.y_count) * p.values
                assert np.max(np.abs(twisted.imag)) < 1e-15
                assert np.all(np.isin(np.round(twisted.real), (-1, 1)))

    def test_word_index_round_trip(self):
        for idx in range(64):
            word = pauli_word_from_index(idx, 3)
            assert pauli_index_from_word(word) == idx

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, 4 ** n - 1), max_size=40))))
    def test_batch_decode_matches_per_index_loop(self, case):
        n, codes = case
        expected = [word_from_index_loop(c, n) for c in codes]
        assert pauli_words_from_indices(np.array(codes, dtype=np.int64), n) == expected
        assert [pauli_word_from_index(c, n) for c in codes] == expected

    def test_decode_rejects_out_of_range(self):
        for codes, n in (([16], 2), ([-1], 2), ([3, 64], 3), ([0], 0)):
            with pytest.raises(ValueError, match="out of range"):
                pauli_words_from_indices(codes, n)


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
        for k, p in enumerate(smap.paulis):
            expected = kron_pauli(p.letters).conj().reshape(-1)
            row = A[k, 0::2] - 1j * A[k, 1::2]
            assert np.array_equal(row, expected), p.letters

    def test_memory_contract(self):
        # O(d^2 + M) numbers: no array of the map has M*d entries
        n, M = 4, 200
        smap = build_sensing_map(sample_observables(n, M, 0))
        d = smap.d
        arrays = [v for v in vars(smap).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.size < M * d for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 8 * (2 * d * d + 2 * M)
        assert all(not a.flags.writeable for a in arrays)

    def test_paulis_view_one_row_array(self):
        # the M rows are stored once: every PauliString views the same
        # read-only batch arrays, and a PauliString passed in is rebuilt
        smap = build_sensing_map([build_pauli("XZY"), "yyi", "IIZ"])
        assert [p.letters for p in smap.paulis] == ["XZY", "YYI", "IIZ"]
        cols, signs = smap.paulis[0].cols.base, smap.paulis[0].signs.base
        assert cols.shape == signs.shape == (3, 8)
        for p in smap.paulis:
            assert p.cols.base is cols and p.signs.base is signs
            assert not p.cols.flags.writeable and not p.signs.flags.writeable
            assert np.array_equal(p.dense(), kron_pauli(p.letters))

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

    def test_pauli_expectation_matches_apply(self):
        rng = np.random.default_rng(3)
        rho = make_random_state(2, 3, rng)
        smap = build_sensing_map(["XY", "ZZ", "IX"])
        y = apply_sensing(smap, rho)
        for k, p in enumerate(smap.paulis):
            assert abs(pauli_expectation(p, rho) - y[k]) < 1e-12

    def test_compositions_match_dense_oracle(self):
        # forward-adjoint compositions against the dense matrix of the map
        rng = np.random.default_rng(9)
        for n in (1, 2):
            d = 1 << n
            smap = build_sensing_map(sample_observables(n, 3 ** n, rng))
            B = np.vstack([kron_pauli(p.letters).conj().reshape(-1)
                           for p in smap.paulis])
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
        dense = [np.trace(kron_pauli(p.letters) @ Xh).real for p in smap.paulis]
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
        got = {p.letters for p in sample_observables(1, 4, 0)}
        assert got == {"I", "X", "Y", "Z"}

    def test_two_qubit_full(self):
        got = {p.letters for p in sample_observables(2, 16, 1)}
        assert got == set(all_words(2))

    def test_no_replacement(self):
        got = [p.letters for p in sample_observables(2, 8, 5)]
        assert len(set(got)) == 8

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            sample_observables(1, 5, 0)

    def test_deterministic(self):
        a = [p.letters for p in sample_observables(3, 10, 7)]
        b = [p.letters for p in sample_observables(3, 10, 7)]
        assert a == b


class TestSettings:
    def test_xy_setting_observables(self):
        got = {p.letters for p in observables_of_setting("XY")}
        assert got == {"II", "XI", "IY", "XY"}

    def test_z_setting(self):
        got = {p.letters for p in observables_of_setting("Z")}
        assert got == {"I", "Z"}

    def test_set_size(self):
        for s in ("XYZ", "ZZZ", "YXY"):
            assert len(observables_of_setting(s)) == 8

    def test_identity_in_every_intersection(self):
        a = observables_of_setting("XY")
        b = observables_of_setting("ZZ")
        assert build_pauli("II") in (a & b)

    def test_covered_word_order(self):
        assert covered_words("XY") == ["II", "IY", "XI", "XY"]

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.text("XYZ", min_size=n, max_size=n), min_size=1, max_size=6)))
    def test_covered_codes_match_covered_words(self, settings):
        codes = covered_codes(settings)
        n = len(settings[0])
        assert codes.shape == (len(settings), 1 << n)
        for k, setting in enumerate(settings):
            assert [pauli_word_from_index(int(c), n) for c in codes[k]] \
                == covered_words(setting)

    def test_covered_codes_reject_mixed_settings(self):
        for settings in (["XY", "XYZ"], ["XY", "XI"], []):
            with pytest.raises(ValueError):
                covered_codes(settings)

    def test_table_counts_full_coverage(self):
        # covering all d^2 observables requires every one of the 3^n settings
        for n, expected in ((3, 27), (4, 81)):
            for seed in range(3):
                _, obs, T = sample_settings_until(n, 4 ** n, seed)
                assert T == expected
                assert len(obs) == 4 ** n

    def test_quarter_coverage_mean(self):
        counts = [sample_settings_until(3, 16, s)[2] for s in range(100)]
        assert 2.0 <= np.mean(counts) <= 4.0

    def test_target_too_large(self):
        with pytest.raises(ValueError):
            sample_settings_until(2, 17, 0)

    def test_coverage_is_genuine(self):
        settings, obs, T = sample_settings_until(3, 40, 12)
        assert len(obs) >= 40 and T == len(settings)
        manual = set()
        for s in settings:
            manual.update(covered_words(s))
        assert manual == obs


class TestPlanFormat:
    def test_round_trip_observables(self, tmp_path):
        plan = MeasurementPlan(n=2, mode="observables", words=("XX", "IZ", "YY"))
        path = tmp_path / "plan.txt"
        write_plan(path, plan)
        assert read_plan(path) == plan
        assert path.read_text().splitlines()[0] == "PLAN v1 n=2 mode=observables"

    def test_round_trip_settings(self, tmp_path):
        plan = MeasurementPlan(n=3, mode="settings", words=("XYZ", "ZZZ"))
        path = tmp_path / "plan.txt"
        write_plan(path, plan)
        assert read_plan(path) == plan

    def test_settings_reject_identity_letter(self):
        with pytest.raises(ValueError):
            MeasurementPlan(n=2, mode="settings", words=("XI",))

    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError):
            MeasurementPlan(n=1, mode="observables", words=("X", "X"))

    @given(st.integers(1, 3), st.sampled_from(["observables", "settings"]),
           st.data())
    def test_round_trip_random_plans(self, tmp_path_factory, n, mode, data):
        alphabet = "IXYZ" if mode == "observables" else "XYZ"
        words = data.draw(st.lists(st.text(alphabet, min_size=n, max_size=n),
                                   min_size=1, max_size=8, unique=True))
        plan = MeasurementPlan(n=n, mode=mode, words=tuple(words))
        path = tmp_path_factory.mktemp("plan") / "plan.txt"
        write_plan(path, plan)
        assert read_plan(path) == plan

    @pytest.mark.parametrize("text, line", [
        ("PLAN v1 n=x mode=observables\nXX\n", 1),
        ("PLAN v1 n=2 mode=pairs\nXX\n", 1),
        ("PLAN v2 n=2 mode=observables\nXX\n", 1),
        ("PLAN v1 n=2\nXX\n", 1),
        ("", 1),
        ("PLAN v1 n=2 mode=observables\nXX\nQQ\n", 3),
        ("PLAN v1 n=2 mode=observables\nXX\n\nQQ\n", 4),   # blank line counts
        ("PLAN v1 n=2 mode=observables\nXXX\n", 2),        # word too long
        ("PLAN v1 n=2 mode=observables\nXX YY\n", 2),      # two fields
        ("PLAN v1 n=2 mode=settings\nXY\nXI\n", 3),        # I in a setting
        ("PLAN v1 n=2 mode=settings\nXY\nZZ\nXY\n", 4),   # repeated word
    ])
    def test_malformed_names_the_line(self, tmp_path, text, line):
        path = tmp_path / "plan.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}"):
            read_plan(path)

    def test_header_only_is_an_empty_plan(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("PLAN v1 n=2 mode=observables\n")
        with pytest.raises(ValueError, match="empty"):
            read_plan(path)
