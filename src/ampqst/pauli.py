"""Pauli observables, measurement settings, and the Pauli sensing map.

A Pauli observable is a word over {I, X, Y, Z}; its matrix is the Kronecker
product of the letters, leftmost letter acting on the most significant bit.
Each has exactly ``d`` nonzero entries, one per row: X and Y flip the
qubit's bit between row and column index, I and Z preserve it, and the entry
value is ``i**y_count`` times a sign picked up from Y and Z letters.

Inside the package a word, or a setting (a word over {X, Y, Z}), is its
base-4 code: I=0, X=1, Y=2, Z=3, leftmost letter most significant. Words are
text only at the edges: ``pauli_indices_from_words`` is the one parser (one
byte-table pass, naming the first bad word) and ``pauli_words_from_indices``
the one decoder. The sensing map, the settings cover, settings sampling and
data synthesis all run on codes.

The sensing map for an ordered list of ``M`` Pauli words sends a Hermitian
``X`` to the vector of expectation values ``Tr[P_k X]``. A word whose X/Y bits
are ``x`` and Y/Z bits ``z`` reads ``X[j, j^x]`` with signs ``(-1)**|j & z|``,
so all 4^n expectations are one Walsh-Hadamard product ``H @ G`` of the real
d x 2d ``G[j, (x, re/im)] = X[j, j^x]``, ``H`` the +-1 Sylvester matrix. The
map stores O(d^2 + M) numbers: the d^2 gather from X to G (an involution, used
by the adjoint too), and per word its entry of ``H @ G`` and a +-1 weight. The
sqrt(d/M) rescaling of AMP is applied by the solver, not by the map.

A SensingMap is immutable after construction; applying a shared map from
several threads is safe. Sampling functions take caller-owned seeds or
Generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import as_rng

__all__ = [
    "LETTERS",
    "MAX_QUBITS",
    "SensingMap",
    "MeasurementPlan",
    "pauli_indices_from_words",
    "pauli_words_from_indices",
    "build_sensing_map",
    "sensing_map_from_indices",
    "apply_sensing",
    "apply_adjoint",
    "sample_observables",
    "covered_codes",
    "sample_settings_until",
]

LETTERS = "IXYZ"

# Largest n anything reads or builds: a sensing map holds O(d^2) entries,
# about 0.8 GB at n=12.
MAX_QUBITS = 12

_IMAG_RESIDUE_ATOL = 1e-10


def pauli_indices_from_words(words, n: int, alphabet: str = LETTERS,
                             what: str = "Pauli word") -> np.ndarray:
    """Base-4 codes of length-``n`` words over ``alphabet`` (a subset of
    IXYZ, case-sensitive) in one byte-table pass. Lengths are checked first,
    then letters; the first bad word is named as ``invalid {what} 'w'``."""
    words = tuple(words)
    lengths = np.fromiter(map(len, words), np.int64, len(words))
    bad = (lengths != n) | (lengths == 0)
    if not bad.any():
        table = np.full(256, -1, dtype=np.int64)
        table[list(alphabet.encode("ascii"))] = [LETTERS.index(ch) for ch in alphabet]
        raw = np.frombuffer("".join(words).encode("ascii", "replace"), np.uint8)
        digits = table[raw].reshape(len(words), n)
        bad = (digits < 0).any(axis=1)
    if bad.any():
        raise ValueError(f"invalid {what} {words[int(np.argmax(bad))]!r}")
    return digits @ (4 ** np.arange(n - 1, -1, -1))


def pauli_words_from_indices(indices, n: int) -> list:
    """Words of base-4 codes (0=I, 1=X, 2=Y, 3=Z, leftmost first) in one pass."""
    codes = np.asarray(indices, dtype=np.int64).reshape(-1)
    if n < 1 or codes.size and not (codes.min() >= 0 and codes.max() < 4 ** n):
        raise ValueError("pauli index out of range")
    digits = (codes[:, None] >> 2 * np.arange(n - 1, -1, -1)) & 3
    letters = np.frombuffer(LETTERS.encode("ascii"), np.uint8)[digits]
    return letters.view(f"S{n}").reshape(-1).astype(str).tolist()


# ---------------------------------------------------------------------------
# Sensing map
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SensingMap:
    """Ordered Pauli words (upper case) with the index form of their map.

    ``gather`` (d^2) sends the flat X to ``G[j, x] = X[j, j^x]`` and back;
    word k reads entry ``take[k]`` of the d x 2d product ``H @ G`` (``H`` the
    d x d Sylvester matrix) with sign ``weight[k]``. All arrays are read-only.
    """

    words: tuple
    n: int
    d: int
    M: int
    gather: np.ndarray
    take: np.ndarray
    weight: np.ndarray
    H: np.ndarray


def build_sensing_map(words) -> SensingMap:
    """Assemble a SensingMap from distinct Pauli words (any case)."""
    words = tuple(str(w).upper() for w in words)
    n = len(words[0]) if words else 1
    return _sensing_map(pauli_indices_from_words(words, n), n, words)


def sensing_map_from_indices(indices, n: int) -> SensingMap:
    """Assemble a SensingMap from distinct base-4 codes of n-qubit words."""
    codes = np.asarray(indices, dtype=np.int64).reshape(-1)
    return _sensing_map(codes, n, tuple(pauli_words_from_indices(codes, n)))


def _sensing_map(codes: np.ndarray, n: int, words: tuple) -> SensingMap:
    """The map of ``words``, given as their codes."""
    if not codes.size:
        raise ValueError("need at least one Pauli observable")
    if np.unique(codes).size != codes.size:
        raise ValueError("duplicate Pauli observables in sensing map")
    arrays = _index_form(codes, n)
    for a in arrays:
        a.flags.writeable = False
    return SensingMap(words, n, 1 << n, len(words), *arrays)


def _index_form(codes: np.ndarray, n: int) -> tuple:
    """``(gather, take, weight, H)`` of the map of ``codes``, in one pass."""
    place = np.arange(n - 1, -1, -1)
    digits = (codes[:, None] >> 2 * place) & 3
    flip = ((digits == 1) | (digits == 2)) @ (1 << place)
    phase = (digits >= 2) @ (1 << place)
    y_counts = np.count_nonzero(digits == 2, axis=1)
    d = 1 << n
    rows = np.arange(d, dtype=np.int64)
    gather = (rows[:, None] * d + (rows[:, None] ^ rows)).reshape(-1)
    # Tr[P_k X] = (-1)**(y + y // 2) * (H @ G)[z, 2x + y % 2], y = y_count
    take = phase * (2 * d) + 2 * flip + (y_counts & 1)
    weight = 1.0 - 2.0 * (((y_counts & 1) + (y_counts >> 1)) & 1)
    H = 1.0 - 2.0 * (np.bitwise_count(rows[:, None] & rows) & 1)
    return gather, take, weight, H


def apply_sensing(smap: SensingMap, X: np.ndarray) -> np.ndarray:
    """Apply the map: component k is ``Tr[P_k X]``.

    Rejects a non-finite input, and one whose anti-Hermitian part reaches
    1e-10 times ``max(1, max|X|)``: round-off grows with the entries, which
    on a diverging run reach 1e6 and more.
    """
    return _sense(smap, _hermitian_input(X, smap.d))


def _all_expectations(X: np.ndarray, n: int) -> np.ndarray:
    """``Tr[P X]`` of all 4^n words P in code order, checked as by
    ``apply_sensing``: the map of every code, with no word decoded."""
    gather, take, weight, H = _index_form(np.arange(4 ** n), n)
    G = _hermitian_input(X, 1 << n).reshape(-1)[gather].view(np.float64)
    return (H @ G.reshape(1 << n, 2 << n)).reshape(-1)[take] * weight


def _hermitian_input(X: np.ndarray, d: int) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.complex128)
    if X.shape != (d, d):
        raise ValueError("dimension mismatch between map and matrix")
    if not np.isfinite(X).all():
        raise ValueError("input holds non-finite values")
    bound = _IMAG_RESIDUE_ATOL * max(1.0, float(np.max(np.abs(X))))
    if np.max(np.abs(X - X.conj().T)) >= bound:
        raise ValueError("input is not Hermitian")
    return X


def _sense(smap: SensingMap, X: np.ndarray) -> np.ndarray:
    """``apply_sensing`` unchecked, for iterates Hermitian by construction."""
    G = X.reshape(-1)[smap.gather].view(np.float64).reshape(smap.d, 2 * smap.d)
    return (smap.H @ G).reshape(-1)[smap.take] * smap.weight


def _adjoint(smap: SensingMap, y: np.ndarray) -> np.ndarray:
    """``apply_adjoint`` unchecked, for float64 vectors of length M."""
    C = np.zeros((smap.d, 2 * smap.d))
    C.reshape(-1)[smap.take] = y * smap.weight
    X = (smap.H @ C).view(np.complex128).reshape(-1)
    return X[smap.gather].reshape(smap.d, smap.d)


def _check_data(smap: SensingMap, y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (smap.M,):
        raise ValueError("data vector length does not match the map")
    if not np.isfinite(y).all():
        raise ValueError("data vector holds non-finite values")
    return y


def apply_adjoint(smap: SensingMap, y: np.ndarray) -> np.ndarray:
    """Adjoint map ``sum_k y_k P_k``, exactly Hermitian."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (smap.M,):
        raise ValueError("dimension mismatch between map and data vector")
    return _adjoint(smap, y)


def sample_observables(n: int, M: int, seed) -> list:
    """Sample M distinct Pauli words uniformly (without replacement)."""
    d2 = 4 ** n
    if not 1 <= M <= d2:
        raise ValueError(f"need 1 <= M <= {d2}, got {M}")
    rng = as_rng(seed)
    idx = rng.choice(d2, size=M, replace=False)
    return pauli_words_from_indices(idx, n)


# ---------------------------------------------------------------------------
# Measurement settings
# ---------------------------------------------------------------------------

def _cover_masks(n: int) -> np.ndarray:
    """Entry a keeps the letters of a code where bit a of the mask is 1
    (leftmost letter most significant): ``code & masks[a]``."""
    place = np.arange(n - 1, -1, -1)
    return ((np.arange(1 << n)[:, None] >> place) & 1) @ (3 << 2 * place)


def covered_codes(settings) -> np.ndarray:
    """Base-4 codes of the Pauli words that settings (words over XYZ, any
    case) cover: entry ``[k, a]`` keeps the letters of ``settings[k]`` where
    bit a of the mask is 1 and writes I elsewhere."""
    settings = tuple(str(s).upper() for s in settings)
    if not settings:
        raise ValueError("need at least one measurement setting")
    n = len(settings[0])
    codes = pauli_indices_from_words(settings, n, "XYZ", "measurement setting")
    return codes[:, None] & _cover_masks(n)


def sample_settings_until(n: int, target_M: int, seed):
    """Draw settings uniformly without replacement until the union of their
    covered observables reaches ``target_M``; return the drawn setting
    words in order (their count is the circuit count T). Permutation entry
    i is the setting whose base-3 digits (0=X, 1=Y, 2=Z, leftmost first)
    spell i; its covered codes are those of ``covered_codes``."""
    d2 = 4 ** n
    if n < 1 or not 1 <= target_M <= d2:
        raise ValueError(f"need n >= 1 and 1 <= target_M <= {d2}, got {target_M}")
    rng = as_rng(seed)
    place = np.arange(n - 1, -1, -1)
    digits = rng.permutation(3 ** n)[:, None] // 3 ** place % 3 + 1   # X=1, Y=2, Z=3
    settings = digits @ (4 ** place)
    masks = _cover_masks(n)
    covered = np.zeros(d2, dtype=bool)
    total = 0
    for k, setting in enumerate(settings):
        codes = setting & masks
        total += int(np.count_nonzero(~covered[codes]))
        covered[codes] = True
        if total >= target_M:
            break
    return pauli_words_from_indices(settings[:k + 1], n)


# ---------------------------------------------------------------------------
# Measurement plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementPlan:
    """An ordered measurement plan: Pauli words or setting words."""

    n: int
    mode: str  # "observables" | "settings"
    words: tuple

    def __post_init__(self):
        if self.mode not in ("observables", "settings"):
            raise ValueError(f"unknown plan mode {self.mode!r}")
        if not self.words:
            raise ValueError("empty measurement plan")
        alphabet = LETTERS if self.mode == "observables" else "XYZ"
        codes = pauli_indices_from_words(self.words, self.n, alphabet,
                                         f"{self.mode} word")
        if np.unique(codes).size != codes.size:
            raise ValueError("duplicate words in measurement plan")
