"""Pauli observables, measurement settings, and the Pauli sensing map.

A Pauli observable is a word over {I, X, Y, Z}; its matrix is the Kronecker
product of the letters, leftmost letter acting on the most significant bit.
Each has exactly ``d`` nonzero entries, one per row: X and Y flip the
qubit's bit between row and column index, I and Z preserve it, and the entry
value is ``i**y_count`` times a sign picked up from Y and Z letters.

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
    "SensingMap",
    "MeasurementPlan",
    "pauli_word_from_index",
    "pauli_words_from_indices",
    "pauli_index_from_word",
    "build_sensing_map",
    "apply_sensing",
    "apply_adjoint",
    "sample_observables",
    "check_setting",
    "covered_word",
    "covered_words",
    "covered_codes",
    "sample_settings_until",
]

LETTERS = "IXYZ"

_IMAG_RESIDUE_ATOL = 1e-10


def _pauli_batch(words):
    """``(words, flip, phase, y_count)`` of equal-length words in one pass:
    the upper-cased words as a tuple, their X/Y bits, Y/Z bits and number
    of Y letters."""
    words = tuple(str(w).upper() for w in words)
    if not words:
        raise ValueError("need at least one Pauli observable")
    bad = [w for w in words if not w or w.strip(LETTERS) or len(w) != len(words[0])]
    if bad:
        raise ValueError(f"invalid Pauli word {bad[0]!r} (or words of unequal length)")
    n = len(words[0])
    raw = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
    digits = np.searchsorted(np.frombuffer(b"IXYZ", np.uint8), raw).reshape(-1, n)
    weights = 1 << np.arange(n - 1, -1, -1)
    flip = ((digits == 1) | (digits == 2)) @ weights
    phase = (digits >= 2) @ weights
    y_count = np.count_nonzero(digits == 2, axis=1)
    return words, flip, phase, y_count


def pauli_words_from_indices(indices, n: int) -> list:
    """Words of base-4 codes (0=I, 1=X, 2=Y, 3=Z, leftmost first) in one pass."""
    codes = np.asarray(indices, dtype=np.int64).reshape(-1)
    if n < 1 or codes.size and not (codes.min() >= 0 and codes.max() < 4 ** n):
        raise ValueError("pauli index out of range")
    digits = (codes[:, None] >> 2 * np.arange(n - 1, -1, -1)) & 3
    letters = np.frombuffer(b"IXYZ", np.uint8)[digits]
    return letters.view(f"S{n}").reshape(-1).astype(str).tolist()


def pauli_word_from_index(index: int, n: int) -> str:
    """Word for one base-4 code: the one-code case of the batch decoder."""
    return pauli_words_from_indices([index], n)[0]


def pauli_index_from_word(word: str) -> int:
    idx = 0
    for ch in word:
        idx = (idx << 2) | LETTERS.index(ch)
    return idx


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
    """Assemble a SensingMap from distinct Pauli words (any case), indexed
    in one pass."""
    words, flip, phase, y_counts = _pauli_batch(words)
    if len(set(words)) != len(words):
        raise ValueError("duplicate Pauli observables in sensing map")
    n = len(words[0])
    d = 1 << n
    rows = np.arange(d, dtype=np.int64)
    gather = (rows[:, None] * d + (rows[:, None] ^ rows)).reshape(-1)
    # Tr[P_k X] = (-1)**(y + y // 2) * (H @ G)[z, 2x + y % 2], y = y_count
    take = phase * (2 * d) + 2 * flip + (y_counts & 1)
    weight = 1.0 - 2.0 * (((y_counts & 1) + (y_counts >> 1)) & 1)
    H = 1.0 - 2.0 * (np.bitwise_count(rows[:, None] & rows) & 1)
    for a in (gather, take, weight, H):
        a.flags.writeable = False
    return SensingMap(words=words, n=n, d=d, M=len(words), gather=gather,
                      take=take, weight=weight, H=H)


def apply_sensing(smap: SensingMap, X: np.ndarray) -> np.ndarray:
    """Apply the map: component k is ``Tr[P_k X]``.

    Rejects an input whose anti-Hermitian part reaches 1e-10 times
    ``max(1, max|X|)``: round-off grows with the entries, which on a
    diverging run reach 1e6 and more.
    """
    X = np.ascontiguousarray(X, dtype=np.complex128)
    if X.shape != (smap.d, smap.d):
        raise ValueError("dimension mismatch between map and matrix")
    bound = _IMAG_RESIDUE_ATOL * max(1.0, float(np.max(np.abs(X))))
    if np.max(np.abs(X - X.conj().T)) >= bound:
        raise ValueError("input is not Hermitian")
    G = X.reshape(-1)[smap.gather].view(np.float64).reshape(smap.d, 2 * smap.d)
    return (smap.H @ G).reshape(-1)[smap.take] * smap.weight


def apply_adjoint(smap: SensingMap, y: np.ndarray) -> np.ndarray:
    """Adjoint map ``sum_k y_k P_k``, exactly Hermitian."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (smap.M,):
        raise ValueError("dimension mismatch between map and data vector")
    C = np.zeros((smap.d, 2 * smap.d))
    C.reshape(-1)[smap.take] = y * smap.weight
    X = (smap.H @ C).view(np.complex128).reshape(-1)
    return X[smap.gather].reshape(smap.d, smap.d)


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

def check_setting(word: str) -> str:
    """Validate a measurement setting: a nonempty word over {X, Y, Z}."""
    word = str(word).upper()
    if not word or any(ch not in "XYZ" for ch in word):
        raise ValueError(f"invalid measurement setting {word!r}")
    return word


def covered_word(setting: str, mask: int) -> str:
    """Pauli word obtained from a setting by keeping letters where the mask
    bit is 1 (leftmost letter is the most significant bit) and writing I
    elsewhere."""
    n = len(setting)
    return "".join(setting[j] if (mask >> (n - 1 - j)) & 1 else "I"
                   for j in range(n))


def covered_words(setting: str) -> list:
    """All 2^n Pauli words estimable from one setting, mask order 0, 1, ..."""
    setting = check_setting(setting)
    return [covered_word(setting, a) for a in range(1 << len(setting))]


def covered_codes(settings) -> np.ndarray:
    """Base-4 codes (``pauli_index_from_word``) of the words settings cover:
    entry ``[k, a]`` is the code of ``covered_word(settings[k], a)``."""
    settings = [check_setting(s) for s in settings]
    if len({len(s) for s in settings}) != 1:
        raise ValueError("need settings of one length")
    n = len(settings[0])
    raw = np.frombuffer("".join(settings).encode("ascii"), dtype=np.uint8)
    digits = raw.reshape(-1, n).astype(np.int64) - ord("W")   # X=1, Y=2, Z=3
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return (digits << 2 * np.arange(n - 1, -1, -1)) @ bits.T


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
    order = rng.permutation(3 ** n)
    place = np.arange(n - 1, -1, -1)
    digits = order[:, None] // 3 ** place % 3 + 1          # X=1, Y=2, Z=3
    bits = (np.arange(1 << n)[:, None] >> place) & 1
    covered = np.zeros(d2, dtype=bool)
    total = 0
    for k, word in enumerate(digits << 2 * place):
        codes = bits @ word
        total += int(np.count_nonzero(~covered[codes]))
        covered[codes] = True
        if total >= target_M:
            break
    letters = np.frombuffer(b"XYZ", np.uint8)[digits[:k + 1] - 1]
    return letters.view(f"S{n}").reshape(-1).astype(str).tolist()


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
        # one pass over the joined words: a word is bad if its length is off
        # or it holds a byte outside the mode's (case-sensitive) alphabet
        alphabet = LETTERS if self.mode == "observables" else "XYZ"
        allowed = np.zeros(256, dtype=bool)
        allowed[list(alphabet.encode("ascii"))] = True
        raw = np.frombuffer("".join(self.words).encode("ascii", "replace"), np.uint8)
        lengths = np.fromiter(map(len, self.words), np.int64, len(self.words))
        outside = np.concatenate(([0], np.cumsum(~allowed[raw])))
        ends = np.cumsum(lengths)
        bad = (lengths != self.n) | (outside[ends] > outside[ends - lengths])
        if bad.any():
            word = self.words[int(np.argmax(bad))]
            raise ValueError(f"invalid {self.mode} word {word!r}")
        if len(set(self.words)) != len(self.words):
            raise ValueError("duplicate words in measurement plan")
