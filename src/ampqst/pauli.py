"""Pauli observables, measurement settings, and the Pauli sensing map.

A Pauli observable is a word over {I, X, Y, Z}; its matrix is the Kronecker
product of the letters, leftmost letter acting on the most significant bit.
Each has exactly ``d`` nonzero entries, one per row: X and Y flip the
qubit's bit between row and column index, I and Z preserve it, and the entry
value is ``i**y_count`` times a sign picked up from Y and Z letters.

Inside the package a word, or a setting (a word over {X, Y, Z}), is its
base-4 code: I=0, X=1, Y=2, Z=3, leftmost letter most significant. Maps,
plans and samplers hold codes; words are text only at the SHOTS edge, through
the one parser ``pauli_indices_from_words`` (one byte-table pass, naming the
first bad word) and the one decoder ``pauli_words_from_indices``.

The sensing map for an ordered list of ``M`` Pauli words sends a Hermitian
``X`` to the vector of expectation values ``Tr[P_k X]``. A word whose X/Y bits
are ``x`` and Y/Z bits ``z`` reads ``X[j, j^x]`` with signs ``(-1)**|j & z|``,
so all 4^n expectations are one Walsh-Hadamard product ``H_n @ G`` of the
real d x 2d ``G[j, (x, re/im)] = X[j, j^x]``, ``H_n`` the +-1 Sylvester
matrix. Above n = 5 the product is taken in factored form, H_n = H_4 (x)
H_{n-4}: two small products on G reshaped, (32 + d/8) d^2 multiply-adds
where the one d x d product takes 2 d^3. The map stores O(d^2 + M)
numbers: the d^2 gather from X to G (an involution, used by the adjoint
too), per word its code, its entry of ``H_n @ G`` and a +-1 weight, and the
Sylvester factors, none larger than 32 x 32 or (d/16) x (d/16). AMP's
sqrt(d/M) rescaling is applied by the solver, not by the map.

A SensingMap is immutable after construction; applying a shared map from
several threads is safe. Sampling functions take caller-owned seeds or
Generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import as_rng, check_hermitian

__all__ = [
    "LETTERS",
    "MAX_QUBITS",
    "SensingMap",
    "MeasurementPlan",
    "pauli_indices_from_words",
    "pauli_words_from_indices",
    "sensing_map_from_indices",
    "apply_sensing",
    "apply_adjoint",
    "sample_observables",
    "covered_codes",
    "sample_settings_until",
]

LETTERS = "IXYZ"

# Largest n anything reads or builds: a sensing map holds O(d^2 + M) entries;
# the map of all 4^n words (codes, take, weight and gather, 8 bytes each) is
# about 0.54 GB at n=12.
MAX_QUBITS = 12


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


def _check_qubits(n: int) -> None:
    """Bound n before anything sized 2^n is allocated."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubits must lie in [1, {MAX_QUBITS}]")


def _check_codes(codes, n: int, settings: bool = False) -> np.ndarray:
    """A read-only int64 copy of the codes of n-qubit words, or of settings
    (words with no I letter). Rejects no codes, codes that are not integers
    in [0, 4^n), and n outside [1, MAX_QUBITS]."""
    _check_qubits(n)
    codes = np.array(codes).reshape(-1)
    if not codes.size:
        raise ValueError("need at least one word")
    if codes.dtype.kind not in "iu":
        raise ValueError("pauli codes must be integers")
    if codes.min() < 0 or codes.max() >= 4 ** n:
        raise ValueError("pauli index out of range")
    codes = codes.astype(np.int64, copy=False)
    low = (4 ** n - 1) // 3                     # the low bit of every letter
    if settings and np.any(((codes | codes >> 1) & low) != low):
        raise ValueError("measurement setting holds an I letter")
    codes.flags.writeable = False
    return codes


# ---------------------------------------------------------------------------
# Sensing map
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SensingMap:
    """Distinct Pauli words in order, as codes, with their map's index form.

    ``gather`` (d^2) sends the flat X to ``G[j, x] = X[j, j^x]`` and back;
    word k reads entry ``take[k]`` of the d x 2d product ``H_n @ G`` with sign
    ``weight[k]``. ``factors`` holds the Sylvester matrices whose Kronecker
    product is ``H_n``: ``(H_n,)`` up to n = 5, where the one product is the
    faster, and ``(H_4, H_{n-4})`` above. All arrays are read-only.
    """

    codes: np.ndarray
    n: int
    d: int
    M: int
    gather: np.ndarray
    take: np.ndarray
    weight: np.ndarray
    factors: tuple


def sensing_map_from_indices(codes, n: int) -> SensingMap:
    """Assemble the SensingMap of distinct base-4 codes of n-qubit words."""
    codes = _check_codes(codes, n)
    if np.unique(codes).size != codes.size:
        raise ValueError("duplicate Pauli observables in sensing map")
    return SensingMap(codes, n, 1 << n, codes.size, *_index_form(codes, n))


# Up to this n the one d x d Sylvester product beats the two factored ones.
_DENSE_MAX_QUBITS = 5
_TOP_QUBITS = 4           # qubits of the leading factor H_4 above it


def _sylvester(n: int) -> np.ndarray:
    """The 2^n x 2^n +-1 matrix ``(-1)**|i & j|``, read-only."""
    rows = np.arange(1 << n)
    H = 1.0 - 2.0 * (np.bitwise_count(rows[:, None] & rows) & 1)
    H.flags.writeable = False
    return H


def _index_form(codes: np.ndarray, n: int) -> tuple:
    """``(gather, take, weight, factors)`` of the map of ``codes``, in one
    pass, all read-only."""
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
    for a in (gather, take, weight):
        a.flags.writeable = False
    top = _TOP_QUBITS if n > _DENSE_MAX_QUBITS else n
    return gather, take, weight, tuple(_sylvester(m) for m in (top, n - top) if m)


def apply_sensing(smap: SensingMap, X: np.ndarray) -> np.ndarray:
    """Apply the map: component k is ``Tr[P_k X]``.

    Rejects a non-finite input, and one whose anti-Hermitian part exceeds
    1e-10 times ``max(1, max|X|)``: round-off grows with the entries, which
    on a diverging run reach 1e6 and more.
    """
    return _sense(smap, _hermitian_input(X, smap.d))


def _all_expectations(X: np.ndarray, n: int) -> np.ndarray:
    """``Tr[P X]`` of all 4^n words P in code order, checked as by
    ``apply_sensing``: ``_sense`` on the map of every code, whose codes are
    distinct and in range by construction, so none is checked or decoded."""
    X, codes = _hermitian_input(X, 1 << n), np.arange(4 ** n)
    return _sense(SensingMap(codes, n, 1 << n, codes.size, *_index_form(codes, n)), X)


def _hermitian_input(X: np.ndarray, d: int) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.complex128)
    if X.shape != (d, d):
        raise ValueError("dimension mismatch between map and matrix")
    # a NaN leaves the bound at 1e-10; check_hermitian refuses it first
    return check_hermitian(X, 1e-10 * max(1.0, float(np.max(np.abs(X)))))


def _walsh_hadamard(factors: tuple, G: np.ndarray) -> np.ndarray:
    """``H_n @ G`` for a d x 2d ``G``, H_n the Kronecker product of ``factors``:
    the low factor on each of G's row blocks, then the top one across them."""
    if len(factors) == 1:
        return factors[0] @ G
    top, low = factors
    blocks = np.matmul(low, G.reshape(len(top), len(low), -1))
    return (top @ blocks.reshape(len(top), -1)).reshape(G.shape)


def _sense(smap: SensingMap, X: np.ndarray) -> np.ndarray:
    """``apply_sensing`` unchecked, for iterates Hermitian by construction."""
    G = X.reshape(-1)[smap.gather].view(np.float64).reshape(smap.d, 2 * smap.d)
    return _walsh_hadamard(smap.factors, G).reshape(-1)[smap.take] * smap.weight


def _adjoint(smap: SensingMap, y: np.ndarray) -> np.ndarray:
    """``apply_adjoint`` unchecked, for float64 vectors of length M."""
    C = np.zeros((smap.d, 2 * smap.d))
    C.reshape(-1)[smap.take] = y * smap.weight
    X = _walsh_hadamard(smap.factors, C).view(np.complex128).reshape(-1)
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
    return _adjoint(smap, _check_data(smap, y))


def sample_observables(n: int, M: int, seed) -> np.ndarray:
    """Codes of M distinct Pauli words drawn uniformly (without replacement)."""
    _check_qubits(n)
    d2 = 4 ** n
    if not 1 <= M <= d2:
        raise ValueError(f"need 1 <= M <= {d2}, got {M}")
    return as_rng(seed).choice(d2, size=M, replace=False)


# ---------------------------------------------------------------------------
# Measurement settings
# ---------------------------------------------------------------------------

def _cover_masks(n: int) -> np.ndarray:
    """Entry a keeps the letters of a code where bit a of the mask is 1
    (leftmost letter most significant): ``code & masks[a]``."""
    place = np.arange(n - 1, -1, -1)
    return ((np.arange(1 << n)[:, None] >> place) & 1) @ (3 << 2 * place)


def covered_codes(codes, n: int) -> np.ndarray:
    """Codes of the Pauli words that n-qubit settings (codes of words over
    XYZ) cover: entry ``[k, a]`` keeps the letters of setting k where bit a
    of the mask is 1 and writes I elsewhere."""
    return np.asarray(codes, dtype=np.int64)[:, None] & _cover_masks(n)


def sample_settings_until(n: int, target_M: int, seed):
    """Draw settings uniformly without replacement until the union of their
    covered observables reaches ``target_M``; return the codes of the drawn
    settings in order (their count is the circuit count T). Permutation entry
    i is the setting whose base-3 digits (0=X, 1=Y, 2=Z, leftmost first)
    spell i; its covered codes are those of ``covered_codes``."""
    _check_qubits(n)
    d2 = 4 ** n
    if not 1 <= target_M <= d2:
        raise ValueError(f"need 1 <= target_M <= {d2}, got {target_M}")
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
    return settings[:k + 1]


# ---------------------------------------------------------------------------
# Measurement plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MeasurementPlan:
    """An ordered measurement plan: read-only codes of distinct words or settings."""

    n: int
    mode: str  # "observables" | "settings"
    codes: np.ndarray

    def __post_init__(self):
        if self.mode not in ("observables", "settings"):
            raise ValueError(f"unknown plan mode {self.mode!r}")
        codes = _check_codes(self.codes, self.n, self.mode == "settings")
        if np.unique(codes).size != codes.size:
            raise ValueError("duplicate codes in measurement plan")
        object.__setattr__(self, "codes", codes)

    @property
    def words(self) -> list:
        """The plan's words as text, decoded on each read."""
        return pauli_words_from_indices(self.codes, self.n)
