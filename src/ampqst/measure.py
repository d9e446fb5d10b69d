"""Measurement data on one path: ``simulate`` (plan and state to ShotRecord),
then ``estimate`` (a simulated or SHOTS v1 record to sensing map and data);
also outcome distributions, parity marginalization and noise channels.

Outcome bitstrings index the distribution vector with the leftmost qubit as
the most significant bit, matching the Kronecker ordering used everywhere
else. Qubit indices passed to the channel operations are 1-based (qubit 1 is
the leftmost letter).

All operations are pure functions over immutable inputs. Per-setting draws in
``simulate`` come from independent RNG streams keyed by (seed, setting index),
so settings can be simulated in parallel without changing the results.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .pauli import (
    LETTERS,
    MAX_QUBITS,
    MeasurementPlan,
    apply_sensing,
    build_sensing_map,
    covered_codes,
    pauli_indices_from_words,
    sensing_map_from_indices,
)
from .states import ascii_lines

__all__ = [
    "ShotRecord",
    "NoiseModel",
    "PhotonicNoise",
    "outcome_probabilities",
    "outcome_distribution",
    "parity_estimates",
    "apply_depolarizing",
    "apply_coherent",
    "apply_pauli_flip",
    "apply_loss",
    "apply_composite",
    "rotation_x",
    "overrotation_unitary",
    "simulate",
    "estimate",
    "build_measurements",
    "write_shots",
    "read_shots",
]


# ---------------------------------------------------------------------------
# Outcome probabilities and parity marginals
# ---------------------------------------------------------------------------

def rotation_x(theta: float) -> np.ndarray:
    """Single-qubit X rotation by ``theta``."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """``x @ H`` along the last axis (length 2^n), ``H[a, b] = (-1)**|a & b|``:
    n butterfly passes, exact on integers. ``H @ H = 2^n I``."""
    out = x
    for k in range(x.shape[-1].bit_length() - 1):
        pairs = out.reshape(-1, 2, 1 << k)
        out = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1)
    return out.reshape(x.shape)


def outcome_probabilities(rho: np.ndarray, settings, theta: float = 0.0,
                          q: float = 0.0) -> np.ndarray:
    """Exact probabilities ``(T, 2^n)`` of the outcomes of each setting on
    ``rho``: ``p(b) = 2^-n sum_a (-1)**|a & b| e(a)``, ``e(a)`` the mean parity
    of the bits under mask ``a``, from the 4^n ``Tr[P rho]`` of one sensing-map
    product. An RX(theta) overrotation of the basis change makes an X letter
    read ``cos(theta) X - sin(theta) Y`` and a Y letter ``cos(theta) Y +
    sin(theta) X`` (Z needs no rotation); flipping each bit with probability
    ``q`` scales ``e(a)`` by ``(1 - 2q)**|a|``."""
    codes = covered_codes(settings)
    d = codes.shape[1]
    n = d.bit_length() - 1
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (d, d):
        raise ValueError("dimension mismatch between state and setting")
    if not 0.0 <= q <= 0.5:
        raise ValueError("readout flip probability must lie in [0, 0.5]")
    e = apply_sensing(sensing_map_from_indices(np.arange(4 ** n), n), rho)
    e = e.reshape((4,) * n)
    if theta != 0.0:
        c, s = np.cos(theta), np.sin(theta)     # letter axis in I, X, Y, Z order
        R = np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])
        for axis in range(n):
            e = np.moveaxis(np.tensordot(R, e, axes=(1, axis)), 0, axis)
    e = e.reshape(-1)[codes]
    if q:
        e = e * (1.0 - 2.0 * q) ** np.bitwise_count(np.arange(d))
    return np.clip(_walsh_hadamard(e) / d, 0.0, None)


def outcome_distribution(rho: np.ndarray, setting: str,
                         theta: float = 0.0) -> np.ndarray:
    """Exact probabilities of the 2^n outcomes of measuring ``setting`` on
    ``rho``: the one-setting case of ``outcome_probabilities``."""
    return outcome_probabilities(rho, [setting], theta)[0]


def parity_estimates(freqs: np.ndarray) -> np.ndarray:
    """Parity estimates of a (T, 2^n) array of counts or probabilities:
    ``out[k, a] = sum_b (-1)**|a & b| freqs[k, b] / sum_b freqs[k, b]``, the
    mean of the Pauli that keeps setting k's letters where mask ``a`` has a 1
    (leftmost qubit the most significant bit). One Walsh-Hadamard transform,
    divided by each row's total."""
    freqs = np.asarray(freqs)
    total = freqs.sum(axis=-1, keepdims=True)
    if freqs.ndim != 2 or freqs.shape[1] & (freqs.shape[1] - 1) or np.any(total <= 0):
        raise ValueError("need (T, 2^n) frequencies, no empty outcome distribution")
    return _walsh_hadamard(freqs) / total


# ---------------------------------------------------------------------------
# Noise channels on states
# ---------------------------------------------------------------------------

def apply_depolarizing(rho: np.ndarray, eps: float) -> np.ndarray:
    """(1 - eps) rho + (eps/d) I."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("depolarizing strength must lie in [0, 1]")
    rho = np.asarray(rho, dtype=np.complex128)
    d = rho.shape[0]
    return (1.0 - eps) * rho + (eps / d) * np.eye(d, dtype=np.complex128)


def apply_coherent(rho: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Unitary conjugation C rho C^dagger."""
    rho = np.asarray(rho, dtype=np.complex128)
    C = np.asarray(C, dtype=np.complex128)
    if C.shape != rho.shape:
        raise ValueError("dimension mismatch between state and unitary")
    if np.max(np.abs(C.conj().T @ C - np.eye(C.shape[0]))) > 1e-10:
        raise ValueError("C is not unitary within 1e-10")
    out = C @ rho @ C.conj().T
    return 0.5 * (out + out.conj().T)


def overrotation_unitary(n: int, theta: float) -> np.ndarray:
    """State-preparation perturbation: RX(theta) on every qubit."""
    U = np.array([[1.0]], dtype=np.complex128)
    rx = rotation_x(theta)
    for _ in range(n):
        U = np.kron(U, rx)
    return U


def _check_qubit(i: int, n: int) -> int:
    if not 1 <= i <= n:
        raise ValueError(f"qubit index must satisfy 1 <= i <= {n}, got {i}")
    return i


def apply_pauli_flip(rho: np.ndarray, i: int, kind: str) -> np.ndarray:
    """Bit flip (X_i rho X_i) or phase flip (Z_i rho Z_i) on qubit i (1-based)."""
    rho = np.asarray(rho, dtype=np.complex128)
    d = rho.shape[0]
    n = d.bit_length() - 1
    i = _check_qubit(i, n)
    if kind == "bit":
        t = rho.reshape((2,) * (2 * n))
        t = np.flip(np.flip(t, axis=i - 1), axis=n + i - 1)
        return np.ascontiguousarray(t.reshape(d, d))
    if kind == "phase":
        sign = 1.0 - 2.0 * ((np.arange(d) >> (n - i)) & 1)
        return rho * np.outer(sign, sign)
    raise ValueError(f"flip kind must be 'bit' or 'phase', got {kind!r}")


def apply_loss(rho: np.ndarray, i: int) -> np.ndarray:
    """Photon loss on qubit i: trace out the qubit and replace it with I/2."""
    rho = np.asarray(rho, dtype=np.complex128)
    d = rho.shape[0]
    n = d.bit_length() - 1
    i = _check_qubit(i, n)
    t = rho.reshape((2,) * (2 * n))
    # bring qubit i's row and column axes to the front
    perm = [i - 1] + [ax for ax in range(n) if ax != i - 1] \
        + [n + i - 1] + [ax for ax in range(n, 2 * n) if ax != n + i - 1]
    blocks = t.transpose(perm).reshape(2, d // 2, 2, d // 2)
    ptrace = blocks[0, :, 0, :] + blocks[1, :, 1, :]
    out = np.zeros_like(blocks)
    out[0, :, 0, :] = 0.5 * ptrace
    out[1, :, 1, :] = 0.5 * ptrace
    inv = np.argsort(perm)
    return np.ascontiguousarray(
        out.reshape((2,) * (2 * n)).transpose(inv).reshape(d, d))


@dataclass(frozen=True)
class PhotonicNoise:
    """Convex mixture weights: identity p0 plus per-qubit (bit, phase, loss)."""

    p0: float
    triples: tuple  # n entries (p_i, q_i, r_i)

    def __post_init__(self):
        trip = tuple(tuple(float(x) for x in t) for t in self.triples)
        object.__setattr__(self, "triples", trip)
        weights = [self.p0] + [x for t in trip for x in t]
        if any(len(t) != 3 for t in trip):
            raise ValueError("each qubit needs a (bit, phase, loss) triple")
        if any(w < 0 for w in weights):
            raise ValueError("channel weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-10:
            raise ValueError("channel weights must sum to 1 within 1e-10")

    @property
    def n(self) -> int:
        return len(self.triples)


def apply_composite(rho: np.ndarray, model: PhotonicNoise) -> np.ndarray:
    """p0 rho + sum_i (p_i bitflip_i + q_i phaseflip_i + r_i loss_i)."""
    rho = np.asarray(rho, dtype=np.complex128)
    n = rho.shape[0].bit_length() - 1
    if model.n != n:
        raise ValueError("noise model qubit count does not match the state")
    out = model.p0 * rho
    for i, (p, q, r) in enumerate(model.triples, start=1):
        if p:
            out = out + p * apply_pauli_flip(rho, i, "bit")
        if q:
            out = out + q * apply_pauli_flip(rho, i, "phase")
        if r:
            out = out + r * apply_loss(rho, i)
    return out


@dataclass(frozen=True)
class NoiseModel:
    """Channel-level noise configuration.

    ``depolarizing_eps`` acts on the prepared state;
    ``coherent_theta`` perturbs state preparation and every X/Y basis change
    at measurement; ``readout_q`` flips each measured bit independently.
    """

    depolarizing_eps: float = 0.0
    coherent_theta: float = 0.0
    readout_q: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.depolarizing_eps <= 1.0:
            raise ValueError("depolarizing_eps must lie in [0, 1]")
        if not 0.0 <= self.readout_q <= 0.5:
            raise ValueError("readout_q must lie in [0, 0.5]")
        if not abs(self.coherent_theta) < np.inf:
            raise ValueError("coherent_theta must be finite")

    @property
    def measurement_side(self) -> bool:
        return self.coherent_theta != 0.0 or self.readout_q != 0.0


# ---------------------------------------------------------------------------
# Plan-driven data synthesis
# ---------------------------------------------------------------------------

def _setting_seed(seed, index: int) -> np.random.Generator:
    if isinstance(seed, (tuple, list)):
        entropy = tuple(int(s) for s in seed) + (index,)
    else:
        entropy = (int(seed), index)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def simulate(rho: np.ndarray, plan: MeasurementPlan, shots: int | None,
             noise: NoiseModel | None = None, seed=0) -> ShotRecord:
    """The record a device would give for a measurement plan on a state.

    Observable mode draws the M binomials, one per Pauli with success
    probability ``(Tr[P_k rho] + 1) / 2``, as one vector draw from the stream
    of index 0 (no measurement-side noise is representable there): the record
    holds sample means. Setting mode takes all outcome probabilities, with
    the coherent/readout noise of ``noise``, from one inverse Walsh-Hadamard
    transform of the map's expectations (``outcome_probabilities``, no
    per-setting gate), then draws one multinomial of ``shots`` outcomes per
    setting from the stream of its index: the record holds counts.
    ``shots=None`` means infinite shots: exact means, or probabilities.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    d = 1 << plan.n
    if rho.shape != (d, d):
        raise ValueError("state dimension does not match the plan")
    if shots is not None and shots < 1:
        raise ValueError("shot count must be at least 1 (or None for infinite)")

    if plan.mode == "observables":
        if noise is not None and noise.measurement_side:
            raise ValueError("coherent/readout noise needs a settings-mode plan")
        y = apply_sensing(build_sensing_map(plan.words), rho)
        if shots is not None:
            p = (y + 1.0) / 2.0
            ok = (p >= -1e-10) & (p <= 1.0 + 1e-10)
            if not ok.all():
                raise ValueError(f"outcome probability {p[~ok][0]} outside [0, 1]; "
                                 "corrupted state")
            p = np.clip(p, 0.0, 1.0)
            y = 2.0 * _setting_seed(seed, 0).binomial(shots, p) / shots - 1.0
        return ShotRecord(plan, shots, y)

    theta, q = (noise.coherent_theta, noise.readout_q) if noise else (0.0, 0.0)
    freqs = outcome_probabilities(rho, plan.words, theta, q)
    if shots is not None:
        freqs = np.array([_setting_seed(seed, k).multinomial(shots, p / p.sum())
                          for k, p in enumerate(freqs)])
    return ShotRecord(plan, shots, freqs)


def estimate(record: ShotRecord):
    """``(SensingMap, y)`` of a simulated or read record.

    Observable mode gives the map of the plan's words and a copy of the
    means. Setting mode extracts every covered Pauli of every setting by
    parity marginalization, all at once; observables covered by several
    settings are averaged with equal weight, in order of first appearance.
    ``y`` holds raw sample means of ``Tr[P_k rho]`` in the units of the raw
    map; the sqrt(d/M) rescaling is AMP's and happens inside the solver.
    """
    plan, data = record.plan, record.data
    if plan.mode == "observables":
        return build_sensing_map(plan.words), data.copy()
    codes = covered_codes(plan.words).reshape(-1)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    group = np.argsort(np.argsort(first))[inverse]      # words by first appearance
    y = np.bincount(group, parity_estimates(data).reshape(-1)) / np.bincount(group)
    return sensing_map_from_indices(codes[np.sort(first)], plan.n), y


def build_measurements(rho: np.ndarray, plan: MeasurementPlan,
                       shots: int | None, noise: NoiseModel | None = None,
                       seed=0):
    """Simulate a measurement plan on a state and assemble (SensingMap, y):
    ``estimate(simulate(rho, plan, shots, noise, seed))``."""
    return estimate(simulate(rho, plan, shots, noise, seed))


# ---------------------------------------------------------------------------
# SHOTS v1 text format
# ---------------------------------------------------------------------------

_MEAN_BOUND = 1.0 + 1e-12     # |sample mean| up to round-off


@dataclass(frozen=True)
class ShotRecord:
    """Measured data of a plan, one read-only row per word: sample means
    ``(M,)`` (observables mode) or outcome counts ``(T, 2^n)`` summing to
    ``shots`` (settings mode); at ``shots=None``, exact means or outcome
    probabilities."""

    plan: MeasurementPlan
    shots: int | None      # None = infinite
    data: np.ndarray

    def __post_init__(self):
        plan, exact = self.plan, self.plan.mode == "observables" or self.shots is None
        data = np.array(self.data, dtype=np.float64 if exact else None)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        shape = (len(plan.words),) + ((1 << plan.n,) if plan.mode == "settings" else ())
        if data.shape != shape:
            raise ValueError(f"{plan.mode} record needs data of shape {shape}")
        if plan.mode == "observables":
            ok = np.all(np.abs(data) <= _MEAN_BOUND)
            why = "sample means must lie in [-1, 1]"
        elif exact:
            ok = np.all((data >= 0) & (data < np.inf)) and np.all(data.sum(axis=1) > 0)
            why = "probabilities must be finite and nonnegative with positive rows"
        else:
            ok = data.dtype.kind in "iu" and np.all(data >= 0) \
                and np.all(data.sum(axis=1) == self.shots)
            why = "counts must be nonnegative integers summing to N"
        if not ok:
            raise ValueError(why)


def write_shots(path, record: ShotRecord) -> None:
    """Write a record as SHOTS v1: one line per word, the sample mean with 17
    significant digits or the setting's nonzero counts."""
    plan = record.plan
    if plan.mode == "settings" and record.shots is None:
        raise ValueError("SHOTS v1 holds counts; exact probabilities (N=inf) have none")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"SHOTS v1 n={plan.n} N={record.shots or 'inf'} mode={plan.mode}\n")
        if plan.mode == "observables":
            for w, v in zip(plan.words, record.data):
                fh.write(f"{w} {v:.17g}\n")
        else:
            for w, counts in zip(plan.words, record.data):
                parts = [f"{b:0{plan.n}b}:{int(c)}" for b, c in enumerate(counts) if c]
                fh.write(w + " " + " ".join(parts) + "\n")


_SHOTS_HEADER = re.compile(
    r"SHOTS v1 n=([1-9][0-9]*) N=([1-9][0-9]*|inf) mode=(observables|settings)")


def _count(text: str, what: str, lineno: int) -> int:
    """A decimal count that fits an int64, its length checked before int()."""
    if len(text) > 19 or int(text) > np.iinfo(np.int64).max:
        raise ValueError(f"SHOTS v1: {what} beyond int64 at line {lineno}")
    return int(text)


def read_shots(path) -> ShotRecord:
    """Read a SHOTS v1 file; a malformed line raises ValueError naming it."""
    lines = ascii_lines(path, lambda k: f"SHOTS v1: non-ASCII byte at line {k}")
    header = _SHOTS_HEADER.fullmatch(" ".join(lines[0].split()) if lines else "")
    if header is None:
        raise ValueError("SHOTS v1: malformed header at line 1")
    # n is bounded before any row is allocated
    if len(header[1]) > 2 or int(header[1]) > MAX_QUBITS:
        raise ValueError(f"SHOTS v1: n beyond {MAX_QUBITS} at line 1")
    n, mode = int(header[1]), header[3]
    shots = None if header[2] == "inf" else _count(header[2], "N", 1)
    if shots is None and mode == "settings":
        raise ValueError("SHOTS v1: settings counts need a finite N at line 1")
    alphabet = LETTERS if mode == "observables" else "XYZ"
    item = re.compile(f"([01]{{{n}}}):([0-9]+)")
    rows = {}                                   # word -> mean or counts, in order
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        word, fields = parts[0], parts[1:]
        try:
            pauli_indices_from_words([word], n, alphabet, f"{mode} word")
        except ValueError as err:
            raise ValueError(f"SHOTS v1: {err} at line {lineno}") from None
        if word in rows:
            raise ValueError(f"SHOTS v1: repeated {mode} word {word!r} at line {lineno}")
        if mode == "observables":
            try:
                (text,) = fields
                rows[word] = float(text)
            except ValueError:
                raise ValueError(
                    f"SHOTS v1: malformed value at line {lineno}") from None
            if not abs(rows[word]) <= _MEAN_BOUND:
                raise ValueError(f"SHOTS v1: sample mean outside [-1, 1] "
                                 f"at line {lineno}")
            continue
        matches = [item.fullmatch(f) for f in fields]
        if not matches or not all(matches):
            raise ValueError(f"SHOTS v1: malformed count at line {lineno}")
        counts = {int(m[1], 2): _count(m[2], "count", lineno) for m in matches}
        if len(counts) != len(matches):
            raise ValueError(f"SHOTS v1: repeated outcome at line {lineno}")
        if sum(counts.values()) != shots:
            raise ValueError(f"SHOTS v1: counts do not sum to N at line {lineno}")
        rows[word] = np.zeros(1 << n, dtype=np.int64)
        rows[word][list(counts)] = list(counts.values())
    if not rows:
        raise ValueError(f"SHOTS v1: no data at line {len(lines) + 1}")
    return ShotRecord(MeasurementPlan(n, mode, tuple(rows)), shots,
                      list(rows.values()))
