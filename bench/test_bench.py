"""Tests of the benchmark's tracer: self-time arithmetic, counts, restore.

Run from the root of the repository: ``python3 -m pytest bench -q``.
"""

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import scipy.linalg  # noqa: E402,F401  (the tracer wraps its eigensolvers)

import ampqst  # noqa: E402
from ampqst import amp, cli, measure, mifgd, pauli, states  # noqa: E402,F401  (all layers loaded)
from tracer import Tracer, function_table, layer_metrics, self_times  # noqa: E402
from workloads import separates_ghz_sign  # noqa: E402


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; [4, 8] has child [5, 6]
    spans = [[0, 0.0, 10.0, -1], [1, 1.0, 3.0, 0], [1, 4.0, 8.0, 0],
             [2, 5.0, 6.0, 2]]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    # children [2, 6] and [4, 12] overlap and the second outlasts the parent
    spans = [[0, 0.0, 10.0, -1], [1, 2.0, 6.0, 0], [1, 4.0, 12.0, 0]]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_self_time_of_leaf_is_its_duration():
    assert self_times([[0, 1.5, 4.0, -1]]) == pytest.approx([2.5])


def _bindings():
    """Every function bound in an ampqst namespace or an eigensolver module."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "ampqst" or name.startswith("ampqst.") or name in (
                "numpy.linalg", "scipy.linalg"):
            for attr, obj in vars(module).items():
                if callable(obj):
                    out[(name, attr)] = obj
    assert scipy.linalg.eigh is out[("scipy.linalg", "eigh")]
    return out


def test_restore_puts_back_every_original():
    before = _bindings()
    with Tracer():
        # re-exports and from-imports are replaced by the same wrapper
        assert amp.apply_sensing is pauli.apply_sensing
        assert ampqst.run_amp is amp.run_amp
        assert np.linalg.eigh is not before[("numpy.linalg", "eigh")]
        assert amp.apply_sensing is not before[("ampqst.pauli", "apply_sensing")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_restore_after_an_exception():
    before = _bindings()
    with pytest.raises(ValueError):
        with Tracer():
            states.nmse(np.zeros((2, 2)), np.zeros((2, 2)))
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_missing_function_is_recorded_absent(monkeypatch):
    monkeypatch.delattr(amp, "estimate_onsager")
    with Tracer() as tracer:
        states.nmse(np.eye(2) / 2, np.eye(2) / 2)
    assert "amp.estimate_onsager" in tracer.absent
    metrics = layer_metrics(tracer)
    assert metrics["amp.onsager.calls"] == 0
    assert metrics["amp.onsager.s"] == 0


def test_counts_split_eigensolver_calls_by_caller():
    # run_amp
    #   amp_step -> psvt -> numpy eigh        (denoiser: amp)
    #            -> estimate_onsager -> psvt -> numpy eigh   (probe: amp)
    #   state_fidelity -> numpy eigvalsh      (truth metric: states)
    # state_fidelity -> scipy eigh            (final metric: states)
    tracer = SimpleNamespace(names=[
        "amp.run_amp", "amp.amp_step", "amp.psvt", "numpy.linalg.eigh",
        "amp.estimate_onsager", "states.state_fidelity",
        "numpy.linalg.eigvalsh", "scipy.linalg.eigh"], absent=[])
    tracer.spans = [
        [0, 0.0, 10.0, -1], [1, 0.5, 6.0, 0], [2, 1.0, 2.0, 1],
        [3, 1.2, 1.8, 2], [4, 2.5, 5.0, 1], [2, 3.0, 4.0, 4],
        [3, 3.1, 3.9, 5], [5, 7.0, 9.0, 0], [6, 7.5, 8.0, 7],
        [5, 11.0, 12.0, -1], [7, 11.2, 11.6, 9]]
    metrics = layer_metrics(tracer)
    assert metrics["amp.eigh.calls"] == 2
    assert metrics["states.eigh.calls"] == 2
    assert metrics["amp.denoise.calls"] == 1
    assert metrics["amp.denoise.s"] == pytest.approx(1.0)
    assert metrics["amp.onsager.calls"] == 1
    assert metrics["amp.onsager.s"] == pytest.approx(2.5)
    assert metrics["amp.run_amp.s"] == pytest.approx(10.0)
    assert metrics["states.truth.s"] == pytest.approx(3.0)
    # amp_step lasts 5.5 s, of which its denoiser and probe cover 3.5 s
    assert metrics["amp.step.self_s"] == pytest.approx(2.0)
    table = function_table(tracer)
    assert table["amp.psvt"] == pytest.approx({"calls": 2, "s": 2.0, "self_s": 0.6})


def test_traced_library_calls_are_counted():
    with Tracer() as tracer:
        states.state_fidelity(np.eye(2) / 2, np.eye(2) / 2)
    metrics = layer_metrics(tracer)
    assert metrics["states.state_fidelity.calls"] == 1
    assert metrics["states.eigh.calls"] > 0
    assert metrics["amp.eigh.calls"] == 0


def test_ghz_sign_is_fixed_only_by_the_words_the_two_states_disagree_on():
    n = 3
    plus = np.zeros(2 ** n)
    plus[0] = plus[-1] = 2 ** -0.5
    minus = plus.copy()
    minus[-1] *= -1
    paulis = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
              "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
    words = [a + b + c for a in "IXYZ" for b in "IXYZ" for c in "IXYZ"]
    for word in words:
        op = paulis[word[0]]
        for ch in word[1:]:
            op = np.kron(op, paulis[ch])
        differ = not np.isclose(plus @ op @ plus, minus @ op @ minus)
        assert separates_ghz_sign([word]) == differ, word
    assert separates_ghz_sign(["XXY", "ZZZ", "XYZ", "XXX"])
    assert not separates_ghz_sign(["XXY", "ZZZ", "XYZ", "YYY"])
