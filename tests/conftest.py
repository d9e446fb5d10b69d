import numpy as np
import pytest
from hypothesis import settings

from ampqst.pauli import (
    MeasurementPlan,
    pauli_indices_from_words,
    pauli_words_from_indices,
    sensing_map_from_indices,
)

# Property tests run a fixed example sequence so the suite is reproducible,
# and with no deadline because a loaded machine can stall any one example.
settings.register_profile("repro", deadline=None, derandomize=True, database=None)
settings.load_profile("repro")


def codes_of(words, n=None):
    """Base-4 codes of words given as text, through the one parser; n is the
    first word's length unless given."""
    words = list(words)
    return pauli_indices_from_words(words, len(words[0]) if n is None else n)


def map_of(words):
    """The sensing map of Pauli words given as text."""
    words = list(words)
    return sensing_map_from_indices(codes_of(words), len(words[0]))


def plan_of(n, mode, words):
    """A measurement plan of n-qubit words given as text."""
    return MeasurementPlan(n, mode, codes_of(words, n))


def numerical_rank(H, tol=1e-9):
    """Number of eigenvalues of the Hermitian ``H`` exceeding ``tol``."""
    return int(np.count_nonzero(np.linalg.eigvalsh(np.asarray(H, np.complex128)) > tol))


def words_of(held):
    """The words of a sensing map or plan, decoded from its codes."""
    return pauli_words_from_indices(held.codes, held.n)


class CallLog(list):
    """What the functions wrapped by ``watch`` recorded, one entry per call."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch = monkeypatch

    def watch(self, owner, name, entry=None):
        """Wrap ``owner.name`` for the rest of the test: each call appends
        ``entry(*args, **kwargs)`` (the name by default), then runs the
        original. Wrap the binding the caller looks up at call time."""
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.append(name if entry is None else entry(*args, **kwargs))
            return original(*args, **kwargs)
        self._monkeypatch.setattr(owner, name, counted)


@pytest.fixture
def function_calls(monkeypatch):
    """A CallLog: ``function_calls.watch(module, "name")`` counts its calls."""
    return CallLog(monkeypatch)


@pytest.fixture
def eigensolver_calls(function_calls):
    """``(name, shape)`` of every numpy.linalg.eigh/eigvalsh call in the
    test; a stacked call shows its stack in the shape."""
    for name in ("eigh", "eigvalsh"):
        function_calls.watch(np.linalg, name,
                             lambda a, *args, _name=name, **kwargs: (_name, np.shape(a)))
    return function_calls
