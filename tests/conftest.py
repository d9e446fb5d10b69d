import numpy as np
import pytest
from hypothesis import settings

# Property tests run a fixed example sequence so the suite is reproducible,
# and with no deadline because a loaded machine can stall any one example.
settings.register_profile("repro", deadline=None, derandomize=True, database=None)
settings.load_profile("repro")


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
    """``(name, size)`` of every numpy.linalg.eigh/eigvalsh call in the test."""
    for name in ("eigh", "eigvalsh"):
        function_calls.watch(np.linalg, name,
                             lambda a, *args, _name=name, **kwargs: (_name, np.shape(a)[-1]))
    return function_calls
