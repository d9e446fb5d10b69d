import numpy as np
import pytest
from hypothesis import settings

# Property tests run a fixed example sequence so the suite is reproducible,
# and with no deadline because a loaded machine can stall any one example.
settings.register_profile("repro", deadline=None, derandomize=True, database=None)
settings.load_profile("repro")


@pytest.fixture
def eigensolver_calls(monkeypatch):
    """``(name, size)`` of every numpy.linalg.eigh/eigvalsh call in the test."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _fn=original, **kwargs):
            calls.append((_name, np.shape(a)[-1]))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls
