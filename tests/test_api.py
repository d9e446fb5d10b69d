"""The package's public surface: what it exports exists, and nothing more."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import ampqst
from ampqst.pauli import SensingMap

MODULES = sorted(m.name for m in pkgutil.iter_modules(ampqst.__path__))

# Names that only tests read; they live in the test files, or are gone.
REMOVED = ["PauliString", "build_pauli", "pauli_expectation", "observables_of_setting",
           "sample_shots_observable", "OutcomeDistribution", "write_plan", "read_plan",
           "spectral_decompose", "SpectralDecomposition"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(f"ampqst.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"ampqst.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_stay_out(name):
    module = importlib.import_module(f"ampqst.{name}")
    assert not [n for n in REMOVED if hasattr(module, n)]


def test_package_imports_resolve():
    tree = ast.parse(Path(ampqst.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ampqst.{node.module}")
        for alias in node.names:
            assert getattr(ampqst, alias.asname or alias.name) \
                is getattr(module, alias.name), alias.name
    assert not [n for n in REMOVED if hasattr(ampqst, n)]


def test_sensing_map_holds_words_and_index_form_only():
    fields = [f.name for f in dataclasses.fields(SensingMap)]
    assert "paulis" not in fields
    assert fields == ["words", "n", "d", "M", "gather", "take", "weight", "H"]
