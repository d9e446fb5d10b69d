"""The package's public surface: what it exports exists, and nothing more."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import ampqst
from ampqst.amp import AmpConfig
from ampqst.cli import ExperimentConfig, build_parser
from ampqst.measure import NoiseModel, ShotRecord, build_measurements
from ampqst.pauli import SensingMap

MODULES = sorted(m.name for m in pkgutil.iter_modules(ampqst.__path__))

# Names that only tests read; they live in the test files, or are gone.
REMOVED = ["PauliString", "build_pauli", "pauli_expectation", "observables_of_setting",
           "sample_shots_observable", "OutcomeDistribution", "write_plan", "read_plan",
           "spectral_decompose", "SpectralDecomposition", "get_denoiser",
           "momentum_schedule", "setting_word_from_index", "noisy_basis_measurement",
           "apply_readout", "_pauli_batch", "check_setting", "pauli_index_from_word",
           "pauli_word_from_index", "covered_word", "covered_words",
           "estimate_from_setting", "_parse_mask"]


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


def test_one_measurement_data_path():
    # simulated data always goes through the record: no knob returns it
    assert "return_record" not in inspect.signature(build_measurements).parameters
    assert [f.name for f in dataclasses.fields(ShotRecord)] == ["plan", "shots", "data"]


def test_noise_model_has_only_settable_channels():
    assert [f.name for f in dataclasses.fields(NoiseModel)] \
        == ["depolarizing_eps", "coherent_theta", "readout_q"]


def test_amp_config_has_no_damping_switch():
    # damping=1 is the undamped run; AMP stops at max_iter or on divergence
    fields = [f.name for f in dataclasses.fields(AmpConfig)]
    assert not {"damping_enabled", "early_stop", "early_stop_tol"} & set(fields)


def test_reconstruct_flags_are_config_plus_one_per_setting():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = [a for a in sub.choices["reconstruct"]._actions if a.dest != "help"]
    settings = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert [a.dest for a in options] == ["config"] + settings
    assert all(len(a.option_strings) == 1 for a in options)
