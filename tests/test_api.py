"""The package's public surface: what it exports exists, and nothing more."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import ampqst
from ampqst.amp import AmpConfig, run_amp
from ampqst.cli import ExperimentConfig, build_parser
from ampqst.measure import NoiseModel, ShotRecord, build_measurements
from ampqst.mifgd import MifgdConfig, run_mifgd
from ampqst.pauli import MeasurementPlan, SensingMap
from ampqst.states import DensityFactor, make_random_state

MODULES = sorted(m.name for m in pkgutil.iter_modules(ampqst.__path__))

# Names that only tests read; they live in the test files, or are gone.
REMOVED = ["PauliString", "build_pauli", "pauli_expectation", "observables_of_setting",
           "sample_shots_observable", "OutcomeDistribution", "write_plan", "read_plan",
           "spectral_decompose", "SpectralDecomposition", "get_denoiser",
           "momentum_schedule", "setting_word_from_index", "noisy_basis_measurement",
           "apply_readout", "_pauli_batch", "check_setting", "pauli_index_from_word",
           "pauli_word_from_index", "covered_word", "covered_words",
           "estimate_from_setting", "_parse_mask", "estimate_onsager", "hermitian_probe",
           "build_sensing_map", "outcome_distribution", "prepare_state", "_noise_for",
           "DivergenceError", "numerical_rank"]


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


def mentions(name):
    """Where the package's source names ``name`` (a call, an attribute, an
    import): ``module.function``, nested functions joined by dots."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            scope += "." + node.name
        elif name in (getattr(node, key, None) for key in ("id", "attr", "name")):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(Path(ampqst.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_one_stream_rule():
    # every Generator comes from as_rng; the solvers' int seeds from _seed_int
    assert mentions("default_rng") == ["states.as_rng"]
    assert mentions("SeedSequence") == ["cli._seed_int"]


@pytest.mark.parametrize("solver", ["eigh", "eigvalsh", "cholesky", "qr"])
def test_one_home_for_eigensolvers(solver):
    # every eigendecomposition of the package is a spectral rule of states,
    # and so are the factorizations of psvt's kept-pair search
    assert mentions(solver)
    assert all(scope.startswith("states.") for scope in mentions(solver))


def test_one_home_for_threads():
    # the package makes no thread: no module names a thread pool or a thread
    for name in ("ThreadPoolExecutor", "threading", "Thread"):
        assert not mentions(name), name


def test_amp_loop_does_only_amp():
    # judging an iterate against a truth belongs to AmpTrace, not the loop
    loop = ("amp.amp_step", "amp.run_amp", "states.spectral_denoise")
    for name in ("gram_fidelities", "as_density", "nmse", "factor_density",
                 "DensityFactor"):
        assert not [s for s in mentions(name) if s.startswith(loop)], name


def test_solvers_report_iterations_not_traces():
    # both solvers return (rho_hat, iterations, diverged); a blow-up is a result
    assert "ground_truth" not in inspect.signature(run_amp).parameters
    plan = MeasurementPlan(2, "observables", np.arange(16))
    smap, y = build_measurements(make_random_state(2, 1, 0), plan, shots=None)
    for solver, config in [(run_amp, AmpConfig(max_iter=3)),
                           (run_mifgd, MifgdConfig(max_iter=3, rank_budget=1))]:
        rho_hat, iterations, diverged = solver(smap, y, config)
        assert rho_hat.shape == (4, 4)
        assert (iterations, diverged) == (3, False)


def test_sensing_map_holds_codes_and_index_form_only():
    fields = [f.name for f in dataclasses.fields(SensingMap)]
    assert "paulis" not in fields
    assert fields == ["codes", "n", "d", "M", "gather", "take", "weight", "factors"]


def test_measurement_plan_holds_codes_only():
    # words are spelt on read by a property, not stored
    fields = [f.name for f in dataclasses.fields(MeasurementPlan)]
    assert fields == ["n", "mode", "codes"]


def test_density_factor_holds_the_checked_matrix_and_its_factor():
    assert [f.name for f in dataclasses.fields(DensityFactor)] == ["rho", "factor"]


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


def test_amp_config_takes_one_probe_per_step():
    assert "mc_samples" not in [f.name for f in dataclasses.fields(AmpConfig)]


def test_reconstruct_flags_are_config_plus_one_per_setting():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = [a for a in sub.choices["reconstruct"]._actions if a.dest != "help"]
    settings = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert [a.dest for a in options] == ["config"] + settings
    assert all(len(a.option_strings) == 1 for a in options)
