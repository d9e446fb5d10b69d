import csv
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import ampqst
from ampqst.cli import (
    ExperimentConfig,
    _experiment_from,
    _suffixed,
    build_parser,
    build_target_state,
    cmd_noise_study,
    cmd_reconstruct,
    cmd_settings_table,
    load_config_file,
    main,
    parse_noise,
    parse_shots,
    run_trial,
    settings_budget,
    write_trace_csv,
)
from ampqst import measure
from ampqst.amp import AmpConfig
from ampqst.measure import NoiseModel, outcome_probabilities
from ampqst.mifgd import MifgdConfig
from ampqst.pauli import (MAX_QUBITS, apply_sensing, sample_observables,
                          sample_settings_until, sensing_map_from_indices)
from ampqst.states import make_random_state, read_density


def fast_cfg(**kw):
    base = dict(state="ghz", qubits=2, observables=16, shots=None,
                algorithm="amp", max_iter=300, trials=1, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigParsing:
    def test_parse_shots(self):
        assert parse_shots("inf") is None
        assert parse_shots("1024") == 1024
        with pytest.raises(ValueError):
            parse_shots("0")

    def test_parse_noise(self):
        nm = parse_noise("depolarizing=0.01,readout=0.02")
        assert nm.depolarizing_eps == 0.01
        assert nm.readout_q == 0.02
        with pytest.raises(ValueError):
            parse_noise("fancy=1")

    def test_no_noise_is_the_empty_model(self):
        # one spelling of "no noise", the default of the setting and its parser
        assert ExperimentConfig().noise == NoiseModel()
        assert parse_noise("") == NoiseModel()
        assert parse_noise("  ") == NoiseModel()

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "state = w\n"
            "qubits=3\n"
            "observables=20   # inline comment\n"
            "shots=inf\n"
            "trials=2\n")
        vals = load_config_file(path)
        assert vals["state"] == "w"
        assert vals["qubits"] == 3
        assert vals["trials"] == 2

    def test_config_file_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("state=ghz\nwhatkey=3\n")
        with pytest.raises(ValueError, match="bad.cfg:2"):
            load_config_file(path)
        path.write_text("state ghz\n")
        with pytest.raises(ValueError, match="bad.cfg:1"):
            load_config_file(path)

    def test_fraction_reaches_every_whole_budget(self):
        # M / 4^n is exact, so --fraction names any budget M in [1, 4^n]
        for n in range(1, 6):
            for M in range(1, 4 ** n + 1):
                fraction = float(repr(M / 4 ** n))
                assert settings_budget(n, fraction) == M, (n, M)

    def test_settings_target_is_an_unknown_key(self, tmp_path):
        # --fraction sets the settings budget M = round(f 4^n) for every M
        path = tmp_path / "old.cfg"
        path.write_text("qubits=3\nsettings_target=30\n")
        with pytest.raises(ValueError, match="old.cfg:2: unknown key 'settings_target'"):
            load_config_file(path)

    def test_config_file_non_ascii_byte_names_the_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"qubits=3\nstate=w\xe9\n")
        with pytest.raises(ValueError, match="bad.cfg:2: non-ASCII byte"):
            load_config_file(path)

    def test_flags_override_file(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        out = tmp_path / "res.csv"
        path.write_text("state=ghz\nqubits=2\nobservables=16\nshots=inf\n"
                        "max_iter=50\ntrials=1\n")
        rc = main(["reconstruct", "--config", str(path), "--qubits", "2",
                   "--state", "hadamard", "--out", str(out), "--seed", "3"])
        assert rc == 0
        assert "hadamard" in out.read_text()

    def test_validation_messages(self):
        cfg = fast_cfg(state="random", rank=0)
        cfg.rank = 2
        cfg.state = "ghz"
        with pytest.raises(ValueError, match="rank"):
            cfg.validate()
        cfg = fast_cfg(observables=None)
        with pytest.raises(ValueError, match="exactly one"):
            cfg.validate()
        cfg = fast_cfg(fraction=1.5, observables=None)
        with pytest.raises(ValueError, match="fraction"):
            cfg.validate()

    @pytest.mark.parametrize("knob, why", [
        (dict(alpha=-1.0), "alpha"), (dict(damping=0.0), "damping"),
        (dict(max_iter=0), "max_iter"), (dict(algorithm="mifgd", eta=0.0), "step size")])
    def test_solver_knobs_checked_before_any_trial(self, knob, why):
        # the solver's own config checks run in validate, not in trial 0
        with pytest.raises(ValueError, match=why):
            ExperimentConfig(observables=4, **knob).validate()

    def test_rank_budget_checked_against_the_dimension(self, tmp_path, capsys):
        # refused in validate: before, trial 0 simulated its data and then
        # failed inside run_mifgd
        out = tmp_path / "r.csv"
        assert main(["reconstruct", "--algorithm", "mifgd", "--qubits", "2",
                     "--observables", "10", "--rank-budget", "5",
                     "--out", str(out)]) == 2
        assert "rank budget 5 exceeds dimension 4" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match="rank budget 5 exceeds dimension 4"):
            ExperimentConfig(algorithm="mifgd", qubits=2, observables=10,
                             rank_budget=5).validate()
        ExperimentConfig(algorithm="mifgd", qubits=2, observables=10,
                         rank_budget=4).validate()
        ExperimentConfig(qubits=2, observables=10, rank_budget=5).validate()


# one value per setting, unlike its default, as a file value or flag text
SETTING_TEXT = {
    "state": "W", "qubits": "4", "rank": "2", "seed": "7", "observables": "20",
    "fraction": "0.5", "shots": "inf",
    "algorithm": "MiFGD", "alpha": "1.5", "damping": "1", "max_iter": "50",
    "denoiser": "SVT", "normalize": "false", "eta": "0.01", "mu": "0",
    "rank_budget": "2", "rel_tol": "1e-3", "noise": "readout=0.02,depolarizing=0.01",
    "trials": "3", "out": "r.csv", "trace": "t.csv", "workers": "2", "timing": "true",
}


def experiment(argv, file_values=None):
    args = build_parser().parse_args(["reconstruct", *argv])
    return _experiment_from(args, file_values or {})


class TestOneDeclaration:
    def test_every_setting_has_a_sample(self):
        assert set(SETTING_TEXT) == {f.name for f in fields(ExperimentConfig)}

    @pytest.mark.parametrize("algorithm, kind, knobs", [
        ("amp", AmpConfig, dict(alpha=1.5, damping=1.0, denoiser="svt", normalize=False)),
        ("mifgd", MifgdConfig, dict(eta=0.01, mu=0.0, rank_budget=2, rel_tol=1e-3))])
    def test_solver_knobs_are_settings(self, algorithm, kind, knobs):
        # each solver knob is the setting of its name, with the solver's default
        assert set(knobs) == {f.name for f in fields(kind)} - {"max_iter", "seed"}
        defaults = ExperimentConfig(algorithm=algorithm)
        assert defaults.solver_max_iter() == kind.max_iter
        assert defaults.solver_config(seed=7) == kind(seed=7)
        tuned = ExperimentConfig(algorithm=algorithm, max_iter=9, **knobs)
        assert tuned.solver_config(seed=7) == kind(max_iter=9, seed=7, **knobs)

    @pytest.mark.parametrize("field", fields(ExperimentConfig), ids=lambda f: f.name)
    def test_flag_and_file_line_agree(self, field, tmp_path):
        text, flag = SETTING_TEXT[field.name], "--" + field.name.replace("_", "-")
        if isinstance(field.default, bool):   # a bool flag takes no value
            argv = [flag.replace("--", "--no-") if field.default else flag]
        else:
            argv = [flag, text]
        path = tmp_path / "one.cfg"
        path.write_text(f"{field.name}={text}\n")
        from_flag = experiment(argv)
        assert from_flag == experiment([], load_config_file(path))
        assert from_flag != ExperimentConfig()

    def test_shots_inf_overrides_file(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("shots=512\n")
        assert experiment([], load_config_file(path)).shots == 512
        assert experiment(["--shots", "inf"], load_config_file(path)).shots is None
        path.write_text("shots=inf\n")
        assert load_config_file(path) == {"shots": None}
        assert experiment(["--shots", "inf"]).shots is None

    @pytest.mark.parametrize("line", ["shots=0", "noise=fancy=1", "denoiser=hard",
                                      "state=foo", "alpha=nan", "rel_tol=inf",
                                      "noise=coherent=nan"])
    def test_bad_file_values_name_their_line(self, line, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# header\nqubits=3\n{line}\n")
        key = line.partition("=")[0]
        with pytest.raises(ValueError, match=rf"bad.cfg:3: bad value .* for {key}: "):
            load_config_file(path)

    def test_bad_flag_value_keeps_the_reason(self, capsys):
        with pytest.raises(SystemExit):
            main(["reconstruct", "--shots", "0"])
        assert "shots must be positive" in capsys.readouterr().err

    def test_choices_ignore_case(self):
        cfg = experiment(["--state", "GHZ", "--algorithm", "MiFGD", "--denoiser", "SVT"])
        assert (cfg.state, cfg.algorithm, cfg.denoiser) == ("ghz", "mifgd", "svt")
        args = build_parser().parse_args(["dump-state", "--state", "W", "--qubits",
                                          "2", "--out", "w.dmat"])
        assert args.state == "w"


@pytest.mark.parametrize("path, expected", [
    ("runs.v2/trace", "runs.v2/trace.trial0"),
    ("a/b.c/trace.csv", "a/b.c/trace.trial0.csv"),
    ("trace.csv", "trace.trial0.csv"),
    ("trace", "trace.trial0"),
])
def test_trial_suffix_goes_on_the_file_name(path, expected):
    assert _suffixed(path, ".trial0") == expected


# an observables plan, and a settings plan with measurement-side noise
PLANS = [pytest.param({}, id="observables"),
         pytest.param({"observables": None, "fraction": 0.75,
                       "noise": parse_noise("readout=0.03,coherent=0.05")}, id="settings")]


class TestReconstruct:
    def test_exact_recovery_small(self, tmp_path):
        cfg = fast_cfg(max_iter=2000, out=str(tmp_path / "r.csv"))
        results = cmd_reconstruct(cfg)
        assert len(results) == 1
        assert results[0].nmse < 1e-8
        assert results[0].fidelity_truth > 1 - 1e-8

    def test_csv_columns_and_ranges(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = fast_cfg(shots=256, trials=3, max_iter=200, out=str(out))
        cmd_reconstruct(cfg)
        lines = out.read_text().splitlines()
        assert lines[0] == ("trial,state,n,M,T,N,algorithm,nmse,"
                            "fidelity_truth,fidelity_target,iters,seconds")
        assert len(lines) == 4
        for line in lines[1:]:
            parts = line.split(",")
            assert 0.0 <= float(parts[8]) <= 1.0
            assert 0.0 <= float(parts[9]) <= 1.0
            assert float(parts[7]) >= 0.0
            assert parts[11] == ""  # timing off by default

    def test_trace_csv_export(self, tmp_path):
        trace = run_trial(fast_cfg(shots=128, max_iter=10), 0, want_trace=True).trace
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,sigma,tau,onsager,residual_norm,nmse,fidelity"
        assert len(lines) == 11

    @pytest.mark.parametrize("plan", PLANS)
    def test_byte_identical_reruns(self, tmp_path, plan):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            cfg = fast_cfg(shots=128, trials=2, max_iter=150, seed=7,
                           out=str(out), **plan)
            cmd_reconstruct(cfg)
        assert out1.read_bytes() == out2.read_bytes()

    def test_mifgd_path(self, tmp_path):
        cfg = fast_cfg(algorithm="mifgd", rank_budget=1, mu=0.0,
                       max_iter=2000, out=str(tmp_path / "m.csv"))
        results = cmd_reconstruct(cfg)
        assert results[0].fidelity_truth > 0.99

    def test_settings_fraction_mode_counts(self):
        cfg = fast_cfg(state="ghz", qubits=3, observables=None, fraction=0.75,
                       shots=1024, max_iter=60, trials=3, seed=1)
        results = [run_trial(cfg, t) for t in range(3)]
        for r in results:
            # covering 48 of 64 observables takes about 14 settings
            assert 10 <= r.T <= 20
            assert r.M >= 48

    def test_trace_export(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        cfg = fast_cfg(shots=128, max_iter=50, trace=str(trace_path))
        cmd_reconstruct(cfg)
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 51
        assert lines[0].startswith("t,sigma,tau,onsager")

    def test_trace_files_per_trial(self, tmp_path):
        cfg = fast_cfg(shots=128, max_iter=30, trials=2,
                       trace=str(tmp_path / "trace.csv"))
        cmd_reconstruct(cfg)
        assert (tmp_path / "trace.trial0.csv").exists()
        assert (tmp_path / "trace.trial1.csv").exists()

    @pytest.mark.parametrize("plan", PLANS)
    def test_worker_pool_matches_sequential(self, tmp_path, plan):
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        cmd_reconstruct(fast_cfg(shots=64, trials=2, max_iter=80, seed=5,
                                 out=str(seq), **plan))
        cmd_reconstruct(fast_cfg(shots=64, trials=2, max_iter=80, seed=5,
                                 out=str(par), workers=2, **plan))
        assert seq.read_bytes() == par.read_bytes()

    def test_worker_pool_matches_sequential_at_n7(self, tmp_path):
        # d = 128: the workers run psvt's warm-started kept-pair search
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        for out, workers in ((seq, 1), (par, 2)):
            cmd_reconstruct(ExperimentConfig(
                state="random", qubits=7, rank=2, observables=4000, shots=1024,
                max_iter=8, trials=2, seed=3, workers=workers, out=str(out)))
        assert seq.read_bytes() == par.read_bytes()

    def test_byte_identical_across_blas_thread_counts_at_n5(self, tmp_path):
        # every product and decomposition at d = 32 gives the same bits with
        # one BLAS thread or two; from d = 128 on they need not (README)
        src = str(Path(ampqst.__file__).resolve().parents[1])
        outs = [tmp_path / f"threads{n}.csv" for n in (1, 2)]
        for out, threads in zip(outs, (1, 2)):
            argv = ["reconstruct", "--state", "random", "--qubits", "5", "--rank", "3",
                    "--observables", "384", "--max-iter", "300", "--trials", "2",
                    "--seed", "3", "--out", str(out)]
            code = (f"import sys; sys.path.insert(0, {src!r}); "
                    f"from ampqst.cli import main; sys.exit(main({argv!r}))")
            env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_infidelity_one_on_divergence(self, tmp_path):
        cfg = fast_cfg(qubits=3, observables=32, shots=256, normalize=False,
                       denoiser="svt", damping=1.0, max_iter=300,
                       out=str(tmp_path / "d.csv"))
        results = cmd_reconstruct(cfg)
        assert results[0].fidelity_truth == 0.0
        assert results[0].fidelity_target == 0.0

    def test_only_a_traced_amp_trial_keeps_a_trace(self):
        cfg = fast_cfg(qubits=3, observables=32, max_iter=10)
        for kw, want_trace in [({}, False), (dict(algorithm="mifgd"), False),
                               (dict(algorithm="mifgd"), True)]:
            assert run_trial(replace(cfg, **kw), 0, want_trace).trace is None
        assert len(run_trial(cfg, 0, want_trace=True).trace) == 10

    def test_diverging_traced_trial_counts_its_trace(self):
        cfg = fast_cfg(qubits=3, observables=32, shots=256, normalize=False,
                       denoiser="svt", damping=1.0, max_iter=300)
        result = run_trial(cfg, 0, want_trace=True)
        assert result.fidelity_truth == 0.0
        assert result.trace.diverged
        assert 0 < result.iters == len(result.trace) < cfg.max_iter

    def test_trace_is_refused_without_amp(self, tmp_path, capsys):
        # MiFGD keeps no trace, so --trace is refused before any trial runs
        out, trace = tmp_path / "r.csv", tmp_path / "t.csv"
        rc = main(["reconstruct", "--algorithm", "mifgd", "--qubits", "3",
                   "--observables", "30", "--trace", str(trace), "--out", str(out)])
        assert rc == 2
        assert "--trace applies only to --algorithm amp" in capsys.readouterr().err
        assert not out.exists() and not trace.exists()

    def test_eigensolver_counts(self, eigensolver_calls):
        # 2-D 32 x 32 eigensolver calls of one trial: the target is factored
        # (and checked) by one eigh, the prepared state only when depolarized
        # (full rank, so its final fidelity takes a 32 x 32 gram), AMP's
        # denoiser takes one eigh per iteration, and the estimate is checked
        # once by eigvalsh
        cfg = ExperimentConfig(state="random", qubits=5, rank=3, observables=384,
                               max_iter=10)
        for kw, want_trace, eigh, eigvalsh in [
                ({}, False, 11, 1), ({}, True, 11, 1),
                (dict(noise=NoiseModel(depolarizing_eps=0.01)), True, 12, 2),
                (dict(algorithm="mifgd"), False, 2, 0)]:
            eigensolver_calls.clear()
            run_trial(replace(cfg, **kw), 0, want_trace)
            counts = [eigensolver_calls.count((name, (32, 32)))
                      for name in ("eigh", "eigvalsh")]
            assert counts == [eigh, eigvalsh], kw

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mifgd_divergence_prints_no_warnings(self, tmp_path):
        # the finiteness check reports the blow-up; numpy's overflow warnings
        # on the way there would only repeat it on stderr
        out = tmp_path / "r.csv"
        assert main(["reconstruct", "--state", "random", "--qubits", "3", "--rank", "2",
                     "--observables", "32", "--algorithm", "mifgd", "--eta", "5",
                     "--trials", "2", "--out", str(out)]) == 0
        with out.open() as f:
            rows = list(csv.DictReader(f))
        assert [r["nmse"] for r in rows] == ["1.9590341022980964", "1.8513103992153022"]
        assert [r["iters"] for r in rows] == ["4", "4"]   # updates completed

    def test_mifgd_divergence_reports_its_iteration(self):
        cfg = fast_cfg(qubits=3, observables=32, algorithm="mifgd", eta=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_trial(cfg, 0)
        assert result.fidelity_truth == 0.0
        assert 0 < result.iters < cfg.solver_max_iter()


class TestStreamKeys:
    """Each stream is ``np.random.default_rng`` of its key tuple: (seed, trial,
    role) with role 0 for the state and 1 for the plan, (seed, trial, 2, k)
    for setting k's draw, and (seed, n, fraction index, t) for settings-table
    trial t. Reruns and worker pools cannot see a self-consistent change of
    keys; these pins can."""

    SEED, TRIAL = 7, 4

    def keyed(self, *keys):
        return np.random.default_rng((self.SEED, *keys))

    def records(self, cfg, monkeypatch):
        """The ShotRecords that trial TRIAL of ``cfg`` simulates."""
        out, original = [], measure.simulate

        def simulate(*args, **kwargs):
            out.append(original(*args, **kwargs))
            return out[-1]
        monkeypatch.setattr(measure, "simulate", simulate)
        run_trial(cfg, self.TRIAL)
        return out

    def test_random_target(self):
        cfg = fast_cfg(state="random", qubits=3, rank=2, seed=self.SEED)
        assert np.array_equal(build_target_state(cfg, self.TRIAL), make_random_state(
            3, 2, self.keyed(self.TRIAL, 0)))

    def test_observables_plan_and_binomial(self, monkeypatch):
        cfg = fast_cfg(qubits=3, observables=20, shots=100, max_iter=1, seed=self.SEED)
        (record,) = self.records(cfg, monkeypatch)
        codes = sample_observables(3, 20, self.keyed(self.TRIAL, 1))
        assert np.array_equal(record.plan.codes, codes)
        means = apply_sensing(sensing_map_from_indices(codes, 3),
                              build_target_state(cfg, self.TRIAL))
        p = np.clip((means + 1.0) / 2.0, 0.0, 1.0)
        draws = self.keyed(self.TRIAL, 2, 0).binomial(100, p)
        assert np.array_equal(record.data, 2.0 * draws / 100 - 1.0)

    def test_settings_plan_and_multinomials(self, monkeypatch):
        cfg = fast_cfg(qubits=3, observables=None, fraction=0.5, shots=100,
                       noise=parse_noise("readout=0.03"), max_iter=1, seed=self.SEED)
        (record,) = self.records(cfg, monkeypatch)
        codes = sample_settings_until(3, settings_budget(3, 0.5),
                                      self.keyed(self.TRIAL, 1))
        assert np.array_equal(record.plan.codes, codes)
        probs = outcome_probabilities(build_target_state(cfg, self.TRIAL), codes,
                                      q=0.03)
        for k, p in enumerate(probs):
            draws = self.keyed(self.TRIAL, 2, k).multinomial(100, p / p.sum())
            assert np.array_equal(record.data[k], draws), k

    def test_settings_table_row(self):
        rows = cmd_settings_table([3], [0.25, 0.5], trials=3, seed=self.SEED)
        counts = [len(sample_settings_until(3, settings_budget(3, 0.5),
                                            self.keyed(3, 1, t))) for t in range(3)]
        assert rows[1]["mean_T"] == np.mean(counts)


class TestSettingsTable:
    def test_full_coverage_rows(self):
        rows = cmd_settings_table([3], [1.0], trials=3, seed=0)
        assert rows[0]["mean_T"] == 27.0
        rows = cmd_settings_table([4], [1.0], trials=2, seed=0)
        assert rows[0]["mean_T"] == 81.0

    def test_quarter_coverage_mean(self):
        rows = cmd_settings_table([3], [0.25], trials=100, seed=1)
        assert 2.0 <= rows[0]["mean_T"] <= 4.0

    def test_no_trials_rejected(self, capsys):
        with pytest.raises(ValueError, match="trials"):
            cmd_settings_table([3], [0.5], trials=0, seed=0)
        assert main(["settings-table", "--qubits", "3", "--trials", "0"]) == 2
        assert "trials must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("qubits", ["0", str(MAX_QUBITS + 1)])
    def test_qubits_bounded_as_reconstruct_bounds_them(self, qubits, capsys):
        assert main(["reconstruct", "--observables", "1", "--qubits", qubits]) == 2
        expected = capsys.readouterr().err
        assert f"qubits must lie in [1, {MAX_QUBITS}]" in expected
        assert main(["settings-table", "--qubits", qubits, "--trials", "1"]) == 2
        assert capsys.readouterr().err == expected

    def test_runs_beyond_n_10(self, capsys):
        assert main(["settings-table", "--qubits", "11", "--fractions", "0.001",
                     "--trials", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[:2] == ["11", "4194"]

    def test_csv_output(self, tmp_path):
        out = tmp_path / "table.csv"
        cmd_settings_table([3], [0.25, 1.0], trials=5, seed=2, out=str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "n,fraction,M,mean_T,t_over_m_pct"
        assert len(lines) == 3

    @pytest.mark.parametrize("flag, text, why", [
        ("--qubits", "5-3", "range '5-3' runs backwards"),
        ("--fractions", ",", "',' lists no value")])
    def test_list_of_nothing_is_refused(self, flag, text, why, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["settings-table", flag, text, "--trials", "1",
                     "--out", str(out)]) == 2
        assert why in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["0", "-0.5", "1.5"])
    def test_fraction_bounded_as_reconstruct_bounds_it(self, fraction, tmp_path,
                                                       capsys):
        # the one budget rule: no row of M=1, and no sampler error, for a
        # fraction outside (0, 1]
        out = tmp_path / "table.csv"
        assert main(["settings-table", "--qubits", "3", f"--fractions={fraction}",
                     "--trials", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "fraction must lie in (0, 1]" in err
        assert not out.exists()
        assert main(["reconstruct", "--qubits", "3", f"--fraction={fraction}"]) == 2
        assert capsys.readouterr().err == err


class TestNoiseStudy:
    def test_zero_level_fidelities_near_one(self, tmp_path):
        cfg = fast_cfg(qubits=2, observables=None, fraction=1.0, shots=4096,
                       max_iter=400, trials=2, seed=3)
        rows = cmd_noise_study(cfg, "readout", [0.0],
                               out=str(tmp_path / "n.csv"))
        for r in rows:
            assert r["fidelity_true"] > 1.0 - 1e-9
            assert r["fidelity_estimate"] > 0.98

    def test_readout_underpredicts(self):
        cfg = fast_cfg(qubits=2, observables=None, fraction=1.0, shots=2048,
                       max_iter=400, trials=2, seed=4)
        rows = cmd_noise_study(cfg, "readout", [0.05])
        ests = [r["fidelity_estimate"] for r in rows]
        for r in rows:
            assert r["fidelity_true"] > 1.0 - 1e-9
        assert np.mean(ests) < 1.0 - 0.05 / 2

    def test_rejects_observable_plans_for_readout(self, capsys):
        # every level is validated before the first trial runs: level 0 is
        # noise-free and valid, 0.01 is readout on an observables plan
        with pytest.raises(ValueError, match="settings-mode plan"):
            cmd_noise_study(fast_cfg(qubits=3, observables=30), "readout", [0.0, 0.01])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("channel", ["depolarizing", "readout", "coherent"])
    def test_level_zero_is_the_noise_free_trial(self, channel):
        cfg = fast_cfg(qubits=2, observables=None, fraction=1.0, shots=512,
                       max_iter=60, trials=2, seed=6)
        rows = cmd_noise_study(cfg, channel, [0.0])
        for row in rows:
            free = run_trial(cfg, row["trial"])
            assert row["fidelity_estimate"] == free.fidelity_target
            assert row["fidelity_true"] == free.fidelity_prep

    def test_worker_pool_matches_sequential(self, tmp_path):
        outs = [tmp_path / "seq.csv", tmp_path / "par.csv"]
        for out, workers in zip(outs, (1, 2)):
            assert main(["noise-study", "--channel", "readout", "--levels", "0,0.03",
                         "--state", "ghz", "--qubits", "3", "--fraction", "0.75",
                         "--trials", "2", "--max-iter", "60", "--workers",
                         str(workers), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_gnuplot_script(self, tmp_path):
        cfg = fast_cfg(qubits=2, observables=None, fraction=1.0, shots=512,
                       max_iter=100, trials=1, seed=5)
        csv_path, gp_path = tmp_path / "n.csv", tmp_path / "n.gp"
        cmd_noise_study(cfg, "depolarizing", [0.0, 0.01], out=str(csv_path),
                        gnuplot=str(gp_path))
        text = gp_path.read_text()
        assert "plot" in text and str(csv_path) in text


    @pytest.mark.parametrize("levels", [",", ""])
    def test_list_of_no_levels_is_refused(self, levels, tmp_path, capsys):
        # an empty list runs no level; only a missing --levels takes the defaults
        out = tmp_path / "ns.csv"
        rc = main(["noise-study", "--channel", "readout", "--levels", levels,
                   "--state", "ghz", "--qubits", "2", "--fraction", "1.0",
                   "--max-iter", "10", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "lists no value" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--trace", "--timing"])
    def test_trace_and_timing_are_refused(self, tmp_path, capsys, flag):
        # noise-study writes neither traces nor wall times, so it says so
        out, trace = tmp_path / "ns.csv", tmp_path / "t.csv"
        extra = [flag, str(trace)] if flag == "--trace" else [flag]
        rc = main(["noise-study", "--channel", "readout", "--levels", "0.01",
                   "--state", "ghz", "--qubits", "2", "--fraction", "1.0",
                   "--max-iter", "10", "--out", str(out)] + extra)
        assert rc == 2
        assert f"takes no {flag}" in capsys.readouterr().err
        assert not out.exists() and not trace.exists()


class TestDumpState:
    def test_state_parsed_as_reconstruct_parses_it(self, tmp_path, capsys):
        out = tmp_path / "ghz.dmat"
        assert main(["dump-state", "--state", " GHZ ", "--qubits", "2",
                     "--out", str(out)]) == 0
        assert np.array_equal(read_density(out),
                              build_target_state(ExperimentConfig(qubits=2), 0))
        assert experiment(["--state", " GHZ "]).state == "ghz"
        errors = []
        for command in ("dump-state", "reconstruct"):
            with pytest.raises(SystemExit):
                main([command, "--state", "foo", "--qubits", "2", "--out", "x"])
            errors.append(capsys.readouterr().err.splitlines()[-1].partition("error: ")[2])
        assert errors[0] == errors[1]
        assert errors[0].startswith("argument --state: bad value 'foo'")

    def test_dump_and_read(self, tmp_path):
        out = tmp_path / "ghz.dmat"
        rc = main(["dump-state", "--state", "ghz", "--qubits", "2",
                   "--out", str(out)])
        assert rc == 0
        rho = read_density(out)
        assert abs(rho[0, 0] - 0.5) < 1e-15
        assert abs(rho[0, 3] - 0.5) < 1e-15

    def test_dump_random(self, tmp_path):
        out = tmp_path / "rand.dmat"
        rc = main(["dump-state", "--state", "random", "--qubits", "2",
                   "--rank", "2", "--seed", "9", "--out", str(out)])
        assert rc == 0
        rho = read_density(out)
        assert abs(np.trace(rho).real - 1.0) < 1e-10

    @pytest.mark.parametrize("state, rank", [("random", 3), ("w", 1)])
    def test_dump_is_the_target_of_trial_0(self, tmp_path, state, rank):
        # dump-state --seed s writes the state reconstruct --seed s targets first
        out = tmp_path / "s.dmat"
        assert main(["dump-state", "--state", state, "--qubits", "3", "--rank",
                     str(rank), "--seed", "11", "--out", str(out)]) == 0
        cfg = ExperimentConfig(state=state, qubits=3, rank=rank, seed=11)
        assert np.array_equal(read_density(out), build_target_state(cfg, 0))

    def test_rank_on_a_named_state_is_refused(self, tmp_path, capsys):
        # the check reconstruct runs on its target, with the same message
        out = tmp_path / "ghz.dmat"
        assert main(["dump-state", "--state", "ghz", "--qubits", "3", "--rank", "3",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "rank applies only to random states" in err
        assert not out.exists()
        assert main(["reconstruct", "--state", "ghz", "--qubits", "3", "--rank", "3",
                     "--observables", "30"]) == 2
        assert capsys.readouterr().err == err

    def test_cli_error_exit_code(self, tmp_path, capsys):
        rc = main(["reconstruct", "--qubits", "2", "--observables", "999"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


def test_measurement_noise_on_an_observables_plan_is_refused(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["reconstruct", "--observables", "30", "--noise", "readout=0.02",
               "--out", str(out)])
    assert rc == 2
    assert "needs a settings-mode plan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--observables", "5"],
    ["noise-study", "--channel", "depolarizing", "--observables", "5"],
    ["dump-state", "--state", "ghz", "--out", "never.dmat"],
    ["settings-table", "--trials", "1"],
])
def test_qubits_beyond_the_bound_rejected_before_allocating(argv, tmp_path,
                                                            monkeypatch, capsys):
    # n=13 would start with a 2^13-entry state and a 1-GiB d x d target
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        rc = main(argv + ["--qubits", str(MAX_QUBITS + 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert f"qubits must lie in [1, {MAX_QUBITS}]" in capsys.readouterr().err
    assert peak < 1 << 20
    assert not (tmp_path / "never.dmat").exists()
    with pytest.raises(ValueError, match="qubits"):
        ExperimentConfig(qubits=40, observables=5).validate()


def test_cli_import_loads_no_scipy():
    # the library uses numpy only; scipy or concurrent.futures (which loads
    # logging) would add to every CLI start-up, and multiprocessing to every
    # run with one worker
    src = str(Path(ampqst.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import ampqst.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] in "
            "('scipy', 'multiprocessing', 'concurrent', 'logging')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_amp_run_at_n7_loads_no_concurrent_module():
    # from d = 128 on the probe draws its normals in the stepping thread, so
    # a run loads no thread pool
    src = str(Path(ampqst.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import numpy as np; "
            "from ampqst.amp import AmpConfig, run_amp; "
            "from ampqst.measure import build_measurements; "
            "from ampqst.pauli import MeasurementPlan, sample_observables; "
            "from ampqst.states import make_named_state, pure_density; "
            "plan = MeasurementPlan(7, 'observables', sample_observables(7, 2000, 1)); "
            "smap, y = build_measurements(pure_density(make_named_state('ghz', 7)), "
            "plan, shots=1024, seed=2); "
            "assert run_amp(smap, y, AmpConfig(max_iter=3))[1] == 3; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'concurrent'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
