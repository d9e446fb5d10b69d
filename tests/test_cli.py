import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ampqst
from ampqst.cli import (
    ExperimentConfig,
    _experiment_from,
    _suffixed,
    build_parser,
    cmd_noise_study,
    cmd_reconstruct,
    cmd_settings_table,
    load_config_file,
    main,
    parse_noise,
    parse_shots,
    run_trial,
)
from ampqst.pauli import MAX_QUBITS
from ampqst.states import read_density


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
        assert parse_noise(None) is None
        with pytest.raises(ValueError):
            parse_noise("fancy=1")

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


# one value per setting, unlike its default, as a file value or flag text
SETTING_TEXT = {
    "state": "W", "qubits": "4", "rank": "2", "seed": "7", "observables": "20",
    "fraction": "0.5", "settings_target": "30", "shots": "inf",
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

    def test_infidelity_one_on_divergence(self, tmp_path):
        cfg = fast_cfg(qubits=3, observables=32, shots=256, normalize=False,
                       denoiser="svt", damping=1.0, max_iter=300,
                       out=str(tmp_path / "d.csv"))
        results = cmd_reconstruct(cfg)
        assert results[0].fidelity_truth == 0.0
        assert results[0].fidelity_target == 0.0

    def test_mifgd_divergence_reports_its_iteration(self):
        cfg = fast_cfg(qubits=3, observables=32, algorithm="mifgd", eta=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_trial(cfg, 0)
        assert result.fidelity_truth == 0.0
        assert 0 < result.iters < cfg.solver_max_iter()


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

    def test_csv_output(self, tmp_path):
        out = tmp_path / "table.csv"
        cmd_settings_table([3], [0.25, 1.0], trials=5, seed=2, out=str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "n,fraction,M,mean_T,t_over_m_pct"
        assert len(lines) == 3


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

    def test_rejects_observable_plans_for_readout(self):
        cfg = fast_cfg(observables=16)
        with pytest.raises(ValueError):
            cmd_noise_study(cfg, "readout", [0.01])

    def test_gnuplot_script(self, tmp_path):
        cfg = fast_cfg(qubits=2, observables=None, fraction=1.0, shots=512,
                       max_iter=100, trials=1, seed=5)
        csv_path, gp_path = tmp_path / "n.csv", tmp_path / "n.gp"
        cmd_noise_study(cfg, "depolarizing", [0.0, 0.01], out=str(csv_path),
                        gnuplot=str(gp_path))
        text = gp_path.read_text()
        assert "plot" in text and str(csv_path) in text


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

    def test_cli_error_exit_code(self, tmp_path, capsys):
        rc = main(["reconstruct", "--qubits", "2", "--observables", "999"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--observables", "5"],
    ["noise-study", "--channel", "depolarizing", "--observables", "5"],
    ["dump-state", "--state", "ghz", "--out", "never.dmat"],
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
    # the library uses numpy only; scipy would add to every CLI start-up
    src = str(Path(ampqst.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import ampqst.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
