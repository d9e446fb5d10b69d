"""End-to-end experiment runner.

Subcommands: ``reconstruct`` (simulate + reconstruct + report),
``settings-table`` (count settings needed to cover observable budgets),
``noise-study`` (fidelity prediction vs true preparation fidelity under a
noise sweep), and ``dump-state`` (write a DMAT v1 file).

Configuration comes from flat ``key=value`` files (``#`` comments) and/or
flags; flags override the file. Identical configuration and seed produce
byte-identical CSV output: per-trial wall time lands in the ``seconds``
column only when ``--timing`` is given, otherwise the field stays empty.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .amp import DENOISERS, AmpConfig, AmpTrace, run_amp
from .measure import CHANNELS, NoiseModel, build_measurements
from .mifgd import MifgdConfig, run_mifgd
from .pauli import (MeasurementPlan, _check_qubits, sample_observables,
                    sample_settings_until)
from .states import (
    as_density,
    ascii_lines,
    factor_density,
    make_named_state,
    make_random_state,
    nmse,
    project_to_density,
    pure_density,
    write_density,
)

RESULT_COLUMNS = ["trial", "state", "n", "M", "T", "N", "algorithm", "nmse",
                  "fidelity_truth", "fidelity_target", "iters", "seconds"]

# role tags of the per-trial stream keys (seed, trial, role), each seeding states.as_rng
_ROLE_STATE, _ROLE_PLAN, _ROLE_MEAS, _ROLE_ALGO = 0, 1, 2, 3

STATES = ("ghz", "hadamard", "w", "random")
ALGORITHMS = {"amp": AmpConfig, "mifgd": MifgdConfig}   # solver -> its config class


def _one_of(names: tuple):
    """Case-insensitive parser of one of ``names``; argparse lists them."""
    def parse(text: str) -> str:
        value = text.strip().lower()
        if value not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return value
    parse.choices = names
    return parse


def _parse_bool(text: str) -> bool:
    return _one_of(("true", "false"))(text) == "true"


def _finite_float(text: str) -> float:
    """A float setting: nan and +-inf would pass every range check."""
    value = float(text)
    if not abs(value) < np.inf:
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def parse_shots(text: str) -> int | None:
    """Shots per circuit: a positive integer, or ``inf`` for exact means."""
    if text.strip().lower() in ("inf", "infinite", "infinity"):
        return None
    shots = int(text)
    if shots < 1:
        raise ValueError("shots must be positive or 'inf'")
    return shots


def parse_noise(text: str) -> NoiseModel:
    """Comma-separated ``channel=level`` items; blank text is no noise."""
    kwargs = {}
    for item in text.split(",") if text.strip() else ():
        key, _, val = item.strip().partition("=")
        key = key.strip().lower()
        if not val:
            raise ValueError(f"noise item {item!r} is not key=val")
        if key not in CHANNELS:
            raise ValueError(f"unknown noise key {key!r}")
        kwargs[CHANNELS[key]] = _finite_float(val)
    return NoiseModel(**kwargs)


def _setting(default, parse, text: str):
    """A setting's default, the parser of its flag and file value, its help."""
    return field(default=default, metadata={"parse": parse, "help": text})


@dataclass
class ExperimentConfig:
    """One experiment. Each setting is declared here once: its flag is
    ``--<name>`` with dashes (a bool is ``--no-<name>`` when it defaults to
    True), its config-file key is ``<name>``, and both go through its parser."""

    state: str = _setting("ghz", _one_of(STATES), "target state")
    qubits: int = _setting(3, int, "number of qubits n")
    rank: int = _setting(1, int, "rank of a random state")
    seed: int = _setting(0, int, "base seed of every per-trial random stream")
    observables: int | None = _setting(None, int, "sample M Pauli observables")
    fraction: float | None = _setting(None, _finite_float,
                                      "settings: cover this share of d^2")
    shots: int | None = _setting(1024, parse_shots, "shots per circuit, or inf")
    algorithm: str = _setting("amp", _one_of(tuple(ALGORITHMS)), "solver")
    alpha: float = _setting(AmpConfig.alpha, _finite_float, "AMP threshold multiplier")
    damping: float = _setting(AmpConfig.damping, _finite_float,
                              "AMP damping in (0, 1]; 1 is undamped")
    max_iter: int | None = _setting(None, int, "iteration cap (amp: %d, mifgd: %d)"
                                    % (AmpConfig.max_iter, MifgdConfig.max_iter))
    denoiser: str = _setting(AmpConfig.denoiser, _one_of(DENOISERS), "AMP denoiser")
    normalize: bool = _setting(AmpConfig.normalize, _parse_bool,
                               "skip AMP's sqrt(d/M) rescaling")
    eta: float = _setting(MifgdConfig.eta, _finite_float, "MiFGD step size")
    mu: float = _setting(MifgdConfig.mu, _finite_float, "MiFGD momentum weight")
    rank_budget: int = _setting(MifgdConfig.rank_budget, int, "MiFGD factor width")
    rel_tol: float = _setting(MifgdConfig.rel_tol, _finite_float,
                              "MiFGD relative-change stopping tolerance")
    noise: NoiseModel = _setting(NoiseModel(), parse_noise, "e.g. readout=0.02")
    trials: int = _setting(1, int, "number of trials")
    out: str | None = _setting(None, str, "results CSV path")
    trace: str | None = _setting(None, str, "per-iteration trace CSV path (amp only)")
    workers: int = _setting(1, int, "worker processes")
    timing: bool = _setting(False, _parse_bool, "record wall time (not byte-identical)")

    def check_target(self) -> None:
        """The checks of the target state alone, which dump-state runs too."""
        _check_qubits(self.qubits)
        if self.state not in STATES:
            raise ValueError(f"unknown state {self.state!r}")
        if self.state != "random" and self.rank != 1:
            raise ValueError("rank applies only to random states")

    def validate(self) -> None:
        self.check_target()
        d2 = 4 ** self.qubits
        if (self.observables is None) == (self.fraction is None):
            raise ValueError("choose exactly one of --observables, --fraction")
        if self.fraction is not None:
            settings_budget(self.qubits, self.fraction)
        if self.observables is not None and not 1 <= self.observables <= d2:
            raise ValueError(f"observables must lie in [1, {d2}]")
        if self.observables is not None and self.noise.measurement_side:
            raise ValueError("coherent/readout noise needs a settings-mode plan "
                             "(--fraction)")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.trace is not None and self.algorithm != "amp":
            raise ValueError("--trace applies only to --algorithm amp")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self.solver_config(0)   # the solver's config checks its own knobs
        if self.algorithm == "mifgd" and self.rank_budget > 1 << self.qubits:
            # run_mifgd's check, before any trial's data are simulated
            raise ValueError(f"rank budget {self.rank_budget} exceeds dimension "
                             f"{1 << self.qubits}")

    def solver_max_iter(self) -> int:
        if self.max_iter is not None:
            return self.max_iter
        return ALGORITHMS[self.algorithm].max_iter

    def solver_config(self, seed: int) -> AmpConfig | MifgdConfig:
        """The solver's configuration: each of its knobs is the setting of
        the same name."""
        kind = ALGORITHMS[self.algorithm]
        knobs = {f.name: getattr(self, f.name) for f in fields(kind)
                 if f.name not in ("max_iter", "seed")}
        return kind(**knobs, max_iter=self.solver_max_iter(), seed=seed)


@dataclass
class TrialResult:
    trial: int
    M: int
    T: int
    nmse: float
    fidelity_truth: float
    fidelity_target: float
    fidelity_prep: float
    iters: int
    seconds: float
    trace: AmpTrace | None = None


def _seed_int(cfg: ExperimentConfig, trial: int, role: int) -> int:
    return int(np.random.SeedSequence((cfg.seed, trial, role)).generate_state(1)[0])


def build_target_state(cfg: ExperimentConfig, trial: int) -> np.ndarray:
    if cfg.state == "random":
        return make_random_state(cfg.qubits, cfg.rank, (cfg.seed, trial, _ROLE_STATE))
    return pure_density(make_named_state(cfg.state, cfg.qubits))


def settings_budget(n: int, fraction: float) -> int:
    """The observables a settings plan covers: round(fraction 4^n), at least 1,
    for a ``fraction`` in (0, 1]."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    return max(1, round(fraction * 4 ** n))


def build_plan(cfg: ExperimentConfig, trial: int) -> tuple[MeasurementPlan, int]:
    """Per-trial measurement plan and the circuit count T."""
    n = cfg.qubits
    keys = (cfg.seed, trial, _ROLE_PLAN)
    if cfg.observables is not None:
        mode, codes = "observables", sample_observables(n, cfg.observables, keys)
    else:
        mode = "settings"
        codes = sample_settings_until(n, settings_budget(n, cfg.fraction), keys)
    return MeasurementPlan(n, mode, codes), len(codes)


def run_trial(cfg: ExperimentConfig, trial: int,
              want_trace: bool = False) -> TrialResult:
    start = time.perf_counter()
    target = factor_density(build_target_state(cfg, trial))
    rho_star = cfg.noise.prepare(target.rho)
    truth = target if rho_star is target.rho else factor_density(rho_star)
    plan, T = build_plan(cfg, trial)
    smap, y = build_measurements(truth.rho, plan, cfg.shots, cfg.noise,
                                 seed=(cfg.seed, trial, _ROLE_MEAS))
    solver = cfg.solver_config(_seed_int(cfg, trial, _ROLE_ALGO))
    trace = AmpTrace(truth) if want_trace and cfg.algorithm == "amp" else None
    if cfg.algorithm == "amp":
        rho_hat, iters, diverged = run_amp(smap, y, solver, trace)
    else:
        rho_hat, iters, diverged = run_mifgd(smap, y, solver)
    if diverged:
        # failed recovery reports a state infidelity of 1.0
        fid_truth = fid_target = 0.0
        err_nmse = nmse(truth.rho, project_to_density(rho_hat))
    else:
        estimate = as_density(rho_hat)
        fid_truth, fid_target = truth.fidelity(estimate), target.fidelity(estimate)
        err_nmse = nmse(truth.rho, rho_hat)
    fid_prep = target.fidelity(truth.rho)
    seconds = time.perf_counter() - start
    return TrialResult(trial=trial, M=smap.M, T=T, nmse=err_nmse,
                       fidelity_truth=fid_truth, fidelity_target=fid_target,
                       fidelity_prep=fid_prep, iters=iters, seconds=seconds,
                       trace=trace)


def _run_trials(cfg: ExperimentConfig, want_trace: bool) -> list[TrialResult]:
    if cfg.workers == 1:
        return [run_trial(cfg, t, want_trace) for t in range(cfg.trials)]
    # imported here: the pool loads multiprocessing, which one worker never needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(run_trial, cfg, t, want_trace)
                   for t in range(cfg.trials)]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _write_csv(path, header: list, rows) -> None:
    """An ASCII CSV file: the header row, then ``rows``, each float written
    with 17 significant digits (it reads back to the same bits)."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{x:.17g}" if isinstance(x, float) else x for x in row]
                         for row in rows)


def write_results_csv(path, cfg: ExperimentConfig,
                      results: list[TrialResult]) -> None:
    _write_csv(path, RESULT_COLUMNS, ([
        r.trial, cfg.state, cfg.qubits, r.M, r.T,
        "inf" if cfg.shots is None else cfg.shots, cfg.algorithm,
        r.nmse, r.fidelity_truth, r.fidelity_target,
        r.iters, f"{r.seconds:.3f}" if cfg.timing else "",
    ] for r in results))


def write_trace_csv(path, trace: AmpTrace) -> None:
    """One row per AMP iteration; ``nmse`` and ``fidelity`` with a truth."""
    names = ["sigma", "tau", "onsager", "residual_norm"]
    if trace.nmse is not None:
        names += ["nmse", "fidelity"]
    columns = zip(*(getattr(trace, k) for k in names))
    _write_csv(path, ["t"] + names, ([t, *row] for t, row in enumerate(columns)))


def _summary(results: list[TrialResult]) -> str:
    fid = np.array([r.fidelity_truth for r in results])
    err = np.array([r.nmse for r in results])
    return (f"trials={len(results)}  "
            f"fidelity min/mean/max = {fid.min():.6f}/{fid.mean():.6f}/{fid.max():.6f}  "
            f"nmse min/mean/max = {err.min():.3g}/{err.mean():.3g}/{err.max():.3g}")


def cmd_reconstruct(cfg: ExperimentConfig) -> list[TrialResult]:
    cfg.validate()
    results = _run_trials(cfg, want_trace=cfg.trace is not None)
    if cfg.out:
        write_results_csv(cfg.out, cfg, results)
    if cfg.trace:
        for r in results:
            path = cfg.trace if cfg.trials == 1 \
                else _suffixed(cfg.trace, f".trial{r.trial}")
            write_trace_csv(path, r.trace)
    print(_summary(results))
    return results


def _suffixed(path: str, suffix: str) -> str:
    stem, ext = os.path.splitext(path)
    return stem + suffix + ext


# ---------------------------------------------------------------------------
# Settings table
# ---------------------------------------------------------------------------

def cmd_settings_table(n_values, fractions, trials: int, seed: int,
                       out: str | None = None) -> list[dict]:
    """Mean number of settings needed per (n, fraction of d^2) cell."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    for n in n_values:
        _check_qubits(n)
    budgets = {(n, frac): settings_budget(n, frac)
               for n in n_values for frac in fractions}
    rows = []
    for n in n_values:
        for fi, frac in enumerate(fractions):
            target = budgets[n, frac]
            counts = [len(sample_settings_until(n, target, (seed, n, fi, t)))
                      for t in range(trials)]
            mean_T = float(np.mean(counts))
            rows.append({"n": n, "fraction": frac, "M": target,
                         "mean_T": mean_T,
                         "t_over_m_pct": 100.0 * mean_T / target})
    if out:
        header = ["n", "fraction", "M", "mean_T", "t_over_m_pct"]
        _write_csv(out, header, ([r[k] for k in header] for r in rows))
    print(f"{'n':>3} {'M':>8} {'mean T':>10} {'T/M %':>8}")
    for r in rows:
        print(f"{r['n']:>3} {r['M']:>8} {r['mean_T']:>10.2f} "
              f"{r['t_over_m_pct']:>8.1f}")
    return rows


# ---------------------------------------------------------------------------
# Noise study
# ---------------------------------------------------------------------------

_DEFAULT_LEVELS = {
    "depolarizing": (0.0, 1e-3, 5e-3, 1e-2),
    "readout": (0.0, 0.01, 0.03, 0.05),
    "coherent": (0.0, 0.02, 0.05, 0.1),
}


def cmd_noise_study(cfg: ExperimentConfig, channel: str, levels,
                    out: str | None = None,
                    gnuplot: str | None = None) -> list[dict]:
    """Sweep one noise channel; report estimated vs true preparation fidelity."""
    if channel not in CHANNELS:
        raise ValueError(f"unknown noise channel {channel!r}")
    if cfg.trace or cfg.timing:
        raise ValueError(f"noise-study takes no {'--trace' if cfg.trace else '--timing'}"
                         ": it writes neither traces nor wall times")
    level_cfgs = [replace(cfg, noise=NoiseModel(**{CHANNELS[channel]: level}))
                  for level in levels]
    for level_cfg in level_cfgs:
        level_cfg.validate()
    rows = []
    for level, level_cfg in zip(levels, level_cfgs):
        results = _run_trials(level_cfg, want_trace=False)
        for r in results:
            rows.append({"channel": channel, "level": level, "trial": r.trial,
                         "fidelity_estimate": r.fidelity_target,
                         "fidelity_true": r.fidelity_prep})
        est = np.array([r.fidelity_target for r in results])
        true = np.array([r.fidelity_prep for r in results])
        print(f"{channel} level={level:g}: estimate mean={est.mean():.6f} "
              f"[{est.min():.6f}, {est.max():.6f}]  true={true.mean():.6f}")
    if out:
        header = ["channel", "level", "trial", "fidelity_estimate", "fidelity_true"]
        _write_csv(out, header, ([r[k] for k in header] for r in rows))
        if gnuplot:
            _write_gnuplot(gnuplot, out, channel)
    return rows


def _write_gnuplot(path: str, csv_path: str, channel: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            "set datafile separator ','\n"
            f"set title 'fidelity prediction under {channel} noise'\n"
            "set xlabel 'noise level'\nset ylabel 'fidelity'\nset key left bottom\n"
            f"plot '{csv_path}' every ::1 using 2:4 with points title 'estimated', \\\n"
            f"     '{csv_path}' every ::1 using 2:5 with points title 'true'\n")


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------

_SETTINGS = {f.name: f for f in fields(ExperimentConfig)}


def load_config_file(path: str) -> dict:
    """Parse a flat key=value configuration file with # comments, each value
    by its setting's parser; errors name the file line."""
    values = {}
    lines = ascii_lines(path, lambda k: f"{path}:{k}: non-ASCII byte")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _SETTINGS[key].metadata["parse"](val)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: bad value {val!r} "
                             f"for {key}: {err}") from None
    return values


def _experiment_from(args, file_values: dict) -> ExperimentConfig:
    """Each setting from its flag, else from the config file, else the default."""
    flags = {k: v for k, v in vars(args).items() if k in _SETTINGS}
    return ExperimentConfig(**{**file_values, **flags})


def _flag_type(parse):
    """``parse`` for argparse, keeping the parser's reason in the message."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"bad value {text!r}: {err}") from None
    return convert


def _add_setting_flags(p: argparse.ArgumentParser, names=tuple(_SETTINGS),
                       required=()) -> None:
    """One flag per setting in ``names``. A flag not given is left out of
    the namespace (not set to None, which means ``--shots inf``)."""
    for name in names:
        f = _SETTINGS[name]
        parse, flag = f.metadata["parse"], "--" + name.replace("_", "-")
        if parse is _parse_bool:
            flag = flag.replace("--", "--no-") if f.default else flag
            how = dict(action="store_const", const=not f.default)
        else:
            how = dict(type=_flag_type(parse), choices=getattr(parse, "choices", None))
        p.add_argument(flag, dest=name, default=argparse.SUPPRESS,
                       required=name in required, help=f.metadata["help"], **how)


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    """``--config`` plus one flag per setting."""
    p.add_argument("--config", help="flat key=value configuration file")
    _add_setting_flags(p)


def _nonempty(values: list, text: str) -> list:
    if not values:
        raise ValueError(f"{text!r} lists no value")
    return values


def _parse_int_list(text: str) -> list:
    out = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part and not part.startswith("-"):
            lo, hi = (int(x) for x in part.split("-", 1))
            if lo > hi:
                raise ValueError(f"range {part!r} runs backwards")
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(int(part))
    return _nonempty(out, text)


def _parse_float_list(text: str) -> list:
    return _nonempty([_finite_float(p) for p in text.split(",") if p.strip()], text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ampqst",
        description="Low-rank quantum state tomography with damped projected-SVT AMP")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("reconstruct", help="simulate and reconstruct a state")
    _add_experiment_flags(p_rec)

    p_tab = sub.add_parser("settings-table",
                           help="settings needed per observable budget")
    p_tab.add_argument("--qubits", default="3-8",
                       help="comma list or range, e.g. 3-8 or 3,5")
    p_tab.add_argument("--fractions", default="0.25,0.5,0.75,1.0")
    p_tab.add_argument("--trials", type=int, default=100)
    p_tab.add_argument("--seed", type=int, default=0)
    p_tab.add_argument("--out")

    p_noise = sub.add_parser("noise-study",
                             help="fidelity prediction under channel noise")
    _add_experiment_flags(p_noise)
    p_noise.add_argument("--channel", required=True, choices=tuple(CHANNELS))
    p_noise.add_argument("--levels", help="comma-separated noise levels")
    p_noise.add_argument("--gnuplot", help="also write a gnuplot script")

    p_dump = sub.add_parser("dump-state", help="write a state as DMAT v1")
    _add_setting_flags(p_dump, ("state", "qubits", "rank", "seed"),
                       required=("state", "qubits"))
    p_dump.add_argument("--out", required=True, help="DMAT v1 file path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "settings-table":
            cmd_settings_table(_parse_int_list(args.qubits),
                               _parse_float_list(args.fractions),
                               args.trials, args.seed, args.out)
        elif args.command == "dump-state":
            cfg = _experiment_from(args, {})
            cfg.check_target()
            write_density(args.out, build_target_state(cfg, 0))
        else:
            file_values = load_config_file(args.config) if args.config else {}
            cfg = _experiment_from(args, file_values)
            if args.command == "reconstruct":
                cmd_reconstruct(cfg)
            else:
                levels = list(_DEFAULT_LEVELS[args.channel]) if args.levels is None \
                    else _parse_float_list(args.levels)
                cmd_noise_study(cfg, args.channel, levels, out=cfg.out,
                                gnuplot=args.gnuplot)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
