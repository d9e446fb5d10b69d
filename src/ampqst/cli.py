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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .amp import DENOISERS, AmpConfig, AmpTrace, run_amp
from .errors import DivergenceError
from .measure import (
    NoiseModel,
    apply_coherent,
    apply_depolarizing,
    build_measurements,
    overrotation_unitary,
)
from .mifgd import MifgdConfig, run_mifgd
from .pauli import MAX_QUBITS, MeasurementPlan, sample_observables, sample_settings_until
from .states import (
    ascii_lines,
    factor_density,
    make_named_state,
    make_random_state,
    nmse,
    project_to_density,
    pure_density,
    state_fidelity,
    write_density,
)

RESULT_COLUMNS = ["trial", "state", "n", "M", "T", "N", "algorithm", "nmse",
                  "fidelity_truth", "fidelity_target", "iters", "seconds"]

# role tags for deriving independent per-trial RNG streams
_ROLE_STATE, _ROLE_PLAN, _ROLE_MEAS, _ROLE_ALGO = 0, 1, 2, 3

STATES = ("ghz", "hadamard", "w", "random")
ALGORITHMS = ("amp", "mifgd")


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


def _check_qubits(n: int) -> None:
    """Bound n before anything sized 2^n is allocated."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubits must lie in [1, {MAX_QUBITS}]")


def parse_shots(text: str) -> int | None:
    """Shots per circuit: a positive integer, or ``inf`` for exact means."""
    if text.strip().lower() in ("inf", "infinite", "infinity"):
        return None
    shots = int(text)
    if shots < 1:
        raise ValueError("shots must be positive or 'inf'")
    return shots


def parse_noise(text: str | None) -> NoiseModel | None:
    if text is None or not text.strip():
        return None
    kwargs = {}
    for item in text.split(","):
        key, _, val = item.strip().partition("=")
        key = key.strip().lower()
        if not val:
            raise ValueError(f"noise item {item!r} is not key=val")
        names = {"depolarizing": "depolarizing_eps", "readout": "readout_q",
                 "coherent": "coherent_theta"}
        if key not in names:
            raise ValueError(f"unknown noise key {key!r}")
        kwargs[names[key]] = _finite_float(val)
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
    settings_target: int | None = _setting(None, int, "settings: cover M observables")
    shots: int | None = _setting(1024, parse_shots, "shots per circuit, or inf")
    algorithm: str = _setting("amp", _one_of(ALGORITHMS), "solver")
    alpha: float = _setting(2.0, _finite_float, "AMP threshold multiplier")
    damping: float = _setting(0.01, _finite_float, "AMP damping in (0, 1]; 1 is undamped")
    max_iter: int | None = _setting(None, int, "iteration cap (amp: 2000, mifgd: 1000)")
    denoiser: str = _setting("psvt", _one_of(DENOISERS), "AMP denoiser")
    normalize: bool = _setting(True, _parse_bool, "skip AMP's sqrt(d/M) rescaling")
    eta: float = _setting(0.001, _finite_float, "MiFGD step size")
    mu: float = _setting(0.75, _finite_float, "MiFGD momentum weight")
    rank_budget: int = _setting(5, int, "MiFGD factor width")
    rel_tol: float = _setting(1e-4, _finite_float,
                              "MiFGD relative-change stopping tolerance")
    noise: NoiseModel | None = _setting(None, parse_noise, "e.g. readout=0.02")
    trials: int = _setting(1, int, "number of trials")
    out: str | None = _setting(None, str, "results CSV path")
    trace: str | None = _setting(None, str, "per-iteration trace CSV path (amp only)")
    workers: int = _setting(1, int, "worker processes")
    timing: bool = _setting(False, _parse_bool, "record wall time (not byte-identical)")

    def validate(self) -> None:
        _check_qubits(self.qubits)
        d2 = 4 ** self.qubits
        if self.state not in STATES:
            raise ValueError(f"unknown state {self.state!r}")
        if self.state != "random" and self.rank != 1:
            raise ValueError("rank applies only to random states")
        modes = [self.observables is not None, self.fraction is not None,
                 self.settings_target is not None]
        if sum(modes) != 1:
            raise ValueError("choose exactly one of --observables, --fraction, "
                             "--settings-target")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        if self.observables is not None and not 1 <= self.observables <= d2:
            raise ValueError(f"observables must lie in [1, {d2}]")
        if self.settings_target is not None and not 1 <= self.settings_target <= d2:
            raise ValueError(f"settings target must lie in [1, {d2}]")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    @property
    def plan_mode(self) -> str:
        return "observables" if self.observables is not None else "settings"

    def settings_budget(self) -> int:
        if self.settings_target is not None:
            return self.settings_target
        return max(1, round(self.fraction * 4 ** self.qubits))

    def solver_max_iter(self) -> int:
        if self.max_iter is not None:
            return self.max_iter
        return 2000 if self.algorithm == "amp" else 1000


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


def _rng_for(cfg: ExperimentConfig, trial: int, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, trial, role)))


def _seed_int(cfg: ExperimentConfig, trial: int, role: int) -> int:
    return int(np.random.SeedSequence((cfg.seed, trial, role)).generate_state(1)[0])


def build_target_state(cfg: ExperimentConfig, trial: int) -> np.ndarray:
    if cfg.state == "random":
        return make_random_state(cfg.qubits, cfg.rank,
                                 _rng_for(cfg, trial, _ROLE_STATE))
    return pure_density(make_named_state(cfg.state, cfg.qubits))


def prepare_state(cfg: ExperimentConfig, target: np.ndarray) -> np.ndarray:
    """Apply the state-level part of the noise model to the target."""
    rho = target
    if cfg.noise is None:
        return rho
    if cfg.noise.coherent_theta:
        rho = apply_coherent(rho, overrotation_unitary(cfg.qubits,
                                                       cfg.noise.coherent_theta))
    if cfg.noise.depolarizing_eps:
        rho = apply_depolarizing(rho, cfg.noise.depolarizing_eps)
    return rho


def build_plan(cfg: ExperimentConfig, trial: int) -> tuple[MeasurementPlan, int]:
    """Per-trial measurement plan and the circuit count T."""
    n = cfg.qubits
    rng = _rng_for(cfg, trial, _ROLE_PLAN)
    if cfg.plan_mode == "observables":
        mode, words = "observables", sample_observables(n, cfg.observables, rng)
    else:
        mode, words = "settings", sample_settings_until(n, cfg.settings_budget(), rng)
    return MeasurementPlan(n=n, mode=mode, words=tuple(words)), len(words)


def run_trial(cfg: ExperimentConfig, trial: int,
              want_trace: bool = False) -> TrialResult:
    start = time.perf_counter()
    target = build_target_state(cfg, trial)
    rho_star = prepare_state(cfg, target)
    target_factor = factor_density(target)
    plan, T = build_plan(cfg, trial)
    smap, y = build_measurements(rho_star, plan, cfg.shots, cfg.noise,
                                 seed=(cfg.seed, trial, _ROLE_MEAS))

    trace = None
    failed = False
    if cfg.algorithm == "amp":
        acfg = AmpConfig(alpha=cfg.alpha, damping=cfg.damping,
                         max_iter=cfg.solver_max_iter(), denoiser=cfg.denoiser,
                         normalize=cfg.normalize,
                         seed=_seed_int(cfg, trial, _ROLE_ALGO))
        try:
            rho_hat, trace = run_amp(smap, y, acfg,
                                     ground_truth=rho_star if want_trace else None)
        except DivergenceError as err:
            failed = True
            rho_hat = err.iterate
            trace = err.trace
        iters = len(trace)
    else:
        mcfg = MifgdConfig(eta=cfg.eta, mu=cfg.mu, rank_budget=cfg.rank_budget,
                           max_iter=cfg.solver_max_iter(), rel_tol=cfg.rel_tol,
                           seed=_seed_int(cfg, trial, _ROLE_ALGO))
        try:
            rho_hat, iters = run_mifgd(smap, y, mcfg)
        except DivergenceError as err:
            failed = True
            rho_hat = err.iterate
            iters = err.iterations

    if failed:
        # failed recovery reports a state infidelity of 1.0
        fid_truth = 0.0
        fid_target = 0.0
        err_nmse = nmse(rho_star, project_to_density(rho_hat)) \
            if rho_hat is not None and np.isfinite(rho_hat).all() else float("inf")
    else:
        fid_truth = state_fidelity(rho_star, rho_hat)
        fid_target = state_fidelity(target_factor, rho_hat)
        err_nmse = nmse(rho_star, rho_hat)
    fid_prep = state_fidelity(target_factor, rho_star)
    seconds = time.perf_counter() - start
    return TrialResult(trial=trial, M=smap.M, T=T, nmse=err_nmse,
                       fidelity_truth=fid_truth, fidelity_target=fid_target,
                       fidelity_prep=fid_prep, iters=iters, seconds=seconds,
                       trace=trace if want_trace else None)


def _run_trials(cfg: ExperimentConfig, want_trace: bool) -> list[TrialResult]:
    if cfg.workers == 1:
        return [run_trial(cfg, t, want_trace) for t in range(cfg.trials)]
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(run_trial, cfg, t, want_trace)
                   for t in range(cfg.trials)]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_results_csv(path, cfg: ExperimentConfig,
                      results: list[TrialResult]) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in results:
            writer.writerow([
                r.trial, cfg.state, cfg.qubits, r.M, r.T,
                "inf" if cfg.shots is None else cfg.shots, cfg.algorithm,
                _fmt(r.nmse), _fmt(r.fidelity_truth), _fmt(r.fidelity_target),
                r.iters, f"{r.seconds:.3f}" if cfg.timing else "",
            ])


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
            if r.trace is None:
                continue
            path = cfg.trace if cfg.trials == 1 \
                else _suffixed(cfg.trace, f".trial{r.trial}")
            r.trace.to_csv(path)
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
    rows = []
    for n in n_values:
        if n > 10:
            raise ValueError("settings table supports n <= 10")
        d2 = 4 ** n
        for fi, frac in enumerate(fractions):
            target = max(1, round(frac * d2))
            counts = []
            for t in range(trials):
                rng = np.random.default_rng(np.random.SeedSequence((seed, n, fi, t)))
                counts.append(len(sample_settings_until(n, target, rng)))
            mean_T = float(np.mean(counts))
            rows.append({"n": n, "fraction": frac, "M": target,
                         "mean_T": mean_T,
                         "t_over_m_pct": 100.0 * mean_T / target})
    if out:
        with open(out, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "fraction", "M", "mean_T", "t_over_m_pct"])
            for r in rows:
                writer.writerow([r["n"], _fmt(r["fraction"]), r["M"],
                                 _fmt(r["mean_T"]), _fmt(r["t_over_m_pct"])])
    print(f"{'n':>3} {'M':>8} {'mean T':>10} {'T/M %':>8}")
    for r in rows:
        print(f"{r['n']:>3} {r['M']:>8} {r['mean_T']:>10.2f} "
              f"{r['t_over_m_pct']:>8.1f}")
    return rows


# ---------------------------------------------------------------------------
# Noise study
# ---------------------------------------------------------------------------

_NOISE_CHANNELS = ("depolarizing", "readout", "coherent")
_DEFAULT_LEVELS = {
    "depolarizing": (0.0, 1e-3, 5e-3, 1e-2),
    "readout": (0.0, 0.01, 0.03, 0.05),
    "coherent": (0.0, 0.02, 0.05, 0.1),
}


def _noise_for(channel: str, level: float) -> NoiseModel | None:
    if level == 0.0:
        return None
    if channel == "depolarizing":
        return NoiseModel(depolarizing_eps=level)
    if channel == "readout":
        return NoiseModel(readout_q=level)
    return NoiseModel(coherent_theta=level)


def cmd_noise_study(cfg: ExperimentConfig, channel: str, levels,
                    out: str | None = None,
                    gnuplot: str | None = None) -> list[dict]:
    """Sweep one noise channel; report estimated vs true preparation fidelity."""
    if channel not in _NOISE_CHANNELS:
        raise ValueError(f"unknown noise channel {channel!r}")
    if cfg.trace or cfg.timing:
        raise ValueError(f"noise-study takes no {'--trace' if cfg.trace else '--timing'}"
                         ": it writes neither traces nor wall times")
    if cfg.plan_mode == "observables" and channel in ("readout", "coherent"):
        raise ValueError(f"{channel} noise needs a settings-mode plan "
                         "(--fraction or --settings-target)")
    rows = []
    for level in levels:
        level_cfg = replace(cfg, noise=_noise_for(channel, level))
        level_cfg.validate()
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
        with open(out, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["channel", "level", "trial",
                             "fidelity_estimate", "fidelity_true"])
            for r in rows:
                writer.writerow([r["channel"], _fmt(r["level"]), r["trial"],
                                 _fmt(r["fidelity_estimate"]),
                                 _fmt(r["fidelity_true"])])
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


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    """``--config`` plus one flag per setting. A flag not given is left out
    of the namespace (not set to None, which means ``--shots inf``)."""
    p.add_argument("--config", help="flat key=value configuration file")
    for f in fields(ExperimentConfig):
        parse, flag = f.metadata["parse"], "--" + f.name.replace("_", "-")
        if parse is _parse_bool:
            flag = flag.replace("--", "--no-") if f.default else flag
            how = dict(action="store_const", const=not f.default)
        else:
            how = dict(type=_flag_type(parse), choices=getattr(parse, "choices", None))
        p.add_argument(flag, dest=f.name, default=argparse.SUPPRESS,
                       help=f.metadata["help"], **how)


def _parse_int_list(text: str) -> list:
    out = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part and not part.startswith("-"):
            lo, _, hi = part.partition("-")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    return out


def _parse_float_list(text: str) -> list:
    return [_finite_float(p) for p in text.split(",") if p.strip()]


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
    p_noise.add_argument("--channel", required=True, choices=_NOISE_CHANNELS)
    p_noise.add_argument("--levels", help="comma-separated noise levels")
    p_noise.add_argument("--gnuplot", help="also write a gnuplot script")

    p_dump = sub.add_parser("dump-state", help="write a state as DMAT v1")
    p_dump.add_argument("--state", required=True, type=str.lower, choices=STATES)
    p_dump.add_argument("--qubits", type=int, required=True)
    p_dump.add_argument("--rank", type=int, default=1)
    p_dump.add_argument("--seed", type=int, default=0)
    p_dump.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "settings-table":
            cmd_settings_table(_parse_int_list(args.qubits),
                               _parse_float_list(args.fractions),
                               args.trials, args.seed, args.out)
            return 0
        if args.command == "dump-state":
            _check_qubits(args.qubits)
            if args.state == "random":
                rho = make_random_state(args.qubits, args.rank, args.seed)
            else:
                rho = pure_density(make_named_state(args.state, args.qubits))
            write_density(args.out, rho)
            return 0
        file_values = load_config_file(args.config) if args.config else {}
        cfg = _experiment_from(args, file_values)
        if args.command == "reconstruct":
            cmd_reconstruct(cfg)
            return 0
        if args.command == "noise-study":
            levels = _parse_float_list(args.levels) if args.levels \
                else list(_DEFAULT_LEVELS[args.channel])
            cmd_noise_study(cfg, args.channel, levels, out=cfg.out,
                            gnuplot=args.gnuplot)
            return 0
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
