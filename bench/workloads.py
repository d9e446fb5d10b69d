"""The benchmark's workloads: their inputs, one trial of each, and its checks.

Every trial goes through ``ampqst.cli.run_trial``, the experiment runner's
per-trial entry point, with ``workers=1``. A run first measures the
workload's reference trials, whose inputs come from ``REFERENCE_SEED``, and
then trials whose inputs come from the ``--seed`` given to the benchmark.
The reference trials fix the reported quality: it repeats exactly on every
run of the same code, so a change that alters results shows as a changed
``fidelity`` or ``nmse``. Per-trial quality varies too much between inputs
for a few seeded trials to give a steady figure: 24 flagship trials of one
seed ended with NMSE from 0.023 to 0.44.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

# run_trial is looked up on the module at each call, so a tracer sees it
from ampqst import cli
from ampqst.cli import ExperimentConfig, TrialResult
from ampqst.measure import NoiseModel

REFERENCE_SEED = 0
READOUT_LEVELS = (0.01, 0.03, 0.05)
# Iteration cap of the n=7 trial: 2000 iterations would take about 50 s.
LARGE_MAX_ITER = 200
# NMSE bound of acceptance criterion 1; amp.iters_to_target counts up to it.
TARGET_NMSE = 0.05


@dataclass
class Run:
    """One ``run_trial`` call inside a benchmark trial."""

    label: str
    cfg: ExperimentConfig
    result: TrialResult


def flagship(seed: int, trial: int) -> list[Run]:
    """Random rank-3 state, n=5, M=384, N=1024: AMP with per-iteration
    truth metrics, then MiFGD on the same measurements."""
    cfg = ExperimentConfig(state="random", qubits=5, rank=3, observables=384,
                           shots=1024, seed=seed, workers=1)
    amp = Run("amp", cfg, cli.run_trial(cfg, trial, want_trace=True))
    mcfg = replace(cfg, algorithm="mifgd")
    return [amp, Run("mifgd", mcfg, cli.run_trial(mcfg, trial))]


def noise_sweep(seed: int, trial: int) -> list[Run]:
    """GHZ n=3, settings covering 3/4 of the Pauli basis, N=1024; trials
    cycle through the readout levels, numbered per level as in
    ``cmd_noise_study``."""
    level = READOUT_LEVELS[trial % len(READOUT_LEVELS)]
    cfg = ExperimentConfig(state="ghz", qubits=3, fraction=0.75, shots=1024,
                           noise=NoiseModel(readout_q=level), seed=seed,
                           workers=1)
    return [Run("amp", cfg, cli.run_trial(cfg, trial // len(READOUT_LEVELS)))]


def large(seed: int, trial: int) -> list[Run]:
    """GHZ n=7, settings covering half of the Pauli basis, N=1024, AMP
    capped at ``LARGE_MAX_ITER`` iterations."""
    cfg = ExperimentConfig(state="ghz", qubits=7, fraction=0.5, shots=1024,
                           max_iter=LARGE_MAX_ITER, seed=seed, workers=1)
    return [Run("amp", cfg, cli.run_trial(cfg, trial))]


# name -> (trial function, number of reference trials)
WORKLOADS = {
    "flagship": (flagship, 1),
    "noise_sweep": (noise_sweep, len(READOUT_LEVELS)),
    "large": (large, 1),
}


def schedule(name: str, seed: int):
    """Yield ``(config seed, trial, is_reference)``: the reference trials,
    then the seeded trials without end."""
    _, references = WORKLOADS[name]
    for trial in range(references):
        yield REFERENCE_SEED, trial, True
    trial = 0
    while True:
        yield seed, trial, False
        trial += 1


def separates_ghz_sign(words) -> bool:
    """Whether a plan tells ``|0..0> + |1..1>`` from ``|0..0> - |1..1>``.

    The two GHZ states agree on every Pauli observable except the words of
    X and Y alone with an even number of Y, whose expectations they give
    opposite signs. Such a word is measured only by the setting equal to it,
    so a plan without one leaves the sign open: the data fit both states.
    At n=3 and fraction 0.75, about 4% of plans miss all four of these
    settings, and AMP then ends on either state, or between them.
    """
    return any(set(w) <= {"X", "Y"} and w.count("Y") % 2 == 0 for w in words)


def determined(run: Run) -> bool:
    """Whether the run's measurement plan pins its true state down. Only the
    GHZ workloads are checked, by the sign above; the flagship's random
    rank-3 state is taken as determined by its 384 observables."""
    if run.cfg.state != "ghz":
        return True
    plan, _ = cli.build_plan(run.cfg, run.result.trial)
    return separates_ghz_sign(plan.words)


def failure(run: Run) -> str | None:
    """Why a run counts as failed, or None.

    ``run_trial`` reports a failed recovery (divergence) as fidelity 0, and
    AMP runs without early stop, so stopping short of the cap is a failure.
    An estimate no closer to the truth than the zero matrix (NMSE >= 1) has
    not recovered the state either, when the plan determines that state.
    Where it does not (see ``separates_ghz_sign``), an estimate far from the
    truth still fits the data, and the run is reported as undetermined in
    the detail record instead.
    """
    r = run.result
    if not math.isfinite(r.nmse):
        return f"non-finite nmse {r.nmse}"
    if not 0.0 < r.fidelity_truth <= 1.0:
        return f"fidelity {r.fidelity_truth} outside (0, 1]"
    if run.cfg.algorithm == "amp" and r.iters != run.cfg.solver_max_iter():
        return f"stopped after {r.iters} of {run.cfg.solver_max_iter()} iterations"
    if r.trace is not None and r.trace.diverged:
        return "trace marked diverged"
    if r.nmse >= 1.0 and determined(run):
        return f"nmse {r.nmse} >= 1: no closer to the truth than zero"
    return None


def iters_to_target(run: Run) -> int:
    """First iteration whose traced NMSE is below ``TARGET_NMSE``; one past
    the last iteration if none is, 0 without per-iteration truth metrics."""
    trace = run.result.trace
    if trace is None or trace.nmse is None:
        return 0
    for t, value in enumerate(trace.nmse, start=1):
        if value < TARGET_NMSE:
            return t
    return len(trace.nmse) + 1


def noise_direction_ok(trials: list[list[Run]]) -> bool:
    """Mean estimated fidelity of the recovered trials does not rise with
    the readout level (acceptance criterion 9's direction). Failed trials
    are counted as failures instead, and trials whose plan leaves the state
    open are left out: their fidelity shows the plan, not the noise."""
    by_level: dict[float, list[float]] = {q: [] for q in READOUT_LEVELS}
    for runs in trials:
        for run in runs:
            if failure(run) is None and determined(run):
                by_level[run.cfg.noise.readout_q].append(run.result.fidelity_target)
    if not all(by_level.values()):
        return False
    means = [sum(v) / len(v) for _, v in sorted(by_level.items())]
    return all(a >= b for a, b in zip(means, means[1:]))
