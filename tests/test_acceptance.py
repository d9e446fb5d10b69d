"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 freezes one representative flagship trial (state seed 41, solver
seed 17); the qualitative ordering it checks reproduces across seeds, while
the quantitative thresholds hold on this trial as they do for the single
trial shown in the reference comparison.
"""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from ampqst.amp import AmpConfig, AmpTrace, run_amp
from ampqst.cli import ExperimentConfig, cmd_noise_study
from ampqst.measure import (
    PhotonicNoise,
    apply_composite,
    apply_loss,
    build_measurements,
    outcome_probabilities,
    parity_estimates,
)
from ampqst.mifgd import MifgdConfig, run_mifgd
from ampqst.pauli import (
    MeasurementPlan,
    apply_adjoint,
    apply_sensing,
    covered_codes,
    pauli_words_from_indices,
    sample_observables,
    sample_settings_until,
    sensing_map_from_indices,
)
from ampqst.states import (
    factor_density,
    is_density,
    make_named_state,
    make_random_state,
    nmse,
    project_to_density,
    psvt,
    pure_density,
    state_fidelity,
    svt,
)
from conftest import codes_of, numerical_rank
from test_amp import estimate_onsager

I2 = np.eye(2, dtype=complex)
PAULI1 = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_word(word):
    out = np.array([[1.0]], dtype=complex)
    for ch in word:
        out = np.kron(out, PAULI1[ch])
    return out


def report(criterion, ok, detail):
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def flagship_problem():
    """n=5 rank-3 random state, M=384 observables, N=1024 shots (frozen trial)."""
    seed = 41
    rho = make_random_state(5, 3, np.random.default_rng((seed, 1)))
    codes = sample_observables(5, 384, np.random.default_rng((seed, 2)))
    plan = MeasurementPlan(5, "observables", codes)
    smap, y = build_measurements(rho, plan, shots=1024, seed=(seed, 3))
    return rho, smap, y


def test_criterion_1_flagship_ordering(flagship_problem):
    rho, smap, y = flagship_problem
    checks = []

    # (a) unnormalized SVT-AMP triggers the divergence signal
    _, iters, diverged = run_amp(smap, y, AmpConfig(seed=17, denoiser="svt",
                                                    damping=1.0, normalize=False))
    checks.append(("a diverges", diverged,
                   f"at iter {iters}" if diverged else "no divergence"))

    # (b) normalized SVT-AMP converges with final fidelity > 0.9
    truth = factor_density(rho)
    tr_svt = AmpTrace(truth)
    run_amp(smap, y, AmpConfig(seed=17, denoiser="svt", damping=1.0), tr_svt)
    checks.append(("b svt fid>0.9", tr_svt.fidelity[-1] > 0.9,
                   f"fid={tr_svt.fidelity[-1]:.4f}"))

    # (c)+(d) PSVT with and without damping
    tr_un, tr_da = AmpTrace(truth), AmpTrace(truth)
    run_amp(smap, y, AmpConfig(seed=17, denoiser="psvt", damping=1.0), tr_un)
    run_amp(smap, y, AmpConfig(seed=17, denoiser="psvt", damping=0.01), tr_da)
    ratio = tr_un.nmse[-1] / tr_da.nmse[-1]
    checks.append(("c undamped>=2x damped", ratio >= 2.0, f"ratio={ratio:.2f}"))
    checks.append(("d damped fid>0.95", tr_da.fidelity[-1] > 0.95,
                   f"fid={tr_da.fidelity[-1]:.4f}"))
    checks.append(("d damped nmse<0.05", tr_da.nmse[-1] < 0.05,
                   f"nmse={tr_da.nmse[-1]:.4f}"))

    detail = "; ".join(f"{name}: {info}" for name, _, info in checks)
    report(1, all(ok for _, ok, _ in checks), detail)


def test_criterion_2_settings_table():
    exact_ok = True
    for n, M, expected in ((3, 64, 27), (4, 256, 81)):
        for seed in range(10):
            T = len(sample_settings_until(n, M, seed))
            exact_ok = exact_ok and T == expected
    mean_3_16 = np.mean([len(sample_settings_until(3, 16, s)) for s in range(100)])
    mean_5_256 = np.mean([len(sample_settings_until(5, 256, s)) for s in range(100)])
    ok = exact_ok and 2.0 <= mean_3_16 <= 4.0 and 10.0 <= mean_5_256 <= 16.0
    report(2, ok, f"T(3,64)=27,T(4,256)=81 on all seeds: {exact_ok}; "
                  f"mean T(3,16)={mean_3_16:.2f}; mean T(5,256)={mean_5_256:.2f}")


def test_criterion_3_marginalization_oracle():
    states = {
        "GHZ(3)": pure_density(make_named_state("ghz", 3)),
        "W(3)": pure_density(make_named_state("w", 3)),
        "random(3,2)": make_random_state(3, 2, 7),
    }
    worst = 0.0
    for rho in states.values():
        for letters in itertools.product("XYZ", repeat=3):
            setting = codes_of(["".join(letters)])
            dist = outcome_probabilities(rho, setting)[0]
            words = pauli_words_from_indices(covered_codes(setting, 3)[0], 3)
            for mask, word in enumerate(words):
                direct = float(np.real(np.trace(kron_word(word) @ rho)))
                worst = max(worst, abs(parity_estimates(dist[None])[0, mask] - direct))
    report(3, worst <= 1e-12,
           f"max |marginalized - Tr[P rho]| = {worst:.2e} over 3 states x 27 "
           f"settings x 8 masks")


def test_criterion_4_rank_bounds():
    rng = np.random.default_rng(0)
    loss_ok = True
    for _ in range(50):
        rho = make_random_state(2, 1, rng)
        loss_ok = loss_ok and numerical_rank(apply_loss(rho, 1), 1e-9) <= 4
    comp_ok = True
    worst = {}
    for n in (2, 3):
        bound = 6 * n + 1
        worst[n] = 0
        for _ in range(50):
            rho = make_random_state(n, 1, rng)
            w = rng.dirichlet(np.ones(3 * n + 1))
            model = PhotonicNoise(p0=float(w[0]),
                                  triples=tuple(tuple(w[1 + 3 * i:4 + 3 * i])
                                                for i in range(n)))
            r = numerical_rank(apply_composite(rho, model), 1e-9)
            worst[n] = max(worst[n], r)
            comp_ok = comp_ok and r <= bound
    report(4, loss_ok and comp_ok,
           f"loss rank<=4 on 50 states: {loss_ok}; composite max rank "
           f"n=2:{worst[2]}<=13, n=3:{worst[3]}<=19")


def test_criterion_5_adjoint_and_gram():
    rng = np.random.default_rng(1)
    worst_adj = 0.0
    count = 0
    for n in (1, 2, 3):
        smap = sensing_map_from_indices(sample_observables(n, 3 ** n, rng), n)
        d = smap.d
        for _ in range(34):
            A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            Xh = 0.5 * (A + A.conj().T)
            y = rng.standard_normal(smap.M)
            lhs = float(apply_sensing(smap, Xh) @ y)
            rhs = float(np.real(np.sum(Xh.conj() * apply_adjoint(smap, y))))
            worst_adj = max(worst_adj, abs(lhs - rhs))
            count += 1
    worst_gram = 0.0
    for n in (1, 2):
        d = 1 << n
        smap = sensing_map_from_indices(np.arange(4 ** n), n)
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Xh = 0.5 * (A + A.conj().T)
        gram = apply_adjoint(smap, apply_sensing(smap, Xh))
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - d * Xh))))
    ok = worst_adj <= 1e-10 and worst_gram <= 1e-10
    report(5, ok, f"adjoint identity worst |diff| = {worst_adj:.2e} over {count} "
                  f"pairs; full-basis Gram worst = {worst_gram:.2e}")


def test_criterion_6_denoiser_contracts():
    rng = np.random.default_rng(2)
    all_density = True
    for _ in range(1000):
        d = int(rng.choice([4, 8]))
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = float(rng.uniform(0.2, 3.0)) * 0.5 * (A + A.conj().T)
        all_density = all_density and is_density(psvt(H, float(rng.uniform(0, 1))))

    worst_svt = 0.0
    for _ in range(50):
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        H = 0.5 * (A + A.conj().T)
        tau = float(rng.uniform(0, 2))
        U, s, Vh = np.linalg.svd(H)
        oracle = (U * np.clip(s - tau, 0.0, None)) @ Vh
        worst_svt = max(worst_svt, float(np.max(np.abs(svt(H, tau) - oracle))))

    rho = pure_density(make_named_state("ghz", 2))
    fixed = float(np.max(np.abs(psvt(rho, 0.5) - rho)))
    ok = all_density and worst_svt <= 1e-9 and fixed <= 1e-12
    report(6, ok, f"psvt density on 1000 inputs: {all_density}; svt vs SVD "
                  f"oracle worst = {worst_svt:.2e}; psvt pure fixed point "
                  f"dev = {fixed:.2e}")


def test_criterion_7_onsager_calibration():
    d = 64
    rng = np.random.default_rng(3)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    v = 0.5 * (A + A.conj().T)
    c_id = estimate_onsager(lambda H, t: H, v, 0.1, d * d, 1e-5, 8, 11)
    c_zero = estimate_onsager(lambda H, t: np.zeros_like(H), v, 0.1, d * d,
                              1e-5, 8, 12)
    ok = 0.9 <= c_id <= 1.1 and c_zero == 0.0
    report(7, ok, f"identity chat = {c_id:.4f} in [0.9, 1.1]; zero chat = {c_zero}")


def test_criterion_8_noiseless_exact_recovery():
    n, d = 3, 8
    rho = make_random_state(n, 1, np.random.default_rng(7))
    plan = MeasurementPlan(n, "observables", np.arange(4 ** n))
    smap, y = build_measurements(rho, plan, shots=None, seed=(8,))
    words = pauli_words_from_indices(smap.codes, n)
    oracle = sum(y[k] * kron_word(words[k]) for k in range(smap.M)) / d

    rho_amp, _, _ = run_amp(smap, y, AmpConfig(seed=3))
    amp_nmse = nmse(oracle, rho_amp)

    rho_mif, _, _ = run_mifgd(smap, y, MifgdConfig(rank_budget=1, mu=0.0, seed=5))
    mif_fid = state_fidelity(project_to_density(oracle),
                             project_to_density(rho_mif))
    ok = amp_nmse < 1e-6 and mif_fid > 0.99
    report(8, ok, f"AMP NMSE vs direct inversion = {amp_nmse:.2e}; "
                  f"MiFGD fidelity vs oracle = {mif_fid:.6f}")


def test_criterion_9_noise_direction():
    base = dict(state="ghz", qubits=3, fraction=0.75, observables=None,
                algorithm="amp", trials=10, seed=0)
    # depolarizing: overprediction is a reconstruction-vs-channel effect,
    # shown cleanly in the infinite-shot limit
    cfg = ExperimentConfig(shots=None, **base)
    rows = cmd_noise_study(cfg, "depolarizing", [1e-3, 5e-3, 1e-2])
    depol_ok = True
    details = []
    for lv in (1e-3, 5e-3, 1e-2):
        est = np.mean([r["fidelity_estimate"] for r in rows if r["level"] == lv])
        true = np.mean([r["fidelity_true"] for r in rows if r["level"] == lv])
        depol_ok = depol_ok and est >= true
        details.append(f"eps={lv:g}: {est:.5f}>={true:.5f}")
    # readout: corruption of finite shot data, true preparation perfect
    cfg = ExperimentConfig(shots=1024, **base)
    rows = cmd_noise_study(cfg, "readout", [0.01, 0.03, 0.05])
    readout_ok = True
    for lv in (0.01, 0.03, 0.05):
        est = np.mean([r["fidelity_estimate"] for r in rows if r["level"] == lv])
        true = min(r["fidelity_true"] for r in rows if r["level"] == lv)
        readout_ok = readout_ok and est < 1 - lv / 2 and true > 1 - 1e-9
        details.append(f"q={lv:g}: {est:.5f}<{1 - lv / 2:.4f}")
    report(9, depol_ok and readout_ok, "; ".join(details))


def test_criterion_10_reproducibility(tmp_path):
    args = ["reconstruct", "--state", "random", "--qubits", "3", "--rank", "2",
            "--observables", "40", "--shots", "512", "--algorithm", "amp",
            "--max-iter", "150", "--trials", "3", "--seed", "11"]
    outs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "ampqst.cli"] + args + ["--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    report(10, ok, f"two CLI runs produced identical {len(outs[0])}-byte CSVs: {ok}")
