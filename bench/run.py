"""Benchmark of the ampqst reconstruction pipeline.

Run from the root of a checkout:

    python3 bench/run.py --workload flagship --seed 1 --seconds 20 --trace 0

Trials run back to back in this one process (a closed loop with one client)
until ``--seconds`` have passed; the reference trials always run. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced runs of each trial and reports per-layer
metrics. The second-to-last line of standard output is a detail record
(per-trial work, environment, per-function table); the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from tracer import Tracer, function_table, layer_metrics, layer_self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: within nproc, and steadier than two on a shared machine.
BLAS_THREADS = 1
SETUP_REPEATS = 7

# (name, unit) in the order printed.
END_TO_END = (("trial_s", "s"), ("fidelity", "1"), ("nmse", "1"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))
# Per-layer metrics that come from the trial's results rather than spans.
RESULT_LAYER = (("amp.iters", "count"), ("amp.iters_to_target", "count"),
                ("mifgd.iters", "count"), ("mifgd.fidelity", "1"))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("flagship", "noise_sweep", "large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    def blas(config) -> str:
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "commit": commit,
    }


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters importing ``ampqst.cli``, after one
    untimed import that leaves the byte-code caches written."""
    cmd = [sys.executable, "-c", "import ampqst.cli"]
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for repeat in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=60)
        if repeat:
            times.append(time.perf_counter() - start)
    return times


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"value": sorted(values)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        import workloads
        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trial_fn, _ = workloads.WORKLOADS[workload]
        self.records: list[dict] = []      # one per trial run, for the detail line
        self.failed = 0
        # correct stays true while every reference trial succeeds and the
        # workload's checks hold; failed seeded trials are only counted
        self.correct = True

    def run_trial(self, config_seed: int, trial: int, reference: bool,
                  traced: bool = False):
        """Run and time one trial; return ``(runs, seconds, tracer)`` with
        ``runs=None`` if it raised."""
        tracer = Tracer() if traced else None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                runs = self.trial_fn(config_seed, trial)
            else:
                with tracer:
                    runs = self.trial_fn(config_seed, trial)
        except Exception:       # a raising trial is a failed trial
            runs, error = None, traceback.format_exc(limit=4)
        seconds = time.perf_counter() - start
        record = {"config_seed": config_seed, "trial": trial,
                  "reference": reference, "traced": traced, "seconds": seconds,
                  "cpu_seconds": time.process_time() - cpu_start}
        if runs is None:
            record["error"] = error
            bad = True
        else:
            record["runs"] = [{
                "label": r.label, "M": r.result.M, "T": r.result.T,
                "iters": r.result.iters, "fidelity": r.result.fidelity_truth,
                "nmse": r.result.nmse, "determined": self.wl.determined(r),
                "failure": self.wl.failure(r)}
                for r in runs]
            bad = any(r["failure"] for r in record["runs"])
        self.failed += bad
        if bad and reference:
            self.correct = False
        self.records.append(record)
        return runs, seconds, tracer

    def loop(self, body) -> None:
        """Call ``body`` on the schedule until time is up and every
        reference trial has run."""
        deadline = time.perf_counter() + self.seconds
        for config_seed, trial, reference in self.wl.schedule(self.workload,
                                                              self.seed):
            if not reference and time.perf_counter() >= deadline:
                break
            body(config_seed, trial, reference)

    def untraced(self) -> tuple[dict, dict]:
        setup = measure_setup()
        times, reference_amp, all_runs = [], [], []

        def body(config_seed, trial, reference):
            runs, seconds, _ = self.run_trial(config_seed, trial, reference)
            times.append(seconds)
            if runs is not None:
                all_runs.append(runs)
                if reference:
                    reference_amp.extend(r.result for r in runs if r.label == "amp")

        self.loop(body)
        if not reference_amp:
            raise RuntimeError("no reference trial completed")
        if self.workload == "noise_sweep" and not self.wl.noise_direction_ok(all_runs):
            self.correct = False
        metrics = {
            "trial_s": statistics.median(times),
            "fidelity": statistics.fmean(r.fidelity_truth for r in reference_amp),
            "nmse": statistics.fmean(r.nmse for r in reference_amp),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        extra = {"setup_s_samples": setup, "trial_s_tail": tail(times),
                 "trial_s_samples": len(times)}
        return {name: {"value": metrics[name], "unit": unit}
                for name, unit in END_TO_END}, extra

    def traced(self) -> tuple[dict, dict]:
        plain_times, traced_times, per_trial = [], [], []
        first = None

        def outcome(runs):
            return [(r.result.nmse, r.result.fidelity_truth, r.result.iters)
                    for r in runs]

        def body(config_seed, trial, reference):
            nonlocal first
            plain, plain_s, _ = self.run_trial(config_seed, trial, reference)
            runs, seconds, tracer = self.run_trial(config_seed, trial,
                                                   reference, traced=True)
            if plain is None or runs is None:       # counted as failed
                return
            if outcome(plain) != outcome(runs):     # tracing changed a result
                self.correct = False
                return
            plain_times.append(plain_s)
            traced_times.append(seconds)
            per_trial.append(layer_metrics(tracer))
            if first is None:
                first = (runs, tracer)

        self.loop(body)
        if first is None:
            raise RuntimeError("no traced trial completed")
        runs, tracer = first
        amp = next((r for r in runs if r.label == "amp"), None)
        mifgd = next((r for r in runs if r.label == "mifgd"), None)
        values = {}
        for name in per_trial[0]:
            samples = [m[name] for m in per_trial]
            # counts repeat exactly: take the first trial's; times: the median
            values[name] = samples[0] if name.endswith(".calls") \
                else statistics.median(samples)
        values.update({
            "amp.iters": amp.result.iters if amp else 0,
            "amp.iters_to_target": self.wl.iters_to_target(amp) if amp else 0,
            "mifgd.iters": mifgd.result.iters if mifgd else 0,
            "mifgd.fidelity": mifgd.result.fidelity_truth if mifgd else 0.0,
            "trace_overhead": statistics.median(traced_times)
            / statistics.median(plain_times),
        })
        units = dict(RESULT_LAYER, trace_overhead="ratio")
        metrics = {name: {"value": value, "unit": units.get(
            name, "count" if name.endswith(".calls") else "s")}
            for name, value in values.items()}
        extra = {"absent": tracer.absent,
                 "functions": function_table(tracer),
                 "layer_self_s": layer_self_times(tracer),
                 "traced_trials": len(per_trial)}
        return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ampqst", "cli.py")):
        print(f"error: no ampqst sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import ampqst
    if os.path.dirname(os.path.abspath(ampqst.__file__)) != os.path.join(SRC, "ampqst"):
        print(f"error: imported ampqst from {ampqst.__file__}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    metrics, extra = bench.traced() if args.trace else bench.untraced()
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), **extra, "trials": bench.records}
    print(json.dumps({"detail": detail}))
    # a non-finite metric makes this raise: no result rather than invalid JSON
    print(json.dumps({"correct": bench.correct,
                      "attempted": len(bench.records),
                      "failed": bench.failed, "metrics": metrics},
                     allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
