"""One run of one workload: the measurement behind ``python -m perfbench measure``.

The run sets the workload up ``SETUPS`` times, and times the import of the
program as often, each in a fresh interpreter; ``setup_s`` is the median of
their sums.  It then runs one untimed warm-up round of the workload's legs
and repeats timed rounds until ``seconds`` have passed and at least
``MIN_ROUNDS`` rounds ran.  A rate is a leg's work per second over one pass
of its inputs (:func:`leg_rate`).  Untraced runs report the end-to-end metrics, with
every time speed-corrected (:mod:`perfbench.speed`).  Traced runs alternate
untraced and traced rounds, so the same run measures the tracing overhead,
and report the per-layer metrics, from wall times.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from perfbench import ROOT, subprocess_env
from perfbench.compare import summarize
from perfbench.probes import COMMON_METRICS, Probes, leg_layers, per_layer
from perfbench.recorder import Recorder
from perfbench.speed import SpeedClock
from perfbench.workloads import JOBS, WORKLOADS, Checks, LegClock, Repeat

#: The first set-up in a process pays one-off costs and runs about three times
#: as long as the others, so a median of three would be the slower of two.
#: Smoke runs set up twice, enough for the determinism check.
SETUPS = 5
SMOKE_SETUPS = 2
MIN_ROUNDS = 2

#: End-to-end metrics every workload reports (name -> unit).  The rates are
#: units of the leg's work per second: files generated, MB materialized,
#: or trace operations replayed.
END_TO_END = {
    "setup_s": "s",
    "primary_rate": "1/s",
    "secondary_rate": "1/s",
    "peak_rss_mb": "MB",
}


def leg_rate(repeats: list[Repeat]) -> float:
    """Work per second over one pass of the leg's inputs, each at its median time.

    The inputs a leg takes turns over can differ in cost by up to 18% (churn
    traces do), so the median rate over all repeats would be that of
    whichever input sits in the middle; this weighs every input once.
    """
    by_variant: dict[int, list[Repeat]] = defaultdict(list)
    for repeat in repeats:
        by_variant[repeat.variant].append(repeat)
    work = sum(group[0].work for group in by_variant.values())
    seconds = sum(statistics.median(r.seconds for r in group) for group in by_variant.values())
    return work / seconds


def provenance(seed: int, configs: dict) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = _git("rev-parse", "HEAD") or None
            dirty = bool(_git("status", "--porcelain"))
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "config_fingerprints": {name: config.fingerprint() for name, config in configs.items()},
        "nproc": os.cpu_count(),
        "jobs": JOBS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return done.stdout.strip()


def import_seconds() -> float:
    """Corrected seconds a fresh interpreter takes to import the benchmarked program."""
    code = ("import importlib; from perfbench.speed import SpeedClock; "
            "print(SpeedClock().time(lambda: importlib.import_module('perfbench.workloads'))[0])")
    done = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            trace_dir: str) -> tuple[dict, dict]:
    """Run workload ``name`` once; returns ``(result line, detail document)``."""
    setup_count = SMOKE_SETUPS if smoke else SETUPS
    imports = [import_seconds() for _ in range(setup_count)]
    checks = Checks()
    recorder = Recorder() if trace else None
    probes = Probes(recorder) if trace else None
    work_dir = os.path.join(".perfbench", "work", f"{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, smoke, work_dir, checks)
        setups, identities = [], []
        speed = SpeedClock()
        for _ in range(setup_count):
            gc.collect()
            if probes is None:
                setups.append(speed.time(workload.setup)[0])
            else:
                probes.install()
                try:
                    with recorder.span("setup"):
                        start = time.perf_counter()
                        workload.setup()
                        setups.append(time.perf_counter() - start)
                finally:
                    probes.uninstall()
            identities.append(workload.identity())
        checks.check("set-up is deterministic for the seed",
                     all(identity == identities[0] for identity in identities))
        workload.warm_up()
        legs = [leg for leg, _, _ in workload.legs]
        for leg in legs:  # a warm-up round, checked but not timed
            workload.run_leg(leg, LegClock())

        untraced = {leg: [] for leg in legs}
        traced = {leg: [] for leg in legs}
        rounds = 0
        start = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            tracing = trace and rounds % 2 == 1
            if tracing:
                probes.install()
            try:
                clock = LegClock(recorder if tracing else None)
                for leg in legs:
                    (traced if tracing else untraced)[leg].append(workload.run_leg(leg, clock))
            finally:
                if tracing:
                    probes.uninstall()
            rounds += 1
        measured_s = time.perf_counter() - start
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rates = {leg: [repeat.work / repeat.seconds for repeat in untraced[leg]] for leg in legs}
    samples = {
        "setup_s": [load + value for load, value in zip(imports, setups)],
        "primary_rate": rates[legs[0]],
        "secondary_rate": rates[legs[1]],
        "peak_rss_mb": [peak_rss_mb],
    }
    values = {
        "setup_s": statistics.median(samples["setup_s"]),
        "primary_rate": leg_rate(untraced[legs[0]]),
        "secondary_rate": leg_rate(untraced[legs[1]]),
        "peak_rss_mb": peak_rss_mb,
    }
    end_to_end = {
        metric: {**summarize(samples[metric]), "value": values[metric], "unit": unit,
                 "samples": samples[metric]}
        for metric, unit in END_TO_END.items()
    }
    # Each leg under its own name, the failure share and the other fidelity values.
    named = {"failed_frac": ([checks.failed / max(checks.attempted, 1)], "ratio")}
    for leg, metric, unit in workload.legs:
        if metric.endswith("_per_s"):
            named[metric] = (rates[leg], f"{unit}/s")
        else:
            named[metric] = ([repeat.seconds for repeat in untraced[leg]], "s")
    for metric, value in workload.fidelity_values.items():
        named[metric] = ([value], "ratio")

    if trace:
        layers = _layer_metrics(workload, recorder, untraced, traced)
        _write_trace(trace_dir, recorder, probes, workload, layers, seed, traced)
        metrics = {metric: layers[metric] for metric in COMMON_METRICS}
    else:
        layers = {}
        metrics = {metric: (end_to_end[metric]["value"], unit) for metric, unit in END_TO_END.items()}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": name,
        "trace": trace,
        "smoke": smoke,
        "rounds": rounds,
        "measured_s": measured_s,
        "provenance": provenance(seed, workload.configs()),
        "legs": {
            leg: {
                "metric": metric,
                "work_unit": unit,
                "seconds": [repeat.seconds for repeat in untraced[leg]],
                "walls_s": [repeat.wall for repeat in untraced[leg]],
                "variants": [repeat.variant for repeat in untraced[leg]],
            }
            for leg, metric, unit in workload.legs
        },
        "end_to_end": end_to_end,
        "named": {key: {**summarize(values), "unit": unit} for key, (values, unit) in named.items()},
        "per_layer": {key: {"value": value, "unit": unit} for key, (value, unit) in layers.items()},
        "failed_checks": checks.failed_checks,
        "checks": len(checks.results),
        "result": result,
    }
    return result, detail


def _layer_metrics(workload, recorder, untraced, traced) -> dict[str, tuple[float, str]]:
    medians = {
        name: sum(statistics.median([repeat.wall for repeat in runs[leg]]) for leg in runs)
        for name, runs in (("untraced", untraced), ("traced", traced))
    }
    extra = workload.layer_metrics(recorder, untraced, traced)
    extra["metadata.size_ks_d"] = (workload.fidelity_values["size_ks_d"], "ratio")
    extra["namespace.depth_mdcc"] = (workload.fidelity_values["depth_mdcc"], "ratio")
    metrics = per_layer(recorder, rounds=len(next(iter(traced.values()))),
                        overhead_ratio=medians["traced"] / medians["untraced"],
                        workload_metrics=extra)
    missing = sorted(set(COMMON_METRICS) - set(metrics))
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return metrics


def _write_trace(trace_dir, recorder, probes, workload, metrics, seed, traced) -> None:
    os.makedirs(trace_dir, exist_ok=True)
    layers = leg_layers(recorder)
    summary = {
        "workload": workload.name,
        "seed": seed,
        "per_layer": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        "leg_self_seconds": layers,
        "leg_span_seconds": {root: recorder.totals[(root, root)][1] for root in layers},
        "leg_wall_seconds": {
            f"leg.{leg}": sum(repeat.wall for repeat in runs) for leg, runs in traced.items()
        },
        "missing_probes": probes.missing,
    }
    with open(os.path.join(trace_dir, "trace.json"), "w") as handle:
        json.dump(recorder.chrome_trace(summary), handle)
    with open(os.path.join(trace_dir, "layers.json"), "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
