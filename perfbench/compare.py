"""``python -m perfbench compare PARENT.json CHANGE.json``.

One row per (metric, workload), never combined into a score.  A side's
values are its run medians when it holds two or more runs per workload, and
otherwise the samples of its single run.  The verdict uses the metric's
bound from ``BENCHMARK.json`` (a share of the parent's median):

* ``unresolved`` — either side's spread (quartile distance over median) is
  wider than the bound, unless every change value reads better than every
  parent value (then ``improved``);
* ``worse`` / ``improved`` — the medians differ by more than the bound;
* ``unchanged`` — otherwise.

The fidelity values and the failure share are deterministic for a seed, so
they get absolute bounds (:data:`FIDELITY_BOUNDS`) on the difference of the
medians and are never unresolved.  Lower is better for all of them.  The
fidelity values are compared only between runs of the same seeds.
"""

from __future__ import annotations

import json
import statistics
import sys

from perfbench import ROOT

#: Absolute regression bounds of the deterministic detail values.
FIDELITY_BOUNDS = {"depth_mdcc": 0.01, "size_ks_d": 0.005, "layout_score_err": 0.01,
                   "failed_frac": 0.0}


def summarize(values: list[float]) -> dict:
    """n, median, quartiles (``statistics.quantiles``, n=4), min and max."""
    values = [float(value) for value in values]
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, relative change)``; a positive change is a regression."""
    p, c = summarize(parent), summarize(change)
    sign = 1.0 if better == "lower" else -1.0
    delta = sign * (c["median"] - p["median"]) / abs(p["median"])
    spread = max((side["q3"] - side["q1"]) / abs(side["median"]) for side in (p, c))
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if spread > bound:
        return ("improved" if all_better else "unresolved"), delta
    if delta > bound:
        return "worse", delta
    if delta < -bound:
        return "improved", delta
    return "unchanged", delta


def _values(side: dict, workload: str, metric: str) -> list[float]:
    row = side["workloads"][workload]["metrics"][metric]
    return row["values"] if len(row["values"]) > 1 else row["samples"]


def compare_files(parent_path: str, change_path: str) -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        metrics = json.load(handle)["end_to_end"]
    with open(parent_path) as handle:
        parent = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    workloads = [name for name in parent["workloads"] if name in change["workloads"]]
    print(f"{'metric':<16} {'workload':<16} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'delta':>8} {'bound':>6}  verdict")
    worse = 0
    for metric in metrics:
        name = metric["name"]
        for workload in workloads:
            p = _values(parent, workload, name)
            c = _values(change, workload, name)
            outcome, delta = verdict(p, c, metric["better"], metric["bound"])
            worse += outcome == "worse"
            sides = [f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
                     for s in (summarize(p), summarize(c))]
            print(f"{name:<16} {workload:<16} {sides[0]:>36} {sides[1]:>36} "
                  f"{delta:>+8.1%} {metric['bound']:>6.2f}  {outcome}")
    for name, bound in FIDELITY_BOUNDS.items():
        for workload in workloads:
            rows = [side["workloads"][workload]["named"].get(name) for side in (parent, change)]
            if None in rows:
                continue
            p, c = (statistics.median(row["values"]) for row in rows)
            delta = c - p
            seeds = [[run["seed"] for run in side["workloads"][workload]["runs"]]
                     for side in (parent, change)]
            if seeds[0] != seeds[1] and name != "failed_frac":  # 0 on every seed
                outcome = "seeds differ"
            else:
                outcome = "worse" if delta > bound else "improved" if delta < -bound else "unchanged"
            worse += outcome == "worse"
            print(f"{name:<16} {workload:<16} {p:>36.6g} {c:>36.6g} {delta:>+8.4f} "
                  f"{bound:>6.3f}  {outcome} (absolute)")
    if not workloads:
        print("perfbench compare: the two files share no workload", file=sys.stderr)
        return 2
    return 1 if worse else 0
