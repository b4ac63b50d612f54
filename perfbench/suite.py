"""``python -m perfbench run``: workloads in fresh subprocesses, one result file.

Every run of every workload is its own ``python -m perfbench measure``
process, so peak RSS and import cost belong to one workload.  Runs go one
after another; nothing else loads the machine meanwhile.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from perfbench import ROOT, subprocess_env
from perfbench.compare import summarize


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_suite(args) -> int:
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    for name in args.workload or ():
        if name not in names:
            print(f"perfbench run: unknown workload {name!r}; choose from {names}", file=sys.stderr)
            return 2
    names = args.workload or names
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    os.makedirs(".perfbench", exist_ok=True)
    document = {
        "benchmark": {"runs": args.runs, "seconds": seconds, "seed": args.seed, "smoke": args.smoke},
        "workloads": {},
        "traces": {},
    }
    ok = True
    for name in names:
        runs: list[dict] = []
        for index in range(args.runs):
            seed = args.seed + index
            record = _measure(name, seed, seconds, 0, args.smoke)
            ok &= record is not None and record["result"]["correct"]
            if record is not None:
                runs.append(record)
                document["provenance"] = record["provenance"]
        document["workloads"][name] = {
            "runs": runs,
            "metrics": _across_runs(runs, "end_to_end"),
            "named": _across_runs(runs, "named"),
        }
        if args.trace:
            trace_dir = str(Path(args.trace, name))
            record = _measure(name, args.seed, seconds, 1, args.smoke, trace_dir)
            ok &= record is not None and record["result"]["correct"]
            if record is not None:
                document["traces"][name] = {"dir": trace_dir, "per_layer": record["per_layer"],
                                            "provenance": record["provenance"]}
    _print_table(document)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"result file: {args.json}")
    if not ok:
        print("perfbench run: a run failed or a check did not pass", file=sys.stderr)
    return 0 if ok else 1


def _measure(name: str, seed: int, seconds: float, trace: int, smoke: bool,
             trace_dir: str | None = None) -> dict | None:
    detail_path = os.path.join(".perfbench", f"detail-{name}-{os.getpid()}.json")
    command = [sys.executable, "-m", "perfbench", "measure", "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--detail", detail_path]
    if smoke:
        command.append("--smoke")
    if trace_dir:
        command += ["--trace-dir", trace_dir]
    completed = subprocess.run(command, env=subprocess_env(), stdout=subprocess.PIPE, text=True)
    sys.stdout.write(completed.stdout)
    if completed.returncode != 0:
        print(f"perfbench run: {name} (seed {seed}) exited with {completed.returncode}",
              file=sys.stderr)
        return None
    with open(detail_path) as handle:
        detail = json.load(handle)
    os.remove(detail_path)
    return {**detail, "seed": seed}


def _across_runs(runs: list[dict], section: str) -> dict:
    """Per metric: each run's reported value (``values``), their summary, and
    every within-run sample (``samples``, what a one-run side is compared on)."""
    out: dict[str, dict] = {}
    for run in runs:
        for name, row in run[section].items():
            entry = out.setdefault(name, {"unit": row["unit"], "values": [], "samples": []})
            entry["values"].append(row.get("value", row["median"]))
            entry["samples"].extend(row.get("samples", [row["median"]]))
    for entry in out.values():
        entry.update(summarize(entry["values"]))
    return out


def _print_table(document: dict) -> None:
    print(f"\n{'workload':<16} {'metric':<22} {'median':>14} {'q1':>12} {'q3':>12} {'unit':<8} runs")
    for name, workload in document["workloads"].items():
        for section in ("metrics", "named"):
            for metric, row in workload[section].items():
                print(f"{name:<16} {metric:<22} {row['median']:>14.6g} {row['q1']:>12.6g} "
                      f"{row['q3']:>12.6g} {row['unit']:<8} {row['n']}")
    for name, trace in document["traces"].items():
        ratio = trace["per_layer"]["bench.trace_overhead_ratio"]["value"]
        print(f"{name:<16} {'bench.trace_overhead_ratio':<22} {ratio:>14.6g}  ({trace['dir']})")
