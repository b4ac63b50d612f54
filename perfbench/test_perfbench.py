"""Smoke test of the benchmark: every workload and a traced run at tiny sizes."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.compare import verdict

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACED = ("image1_content", "replay_churn")


def _start(args: list[str], cwd: Path, with_src: bool = True) -> subprocess.Popen:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    if with_src:
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    return subprocess.Popen([sys.executable, "-m", "perfbench", *args], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(process: subprocess.Popen) -> subprocess.CompletedProcess:
    try:
        stdout, stderr = process.communicate(timeout=300)
    finally:
        process.kill()
        process.wait()
    return subprocess.CompletedProcess(process.args, process.returncode, stdout, stderr)


def _perfbench(args: list[str], cwd: Path, with_src: bool = True) -> subprocess.CompletedProcess:
    return _finish(_start(args, cwd, with_src))


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    work = tmp_path_factory.mktemp("perfbench")
    # The traced runs go alongside the suite to keep the test short.
    started = _start(["run", "--smoke", "--seconds", "0", "--json", "result.json"], work)
    traced = {
        name: _start(["measure", "--workload", name, "--smoke", "--seconds", "0",
                      "--trace", "1", "--trace-dir", f"trace/{name}"], work)
        for name in TRACED
    }
    return work, _finish(started), {name: _finish(process) for name, process in traced.items()}


def test_every_workload_runs_and_every_check_passes(suite):
    work, done, _ = suite
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads((work / "result.json").read_text())
    assert sorted(document["workloads"]) == sorted(w["name"] for w in BENCHMARK["workloads"])
    for name, workload in document["workloads"].items():
        (run,) = workload["runs"]
        assert run["failed_checks"] == [], name
        assert run["result"]["correct"] and run["result"]["failed"] == 0, name
        assert run["result"]["attempted"] >= 1
    for key in ("git_sha", "config_fingerprints", "nproc", "jobs", "python", "numpy", "seed"):
        assert key in document["provenance"]


def test_every_end_to_end_metric_is_printed_with_its_unit(suite):
    work, done, _ = suite
    document = json.loads((work / "result.json").read_text())
    for metric in BENCHMARK["end_to_end"]:
        pattern = rf"^\S+\s+{re.escape(metric['name'])}\s+\S+\s.*\s{re.escape(metric['unit'])}\s+1$"
        assert len(re.findall(pattern, done.stdout, re.M)) == len(BENCHMARK["workloads"]), metric
        for name, workload in document["workloads"].items():
            row = workload["runs"][0]["result"]["metrics"][metric["name"]]
            assert row["unit"] == metric["unit"] and row["value"] > 0, (name, metric)


def test_traced_run_writes_a_chrome_trace_with_every_per_layer_metric(suite):
    work, _, traces = suite
    wanted = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    for name, done in traces.items():
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"]
        assert {key: row["unit"] for key, row in result["metrics"].items()} == wanted
        trace = json.loads((work / "trace" / name / "trace.json").read_text())
        assert set(wanted) <= set(trace["otherData"]["per_layer"])
        events = trace["traceEvents"]
        assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)
        assert all("parent" in event["args"] for event in events)
        spans = {event["name"] for event in events}
        assert {"setup", "pipeline.run", "pipeline.depth_and_placement"} <= spans
        assert any(span.startswith("leg.") for span in spans)


def test_layer_self_times_add_up_to_each_traced_leg(suite):
    work, _, _ = suite
    for name in TRACED:
        summary = json.loads((work / "trace" / name / "layers.json").read_text())
        legs = summary["leg_wall_seconds"]
        assert legs
        for leg, wall in legs.items():
            total = sum(summary["leg_self_seconds"][leg].values())
            assert abs(total - wall) <= 0.05 * wall, (name, leg, total, wall)


def test_every_name_is_well_formed(suite):
    work, _, _ = suite
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    for name in TRACED:
        names += list(json.loads((work / "trace" / name / "layers.json").read_text())["per_layer"])
    document = json.loads((work / "result.json").read_text())
    for workload in document["workloads"].values():
        names += list(workload["named"])
    bad = [name for name in names if not NAME.fullmatch(name) or len(name) > 64]
    assert bad == []


def test_compare_reads_a_result_against_itself_as_unchanged(suite):
    work, _, _ = suite
    done = _perfbench(["compare", "result.json", "result.json"], work)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:] if line.strip()]
    relative = [row for row in rows if row[-1] != "(absolute)"]
    assert len(relative) == len(BENCHMARK["end_to_end"]) * len(BENCHMARK["workloads"])
    assert all(row[-1] in ("unchanged", "unresolved") for row in relative)
    absolute = [row for row in rows if row[-1] == "(absolute)"]
    assert absolute and all(row[-2] == "unchanged" for row in absolute)


def test_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert verdict(steady, steady, "lower", 0.1)[0] == "unchanged"
    assert verdict(steady, [value * 1.3 for value in steady], "lower", 0.1)[0] == "worse"
    assert verdict(steady, [value * 1.3 for value in steady], "higher", 0.1)[0] == "improved"
    noisy = [0.5, 1.0, 1.5, 2.0]
    assert verdict(noisy, steady, "lower", 0.1)[0] == "unresolved"
    assert verdict(noisy, [0.1, 0.2, 0.3, 0.4], "lower", 0.1)[0] == "improved"


def test_measure_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _perfbench(["measure", "--workload", "replay_zipf", "--seconds", "1"], tmp_path,
                      with_src=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
