"""Command line: ``python -m perfbench measure|run|compare``.

``measure`` is the command ``BENCHMARK.json`` names: one run of one workload
in this process.  It prints every metric by name and unit and, as its last
line, the result JSON.  ``run`` runs workloads in fresh subprocesses and
writes one result file with provenance; ``compare`` reads two result files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench import ROOT


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser("measure", help="one run of one workload (the benchmark command)")
    measure.add_argument("--workload", required=True)
    measure.add_argument("--seed", type=int, default=42)
    measure.add_argument("--seconds", type=float, default=15.0)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.add_argument("--trace-dir", default=None,
                         help="where a traced run writes trace.json and layers.json "
                         "(default .perfbench/trace/<workload>)")
    measure.add_argument("--detail", default=None, help="write the detail JSON here")
    measure.add_argument("--smoke", action="store_true", help="tiny inputs (tests)")

    run = commands.add_parser("run", help="workloads in fresh subprocesses, one result file")
    run.add_argument("--workload", action="append", default=None,
                     help="repeatable; default every workload in BENCHMARK.json")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--seconds", type=float, default=None,
                     help="default: run_seconds from BENCHMARK.json")
    run.add_argument("--runs", type=int, default=1,
                     help="runs per workload, with seeds seed, seed+1, ...")
    run.add_argument("--json", default=None, help="write the result file here")
    run.add_argument("--trace", default=None, metavar="DIR",
                     help="also do one traced run per workload, writing DIR/<workload>/")
    run.add_argument("--smoke", action="store_true", help="tiny inputs (tests)")

    compare = commands.add_parser("compare", help="compare two result files of `run`")
    compare.add_argument("parent")
    compare.add_argument("change")

    args = parser.parse_args(argv)
    if args.command == "measure":
        return _measure(args, parser)
    if args.command == "run":
        from perfbench.suite import run_suite

        return run_suite(args)
    from perfbench.compare import compare_files

    return compare_files(args.parent, args.change)


def _measure(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    src = ROOT / "src"
    if src.is_dir() and str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        from perfbench.measure import measure
        from perfbench.workloads import WORKLOADS
    except ImportError as error:
        print(f"perfbench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    trace_dir = args.trace_dir or str(Path(".perfbench", "trace", args.workload))
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.smoke, trace_dir)
    print(f"{args.workload}: seed {args.seed}, {detail['rounds']} rounds in "
          f"{detail['measured_s']:.1f} s, jobs {detail['provenance']['jobs']}")
    rows = detail["per_layer"] if args.trace else {**detail["end_to_end"], **detail["named"]}
    for name, row in rows.items():
        line = f"  {name:<28} {row.get('value', row.get('median')):>14.6g} {row['unit']:<8}"
        if "median" in row:
            line += (f" n={row['n']} median={row['median']:.6g} q1={row['q1']:.6g} "
                     f"q3={row['q3']:.6g} min={row['min']:.6g} max={row['max']:.6g}")
        print(line)
    if args.trace:
        print(f"  trace: {trace_dir}/trace.json, {trace_dir}/layers.json")
    print(f"checks: {detail['checks']} run, {len(detail['failed_checks'])} failed"
          + "".join(f"\n  FAILED {name}" for name in detail["failed_checks"]))
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(detail, handle, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
