"""``impressions analyze`` — the detlint static-analysis gate.

::

    impressions analyze [PATHS ...] [--rule RULE ...] [--baseline FILE]
                        [--write-baseline] [--json] [--list-rules]
                        [--root DIR] [--obs-dir DIR]

Runs the determinism / cache-soundness rule suite over the given paths
(default: ``src`` when it exists, else the current directory) and reports
findings with precise spans and fix hints.

Exit status: 0 when every finding is covered by the baseline (or there are
none), 1 when new findings exist, 2 on usage errors.  ``--write-baseline``
accepts the current findings as debt and rewrites the baseline file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import Baseline, split_findings
from repro.analysis.core import AnalysisError, analyze, rule_descriptions
from repro.analysis.report import render_json, render_text

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impressions analyze",
        description=(
            "Static analysis for determinism and cache soundness: knob purity, "
            "nondeterministic enumeration, exception safety, durability discipline."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to analyze (default: 'src' if present, else '.')",
    )
    parser.add_argument(
        "--rule",
        action="append",
        metavar="RULE",
        default=None,
        help="run only this rule (exact name, or a family prefix such as "
        "'nondet'); repeatable",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline file of accepted findings; new findings still fail",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite --baseline with the current findings and exit 0",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="root that display paths and baseline keys are relative to "
        "(default: current directory)",
    )
    parser.add_argument(
        "--obs-dir",
        metavar="PATH",
        default=None,
        help="export analyzer telemetry (file/finding counters) to this directory",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, description in rule_descriptions().items():
            print(f"{name}: {description}")
        return 0

    if args.write_baseline and not args.baseline:
        parser.error("--write-baseline requires --baseline FILE")

    paths = list(args.paths)
    if not paths:
        paths = ["src"] if Path("src").is_dir() else ["."]

    from repro import obs

    telemetry = obs.Telemetry(run_id="detlint") if args.obs_dir else obs.NULL
    try:
        with obs.use(telemetry):
            result = analyze(paths, rules=args.rule, root=args.root)
    except AnalysisError as error:
        print(f"impressions analyze: error: {error}", file=sys.stderr)
        return 2

    if args.obs_dir:
        obs.save(telemetry, args.obs_dir)

    baseline_path = Path(args.baseline) if args.baseline else None
    if args.write_baseline:
        assert baseline_path is not None
        Baseline.from_findings(result.findings).save(baseline_path)
        print(
            f"wrote baseline with {len(result.findings)} finding(s) to {baseline_path}"
        )
        return 0

    baseline = None
    if baseline_path is not None and baseline_path.exists():
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, KeyError, OSError) as error:
            print(
                f"impressions analyze: error: bad baseline {baseline_path}: {error}",
                file=sys.stderr,
            )
            return 2

    split = split_findings(result.findings, baseline)
    report = render_json(result, split) if args.json else render_text(result, split)
    print(report)
    return 1 if split.new else 0


if __name__ == "__main__":
    raise SystemExit(main())
