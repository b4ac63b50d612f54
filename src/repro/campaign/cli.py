"""``impressions campaign`` subcommands.

Five verbs::

    impressions campaign run sweep.json --store results.jsonl --workers 4
    impressions campaign list sweep.json --store results.jsonl
    impressions campaign report --store results.jsonl --metric find.elapsed_ms
    impressions campaign compare baseline.jsonl results.jsonl --tolerance 0.1
    impressions campaign compare results.jsonl --against-git main
    impressions campaign gc --store results.jsonl --dry-run

``run`` expands the spec, executes pending scenarios across a worker pool,
and appends result rows to the store (scenarios whose fingerprint is already
stored are skipped — re-running a finished campaign is free).  ``list`` shows
the expanded grid with fingerprints and completion state.  ``report`` renders
per-metric tables across the sweep axes.  ``compare`` diffs two stores and
exits nonzero when it finds metric regressions beyond the tolerance, so it
can gate CI; ``--against-git REV`` resolves the baseline store from a git
revision instead of a second path — extracting the committed artifact with
``git show``, or (with ``--spec``) regenerating it from that revision's code
in a temporary worktree.  ``gc`` compacts a long-lived store down to the
newest row per fingerprint (``--dry-run`` reports the reclaimable bytes).
Every verb accepts ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.campaign.report import compare, metric_names, render_report
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec, SpecError
from repro.campaign.store import ResultStore, StoreError
from repro.pipeline.registry import post_stage_names
from repro.pipeline.stage import PipelineError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impressions campaign",
        description="Declarative scenario sweeps with parallel execution and regression tracking.",
        epilog=f"Registered steps: {', '.join(post_stage_names())}.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="execute a campaign spec")
    run.add_argument("spec", help="campaign spec (JSON file)")
    run.add_argument(
        "--store",
        default="campaign-results.jsonl",
        metavar="PATH",
        help="JSONL result store to append to (default: %(default)s)",
    )
    run.add_argument(
        "--workers", type=int, default=1, help="worker processes (default: %(default)s)"
    )
    run.add_argument(
        "--force", action="store_true", help="re-run scenarios already in the store"
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=(
            "stage-cache directory: scenarios sharing generation knobs "
            "reuse the cached image instead of regenerating it"
        ),
    )
    run.add_argument("--json", action="store_true", help="print a JSON summary")
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-scenario progress and heartbeats"
    )
    run.add_argument(
        "--obs-dir",
        metavar="PATH",
        default=None,
        help=(
            "observe the whole sweep: every scenario runs under telemetry, "
            "per-worker snapshots merge into one parent snapshot written here"
        ),
    )
    run.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between live progress beats on stderr (default: %(default)s)",
    )

    lst = commands.add_parser("list", help="show a spec's expanded scenarios")
    lst.add_argument("spec", help="campaign spec (JSON file)")
    lst.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="result store to check completion against",
    )
    lst.add_argument("--json", action="store_true", help="print scenarios as JSON")

    report = commands.add_parser("report", help="render result tables across the sweep")
    report.add_argument("--store", required=True, metavar="PATH", help="JSONL result store")
    report.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="NAME",
        help="metric to include (repeatable; default: all)",
    )
    report.add_argument("--json", action="store_true", help="print rows as JSON")

    cmp_parser = commands.add_parser(
        "compare", help="diff two result stores and flag regressions"
    )
    cmp_parser.add_argument(
        "stores",
        nargs="+",
        metavar="STORE",
        help=(
            "BASELINE CANDIDATE store paths (JSONL); with --against-git, just "
            "CANDIDATE — the baseline is resolved from the revision"
        ),
    )
    cmp_parser.add_argument(
        "--against-git",
        metavar="REV",
        default=None,
        help=(
            "resolve the baseline from a git revision: extract the store "
            "committed at REV (git show), or regenerate it from REV's code "
            "in a temporary worktree when --spec is given"
        ),
    )
    cmp_parser.add_argument(
        "--git-path",
        metavar="PATH",
        default=None,
        help=(
            "store path to look up at the revision (default: the candidate "
            "store's path)"
        ),
    )
    cmp_parser.add_argument(
        "--spec",
        metavar="PATH",
        default=None,
        help="campaign spec for regenerating a baseline missing at the revision",
    )
    cmp_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes for a regeneration run"
    )
    cmp_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="allowed relative metric change (default: %(default)s)",
    )
    cmp_parser.add_argument(
        "--allow-missing",
        action="store_true",
        help=(
            "do not fail when the candidate store is missing baseline scenarios "
            "(by default an incomplete candidate fails the gate)"
        ),
    )
    cmp_parser.add_argument(
        "--obs",
        action="store_true",
        help=(
            "treat STORE paths as telemetry artifacts (--obs-dir directories "
            "or events.jsonl files) and diff their metric snapshots instead "
            "of result stores"
        ),
    )
    cmp_parser.add_argument("--json", action="store_true", help="print the diff as JSON")

    gc = commands.add_parser(
        "gc", help="compact a store: keep only the newest row per fingerprint"
    )
    gc.add_argument("--store", required=True, metavar="PATH", help="JSONL result store")
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be dropped and the bytes reclaimed, change nothing",
    )
    gc.add_argument("--json", action="store_true", help="print the report as JSON")
    return parser


def _run_run(args: argparse.Namespace) -> int:
    spec = CampaignSpec.load(args.spec)
    progress = None if (args.quiet or args.json) else lambda line: print(line)
    # Live progress goes to stderr so --json keeps stdout machine-readable.
    heartbeat = (
        None
        if args.quiet
        else lambda event: print(event.render(), file=sys.stderr, flush=True)
    )
    from repro import obs

    telemetry = obs.Telemetry(run_id=f"campaign-{spec.name}") if args.obs_dir else obs.NULL
    result = run_campaign(
        spec,
        args.store,
        workers=args.workers,
        force=args.force,
        cache_dir=args.cache_dir,
        progress=progress,
        telemetry=telemetry,
        heartbeat=heartbeat,
        heartbeat_interval=args.heartbeat_interval,
    )
    obs_paths = None
    if args.obs_dir:
        obs_paths = obs.save(telemetry, args.obs_dir)
    if args.json:
        payload = result.as_dict()
        if obs_paths is not None:
            payload["obs"] = {"dir": args.obs_dir, "artifacts": obs_paths}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(
            f"campaign {result.campaign}: {len(result.executed)} scenario(s) executed, "
            f"{len(result.skipped)} skipped (already in {result.store_path}), "
            f"{result.wall_seconds:.2f} s"
        )
        if obs_paths is not None:
            print(f"telemetry written to {args.obs_dir} ({', '.join(sorted(obs_paths))})")
    return 0


def _run_list(args: argparse.Namespace) -> int:
    spec = CampaignSpec.load(args.spec)
    completed = ResultStore(args.store).fingerprints() if args.store else set()
    scenarios = spec.expand()
    if args.json:
        payload = [
            {
                "scenario": scenario.scenario_id,
                "fingerprint": scenario.fingerprint,
                "params": dict(scenario.params),
                "completed": scenario.fingerprint in completed,
            }
            for scenario in scenarios
        ]
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"campaign {spec.name}: {len(scenarios)} scenario(s)")
    for scenario in scenarios:
        state = "done" if scenario.fingerprint in completed else "pending"
        print(f"  [{state:7s}] {scenario.scenario_id}  {scenario.fingerprint[:12]}")
    return 0


def _run_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    if not store.exists():
        raise SystemExit(f"impressions campaign report: error: no such store {args.store}")
    latest = store.latest_rows()
    rows = list(latest.values())
    if args.json:
        print(
            json.dumps(
                {"rows": rows, "metrics": metric_names(rows)}, sort_keys=True
            )
        )
        return 0
    title = None
    if rows:
        title = f"Campaign {rows[0].get('campaign', '?')} ({len(rows)} scenarios)"
    print(render_report(rows, metrics=args.metric, title=title))
    return 0


def _compare_obs(args: argparse.Namespace, baseline_path: str, candidate_path: str) -> int:
    """Diff two telemetry snapshots with the campaign comparison machinery."""
    from repro.obs.export import compare_rows, read_events_jsonl, resolve_events_path

    rows = []
    for path in (baseline_path, candidate_path):
        telemetry = read_events_jsonl(resolve_events_path(path))
        rows.append(compare_rows(telemetry))
    result = compare(rows[0], rows[1], tolerance=args.tolerance)
    if args.json:
        payload = result.as_dict()
        payload["failed"] = result.has_regressions
        print(json.dumps(payload, sort_keys=True))
    else:
        print(result.render_text())
    return 1 if result.has_regressions else 0


def _run_compare(args: argparse.Namespace) -> int:
    if args.obs:
        if args.against_git:
            raise SystemExit(
                "impressions campaign compare: error: --obs cannot be combined "
                "with --against-git (telemetry artifacts are not stored in git)"
            )
        if len(args.stores) != 2:
            raise SystemExit(
                "impressions campaign compare: error: --obs expects BASELINE "
                "and CANDIDATE telemetry paths (obs dirs or events.jsonl files)"
            )
        return _compare_obs(args, *args.stores)
    if args.against_git:
        if len(args.stores) != 1:
            raise SystemExit(
                "impressions campaign compare: error: --against-git takes exactly "
                "one CANDIDATE store (the baseline comes from the revision)"
            )
        import tempfile

        from repro.campaign.gitstore import resolve_store_from_git

        candidate_path = args.stores[0]
        with tempfile.TemporaryDirectory(prefix="impressions-git-baseline-") as scratch:
            baseline_path = resolve_store_from_git(
                args.against_git,
                args.git_path or candidate_path,
                spec_path=args.spec,
                workers=args.workers,
                target_dir=scratch,
            )
            return _compare_stores(args, baseline_path, candidate_path)
    if len(args.stores) != 2:
        raise SystemExit(
            "impressions campaign compare: error: expected BASELINE and "
            "CANDIDATE store paths (or --against-git REV with one store)"
        )
    return _compare_stores(args, *args.stores)


def _compare_stores(args: argparse.Namespace, baseline_path: str, candidate_path: str) -> int:
    baseline = ResultStore(baseline_path)
    candidate = ResultStore(candidate_path)
    for store in (baseline, candidate):
        if not store.exists():
            raise SystemExit(
                f"impressions campaign compare: error: no such store {store.path}"
            )
    baseline_rows = baseline.latest_rows()
    result = compare(baseline_rows, candidate.latest_rows(), tolerance=args.tolerance)
    # The gate must not pass vacuously: a truncated or empty candidate store
    # (crashed run, wrong path) is a failure unless explicitly allowed.
    incomplete = bool(result.only_in_baseline) or (
        result.compared_scenarios == 0 and bool(baseline_rows)
    )
    failed = result.has_regressions or (incomplete and not args.allow_missing)
    if args.json:
        payload = result.as_dict()
        payload["failed"] = failed
        print(json.dumps(payload, sort_keys=True))
    else:
        print(result.render_text())
        if incomplete and not args.allow_missing:
            print(
                "FAIL: candidate store is missing baseline scenario(s) "
                "(pass --allow-missing to tolerate an incomplete candidate)"
            )
    return 1 if failed else 0


def _run_gc(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    if not store.exists():
        raise SystemExit(f"impressions campaign gc: error: no such store {args.store}")
    report = store.compact(dry_run=args.dry_run)
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    verb = "would drop" if args.dry_run else "dropped"
    print(
        f"{args.store}: {verb} {report['rows_dropped']} superseded row(s) of "
        f"{report['rows_before']}, reclaiming {report['bytes_reclaimed']} bytes "
        f"({report['bytes_before']} -> {report['bytes_after']})"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``impressions campaign ...``."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run_run(args)
        if args.command == "list":
            return _run_list(args)
        if args.command == "report":
            return _run_report(args)
        if args.command == "gc":
            return _run_gc(args)
        return _run_compare(args)
    except (SpecError, StoreError, PipelineError, ValueError) as error:
        raise SystemExit(f"impressions campaign {args.command}: error: {error}")
    except OSError as error:
        raise SystemExit(f"impressions campaign {args.command}: error: {error}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
