"""CLI for sharded generation: ``impressions shard plan|generate|verify``.

Examples::

    # Inspect / store the deterministic partition.
    impressions shard plan --files 52000 --dirs 4000 --shards 8 --out plan.json

    # Generate through 4 worker processes; identical to --jobs 1.
    impressions shard generate --files 52000 --dirs 4000 --shards 8 --jobs 4

    # Execute a stored plan, with per-shard stage-cache slices.
    impressions shard generate --plan plan.json --jobs 4 --cache-dir ~/.cache/imp

    # Prove it: run jobs=1 and jobs=N, diff fingerprint + content digest.
    impressions shard verify --files 2000 --shards 4 --jobs 4
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.shard.plan import ShardPlan, ShardPlanError, build_plan

__all__ = ["main", "build_parser"]


def _add_plan_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.core.cli import add_config_arguments

    add_config_arguments(parser)
    parser.add_argument(
        "--shards",
        type=int,
        default=4,
        metavar="N",
        help="number of shards to split the image into (default: %(default)s)",
    )
    parser.add_argument(
        "--plan",
        metavar="PATH",
        default=None,
        help="execute a stored plan JSON instead of planning from the config flags",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impressions shard",
        description="Deterministic sharded image generation with parallel workers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan_parser = sub.add_parser(
        "plan", help="compute the shard partition and print or store it as JSON"
    )
    _add_plan_arguments(plan_parser)
    plan_parser.add_argument(
        "--out", metavar="PATH", default=None, help="write the plan JSON here instead of stdout"
    )

    generate_parser = sub.add_parser(
        "generate", help="generate the image in shards and merge the result"
    )
    _add_plan_arguments(generate_parser)
    generate_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default: %(default)s; 1 = in-process)",
    )
    generate_parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="stage-cache root; every shard caches under its own slice",
    )
    generate_parser.add_argument(
        "--no-digest", action="store_true",
        help="skip the merged materialize content digest",
    )
    generate_parser.add_argument(
        "--obs-dir", metavar="PATH", default=None,
        help="export the run's telemetry (merged across shard processes) to this directory",
    )
    generate_parser.add_argument(
        "--json", action="store_true", help="print a machine-readable summary"
    )
    generate_parser.add_argument(
        "--quiet", action="store_true", help="only print the result line"
    )

    verify_parser = sub.add_parser(
        "verify",
        help="run jobs=1 and jobs=N for one plan and diff fingerprint + content digest",
    )
    _add_plan_arguments(verify_parser)
    verify_parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="parallel worker count to compare against jobs=1 (default: %(default)s)",
    )
    verify_parser.add_argument(
        "--json", action="store_true", help="print a machine-readable verdict"
    )
    return parser


def _resolve_plan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ShardPlan:
    from repro.core.cli import config_from_args

    try:
        if args.plan is not None:
            with open(args.plan, encoding="utf-8") as handle:
                return ShardPlan.from_json(handle.read())
        return build_plan(config_from_args(args), args.shards)
    except OSError as error:
        parser.error(f"cannot read plan: {error}")
    except (ShardPlanError, ValueError) as error:
        parser.error(str(error))
    raise AssertionError("unreachable")  # pragma: no cover - parser.error raises


def _cmd_plan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    plan = _resolve_plan(args, parser)
    try:
        text = plan.to_json()
    except ShardPlanError as error:
        parser.error(str(error))
        return 2  # pragma: no cover
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"plan: {plan.num_shards} shards -> {args.out} ({plan.fingerprint()[:12]})")
    else:
        print(text)
    return 0


def _cmd_generate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro import obs
    from repro.shard.worker import generate_sharded

    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    plan = _resolve_plan(args, parser)

    telemetry = (
        obs.Telemetry(run_id=f"shard-{plan.fingerprint()[:12]}") if args.obs_dir else obs.NULL
    )

    progress = None if (args.quiet or args.json) else lambda line: print(f"  {line}")
    with obs.use(telemetry):
        result = generate_sharded(
            plan=plan,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            digest=not args.no_digest,
            telemetry=telemetry,
            progress=progress,
        )

    obs_paths = None
    if args.obs_dir:
        if result.image.report is not None:
            result.image.report.record_telemetry(obs.summary_dict(telemetry))
        obs_paths = obs.save(telemetry, args.obs_dir)

    if args.json:
        payload = result.as_dict()
        if obs_paths:
            payload["obs"] = obs_paths
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return 0
    image = result.image
    digest_part = (
        f" digest {result.content_digest[:12]}" if result.content_digest else ""
    )
    print(
        f"generated {image.file_count} files / {image.directory_count} dirs in "
        f"{result.plan.num_shards} shards (jobs={result.jobs}): "
        f"fingerprint {result.fingerprint[:12]}{digest_part}"
    )
    if not args.quiet:
        walls = ", ".join(f"{wall:.3f}s" for wall in result.shard_walls)
        print(f"  shard walls: [{walls}]")
        for name, seconds in result.timings.items():
            print(f"  {name}: {seconds:.3f}s")
        if obs_paths:
            for kind, path in obs_paths.items():
                print(f"  obs {kind}: {path}")
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.shard.worker import generate_sharded

    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    plan = _resolve_plan(args, parser)
    serial = generate_sharded(plan=plan, jobs=1)
    parallel = generate_sharded(plan=plan, jobs=args.jobs)
    fingerprint_ok = serial.fingerprint == parallel.fingerprint
    digest_ok = serial.content_digest == parallel.content_digest
    passed = fingerprint_ok and digest_ok
    if args.json:
        print(
            json.dumps(
                {
                    "plan_fingerprint": plan.fingerprint(),
                    "num_shards": plan.num_shards,
                    "jobs": args.jobs,
                    "passed": passed,
                    "fingerprint_match": fingerprint_ok,
                    "content_digest_match": digest_ok,
                    "fingerprint": {"serial": serial.fingerprint, "parallel": parallel.fingerprint},
                    "content_digest": {
                        "serial": serial.content_digest,
                        "parallel": parallel.content_digest,
                    },
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"plan {plan.fingerprint()[:12]}: jobs=1 vs jobs={args.jobs}")
        print(
            f"  fingerprint:    {'match' if fingerprint_ok else 'MISMATCH'} "
            f"({serial.fingerprint[:12]} / {parallel.fingerprint[:12]})"
        )
        serial_digest = (serial.content_digest or "-")[:12]
        parallel_digest = (parallel.content_digest or "-")[:12]
        print(
            f"  content digest: {'match' if digest_ok else 'MISMATCH'} "
            f"({serial_digest} / {parallel_digest})"
        )
        print("verification PASSED" if passed else "verification FAILED")
    return 0 if passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command == "plan":
        return _cmd_plan(args, parser)
    if args.command == "generate":
        return _cmd_generate(args, parser)
    if args.command == "verify":
        return _cmd_verify(args, parser)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
