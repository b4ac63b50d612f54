"""Command-line interface.

"Ease of use: by providing a simple, yet powerful, command-line interface."
The CLI exposes the automated mode (just pass ``--size`` / ``--files``) and
the most common user-specified knobs; it prints the image summary and the
full reproducibility report, and can materialise the image to a directory.

Examples::

    impressions --files 2000 --dirs 400 --seed 7
    impressions --size-gb 4.55 --files 20000 --enforce-size --report out.json
    impressions --files 500 --content hybrid --materialize /tmp/image

Operation-trace workflows live under the ``trace`` subcommand
(:mod:`repro.trace.cli`)::

    impressions trace synth --kind zipf --ops 50000 --files 2000 | \\
        impressions trace replay --files 2000
    impressions trace age --layout-score 0.7 --files 2000

Scenario sweeps live under the ``campaign`` subcommand
(:mod:`repro.campaign.cli`)::

    impressions campaign run sweep.json --store results.jsonl --workers 4
    impressions campaign compare baseline.jsonl results.jsonl

Generation itself runs on the staged pipeline (:mod:`repro.pipeline`):
``--stages`` selects a stage subset, ``--cache-dir`` enables the
content-addressed stage cache, and the ``pipeline`` subcommand inspects the
stage graph::

    impressions --files 2000 --cache-dir ~/.cache/impressions   # resumes free
    impressions --files 2000 --stages directory_structure,file_sizes,extensions,depth_and_placement
    impressions pipeline inspect --files 2000 --seed 7

Image export through pluggable sinks (directory trees with parallel writes,
deterministic tar archives, JSONL manifests, digest-only verification) lives
under the ``materialize`` subcommand (:mod:`repro.materialize.cli`)::

    impressions materialize --files 2000 --sink dir --out /tmp/img --jobs 4
    impressions materialize --files 2000 --sink tar --out img.tar.gz --verify

Sharded generation — the same image, split across worker processes and merged
back digest-identically — lives under the ``shard`` subcommand
(:mod:`repro.shard.cli`)::

    impressions shard plan --files 52000 --shards 8 --out plan.json
    impressions shard generate --plan plan.json --jobs 4
    impressions shard verify --files 2000 --shards 4 --jobs 4

The long-running benchmark farm — a durable job queue, worker fleet, and
HTTP control plane over the campaign machinery — lives under the
``service`` subcommand (:mod:`repro.service.cli`)::

    impressions service start --queue farm.sqlite --store results.jsonl --workers 4
    impressions service submit sweep.json --url http://127.0.0.1:8765 --wait
    impressions service status --url http://127.0.0.1:8765

The determinism / cache-soundness static analyzer (detlint) lives under the
``analyze`` subcommand (:mod:`repro.analysis.cli`)::

    impressions analyze src --baseline analysis-baseline.json
    impressions analyze --list-rules
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Sequence

from repro.content.generators import ContentPolicy
from repro.core.config import GIB, ImpressionsConfig

__all__ = ["main", "build_parser", "config_from_args", "add_config_arguments"]


def add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the image-configuration flags shared with ``impressions pipeline``."""
    parser.add_argument("--size-gb", type=float, default=None, help="target file-system size in GiB")
    parser.add_argument("--size-bytes", type=int, default=None, help="target file-system size in bytes")
    parser.add_argument("--files", type=int, default=None, help="number of files")
    parser.add_argument("--dirs", type=int, default=None, help="number of directories")
    parser.add_argument("--seed", type=int, default=42, help="random seed (reported for reproducibility)")
    parser.add_argument(
        "--enforce-size",
        action="store_true",
        help="resolve file sizes against the target size with the constraint resolver",
    )
    parser.add_argument("--beta", type=float, default=0.05, help="allowed relative error on the total size")
    parser.add_argument(
        "--layout-score", type=float, default=1.0, help="target on-disk layout score in (0, 1]"
    )
    parser.add_argument(
        "--content",
        choices=["none", "single-word", "word-popularity", "word-length", "hybrid"],
        default="none",
        help="file-content model (default: metadata only)",
    )
    parser.add_argument(
        "--simple-size-model",
        action="store_true",
        help="use the plain lognormal size model instead of the hybrid lognormal+Pareto",
    )
    parser.add_argument(
        "--no-special-dirs", action="store_true", help="disable special-directory biases"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impressions",
        description="Generate statistically accurate file-system images (FAST '09 reproduction).",
        epilog=(
            "Operation traces: 'impressions trace synth|replay|age --help'. "
            "Scenario sweeps: 'impressions campaign run|list|report|compare --help'. "
            "Stage graph: 'impressions pipeline inspect --help'. "
            "Sinks and archives: 'impressions materialize --help'. "
            "Sharded generation: 'impressions shard plan|generate|verify --help'. "
            "Chaos sweeps: 'impressions faults plan|sweep --help'."
        ),
    )
    add_config_arguments(parser)
    parser.add_argument(
        "--stages",
        metavar="LIST",
        default=None,
        help=(
            "comma-separated subset of generation stages to run "
            "(e.g. 'directory_structure,file_sizes,extensions,depth_and_placement' "
            "for an image without disk layout)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help=(
            "content-addressed stage cache: re-runs with the same config resume "
            "from the deepest cached stage instead of regenerating"
        ),
    )
    parser.add_argument(
        "--materialize", metavar="PATH", default=None, help="write the image to this directory"
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None, help="write the reproducibility report (JSON) here"
    )
    parser.add_argument("--quiet", action="store_true", help="only print the summary line")
    parser.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON summary instead of the text report",
    )
    parser.add_argument(
        "--obs-dir",
        metavar="PATH",
        default=None,
        help=(
            "observe the run and write telemetry artifacts here: JSONL event "
            "log, Chrome trace, Prometheus snapshot, text summary "
            "(inspect with 'impressions obs summarize|export')"
        ),
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ImpressionsConfig:
    """Translate parsed CLI arguments into an :class:`ImpressionsConfig`."""
    fs_size_bytes: int | None
    if args.size_bytes is not None:
        fs_size_bytes = args.size_bytes
    elif args.size_gb is not None:
        fs_size_bytes = int(args.size_gb * GIB)
    else:
        fs_size_bytes = None

    if fs_size_bytes is None and args.files is None:
        # Automated mode with no input at all: fall back to the paper default.
        fs_size_bytes = ImpressionsConfig().fs_size_bytes

    generate_content = args.content != "none"
    content_policy = ContentPolicy(text_model=args.content if generate_content else "hybrid")

    return ImpressionsConfig(
        fs_size_bytes=fs_size_bytes,
        num_files=args.files,
        num_directories=args.dirs,
        seed=args.seed,
        enforce_fs_size=args.enforce_size,
        beta=args.beta,
        layout_score=args.layout_score,
        generate_content=generate_content,
        content=content_policy,
        use_simple_size_model=args.simple_size_model,
        special_directories=() if args.no_special_dirs else ImpressionsConfig().special_directories,
    )


#: Subcommand name → module whose ``main(argv)`` handles it.
_SUBCOMMANDS = {
    "trace": "repro.trace.cli",
    "campaign": "repro.campaign.cli",
    "pipeline": "repro.pipeline.cli",
    "materialize": "repro.materialize.cli",
    "obs": "repro.obs.cli",
    "shard": "repro.shard.cli",
    "service": "repro.service.cli",
    "faults": "repro.faults.cli",
    "analyze": "repro.analysis.cli",
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``impressions`` console script."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        # Each subcommand has its own parser; its module is imported only when
        # named, so plain image generation loads none of them.
        module = importlib.import_module(_SUBCOMMANDS[argv[0]])
        return module.main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as error:
        parser.error(str(error))
        return 2  # pragma: no cover - parser.error raises SystemExit

    from repro.pipeline import StageCache, StageWiringError, default_pipeline

    pipeline = default_pipeline()
    if args.stages:
        names = [name.strip() for name in args.stages.split(",") if name.strip()]
        try:
            pipeline = pipeline.subset(names)
        except StageWiringError as error:
            parser.error(str(error))
            return 2  # pragma: no cover - parser.error raises SystemExit
    cache = StageCache(args.cache_dir) if args.cache_dir else None

    from repro import obs

    telemetry = (
        obs.Telemetry(run_id=f"generate-{config.fingerprint()[:12]}") if args.obs_dir else obs.NULL
    )
    with obs.use(telemetry):
        result = pipeline.run(config, cache=cache)
        image = result.image
        summary = image.summary()

        written: int | None = None
        if args.materialize:
            written = image.materialize(args.materialize)

    obs_paths: dict[str, str] | None = None
    if args.obs_dir:
        if image.report is not None:
            image.report.record_telemetry(obs.summary_dict(telemetry))
        obs_paths = obs.save(telemetry, args.obs_dir)

    if args.json:
        # Machine-readable mode: one JSON document on stdout, nothing else —
        # campaign workers and scripts consume this instead of scraping the
        # human-formatted report.
        payload: dict = {
            "summary": summary,
            "knobs": config.to_knobs(),
            # Config-only identity; campaign scenario fingerprints build on
            # this plus the scenario's step list.
            "config_fingerprint": config.fingerprint(),
            # Per-stage fingerprints, seconds and cache outcome.
            "pipeline": result.as_dict(),
        }
        if image.report is not None:
            payload["report"] = image.report.to_dict()
        if written is not None:
            payload["materialized"] = {"path": args.materialize, "files": written}
        if obs_paths is not None:
            payload["obs"] = {"dir": args.obs_dir, "artifacts": obs_paths}
        print(json.dumps(payload, sort_keys=True, default=str))
        if args.report and image.report is not None:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(image.report.to_json())
        return 0

    print(
        "generated image: "
        f"{summary['files']} files, {summary['directories']} directories, "
        f"{summary['total_bytes']} bytes, layout score {summary['layout_score']:.3f}"
    )
    if cache is not None:
        stats = result.cache_summary()
        print(
            f"stage cache: {stats['hits']} hit(s), {stats['misses']} miss(es), "
            f"{stats['stores']} store(s) in {args.cache_dir}"
        )

    if not args.quiet and image.report is not None:
        print()
        print(image.report.render_text())

    if args.report and image.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(image.report.to_json())
        print(f"reproducibility report written to {args.report}")

    if written is not None:
        print(f"materialized {written} files under {args.materialize}")

    if obs_paths is not None:
        print(f"telemetry written to {args.obs_dir} ({', '.join(sorted(obs_paths))})")

    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
