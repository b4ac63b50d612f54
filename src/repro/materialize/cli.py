"""``impressions materialize`` — generate an image and export it via a sink.

Examples::

    # Real directory tree, 4 writer processes, disk-extent write order.
    impressions materialize --files 2000 --content hybrid \\
        --sink dir --out /tmp/image --jobs 4 --order extent

    # Deterministic streaming archive; never touches the host tree.
    impressions materialize --files 2000 --sink tar --out image.tar.gz

    # JSONL manifest (paths / sizes / timestamps / extents) for huge images.
    impressions materialize --size-gb 100 --sink manifest --out image.jsonl

    # Digest only: the determinism / verification gate for CI.
    impressions materialize --files 2000 --content hybrid --sink null --verify

Round-trip verification (``--verify``) re-imports a materialized directory
tree with the dataset importer and runs KS / chi-square / MDCC distribution
checks against the generating image and config; the verdict lands in the
reproducibility report and the exit status (nonzero on failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.materialize.base import ORDERS, MaterializeError, materialize_image
from repro.materialize.sinks import SINK_NAMES, build_sink

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro.core.cli import add_config_arguments

    parser = argparse.ArgumentParser(
        prog="impressions materialize",
        description="Generate a file-system image and materialize it through a pluggable sink.",
    )
    add_config_arguments(parser)
    parser.add_argument(
        "--sink",
        choices=list(SINK_NAMES),
        default="dir",
        help="materialization target (default: %(default)s)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="target path (directory, archive, or manifest; unused for --sink null)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="writer processes for --sink dir (default: %(default)s)",
    )
    parser.add_argument(
        "--order",
        choices=list(ORDERS),
        default="namespace",
        help="file streaming order; 'extent' follows the simulated disk layout",
    )
    parser.add_argument(
        "--no-content",
        action="store_true",
        help="materialize metadata only (sparse files / zero runs) even with a content model",
    )
    parser.add_argument(
        "--digest-content",
        action="store_true",
        help=(
            "record a path-independent content_sha256 per file in the manifest "
            "(--sink manifest only; costs a full content-generation pass)"
        ),
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="round-trip verification (import + distribution checks); exit 1 on failure",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="stage-cache directory for the generation pipeline",
    )
    parser.add_argument("--json", action="store_true", help="print a machine-readable summary")
    parser.add_argument("--quiet", action="store_true", help="only print the result line")
    parser.add_argument(
        "--obs-dir",
        metavar="PATH",
        default=None,
        help=(
            "observe generation + materialization and write telemetry "
            "artifacts into this directory"
        ),
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``impressions materialize ...``."""
    from repro.core.cli import config_from_args
    from repro.pipeline import StageCache, default_pipeline

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.sink != "null" and not args.out:
        parser.error(f"--sink {args.sink} requires --out PATH")
    try:
        config = config_from_args(args)
    except ValueError as error:
        parser.error(str(error))
        return 2  # pragma: no cover - parser.error raises SystemExit

    cache = StageCache(args.cache_dir) if args.cache_dir else None

    from repro import obs

    telemetry = (
        obs.Telemetry(run_id=f"materialize-{config.fingerprint()[:12]}")
        if args.obs_dir
        else obs.NULL
    )
    with obs.use(telemetry):
        image = default_pipeline().run(config, cache=cache).image

        try:
            sink = build_sink(
                args.sink, args.out, jobs=args.jobs, digest_content=args.digest_content
            )
            result = materialize_image(
                image,
                sink,
                order=args.order,
                write_content=False if args.no_content else None,
            )
        except MaterializeError as error:
            raise SystemExit(f"impressions materialize: error: {error}")

    obs_paths = None
    if args.obs_dir:
        if image.report is not None:
            image.report.record_telemetry(obs.summary_dict(telemetry))
        obs_paths = obs.save(telemetry, args.obs_dir)

    verification = result.verify(config=config) if args.verify else None

    if args.json:
        payload = {
            "config_fingerprint": config.fingerprint(),
            "result": result.as_dict(),
        }
        if verification is not None:
            payload["verification"] = verification.as_dict()
        if obs_paths is not None:
            payload["obs"] = {"dir": args.obs_dir, "artifacts": obs_paths}
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        target = f" -> {result.path}" if result.path else ""
        print(
            f"materialized {result.files} files / {result.directories} directories "
            f"({result.total_bytes} bytes, {result.order} order) via {result.sink} sink"
            f"{target} in {result.seconds:.2f}s"
        )
        if not args.quiet:
            print(f"content digest: {result.content_digest}")
            for key, value in sorted(result.extras.items()):
                print(f"{key}: {value}")
            phases = ", ".join(
                f"{name}={seconds:.3f}s" for name, seconds in result.phase_seconds.items()
            )
            print(f"phases: {phases}")
        if obs_paths is not None:
            print(f"telemetry written to {args.obs_dir} ({', '.join(sorted(obs_paths))})")
        if verification is not None:
            print(verification.render_text())
    return 0 if verification is None or verification.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
