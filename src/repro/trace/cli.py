"""``impressions trace`` subcommands.

Three verbs, composable through pipes (``-`` means stdout/stdin)::

    impressions trace synth --kind churn --ops 50000 --seed 1 --out trace.jsonl
    impressions trace synth --kind zipf --ops 50000 --files 2000 | \\
        impressions trace replay --files 2000
    impressions trace age --layout-score 0.7 --files 2000 --out aging.jsonl

``synth`` writes a JSONL trace; ``replay`` executes one against a freshly
generated image (or a standalone disk when no image parameters are given) and
prints per-op-class statistics; ``age`` generates an image, ages it to the
requested layout score via churn replay, and optionally saves the trace it
replayed.  Image parameters (``--files``/``--dirs``/``--size-gb``/
``--image-seed``) are deterministic, so the image a trace was synthesized
against can be regenerated exactly on the replay side of a pipe.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from repro.bench.common import format_rows
from repro.core.config import GIB, ImpressionsConfig
from repro.core.image import FileSystemImage
from repro.core.impressions import Impressions
from repro.trace.aging import TraceAger
from repro.trace.ops import OperationTrace, TraceFormatError
from repro.trace.replay import ReplayResult, TraceReplayer
from repro.trace.synthesize import (
    ChurnSpec,
    MetadataStormSpec,
    ZipfMixSpec,
    synthesize_churn,
    synthesize_metadata_storm,
    synthesize_zipf_mix,
)

__all__ = ["main", "build_parser"]


def _add_image_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("image", "image to run the trace against")
    group.add_argument("--files", type=int, default=None, help="number of files in the image")
    group.add_argument("--dirs", type=int, default=None, help="number of directories")
    group.add_argument("--size-gb", type=float, default=None, help="image size in GiB")
    group.add_argument("--image-seed", type=int, default=42, help="image generation seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impressions trace",
        description="Synthesize, replay, and age with operation traces.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="synthesize an operation trace")
    synth.add_argument(
        "--kind", choices=["churn", "zipf", "storm"], default="churn", help="trace family"
    )
    synth.add_argument("--ops", type=int, default=10_000, help="number of operations")
    synth.add_argument("--seed", type=int, default=0, help="trace synthesis seed")
    synth.add_argument("--batch-size", type=int, default=64, help="arrival batch size")
    synth.add_argument(
        "--zipf-s", type=float, default=1.1, help="Zipf popularity exponent (zipf kind)"
    )
    synth.add_argument(
        "--read-fraction", type=float, default=None, help="relative read weight"
    )
    synth.add_argument(
        "--write-fraction", type=float, default=None, help="relative write weight"
    )
    synth.add_argument(
        "--stat-fraction", type=float, default=None, help="relative stat weight"
    )
    synth.add_argument(
        "--out", default="-", metavar="PATH", help="trace output path ('-' for stdout)"
    )
    _add_image_arguments(synth)

    replay = commands.add_parser("replay", help="replay a JSONL trace")
    replay.add_argument(
        "--trace", default="-", metavar="PATH", help="trace input path ('-' for stdin)"
    )
    replay.add_argument("--warm-cache", action="store_true", help="warm the buffer cache first")
    replay.add_argument(
        "--stats", metavar="PATH", default=None, help="write replay statistics (JSON) here"
    )
    replay.add_argument(
        "--disk-blocks",
        type=int,
        default=262_144,
        help="standalone disk size (blocks) when no image is requested",
    )
    replay.add_argument("--quiet", action="store_true", help="only print the summary line")
    replay.add_argument(
        "--obs-dir",
        metavar="PATH",
        default=None,
        help=(
            "observe the replay and write telemetry artifacts (event log, "
            "Chrome trace, Prometheus snapshot, summary) into this directory"
        ),
    )
    _add_image_arguments(replay)

    age = commands.add_parser("age", help="age an image to a target layout score")
    age.add_argument(
        "--layout-score", type=float, required=True, help="target layout score in (0, 1]"
    )
    age.add_argument("--seed", type=int, default=0, help="aging churn seed")
    age.add_argument(
        "--out", metavar="PATH", default=None, help="save the replayed aging trace here"
    )
    age.add_argument(
        "--stats", metavar="PATH", default=None, help="write aging statistics (JSON) here"
    )
    _add_image_arguments(age)

    return parser


def _image_requested(args: argparse.Namespace) -> bool:
    return args.files is not None or args.dirs is not None or args.size_gb is not None


def _generate_image(args: argparse.Namespace) -> FileSystemImage:
    config = ImpressionsConfig(
        fs_size_bytes=int(args.size_gb * GIB) if args.size_gb is not None else None,
        num_files=args.files,
        num_directories=args.dirs,
        seed=args.image_seed,
    )
    return Impressions(config).generate()


def _fractions(args: argparse.Namespace, defaults: tuple[float, float, float]):
    read = args.read_fraction if args.read_fraction is not None else defaults[0]
    write = args.write_fraction if args.write_fraction is not None else defaults[1]
    stat = args.stat_fraction if args.stat_fraction is not None else defaults[2]
    return read, write, stat


def _run_synth(args: argparse.Namespace) -> int:
    if args.kind == "zipf":
        image = _generate_image(args)
        read, write, stat = _fractions(args, (6.0, 2.0, 2.0))
        spec = ZipfMixSpec(
            num_ops=args.ops,
            read_fraction=read,
            write_fraction=write,
            stat_fraction=stat,
            zipf_s=args.zipf_s,
            batch_size=args.batch_size,
        )
        trace = synthesize_zipf_mix(image, spec, seed=args.seed)
    elif args.kind == "storm":
        files_per_dir = max(1, args.ops // 40)
        spec_storm = MetadataStormSpec(
            num_dirs=10, files_per_dir=files_per_dir, batch_size=args.batch_size
        )
        trace = synthesize_metadata_storm(spec_storm, seed=args.seed)
    else:
        read, write, stat = _fractions(args, (5.0, 3.0, 2.0))
        spec_churn = ChurnSpec(
            num_ops=args.ops,
            read_fraction=read,
            write_fraction=write,
            stat_fraction=stat,
            batch_size=args.batch_size,
        )
        trace = synthesize_churn(spec_churn, seed=args.seed)

    if args.out == "-":
        trace.write_jsonl(sys.stdout)
    else:
        trace.save(args.out)
        print(f"trace with {len(trace)} operations written to {args.out}", file=sys.stderr)
    return 0


def _format_replay(result: ReplayResult) -> str:
    rows = [
        [kind, stats.count, stats.skipped, stats.mean_ms, stats.max_ms, stats.bytes_moved]
        for kind, stats in sorted(result.per_kind.items())
    ]
    table = format_rows(
        ["op", "count", "skipped", "mean ms", "max ms", "bytes"],
        rows,
        title="Replay statistics by operation class",
    )
    lines = [table, ""]
    lines.append(
        f"executed {result.executed} ops ({result.skipped} skipped) in "
        f"{result.simulated_ms:.1f} simulated ms; cache hit ratio "
        f"{result.cache_hit_ratio:.3f}"
    )
    if result.wall_seconds > 0:
        lines.append(
            f"replay engine: {result.wall_seconds:.3f} s wall, "
            f"{result.ops_per_second:,.0f} ops/sec"
        )
    if result.layout_score_before is not None and result.layout_score_after is not None:
        lines.append(
            f"layout score: {result.layout_score_before:.3f} -> "
            f"{result.layout_score_after:.3f}"
        )
    return "\n".join(lines)


def _stats_payload(result: ReplayResult) -> dict:
    payload = result.as_dict()
    payload["wall_seconds"] = result.wall_seconds
    payload["ops_per_second"] = result.ops_per_second
    return payload


def _run_replay(args: argparse.Namespace) -> int:
    if args.trace == "-":
        trace = OperationTrace.read_jsonl(sys.stdin)
    else:
        trace = OperationTrace.load(args.trace)

    from repro import obs

    telemetry = obs.Telemetry(run_id="trace-replay") if args.obs_dir else obs.NULL
    with obs.use(telemetry):
        image = _generate_image(args) if _image_requested(args) else None
        replayer = TraceReplayer(image, disk_blocks=args.disk_blocks)
        if args.warm_cache:
            replayer.warm_cache()
        result = replayer.replay(trace)

    if image is not None and image.report is not None:
        image.report.record_trace(
            trace.metadata.get("synthesizer", "trace"), result.as_dict()
        )

    if args.obs_dir:
        if image is not None and image.report is not None:
            image.report.record_telemetry(obs.summary_dict(telemetry))
        paths = obs.save(telemetry, args.obs_dir)
        print(
            f"telemetry written to {args.obs_dir} ({', '.join(sorted(paths))})",
            file=sys.stderr,
        )

    print(
        f"replayed {result.total_operations} ops "
        f"({result.ops_per_second:,.0f} ops/sec, hit ratio {result.cache_hit_ratio:.3f})"
    )
    if not args.quiet:
        print()
        print(_format_replay(result))
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as handle:
            json.dump(_stats_payload(result), handle, indent=2, sort_keys=True)
        print(f"replay statistics written to {args.stats}")
    return 0


def _run_age(args: argparse.Namespace) -> int:
    if not _image_requested(args):
        raise SystemExit("trace age requires image parameters (--files/--dirs/--size-gb)")
    image = _generate_image(args)
    ager = TraceAger(image, args.layout_score, np.random.default_rng(args.seed))
    result = ager.age()
    print(
        f"aged image from layout score {result.initial_score:.3f} to "
        f"{result.achieved_score:.3f} (target {result.target_score:.3f}) by rewriting "
        f"{result.files_rewritten} files in {len(result.trace)} operations"
    )
    if args.out:
        result.trace.save(args.out)
        print(f"aging trace written to {args.out}")
    if args.stats:
        payload = {
            "target_score": result.target_score,
            "achieved_score": result.achieved_score,
            "initial_score": result.initial_score,
            "files_rewritten": result.files_rewritten,
            "operations": len(result.trace),
            "replay": result.replay.as_dict(),
        }
        with open(args.stats, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"aging statistics written to {args.stats}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``impressions trace ...``."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return _run_synth(args)
        if args.command == "replay":
            return _run_replay(args)
        return _run_age(args)
    except (TraceFormatError, ValueError) as error:
        # Bad parameter combinations and malformed trace input are user
        # errors, not crashes: report them the way argparse would.
        raise SystemExit(f"impressions trace {args.command}: error: {error}")
    except OSError as error:
        raise SystemExit(f"impressions trace {args.command}: error: {error}")
