"""Trace replay performance and behaviour.

Not a figure from the paper: this driver benchmarks the ``repro.trace``
subsystem the way Table 6 benchmarks image generation.  It generates a scaled
image, synthesizes one trace per family (Zipf read/write/stat mix over the
image, create/delete churn, metadata storm), replays each, and reports

* wall-clock replay throughput (the acceptance bar is >= 100k ops/sec for
  the 50k-op Zipf mix),
* per-op-class simulated latency and cache behaviour,
* cold- vs warm-cache simulated time for the Zipf mix (the dynamic
  counterpart of Figure 1's cached bar).
"""

from __future__ import annotations

from repro.bench.common import format_rows, scaled_default_config
from repro.core.impressions import Impressions
from repro.trace.replay import TraceReplayer
from repro.trace.synthesize import (
    ChurnSpec,
    MetadataStormSpec,
    ZipfMixSpec,
    synthesize_churn,
    synthesize_metadata_storm,
    synthesize_zipf_mix,
)

__all__ = ["run", "format_table"]


def run(scale: float = 0.05, num_ops: int = 50_000, seed: int = 42) -> dict:
    """Replay one trace per family against a freshly generated image."""
    config = scaled_default_config(scale=scale, seed=seed)
    image = Impressions(config).generate()

    zipf_trace = synthesize_zipf_mix(image, ZipfMixSpec(num_ops=num_ops), seed=seed)
    churn_trace = synthesize_churn(ChurnSpec(num_ops=num_ops), seed=seed)
    storm_trace = synthesize_metadata_storm(
        MetadataStormSpec(num_dirs=20, files_per_dir=max(1, num_ops // 100)), seed=seed
    )

    results: dict[str, dict] = {}

    cold = TraceReplayer(image).replay(zipf_trace)
    results["zipf_cold"] = _entry(cold)

    # Replay mutates the image's disk (in-place writes can extend files), so
    # the warm leg runs against a regenerated, identical image: the only
    # difference between the cold and warm rows is cache warmth.
    warm_image = Impressions(config).generate()
    warm_replayer = TraceReplayer(warm_image)
    warm_replayer.warm_cache()
    warm = warm_replayer.replay(zipf_trace)
    results["zipf_warm"] = _entry(warm)

    # Same cold replay with telemetry enabled, held to the same throughput
    # bar; benchmarks/test_trace_replay_perf.py samples the overhead ratio
    # (budget: <= 3%) over repeated rounds instead of reading it off this one.
    from repro.obs.core import Telemetry

    obs_image = Impressions(config).generate()
    obs = TraceReplayer(obs_image, telemetry=Telemetry(run_id="bench")).replay(zipf_trace)
    results["zipf_cold_obs"] = _entry(obs)

    churn = TraceReplayer().replay(churn_trace)
    results["churn"] = _entry(churn)

    storm = TraceReplayer().replay(storm_trace)
    results["storm"] = _entry(storm)

    return {
        "scale": scale,
        "num_ops": num_ops,
        "image_files": image.file_count,
        "results": results,
        "warm_speedup_simulated": (
            cold.simulated_ms / warm.simulated_ms if warm.simulated_ms else float("inf")
        ),
    }


def _entry(result) -> dict:
    return {
        "operations": result.total_operations,
        "executed": result.executed,
        "skipped": result.skipped,
        "ops_per_second": result.ops_per_second,
        "wall_seconds": result.wall_seconds,
        "simulated_ms": result.simulated_ms,
        "cache_hit_ratio": result.cache_hit_ratio,
        "per_kind": {kind: stats.as_dict() for kind, stats in result.per_kind.items()},
    }


def format_table(result: dict) -> str:
    rows = []
    for name, entry in result["results"].items():
        rows.append(
            [
                name,
                entry["operations"],
                f"{entry['ops_per_second']:,.0f}",
                entry["wall_seconds"],
                entry["simulated_ms"],
                entry["cache_hit_ratio"],
            ]
        )
    table = format_rows(
        ["trace", "ops", "replay ops/s", "wall s", "simulated ms", "hit ratio"],
        rows,
        title=(
            f"Trace replay (scale={result['scale']:g}, "
            f"{result['image_files']} image files, {result['num_ops']} ops/trace)"
        ),
    )
    table += (
        f"\n\nwarm cache simulated speedup on the Zipf mix: "
        f"{result['warm_speedup_simulated']:.1f}x"
    )
    return table
