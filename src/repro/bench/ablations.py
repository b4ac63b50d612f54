"""Ablation experiments for the design choices the paper calls out.

These go beyond the paper's headline tables and quantify the internal design
decisions Impressions motivates in the text:

* **Size model** — the simple lognormal-only model versus the hybrid
  lognormal + Pareto-tail model.  The paper notes the simple model "failed to
  account for the distribution of bytes by containing file size"; the ablation
  measures the bytes-by-size MDCC against the target mixture model for both.
* **Depth model** — the multiplicative (Poisson × mean-bytes affinity) depth
  model versus Poisson-only placement, scored on both the files-by-depth and
  bytes-by-depth criteria.
* **Subset-sum local improvement** — constraint resolution with and without
  the local-improvement phase of the subset-sum approximation (oversamples
  needed and final β).
* **Content models** — generation throughput and unique-word richness of the
  single-word / popularity / word-length / hybrid content models.
"""

from __future__ import annotations

import numpy as np

from repro.bench.common import format_rows
from repro.constraints.subset_sum import solve_fixed_size_subset_sum
from repro.content.wordmodel import (
    HybridWordModel,
    SingleWordModel,
    WordLengthFrequencyModel,
    WordPopularityModel,
)
from repro.core.config import ImpressionsConfig
from repro.core.impressions import Impressions
from repro.dataset.study import analyze_image
from repro.metadata.filesizes import default_file_size_by_bytes_model
from repro.obs import core as obs_core
from repro.stats.distributions import LognormalDistribution
from repro.stats.goodness_of_fit import mdcc_from_fractions
from repro.stats.histograms import PowerOfTwoHistogram

__all__ = [
    "run_size_model_ablation",
    "run_depth_model_ablation",
    "run_subset_sum_ablation",
    "run_content_model_ablation",
    "format_size_model_table",
    "format_depth_model_table",
    "format_subset_sum_table",
    "format_content_model_table",
]


# --- Size model ---------------------------------------------------------------


def run_size_model_ablation(num_files: int = 20_000, seed: int = 42) -> dict:
    """Hybrid vs simple lognormal size model (the paper's Figure 2(c)/(d) ablation).

    Each candidate model generates ``num_files`` file sizes.  The sample's
    files-by-size curve is scored against the desired count curve (the default
    hybrid model's analytical CDF), and its bytes-by-size curve against the
    desired bytes curve (the mixture-of-lognormals model of Table 2).  The
    paper's observation is that both candidates fit the count curve, but only
    the hybrid — with its Pareto tail of very large files — reproduces the
    bytes curve's heavy upper mode.
    """
    from repro.metadata.filesizes import (
        default_file_size_by_count_model,
        simple_lognormal_size_model,
    )

    count_target_model = default_file_size_by_count_model()
    bytes_target_model = default_file_size_by_bytes_model()

    candidates = {
        "hybrid": default_file_size_by_count_model(),
        "simple-lognormal": simple_lognormal_size_model(),
    }
    # Bins spanning 1 byte .. 1 TB: real file systems impose a finite maximum
    # file size, which also keeps the size-biased Pareto tail integrable.
    edges = np.asarray([0.0] + [float(2**exponent) for exponent in range(0, 41)])
    bytes_target = _bytes_bin_fractions(bytes_target_model, edges, direct_bytes_model=True)

    threshold = 512 * 1024 * 1024
    target_large_share = _share_above(edges, bytes_target, threshold)

    results = {}
    for label, model in candidates.items():
        sample = model.sample(np.random.default_rng(seed), num_files)
        hist = PowerOfTwoHistogram.from_values(sample, max_value=2**42)
        count_target = _count_bin_fractions(count_target_model, hist.edges)
        bytes_curve = _bytes_bin_fractions(model, edges)
        results[label] = {
            "files_by_size_mdcc": mdcc_from_fractions(count_target, hist.count_fractions()),
            "bytes_by_size_mdcc": mdcc_from_fractions(bytes_target, bytes_curve),
            # The paper's headline: what fraction of all bytes live in very
            # large (> 512 MB) files?  The desired curve puts a large share
            # there; the simple lognormal puts almost none.
            "bytes_above_512mb": _share_above(edges, bytes_curve, threshold),
            "target_bytes_above_512mb": target_large_share,
            "total_bytes": float(np.sum(sample)),
            "largest_file": float(np.max(sample)),
        }
    return results


def _share_above(edges: np.ndarray, fractions: np.ndarray, threshold: float) -> float:
    """Fraction of mass in bins whose lower edge is at or above ``threshold``."""
    mask = np.asarray(edges[:-1]) >= threshold
    return float(np.sum(np.asarray(fractions)[mask]))


def _count_bin_fractions(model, edges: np.ndarray) -> np.ndarray:
    """Per-bin probability mass of a continuous model over histogram edges."""
    cdf = model.cdf(np.asarray(edges, dtype=float))
    fractions = np.diff(cdf)
    fractions = np.clip(fractions, 0.0, None)
    total = fractions.sum()
    return fractions / total if total > 0 else fractions


def _bytes_bin_fractions(model, edges: np.ndarray, direct_bytes_model: bool = False) -> np.ndarray:
    """Per-bin *byte* mass implied by a file-size model.

    For a count model the byte density is proportional to ``x · pdf(x)``
    (size-biasing); for a model that already describes bytes (the mixture of
    Table 2) the plain probability mass is used.
    """
    fractions = np.zeros(len(edges) - 1)
    for index, (low, high) in enumerate(zip(edges[:-1], edges[1:])):
        low = max(low, 1.0)
        if high <= low:
            continue
        xs = np.logspace(np.log10(low), np.log10(high), 64)
        density = model.pdf(xs)
        weights = density if direct_bytes_model else xs * density
        fractions[index] = float(np.trapezoid(weights, xs))
    total = fractions.sum()
    return fractions / total if total > 0 else fractions


def format_size_model_table(result: dict) -> str:
    rows = [
        [
            label,
            data["files_by_size_mdcc"],
            data["bytes_by_size_mdcc"],
            f"{data.get('bytes_above_512mb', float('nan')):.1%}",
            f"{data.get('target_bytes_above_512mb', float('nan')):.1%}",
            data.get("largest_file", float("nan")),
        ]
        for label, data in result.items()
    ]
    return format_rows(
        [
            "size model",
            "files-by-size MDCC",
            "bytes-by-size MDCC",
            "bytes in >512MB files",
            "desired",
            "largest file",
        ],
        rows,
        title="Ablation: hybrid vs simple lognormal file-size model",
    )


# --- Depth model ----------------------------------------------------------------


def run_depth_model_ablation(num_files: int = 4_000, seed: int = 42) -> dict:
    """Multiplicative vs Poisson-only depth placement."""
    results = {}
    for label, multiplicative in (("multiplicative", True), ("poisson-only", False)):
        config = ImpressionsConfig(
            fs_size_bytes=None,
            num_files=num_files,
            num_directories=max(num_files // 5, 10),
            seed=seed,
            use_multiplicative_depth_model=multiplicative,
        )
        image = Impressions(config).generate()
        distribution = analyze_image(image)
        depth_fracs = distribution.files_by_depth_fractions()
        poisson = config.depth_distribution
        depths = np.arange(len(depth_fracs))
        target = np.asarray(poisson.pmf(depths), dtype=float)
        target = target / target.sum() if target.sum() else target
        mean_bytes_error = _mean_bytes_error(distribution.mean_bytes_by_depth, config)
        results[label] = {
            "files_by_depth_mdcc": mdcc_from_fractions(target, depth_fracs),
            "mean_bytes_by_depth_error_mb": mean_bytes_error,
        }
    return results


def _mean_bytes_error(observed: dict, config: ImpressionsConfig) -> float:
    targets = config.mean_bytes_by_depth
    common = [depth for depth in observed if depth in targets]
    if not common:
        return float("nan")
    diffs = [abs(observed[depth] - targets[depth]) for depth in common]
    return float(np.mean(diffs)) / (1024.0 * 1024.0)


def format_depth_model_table(result: dict) -> str:
    rows = [
        [label, data["files_by_depth_mdcc"], data["mean_bytes_by_depth_error_mb"]]
        for label, data in result.items()
    ]
    return format_rows(
        ["depth model", "files-by-depth MDCC vs Poisson", "mean-bytes-by-depth error (MB)"],
        rows,
        title="Ablation: multiplicative vs Poisson-only file depth model",
    )


# --- Subset-sum improvement phase -------------------------------------------------


def run_subset_sum_ablation(
    pool_size: int = 1_100, subset_size: int = 1_000, trials: int = 10, seed: int = 42
) -> dict:
    """Subset-sum accuracy with and without the local-improvement phase."""
    distribution = LognormalDistribution(mu=8.16, sigma=2.46)
    results = {"with-improvement": [], "without-improvement": []}
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        pool = distribution.sample(rng, pool_size)
        target = float(np.sort(pool)[:subset_size].sum() * 1.05)
        for label, passes in (("with-improvement", 3), ("without-improvement", 0)):
            solution = solve_fixed_size_subset_sum(
                values=pool,
                subset_size=subset_size,
                target_sum=target,
                rng=np.random.default_rng(seed + trial),
                max_improvement_passes=passes,
            )
            results[label].append(solution.relative_error)
    return {
        label: {
            "mean_relative_error": float(np.mean(errors)),
            "max_relative_error": float(np.max(errors)),
        }
        for label, errors in results.items()
    }


def format_subset_sum_table(result: dict) -> str:
    rows = [
        [label, data["mean_relative_error"], data["max_relative_error"]]
        for label, data in result.items()
    ]
    return format_rows(
        ["variant", "mean |sum error|", "max |sum error|"],
        rows,
        title="Ablation: subset-sum local improvement phase",
    )


# --- Content models ------------------------------------------------------------------


def run_content_model_ablation(bytes_per_model: int = 200_000, seed: int = 42) -> dict:
    """Throughput and vocabulary richness of the word models."""
    models = {
        "single-word": SingleWordModel(),
        "word-popularity": WordPopularityModel(),
        "word-length": WordLengthFrequencyModel(),
        "hybrid": HybridWordModel(),
    }
    tele = obs_core.current()
    results = {}
    for label, model in models.items():
        rng = np.random.default_rng(seed)
        with tele.span("content_model", model=label) as record:
            text = model.text(rng, bytes_per_model)
        elapsed = record.wall_seconds
        words = text.split()
        results[label] = {
            "seconds": elapsed,
            "mb_per_second": (bytes_per_model / (1024.0 * 1024.0)) / max(elapsed, 1e-9),
            "unique_words": len(set(words)),
            "total_words": len(words),
        }
    return results


def format_content_model_table(result: dict) -> str:
    rows = [
        [label, data["mb_per_second"], data["unique_words"], data["total_words"]]
        for label, data in result.items()
    ]
    return format_rows(
        ["content model", "MB/s", "unique words", "total words"],
        rows,
        title="Ablation: content model throughput and richness",
    )
