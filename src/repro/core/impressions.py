"""The Impressions generation facade (Section 3.3).

Image creation proceeds in the phases the paper describes and times
(Table 6):

1. **Directory structure** — the generative tree model builds the namespace.
2. **File sizes** — sampled from the configured size model; when the user
   also pinned the total file-system size, the multi-constraint resolver
   reconciles the sample with the target sum.
3. **Extensions** — assigned from the popularity model.
4. **File depth / parent directory** — the multiplicative depth model places
   each file, honouring special-directory biases.
5. **File content** — optional; the chosen word model / typed headers are
   recorded so content can be regenerated lazily and deterministically.
6. **On-disk creation & layout** — files are allocated on the simulated disk
   while the fragmenter steers the layout score toward the target.

Since the pipeline redesign these phases live as composable stages in
:mod:`repro.pipeline` (one :class:`~repro.pipeline.stage.Stage` per phase,
run by a :class:`~repro.pipeline.runner.Pipeline`).  :class:`Impressions`
remains the stable convenience API: ``Impressions(config).generate()`` runs
the default six-stage pipeline and returns an image identical, seed for
seed, to what the historical monolithic generator produced.  Callers that
want stage subsets, progress hooks or the content-addressed stage cache use
the pipeline API directly::

    from repro.pipeline import StageCache, default_pipeline

    result = default_pipeline().run(config, cache=StageCache(cache_dir))
    image = result.image

Every phase's wall-clock time (its stage span's ``wall_seconds``) is recorded
in the reproducibility report's ``phase_timings``, so the Table 6 benchmark
simply reads it back.
"""

from __future__ import annotations

from repro.core.config import ImpressionsConfig
from repro.core.image import FileSystemImage

__all__ = ["Impressions"]


class Impressions:
    """Generates file-system images from an :class:`ImpressionsConfig`.

    A thin facade over :func:`repro.pipeline.runner.default_pipeline` kept
    for API stability (and as the one-liner the paper's "ease of use" goal
    asks for).
    """

    def __init__(self, config: ImpressionsConfig | None = None) -> None:
        self._config = config or ImpressionsConfig()

    @property
    def config(self) -> ImpressionsConfig:
        return self._config

    def generate(
        self,
        cache_dir: str | None = None,
        on_cache_busy: str = "error",
    ) -> FileSystemImage:
        """Run the full default pipeline and return the generated image.

        ``cache_dir`` enables the content-addressed stage cache under that
        directory.  The directory is locked for the duration of the run:
        a second concurrent ``generate()`` pointed at the same directory gets
        a clear :class:`~repro.pipeline.cache.CacheBusyError` up front (not a
        pickle traceback from racing snapshots) unless
        ``on_cache_busy="ignore"`` opts into sharing — cache writes are
        atomic, so sharing is safe, merely redundant.  Concurrent workers
        should prefer per-worker slices (:func:`repro.shard.shard_cache_slice`).
        """
        from repro.pipeline.cache import StageCache, cache_lock
        from repro.pipeline.runner import default_pipeline

        if cache_dir is None:
            return default_pipeline().run(self._config).image
        with cache_lock(cache_dir, owner="impressions-generate", on_busy=on_cache_busy):
            return default_pipeline().run(self._config, cache=StageCache(cache_dir)).image
