"""Observability tour: spans, metrics, exporters, and cross-process merge.

Run with::

    PYTHONPATH=src python examples/telemetry_tour.py

Walks the ``repro.obs`` surface end to end: binding a ``Telemetry`` object
over a pipeline run (every stage becomes a span, cache events become
counters), observing a trace replay (per-op-class latency histograms),
merging a worker-style snapshot into a parent, writing/re-reading the four
artifact formats an ``--obs-dir`` run produces, and running unobserved under
the null telemetry.
"""

from __future__ import annotations

import os
import tempfile

from repro import Impressions, ImpressionsConfig, obs
from repro.trace.replay import TraceReplayer
from repro.trace.synthesize import ZipfMixSpec, synthesize_zipf_mix

config = ImpressionsConfig(fs_size_bytes=None, num_files=2_000, num_directories=400, seed=7)

# 1. Observe a whole generation + replay run through the context binding.
#    Every instrumented subsystem on the call path picks the telemetry up via
#    obs.current() — no plumbing through intermediate APIs.
telemetry = obs.Telemetry(run_id="tour")
with obs.use(telemetry):
    image = Impressions(config).generate()
    trace = synthesize_zipf_mix(image, ZipfMixSpec(num_ops=20_000), seed=1)
    TraceReplayer(image).replay(trace)

print("== span/metric summary of the observed run ==")
print(obs.render_text(telemetry))

# 2. Custom spans and metrics compose with the built-in instrumentation.
with obs.use(telemetry):
    with telemetry.span("analysis", what="demo"):
        depth_hist = telemetry.histogram(
            "path_depth", "namespace depth per file", buckets=(2, 4, 8, 16), unit="levels"
        )
        depth_hist.labels().observe_many(
            [float(node.path().count("/")) for node in image.tree.iter_files()]
        )

# 3. Worker-style merge: snapshots are picklable dicts; counters and
#    histogram buckets add, gauges take the incoming value, spans keep the
#    recording pid.  This is exactly how `impressions campaign run --workers N
#    --obs-dir ...` folds per-scenario telemetry into one parent snapshot.
worker = obs.Telemetry(run_id="worker-demo")
with worker.span("scenario", scenario="demo[files=500]"):
    worker.counter("pipeline_stages_total", labels=("stage", "outcome")).inc(
        6, stage="all", outcome="run"
    )
telemetry.merge(worker.snapshot())
print(f"\nafter merge: {len(telemetry.spans)} spans from "
      f"{len({span.pid for span in telemetry.spans})} process(es)")

# 4. The four artifacts an --obs-dir run writes, re-read from disk.
with tempfile.TemporaryDirectory() as obs_dir:
    paths = obs.save(telemetry, obs_dir)
    print("\n== artifacts ==")
    for name, path in sorted(paths.items()):
        print(f"  {name:12s} {os.path.basename(path):14s} {os.path.getsize(path):8d} bytes")

    # The JSONL event log is canonical: everything else re-derives from it
    # (that is what `impressions obs export --format chrome|prom` does).
    rebuilt = obs.read_events_jsonl(obs_dir)
    assert rebuilt.to_events() == telemetry.to_events()
    print("\nevent log round-trips: rebuilt telemetry is event-identical")

    # Diff two runs' metric snapshots with the campaign tolerance machinery.
    from repro.campaign.report import compare

    result = compare(
        obs.compare_rows(telemetry), obs.compare_rows(rebuilt), tolerance=0.05
    )
    print(f"self-comparison: {result.compared_scenarios} series compared, "
          f"{len(result.regressions)} regressions")

# 5. Unobserved runs: obs.current() is the shared null telemetry, obs.NULL.
#    Its spans still time their block (every phase timing a result reports is
#    a span's wall_seconds) but keep nothing, and its metrics are no-ops.
assert obs.current() is obs.NULL
plain = Impressions(config).generate()
print(f"\nunobserved run: placement {plain.report.phase_timings['depth_and_placement']:.3f} s, "
      f"{len(obs.NULL.spans)} spans kept, "
      f"telemetry section in report: {'telemetry' in plain.report.to_dict()}")
