"""Campaigns: declarative scenario sweeps, parallel execution, regression tracking.

The campaign subsystem turns the reproduction into a benchmarking *system*:
a JSON spec declares a base configuration, parameter-grid sweeps over any
:data:`~repro.core.config.KNOB_NAMES` knob (file counts, layout scores,
content policies, seeds, …), and a list of scenario steps: post-generation
stages from :mod:`repro.pipeline.registry` (workload simulators, trace
replays, aging, bench drivers, materialization).  The runner expands the
grid, executes scenarios across a process pool, and appends one canonical
JSON row per scenario to an append-only JSONL store keyed by spec+seed
fingerprints — so re-runs skip finished work, and two stores (two runs, two
git revisions) can be diffed for metric regressions.

* :mod:`repro.campaign.spec` — spec parsing, scenario expansion, fingerprints.
* :mod:`repro.campaign.runner` — process-pool execution.
* :mod:`repro.campaign.store` — the append-only JSONL result store.
* :mod:`repro.campaign.report` — sweep tables and store comparison.
* :mod:`repro.campaign.cli` — ``impressions campaign run|list|report|compare``.
"""

from repro.campaign.report import (
    ComparisonResult,
    MetricDelta,
    compare,
    metric_direction,
    metric_names,
    render_report,
)
from repro.campaign.runner import CampaignRunResult, run_campaign, run_scenario
from repro.campaign.spec import CampaignSpec, Scenario, SpecError, scenario_fingerprint
from repro.campaign.store import ResultStore, StoreError, deterministic_view

__all__ = [
    "CampaignSpec",
    "Scenario",
    "SpecError",
    "scenario_fingerprint",
    "run_campaign",
    "run_scenario",
    "CampaignRunResult",
    "ResultStore",
    "StoreError",
    "deterministic_view",
    "compare",
    "ComparisonResult",
    "MetricDelta",
    "metric_direction",
    "metric_names",
    "render_report",
]
