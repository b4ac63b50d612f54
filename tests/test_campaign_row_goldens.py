"""Golden digests of campaign result rows: every built-in step, two seeds.

One spec names each step a campaign accepts exactly once.  For every scenario
the test pins the SHA-256 of its fingerprint (what result stores and farm
queues key completed work by) and of its deterministic row view (every metric
of every step).  Moving a step between registries, renaming the stage behind
it or reshaping how the runner calls it must leave both digests unchanged;
they were recorded before any such move and must never be re-pinned to make
a refactor pass.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.campaign.runner import run_scenario
from repro.campaign.spec import CampaignSpec, SpecError
from repro.campaign.store import deterministic_view

SPEC_DOC = {
    "name": "golden-steps",
    "base": {"num_files": 80, "num_directories": 16, "fs_size_bytes": 4 << 20},
    "sweep": {"seed": [3, 4]},
    "steps": [
        {"step": "summary"},
        {"step": "find", "pattern": "target"},
        {"step": "grep"},
        {"step": "trace_replay", "kind": "zipf", "ops": 400},
        {"step": "merged_replay", "clients": 2, "ops": 200},
        {"step": "age", "target_score": 0.9},
        {
            "step": "bench",
            "driver": "fig3_constraints",
            "num_files": 100,
            "target_sum": 9000.0,
            "trials": 2,
        },
        {"step": "materialize"},
        {"step": "sharded_generate", "shards": 2},
    ],
}

#: scenario id → (sha256 of the fingerprint, sha256 of the deterministic row).
GOLDENS = {
    "golden-steps[seed=3]": (
        "eaee8142b05d8afa3d3e83b60872d42a837bc159c0d1ba1f4451818c44729107",
        "5ffa2148af733537dc130402fda804d3fc5cadc9d68acdda130bc36611146573",
    ),
    "golden-steps[seed=4]": (
        "7d56b31a14d56ca90f302e6879f84c0e07a06796381aad32c709ea1c2a0954b0",
        "2c8bb51da524218831596be4897146204802d0140cde18ba833359d9fec6c7a4",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def rows():
    spec = CampaignSpec.from_dict(SPEC_DOC)
    return {
        scenario.scenario_id: run_scenario(scenario.payload()) for scenario in spec.expand()
    }


def test_spec_uses_every_step_once():
    names = [step["step"] for step in SPEC_DOC["steps"]]
    assert len(names) == len(set(names)) == 9


@pytest.mark.parametrize("scenario_id", sorted(GOLDENS))
def test_scenario_fingerprint_is_pinned(rows, scenario_id):
    assert _sha(rows[scenario_id]["fingerprint"]) == GOLDENS[scenario_id][0]


@pytest.mark.parametrize("scenario_id", sorted(GOLDENS))
def test_deterministic_row_is_pinned(rows, scenario_id):
    view = json.dumps(deterministic_view(rows[scenario_id]), sort_keys=True)
    assert _sha(view) == GOLDENS[scenario_id][1]


def test_every_step_reports_metrics(rows):
    for row in rows.values():
        labels = {key.split(".", 1)[0] for key in row["metrics"]}
        assert labels == {step["step"] for step in SPEC_DOC["steps"]}


def test_generation_stage_is_not_a_step():
    document = dict(SPEC_DOC, steps=[{"step": "file_sizes"}])
    with pytest.raises(SpecError, match="unknown step 'file_sizes'"):
        CampaignSpec.from_dict(document)
