"""Declarative campaign specifications and scenario expansion.

A campaign spec is a plain JSON document (or dict) describing a *sweep* of
file-system benchmarking scenarios, in the declarative what-if style FBench
argues for:

.. code-block:: json

    {
      "name": "layout-sweep",
      "base": {"num_files": 2000, "num_directories": 400},
      "sweep": {
        "num_files": [1000, 2000, 4000],
        "layout_score": [1.0, 0.6],
        "seed": [1, 2]
      },
      "steps": [
        {"step": "find"},
        {"step": "trace_replay", "kind": "zipf", "ops": 5000}
      ]
    }

``base`` holds :data:`~repro.core.config.KNOB_NAMES` knobs shared by every
scenario; ``sweep`` maps knob names to value lists and expands to their cross
product (axes vary in declaration order, last axis fastest); ``steps`` names
post-generation stages (:func:`repro.pipeline.registry.post_stage_names`) to
run against each generated image, in order; the rest of each step object is
the stage's params.

Every expanded :class:`Scenario` carries a *fingerprint*: the SHA-256 of the
canonical JSON of its fully resolved knob set (normalized through
:meth:`ImpressionsConfig.from_knobs` / :meth:`~ImpressionsConfig.to_knobs`,
so two spellings of the same config collide) plus its step list.  The result
store keys completed work by fingerprint, which is what makes re-runs
incremental and comparisons across stores well-defined.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.core.config import KNOB_NAMES, ImpressionsConfig
from repro.pipeline.registry import post_stage_names

__all__ = [
    "CampaignSpec",
    "Scenario",
    "SpecError",
    "SPEC_FORMAT_VERSION",
    "scenario_fingerprint",
]

#: Bumped when the scenario fingerprint recipe changes, so stores written by
#: incompatible code never silently satisfy a resume.
SPEC_FORMAT_VERSION = 1


class SpecError(ValueError):
    """Raised when a campaign spec document is malformed."""


@dataclass(frozen=True)
class Scenario:
    """One concrete cell of a campaign's sweep grid.

    Attributes:
        campaign: name of the campaign the scenario belongs to.
        scenario_id: human-readable identity, e.g.
            ``layout-sweep[num_files=1000,layout_score=0.6,seed=1]`` —
            stable across runs and the join key ``campaign compare`` uses.
        params: the swept axis values of this cell (axis → value).
        knobs: the fully resolved config knob set (base ∪ params, normalized
            to include every default).
        steps: the step specs to run, in order.
        fingerprint: SHA-256 hex digest identifying (knobs, steps).
    """

    campaign: str
    scenario_id: str
    params: Mapping[str, object]
    knobs: Mapping[str, object]
    steps: tuple[Mapping[str, object], ...]
    fingerprint: str

    def config(self) -> ImpressionsConfig:
        return ImpressionsConfig.from_knobs(self.knobs)

    def payload(self) -> dict:
        """The picklable dict shipped to worker processes and result rows."""
        return {
            "campaign": self.campaign,
            "scenario": self.scenario_id,
            "params": dict(self.params),
            "knobs": dict(self.knobs),
            "steps": [dict(step) for step in self.steps],
            "fingerprint": self.fingerprint,
        }


@dataclass(frozen=True)
class CampaignSpec:
    """A parsed, validated campaign document."""

    name: str
    base: Mapping[str, object] = field(default_factory=dict)
    sweep: Mapping[str, Sequence[object]] = field(default_factory=dict)
    steps: tuple[Mapping[str, object], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecError("campaign spec needs a non-empty string 'name'")
        for source, mapping in (("base", self.base), ("sweep", self.sweep)):
            unknown = sorted(set(mapping) - KNOB_NAMES)
            if unknown:
                raise SpecError(
                    f"unknown knob(s) {unknown} in campaign {source!r}; "
                    f"valid knobs: {sorted(KNOB_NAMES)}"
                )
        for axis, values in self.sweep.items():
            if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
                raise SpecError(f"sweep axis {axis!r} must be a list of values")
            if not values:
                raise SpecError(f"sweep axis {axis!r} must not be empty")
        if not self.steps:
            raise SpecError("campaign spec needs at least one step")
        steps = post_stage_names()
        for step in self.steps:
            if not isinstance(step, Mapping) or not isinstance(step.get("step"), str):
                raise SpecError(f"each step needs a string 'step' name, got {step!r}")
            if step["step"] not in steps:
                raise SpecError(f"unknown step {step['step']!r}; registered steps: {steps}")
        # Resolve one cell eagerly so bad knob *values* (not just names) fail
        # at parse time instead of inside a worker process.
        first = {axis: values[0] for axis, values in self.sweep.items()}
        try:
            _resolved_knobs({**dict(self.base), **first})
        except ValueError as error:
            raise SpecError(f"invalid campaign knob values: {error}") from error

    # Construction -----------------------------------------------------------

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "CampaignSpec":
        if not isinstance(document, Mapping):
            raise SpecError("campaign spec must be a JSON object")
        unknown = sorted(set(document) - {"name", "base", "sweep", "steps", "description"})
        if unknown:
            raise SpecError(f"unknown campaign spec key(s) {unknown}")
        steps = document.get("steps", ())
        if not isinstance(steps, Sequence) or isinstance(steps, (str, bytes)):
            raise SpecError("'steps' must be a list of step objects")
        return cls(
            name=document.get("name", ""),
            base=dict(document.get("base", {}) or {}),
            sweep=dict(document.get("sweep", {}) or {}),
            steps=tuple(dict(step) if isinstance(step, Mapping) else step for step in steps),
            description=str(document.get("description", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"campaign spec is not valid JSON: {error}") from error
        return cls.from_dict(document)

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "base": dict(self.base),
            "sweep": {axis: list(values) for axis, values in self.sweep.items()},
            "steps": [dict(step) for step in self.steps],
        }
        if self.description:
            out["description"] = self.description
        return out

    # Expansion --------------------------------------------------------------

    @property
    def num_scenarios(self) -> int:
        count = 1
        for values in self.sweep.values():
            count *= len(values)
        return count

    def expand(self) -> list[Scenario]:
        """The cross product of the sweep axes, as concrete scenarios.

        Axes vary in declaration order with the last axis fastest, so the
        scenario order — and therefore the result-store row order — is a pure
        function of the spec.
        """
        axes = list(self.sweep.keys())
        scenarios = []
        for combination in itertools.product(*(self.sweep[axis] for axis in axes)):
            params = dict(zip(axes, combination))
            knobs = _resolved_knobs({**dict(self.base), **params})
            rendered = ",".join(f"{axis}={_render(value)}" for axis, value in params.items())
            scenario_id = f"{self.name}[{rendered}]" if rendered else self.name
            scenarios.append(
                Scenario(
                    campaign=self.name,
                    scenario_id=scenario_id,
                    params=params,
                    knobs=knobs,
                    steps=self.steps,
                    fingerprint=scenario_fingerprint(knobs, self.steps),
                )
            )
        return scenarios


def scenario_fingerprint(
    knobs: Mapping[str, object], steps: Iterable[Mapping[str, object]]
) -> str:
    """SHA-256 identity of a scenario: config identity + ordered step specs.

    The config component is :meth:`ImpressionsConfig.fingerprint` — the same
    digest ``impressions --json`` reports as ``config_fingerprint`` — so a
    scenario's identity is visibly derived from its config's.
    """
    canonical = json.dumps(
        {
            "format": SPEC_FORMAT_VERSION,
            "config": ImpressionsConfig.from_knobs(knobs).fingerprint(),
            "steps": [dict(step) for step in steps],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _resolved_knobs(knobs: Mapping[str, object]) -> dict:
    """Normalize a partial knob mapping to the full defaulted knob set."""
    return ImpressionsConfig.from_knobs(knobs).to_knobs()


def _render(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
