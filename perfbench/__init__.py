"""perfbench: the repository's performance benchmark.

Four closed-loop workloads call the public API of ``repro`` from outside and
report speed and fidelity; a separate traced run breaks the time down by
layer.  See ``perfbench/README.md`` and ``python -m perfbench --help``.
"""

from __future__ import annotations

import os
from pathlib import Path

#: The checkout the benchmark runs in: ``perfbench/`` and ``src/`` live here.
ROOT = Path(__file__).resolve().parent.parent


def subprocess_env() -> dict[str, str]:
    """The environment for a child interpreter that imports perfbench and repro."""
    env = dict(os.environ)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env
