"""Block-number views of extent layouts, for tests that compare block lists.

The layout engine stores ``(start, length)`` runs; these expand them with
:func:`repro.layout.disk.expand_extents` where a test wants one int per block.
"""

from __future__ import annotations

from repro.layout.disk import SimulatedDisk, expand_extents
from repro.namespace.tree import FileNode


def blocks_of(disk: SimulatedDisk, name: str) -> list[int]:
    """Block numbers owned by ``name`` on ``disk``, in logical order."""
    return expand_extents(disk.extents_of(name))


def node_blocks(node: FileNode) -> list[int]:
    """Block numbers of ``node``, expanded from its extents."""
    return expand_extents(node.extents)
