"""Disk layout and fragmentation (Section 3.7).

The paper measures on-disk fragmentation with the *layout score* of Smith &
Seltzer: 1.0 when every file's blocks are laid out consecutively, 0.0 when no
two blocks of any file are adjacent.  Impressions can both measure the score
of an existing layout and *create* a layout with a requested score by issuing
pairs of temporary file create/delete operations while regular files are being
written.

The original tool reads block maps from real Ext2/Ext3 file systems via
``debugfs``; offline we substitute :class:`repro.layout.disk.SimulatedDisk`, a
first-fit block allocator that models exactly the allocation behaviour the
create/delete trick exploits (holes left by deleted temporary files force the
next allocation to split).

* :mod:`repro.layout.disk` — simulated extent allocator and cost model.
* :mod:`repro.layout.layout_score` — the layout-score metric.
* :mod:`repro.layout.fragmenter` — target-score fragmentation during image
  creation.

The paper's alternate mode — run a workload, then read back the score it
produced — lives in the trace layer: :func:`repro.trace.synthesize.synthesize_churn`
replayed by :class:`repro.trace.replay.TraceReplayer`, or
:class:`repro.trace.aging.TraceAger` to age a finished image toward a target.
"""

from repro.layout.disk import AllocationError, SimulatedDisk
from repro.layout.fragmenter import Fragmenter
from repro.layout.layout_score import file_layout_score, layout_score

__all__ = [
    "SimulatedDisk",
    "AllocationError",
    "layout_score",
    "file_layout_score",
    "Fragmenter",
]
