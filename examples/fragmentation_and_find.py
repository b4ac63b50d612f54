#!/usr/bin/env python3
"""Does file-system structure matter?  (Section 2.1, Figure 1.)

Generates one default image and then varies a single aspect of file-system
state at a time — cache contents, on-disk fragmentation, and the shape of the
directory tree — measuring a simulated ``find /`` run on each.  The same image
is followed by a create/delete churn trace replayed on a fresh disk, the
alternate workload-driven fragmentation mode of Section 3.7.

Run with::

    python examples/fragmentation_and_find.py
"""

from __future__ import annotations

from repro.bench import fig1_find
from repro.layout import SimulatedDisk, layout_score
from repro.trace.replay import TraceReplayer
from repro.trace.synthesize import ChurnSpec, synthesize_churn


def show_figure1() -> None:
    result = fig1_find.run(num_files=1_500, seed=9)
    print(fig1_find.format_table(result))
    print()
    relative = result["relative_overhead"]
    spread = relative["Deep Tree"] / relative["Flat Tree"]
    print(f"Flat-to-deep spread: {spread:.1f}x "
          "(the paper reports roughly a 3x gap between the flat and deep trees)")


def replay_churn(delete_fraction: float) -> tuple[int, SimulatedDisk]:
    """Replay 3,000 create/delete operations (no accesses) on a fresh disk.

    Returns the number of operations executed and the aged disk.
    """
    spec = ChurnSpec(
        num_ops=3_000, delete_fraction=delete_fraction, access_fraction=0.0, rename_fraction=0.0
    )
    replayer = TraceReplayer(disk_blocks=200_000)
    result = replayer.replay(synthesize_churn(spec, seed=4))
    return result.total_operations, replayer.disk


def show_workload_driven_fragmentation() -> None:
    print()
    print("Workload-driven fragmentation (alternate mode of Section 3.7):")
    operations, disk = replay_churn(delete_fraction=0.45)
    print(f"  operations replayed : {operations}")
    print(f"  resulting layout score: {disk.layout_score():.3f}")
    print(f"  disk state          : {disk.summary()}")
    # A gentler workload on a fresh disk fragments less.
    _, gentle = replay_churn(delete_fraction=0.1)
    gentle_score = gentle.layout_score()
    print(f"  gentler workload (10% deletes) layout score: {gentle_score:.3f}")
    recomputed = layout_score(gentle, gentle.file_names())
    print(f"  verification: recomputed score matches -> {abs(recomputed - gentle_score) < 1e-9}")


def main() -> None:
    show_figure1()
    show_workload_driven_fragmentation()


if __name__ == "__main__":
    main()
