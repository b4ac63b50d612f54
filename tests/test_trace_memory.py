"""Memory guard: a synthesized trace is held as columns, not one object per operation.

When every operation was a slotted ``Operation`` in a list, a trace kept
about 153 bytes per operation for a 100k-operation Zipf mix and about 136
for a 15k-operation churn trace (tracemalloc, after ``gc.collect()``).  The
columnar container must keep at most half of that, so a change that goes
back to one object per operation fails here.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.trace.synthesize import ChurnSpec, ZipfMixSpec, synthesize_churn, synthesize_zipf_mix

#: Bytes per operation the list-of-``Operation`` container kept.
ZIPF_BYTES_PER_OP_BEFORE = 153
CHURN_BYTES_PER_OP_BEFORE = 136


def _bytes_per_operation(build) -> float:
    """Bytes still allocated after ``build()`` and a full collection, per operation."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / len(trace)


def test_zipf_trace_keeps_at_most_half_the_bytes_per_operation(small_image):
    spec = ZipfMixSpec(num_ops=100_000)
    per_op = _bytes_per_operation(lambda: synthesize_zipf_mix(small_image, spec, seed=42))
    assert per_op <= ZIPF_BYTES_PER_OP_BEFORE / 2, per_op


def test_churn_trace_keeps_at_most_half_the_bytes_per_operation():
    spec = ChurnSpec(num_ops=15_000)
    per_op = _bytes_per_operation(lambda: synthesize_churn(spec, seed=42))
    assert per_op <= CHURN_BYTES_PER_OP_BEFORE / 2, per_op
