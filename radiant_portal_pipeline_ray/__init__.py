"""radiant_portal_pipeline_ray — a Ray-Data-native CDC / incremental-ingest engine.

Built from scratch with the data-processing capabilities of
radiant-network/radiant-portal-pipeline (see SURVEY.md), re-expressed as
``ray.data.Dataset`` pipelines over zero-copy Arrow batches:

- ``sources/``    changelog readers + deterministic synthetic generators
- ``functions/``  pure, vectorized per-batch kernels (text extraction, hashing)
- ``state/``      manifest / two-phase commit, partition assignment, lake scans
- ``stages/``     reusable Dataset→Dataset stages (normalize, merge, joins, dedup, ...)
- ``pipelines/``  end-to-end drivers (CDC apply loop, relational/text/similarity queries)

Nothing in this package calls ``ray.init()``; sessions are owned by the
caller (tests' conftest fixture, ``bench.py``, or the evaluation driver).
"""

import os as _os

import pyarrow as _pa

# Long-lived Ray workers run many Arrow-heavy batches; jemalloc's default
# decay keeps freed arenas resident and per-task UDF time was measured to
# DOUBLE by round 4 of a replay (allocator pressure, not algorithm). A
# SHORT decay returns pages promptly without the madvise/TLB-shootdown
# storm that decay=0 can trigger across a full worker fleet (measured: 90%+
# system time). Override with GRAFT_JEMALLOC_DECAY_MS; set to -1 to leave
# jemalloc defaults untouched.
try:
    _decay = int(_os.environ.get("GRAFT_JEMALLOC_DECAY_MS", "500"))
    if _decay >= 0:
        _pa.jemalloc_set_decay_ms(_decay)
except (NotImplementedError, OSError, ValueError):  # non-jemalloc builds
    pass

# Polars (the salt-slot hash in functions/hashing.py, the QA checksums, the
# dedup and text kernels) sizes its global thread pool to os.cpu_count() at
# import. Inside Ray workers/actors that each hold a fraction of a CPU,
# dozens of 32-thread pools oversubscribe the host; bound it BEFORE any
# polars import unless the user chose a value.
_os.environ.setdefault("POLARS_MAX_THREADS", "4")

from radiant_portal_pipeline_ray.config import EngineConfig

__all__ = ["EngineConfig"]
__version__ = "0.1.0"
