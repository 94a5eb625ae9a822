"""Engine configuration.

Reference analogue: resource profiles + partition capacity knobs
(`radiant/dags/operators/k8s.py:9-31`, `radiant/tasks/starrocks/partition.py:91-94`,
`radiant/tasks/iceberg/table_accumulator.py:16-19`) — collapsed into one dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass
class EngineConfig:
    """Knobs for the CDC apply pipeline.

    Defaults are sized for single-node tests; at cluster scale raise
    ``n_parts`` so each partition's merge group fits one worker's heap
    (the explicit design assumption of the per-partition merge, SURVEY §7.5).
    """

    # --- partitioning ---------------------------------------------------
    #: number of base hash partitions (part = stable_hash(domain) % n_parts).
    n_parts: int = 8
    #: the url→salt-slot hash every lake routes with; not a knob. Its one
    #: reader is perfbench/layers.py, which times ``assign_parts`` with it.
    salt_hash_version_default: ClassVar[int] = 2
    #: a domain whose cumulative row count exceeds this is salted across
    #: multiple partitions (hot-key handling, north rule axes A+B).
    salt_threshold_rows: int = 250_000
    #: target rows per salted sub-partition when splitting a hot domain
    #: (allocated with ``state/partitioner.SALT_HEADROOM``× growth room).
    salt_target_rows: int = 150_000

    # --- merge / write --------------------------------------------------
    #: split a partition's snapshot into multiple files above this row count
    #: (resumable, scan-parallel output; reference flushed at 500MB —
    #: `radiant/tasks/iceberg/table_accumulator.py:16`).
    target_rows_per_file: int = 1_000_000
    #: parquet compression for snapshot files; not a knob.
    compression: ClassVar[str] = "zstd"

    # --- commit ---------------------------------------------------------
    #: manifest commit retry budget (reference: 20 attempts w/ backoff,
    #: `radiant/tasks/iceberg/utils.py:73-96`).
    commit_retries: int = 20

    # --- doc-id allocation ----------------------------------------------
    #: the apply pipeline allocates doc_ids deterministically inside the
    #: merge from per-partition counters persisted in the manifest (no
    #: coordination — ids are ``part << doc_id_part_shift | seq``). Not a
    #: knob: every committed doc id holds it, and the manifest does not
    #: record it, so a lake read with another shift would misread its ids.
    doc_id_part_shift: ClassVar[int] = 40

    # --- maintenance ----------------------------------------------------
    #: event-time horizon for tombstone purge: a delete tombstone may be
    #: dropped only when its warc_ts is older than (max observed warc_ts −
    #: this lag). LWW order is (warc_ts, lsn), so a late out-of-order event
    #: carries a NEW lsn (passes the watermark filter) but an OLD warc_ts;
    #: without its tombstone such an event would resurrect a deleted url.
    #: Must exceed the source's out-of-order jitter bound (FIXTURES:
    #: ts_jitter_s = 86400); default keeps a 7-day margin.
    tombstone_horizon_lag_s: int = 7 * 86400

    #: run the post-commit QA suite (stages/qa.snapshot_checks) at the end
    #: of every successful ``CdcEngine.apply``; the report is returned under
    #: ``report['qa']`` and failures are data, not exceptions.
    run_qa: bool = False

    # --- chaos (tests only) ----------------------------------------------
    #: worker-crash injection point:
    #: ``("scout"|"merge"|"compact", sentinel_dir)``.
    #: The first matching task after the sentinel dir is empty hard-exits
    #: its worker process (a REAL worker death — Ray's task retry, the
    #: deterministic staged-file names and the manifest CAS must absorb it).
    #: See chaos.py and tests/test_chaos.py. Always ``None`` in production.
    fault_inject: tuple | None = None
