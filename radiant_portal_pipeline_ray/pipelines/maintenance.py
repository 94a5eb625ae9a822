"""Lake maintenance: partition compaction + tombstone purge.

A long-lived CDC lake accumulates (a) many small files per partition (one
per apply round that touched it) and (b) delete tombstones that only exist
to beat late out-of-order events. Both are rewritten here as a normal
exactly-once transaction: a per-partition rewrite into new files at their
final keys under ``data/`` → manifest commit with a ``compacted`` lineage
entry and the compaction's own metrics (``op: compact``).
Watermarks, doc_id counters and the salt map are untouched, so an apply can
run before/after/interleaved with compaction and converge identically.

Reference analogue: the StarRocks temp-partition rewrite + ``REPLACE
PARTITION`` swap (`radiant/tasks/starrocks/operator.py:282-355`) and
Iceberg's rewrite-data-files maintenance, re-expressed as a Ray Data
groupby over the snapshot.

Tombstone retention: LWW order is ``(warc_ts, lsn)`` and the ingest filter
is on *lsn* only, so a late out-of-order event arrives with a NEW lsn
(passes the watermark filter) but an OLD warc_ts — it must still lose to a
retained tombstone. Purging on an lsn watermark is therefore UNSAFE. The
safe rule is an **event-time horizon**: a tombstone may be dropped only
when its ``warc_ts`` is older than ``max observed warc_ts −
EngineConfig.tombstone_horizon_lag_s`` (the allowed out-of-order lag, per
FIXTURES ``ts_jitter_s``); any future event with an even older warc_ts
would lose the LWW sort regardless, and events inside the horizon still
find the tombstone. The caller opts in via ``purge_tombstones=True``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.stages.merge import write_snapshot_files
from radiant_portal_pipeline_ray.state import lakescan
from radiant_portal_pipeline_ray.state.manifest import (
    Lake,
    Manifest,
    PartitionState,
)


class CompactionConflict(Exception):
    """A concurrent writer changed a partition being compacted; the
    rewrite is stale. Clean abort — re-run compact against the new state."""

_META = pa.schema(
    [
        pa.field("part", pa.int32()),
        pa.field("files", pa.list_(pa.string())),
        pa.field("rows", pa.int64()),
        pa.field("tombstones", pa.int64()),
        pa.field("bytes", pa.int64()),
        # JSON list of per-file zone maps aligned with ``files``
        # (state/zonemaps.py) — manifest-level data skipping at read time
        pa.field("file_stats", pa.string()),
    ]
)


def _write_counts(meta_rows: list[dict]) -> dict:
    """Bytes and files a rewrite wrote, as ``stage_metrics["write"]``."""
    return {
        "bytes": sum(int(m["bytes"]) for m in meta_rows),
        "files": sum(len(m["files"]) for m in meta_rows),
    }


def _max_warc_ts_us(lake: Lake, manifest: Manifest) -> int | None:
    """Lake-wide max observed ``warc_ts`` in µs, from parquet footer column
    statistics (metadata-only; falls back to reading the column)."""
    best: int | None = None
    for st in manifest.partitions.values():
        for rel in st.files:
            path = lake.abspath(rel)
            md = pq.read_metadata(path, filesystem=lake.filesystem)
            # pa.Schema.get_field_index returns -1 for a missing column (it
            # never raises); a -1 would silently read the LAST column's stats
            ci = md.schema.to_arrow_schema().get_field_index("warc_ts")
            if ci < 0:
                continue
            got = False
            for rg in range(md.num_row_groups):
                stats = md.row_group(rg).column(ci).statistics
                if stats is not None and stats.has_min_max:
                    v = stats.max
                    if hasattr(v, "timestamp"):
                        v = int(v.timestamp() * 1_000_000)
                    best = v if best is None else max(best, int(v))
                    got = True
            if not got:
                col = pq.read_table(
                    path, columns=["warc_ts"], filesystem=lake.filesystem
                ).column("warc_ts")
                mx = pc.max(col).as_py()
                if mx is not None:
                    v = int(mx.timestamp() * 1_000_000)
                    best = v if best is None else max(best, v)
    return best


def _make_rewriter(
    txn_id: str,
    data_dir: str,
    schema: pa.Schema,
    target_rows_per_file: int,
    compression: str,
    purge_horizon_us: int | None,
    filesystem=None,
    fault_inject: tuple | None = None,
):
    """The per-bucket rewrite of ``compact`` and ``reshard``: one keyed
    exchange bucket may hold several partitions, each rewritten from its own
    rows into its own files under ``data_dir``; returns one ``_META`` row
    per part."""

    def rewrite(group: pa.Table) -> pa.Table:
        part = group.column("part")[0].as_py()
        t = group
        if purge_horizon_us is not None:
            # drop only tombstones older than the event-time horizon — a
            # late out-of-order event (new lsn, old warc_ts) inside the
            # horizon must still lose to the retained tombstone
            is_tomb = pc.fill_null(t.column("deleted"), False)
            ts_us = pc.cast(t.column("warc_ts"), pa.int64())
            purgeable = pc.and_(is_tomb, pc.less(ts_us, purge_horizon_us))
            t = t.filter(pc.invert(purgeable))
        t = t.take(pc.sort_indices(t, sort_keys=[("url", "ascending")]))
        cols = [t.column(f.name).cast(f.type) for f in schema]
        out = pa.Table.from_arrays(cols, schema=schema)
        tomb = int(
            pc.sum(pc.fill_null(out.column("deleted"), False)).as_py() or 0
        )
        files, total, stats = write_snapshot_files(
            out, data_dir, txn_id, part, target_rows_per_file, compression,
            filesystem,
        )
        if fault_inject is not None:
            # tests only: die AFTER writing this partition's rewrite — the
            # retried task overwrites the same deterministic names
            from radiant_portal_pipeline_ray.chaos import maybe_die_once

            maybe_die_once(fault_inject, "compact")
        return pa.Table.from_pydict(
            {
                "part": [part],
                "files": [files],
                "rows": [out.num_rows - tomb],
                "tombstones": [tomb],
                "bytes": [total],
                "file_stats": [json.dumps(stats)],
            },
            schema=_META,
        )

    def rewrite_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _META.empty_table()
        parts = g.column("part").to_numpy(zero_copy_only=False)
        order = np.argsort(parts, kind="stable")
        gs = g.take(pa.array(order)).combine_chunks()
        sp = parts[order]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(sp)) + 1, [len(sp)]])
        return pa.concat_tables(
            [
                rewrite(gs.slice(int(starts[i]), int(starts[i + 1] - starts[i])))
                for i in range(len(starts) - 1)
                if starts[i + 1] > starts[i]
            ]
        )

    return rewrite_bucket


def compact(
    lake_root: str,
    config: EngineConfig | None = None,
    min_files: int = 2,
    purge_tombstones: bool = False,
) -> dict:
    """Rewrite every partition with ≥ ``min_files`` files (or any tombstones,
    when purging) into ``target_rows_per_file``-sized url-sorted files.

    Exactly-once like apply: the new files are written at their final keys
    under ``data/``, then committed via the manifest's put-if-absent; on a
    version conflict the commit is retried against the new base iff the
    rewritten partitions are untouched there, else the compaction aborts
    cleanly (the unreferenced files are inert and reclaimed by
    ``gc_orphans``). Returns a small report.
    """
    cfg = config or EngineConfig()
    lake = Lake(lake_root)
    current = lake.current_manifest()
    if current is None:
        return {"noop": True, "parts_compacted": 0}

    todo = {
        p: st
        for p, st in current.partitions.items()
        if st.files
        and (len(st.files) >= min_files or (purge_tombstones and st.tombstones))
    }
    if not todo:
        return {"noop": True, "parts_compacted": 0, "version": current.version}

    purge_horizon_us = None
    if purge_tombstones:
        mx = _max_warc_ts_us(lake, current)
        if mx is None:
            purge_tombstones = False  # no event-time info → keep tombstones
        else:
            purge_horizon_us = mx - cfg.tombstone_horizon_lag_s * 1_000_000

    t0 = time.time()
    txn_id = lake.new_txn_id()
    rewrite_bucket = _make_rewriter(
        txn_id,
        lake.data_dir,
        current.schema,
        cfg.target_rows_per_file,
        cfg.compression,
        purge_horizon_us,
        filesystem=lake.filesystem,
        fault_inject=cfg.fault_inject,
    )
    from radiant_portal_pipeline_ray.stages.taskshuffle import collect, exchange_group

    meta_rows = collect(exchange_group(
        lakescan.scan(lake, current, lakescan.part_files(current, todo)),
        ["part"],
        rewrite_bucket,
    )).to_pylist()
    metrics = {
        "op": "compact",
        "stage_metrics": {
            "write": _write_counts(meta_rows),
            "timings_s": {"rewrite": round(time.time() - t0, 3)},
        },
    }

    def build(base: Manifest) -> dict:
        # safe to rebase only if nobody touched the partitions we rewrote;
        # otherwise our output is stale → clean abort (its files are
        # unreferenced and inert; gc_orphans reclaims them)
        if base is not current:
            for p, st in todo.items():
                if base.partitions.get(p, PartitionState()).files != st.files:
                    raise CompactionConflict(
                        f"partition {p} changed under compaction txn {txn_id}; "
                        "aborting (re-run compact)"
                    )
        now = time.time()
        parts = dict(base.partitions)
        for m in meta_rows:
            p = int(m["part"])
            old = parts[p]
            lineage = old.next_lineage(
                {
                    "txn_id": txn_id,
                    "ts": now,
                    "compacted": True,
                    "purged_tombstones": purge_tombstones,
                    "files_before": len(old.files),
                    "files_after": len(m["files"]),
                }
            )
            parts[p] = PartitionState(
                files=[f"data/part={p}/{fn}" for fn in m["files"]],
                rows=int(m["rows"]),
                tombstones=int(m["tombstones"]),
                bytes=int(m["bytes"]),
                watermark_lsn=old.watermark_lsn,
                next_doc_seq=old.next_doc_seq,
                lineage=lineage,
                stats=json.loads(m["file_stats"]),
            )
        return {"partitions": parts, "metrics": metrics}

    committed, attempts = lake.commit_next(
        current, txn_id, build, cfg.commit_retries
    )
    return {
        "noop": False,
        "version": committed.version,
        "txn_id": txn_id,
        "parts_compacted": len(meta_rows),
        "tombstones_purged": purge_tombstones,
        "purge_horizon_us": purge_horizon_us,
        "commit_attempts": attempts,
    }


class ReshardPrecondition(Exception):
    """The lake is not in a state reshard can safely transform (pending
    migrations, or non-uniform watermarks without ``allow_rewind``)."""


def reshard(
    lake_root: str,
    new_n_parts: int,
    config: EngineConfig | None = None,
    allow_rewind: bool = False,
) -> dict:
    """Change the lake's BASE hash-partition count — the one routing
    parameter ``apply`` refuses to change in place (its n_parts guard).

    A lake sized for year-1 volume eventually needs more partitions; the
    reference's analogue is a StarRocks table re-partition (full rewrite
    behind a swap). Here it is one exactly-once transaction: every state
    row (live + tombstones) is re-routed by ``hash(domain) % new_n_parts``
    through the keyed task exchange and rewritten into new per-partition
    files under ``data/`` → manifest commit with ``n_parts=new_n_parts``.

    Invariants preserved:
    - **doc_ids are stable** — rows keep their ids. Uniqueness holds
      because ids embed the ALLOCATING partition in their high bits: a new
      partition only ever allocates from its own base, and every old
      partition that ever allocated keeps an allocation-guard entry
      (``next_doc_seq`` carried, no files) in the new manifest so a future
      salt allocation reusing that part id continues its sequence.
    - **watermarks**: a new partition receives urls from MANY old
      partitions, so its safe watermark is the MINIMUM over the old ones
      (per-partition watermarks are naturally distinct — each is its own
      stream's max applied lsn). Rewinding to the global min is harmless
      in normal operation (new changelog files only carry new lsns) and
      idempotent under LWW if already-processed files are re-submitted —
      EXCEPT when tombstones above the min were purged by
      ``compact(purge_tombstones=True)``: a re-submitted old insert could
      then resurrect a deleted url. Reshard detects purge lineage in the
      current manifest and refuses unless ``allow_rewind=True``.
    - **salting resets**: the salt map references partition ids in the old
      domain space, so it is cleared; hot domains re-salt organically on
      later applies (or immediately via CdcEngine.commit_routing_decisions).

    Pending migrations must be drained first (run one apply).
    """
    from radiant_portal_pipeline_ray.functions.hashing import (
        assign_parts,
        extract_domain,
    )
    from radiant_portal_pipeline_ray.stages.taskshuffle import (
        collect,
        exchange_group,
        map_blocks,
    )

    cfg = config or EngineConfig()
    if new_n_parts < 1:
        raise ValueError(f"new_n_parts must be >= 1, got {new_n_parts}")
    lake = Lake(lake_root)
    current = lake.current_manifest()
    if current is None:
        raise ReshardPrecondition("empty lake: nothing to reshard")
    if current.pending_migrations:
        raise ReshardPrecondition(
            "pending salt migrations exist; run one apply to drain them "
            "before resharding"
        )
    gmin = min(st.watermark_lsn for st in current.partitions.values())
    purged = any(
        entry.get("purged_tombstones")
        for st in current.partitions.values()
        for entry in st.lineage
    )
    if purged and not allow_rewind:
        raise ReshardPrecondition(
            "tombstones were purged on this lake "
            "(compact(purge_tombstones=True) in lineage); resharding "
            f"rewinds watermarks to {gmin} and a re-submitted pre-purge "
            "changelog file could resurrect deleted urls. Pass "
            "allow_rewind=True if old changelog files are never re-applied"
        )
    if new_n_parts == current.n_parts and not current.salt_map:
        return {"noop": True, "version": current.version}

    t0 = time.time()
    txn_id = lake.new_txn_id()
    rewrite_bucket = _make_rewriter(
        txn_id,
        lake.data_dir,
        current.schema,
        cfg.target_rows_per_file,
        cfg.compression,
        None,
        filesystem=lake.filesystem,
    )

    def route(b: pa.Table) -> pa.Table:
        urls = b.column("url")
        newp = assign_parts(urls, extract_domain(urls), new_n_parts, {})
        return b.set_column(
            b.schema.get_field_index("part"),
            pa.field("part", pa.int32()),
            pc.cast(newp, pa.int32()),
        )

    ds = map_blocks(lakescan.scan(lake, current, lakescan.part_files(current)), route)
    meta_rows = collect(exchange_group(ds, ["part"], rewrite_bucket)).to_pylist()

    now = time.time()
    lineage_entry = {
        "txn_id": txn_id,
        "ts": now,
        "resharded_from": current.n_parts,
        "resharded_to": new_n_parts,
        # carry the purge marker forward: lineage is reset below, and a
        # LATER reshard must still know this lake once purged tombstones
        # (its rewind window stays open until old changelogs are retired)
        "purged_tombstones": purged,
    }
    parts: dict[int, PartitionState] = {}
    for m in meta_rows:
        p = int(m["part"])
        old = current.partitions.get(p)
        parts[p] = PartitionState(
            files=[f"data/part={p}/{fn}" for fn in m["files"]],
            rows=int(m["rows"]),
            tombstones=int(m["tombstones"]),
            bytes=int(m["bytes"]),
            watermark_lsn=gmin,
            next_doc_seq=old.next_doc_seq if old else 0,
            lineage=[lineage_entry],
            stats=json.loads(m["file_stats"]),
        )
    # fileless new partitions still need explicit states at the global
    # watermark — a missing base partition reads as watermark -1 and drags
    # min_watermark() to a full-history re-read on the next apply
    for p in range(new_n_parts):
        if p not in parts:
            old = current.partitions.get(p)
            parts[p] = PartitionState(
                watermark_lsn=gmin,
                next_doc_seq=old.next_doc_seq if old else 0,
                lineage=[lineage_entry],
            )
    # allocation guards: old partitions outside the new base range that
    # ever allocated doc ids keep their counters so a future salt
    # allocation reusing the id cannot collide
    for p, st in current.partitions.items():
        if p >= new_n_parts and st.next_doc_seq:
            parts[p] = PartitionState(
                watermark_lsn=gmin,
                next_doc_seq=st.next_doc_seq,
                lineage=[lineage_entry],
            )

    state = {
        "n_parts": new_n_parts,
        "partitions": parts,
        "salt_map": {},
        "pending_migrations": {},
        "next_part": max(new_n_parts, current.next_part),
        "metrics": {
            "op": "reshard",
            "resharded_from": current.n_parts,
            "stage_metrics": {
                "write": _write_counts(meta_rows),
                "timings_s": {"rewrite": round(now - t0, 3)},
            },
            # cleared with the routing state they track
            "hot_counts": {},
        },
    }
    # a conflict means a concurrent writer: abort, no rebase
    committed, _ = lake.commit_next(current, txn_id, lambda base: state, retries=1)
    return {
        "noop": False,
        "version": committed.version,
        "txn_id": txn_id,
        "n_parts": new_n_parts,
        "parts_written": len(meta_rows),
        "watermark": gmin,
    }
