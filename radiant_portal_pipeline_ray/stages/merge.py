"""LWW merge + Parquet writer: one vectorized pass per batch of partitions.

Input: the change events of one or more partitions (a merge task's whole
bucket) plus each partition's carried-forward snapshot rows (``op='S'``),
read locally from its committed files. The merge is fully vectorized and
deterministic:

  stable sort by (part, url, warc_ts, lsn), delta rows before carried rows
  →  keep the last row per (part, url) (LWW)
  →  ``text = extract_text(html)`` for the delta winners only (the split
     tasks ship events with null text); carried winners keep their
     committed text verbatim
  →  flag urls whose winner is a delete tombstone
  →  re-attach stable doc_ids (existing urls keep theirs; new urls get
     ``part << shift | seq`` allocated deterministically in url order from
     the partition's persisted counter)
  →  per partition: write url-sorted Parquet file(s) at their final keys
     ``data/part=<P>/<txn>-<P>-<i>.parquet`` and return ONE small metadata
     dict (files, counts, max lsn, lineage metrics)

Every step but the write is a segment operation over the sorted rows, so
its fixed cost is paid once per batch, not once per partition; within a
partition the sort order, the tie-breaks and hence the output are those of
a merge of that partition alone. Extraction works row by row, so running
it over the winners alone writes the same bytes as running it over every
event: only the rows that survive the merge pay for it (Delta Lake's MERGE
rule).

Determinism matters: a retried Ray task re-executes the same bucket and
rewrites the same file names with byte-identical contents (same sort, same
tie-breaks, same allocation order), all before the round's manifest
publish, which is what makes the commit exactly-once under retries
(SURVEY §7.5 "Custom LWW semantics under retries").

Reference analogue: the rank-1 upsert shape
``ROW_NUMBER() OVER (PARTITION BY key ORDER BY ...) = 1``
(`radiant/dags/sql/radiant/exomiser_insert_partition_delta.sql:9`), the
copy-partition carry-forward ``NOT IN delta AND NOT IN deleted``
(`radiant/dags/sql/radiant/germline_snv_occurrence_copy_partition.sql:1-3`)
and the AUTO_INCREMENT id dictionary
(`radiant/dags/sql/radiant/init/variant_lookup_create_table.sql:1-7`) —
collapsed into one vectorized kernel.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from radiant_portal_pipeline_ray.functions.text import extract_text
from radiant_portal_pipeline_ray.schemas import align_table

#: the merge's in-task layers, in seconds (``merge_parts(..., layers=)``):
#: carried-row read, LWW kernel, html→text of the delta winners, Parquet
#: encode + write
MERGE_LAYERS = ("carry_read_s", "lww_s", "extract_s", "write_s")

#: heavy-hitter domains reported per partition
_TOP_DOMAINS = 16


def carry_batches(
    parts: list[int], carry_bytes: dict[int, int], limit: int
) -> list[list[int]]:
    """Consecutive runs of ``parts`` whose carried bytes sum to at most
    ``limit``. A partition is never split: one larger than ``limit`` forms
    a batch of its own."""
    batches: list[list[int]] = []
    size = 0
    for p in parts:
        b = int(carry_bytes.get(p, 0))
        if batches and size + b <= limit:
            batches[-1].append(p)
            size += b
        else:
            batches.append([p])
            size = b
    return batches


#: snapshot columns written without Parquet min/max statistics. No reader
#: prunes on them (zone maps come from ``zonemaps.file_stats``; scan filters
#: touch ``url``, ``warc_ts``, ``lsn`` and ``deleted``), yet their min/max
#: would hold most of a small file's bytes.
NO_STATS_COLUMNS = ("html", "text")


def _leaf_paths(name: str, typ: pa.DataType) -> list[str]:
    """Parquet column paths of the leaves of a column ``name`` of ``typ``."""
    if pa.types.is_struct(typ):
        return [p for f in typ for p in _leaf_paths(f"{name}.{f.name}", f.type)]
    if pa.types.is_map(typ):
        kv = f"{name}.key_value"
        return _leaf_paths(f"{kv}.key", typ.key_type) + _leaf_paths(
            f"{kv}.value", typ.item_type
        )
    if isinstance(typ, (pa.ListType, pa.LargeListType, pa.FixedSizeListType)):
        return _leaf_paths(f"{name}.list.element", typ.value_type)
    return [name]


def write_snapshot_files(
    out: pa.Table,
    data_dir: str,
    txn_id: str,
    part: int,
    target_rows_per_file: int,
    compression: str,
    filesystem=None,
) -> tuple[list, int, list]:
    """Write one partition's rows ``out`` as ``target_rows_per_file``
    slices ``<txn_id>-<part>-<i>.parquet`` under ``data_dir/part=<part>``
    (``filesystem``: an fsspec filesystem, None = local paths), with
    statistics for every column but :data:`NO_STATS_COLUMNS`. In a commit
    ``data_dir`` is the lake's ``data/``, so each file lands at the key the
    manifest will reference; the names depend only on (txn, part, slice),
    so a retried task rewrites the same names. Returns (file names, bytes,
    per-file zone maps)."""
    from radiant_portal_pipeline_ray.state.zonemaps import file_stats

    if filesystem is None:
        part_dir = os.path.join(data_dir, f"part={part}")
        os.makedirs(part_dir, exist_ok=True)
    else:
        part_dir = f"{data_dir}/part={part}"
        filesystem.makedirs(part_dir, exist_ok=True)
    with_stats = [
        p
        for f in out.schema
        if f.name not in NO_STATS_COLUMNS
        for p in _leaf_paths(f.name, f.type)
    ]
    files, total_bytes, stats = [], 0, []
    for i in range(-(-out.num_rows // target_rows_per_file)):
        chunk = out.slice(i * target_rows_per_file, target_rows_per_file)
        fn = f"{txn_id}-{part}-{i:04d}.parquet"
        path = os.path.join(part_dir, fn) if filesystem is None else f"{part_dir}/{fn}"
        if filesystem is None:
            pq.write_table(
                chunk, path, compression=compression, write_statistics=with_stats
            )
            total_bytes += os.path.getsize(path)
        else:
            # the stream's position is the size written: no HEAD request
            with filesystem.open(path, "wb") as f:
                pq.write_table(
                    chunk, f, compression=compression, write_statistics=with_stats
                )
                total_bytes += f.tell()
        files.append(fn)
        stats.append(file_stats(chunk))
    return files, total_bytes, stats


class MergeKernel:
    """The LWW merge + write kernel. The apply round's merge tasks call
    ``merge_parts`` once per bucket; ``merge_partition`` is the
    one-partition form (perfbench/layers.py times the kernel with it).

    ``staging_dir`` is the directory the kernel writes ``part=<P>/`` under:
    the lake's ``data/`` in an apply round, a scratch directory in the
    benchmark's layer pass."""

    def __init__(
        self,
        txn_id: str,
        staging_dir: str,
        snapshot_schema: pa.Schema,
        next_doc_seq: dict[int, int],
        doc_id_part_shift: int,
        target_rows_per_file: int,
        compression: str,
        local_carry_files: dict[int, list[str]] | None = None,
        union_schema: pa.Schema | None = None,
        filesystem=None,
        fault_inject: tuple | None = None,
        local_carry_bytes: dict[int, int] | None = None,
    ):
        self.txn_id = txn_id
        self.staging_dir = staging_dir
        self.snapshot_schema = snapshot_schema
        self.next_doc_seq = dict(next_doc_seq)
        self.doc_id_part_shift = doc_id_part_shift
        self.target_rows_per_file = target_rows_per_file
        self.compression = compression
        self.local_carry_files = dict(local_carry_files or {})
        #: committed bytes of each local-carry partition (the manifest's
        #: ``PartitionState.bytes``): sizes the batches of ``merge_parts``
        self.local_carry_bytes = dict(local_carry_bytes or {})
        self.union_schema = union_schema
        #: fsspec filesystem for an object-store lake (None = local paths).
        #: The kernel ships to merge tasks, so the fs must be picklable
        #: (LocalFileSystem and real object-store fs classes are; memory://
        #: is driver-only).
        self.filesystem = filesystem
        #: tests only — ``("merge", dir)`` kills the first merge worker ONCE,
        #: after it has written a partition's files (the partial-write case
        #: a retry must overwrite); see chaos.maybe_die_once.
        self.fault_inject = fault_inject

    def merge_partition(self, group: pa.Table, part: int) -> dict:
        """One partition's event rows → url-sorted file(s) + one metadata
        dict."""
        return self.merge_parts(group, [part])[0]

    def merge_parts(
        self,
        delta: pa.Table,
        parts: list[int],
        layers: dict[str, float] | None = None,
        batch_bytes: int | None = None,
    ) -> list[dict]:
        """Merge and write every partition in ``parts``; one metadata dict
        per partition, in ``parts`` order. ``delta`` holds their change rows
        (rows of other partitions are ignored); a partition with none still
        rewrites its carried rows. ``batch_bytes`` bounds the carried bytes
        merged in one pass: consecutive partitions are batched up to it.
        ``layers`` accumulates the seconds of each of ``MERGE_LAYERS``."""
        if layers is None:
            layers = dict.fromkeys(MERGE_LAYERS, 0.0)
        batches = (
            carry_batches(parts, self.local_carry_bytes, batch_bytes)
            if batch_bytes is not None
            else [list(parts)]
        )
        delta_parts = delta.column("part").to_numpy(zero_copy_only=False)
        metas: list[dict] = []
        for batch in batches:
            keep = np.isin(delta_parts, batch)
            rows = delta if keep.all() else delta.filter(pa.array(keep))
            metas.extend(self._merge_batch(rows, batch, layers))
        return metas

    def _read_carry(self, parts: list[int], schema: pa.Schema) -> pa.Table | None:
        """The carried-forward rows of ``parts`` (``op='S'``, ``part`` set),
        read locally from the committed lake files, or None if none carry.
        Per-file reads keep permissive schema promotion for files written
        before a schema evolution; they run threaded because a partition
        that missed compaction can carry many small files."""
        files, file_part = [], []
        for p in parts:
            for f in self.local_carry_files.get(p, ()):
                files.append(f)
                file_part.append(p)
        if not files:
            return None

        def _read(path):
            if self.filesystem is None:
                with pq.ParquetFile(path) as pf:
                    return pf.read()
            # one whole-object GET: no HEAD for the size, no ranged reads
            return pq.ParquetFile(pa.BufferReader(self.filesystem.cat_file(path))).read()

        if len(files) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(min(4, len(files))) as ex:
                tables = list(ex.map(_read, files))
        else:
            tables = [_read(files[0])]
        old = pa.concat_tables(tables, promote_options="permissive")
        old = align_table(old, schema)
        n = old.num_rows
        old = old.set_column(
            old.schema.get_field_index("op"),
            pa.field("op", pa.string()),
            pa.repeat(pa.scalar("S", pa.string()), n),
        )
        return old.set_column(
            old.schema.get_field_index("part"),
            pa.field("part", pa.int32()),
            pa.array(
                np.repeat(
                    np.array(file_part, dtype=np.int32),
                    [t.num_rows for t in tables],
                )
            ),
        )

    def _merge_batch(
        self, delta: pa.Table, parts: list[int], layers: dict[str, float]
    ) -> list[dict]:
        t0 = time.perf_counter()
        old = self._read_carry(parts, self.union_schema or delta.schema)
        if old is not None:
            table = pa.concat_tables([align_table(delta, old.schema), old])
        else:
            table = delta
        table = table.combine_chunks()
        t1 = time.perf_counter()
        layers["carry_read_s"] += t1 - t0

        # Copy discipline: the wide columns (html, text) are never taken for
        # the full sorted table. Only narrow key columns sort-materialize;
        # the single full-width copy is the winners-only take (~rows/keys of
        # the batch, typically 30-50%). Within a partition this is the order
        # of a merge of that partition alone: the sort is stable and delta
        # rows precede carried rows.
        idx_np = pc.sort_indices(
            table,
            sort_keys=[
                ("part", "ascending"),
                ("url", "ascending"),
                ("warc_ts", "ascending"),
                ("lsn", "ascending"),
            ],
        ).to_numpy().astype(np.int64)
        n = len(idx_np)
        op = table.column("op")
        is_state = pc.fill_null(pc.equal(op, "S"), False).to_numpy(
            zero_copy_only=False
        )
        is_del = pc.fill_null(pc.equal(op, "D"), False).to_numpy(
            zero_copy_only=False
        )
        is_upsert = pc.fill_null(
            pc.is_in(op, value_set=pa.array(["I", "U"])), False
        ).to_numpy(zero_copy_only=False)
        part_all = table.column("part").to_numpy(zero_copy_only=False)
        lsn_all = table.column("lsn").to_numpy(zero_copy_only=False)
        deleted_all = (
            pc.fill_null(table.column("deleted"), False)
            .to_numpy(zero_copy_only=False)
            .astype(bool)
        )

        # batch-local partition index of every row: per-partition counts
        # are bincounts over it
        order = sorted(parts)
        k = len(order)
        part_ids = np.array(order, dtype=np.int64)
        pi_all = np.searchsorted(part_ids, part_all)
        ev = ~is_state
        events_in = np.bincount(pi_all[ev], minlength=k)
        max_lsn = np.full(k, -1, dtype=np.int64)
        np.maximum.at(max_lsn, pi_all[ev], lsn_all[ev])

        # segments = runs of one (part, url) in sort order; the last row of
        # a segment wins
        ps = part_all[idx_np]
        us = table.column("url").take(pa.array(idx_np)).to_numpy(
            zero_copy_only=False
        )
        last = np.ones(n, dtype=bool)
        last[:-1] = (ps[:-1] != ps[1:]) | (us[:-1] != us[1:])
        seg = np.cumsum(last) - last  # segment of each sorted row
        winner_idx = idx_np[last]
        winners = table.take(pa.array(winner_idx)).combine_chunks()
        w_state = is_state[winner_idx]
        w_del = is_del[winner_idx]
        w_pi = pi_all[winner_idx]

        # tombstone semantics: a winning delete is RETAINED as a flagged row
        # so later out-of-order events lose to it (see schemas.INTERNAL_FIELDS)
        deleted_flag = w_del | (w_state & deleted_all[winner_idx])

        # stable doc_id: existing urls keep theirs (the doc_id of the
        # segment's first carried row in input order), new urls get
        # deterministic sequential ids in url order per partition
        s_state = is_state[idx_np]
        first_state = np.full(len(winner_idx), n, dtype=np.int64)
        np.minimum.at(first_state, seg[s_state], idx_np[s_state])
        live_state = s_state & ~deleted_all[idx_np]
        had_live = np.bincount(seg[live_state], minlength=len(winner_idx)) > 0
        lookup = table.column("doc_id").take(
            pa.array(first_state, mask=first_state == n)
        )
        doc = pc.coalesce(winners.column("doc_id"), lookup)
        missing = pc.is_null(doc).to_numpy(zero_copy_only=False)
        doc_np = pc.fill_null(doc, 0).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        seq0 = np.array(
            [int(self.next_doc_seq.get(p, 0)) for p in order], dtype=np.int64
        )
        n_new = np.bincount(w_pi[missing], minlength=k)
        # rank of each missing winner among its partition's missing ones
        # (winners are in partition order)
        rank = np.cumsum(missing) - missing
        rank -= (np.cumsum(n_new) - n_new)[w_pi]
        base = part_ids << np.int64(self.doc_id_part_shift)
        doc_np[missing] = (base + seq0)[w_pi[missing]] + rank[missing]

        # lineage metrics
        live_mask = ~deleted_flag
        tombstones = np.bincount(w_pi[deleted_flag], minlength=k)
        rows_carried = np.bincount(w_pi[w_state & live_mask], minlength=k)
        rows_upserted = np.bincount(w_pi[is_upsert[winner_idx]], minlength=k)
        rows_deleted = np.bincount(w_pi[w_del & had_live], minlength=k)
        top_domains = self._top_domains(
            winners.column("url").filter(pa.array(live_mask)),
            w_pi[live_mask],
            k,
        )

        t2 = time.perf_counter()
        text = self._winner_text(winners, w_state)
        t3 = time.perf_counter()
        layers["extract_s"] += t3 - t2

        # project to the snapshot schema (drops op)
        cols = []
        for f in self.snapshot_schema:
            if f.name == "doc_id":
                col = pa.array(doc_np, type=pa.int64())
            elif f.name == "deleted":
                col = pa.array(deleted_flag, type=pa.bool_())
            elif f.name == "text":
                col = text
            else:
                col = winners.column(f.name)
            cols.append(col.cast(f.type))
        out = pa.Table.from_arrays(cols, schema=self.snapshot_schema)
        w_bounds = np.searchsorted(w_pi, np.arange(k + 1))
        t4 = time.perf_counter()
        layers["lww_s"] += (t2 - t1) + (t4 - t3)

        metas = {}
        for i, p in enumerate(order):
            lo, hi = int(w_bounds[i]), int(w_bounds[i + 1])
            files, nbytes, stats = self._write_part(p, out.slice(lo, hi - lo))
            metas[p] = {
                "part": p,
                "files": files,
                "rows": hi - lo - int(tombstones[i]),
                "tombstones": int(tombstones[i]),
                "bytes": nbytes,
                "max_lsn": int(max_lsn[i]),
                "rows_upserted": int(rows_upserted[i]),
                "rows_deleted": int(rows_deleted[i]),
                "rows_carried": int(rows_carried[i]),
                "events_in": int(events_in[i]),
                "next_doc_seq": int(seq0[i] + n_new[i]),
                "top_domains": top_domains[i],
                "file_stats": json.dumps(stats),
            }
        layers["write_s"] += time.perf_counter() - t4
        return [metas[p] for p in parts]

    @staticmethod
    def _winner_text(winners: pa.Table, w_state: np.ndarray) -> pa.Array:
        """The winners' ``text``: ``extract_text(html)`` for every delta
        winner (deletes included: null html gives null text), the committed
        text verbatim for every carried winner."""
        text = winners.column("text")
        delta = ~w_state
        if not delta.any():
            return text
        if delta.all():
            return extract_text(winners.column("html"))
        mask = pa.array(delta)
        fresh = extract_text(winners.column("html").filter(mask))
        return pc.replace_with_mask(
            text.combine_chunks(), mask, fresh.combine_chunks().cast(text.type)
        )

    @staticmethod
    def _top_domains(urls: pa.Array, pi: np.ndarray, k: int) -> list[str]:
        """JSON {domain: live rows} of each partition's top domains, most
        rows first, ties by domain (the deferred-salting feed)."""
        from radiant_portal_pipeline_ray.functions.hashing import extract_domain

        counts = (
            pa.table({"p": pi, "d": extract_domain(urls)})
            .group_by(["p", "d"])
            .aggregate([("d", "count")])
        )
        counts = counts.take(
            pc.sort_indices(
                counts,
                sort_keys=[
                    ("p", "ascending"),
                    ("d_count", "descending"),
                    ("d", "ascending"),
                ],
            )
        )
        cp = counts.column("p").to_numpy()
        starts = np.searchsorted(cp, np.arange(k + 1))
        rank = np.arange(len(cp)) - starts[cp]
        top = counts.filter(pa.array(rank < _TOP_DOMAINS))
        tp = top.column("p").to_numpy()
        doms = top.column("d").to_pylist()
        ns = top.column("d_count").to_pylist()
        bounds = np.searchsorted(tp, np.arange(k + 1))
        return [
            json.dumps(
                dict(zip(doms[bounds[i] : bounds[i + 1]], ns[bounds[i] : bounds[i + 1]]))
            )
            for i in range(k)
        ]

    def _write_part(self, part: int, out: pa.Table) -> tuple[list, int, list]:
        """Write one partition's merged rows (:func:`write_snapshot_files`);
        returns (file names, bytes, per-file zone maps)."""
        written = write_snapshot_files(
            out, self.staging_dir, self.txn_id, part, self.target_rows_per_file,
            self.compression, self.filesystem,
        )
        if self.fault_inject is not None:
            # die AFTER writing this partition's files: the retried task
            # must overwrite the partial output (deterministic txn/part/seq
            # names), not duplicate it
            from radiant_portal_pipeline_ray.chaos import maybe_die_once

            maybe_die_once(self.fault_inject, "merge")
        return written

