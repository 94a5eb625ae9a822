"""Join / lookup stages: broadcast hash joins, range joins, and the
partitioned hash join (every join type, semi and anti included).

Reference analogue: every join in the reference is StarRocks SQL with
explicit strategy hints — ``JOIN [BROADCAST]`` small dictionary sides
(`radiant/dags/sql/radiant/germline_snv_occurrence_insert_partition_delta.sql:60-64`),
``LEFT ANTI JOIN`` insert-if-absent
(`radiant/dags/sql/radiant/variant_lookup_insert_hashes.sql:1-6`),
``LEFT SEMI JOIN`` part-pruning
(`radiant/dags/sql/radiant/snv_variant_part_insert_part.sql:1-15`), and
interval-overlap range joins
(`radiant/dags/sql/radiant/germline_cnv_occurrence_insert_partition_delta.sql:1-92`).

Ray-Data-first shapes:
- small side → broadcast: the probe table is captured in the map_batches
  closure, which Ray serializes ONCE into the object store and shares with
  every task (equivalent to an explicit ``ray.put``); the probe itself is a
  vectorized ``pc.index_in`` + ``take`` per Arrow batch — no shuffle at all.
- range join → per-group sorted-interval sweep with ``np.searchsorted``
  inside ``groupby(partition_key).map_groups``.
- two large sides, and every semi/anti key set → ``hash_partitioned_join``:
  both sides hash-co-partition through ``taskshuffle.exchange_join``
  (reference J2's fallback, "else co-partitioned map_groups merge", SURVEY
  §2.4) and each aligned bucket pair joins with pyarrow's Acero
  ``Table.join``. The join owns a row-wise
  ``finish`` and the final ``sort_by`` like the keyed aggregates, so a
  small join runs its kernel, finish and sort once on the driver.

Composite keys are fused into one string key column (`\\x1f` separator) so a
single ``index_in`` covers them.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from radiant_portal_pipeline_ray.stages.taskshuffle import exchange_join

#: convenience aliases → Acero join_type names
_JOIN_TYPES = {
    "inner": "inner",
    "left": "left outer",
    "left outer": "left outer",
    "right": "right outer",
    "right outer": "right outer",
    "full": "full outer",
    "full outer": "full outer",
    "semi": "left semi",
    "left semi": "left semi",
    "anti": "left anti",
    "left anti": "left anti",
    "right semi": "right semi",
    "right anti": "right anti",
}


def _fuse_keys(t: pa.Table, keys: list[str]) -> pa.Array | pa.ChunkedArray:
    if len(keys) == 1:
        col = t.column(keys[0])
        return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    cols = [pc.cast(t.column(k), pa.string()) for k in keys]
    fused = pc.binary_join_element_wise(*cols, "\x1f")
    return fused.combine_chunks() if isinstance(fused, pa.ChunkedArray) else fused


def make_broadcast_join(
    small: pa.Table,
    left_keys: list[str],
    right_keys: list[str],
    how: str = "inner",
    take_cols: list[str] | None = None,
    rename: dict[str, str] | None = None,
):
    """Return a map_batches fn joining each batch against the broadcast
    ``small`` table. If ``small`` has duplicate keys, the FIRST match wins
    (dimension tables must be keyed — same contract as a SQL dictionary
    join)."""
    small = small.combine_chunks()
    small_key = _fuse_keys(small, right_keys)
    take_cols = take_cols or [c for c in small.column_names if c not in right_keys]
    rename = rename or {}

    def join(batch: pa.Table) -> pa.Table:
        lk = _fuse_keys(batch, left_keys)
        idx = pc.index_in(lk, value_set=small_key)
        if how == "inner":
            keep = pc.is_valid(idx)
            batch = batch.filter(keep)
            idx = idx.filter(keep)
        for c in take_cols:
            col = pc.take(small.column(c).combine_chunks(), idx)
            batch = batch.append_column(
                pa.field(rename.get(c, c), small.schema.field(c).type), col
            )
        return batch

    return join


def make_interval_overlap_join(
    intervals: pa.Table,
    group_key: str,
    left_start: str,
    left_end: str,
    iv_group: str,
    iv_start: str,
    iv_end: str,
    iv_label: str,
    out_col: str = "labels",
):
    """Per-group interval-overlap join (reference J7: cnv ⋈ cytoband
    ``c.start<=o.end AND c.end>=o.start`` + ``array_agg``): for every left
    row, collect the labels of all broadcast intervals in the same group
    that overlap [left_start, left_end]. Sweep = sort intervals once per
    group, ``np.searchsorted`` both bounds — O((n+m) log m) per group, no
    shuffle beyond the enclosing groupby."""
    by_group: dict = {}
    ivt = intervals.combine_chunks()
    for g in pc.unique(ivt.column(iv_group)).to_pylist():
        sub = ivt.filter(pc.equal(ivt.column(iv_group), g))
        order = pc.sort_indices(sub, sort_keys=[(iv_start, "ascending")])
        sub = sub.take(order)
        by_group[g] = (
            sub.column(iv_start).to_numpy(zero_copy_only=False),
            sub.column(iv_end).to_numpy(zero_copy_only=False),
            np.asarray(sub.column(iv_label).to_pylist(), dtype=object),
        )

    def join(batch: pa.Table) -> pa.Table:
        """Vectorized (round-2 review fix — no per-row Python loop): per
        group present in the batch, ONE ``np.searchsorted`` gives every row
        its start-sorted candidate prefix; candidates expand arithmetically
        (the ``_expand_pairs`` shape), are masked on the end bound, and
        assemble into the list column via offsets — O((n+m) log m +
        matches) per batch, all numpy/Arrow kernels."""
        n = batch.num_rows
        gcol = batch.column(group_key)
        if isinstance(gcol, pa.ChunkedArray):
            gcol = gcol.combine_chunks()
        starts = batch.column(left_start).to_numpy(zero_copy_only=False)
        ends = batch.column(left_end).to_numpy(zero_copy_only=False)
        parents: list[np.ndarray] = []
        labels_out: list[np.ndarray] = []
        # a broadcast interval table has FEW groups; rows vectorize per group
        for g, (ivs, ive, glabels) in by_group.items():
            rows = np.flatnonzero(
                np.asarray(
                    pc.equal(gcol, g).to_numpy(zero_copy_only=False),
                    dtype=bool,
                )
            )
            if not len(rows):
                continue
            hi = np.searchsorted(ivs, ends[rows], side="right")
            tot = int(hi.sum())
            if not tot:
                continue
            off = np.cumsum(hi) - hi
            j = np.arange(tot) - np.repeat(off, hi)  # candidate idx per row
            parent = np.repeat(rows, hi)
            keep = ive[j] >= starts[parent]
            parents.append(parent[keep])
            labels_out.append(glabels[j[keep]])
        if parents:
            parent_all = np.concatenate(parents)
            labels_all = np.concatenate(labels_out)
            order = np.lexsort((labels_all, parent_all))
            parent_all, labels_all = parent_all[order], labels_all[order]
            counts = np.bincount(parent_all, minlength=n)
            values = pa.array(labels_all.tolist(), type=pa.string())
        else:
            counts = np.zeros(n, dtype=np.int64)
            values = pa.array([], type=pa.string())
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        arr = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()), values
        )
        return batch.append_column(
            pa.field(out_col, pa.list_(pa.string())), arr
        )

    return join


def hash_partitioned_join(
    left: Dataset,
    right: Dataset,
    left_on: str | list[str],
    right_on: str | list[str] | None = None,
    how: str = "inner",
    *,
    finish=None,
    sort_by=None,
) -> Dataset:
    """Join two Datasets on one or more key columns with any Acero join type
    (``left/right/full/semi/anti`` are aliases; reference J2 is a
    composite-key LEFT join,
    `radiant/dags/sql/radiant/germline_snv_occurrence_insert_partition_delta.sql:65-72`,
    and J3 a ``LEFT ANTI JOIN``, `variant_lookup_insert_hashes.sql:1-6`).
    Non-key column sets must be disjoint. All rows of a key land in one
    bucket on both sides, so every join type decomposes exactly over
    buckets. The joined rows pass through the row-wise ``finish(table) ->
    table`` per bucket and come back in ``sort_by`` order when given
    (column names or ``(name, "descending")``).

    Skew: each bucket's two sides must fit one worker. The bucket count
    follows from the exchanged bytes (``taskshuffle.bucket_count``), but a
    hot key lands in one bucket whatever the count: pre-salt hot keys
    (``functions/hashing.assign_parts``)."""
    left_keys = [left_on] if isinstance(left_on, str) else list(left_on)
    right_on = left_on if right_on is None else right_on
    right_keys = [right_on] if isinstance(right_on, str) else list(right_on)
    if len(left_keys) != len(right_keys):
        raise ValueError("left_on and right_on must have the same arity")
    join_type = _JOIN_TYPES.get(how)
    if join_type is None:
        raise ValueError(f"unsupported join type {how!r}")

    def join_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        joined = lt.join(
            rt, keys=left_keys, right_keys=right_keys, join_type=join_type
        ).combine_chunks()
        return joined if finish is None else finish(joined)

    return exchange_join(
        left, right, left_keys, right_keys, join_bucket,
        sort_by=sort_by,
    )
