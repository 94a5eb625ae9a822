"""Aggregation helpers: partial+final grouped aggregates, top-k per key.

Reference analogue: the two-stage frequency pipeline — per-partition partial
aggregates (`radiant/dags/sql/radiant/germline_snv_staging_variant_freq_insert.sql:1-60`)
rolled up globally (`germline_snv_variant_frequency_insert.sql:1-47`) — and
the rank-1 window pick ``ROW_NUMBER() OVER (PARTITION BY k ORDER BY s) = 1``
(`radiant/dags/sql/radiant/exomiser_insert_partition_delta.sql:9`).

``partial_final_groupby`` is the package's one grouped aggregate:
``GROUP BY keys`` with SUM, MIN, MAX, COUNT(col) and COUNT(*). Its ``aggs``
spec is a list of ``(input_col, fn, output_name)`` entries, ``fn`` one of
``sum``, ``min``, ``max``, ``count`` (non-null values of ``input_col``) and
``count_all`` (rows, nulls included; ``input_col`` is ``[]``, as in
pyarrow's ``([], "count_all")``). A query neither builds a column of ones
to count rows nor hand-writes the partial and final folds.

Scale shape: ``partial_final_groupby`` combines INSIDE each batch first
(one output row per key per batch), so the all-to-all shuffle moves
partial rows, not raw rows — the pre-aggregate pattern the north rule asks
for. ``topk_per_key`` prunes to k rows per key per batch before the shuffle
for the same reason. These pre-passes are ``exchange_group``'s ``pre=``:
on the driver, as ``taskshuffle.map_blocks`` runs a map, when the input is
small and already there, else in ``map_batches`` tasks.

``window`` is the one operator behind the ``PARTITION BY … ORDER BY``
queries: it owns the keyed exchange, one sort per bucket, the group
geometry (``Groups``), typed output, the final sort and the empty cases, so
a query supplies only its vectorized kernel.

The group-by, top-k and window operators own the query's order, and the
first two its finish: ``finish=`` (a row-wise ``table -> table``, run after
the final kernel) and ``sort_by=`` (column names or ``(name,
"descending")``) pass down to ``taskshuffle.exchange_group``. On a small exchange the kernel, the finish
and the sort run once on the driver's table, with no trailing
``map_batches``/``Dataset.sort`` executions, and the result is that table;
on a large one they run per bucket and ``Dataset.sort`` orders the
resulting Dataset.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

#: how a partial column folds in the final combine, per spec ``fn``: counts
#: of either kind sum
_FINAL_FN = {
    "sum": "sum", "count": "sum", "count_all": "sum", "min": "min", "max": "max"
}


def _group_by(t: pa.Table, keys: list[str]):
    """``t.group_by(keys)``. pyarrow's fast multi-key grouper splits a
    group when a key holds nulls and the keys differ in width (a string or
    int32 key with an int64 one: 619 groups for 24 in 3,000 rows, pyarrow
    16.1); a null ``large_binary`` key sends such a table to the generic
    grouper, which groups nulls as SQL does. Keys without nulls keep the
    fast grouper."""
    if len(keys) > 1 and any(t.column(k).null_count for k in keys):
        t = t.append_column("__generic", pa.nulls(t.num_rows, pa.large_binary()))
        keys = [*keys, "__generic"]
    return t.group_by(keys)


def _then(fn, finish):
    """``fn`` followed by the row-wise ``finish`` (``fn`` when None)."""
    if finish is None:
        return fn
    return lambda t: finish(fn(t))


def partial_final_groupby(
    ds: Dataset,
    keys: list[str],
    aggs: list[tuple],
    batch_size: int = 65536,
    *,
    finish=None,
    sort_by=None,
) -> Dataset:
    """``GROUP BY keys`` with per-batch combining. Returns one row per key:
    the keys, then one column per ``aggs`` entry ``(input_col, fn,
    output_name)`` (see the module docstring; ``([], "count_all", name)``
    is COUNT(*)), passed through the row-wise ``finish(table) -> table``
    and in ``sort_by`` order when given (see ``exchange_group``). Counts
    are int64.

    The final combine avoids Ray's per-group aggregate machinery (Python
    overhead per group — at 10^5+ groups it dominates): the partial rows
    hash-exchange on the keys (task shuffle, no sort; the bucket count
    follows from the partial rows' bytes) and each bucket folds all its
    keys in ONE vectorized arrow ``group_by`` call."""
    from radiant_portal_pipeline_ray.stages.taskshuffle import exchange_group

    outs = [out for *_, out in aggs]
    fins = [_FINAL_FN[f] for _, f, _ in aggs]

    def partial(batch: pa.Table) -> pa.Table:
        g = _group_by(batch, keys).aggregate([(c, f) for c, f, _ in aggs])
        # pyarrow names results "<col>_<fn>", and COUNT(*) "count_all"
        named = [f if f == "count_all" else f"{c}_{f}" for c, f, _ in aggs]
        return g.select(keys + named).rename_columns(keys + outs)

    def final_combine(group: pa.Table) -> pa.Table:
        g = _group_by(group, keys).aggregate(list(zip(outs, fins)))
        named = [f"{out}_{f}" for out, f in zip(outs, fins)]
        return g.select(keys + named).rename_columns(keys + outs)

    return exchange_group(
        ds, keys, _then(final_combine, finish),
        pre=partial, batch_size=batch_size, sort_by=sort_by,
    )


def topk_per_key_table(
    t: pa.Table, keys: list[str], order_by: list[tuple[str, str]], k: int = 1
) -> pa.Table:
    """Vectorized per-key top-k inside one Arrow table."""
    sort_keys = [(c, "ascending") for c in keys] + list(order_by)
    t = t.take(pc.sort_indices(t, sort_keys=sort_keys)).combine_chunks()
    if t.num_rows == 0:
        return t
    if len(keys) == 1:
        kv = t.column(keys[0]).to_numpy(zero_copy_only=False)
        new_grp = np.empty(len(kv), dtype=bool)
        new_grp[0] = True
        new_grp[1:] = kv[1:] != kv[:-1]
    else:
        cols = [pc.cast(t.column(c), pa.string()).to_numpy(zero_copy_only=False) for c in keys]
        new_grp = np.empty(t.num_rows, dtype=bool)
        new_grp[0] = True
        new_grp[1:] = np.any(
            np.stack([c[1:] != c[:-1] for c in cols]), axis=0
        )
    grp_id = np.cumsum(new_grp) - 1
    # rank within group = index - first index of group
    first_of_grp = np.flatnonzero(new_grp)
    rank = np.arange(t.num_rows) - first_of_grp[grp_id]
    return t.filter(pa.array(rank < k))


def topk_per_key(
    ds: Dataset,
    keys: list[str],
    order_by: list[tuple[str, str]],
    k: int = 1,
    batch_size: int = 65536,
    *,
    finish=None,
    sort_by=None,
) -> Dataset:
    """Distributed per-key top-k: per-batch prune (≤k rows per key leave any
    batch) → keyed task-shuffle → one vectorized final pick per bucket (all
    of that bucket's keys at once — no per-key Python). The prune makes the
    shuffle O(keys·k), not O(rows). ``finish`` and ``sort_by`` as in
    ``partial_final_groupby``."""
    from radiant_portal_pipeline_ray.stages.taskshuffle import exchange_group

    def prune(batch: pa.Table) -> pa.Table:
        return topk_per_key_table(batch, keys, order_by, k)

    def final(group: pa.Table) -> pa.Table:
        return topk_per_key_table(group, keys, order_by, k)

    return exchange_group(
        ds, keys, _then(final, finish),
        pre=prune, batch_size=batch_size, sort_by=sort_by,
    )


def count_distinct_groupby(
    ds: Dataset,
    keys: list[str],
    distinct_col: str,
    out_name: str,
    predicate_cols: dict[str, str] | None = None,
    batch_size: int = 65536,
) -> Dataset:
    """COUNT(DISTINCT x [WHERE pred]) GROUP BY keys — two-level exact
    distinct: dedupe (keys, x) per batch, shuffle the dedup'd pairs, count
    per key. ``predicate_cols`` maps extra boolean columns → output names
    for conditional distinct counts (reference A1 shape:
    ``COUNT(DISTINCT CASE WHEN ... THEN patient_id END)``)."""
    from radiant_portal_pipeline_ray.stages.taskshuffle import exchange_group

    predicate_cols = predicate_cols or {}

    def dedup(batch: pa.Table) -> pa.Table:
        cols = keys + [distinct_col] + list(predicate_cols.keys())
        sub = batch.select(cols)
        spec = [(p, "max") for p in predicate_cols]
        g = sub.group_by(keys + [distinct_col]).aggregate(spec)
        ren = {f"{p}_max": p for p in predicate_cols}
        return g.rename_columns([ren.get(n, n) for n in g.column_names])

    def per_bucket(group: pa.Table) -> pa.Table:
        # all of the bucket's keys in one vectorized pass: arrow
        # count_distinct (mode=only_valid ≡ the unique(drop_null()) count)
        g = group.group_by(keys).aggregate([(distinct_col, "count_distinct")])
        g = g.rename_columns(
            [
                out_name if n == f"{distinct_col}_count_distinct" else n
                for n in g.column_names
            ]
        )
        for p, name in predicate_cols.items():
            mask = pc.fill_null(group.column(p), False)
            gp = (
                group.filter(mask)
                .group_by(keys)
                .aggregate([(distinct_col, "count_distinct")])
            )
            gp = gp.rename_columns(
                [
                    name if n == f"{distinct_col}_count_distinct" else n
                    for n in gp.column_names
                ]
            )
            g = g.join(gp, keys=keys, join_type="left outer")
            ci = g.schema.get_field_index(name)
            g = g.set_column(
                ci,
                pa.field(name, pa.int64()),
                pc.fill_null(pc.cast(g.column(name), pa.int64()), 0),
            )
        return g.combine_chunks()

    return exchange_group(ds, keys, per_bucket, pre=dedup, batch_size=batch_size)


def _changes(col: np.ndarray) -> np.ndarray:
    """True at row 0 and wherever a sorted column's value changes."""
    flags = np.empty(len(col), dtype=bool)
    flags[:1] = True
    flags[1:] = col[1:] != col[:-1]
    return flags


class Groups:
    """Geometry of the groups of a sorted bucket: ``first`` flags each
    group's first row, ``starts``, ``lens`` and ``ends`` are per group, and
    ``start_abs`` (the row's group start) and ``pos`` (its offset in the
    group) are per row. Groups never span exchange buckets, so these are
    global per key."""

    def __init__(self, first: np.ndarray):
        n = len(first)
        self.first = first
        self.starts = np.flatnonzero(first)
        self.lens = np.diff(np.append(self.starts, n))
        self.ends = self.starts + self.lens - 1
        self.start_abs = np.repeat(self.starts, self.lens)
        self.pos = np.arange(n) - self.start_abs

    def spread(self, per_group: np.ndarray) -> np.ndarray:
        """One value per group → that value on each of the group's rows."""
        return np.repeat(per_group, self.lens)

    def split(self, col: np.ndarray) -> Groups:
        """Sub-groups: runs of equal ``col`` within each group (ties, hours)."""
        return Groups(self.first | _changes(col))

    def searchsorted(self, a: np.ndarray, v: np.ndarray, side: str = "left"):
        """Per row i, ``np.searchsorted(a[group of i], v[i], side)`` as an
        absolute row index; ``a`` (int64) is sorted within every group.

        One global search per chunk of groups instead of one per group: each
        group's values and targets shift into their own band of the axis,
        wider than every value's spread, so no search crosses a group edge.
        Chunks hold as many groups as keep the axis below 2^62; values
        spread wider than 2^61 search one group at a time, unshifted."""
        lo = min(int(a.min()), int(v.min()))
        band = max(int(a.max()), int(v.max())) - lo + 1
        step = max((1 << 62) // band, 1)  # groups per search
        bounds = np.append(self.starts, len(a))
        out = np.empty(len(a), dtype=np.int64)
        for g0 in range(0, len(self.starts), step):
            g1 = min(g0 + step, len(self.starts))
            r0, r1 = int(bounds[g0]), int(bounds[g1])
            aa, vv = a[r0:r1], v[r0:r1]
            if step > 1:
                gid = np.arange(g1 - g0, dtype=np.int64)
                shift = np.repeat(gid * band, self.lens[g0:g1])
                aa, vv = aa - lo + shift, vv - lo + shift
            out[r0:r1] = r0 + np.searchsorted(aa, vv, side=side)
        return out


def _column_numpy(col) -> np.ndarray:
    if pa.types.is_timestamp(col.type):
        col = pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())
    return col.to_numpy(zero_copy_only=False)


def window(
    ds: Dataset,
    partition_by: str,
    order_by: list,
    kernel,
    schema: pa.Schema,
    *,
    sort_by: list,
) -> Dataset:
    """``kernel`` over every ``PARTITION BY partition_by ORDER BY order_by``
    group of ``ds``: a keyed exchange, then per bucket one lexsort on
    (partition_by, *order_by) and ONE kernel call for all of the bucket's
    groups. ``order_by`` and ``sort_by`` entries are column names or
    ``(name, "descending")``.

    ``kernel(cols, groups) -> {name: array}`` gets every input column as a
    sorted numpy array (timestamps as int64 µs) and their ``Groups``. Its
    arrays (or pyarrow arrays, for nulls) are typed by ``schema``; a schema
    column it does not return is the sorted input column of that name. The
    result is sorted by ``sort_by``. A bucket with no rows yields
    ``schema``'s empty table without calling the kernel, and an input with
    no rows ``schema``'s empty table (Ray's sort would drop its schema)."""
    from radiant_portal_pipeline_ray.stages.taskshuffle import (
        exchange_group,
        materialized,
        num_rows,
        sort_spec,
    )

    ds = materialized(ds)
    if num_rows(ds) == 0:
        return schema.empty_table()
    keys = [(partition_by, False)] + sort_spec(order_by)

    def per_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        cols = {name: _column_numpy(t.column(name)) for name in t.column_names}
        order = np.lexsort([-cols[k] if d else cols[k] for k, d in keys[::-1]])
        cols = {name: v[order] for name, v in cols.items()}
        out = kernel(cols, Groups(_changes(cols[partition_by])))
        arrays = [pa.array(out.get(f.name, cols.get(f.name)), f.type) for f in schema]
        return pa.Table.from_arrays(arrays, schema=schema)

    return exchange_group(ds, [partition_by], per_bucket, sort_by=sort_by)
