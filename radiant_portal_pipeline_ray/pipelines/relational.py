"""Relational operator suite over the TPC-H-ish test tables.

Each entry implements one operator family from SURVEY.md §2 as an idiomatic
Ray Data pipeline, paired with the exact ANSI-SQL oracle the driver runs in
DuckDB (column names match 1:1). Float aggregates are emitted as
fixed-point BIGINTs (``*_c`` cents, ``*_e4`` ten-thousandths) so Ray and
DuckDB agree bit-for-bit regardless of summation order.

Every grouped aggregate is one ``aggregates.partial_final_groupby`` call,
COUNT(*) included (its ``([], "count_all", name)`` entry): no entry builds
a column of ones or hand-writes a partial and a final fold. ROLLUP and
CUBE pass their grouping sets to one fold of one finest-grain aggregate
(``_grouping_sets``), over one customer→nation→region dimension join
(``_orders_with_region``).

Every ``PARTITION BY … ORDER BY`` entry (windows, sessions, ordered
per-group picks) is one ``aggregates.window`` call. The operator owns the
keyed exchange, one lexsort per bucket, the group geometry (``Groups``,
incl. a segment-bounded searchsorted), the typed output, the final sort and
the empty cases; the entry supplies only ``kernel(cols, groups)``, a few
vectorized numpy lines over all of a bucket's groups.

Registry shape: ``QUERIES[name] = (fn(sf_dir) -> Dataset|Table, oracle_sql)``.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from radiant_portal_pipeline_ray.sources.io import read_parquet_clean

from radiant_portal_pipeline_ray.stages.aggregates import (
    Groups,
    count_distinct_groupby,
    partial_final_groupby,
    topk_per_key,
    window,
)
from radiant_portal_pipeline_ray.stages.joins import (
    hash_partitioned_join,
    make_broadcast_join,
)
from radiant_portal_pipeline_ray.stages.taskshuffle import (
    collect,
    exchange_group,
    exchange_join,
    map_blocks,
    materialized,
    sort_table,
    union,
)

QUERIES: dict = {}


def _register(name: str, sql: str | None):
    def deco(fn):
        QUERIES[name] = (fn, sql)
        return fn

    return deco


def _pq(sf_dir: str, table: str) -> str:
    return os.path.join(sf_dir, f"{table}.parquet")


def _to_cents(col, scale=100):
    return pc.cast(pc.round(pc.multiply(col, float(scale))), pa.int64())


def _cents(values: np.ndarray) -> np.ndarray:
    """``_to_cents`` of a window kernel's numpy column."""
    return _to_cents(values).to_numpy(zero_copy_only=False)


def _schema(*names: str, strings: tuple = ()) -> pa.Schema:
    """A window query's output schema: int64 columns, except ``strings``."""
    return pa.schema(
        [(n, pa.string() if n in strings else pa.int64()) for n in names]
    )


_HOUR_US = 3_600_000_000


# ---------------------------------------------------------------------------
# A1/A2: grouped aggregate with per-batch partial combining (TPC-H Q1 shape)
# ref: germline_snv_staging_variant_freq_insert.sql + variant_frequency roll-up
# ---------------------------------------------------------------------------
@_register(
    "q1_pricing_summary",
    """
    SELECT l_returnflag, l_linestatus,
           CAST(ROUND(SUM(l_quantity)) AS BIGINT) AS sum_qty,
           CAST(ROUND(SUM(l_extendedprice)*100) AS BIGINT) AS sum_base_price_c,
           CAST(ROUND(SUM(l_extendedprice*(1-l_discount))*10000) AS BIGINT) AS sum_disc_price_e4,
           COUNT(*) AS count_order
    FROM lineitem
    WHERE l_shipdate <= TIMESTAMP '1998-09-02'
    GROUP BY l_returnflag, l_linestatus
    ORDER BY l_returnflag, l_linestatus
    """,
)
def q1_pricing_summary(sf_dir: str):
    cutoff = pa.scalar(np.datetime64("1998-09-02T00:00:00", "us"))
    ds = read_parquet_clean(
        _pq(sf_dir, "lineitem"),
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
        filter=pc.field("l_shipdate") <= cutoff,
    )

    def revenue(b: pa.Table) -> pa.Table:
        disc = pc.multiply(
            b.column("l_extendedprice"), pc.subtract(1.0, b.column("l_discount"))
        )
        return b.append_column("disc_price", disc)

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "l_linestatus": b.column("l_linestatus"),
                "sum_qty": _to_cents(b.column("sum_qty_f"), 1),
                "sum_base_price_c": _to_cents(b.column("sum_base_f"), 100),
                "sum_disc_price_e4": _to_cents(b.column("sum_disc_f"), 10000),
                "count_order": b.column("count_order"),
            }
        )

    return partial_final_groupby(
        map_blocks(ds, revenue),
        ["l_returnflag", "l_linestatus"],
        [
            ("l_quantity", "sum", "sum_qty_f"),
            ("l_extendedprice", "sum", "sum_base_f"),
            ("disc_price", "sum", "sum_disc_f"),
            ([], "count_all", "count_order"),
        ],
        finish=finish,
        sort_by=["l_returnflag", "l_linestatus"],
    )


def _orders_with_region(sf_dir: str, **extra: str):
    """``orders`` (``o_custkey``, ``o_totalprice``) with ``region_name`` and
    each ``extra`` output name from its ``c_``/``n_`` source column: the
    dimension chain customer→nation→region is pre-joined on the driver
    (small tables) and broadcast-joined once."""
    src = {"region_name": "r_name", **extra}
    more = {t: [c for c in extra.values() if c.startswith(t)] for t in ("c_", "n_")}
    cust = pq.read_table(
        _pq(sf_dir, "customer"), columns=["c_custkey", "c_nationkey", *more["c_"]]
    )
    nation = pq.read_table(
        _pq(sf_dir, "nation"), columns=["n_nationkey", "n_regionkey", *more["n_"]]
    )
    region = pq.read_table(_pq(sf_dir, "region"), columns=["r_regionkey", "r_name"])
    dim = cust.join(nation, keys=["c_nationkey"], right_keys=["n_nationkey"]).join(
        region, keys=["n_regionkey"], right_keys=["r_regionkey"]
    )
    dim = dim.select(["c_custkey", *src.values()]).rename_columns(["c_custkey", *src])
    orders = read_parquet_clean(
        _pq(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"]
    )
    return map_blocks(
        orders, make_broadcast_join(dim, ["o_custkey"], ["c_custkey"], how="inner")
    )


def _grouping_sets(sf_dir: str, sets: list[list[str]], **extra: str) -> pa.Table:
    """Orders' ``SUM(cents(o_totalprice)) AS revenue_c, COUNT(*) AS
    n_orders`` by ``GROUPING SETS (sets)`` over ``region_name`` and the
    ``extra`` dimension columns, sorted by those names, nulls first. ONE
    grouped aggregate at the finest grain scans the fact table once; each
    set folds from its O(#groups) rows on the driver, and a name outside
    the set reads null. The empty set is one row, with zero sums on no
    rows."""
    names = ["region_name", *extra]
    schema = _schema(*names, "revenue_c", "n_orders", strings=names)

    def cents(b: pa.Table) -> pa.Table:
        return pa.table(
            {k: b.column(k) for k in names}
            | {"price_c": _to_cents(b.column("o_totalprice"))}
        )

    fine = collect(
        partial_final_groupby(
            map_blocks(_orders_with_region(sf_dir, **extra), cents),
            names,
            [("price_c", "sum", "revenue_c"), ([], "count_all", "n_orders")],
        ),
        schema,
    )

    def fold(keys: list[str]) -> pa.Table:
        g = fine.group_by(keys).aggregate([("revenue_c", "sum"), ("n_orders", "sum")])
        return pa.table(
            {k: g.column(k) if k in keys else pa.nulls(g.num_rows) for k in names}
            | {c: pc.fill_null(g.column(f"{c}_sum"), 0) for c in ("revenue_c", "n_orders")}
        ).cast(schema)

    out = pa.concat_tables([fold(k) for k in sets])
    return out.take(
        pc.sort_indices(
            out, sort_keys=[(k, "ascending") for k in names], null_placement="at_start"
        )
    )


# ---------------------------------------------------------------------------
# J1/J4: broadcast star join (dimension chain customer→nation→region)
# ref: JOIN [BROADCAST] germline_snv_occurrence_insert_partition_delta.sql:60-64
#      + snv_staging_variant_insert.sql 6-way star join
# ---------------------------------------------------------------------------
@_register(
    "q_region_revenue",
    """
    SELECT r.r_name AS region_name,
           CAST(ROUND(SUM(o.o_totalprice)*100) AS BIGINT) AS revenue_c,
           COUNT(*) AS n_orders
    FROM orders o
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN nation n ON c.c_nationkey = n.n_nationkey
    JOIN region r ON n.n_regionkey = r.r_regionkey
    GROUP BY r.r_name ORDER BY region_name
    """,
)
def q_region_revenue(sf_dir: str):
    return partial_final_groupby(
        _orders_with_region(sf_dir),
        ["region_name"],
        [("o_totalprice", "sum", "rev_f"), ([], "count_all", "n_orders")],
        finish=lambda b: pa.table(
            {
                "region_name": b.column("region_name"),
                "revenue_c": _to_cents(b.column("rev_f")),
                "n_orders": b.column("n_orders"),
            }
        ),
        sort_by="region_name",
    )


# ---------------------------------------------------------------------------
# J3/D3: anti join — customers with no orders (insert-if-absent shape)
# ref: variant_lookup_insert_hashes.sql LEFT ANTI JOIN
# ---------------------------------------------------------------------------
@_register(
    "q_customers_without_orders",
    """
    SELECT c.c_custkey, c.c_name
    FROM customer c ANTI JOIN (
      SELECT o_custkey FROM orders WHERE o_orderdate >= TIMESTAMP '2001-01-01'
    ) o ON c.c_custkey = o.o_custkey
    ORDER BY c_custkey
    """,
)
def q_customers_without_orders(sf_dir: str):
    """Anti join: one hash-partitioned ``left anti`` join at any size
    (reference J3's ``LEFT ANTI JOIN``,
    `variant_lookup_insert_hashes.sql:1-6`); a small one runs on the
    driver."""
    cutoff = pa.scalar(np.datetime64("2001-01-01T00:00:00", "us"))
    keys_ds = read_parquet_clean(
        _pq(sf_dir, "orders"),
        columns=["o_custkey"],
        filter=pc.field("o_orderdate") >= cutoff,
    )
    cust = read_parquet_clean(_pq(sf_dir, "customer"), columns=["c_custkey", "c_name"])
    return hash_partitioned_join(
        cust, keys_ds, "c_custkey", "o_custkey", how="anti",
        finish=lambda t: t.select(["c_custkey", "c_name"]),
        sort_by="c_custkey",
    )


# ---------------------------------------------------------------------------
# J6: semi join — parts that shipped recently (part-pruning shape)
# ref: snv_variant_part_insert_part.sql LEFT SEMI JOIN
# ---------------------------------------------------------------------------
@_register(
    "q_parts_shipped_recently",
    """
    SELECT p.p_partkey, p.p_name
    FROM part p SEMI JOIN (
      SELECT l_partkey FROM lineitem WHERE l_shipdate > TIMESTAMP '2000-06-01'
    ) l ON p.p_partkey = l.l_partkey
    ORDER BY p_partkey
    """,
)
def q_parts_shipped_recently(sf_dir: str):
    """Semi join, hash-partitioned like the anti."""
    cutoff = pa.scalar(np.datetime64("2000-06-01T00:00:00", "us"))
    keys_ds = read_parquet_clean(
        _pq(sf_dir, "lineitem"),
        columns=["l_partkey"],
        filter=pc.field("l_shipdate") > cutoff,
    )
    part = read_parquet_clean(_pq(sf_dir, "part"), columns=["p_partkey", "p_name"])

    # pre-distinct the key side so the per-bucket semi probe stays small
    def batch_distinct(b: pa.Table) -> pa.Table:
        return b.group_by("l_partkey").aggregate([])

    keys_d = map_blocks(keys_ds, batch_distinct)
    return hash_partitioned_join(
        part, keys_d, "p_partkey", "l_partkey", how="semi",
        finish=lambda t: t.select(["p_partkey", "p_name"]),
        sort_by="p_partkey",
    )


# ---------------------------------------------------------------------------
# J6 at 100 TB: bloom-prefiltered semi join. When the key side is itself too
# big to broadcast exactly, broadcast a FIXED-size bloom filter instead
# (stages/bloom.py); the probe side drops non-members before the exact
# hash-partitioned semi join, so the shuffle carries only true matches plus
# the ~0.8% false-positive tail. Same answer as q_parts_shipped_recently
# (the bloom can only ADD rows to the exact join's input, never remove a
# match), value-hash checked against the identical oracle.
# ---------------------------------------------------------------------------
@_register(
    "q_parts_shipped_bloom",
    """
    SELECT p.p_partkey, p.p_name
    FROM part p SEMI JOIN (
      SELECT l_partkey FROM lineitem WHERE l_shipdate > TIMESTAMP '2000-06-01'
    ) l ON p.p_partkey = l.l_partkey
    ORDER BY p_partkey
    """,
)
def q_parts_shipped_bloom(sf_dir: str, log2_m: int = 20):
    import ray

    from radiant_portal_pipeline_ray.stages.bloom import build_bloom

    cutoff = pa.scalar(np.datetime64("2000-06-01T00:00:00", "us"))
    keys_ds = read_parquet_clean(
        _pq(sf_dir, "lineitem"),
        columns=["l_partkey"],
        filter=pc.field("l_shipdate") > cutoff,
    )
    part = read_parquet_clean(_pq(sf_dir, "part"), columns=["p_partkey", "p_name"])

    def batch_distinct(b: pa.Table) -> pa.Table:
        return b.group_by("l_partkey").aggregate([])

    # the key side is read and pre-distincted once: it builds the filter
    # (a Bloom filter of a key set does not depend on duplicates) and is
    # the semi join's right side
    keys_d = materialized(map_blocks(keys_ds, batch_distinct))
    bf, words_ref = build_bloom(keys_d, "l_partkey", log2_m=log2_m)

    def bloom_probe(b: pa.Table) -> pa.Table:
        words = ray.get(words_ref)  # zero-copy plasma read, shared per node
        vals = b.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        return b.filter(pa.array(bf.might_contain(words, vals)))

    survivors = map_blocks(part, bloom_probe)
    return hash_partitioned_join(
        survivors, keys_d, "p_partkey", "l_partkey", how="semi",
        finish=lambda t: t.select(["p_partkey", "p_name"]),
        sort_by="p_partkey",
    )


# ---------------------------------------------------------------------------
# W1: per-key rank-1 (the LWW upsert shape) — latest order per customer
# ref: exomiser_insert_partition_delta.sql ROW_NUMBER ... = 1
# ---------------------------------------------------------------------------
@_register(
    "q_latest_order_per_customer",
    """
    SELECT o_custkey, o_orderkey, o_orderdate,
           CAST(ROUND(o_totalprice*100) AS BIGINT) AS totalprice_c
    FROM orders
    QUALIFY row_number() OVER (
      PARTITION BY o_custkey ORDER BY o_orderdate DESC, o_orderkey DESC) = 1
    ORDER BY o_custkey
    """,
)
def q_latest_order_per_customer(sf_dir: str):
    orders = read_parquet_clean(
        _pq(sf_dir, "orders"),
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
    )
    return topk_per_key(
        orders,
        ["o_custkey"],
        [("o_orderdate", "descending"), ("o_orderkey", "descending")],
        k=1,
        finish=lambda b: pa.table(
            {
                "o_custkey": b.column("o_custkey"),
                "o_orderkey": b.column("o_orderkey"),
                "o_orderdate": b.column("o_orderdate"),
                "totalprice_c": _to_cents(b.column("o_totalprice")),
            }
        ),
        sort_by="o_custkey",
    )


# ---------------------------------------------------------------------------
# W2: grouped argmax — top event per type
# ref: germline_cnv_occurrence_insert_partition_delta.sql:61-68 rank-1 pick
# ---------------------------------------------------------------------------
@_register(
    "q_top_event_per_type",
    """
    SELECT event_type, event_id,
           CAST(ROUND(value*100) AS BIGINT) AS value_c
    FROM events
    QUALIFY row_number() OVER (
      PARTITION BY event_type ORDER BY value DESC, event_id DESC) = 1
    ORDER BY event_type
    """,
)
def q_top_event_per_type(sf_dir: str):
    ev = read_parquet_clean(
        _pq(sf_dir, "events"), columns=["event_type", "event_id", "value"]
    )
    return topk_per_key(
        ev,
        ["event_type"],
        [("value", "descending"), ("event_id", "descending")],
        k=1,
        finish=lambda b: pa.table(
            {
                "event_type": b.column("event_type"),
                "event_id": b.column("event_id"),
                "value_c": _to_cents(b.column("value")),
            }
        ),
        sort_by="event_type",
    )


# ---------------------------------------------------------------------------
# CDC LWW over the events table: final state per user (J8/W1 delta shape)
# ref: staging_sequencing_experiment_delta_create_table.sql (last-writer-wins
#      keyed on natural key ordered by updated_at)
# ---------------------------------------------------------------------------
@_register(
    "q_events_lww_state",
    """
    SELECT user_id, event_type AS last_type, event_id AS last_event_id,
           CAST(ROUND(value*100) AS BIGINT) AS last_value_c
    FROM events
    QUALIFY row_number() OVER (
      PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
    ORDER BY user_id
    """,
)
def q_events_lww_state(sf_dir: str):
    ev = read_parquet_clean(
        _pq(sf_dir, "events"), columns=["user_id", "ts", "event_type", "event_id", "value"]
    )
    return topk_per_key(
        ev,
        ["user_id"],
        [("ts", "descending"), ("event_id", "descending")],
        k=1,
        finish=lambda b: pa.table(
            {
                "user_id": b.column("user_id"),
                "last_type": b.column("event_type"),
                "last_event_id": b.column("event_id"),
                "last_value_c": _to_cents(b.column("value")),
            }
        ),
        sort_by="user_id",
    )


# ---------------------------------------------------------------------------
# D1: distinct
# ref: sequencing_experiment_partition_select.sql SELECT DISTINCT
# ---------------------------------------------------------------------------
@_register(
    "q_distinct_flag_status",
    """
    SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem
    ORDER BY l_returnflag, l_linestatus
    """,
)
def q_distinct_flag_status(sf_dir: str):
    ds = read_parquet_clean(
        _pq(sf_dir, "lineitem"), columns=["l_returnflag", "l_linestatus"]
    )

    def dedup(b: pa.Table) -> pa.Table:
        return b.group_by(["l_returnflag", "l_linestatus"]).aggregate([])

    return exchange_group(
        map_blocks(ds, dedup),
        ["l_returnflag", "l_linestatus"],
        dedup,
        sort_by=["l_returnflag", "l_linestatus"],
    )


# ---------------------------------------------------------------------------
# D2: union + distinct count
# ref: snv_variant_insert.sql UNION ALL of germline+somatic loci
# ---------------------------------------------------------------------------
@_register(
    "q_union_distinct_custkeys",
    """
    SELECT COUNT(DISTINCT custkey) AS n_keys FROM (
      SELECT o_custkey AS custkey FROM orders
      UNION ALL SELECT c_custkey FROM customer
    )
    """,
)
def q_union_distinct_custkeys(sf_dir: str):
    """Distributed distinct count: per-batch dedup (combiner) → one keyed
    groupby.count() → count of groups. Only the scalar reaches the driver —
    never the distinct key set itself."""
    a = map_blocks(
        read_parquet_clean(_pq(sf_dir, "orders"), columns=["o_custkey"]),
        lambda b: b.rename_columns(["custkey"]),
    )
    b = map_blocks(
        read_parquet_clean(_pq(sf_dir, "customer"), columns=["c_custkey"]),
        lambda t: t.rename_columns(["custkey"]),
    )

    def batch_distinct(t: pa.Table) -> pa.Table:
        return t.group_by("custkey").aggregate([])

    def bucket_count(t: pa.Table) -> pa.Table:
        nd = t.group_by("custkey").aggregate([]).num_rows
        return pa.table({"c": pa.array([nd], type=pa.int64())})

    # every custkey lands in exactly one bucket → the global distinct count
    # is the sum of per-bucket distinct counts (scalar-only driver result)
    counts = exchange_group(
        map_blocks(union(a, b), batch_distinct),
        ["custkey"],
        bucket_count,
    )
    counts = collect(counts, pa.schema([("c", pa.int64())]))
    n = int(pc.sum(counts.column("c")).as_py() or 0)  # None with no buckets
    return pa.table({"n_keys": pa.array([n], type=pa.int64())})


# ---------------------------------------------------------------------------
# M7/M13: flat-map explode (CSQ-style 1→N) — tokenize documents
# ref: consequence.py CSQ explode (mean 2.9 rows/record) + UNNEST re-group
# ---------------------------------------------------------------------------
@_register(
    "q_top_tokens",
    """
    SELECT token, COUNT(*) AS n FROM (
      SELECT unnest(string_split(text, ' ')) AS token FROM documents
    ) WHERE token <> ''
    GROUP BY token ORDER BY n DESC, token LIMIT 20
    """,
)
def q_top_tokens(sf_dir: str, k: int = 20):
    """Global token top-k WITHOUT materializing the vocabulary anywhere:
    per-batch partial counts → ONE coarse-pkey shuffle (every partial of a
    token lands in the same partition, so per-partition sums are its exact
    global count) → per-partition top-k prune (≤ k rows leave each
    partition) → tiny driver merge of ≤ buckets·k rows. Web-scale
    vocabularies (10⁹ tokens) never hit the driver (round-2 review fix)."""
    docs = read_parquet_clean(_pq(sf_dir, "documents"), columns=["text"])

    def explode_count(b: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(b.column("text"), " "))
        toks = toks.filter(pc.not_equal(toks, ""))
        t = pa.table({"token": toks})
        g = t.group_by("token").aggregate([("token", "count")])
        return g.rename_columns(["token", "n"])

    def partition_topk(group: pa.Table) -> pa.Table:
        g = (
            group.group_by("token")
            .aggregate([("n", "sum")])
            .rename_columns(["token", "n"])
        )
        return g.take(
            pc.sort_indices(
                g, sort_keys=[("n", "descending"), ("token", "ascending")]
            )
        ).slice(0, k)

    pruned = exchange_group(
        map_blocks(docs, explode_count),
        ["token"],
        partition_topk,
    )
    t = collect(pruned)  # ≤ buckets·k rows
    t = t.take(
        pc.sort_indices(
            t, sort_keys=[("n", "descending"), ("token", "ascending")]
        )
    ).slice(0, k)
    return t.set_column(1, pa.field("n", pa.int64()), t.column("n").cast(pa.int64()))


# ---------------------------------------------------------------------------
# streaming-shaped: tumbling window aggregate per user
# (Ray Data has no event-time windows; tumbling = groupby(key, bucket) —
#  see guide "Streaming-shaped workloads")
# ---------------------------------------------------------------------------
@_register(
    "q_hourly_user_activity",
    """
    SELECT user_id,
           CAST(FLOOR(epoch(ts)/3600) AS BIGINT) AS hour_bucket,
           COUNT(*) AS n_events,
           CAST(ROUND(SUM(value)*100) AS BIGINT) AS value_c
    FROM events GROUP BY user_id, hour_bucket
    ORDER BY user_id, hour_bucket
    """,
)
def q_hourly_user_activity(sf_dir: str):
    ev = read_parquet_clean(_pq(sf_dir, "events"), columns=["user_id", "ts", "value"])

    def bucket(b: pa.Table) -> pa.Table:
        us = pc.cast(b.column("ts"), pa.int64())
        hb = pc.cast(pc.floor(pc.divide(us, 3_600_000_000)), pa.int64())
        return b.append_column("hour_bucket", hb)

    return partial_final_groupby(
        map_blocks(ev, bucket),
        ["user_id", "hour_bucket"],
        [([], "count_all", "n_events"), ("value", "sum", "value_f")],
        finish=lambda b: pa.table(
            {
                "user_id": b.column("user_id"),
                "hour_bucket": b.column("hour_bucket"),
                "n_events": b.column("n_events"),
                "value_c": _to_cents(b.column("value_f")),
            }
        ),
        sort_by=["user_id", "hour_bucket"],
    )


# ---------------------------------------------------------------------------
# A1/A3: conditional COUNT(DISTINCT) — cohort-style flags
# ref: germline_snv_staging_variant_freq_insert.sql conditional distincts
# ---------------------------------------------------------------------------
@_register(
    "q_event_type_stats",
    """
    SELECT event_type,
           COUNT(*) AS n_events,
           COUNT(DISTINCT user_id) AS n_users,
           COUNT(DISTINCT CASE WHEN value > 100 THEN user_id END) AS n_users_big
    FROM events GROUP BY event_type ORDER BY event_type
    """,
)
def q_event_type_stats(sf_dir: str):
    ev = read_parquet_clean(
        _pq(sf_dir, "events"), columns=["event_type", "user_id", "value"]
    )

    def prep(b: pa.Table) -> pa.Table:
        return b.append_column("big", pc.greater(b.column("value"), 100.0))

    prepped = map_blocks(ev, prep)
    distincts = count_distinct_groupby(
        prepped,
        ["event_type"],
        "user_id",
        "n_users",
        predicate_cols={"big": "n_users_big"},
    )
    counts = partial_final_groupby(
        prepped, ["event_type"], [([], "count_all", "n_events")]
    )
    dt = collect(distincts)
    ct = collect(counts)
    out = ct.join(dt, keys=["event_type"])
    out = out.select(["event_type", "n_events", "n_users", "n_users_big"])
    out = pa.table(
        {
            "event_type": out.column("event_type"),
            "n_events": out.column("n_events"),
            "n_users": out.column("n_users").cast(pa.int64()),
            "n_users_big": out.column("n_users_big").cast(pa.int64()),
        }
    )
    return out.take(pc.sort_indices(out, sort_keys=[("event_type", "ascending")]))


# ---------------------------------------------------------------------------
# M12/§2.8: scalar-function projection (lower/split/if/coalesce/clamp)
# ref: staging_exomiser_load.sql computed columns
# ---------------------------------------------------------------------------
@_register(
    "q_scalar_projection",
    """
    SELECT c_custkey,
           lower(c_mktsegment) AS seg_lower,
           IF(c_acctbal < 0, 'neg', 'pos') AS acct_sign,
           CAST(ROUND(GREATEST(LEAST(c_acctbal, 5000.0), 0.0)*100) AS BIGINT)
             AS bal_clamped_c,
           string_split(c_name, '#')[2] AS cust_num
    FROM customer ORDER BY c_custkey
    """,
)
def q_scalar_projection(sf_dir: str):
    cust = read_parquet_clean(
        _pq(sf_dir, "customer"), columns=["c_custkey", "c_name", "c_mktsegment", "c_acctbal"]
    )

    def project(b: pa.Table) -> pa.Table:
        bal = b.column("c_acctbal")
        clamped = pc.max_element_wise(pc.min_element_wise(bal, 5000.0), 0.0)
        split = pc.split_pattern(b.column("c_name"), "#")
        return pa.table(
            {
                "c_custkey": b.column("c_custkey"),
                "seg_lower": pc.utf8_lower(b.column("c_mktsegment")),
                "acct_sign": pc.if_else(pc.less(bal, 0.0), "neg", "pos"),
                "bal_clamped_c": _to_cents(clamped),
                "cust_num": pc.list_element(split, 1),
            }
        )

    return sort_table(map_blocks(cust, project), "c_custkey")


# ---------------------------------------------------------------------------
# J7: interval-overlap range join (per-group sorted sweep) — orders whose
# 90-day windows overlap, grouped by customer
# ref: germline_cnv_occurrence_insert_partition_delta.sql cnv ⋈ cytoband
#      `c.start<=o.end AND c.end>=o.start` per chromosome-partition
# ---------------------------------------------------------------------------
@_register(
    "q_order_overlap_windows",
    """
    SELECT a.o_orderkey, COUNT(*) AS n_overlaps
    FROM orders a JOIN orders b
      ON a.o_custkey = b.o_custkey
     AND b.o_orderdate <= a.o_orderdate + INTERVAL 90 DAY
     AND b.o_orderdate + INTERVAL 90 DAY >= a.o_orderdate
    GROUP BY a.o_orderkey ORDER BY a.o_orderkey
    """,
)
def q_order_overlap_windows(sf_dir: str):
    orders = read_parquet_clean(
        _pq(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    win = 90 * 86_400_000_000  # 90 days in µs

    def overlaps(c, g):
        """Interval i overlaps j ⇔ s[j] <= e[i] and e[j] >= s[i]. A
        customer's starts are sorted, and so are its ends e = s + win: count
        j with s[j] <= e[i] minus j with e[j] < s[i], both searches bounded
        to the customer."""
        s = c["o_orderdate"]
        e = s + win
        n = g.searchsorted(s, e, "right") - g.searchsorted(e, s, "left")
        return {"n_overlaps": n}

    return window(
        orders, "o_custkey", ["o_orderdate"], overlaps,
        _schema("o_orderkey", "n_overlaps"), sort_by=["o_orderkey"],
    )


# ---------------------------------------------------------------------------
# A7: array_agg interval-overlap join against a broadcast label table
# ref: germline_cnv_occurrence_insert_partition_delta.sql:1-22 — cnv rows
#      pick up array_agg(cytoband.label) for every overlapping band within
#      the chromosome group; here orders pick up every priority-group
#      calendar window overlapping [o_orderdate, o_orderdate+45d]
# ---------------------------------------------------------------------------
_WINDOW_PRIORITIES = (
    "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW",
)
_WINDOW_YEARS = tuple(range(1995, 2002))


def _priority_windows_table() -> pa.Table:
    """Deterministic broadcast interval table: two overlapping windows per
    (priority, year) — the cytoband-table analogue."""
    import datetime as _dt

    grp, s, e, lbl = [], [], [], []
    for p in _WINDOW_PRIORITIES:
        for y in _WINDOW_YEARS:
            grp += [p, p]
            s += [_dt.datetime(y, 1, 1), _dt.datetime(y, 6, 1)]
            e += [_dt.datetime(y, 8, 31), _dt.datetime(y, 12, 31)]
            lbl += [f"y{y}-first", f"y{y}-second"]
    return pa.table(
        {
            "grp": pa.array(grp, type=pa.string()),
            "s": pa.array(s, type=pa.timestamp("us")),
            "e": pa.array(e, type=pa.timestamp("us")),
            "lbl": pa.array(lbl, type=pa.string()),
        }
    )


def _priority_windows_values() -> str:
    rows = []
    for p in _WINDOW_PRIORITIES:
        for y in _WINDOW_YEARS:
            rows.append(
                f"('{p}', TIMESTAMP '{y}-01-01', TIMESTAMP '{y}-08-31', "
                f"'y{y}-first')"
            )
            rows.append(
                f"('{p}', TIMESTAMP '{y}-06-01', TIMESTAMP '{y}-12-31', "
                f"'y{y}-second')"
            )
    return ",\n      ".join(rows)


@_register(
    "q_priority_window_labels",
    f"""
    WITH iv(grp, s, e, lbl) AS (VALUES
      {_priority_windows_values()}
    )
    SELECT o_orderkey,
           array_to_string(
             COALESCE(list_sort(list(lbl) FILTER (lbl IS NOT NULL)), []),
             ',') AS window_labels
    FROM orders o LEFT JOIN iv
      ON iv.grp = o.o_orderpriority
     AND iv.s <= o.o_orderdate + INTERVAL 45 DAY
     AND iv.e >= o.o_orderdate
    GROUP BY o_orderkey
    ORDER BY o_orderkey
    """,
)
def q_priority_window_labels(sf_dir: str):
    """Every order collects the sorted labels of all broadcast calendar
    windows (same priority group) overlapping its 45-day activity window —
    the A7 ``array_agg`` interval join as a broadcast map_batches stage
    (no shuffle at all; the interval table ships once in the closure)."""
    from radiant_portal_pipeline_ray.stages.joins import (
        make_interval_overlap_join,
    )

    orders = read_parquet_clean(
        _pq(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderpriority", "o_orderdate"],
    )
    join = make_interval_overlap_join(
        _priority_windows_table(),
        group_key="o_orderpriority",
        left_start="o_orderdate",
        left_end="o_end",
        iv_group="grp",
        iv_start="s",
        iv_end="e",
        iv_label="lbl",
        out_col="labels",
    )

    def run(b: pa.Table) -> pa.Table:
        b = b.append_column(
            "o_end",
            pc.add(
                b.column("o_orderdate"),
                pa.scalar(45 * 86_400_000_000, type=pa.duration("us")),
            ),
        )
        j = join(b)
        return pa.table(
            {
                "o_orderkey": j.column("o_orderkey"),
                "window_labels": pc.binary_join(j.column("labels"), ","),
            }
        )

    return sort_table(map_blocks(orders, run), "o_orderkey")


# ---------------------------------------------------------------------------
# A6: array_agg of distinct values per group
# ref: snv_staging_variant_insert.sql array_remove(array_unique_agg(code))
# ---------------------------------------------------------------------------
@_register(
    "q_nation_segments",
    """
    SELECT c_nationkey,
           array_to_string(list_sort(list(DISTINCT c_mktsegment)), ',') AS segments,
           COUNT(*) AS n_customers
    FROM customer GROUP BY c_nationkey ORDER BY c_nationkey
    """,
)
def q_nation_segments(sf_dir: str):
    cust = read_parquet_clean(
        _pq(sf_dir, "customer"), columns=["c_nationkey", "c_mktsegment"]
    )

    def agg_bucket(g: pa.Table) -> pa.Table:
        """All of a bucket's nations in one arrow group_by: distinct-list
        aggregate + count, then a tiny per-nation join of the sorted list."""
        gg = g.group_by("c_nationkey").aggregate(
            [("c_mktsegment", "distinct"), ("c_mktsegment", "count")]
        )
        segs = [
            ",".join(sorted(lst))
            for lst in gg.column("c_mktsegment_distinct").to_pylist()
        ]
        return pa.table(
            {
                "c_nationkey": pc.cast(gg.column("c_nationkey"), pa.int32()),
                "segments": pa.array(segs, type=pa.string()),
                "n_customers": pc.cast(
                    gg.column("c_mktsegment_count"), pa.int64()
                ),
            }
        )

    return exchange_group(
        cust, ["c_nationkey"], agg_bucket, sort_by="c_nationkey"
    )


# ---------------------------------------------------------------------------
# J2/J7-lite: large-large partitioned hash join + range predicate
# ref: exomiser composite-key join + CNV positional-containment predicate
# ---------------------------------------------------------------------------
@_register(
    "q_shipped_within_60d",
    """
    SELECT o.o_orderpriority,
           COUNT(*) AS n,
           CAST(ROUND(SUM(l.l_extendedprice*(1-l.l_discount))*10000) AS BIGINT)
             AS revenue_e4
    FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    WHERE l.l_shipdate >= o.o_orderdate
      AND l.l_shipdate <= o.o_orderdate + INTERVAL 60 DAY
    GROUP BY o.o_orderpriority ORDER BY o_orderpriority
    """,
)
def q_shipped_within_60d(sf_dir: str):
    li = read_parquet_clean(
        _pq(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )
    orders = read_parquet_clean(
        _pq(sf_dir, "orders"), columns=["o_orderkey", "o_orderdate", "o_orderpriority"]
    )
    joined = hash_partitioned_join(
        li, orders, "l_orderkey", "o_orderkey", how="inner"
    )

    def range_filter(b: pa.Table) -> pa.Table:
        ship = pc.cast(b.column("l_shipdate"), pa.int64())
        od = pc.cast(b.column("o_orderdate"), pa.int64())
        keep = pc.and_(
            pc.greater_equal(ship, od),
            pc.less_equal(ship, pc.add(od, 60 * 86_400_000_000)),
        )
        b = b.filter(keep)
        rev = pc.multiply(
            b.column("l_extendedprice"), pc.subtract(1.0, b.column("l_discount"))
        )
        return b.append_column("rev", rev)

    return partial_final_groupby(
        map_blocks(joined, range_filter),
        ["o_orderpriority"],
        [([], "count_all", "n"), ("rev", "sum", "rev_f")],
        finish=lambda b: pa.table(
            {
                "o_orderpriority": b.column("o_orderpriority"),
                "n": b.column("n"),
                "revenue_e4": _to_cents(b.column("rev_f"), 10000),
            }
        ),
        sort_by="o_orderpriority",
    )


# ---------------------------------------------------------------------------
# J2: composite-key LEFT join with a rank-1 prefiltered right side
# ref: germline_snv_occurrence_insert_partition_delta.sql:65-72 — occurrence
# LEFT JOIN exomiser ON (seq_id, locus_id) with variant_rank=1 subquery
# ---------------------------------------------------------------------------
@_register(
    "q_left_join_rank1",
    """
    WITH r1 AS (
      SELECT l_orderkey, l_linestatus, l_extendedprice, l_linenumber FROM (
        SELECT l_orderkey, l_linestatus, l_extendedprice, l_linenumber,
               row_number() OVER (
                 PARTITION BY l_orderkey, l_linestatus
                 ORDER BY l_extendedprice DESC, l_linenumber DESC) AS rn
        FROM lineitem) t WHERE rn = 1
    )
    SELECT o.o_orderkey, o.o_orderstatus,
           CAST(ROUND(o.o_totalprice*100) AS BIGINT) AS totalprice_c,
           CAST(ROUND(r1.l_extendedprice*100) AS BIGINT) AS top_price_c,
           r1.l_linenumber AS top_linenumber
    FROM orders o LEFT JOIN r1
      ON o.o_orderkey = r1.l_orderkey AND o.o_orderstatus = r1.l_linestatus
    ORDER BY o_orderkey
    """,
)
def q_left_join_rank1(sf_dir: str):
    li = read_parquet_clean(
        _pq(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_linestatus", "l_extendedprice", "l_linenumber"],
    )
    r1 = topk_per_key(
        li,
        ["l_orderkey", "l_linestatus"],
        [("l_extendedprice", "descending"), ("l_linenumber", "descending")],
        k=1,
    )
    orders = read_parquet_clean(
        _pq(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    )
    return hash_partitioned_join(
        orders,
        r1,
        ["o_orderkey", "o_orderstatus"],
        ["l_orderkey", "l_linestatus"],
        how="left",
        finish=lambda b: pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_orderstatus": b.column("o_orderstatus"),
                "totalprice_c": _to_cents(b.column("o_totalprice")),
                "top_price_c": _to_cents(b.column("l_extendedprice")),
                "top_linenumber": pc.cast(b.column("l_linenumber"), pa.int64()),
            }
        ),
        sort_by="o_orderkey",
    )


# ---------------------------------------------------------------------------
# streaming-shaped: gap-based SESSION windows per user (sessionization)
# Ray Data has no event-time session windows; the operator is expressed as
# pkey-partitioned vectorized gap detection + cumulative session numbering —
# the same custom-operator recipe as the tumbling window above.
# ---------------------------------------------------------------------------
@_register(
    "q_user_sessions",
    """
    WITH x AS (
      SELECT user_id, ts, event_id,
             CASE WHEN lag(ts) OVER w IS NULL
                    OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
                  THEN 1 ELSE 0 END AS new_s
      FROM events
      WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    ), y AS (
      SELECT user_id, ts, event_id,
             SUM(new_s) OVER (
               PARTITION BY user_id ORDER BY ts, event_id
               ROWS UNBOUNDED PRECEDING) AS session_no
      FROM x
    )
    SELECT user_id, CAST(session_no AS BIGINT) AS session_no,
           COUNT(*) AS n_events,
           CAST(epoch_us(MAX(ts)) - epoch_us(MIN(ts)) AS BIGINT) AS duration_us
    FROM y GROUP BY user_id, session_no ORDER BY user_id, session_no
    """,
)
def q_user_sessions(sf_dir: str, gap_us: int = 1_800_000_000):
    """Sessionize each user's event stream: a gap > 30 min starts a new
    session. One window pass: gap flags split each user into sessions,
    numbered by a per-user count of session starts."""
    ev = read_parquet_clean(
        _pq(sf_dir, "events"), columns=["user_id", "ts", "event_id"]
    )

    def sessionize(c, g):
        ts = c["ts"]
        sess = Groups(g.first | np.append(False, np.diff(ts) > gap_us))
        cum = np.cumsum(sess.first)
        session_no = cum - g.spread(cum[g.starts]) + 1
        return {
            "user_id": c["user_id"][sess.starts],
            "session_no": session_no[sess.starts],
            "n_events": sess.lens,
            "duration_us": ts[sess.ends] - ts[sess.starts],
        }

    return window(
        ev, "user_id", ["ts", "event_id"], sessionize,
        _schema("user_id", "session_no", "n_events", "duration_us"),
        sort_by=["user_id", "session_no"],
    )


# ---------------------------------------------------------------------------
# streaming-shaped: SLIDING (overlapping) window aggregate per user —
# 1-hour windows advancing every 15 min; each event flat-maps to the 4
# windows covering it (explode), then one pre-combined groupby.
# ---------------------------------------------------------------------------
@_register(
    "q_sliding_user_windows",
    """
    WITH win AS (
      SELECT user_id,
             CAST(FLOOR(epoch_us(ts) / 900000000) AS BIGINT) - g.o AS win_start_q,
             value
      FROM events,
           LATERAL (SELECT unnest(range(0, 4)) AS o) g
      WHERE CAST(FLOOR(epoch_us(ts) / 900000000) AS BIGINT) - g.o >= 0
    )
    SELECT user_id, win_start_q,
           COUNT(*) AS n_events,
           CAST(ROUND(SUM(value) * 100) AS BIGINT) AS value_c
    FROM win
    GROUP BY user_id, win_start_q
    ORDER BY user_id, win_start_q
    """,
)
def q_sliding_user_windows(sf_dir: str):
    """Each event belongs to the 4 sliding windows [q-3, q] of its 15-min
    quarter q; explode via np.repeat, pre-combine per batch, one final
    groupby — the window explode is the CSQ 1→N flat-map shape applied to
    event time."""
    ev = read_parquet_clean(_pq(sf_dir, "events"), columns=["user_id", "ts", "value"])

    def explode_windows(b: pa.Table) -> pa.Table:
        us = pc.cast(b.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        q = us // 900_000_000
        user = b.column("user_id").to_numpy(zero_copy_only=False)
        val = b.column("value").to_numpy(zero_copy_only=False)
        n = len(q)
        offs = np.arange(4, dtype=np.int64)
        win = (q[:, None] - offs[None, :]).ravel()
        keep = win >= 0
        t = pa.table(
            {
                "user_id": pa.array(np.repeat(user, 4)[keep], type=pa.int64()),
                "win_start_q": pa.array(win[keep], type=pa.int64()),
                "value": pa.array(np.repeat(val, 4)[keep]),
            }
        )
        return t

    return partial_final_groupby(
        map_blocks(ev, explode_windows),
        ["user_id", "win_start_q"],
        [([], "count_all", "n_events"), ("value", "sum", "value_f")],
        finish=lambda b: pa.table(
            {
                "user_id": b.column("user_id"),
                "win_start_q": b.column("win_start_q"),
                "n_events": b.column("n_events"),
                "value_c": _to_cents(b.column("value_f")),
            }
        ),
        sort_by=["user_id", "win_start_q"],
    )


# ---------------------------------------------------------------------------
# As-of join (point-in-time enrichment): each event picks up the LATEST
# order of the same customer at-or-before the event time. The canonical
# "attach the most recent dimension state" operator a changelog pipeline
# needs (the reference's analogue is the LWW rank-1 pick applied across two
# streams, `exomiser_insert_partition_delta.sql:9`); Ray Data has no asof
# join, so it composes as: keyed task-shuffle co-location → one vectorized
# merged-scan per bucket (lexsort both sides together, forward-max of right
# positions, key-equality validation — no per-key Python).
# ---------------------------------------------------------------------------
@_register(
    "q_asof_latest_order",
    """
    SELECT e.event_id, e.user_id, o.ok AS o_orderkey
    FROM events e ASOF LEFT JOIN (
      SELECT o_custkey, CAST(o_orderdate AS TIMESTAMP) AS ots,
             MAX(o_orderkey) AS ok
      FROM orders GROUP BY 1, 2
    ) o ON e.user_id = o.o_custkey AND e.ts >= o.ots
    ORDER BY event_id
    """,
)
def q_asof_latest_order(sf_dir: str):
    ev = read_parquet_clean(
        _pq(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )
    orders = read_parquet_clean(
        _pq(sf_dir, "orders"), columns=["o_custkey", "o_orderdate", "o_orderkey"]
    )

    def asof_bucket(l: pa.Table, r: pa.Table) -> pa.Table:
        eid = l.column("event_id").to_numpy(zero_copy_only=False)
        kl = l.column("user_id").to_numpy(zero_copy_only=False)
        tsl = pc.cast(l.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        if l.num_rows == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "o_orderkey": pa.array([], pa.int64()),
                }
            )
        kr = r.column("o_custkey").to_numpy(zero_copy_only=False)
        tsr = (
            pc.cast(pc.cast(r.column("o_orderdate"), pa.timestamp("us")), pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        okr = r.column("o_orderkey").to_numpy(zero_copy_only=False)
        # deterministic tie-break: one right row per (key, ts) = max orderkey
        if len(kr):
            o = np.lexsort((okr, tsr, kr))
            kr, tsr, okr = kr[o], tsr[o], okr[o]
            last = np.concatenate(
                [(kr[1:] != kr[:-1]) | (tsr[1:] != tsr[:-1]), [True]]
            )
            kr, tsr, okr = kr[last], tsr[last], okr[last]
        nR = len(kr)
        # merged scan: sort right+left rows together by (key, ts) with right
        # rows winning ties (ts >= is inclusive); the forward max of right
        # positions at each left row is its as-of match iff keys agree —
        # a right row of an EARLIER key in between proves "no match".
        k_all = np.concatenate([kr, kl])
        ts_all = np.concatenate([tsr, tsl])
        tag = np.concatenate(
            [np.zeros(nR, dtype=np.int8), np.ones(len(kl), dtype=np.int8)]
        )
        order = np.lexsort((tag, ts_all, k_all))
        tag_s, k_s = tag[order], k_all[order]
        rightpos = np.where(tag_s == 0, np.arange(len(order)), -1)
        acc = np.maximum.accumulate(rightpos)
        lmask = tag_s == 1
        lpos = np.flatnonzero(lmask)
        rp = acc[lpos]
        li = order[lpos] - nR  # original left row index
        valid = (rp >= 0) & (k_s[rp] == k_s[lpos])
        ok = np.full(len(kl), -1, dtype=np.int64)
        ok[li[valid]] = okr[order[rp[valid]]]
        res = pa.table(
            {
                "event_id": pa.array(eid, type=pa.int64()),
                "user_id": pa.array(kl, type=pa.int64()),
                "o_orderkey": pa.array(ok, type=pa.int64()),
            }
        )
        mask = pc.equal(res.column("o_orderkey"), -1)
        return res.set_column(
            2,
            pa.field("o_orderkey", pa.int64()),
            pc.if_else(mask, pa.scalar(None, pa.int64()), res.column("o_orderkey")),
        )

    return exchange_join(
        ev, orders, ["user_id"], ["o_custkey"], asof_bucket,
        sort_by="event_id",
    )


# ---------------------------------------------------------------------------
# W1 generalized: top-N per key (N>1) — the distributed window-rank shape
# ref: exomiser_insert_partition_delta.sql:9 rank-1 pick, generalized to the
#      "keep N best per entity" curation shape. Per-batch prune leaves ≤N
#      rows per key per batch, so the exchange moves O(keys·N) rows.
# ---------------------------------------------------------------------------
@_register(
    "q_top3_orders_per_customer",
    """
    SELECT o_custkey, o_orderkey, o_orderdate,
           CAST(ROUND(o_totalprice*100) AS BIGINT) AS totalprice_c
    FROM orders
    QUALIFY row_number() OVER (
      PARTITION BY o_custkey ORDER BY o_orderdate DESC, o_orderkey DESC) <= 3
    ORDER BY o_custkey, o_orderdate DESC, o_orderkey DESC
    """,
)
def q_top3_orders_per_customer(sf_dir: str):
    orders = read_parquet_clean(
        _pq(sf_dir, "orders"),
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
    )
    return topk_per_key(
        orders,
        ["o_custkey"],
        [("o_orderdate", "descending"), ("o_orderkey", "descending")],
        k=3,
        finish=lambda b: pa.table(
            {
                "o_custkey": b.column("o_custkey"),
                "o_orderkey": b.column("o_orderkey"),
                "o_orderdate": b.column("o_orderdate"),
                "totalprice_c": _to_cents(b.column("o_totalprice")),
            }
        ),
        sort_by=[
            "o_custkey", ("o_orderdate", "descending"), ("o_orderkey", "descending")
        ],
    )


# ---------------------------------------------------------------------------
# A3 generalized: ROLLUP (hierarchical grouping-sets aggregate) — computed
# once at the finest grain with per-batch partial combining; the coarser
# levels (region, grand total) fold from the finest result, which is only
# O(#nations) rows, so no second pass over the fact table.
# ref: the reference computes the same frequency roll-up twice at two grains
#      (germline_snv_staging_variant_freq_insert.sql then
#      germline_snv_variant_frequency_insert.sql); ROLLUP folds the coarse
#      grain from the fine one instead of re-scanning.
# ---------------------------------------------------------------------------
@_register(
    "q_rollup_revenue",
    """
    SELECT r_name AS region_name, n_name AS nation_name,
           CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS revenue_c,
           COUNT(*) AS n_orders
    FROM orders
    JOIN customer ON o_custkey = c_custkey
    JOIN nation   ON c_nationkey = n_nationkey
    JOIN region   ON n_regionkey = r_regionkey
    GROUP BY ROLLUP(r_name, n_name)
    ORDER BY region_name NULLS FIRST, nation_name NULLS FIRST
    """,
)
def q_rollup_revenue(sf_dir: str):
    r, n = "region_name", "nation_name"
    return _grouping_sets(sf_dir, [[r, n], [r], []], nation_name="n_name")


# ---------------------------------------------------------------------------
# Window function: per-key running cumulative sum (ordered prefix aggregate).
# A window on the key: each bucket computes ALL its keys' prefix sums in one
# vectorized pass (global cumsum → per-key base subtraction). Integer cents per-row before summing, so the result is
# order-of-summation exact.
# ---------------------------------------------------------------------------
@_register(
    "q_running_total",
    """
    SELECT event_id, user_id, epoch_us(ts) AS ts_us,
           CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) OVER (
             PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS running_c
    FROM events
    ORDER BY user_id, ts_us, event_id
    """,
)
def q_running_total(sf_dir: str):
    ev = read_parquet_clean(
        _pq(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def prefix_sums(c, g):
        cents = _cents(c["value"])
        cum = np.cumsum(cents)
        # base = cumulative sum just BEFORE each user's first row
        base = g.spread(cum[g.starts] - cents[g.starts])
        return {"ts_us": c["ts"], "running_c": cum - base}

    return window(
        ev, "user_id", ["ts", "event_id"], prefix_sums,
        _schema("event_id", "user_id", "ts_us", "running_c"),
        sort_by=["user_id", "ts_us", "event_id"],
    )


# ---------------------------------------------------------------------------
# Window function: LAG — inter-event gap per key (NULL for each key's first
# row). Same window kernel shape as the prefix sum: one diff, null mask at
# key starts.
# ---------------------------------------------------------------------------
@_register(
    "q_event_gaps",
    """
    SELECT event_id, user_id, epoch_us(ts) AS ts_us,
           epoch_us(ts) - LAG(epoch_us(ts)) OVER (
             PARTITION BY user_id ORDER BY ts, event_id) AS gap_us
    FROM events
    ORDER BY user_id, ts_us, event_id
    """,
)
def q_event_gaps(sf_dir: str):
    ev = read_parquet_clean(
        _pq(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )

    def lag_gaps(c, g):
        ts = c["ts"]
        gaps = np.diff(ts, prepend=ts[:1])
        return {"ts_us": ts, "gap_us": pa.array(gaps, pa.int64(), mask=g.first)}

    return window(
        ev, "user_id", ["ts", "event_id"], lag_gaps,
        _schema("event_id", "user_id", "ts_us", "gap_us"),
        sort_by=["user_id", "ts_us", "event_id"],
    )


# ---------------------------------------------------------------------------
# Pivot (wide conditional aggregate): event_type values become columns, one
# row per user. Pure partial+final groupby over per-batch conditional
# integer sums — no per-type scans, no shuffle of raw rows.
# ref: the reference's A1 conditional-count shape
#      (germline_snv_staging_variant_freq_insert.sql CASE WHEN ... aggregates)
#      widened to a full pivot.
# ---------------------------------------------------------------------------
_PIVOT_TYPES = ["click", "error", "purchase", "signup", "view"]


def _pivot_sql() -> str:
    cases = ",\n           ".join(
        f"CAST(SUM(CASE WHEN event_type = '{t}' THEN"
        f" CAST(ROUND(value*100) AS BIGINT) ELSE 0 END) AS BIGINT) AS {t}_c"
        for t in _PIVOT_TYPES
    )
    return f"""
    SELECT user_id,
           {cases},
           COUNT(*) AS n_events
    FROM events
    GROUP BY user_id
    ORDER BY user_id
    """


@_register("q_pivot_event_values", _pivot_sql())
def q_pivot_event_values(sf_dir: str):
    ev = read_parquet_clean(
        _pq(sf_dir, "events"), columns=["user_id", "event_type", "value"]
    )

    def widen(b: pa.Table) -> pa.Table:
        cents = _to_cents(b.column("value"))
        et = b.column("event_type")
        zero = pa.scalar(0, pa.int64())
        cols = {"user_id": b.column("user_id")}
        for t in _PIVOT_TYPES:
            cols[f"{t}_c"] = pc.if_else(pc.equal(et, t), cents, zero)
        return pa.table(cols)

    return partial_final_groupby(
        map_blocks(ev, widen),
        ["user_id"],
        [(f"{t}_c", "sum", f"{t}_c") for t in _PIVOT_TYPES]
        + [([], "count_all", "n_events")],
        finish=lambda b: pa.table(
            {"user_id": b.column("user_id")}
            | {f"{t}_c": pc.cast(b.column(f"{t}_c"), pa.int64()) for t in _PIVOT_TYPES}
            | {"n_events": b.column("n_events")}
        ),
        sort_by="user_id",
    )


# ---------------------------------------------------------------------------
# Decorrelated correlated subquery: fact rows compared against their own
# group's aggregate (orders strictly above their customer's average order
# value). Two-pass: partial+final grouped SUM/COUNT per key, then the small
# per-key aggregate co-partitions back onto the fact via the keyed exchange
# — integer-exact (price·count > sum avoids the division entirely).
# ref: the reference's freq roll-up re-joined onto occurrences
#      (germline_snv_variant_frequency_insert.sql feeding later deltas).
# ---------------------------------------------------------------------------
@_register(
    "q_orders_above_customer_avg",
    """
    SELECT o.o_orderkey, o.o_custkey,
           CAST(ROUND(o.o_totalprice*100) AS BIGINT) AS totalprice_c
    FROM orders o
    JOIN (
      SELECT o_custkey,
             SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS sum_c,
             COUNT(*) AS cnt
      FROM orders GROUP BY o_custkey
    ) a USING (o_custkey)
    WHERE CAST(ROUND(o.o_totalprice*100) AS BIGINT) * a.cnt > a.sum_c
    ORDER BY o_orderkey
    """,
)
def q_orders_above_customer_avg(sf_dir: str):
    orders = read_parquet_clean(
        _pq(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    def to_int(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_custkey": b.column("o_custkey"),
                "totalprice_c": _to_cents(b.column("o_totalprice")),
            }
        )

    fact = map_blocks(orders, to_int)
    agg = partial_final_groupby(
        fact,
        ["o_custkey"],
        [("totalprice_c", "sum", "sum_c"), ([], "count_all", "cnt")],
    )

    def above_avg(l: pa.Table, r: pa.Table) -> pa.Table:
        j = l.join(r, keys=["o_custkey"], join_type="inner")
        keep = pc.greater(
            pc.multiply_checked(j.column("totalprice_c"), j.column("cnt")),
            j.column("sum_c"),
        )
        return j.filter(keep).select(["o_orderkey", "o_custkey", "totalprice_c"])

    return exchange_join(
        fact, agg, ["o_custkey"], ["o_custkey"], above_avg,
        sort_by="o_orderkey",
    )


# ---------------------------------------------------------------------------
# Ordered-sequence funnel (MATCH_RECOGNIZE shape): for every user with a
# 'view', the first click strictly AFTER that view, then the first purchase
# strictly after that click. Users co-locate once through the keyed
# exchange; each bucket resolves every stage for ALL its users with arrow
# group_by + index_in probes — no per-user Python, no re-shuffle between
# stages.
# ---------------------------------------------------------------------------
@_register(
    "q_funnel_users",
    """
    WITH v AS (
      SELECT user_id, min(ts) AS t_view FROM events
      WHERE event_type = 'view' GROUP BY user_id
    ), c AS (
      SELECT e.user_id, min(e.ts) AS t_click FROM events e
      JOIN v USING (user_id)
      WHERE e.event_type = 'click' AND e.ts > v.t_view
      GROUP BY e.user_id
    ), p AS (
      SELECT e.user_id, min(e.ts) AS t_purchase FROM events e
      JOIN c USING (user_id)
      WHERE e.event_type = 'purchase' AND e.ts > c.t_click
      GROUP BY e.user_id
    )
    SELECT v.user_id,
           epoch_us(v.t_view) AS view_us,
           epoch_us(c.t_click) AS click_us,
           epoch_us(p.t_purchase) AS purchase_us
    FROM v LEFT JOIN c USING (user_id) LEFT JOIN p USING (user_id)
    ORDER BY user_id
    """,
)
def q_funnel_users(sf_dir: str):
    ev = read_parquet_clean(
        _pq(sf_dir, "events"), columns=["user_id", "ts", "event_type"]
    )

    def funnel(group: pa.Table) -> pa.Table:
        ts = pc.cast(group.column("ts"), pa.int64())
        g = pa.table(
            {
                "user_id": group.column("user_id"),
                "ts_us": ts,
                "event_type": group.column("event_type"),
            }
        )

        def first_after(event: str, anchor: pa.Table, anchor_col: str) -> pa.Table:
            """min ts of `event` rows strictly after each user's anchor ts."""
            rows = g.filter(pc.equal(g.column("event_type"), event))
            idx = pc.index_in(rows.column("user_id"), anchor.column("user_id"))
            bound = pc.take(anchor.column(anchor_col), idx)  # null if no anchor
            keep = pc.greater(rows.column("ts_us"), bound)  # null > x → null
            rows = rows.filter(pc.fill_null(keep, False))
            out = rows.group_by(["user_id"]).aggregate([("ts_us", "min")])
            return out.rename_columns(["user_id", anchor_col + "_next"])

        views = (
            g.filter(pc.equal(g.column("event_type"), "view"))
            .group_by(["user_id"])
            .aggregate([("ts_us", "min")])
            .rename_columns(["user_id", "view_us"])
        )
        clicks = first_after("click", views, "view_us").rename_columns(
            ["user_id", "click_us"]
        )
        purchases = first_after("purchase", clicks, "click_us").rename_columns(
            ["user_id", "purchase_us"]
        )
        out = views.join(clicks, keys=["user_id"], join_type="left outer").join(
            purchases, keys=["user_id"], join_type="left outer"
        )
        return out.select(["user_id", "view_us", "click_us", "purchase_us"]).cast(
            pa.schema(
                [
                    ("user_id", pa.int64()),
                    ("view_us", pa.int64()),
                    ("click_us", pa.int64()),
                    ("purchase_us", pa.int64()),
                ]
            )
        )

    return exchange_group(ev, ["user_id"], funnel, sort_by="user_id")


# ---------------------------------------------------------------------------
# Exact distributed heavy hitters (frequent items) WITHOUT a full-vocabulary
# shuffle: two passes over the text.
#   Pass 1 — per-batch exact counts keep only tokens with
#     local_count · s > local_n (pigeonhole: any token with global count
#     > N/s must clear that bar in ≥1 batch, so the union of per-batch
#     survivors is a guaranteed SUPERSET of the true heavy hitters; each
#     batch contributes < s candidates).
#   Pass 2 — the deduped candidate set (≤ s per batch, in practice ~s
#     total) broadcasts into a second pruned scan for exact global counts;
#     filter count · s > N. Result is exact, yet no stage ever moves or
#     holds the full vocabulary — the trade is a second scan, which at
#     100 TB is cheaper than a 10⁹-key exchange.
# ---------------------------------------------------------------------------
@_register(
    "q_heavy_hitter_tokens",
    """
    WITH tok AS (
      SELECT unnest(string_split(text, ' ')) AS token FROM documents
    ), tf AS (
      SELECT token FROM tok WHERE token <> ''
    )
    SELECT token, COUNT(*) AS n
    FROM tf GROUP BY token
    HAVING COUNT(*) * 200 > (SELECT COUNT(*) FROM tf)
    ORDER BY n DESC, token
    """,
)
def q_heavy_hitter_tokens(sf_dir: str, s: int = 200):
    docs = read_parquet_clean(_pq(sf_dir, "documents"), columns=["text"])

    def _tokens(b: pa.Table) -> pa.ChunkedArray:
        toks = pc.list_flatten(pc.split_pattern(b.column("text"), " "))
        return toks.filter(pc.not_equal(toks, ""))

    def candidates(b: pa.Table) -> pa.Table:
        toks = _tokens(b)
        g = (
            pa.table({"token": toks})
            .group_by("token")
            .aggregate([("token", "count")])
            .rename_columns(["token", "cnt"])
        )
        local_n = len(toks)
        keep = g.filter(
            pc.greater(pc.multiply(pc.cast(g.column("cnt"), pa.int64()), s), local_n)
        )
        # "" row carries this batch's token total (real tokens are never "")
        return pa.table(
            {
                "token": pa.concat_arrays(
                    [keep.column("token").combine_chunks(), pa.array([""])]
                ),
                "cnt": pa.array(
                    [0] * keep.num_rows + [local_n], pa.int64()
                ),
            }
        )

    def dedup(group: pa.Table) -> pa.Table:
        g = group.group_by("token").aggregate([("cnt", "sum")])
        return g.rename_columns(["token", "cnt"])

    cand = exchange_group(
        map_blocks(docs, candidates),
        ["token"],
        dedup,
    )
    # bounded driver materialization: < s candidates per batch, deduped
    cand_t = collect(cand)
    total_n = pc.sum(
        cand_t.filter(pc.equal(cand_t.column("token"), "")).column("cnt")
    ).as_py()
    cand_set = cand_t.filter(pc.not_equal(cand_t.column("token"), "")).column(
        "token"
    ).combine_chunks()
    # broadcast once via plasma — NOT closure capture, which would re-ship
    # the candidate array inside every serialized task (VERDICT r4 #5)
    import ray as _ray

    cand_ref = _ray.put(cand_set)

    def exact_counts(b: pa.Table) -> pa.Table:
        cs = _ray.get(cand_ref)  # plasma-cached per node, zero-copy arrow
        toks = _tokens(b)
        toks = toks.filter(pc.is_in(toks, value_set=cs))
        g = (
            pa.table({"token": toks})
            .group_by("token")
            .aggregate([("token", "count")])
            .rename_columns(["token", "n"])
        )
        return g.set_column(1, pa.field("n", pa.int64()), pc.cast(g.column("n"), pa.int64()))

    def final_sum(group: pa.Table) -> pa.Table:
        g = group.group_by("token").aggregate([("n", "sum")])
        return g.rename_columns(["token", "n"])

    exact = exchange_group(
        map_blocks(docs, exact_counts),
        ["token"],
        final_sum,
    )
    t = collect(exact)  # ≤ |candidates| rows
    if t.num_rows == 0:
        return pa.table({"token": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
    t = t.set_column(1, pa.field("n", pa.int64()), pc.cast(t.column("n"), pa.int64()))
    t = t.filter(pc.greater(pc.multiply(t.column("n"), s), total_n))
    return t.take(
        pc.sort_indices(t, sort_keys=[("n", "descending"), ("token", "ascending")])
    )


# ---------------------------------------------------------------------------
# Ordered string aggregation: comma-joined, ORDER-BY-sorted member list per
# group (the "collect members deterministically" serving shape — reference
# analogue: array_agg(distinct …) in snv_variant consequences, here with
# explicit intra-group ordering). A window on the nation sorts each member
# list by name; the kernel joins each nation's slice.
# ---------------------------------------------------------------------------
@_register(
    "q_nation_customer_list",
    """
    SELECT n_name AS nation_name,
           COUNT(*) AS n_customers,
           string_agg(c_name, ',' ORDER BY c_name) AS customer_names
    FROM customer JOIN nation ON c_nationkey = n_nationkey
    WHERE c_acctbal > 9000
    GROUP BY n_name
    ORDER BY nation_name
    """,
)
def q_nation_customer_list(sf_dir: str):
    nation = pq.read_table(_pq(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    dim = nation.rename_columns(["c_nationkey", "nation_name"])
    cust = read_parquet_clean(
        _pq(sf_dir, "customer"), columns=["c_name", "c_nationkey", "c_acctbal"]
    )

    def prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b.column("c_acctbal"), 9000.0))
        return b.select(["c_name", "c_nationkey"])

    joined = map_blocks(
        map_blocks(cust, prep),
        make_broadcast_join(dim, ["c_nationkey"], ["c_nationkey"], how="inner"),
    )

    def fold(c, g):
        names = c["c_name"]
        return {
            "nation_name": c["nation_name"][g.starts],
            "n_customers": g.lens,
            "customer_names": [
                ",".join(names[a : b + 1]) for a, b in zip(g.starts, g.ends)
            ],
        }

    return window(
        joined, "nation_name", ["c_name"], fold,
        _schema("nation_name", "n_customers", "customer_names",
                strings=("nation_name", "customer_names")),
        sort_by=["nation_name"],
    )


# ---------------------------------------------------------------------------
# Interpolated percentiles (percentile_cont semantics, completing the
# quantile family next to q_quality_quantiles' percentile_disc): position
# (n-1)·p always lands on a quarter-integer for p ∈ {.25,.5,.75}, so 4× the
# interpolated value is integer-exact — both engines emit
# round(percentile_cont(p)·4) and agree bit-for-bit.
# ---------------------------------------------------------------------------
@_register(
    "q_value_percentiles_cont",
    """
    SELECT event_type,
           CAST(ROUND(percentile_cont(0.25) WITHIN GROUP (
             ORDER BY CAST(ROUND(value*100) AS BIGINT)) * 4) AS BIGINT) AS p25_q,
           CAST(ROUND(percentile_cont(0.5) WITHIN GROUP (
             ORDER BY CAST(ROUND(value*100) AS BIGINT)) * 4) AS BIGINT) AS p50_q,
           CAST(ROUND(percentile_cont(0.75) WITHIN GROUP (
             ORDER BY CAST(ROUND(value*100) AS BIGINT)) * 4) AS BIGINT) AS p75_q
    FROM events
    GROUP BY event_type
    ORDER BY event_type
    """,
)
def q_value_percentiles_cont(sf_dir: str):
    ev = read_parquet_clean(_pq(sf_dir, "events"), columns=["event_type", "value"])

    def pct(c, g):
        # cents rise with value, so the value sort orders them too
        v = _cents(c["value"])
        out = {"event_type": c["event_type"][g.starts]}
        for p in (25, 50, 75):
            lo, rem = np.divmod((g.lens - 1) * p, 100)
            at = g.starts + lo
            step = v[np.minimum(at + 1, g.ends)] - v[at]
            out[f"p{p}_q"] = 4 * v[at] + step * (rem // 25)  # 0..3 quarter-steps
        return out

    return window(
        ev, "event_type", ["value"], pct,
        _schema("event_type", "p25_q", "p50_q", "p75_q", strings=("event_type",)),
        sort_by=["event_type"],
    )


# ---------------------------------------------------------------------------
# Full outer join (reconciliation shape: entities present on either side,
# nulls where the other side is absent) between two independently
# pre-aggregated inputs — both sides shrink to one row per key BEFORE the
# exchange, then aligned buckets full-outer-join in Acero.
# ---------------------------------------------------------------------------
@_register(
    "q_full_outer_activity",
    """
    WITH u AS (
      SELECT user_id AS id, COUNT(*) AS n_events FROM events GROUP BY user_id
    ), o AS (
      SELECT o_custkey AS id, COUNT(*) AS n_orders FROM orders
      WHERE o_custkey BETWEEN 100 AND 300 GROUP BY o_custkey
    )
    SELECT COALESCE(u.id, o.id) AS id, u.n_events, o.n_orders
    FROM u FULL OUTER JOIN o ON u.id = o.id
    ORDER BY id
    """,
)
def q_full_outer_activity(sf_dir: str):
    ev = read_parquet_clean(_pq(sf_dir, "events"), columns=["user_id"])
    orders = read_parquet_clean(_pq(sf_dir, "orders"), columns=["o_custkey"])

    def range_filter(b: pa.Table) -> pa.Table:
        k = b.column("o_custkey")
        return b.filter(
            pc.and_(pc.greater_equal(k, 100), pc.less_equal(k, 300))
        )

    u = partial_final_groupby(
        ev, ["user_id"], [([], "count_all", "n_events")],
        finish=lambda b: b.rename_columns(["id", "n_events"]),
    )
    o = partial_final_groupby(
        map_blocks(orders, range_filter), ["o_custkey"], [([], "count_all", "n_orders")],
        finish=lambda b: b.rename_columns(["id", "n_orders"]),
    )
    return hash_partitioned_join(u, o, "id", how="full outer", sort_by="id")


# ---------------------------------------------------------------------------
# OHLC downsampling bars (telemetry/finance shape): per (user, hour) the
# FIRST and LAST value by event time plus min/max — the order-sensitive
# aggregate pair (first/last) that plain groupby cannot express. A window on
# the user; its kernel splits users into hours and reduces every bar at once.
# ---------------------------------------------------------------------------
@_register(
    "q_hourly_ohlc",
    """
    SELECT user_id,
           CAST(FLOOR(epoch(ts)/3600) AS BIGINT) AS hour_bucket,
           first(CAST(ROUND(value*100) AS BIGINT) ORDER BY ts, event_id) AS open_c,
           max(CAST(ROUND(value*100) AS BIGINT)) AS high_c,
           min(CAST(ROUND(value*100) AS BIGINT)) AS low_c,
           last(CAST(ROUND(value*100) AS BIGINT) ORDER BY ts, event_id) AS close_c,
           COUNT(*) AS n_events
    FROM events
    GROUP BY user_id, hour_bucket
    ORDER BY user_id, hour_bucket
    """,
)
def q_hourly_ohlc(sf_dir: str):
    ev = read_parquet_clean(
        _pq(sf_dir, "events"), columns=["user_id", "ts", "event_id", "value"]
    )

    def bars(c, g):
        # the hour rises with ts, so (ts, event_id) also orders the bars
        cents, hour = _cents(c["value"]), c["ts"] // _HOUR_US
        b = g.split(hour)
        return {
            "user_id": c["user_id"][b.starts],
            "hour_bucket": hour[b.starts],
            "open_c": cents[b.starts],
            "high_c": np.maximum.reduceat(cents, b.starts),
            "low_c": np.minimum.reduceat(cents, b.starts),
            "close_c": cents[b.ends],
            "n_events": b.lens,
        }

    return window(
        ev, "user_id", ["ts", "event_id"], bars,
        _schema("user_id", "hour_bucket", "open_c", "high_c", "low_c",
                "close_c", "n_events"),
        sort_by=["user_id", "hour_bucket"],
    )


# ---------------------------------------------------------------------------
# Grouped top-k over an exploded fact (top tokens PER LANGUAGE): counts must
# be globally exact BEFORE any per-group prune (a per-batch prune à la
# topk_per_key would undercount), so this is a 2-hop shape:
#   hop 1 — per-batch partial (lang, token) counts → exchange on (lang,
#     token) → exact pair counts, then each bucket pre-prunes to its own
#     top-k per lang (safe: its pairs' counts are already global);
#   hop 2 — exchange the ≤ k·langs·buckets surviving rows on (lang) →
#     final top-k per lang. The vocabulary×langs pair space never
#     co-locates by lang, and the driver never sees it.
# ---------------------------------------------------------------------------
@_register(
    "q_top_tokens_per_lang",
    """
    SELECT lang, token, n FROM (
      SELECT lang, token, COUNT(*) AS n FROM (
        SELECT lang, unnest(string_split(text, ' ')) AS token FROM documents
      ) WHERE token <> ''
      GROUP BY lang, token
    )
    QUALIFY row_number() OVER (
      PARTITION BY lang ORDER BY n DESC, token) <= 5
    ORDER BY lang, n DESC, token
    """,
)
def q_top_tokens_per_lang(sf_dir: str, k: int = 5):
    docs = read_parquet_clean(_pq(sf_dir, "documents"), columns=["lang", "text"])

    def explode_count(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern(b.column("text"), " ")
        lens = pc.list_value_length(toks).fill_null(0)
        # repeat each row's lang once per exploded token (vectorized)
        lang = pa.array(
            np.repeat(
                b.column("lang").to_numpy(zero_copy_only=False), lens.to_numpy()
            ),
            pa.string(),
        )
        flat = pc.list_flatten(toks)
        t = pa.table({"lang": lang, "token": flat}).filter(
            pc.not_equal(flat, "")
        )
        g = t.group_by(["lang", "token"]).aggregate([("token", "count")])
        return g.rename_columns(["lang", "token", "n"])

    def top_per_lang(g: pa.Table) -> pa.Table:
        from radiant_portal_pipeline_ray.stages.aggregates import (
            topk_per_key_table,
        )

        neg = pc.multiply(g.column("n"), pa.scalar(-1, pa.int64()))
        pruned = topk_per_key_table(
            g.append_column("neg_n", neg),
            ["lang"], [("neg_n", "ascending"), ("token", "ascending")], k=k,
        )
        return pruned.select(["lang", "token", "n"])

    def exact_then_prune(group: pa.Table) -> pa.Table:
        g = (
            group.group_by(["lang", "token"])
            .aggregate([("n", "sum")])
            .rename_columns(["lang", "token", "n"])
        )
        g = g.set_column(2, pa.field("n", pa.int64()), pc.cast(g.column("n"), pa.int64()))
        # bucket-local top-k per lang over GLOBAL counts (all of a pair's
        # partials landed here, so n is exact; a lang's true top-k is a
        # subset of the union of per-bucket top-ks)
        return top_per_lang(g)

    pair_counts = exchange_group(
        map_blocks(docs, explode_count),
        ["lang", "token"],
        exact_then_prune,
    )
    return exchange_group(
        pair_counts, ["lang"], top_per_lang,
        sort_by=["lang", ("n", "descending"), "token"],
    )


# ---------------------------------------------------------------------------
# CUBE (non-hierarchical grouping sets, complements ROLLUP): all four
# grouping sets of (region, mktsegment) fold from ONE finest-grain partial
# aggregate — the fact table is scanned exactly once.
# ---------------------------------------------------------------------------
@_register(
    "q_cube_revenue",
    """
    SELECT r_name AS region_name, c_mktsegment AS segment,
           CAST(SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS BIGINT) AS revenue_c,
           COUNT(*) AS n_orders
    FROM orders
    JOIN customer ON o_custkey = c_custkey
    JOIN nation   ON c_nationkey = n_nationkey
    JOIN region   ON n_regionkey = r_regionkey
    GROUP BY CUBE(r_name, c_mktsegment)
    ORDER BY region_name NULLS FIRST, segment NULLS FIRST
    """,
)
def q_cube_revenue(sf_dir: str):
    r, m = "region_name", "segment"
    return _grouping_sets(sf_dir, [[r, m], [r], [m], []], segment="c_mktsegment")


# ---------------------------------------------------------------------------
# EXCEPT (set difference with distinct semantics) as a first-class entry:
# distinct is taken per side INSIDE the exchange buckets (both sides
# co-partition on the key), so neither distinct set materializes globally.
# ---------------------------------------------------------------------------
@_register(
    "q_except_recent_custkeys",
    """
    SELECT custkey FROM (
      SELECT c_custkey AS custkey FROM customer
      EXCEPT
      SELECT o_custkey FROM orders WHERE o_orderdate >= TIMESTAMP '2001-01-01'
    ) ORDER BY custkey
    """,
)
def q_except_recent_custkeys(sf_dir: str):
    cust = read_parquet_clean(_pq(sf_dir, "customer"), columns=["c_custkey"])
    orders = read_parquet_clean(
        _pq(sf_dir, "orders"), columns=["o_custkey", "o_orderdate"]
    )

    def left_prep(b: pa.Table) -> pa.Table:
        g = b.group_by(["c_custkey"]).aggregate([])
        return g.rename_columns(["custkey"])

    cutoff = pa.scalar(
        np.datetime64("2001-01-01", "us").astype("datetime64[us]").item(),
        pa.timestamp("us"),
    )

    def right_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater_equal(b.column("o_orderdate"), cutoff))
        g = b.group_by(["o_custkey"]).aggregate([])
        return g.rename_columns(["custkey"])

    l = map_blocks(cust, left_prep)
    r = map_blocks(orders, right_prep)

    def except_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lt = lt.group_by(["custkey"]).aggregate([])
        keep = pc.invert(
            pc.is_in(lt.column("custkey"), value_set=rt.column("custkey").combine_chunks())
        )
        return lt.filter(keep)

    return exchange_join(
        l, r, ["custkey"], ["custkey"], except_bucket,
        sort_by="custkey",
    )


# ---------------------------------------------------------------------------
# rank() vs dense_rank() per key (gap vs no-gap ranking over ties) — both
# derived in one vectorized pass per bucket: ties share a rank; rank jumps
# past ties, dense_rank does not.
# ---------------------------------------------------------------------------
@_register(
    "q_order_price_ranks",
    """
    SELECT o_custkey, o_orderkey,
           CAST(ROUND(o_totalprice*100) AS BIGINT) AS totalprice_c,
           rank() OVER (
             PARTITION BY o_custkey
             ORDER BY CAST(ROUND(o_totalprice*100) AS BIGINT) DESC) AS price_rank,
           dense_rank() OVER (
             PARTITION BY o_custkey
             ORDER BY CAST(ROUND(o_totalprice*100) AS BIGINT) DESC) AS price_dense_rank
    FROM orders
    ORDER BY o_custkey, totalprice_c DESC, o_orderkey
    """,
)
def q_order_price_ranks(sf_dir: str):
    orders = read_parquet_clean(
        _pq(sf_dir, "orders"), columns=["o_custkey", "o_orderkey", "o_totalprice"]
    )

    def ranks(c, g):
        # cents fall with the price, so equal cents are adjacent tie runs
        cents = _cents(c["o_totalprice"])
        ties = g.split(cents)
        dcum = np.cumsum(ties.first)
        return {
            "totalprice_c": cents,
            "price_rank": ties.start_abs - g.start_abs + 1,
            "price_dense_rank": dcum - g.spread(dcum[g.starts]) + 1,
        }

    return window(
        orders, "o_custkey", [("o_totalprice", "descending"), "o_orderkey"],
        ranks,
        _schema("o_custkey", "o_orderkey", "totalprice_c", "price_rank",
                "price_dense_rank"),
        sort_by=["o_custkey", ("totalprice_c", "descending"), "o_orderkey"],
    )


# ---------------------------------------------------------------------------
# INTERSECT (set intersection, distinct semantics) — symmetric to the
# EXCEPT entry: both sides co-partition, per-side distinct happens inside
# the bucket, neither distinct set materializes globally.
# ---------------------------------------------------------------------------
@_register(
    "q_intersect_active_custkeys",
    """
    SELECT custkey FROM (
      SELECT o_custkey AS custkey FROM orders
        WHERE o_orderdate >= TIMESTAMP '2000-01-01'
      INTERSECT
      SELECT o_custkey FROM orders WHERE o_orderdate < TIMESTAMP '1996-01-01'
    ) ORDER BY custkey
    """,
)
def q_intersect_active_custkeys(sf_dir: str):
    orders = read_parquet_clean(
        _pq(sf_dir, "orders"), columns=["o_custkey", "o_orderdate"]
    )
    lo = pa.scalar(
        np.datetime64("2000-01-01", "us").astype("datetime64[us]").item(),
        pa.timestamp("us"),
    )
    hi = pa.scalar(
        np.datetime64("1996-01-01", "us").astype("datetime64[us]").item(),
        pa.timestamp("us"),
    )

    def side(pred):
        def prep(b: pa.Table) -> pa.Table:
            g = b.filter(pred(b)).group_by(["o_custkey"]).aggregate([])
            return g.rename_columns(["custkey"])

        return prep

    l = map_blocks(
        orders, side(lambda b: pc.greater_equal(b.column("o_orderdate"), lo))
    )
    r = map_blocks(orders, side(lambda b: pc.less(b.column("o_orderdate"), hi)))

    def intersect_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lt = lt.group_by(["custkey"]).aggregate([])
        return lt.filter(
            pc.is_in(
                lt.column("custkey"), value_set=rt.column("custkey").combine_chunks()
            )
        )

    return exchange_join(
        l, r, ["custkey"], ["custkey"], intersect_bucket,
        sort_by="custkey",
    )


# ---------------------------------------------------------------------------
# Grouped MODE (most frequent value per key, ties → smallest value): one
# keyed exchange; each bucket counts its keys' (key, value) pairs with one
# arrow group_by, then a vectorized top-1 pick over (count desc, value asc).
# ---------------------------------------------------------------------------
@_register(
    "q_modal_event_type",
    """
    SELECT user_id, event_type AS modal_type, n FROM (
      SELECT user_id, event_type, COUNT(*) AS n FROM events
      GROUP BY user_id, event_type
    )
    QUALIFY row_number() OVER (
      PARTITION BY user_id ORDER BY n DESC, event_type) = 1
    ORDER BY user_id
    """,
)
def q_modal_event_type(sf_dir: str):
    from radiant_portal_pipeline_ray.stages.aggregates import topk_per_key_table

    ev = read_parquet_clean(
        _pq(sf_dir, "events"), columns=["user_id", "event_type"]
    )

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["user_id", "event_type"]).aggregate([("event_type", "count")])
        g = g.rename_columns(["user_id", "event_type", "n"])
        return g.set_column(2, pa.field("n", pa.int64()), pc.cast(g.column("n"), pa.int64()))

    def modal(group: pa.Table) -> pa.Table:
        g = (
            group.group_by(["user_id", "event_type"])
            .aggregate([("n", "sum")])
            .rename_columns(["user_id", "event_type", "n"])
        )
        g = g.set_column(2, pa.field("n", pa.int64()), pc.cast(g.column("n"), pa.int64()))
        g = g.append_column(
            "neg_n", pc.multiply(g.column("n"), pa.scalar(-1, pa.int64()))
        )
        top = topk_per_key_table(
            g, ["user_id"], [("neg_n", "ascending"), ("event_type", "ascending")], k=1
        )
        return pa.table(
            {
                "user_id": top.column("user_id"),
                "modal_type": top.column("event_type"),
                "n": top.column("n"),
            }
        )

    return exchange_group(
        map_blocks(ev, partial),
        ["user_id"],
        modal,
        sort_by="user_id",
    )


# ---------------------------------------------------------------------------
# UNPIVOT / melt (wide → long, the inverse of q_pivot_event_values): the
# per-user conditional sums widen into 5 typed columns, then melt back into
# (user_id, event_type, value_c) rows — zero-copy column stacking per
# batch, no shuffle beyond the aggregate's own exchange.
# ---------------------------------------------------------------------------
def _unpivot_sql() -> str:
    selects = "\n      UNION ALL ".join(
        f"SELECT user_id, '{t}' AS event_type, {t}_c AS value_c FROM wide"
        for t in _PIVOT_TYPES
    )
    cases = ",\n             ".join(
        f"CAST(SUM(CASE WHEN event_type = '{t}' THEN"
        f" CAST(ROUND(value*100) AS BIGINT) ELSE 0 END) AS BIGINT) AS {t}_c"
        for t in _PIVOT_TYPES
    )
    return f"""
    WITH wide AS (
      SELECT user_id,
             {cases}
      FROM events GROUP BY user_id
    )
    SELECT * FROM (
      {selects}
    ) ORDER BY user_id, event_type
    """


@_register("q_unpivot_event_values", _unpivot_sql())
def q_unpivot_event_values(sf_dir: str):
    wide = q_pivot_event_values(sf_dir)

    def melt(b: pa.Table) -> pa.Table:
        n = b.num_rows
        parts = []
        for t in _PIVOT_TYPES:
            parts.append(
                pa.table(
                    {
                        "user_id": b.column("user_id"),
                        "event_type": pa.array([t] * n, pa.string()),
                        "value_c": b.column(f"{t}_c"),
                    }
                )
            )
        return pa.concat_tables(parts)

    return sort_table(map_blocks(wide, melt), ["user_id", "event_type"])


# ---------------------------------------------------------------------------
# Window-function completion: NTILE / LEAD / PERCENT_RANK+CUME_DIST / a
# bounded ROWS frame. Like every PARTITION BY query in this module, each is
# one ``aggregates.window`` call: the operator co-locates the keys once
# through the keyed task exchange, sorts each bucket once by (key, ORDER
# BY) and hands the kernel the bucket's ``Groups`` (group starts, lengths,
# per-row offsets, a segment-bounded searchsorted). The kernel is a handful
# of vectorized numpy passes (prefix sums, run-boundary scans) over all of
# the bucket's groups — no per-key Python, no second shuffle. A window
# PARTITION BY key never spans exchange buckets (exchange_group hashes on
# exactly that key), so per-group offsets/counts inside a bucket are global.
# ref: the reference computes its ranked/windowed shapes in StarRocks SQL
#      (e.g. row_number picks in germline variant staging); here each is a
#      first-class distributed kernel.
# ---------------------------------------------------------------------------
@_register(
    "q_ntile_user_quartiles",
    """
    SELECT event_id, user_id,
           CAST(NTILE(4) OVER (
             PARTITION BY user_id ORDER BY value, event_id) AS BIGINT)
             AS quartile
    FROM events
    ORDER BY user_id, event_id
    """,
)
def q_ntile_user_quartiles(sf_dir: str):
    """NTILE(k): first (n % k) tiles get ceil(n/k) rows, the rest floor —
    computed from (pos, n) per row with two integer divisions."""
    ev = read_parquet_clean(
        _pq(sf_dir, "events"), columns=["event_id", "user_id", "value"]
    )
    k = 4

    def ntile(c, g):
        pos, n = g.pos, g.spread(g.lens)
        base, rem = n // k, n % k
        fat = rem * (base + 1)  # rows covered by the (base+1)-sized tiles
        tile = np.where(
            pos < fat,
            pos // (base + 1),
            rem + (pos - fat) // np.maximum(base, 1),
        ) + 1
        return {"quartile": tile}

    return window(
        ev, "user_id", ["value", "event_id"], ntile,
        _schema("event_id", "user_id", "quartile"),
        sort_by=["user_id", "event_id"],
    )


@_register(
    "q_lead_next_event",
    """
    SELECT event_id, user_id, epoch_us(ts) AS ts_us,
           LEAD(epoch_us(ts)) OVER (
             PARTITION BY user_id ORDER BY ts, event_id) - epoch_us(ts)
             AS next_gap_us,
           LEAD(event_type) OVER (
             PARTITION BY user_id ORDER BY ts, event_id) AS next_type
    FROM events
    ORDER BY user_id, ts_us, event_id
    """,
)
def q_lead_next_event(sf_dir: str):
    """LEAD over both an integer and a string column (NULL at each key's
    last row) — the forward twin of q_event_gaps' LAG."""
    ev = read_parquet_clean(
        _pq(sf_dir, "events"),
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def lead(c, g):
        ts = c["ts"]
        last = np.append(g.first[1:], True)
        nxt = np.minimum(np.arange(len(ts)) + 1, len(ts) - 1)
        return {
            "ts_us": ts,
            "next_gap_us": pa.array(ts[nxt] - ts, pa.int64(), mask=last),
            "next_type": pa.array(c["event_type"][nxt], pa.string(), mask=last),
        }

    return window(
        ev, "user_id", ["ts", "event_id"], lead,
        _schema("event_id", "user_id", "ts_us", "next_gap_us", "next_type",
                strings=("next_type",)),
        sort_by=["user_id", "ts_us", "event_id"],
    )


@_register(
    "q_price_percent_ranks",
    """
    SELECT o_orderkey, o_custkey,
           CAST(FLOOR(PERCENT_RANK() OVER (
             PARTITION BY o_custkey ORDER BY o_totalprice) * 10000)
             AS BIGINT) AS pr_e4,
           CAST(FLOOR(CUME_DIST() OVER (
             PARTITION BY o_custkey ORDER BY o_totalprice) * 10000)
             AS BIGINT) AS cd_e4
    FROM orders
    ORDER BY o_custkey, o_orderkey
    """,
)
def q_price_percent_ranks(sf_dir: str):
    """PERCENT_RANK ((rank-1)/(n-1), gaps-rank over ties, 0 for n=1) and
    CUME_DIST (rows_le/n) in one pass. Ties share a rank, so the kernel
    tracks VALUE-RUN boundaries, not just row positions. Both engines
    evaluate the identical float64 expression before FLOOR — the e4
    fixed-point is a floor of the same double, not a re-computation."""
    orders = read_parquet_clean(
        _pq(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def ranks(c, g):
        runs = g.split(c["o_totalprice"])  # value runs within each customer
        n = g.spread(g.lens)
        rank = runs.start_abs - g.start_abs + 1  # gaps-rank: first row of the run
        rows_le = runs.spread(runs.ends) - g.start_abs + 1
        pr = np.where(n > 1, (rank - 1) / np.maximum(n - 1, 1), 0.0)
        cd = rows_le / n
        return {
            "pr_e4": np.floor(pr * 10000).astype(np.int64),
            "cd_e4": np.floor(cd * 10000).astype(np.int64),
        }

    return window(
        orders, "o_custkey", ["o_totalprice", "o_orderkey"], ranks,
        _schema("o_orderkey", "o_custkey", "pr_e4", "cd_e4"),
        sort_by=["o_custkey", "o_orderkey"],
    )


@_register(
    "q_moving_sum3",
    """
    SELECT event_id, user_id, epoch_us(ts) AS ts_us,
           CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) OVER (
             PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) AS mov3_c
    FROM events
    ORDER BY user_id, ts_us, event_id
    """,
)
def q_moving_sum3(sf_dir: str):
    """Bounded ROWS frame (2 PRECEDING..CURRENT): the frame sum is a
    difference of two exclusive-prefix-sum reads, with the frame's lower
    edge clamped to the key's first row — integer cents, order-exact."""
    ev = read_parquet_clean(
        _pq(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def moving(c, g):
        prefix = np.concatenate(([0], np.cumsum(_cents(c["value"]))))  # exclusive
        idx = np.arange(len(g.pos))
        mov = prefix[idx + 1] - prefix[np.maximum(idx - 2, g.start_abs)]
        return {"ts_us": c["ts"], "mov3_c": mov}

    return window(
        ev, "user_id", ["ts", "event_id"], moving,
        _schema("event_id", "user_id", "ts_us", "mov3_c"),
        sort_by=["user_id", "ts_us", "event_id"],
    )


# ---------------------------------------------------------------------------
# TPC-H Q3 shape: 3-table star filter-join → grouped revenue → global top-10.
# Execution: date-pruned orders semi-join the BUILDING customers (a
# partitioned join, on the driver when small), then hash-partition-join the
# shipdate-pruned fact, revenue folds per orderkey with per-batch partial
# combining, and the top-10 is a per-batch prune (≤10 rows leave any batch)
# + one single-block final pick — the full grouped result never sorts or
# co-locates. Revenue is per-row fixed-point BIGINT before summing, so both
# engines are order-of-summation exact.
# ref: the chained enrichment star-join family (J4/J5,
#      germline_snv_occurrence_insert_partition_delta.sql) with a ranked
#      LIMIT head like the reference's ranked variant picks.
# ---------------------------------------------------------------------------
_Q3_CUTOFF = "1998-06-01T00:00:00"


@_register(
    "q3_shipping_priority",
    f"""
    SELECT l_orderkey,
           CAST(SUM(CAST(ROUND(l_extendedprice*(1-l_discount)*10000) AS BIGINT))
             AS BIGINT) AS revenue_e4,
           epoch_us(o_orderdate) AS orderdate_us
    FROM customer
    JOIN orders   ON c_custkey = o_custkey
    JOIN lineitem ON l_orderkey = o_orderkey
    WHERE c_mktsegment = 'BUILDING'
      AND o_orderdate < TIMESTAMP '{_Q3_CUTOFF.replace("T", " ")}'
      AND l_shipdate  > TIMESTAMP '{_Q3_CUTOFF.replace("T", " ")}'
    GROUP BY l_orderkey, o_orderdate
    ORDER BY revenue_e4 DESC, orderdate_us, l_orderkey
    LIMIT 10
    """,
)
def q3_shipping_priority(sf_dir: str, k: int = 10):
    cutoff = pa.scalar(np.datetime64(_Q3_CUTOFF, "us"))

    building = read_parquet_clean(
        _pq(sf_dir, "customer"),
        columns=["c_custkey"],
        filter=pc.field("c_mktsegment") == "BUILDING",
    )
    orders = hash_partitioned_join(
        read_parquet_clean(
            _pq(sf_dir, "orders"),
            columns=["o_orderkey", "o_custkey", "o_orderdate"],
            filter=pc.field("o_orderdate") < cutoff,
        ),
        building, "o_custkey", "c_custkey", how="semi",
        finish=lambda t: t.select(["o_orderkey", "o_orderdate"]),
    )

    def rev_prep(b: pa.Table) -> pa.Table:
        rev = pc.multiply(
            b.column("l_extendedprice"), pc.subtract(1.0, b.column("l_discount"))
        )
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "rev_e4": _to_cents(rev, 10000),
            }
        )

    li = read_parquet_clean(
        _pq(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"],
        filter=pc.field("l_shipdate") > cutoff,
    )

    joined = hash_partitioned_join(
        map_blocks(li, rev_prep), orders, "l_orderkey", "o_orderkey", how="inner"
    )

    def keyed(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "orderdate_us": pc.cast(b.column("o_orderdate"), pa.int64()),
                "rev_e4": b.column("rev_e4"),
            }
        )

    agg = partial_final_groupby(
        map_blocks(joined, keyed),
        ["l_orderkey", "orderdate_us"],
        [("rev_e4", "sum", "revenue_e4")],
    )

    def topk(b: pa.Table) -> pa.Table:
        rev = pc.cast(b.column("revenue_e4"), pa.int64())
        b = b.set_column(
            b.schema.get_field_index("revenue_e4"), "revenue_e4", rev
        )
        if b.num_rows <= k:
            order = np.lexsort(
                (
                    b.column("l_orderkey").to_numpy(zero_copy_only=False),
                    b.column("orderdate_us").to_numpy(zero_copy_only=False),
                    -rev.to_numpy(zero_copy_only=False),
                )
            )
            return b.select(
                ["l_orderkey", "revenue_e4", "orderdate_us"]
            ).take(pa.array(order))
        order = np.lexsort(
            (
                b.column("l_orderkey").to_numpy(zero_copy_only=False),
                b.column("orderdate_us").to_numpy(zero_copy_only=False),
                -rev.to_numpy(zero_copy_only=False),
            )
        )[:k]
        return b.select(["l_orderkey", "revenue_e4", "orderdate_us"]).take(
            pa.array(order)
        )

    # per-batch prune (≤k rows survive each batch) → one driver final pick
    return topk(collect(map_blocks(agg, topk)))


# ---------------------------------------------------------------------------
# RANGE frame window (time-based trailing window): SUM over every event of
# the same user within the last hour INCLUSIVE of the current row's peers —
# RANGE semantics, not ROWS: all rows sharing the current ORDER BY value
# join the frame. Kernel: both frame edges come from ``Groups.searchsorted``
# (one global binary search over a band-shifted timestamp axis, bounded to
# each user's rows, with NO per-group Python loop) read against one
# exclusive prefix sum.
# ---------------------------------------------------------------------------
@_register(
    "q_trailing_hour_sum",
    """
    SELECT event_id, user_id, epoch_us(ts) AS ts_us,
           CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) OVER (
             PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
             AS BIGINT) AS hour_c
    FROM events
    ORDER BY user_id, ts_us, event_id
    """,
)
def q_trailing_hour_sum(sf_dir: str):
    ev = read_parquet_clean(
        _pq(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def trailing(c, g):
        ts = c["ts"]
        prefix = np.concatenate(([0], np.cumsum(_cents(c["value"]))))
        lo = g.searchsorted(ts, ts - _HOUR_US, "left")
        hi = g.searchsorted(ts, ts, "right")
        return {"ts_us": ts, "hour_c": prefix[hi] - prefix[lo]}

    return window(
        ev, "user_id", ["ts", "event_id"], trailing,
        _schema("event_id", "user_id", "ts_us", "hour_c"),
        sort_by=["user_id", "ts_us", "event_id"],
    )
